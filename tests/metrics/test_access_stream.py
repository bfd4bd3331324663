"""Round-trip and analysis tests for the sampled access stream: ACCESS
events in the RTRC trace (``repro.sat.trace``), analyzed by
``repro.metrics.access``."""

from __future__ import annotations

import io

import pytest

from repro.metrics.access import (
    SID_ARENA,
    SID_CLAUSE,
    SID_TRAIL,
    access_events,
    analyze_access_stream,
    render_access_report,
)
from repro.sat.trace import (
    EV_ACCESS,
    EV_DECIDE,
    TRACE_MAGIC,
    TraceFormatError,
    TraceWriter,
    decode_trace,
    encode_events,
)


def _write_stream(events):
    buf = io.BytesIO()
    writer = TraceWriter(buf, 4)
    for sid, offset in events:
        writer.access_block(sid, (offset,))
    writer.close()
    return buf.getvalue()


def test_round_trip_preserves_events():
    events = [
        (SID_CLAUSE, 5),
        (SID_CLAUSE, 3),       # negative delta (zigzag path)
        (SID_ARENA, 1000),
        (SID_TRAIL, 17),
        (SID_ARENA, 1001),
        (SID_CLAUSE, 1 << 30),  # large delta, multi-byte varint
        (SID_CLAUSE, 0),
    ]
    data = _write_stream(events)
    assert data[:4] == TRACE_MAGIC
    assert list(access_events(data)) == events
    # The decoded events re-encode to the same bytes.
    _, decoded = decode_trace(data)
    assert [e.kind for e in decoded] == [EV_ACCESS] * len(events)
    assert encode_events(decoded, 4) == data


def test_record_block_matches_single_records():
    buf_a = io.BytesIO()
    w = TraceWriter(buf_a, 4)
    w.access_block(SID_ARENA, [10, 20, 15, 15])
    w.close()
    buf_b = io.BytesIO()
    v = TraceWriter(buf_b, 4)
    for off in (10, 20, 15, 15):
        v.access_block(SID_ARENA, (off,))
    v.close()
    assert buf_a.getvalue() == buf_b.getvalue()
    assert w.events_written == 4


def test_file_round_trip(tmp_path):
    path = tmp_path / "capture.rtrc"
    writer = TraceWriter(str(path), 4)
    writer.access_block(SID_CLAUSE, [1, 2, 3])
    writer.close()
    assert list(access_events(str(path))) == [
        (SID_CLAUSE, 1), (SID_CLAUSE, 2), (SID_CLAUSE, 3),
    ]


def test_bad_magic_raises():
    with pytest.raises(TraceFormatError):
        list(access_events(b"NOPE" + bytes(8)))
    with pytest.raises(TraceFormatError):
        analyze_access_stream([b"NOPE" + bytes(8)])


def test_access_events_skip_search_events():
    blob = encode_events(
        [(EV_DECIDE, 6), (EV_ACCESS, (9 << 3) | SID_CLAUSE), (EV_DECIDE, 2)],
        4,
    )
    assert list(access_events(blob)) == [(SID_CLAUSE, 9)]


def test_analyze_counts_and_hot_offsets():
    events = (
        [(SID_CLAUSE, 7)] * 5
        + [(SID_CLAUSE, 3)] * 2
        + [(SID_ARENA, 100), (SID_ARENA, 200)]
    )
    data = _write_stream(events)
    report = analyze_access_stream([data], top_n=1)
    assert report["total_events"] == 9
    clause = report["structures"]["clause"]
    assert clause["events"] == 7
    assert clause["distinct_offsets"] == 2
    assert clause["min_offset"] == 3
    assert clause["max_offset"] == 7
    assert clause["top_offsets"] == [(7, 5)]
    # 7 re-touched 4 times at event gap 1 → reuse bucket log2(1)=1;
    # 3 re-touched once.
    assert sum(clause["reuse_log2_hist"].values()) == 5
    arena = report["structures"]["arena"]
    assert arena["events"] == 2
    assert arena["reuse_log2_hist"] == {}


def test_analyze_merges_multiple_captures():
    a = _write_stream([(SID_CLAUSE, 1), (SID_CLAUSE, 2)])
    b = _write_stream([(SID_CLAUSE, 2), (SID_TRAIL, 9)])
    report = analyze_access_stream([io.BytesIO(a), io.BytesIO(b)])
    assert report["total_events"] == 4
    assert report["structures"]["clause"]["events"] == 3
    assert report["structures"]["trail"]["events"] == 1


def test_render_access_report_mentions_structures():
    data = _write_stream([(SID_CLAUSE, 4), (SID_CLAUSE, 4), (SID_ARENA, 12)])
    text = render_access_report(analyze_access_stream([data]))
    assert "access stream: 3 events" in text
    assert "[clause]" in text
    assert "[arena]" in text
    assert "hottest offsets:" in text
