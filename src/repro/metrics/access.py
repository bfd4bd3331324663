"""The sampled memory-access stream: ACCESS events in the RTRC trace.

While the flat raw counters (``repro.sat.profile``) answer "*how
much* does each structure get touched", the access stream answers
*where*: ``(structure_id, offset)`` events — clause IDs and arena word
offsets touched by conflict analysis, plus the trail depth — sampled
every :data:`ACCESS_SAMPLE_EVERY` conflicts at search level (never
inside the hot loops).  A traced solve with
``SolverConfig.profile_access`` on writes them into its own ``.rtrc``
as ACCESS events (wire format: ``repro.sat.trace``; the payload is a
per-structure zigzag offset delta, ~1-3 bytes per event).  This module
re-exports the structure spaces and turns the events of one or more
traces into an offline locality report (hot-clause ranking, offset
histograms, reuse-distance approximation) — ``python -m repro.trace``
renders it beside the trace report.
"""

from __future__ import annotations

import io
from collections import Counter as _TallyCounter
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.sat.trace import (
    ACCESS_SAMPLE_EVERY,
    EV_ACCESS,
    SID_ARENA,
    SID_CLAUSE,
    SID_NAMES,
    SID_TRAIL,
    TraceReader,
)

__all__ = [
    "ACCESS_SAMPLE_EVERY",
    "SID_CLAUSE",
    "SID_ARENA",
    "SID_TRAIL",
    "SID_NAMES",
    "access_events",
    "analyze_access_stream",
    "render_access_report",
]


def access_events(source: object) -> Iterator[Tuple[int, int]]:
    """Yield the ``(sid, offset)`` ACCESS events of one trace (a path,
    bytes, or binary file); raises ``TraceFormatError`` on a damaged
    trace."""
    for kind, arg in TraceReader(source):  # type: ignore[arg-type]
        if kind == EV_ACCESS:
            yield arg & 7, arg >> 3


# ---------------------------------------------------------------------------
# Offline analysis: histograms, hot offsets, reuse distance
# ---------------------------------------------------------------------------

def _log2_bucket(value: int) -> int:
    return value.bit_length() if value > 0 else 0


def analyze_access_stream(
    paths: Sequence[object], top_n: int = 10
) -> Dict[str, object]:
    """Aggregate the ACCESS events of one or more traces into a
    locality report.

    Per structure space: event count, offset span, a log2 offset
    histogram, the ``top_n`` hottest offsets, and (for the clause and
    arena spaces) a log2 **reuse-distance approximation** histogram —
    the event-position gap between successive touches of the same
    offset, a standard stand-in for stack reuse distance that ranks
    "rereferenced soon" against "streamed once".
    """
    counts: Dict[int, int] = {}
    mins: Dict[int, int] = {}
    maxs: Dict[int, int] = {}
    offset_hist: Dict[int, _TallyCounter] = {}
    hot: Dict[int, _TallyCounter] = {}
    reuse_hist: Dict[int, _TallyCounter] = {}
    last_pos: Dict[int, Dict[int, int]] = {SID_CLAUSE: {}, SID_ARENA: {}}
    pos = 0
    for path in paths:
        for sid, offset in access_events(path):
            pos += 1
            counts[sid] = counts.get(sid, 0) + 1
            if sid not in mins or offset < mins[sid]:
                mins[sid] = offset
            if sid not in maxs or offset > maxs[sid]:
                maxs[sid] = offset
            offset_hist.setdefault(sid, _TallyCounter())[_log2_bucket(offset)] += 1
            hot.setdefault(sid, _TallyCounter())[offset] += 1
            seen = last_pos.get(sid)
            if seen is not None:
                prev = seen.get(offset)
                if prev is not None:
                    reuse_hist.setdefault(sid, _TallyCounter())[
                        _log2_bucket(pos - prev)
                    ] += 1
                seen[offset] = pos
    report: Dict[str, object] = {"total_events": pos, "structures": {}}
    structures: Dict[str, object] = report["structures"]  # type: ignore[assignment]
    for sid in sorted(counts):
        name = SID_NAMES.get(sid, f"sid{sid}")
        structures[name] = {
            "events": counts[sid],
            "min_offset": mins[sid],
            "max_offset": maxs[sid],
            "distinct_offsets": len(hot[sid]),
            "offset_log2_hist": dict(sorted(offset_hist[sid].items())),
            "top_offsets": hot[sid].most_common(top_n),
            "reuse_log2_hist": dict(sorted(reuse_hist.get(sid, _TallyCounter()).items())),
        }
    return report


def render_access_report(report: Dict[str, object], width: int = 40) -> str:
    """Human-readable rendering of :func:`analyze_access_stream`."""
    out = io.StringIO()
    total = report.get("total_events", 0)
    out.write(f"access stream: {total} events\n")
    structures: Dict[str, Dict[str, object]] = report.get("structures", {})  # type: ignore[assignment]
    for name, info in structures.items():
        out.write(
            f"\n[{name}] {info['events']} events, "
            f"{info['distinct_offsets']} distinct offsets, "
            f"span {info['min_offset']}..{info['max_offset']}\n"
        )
        hist: Dict[int, int] = info["offset_log2_hist"]  # type: ignore[assignment]
        peak = max(hist.values(), default=1)
        out.write("  offset distribution (log2 buckets):\n")
        for bucket, n in hist.items():
            bar = "#" * max(1, round(width * n / peak))
            lo = 0 if bucket == 0 else 1 << (bucket - 1)
            out.write(f"    2^{bucket:<2} (~{lo:>8}) {n:>8} {bar}\n")
        top: List[Tuple[int, int]] = info["top_offsets"]  # type: ignore[assignment]
        if top:
            out.write("  hottest offsets:\n")
            for offset, n in top:
                out.write(f"    {offset:>10} x{n}\n")
        reuse: Dict[int, int] = info["reuse_log2_hist"]  # type: ignore[assignment]
        if reuse:
            rpeak = max(reuse.values())
            out.write("  reuse distance (approx, log2 event gap):\n")
            for bucket, n in reuse.items():
                bar = "#" * max(1, round(width * n / rpeak))
                out.write(f"    2^{bucket:<2} {n:>8} {bar}\n")
    return out.getvalue()
