"""Tests for the trace analyzer CLI (``python -m repro.trace``, PR 8)."""

from __future__ import annotations

import json

import pytest

from repro.sat import CdclSolver, SolverConfig, VsidsStrategy
from repro.sat.trace import ACCESS_SAMPLE_EVERY, TRACE_VERSION
from repro.trace import analyze_trace, render_report
from repro.trace.__main__ import main
from repro.workloads.cnf_families import pigeonhole


@pytest.fixture
def php_trace(tmp_path):
    """A freshly captured pigeonhole trace (UNSAT, plenty of events)."""
    path = tmp_path / "php5.rtrc"
    formula = pigeonhole(5)
    config = SolverConfig(trace_path=str(path))
    outcome = CdclSolver(formula, strategy=VsidsStrategy(), config=config).solve()
    return path, formula, outcome


def test_analyze_trace_report_contents(php_trace):
    path, formula, outcome = php_trace
    report = analyze_trace(str(path))
    assert report["version"] == TRACE_VERSION
    assert report["num_vars"] == formula.num_vars
    assert report["status"] == "UNSAT"
    assert report["size_bytes"] == path.stat().st_size
    assert report["event_counts"]["DECIDE"] == outcome.stats.decisions
    assert report["event_counts"]["CONFLICT"] == outcome.stats.conflicts
    assert report["learned_clauses"] == outcome.stats.learned_clauses
    assert 0 <= report["final_trail_len"] <= formula.num_vars
    assert report["total_events"] > 0
    assert 0 < report["bytes_per_event"] < 8


def test_cli_text_report(php_trace, capsys):
    path, _, _ = php_trace
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "DECIDE" in out
    assert "UNSAT" in out
    assert "decisions by depth" in out
    assert "conflicts by depth" in out
    assert "learned-clause lengths" in out


def test_cli_json_report(php_trace, capsys):
    path, formula, outcome = php_trace
    assert main([str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["num_vars"] == formula.num_vars
    assert report["status"] == "UNSAT"
    assert report["event_counts"]["DECIDE"] == outcome.stats.decisions
    assert report["total_events"] == sum(report["event_counts"].values())
    assert report["bytes_per_event"] > 0


def test_cli_missing_file(capsys, tmp_path):
    assert main([str(tmp_path / "nope.rtrc")]) == 2
    assert "no such trace file" in capsys.readouterr().err


def test_cli_corrupt_file(capsys, tmp_path):
    bad = tmp_path / "bad.rtrc"
    bad.write_bytes(b"this is not a trace")
    assert main([str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_render_report_is_stable(php_trace):
    path, _, _ = php_trace
    report = analyze_trace(str(path))
    text = render_report(report)
    # Histogram bars render and the render is deterministic given the
    # same report dict.
    assert "#" in text
    assert text == render_report(report)


@pytest.fixture
def profiled_capture(tmp_path):
    """A directory of profiled traces (two pigeonhole solves), each
    carrying sampled ACCESS events; returns it with the solves'
    conflict counts."""
    trace_dir = tmp_path / "capture"
    trace_dir.mkdir()
    conflicts = []
    for holes in (5, 6):
        config = SolverConfig(
            trace_path=str(trace_dir / f"php{holes}.rtrc"), profile_access=True
        )
        outcome = CdclSolver(
            pigeonhole(holes), strategy=VsidsStrategy(), config=config
        ).solve()
        conflicts.append(outcome.stats.conflicts)
    return trace_dir, conflicts


def test_cli_access_report_directory_mode(profiled_capture, capsys):
    trace_dir, conflicts = profiled_capture
    assert main([str(trace_dir), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["sources"]) == len(conflicts)
    samples = sum(n // ACCESS_SAMPLE_EVERY for n in conflicts)
    assert samples > 0
    access = report["access"]
    structures = access["structures"]
    # One trail sample per sampled conflict; every clause ID has its
    # arena offset beside it.
    assert structures["trail"]["events"] == samples
    assert structures["clause"]["events"] == structures["arena"]["events"]
    assert access["total_events"] == sum(
        info["events"] for info in structures.values()
    )
    assert report["event_counts"]["ACCESS"] == access["total_events"]
    assert main([str(trace_dir)]) == 0
    text = capsys.readouterr().out
    assert "access stream:" in text
    assert "[clause]" in text


def test_cli_unprofiled_trace_has_no_access_report(php_trace, capsys):
    path, _, _ = php_trace
    assert main([str(path), "--json"]) == 0
    assert "access" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("keep", ["header", "mid_event"])
def test_cli_truncated_profiled_trace(profiled_capture, capsys, keep):
    trace_dir, _ = profiled_capture
    victim = max(trace_dir.iterdir(), key=lambda p: p.stat().st_size)
    data = victim.read_bytes()
    # Cut to the bare magic, or drop the last byte: the END event's
    # one-byte payload, which leaves a dangling tag.
    victim.write_bytes(data[:4] if keep == "header" else data[:-1])
    assert main([str(trace_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
