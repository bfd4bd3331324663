"""Byte-identity pin: the data plane may not change the search.

The two planes (python, native) share one algorithm, one watch-list
order discipline and every tie break, so the whole Table-1 pipeline
(BMC unrolling, incremental solving, strategy reordering, restarts,
clause reduction) must produce byte-identical search counters on
both — and those counters must still equal the PR 5 baseline capture
(``tests/data/table1_pr5_baseline.json``), so a plane cannot "pass" by
moving the search in lockstep with the other.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.table1 import run_table1
from repro.sat.kernel import native_available
from repro.workloads.suite import small_suite

BASELINE = Path(__file__).resolve().parent.parent / "data" / "table1_pr5_baseline.json"

#: Search-derived counters only (times are wall-clock, not search state).
_PINNED_FIELDS = ("status", "depth_reached", "decisions", "implications", "conflicts")


def _counters(report):
    return {
        row.instance.name: {
            method: {
                field: getattr(result, field) for field in _PINNED_FIELDS
            }
            for method, result in row.results.items()
        }
        for row in report.rows
    }


@pytest.mark.slow
def test_table1_subset_identical_across_backends():
    expected = json.loads(BASELINE.read_text())
    rows = [r for r in small_suite() if r.name in expected]
    assert {r.name for r in rows} == set(expected), "baseline rows missing from suite"

    backends = ["python"] + (["native"] if native_available() else [])
    for backend in backends:
        counters = _counters(run_table1(rows=rows, backend=backend))
        assert counters == expected, (
            f"{backend} plane drifted from the PR 5 baseline"
        )
