"""Cross-backend trace byte-identity pins (PR 8).

The trace stream records search-level events only (decisions,
conflicts, learned lengths, backtracks, restarts, reductions, trail
batches) — nothing from inside the data plane.  Since the two planes
are search-identical by contract, the traces they emit must be
**byte-identical**, not merely equivalent — including the conflict and
learned events the native plane emits from its C-built analysis.  Two
pins:

* the Table-1 identity subset (the same 4 rows
  ``test_kernel_identity.py`` uses) traced under every backend
  produces identical per-depth trace files, and
* a slice of the differential fuzzer's seeded instances produces
  identical trace bytes across backends on plain solver runs.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.table1 import run_table1
from repro.sat import CdclSolver, SolverConfig
from repro.sat.kernel import native_available
from repro.sat.trace import encode_events
from repro.workloads.suite import small_suite
from tests.properties.test_solver_differential import (
    _strategy_pairs,
    make_instance,
)

BASELINE = Path(__file__).resolve().parent.parent / "data" / "table1_pr5_baseline.json"


def _backends():
    return ["python"] + (["native"] if native_available() else [])


@pytest.mark.slow
def test_table1_subset_traces_byte_identical_across_backends(tmp_path):
    expected = json.loads(BASELINE.read_text())
    rows = [r for r in small_suite() if r.name in expected]
    assert {r.name for r in rows} == set(expected), "baseline rows missing from suite"

    backends = _backends()
    if len(backends) < 2:
        pytest.skip("only one backend available")
    captures = {}
    for backend in backends:
        trace_dir = tmp_path / backend
        run_table1(rows=rows, backend=backend, trace_dir=str(trace_dir))
        captures[backend] = {
            p.name: p.read_bytes() for p in sorted(trace_dir.iterdir())
        }
        assert captures[backend], f"{backend}: no traces written"

    reference = captures.pop("python")
    # One file per (row, method, depth); every method of every row
    # traced at least one depth.
    assert len(reference) >= len(rows) * 3
    for backend, capture in captures.items():
        assert capture.keys() == reference.keys(), (
            f"{backend}: trace file set differs"
        )
        for name, blob in reference.items():
            assert capture[name] == blob, (
                f"{backend}: trace {name} is not byte-identical to python"
            )


def test_fuzzer_kernel_traces_byte_identical_across_backends():
    import random

    from tests.properties.test_solver_differential import FUZZ_SEED

    backends = _backends()
    if len(backends) < 2:
        pytest.skip("only one backend available")
    for index in range(40):
        formula, _ = make_instance(index)
        blobs = {}
        for backend in backends:
            rng = random.Random(FUZZ_SEED + index + 1_000_000)
            production, _ = _strategy_pairs(rng, formula.num_vars, index % 4)
            events = []
            config = SolverConfig(backend=backend, trace_events=events)
            CdclSolver(formula, strategy=production, config=config).solve()
            blobs[backend] = encode_events(events, formula.num_vars)
        reference = blobs[backends[0]]
        assert reference, f"instance {index}: empty trace"
        for backend in backends[1:]:
            assert blobs[backend] == reference, (
                f"instance {index}: {backend} trace differs from "
                f"{backends[0]}"
            )
