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
  identical trace bytes across backends on plain solver runs, and on
  profiled ones (``profile_access=True``), whose traces also carry the
  sampled ACCESS events: one block per ``ACCESS_SAMPLE_EVERY``
  conflicts, naming clause IDs the solver knows.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.experiments.table1 import run_table1
from repro.sat import CdclSolver, SolverConfig
from repro.sat.kernel import native_available
from repro.sat.trace import (
    ACCESS_SAMPLE_EVERY,
    EV_ACCESS,
    SID_ARENA,
    SID_CLAUSE,
    SID_TRAIL,
    decode_trace,
)
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


def _check_access_blocks(solver, events):
    """The ACCESS events of a profiled solve: one block (clause IDs,
    their arena offsets, then the trail depth) per
    ``ACCESS_SAMPLE_EVERY`` conflicts, each clause ID one the solver
    installed or learned."""
    blocks = []
    block = []
    for kind, arg in events:
        if kind != EV_ACCESS:
            continue
        sid, offset = arg & 7, arg >> 3
        block.append((sid, offset))
        if sid == SID_TRAIL:
            blocks.append(block)
            block = []
    assert block == [], "ACCESS block without its trail sample"
    assert len(blocks) == solver.stats.conflicts // ACCESS_SAMPLE_EVERY
    known = len(solver._lits_view)
    for block in blocks:
        clauses = [off for sid, off in block if sid == SID_CLAUSE]
        arenas = [off for sid, off in block if sid == SID_ARENA]
        assert clauses, "a sampled conflict resolved over no clause"
        assert len(arenas) == len(clauses)
        assert all(0 <= cid < known for cid in clauses)
        assert 0 < block[-1][1] <= solver.num_vars


def test_fuzzer_kernel_traces_byte_identical_across_backends():
    _check_fuzzer_traces(profile_access=False)


def test_fuzzer_kernel_profiled_traces_byte_identical_across_backends():
    _check_fuzzer_traces(profile_access=True)


def _check_fuzzer_traces(profile_access):
    """Trace 40 fuzzer instances on every plane; the bytes must agree
    (a profiled run checks its ACCESS blocks on each plane too)."""
    import random

    from tests.properties.test_solver_differential import FUZZ_SEED

    backends = _backends()
    if len(backends) < 2 and not profile_access:
        pytest.skip("only one backend available")
    sampled = 0
    for index in range(40):
        formula, _ = make_instance(index)
        blobs = {}
        for backend in backends:
            rng = random.Random(FUZZ_SEED + index + 1_000_000)
            production, _ = _strategy_pairs(rng, formula.num_vars, index % 4)
            sink = io.BytesIO()
            config = SolverConfig(
                backend=backend, trace_path=sink, profile_access=profile_access
            )
            solver = CdclSolver(formula, strategy=production, config=config)
            solver.solve()
            blobs[backend] = sink.getvalue()
            _, events = decode_trace(blobs[backend])
            if profile_access:
                _check_access_blocks(solver, events)
                sampled += solver.stats.conflicts // ACCESS_SAMPLE_EVERY
            else:
                assert all(kind != EV_ACCESS for kind, _ in events)
        reference = blobs[backends[0]]
        assert reference, f"instance {index}: empty trace"
        for backend in backends[1:]:
            assert blobs[backend] == reference, (
                f"instance {index}: {backend} trace differs from "
                f"{backends[0]}"
            )
    if profile_access:
        assert sampled, "no instance reached a sampled conflict"
