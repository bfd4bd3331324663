"""Per-depth solvers are freed by reference counting.

A solver and its decision strategy (and, on the kernel planes, its
kernels) used to form reference cycles, so every finished depth's solver
stayed alive until a full cyclic collection.  With the collector off,
each depth's solver must be gone as soon as the engine lets go of it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.bmc import BmcEngine
from repro.bmc.refine import RefineOrderBmc
from repro.sat import CdclSolver, SolverConfig
from repro.sat.heuristics import VsidsStrategy
from repro.sat.kernel import native_available
from repro.workloads import instance_by_name


@pytest.fixture
def collector_off():
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


def _run_and_track(engine):
    solvers = []
    engine.solver_hook = lambda solver, k: solvers.append(weakref.ref(solver))
    result = engine.run()
    return result, solvers


CONFIGS = [
    pytest.param(SolverConfig(), id="auto"),
    pytest.param(SolverConfig(backend="python"), id="python"),
    pytest.param(
        SolverConfig(backend="native"),
        id="native",
        marks=pytest.mark.skipif(
            not native_available(), reason="native kernel not buildable here"
        ),
    ),
]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("method", ["bmc", "dynamic"])
def test_no_per_depth_solver_outlives_its_depth(collector_off, config, method):
    circuit, prop = instance_by_name("03_b").build()
    if method == "bmc":
        engine = BmcEngine(circuit, prop, max_depth=12, solver_config=config)
    else:
        engine = RefineOrderBmc(
            circuit, prop, max_depth=12, mode=method, solver_config=config
        )
    result, solvers = _run_and_track(engine)
    assert len(solvers) == len(result.per_depth) > 3
    assert [ref for ref in solvers if ref() is not None] == []
    # The installed-prefix template is dropped with the run, too.
    assert engine._template is None


@pytest.mark.parametrize("method", ["static", "dynamic"])
def test_refined_engine_is_freed_by_reference_counting(collector_off, method):
    """A refined engine and its unrolling die with the last reference:
    the engine is not a cycle through its own strategy hook, so its
    clauses are not left for whatever runs next to collect."""
    circuit, prop = instance_by_name("03_b").build()
    engine = RefineOrderBmc(circuit, prop, max_depth=8, mode=method)
    engine.run()
    engine_ref = weakref.ref(engine)
    unroller_ref = weakref.ref(engine.unroller)
    del engine
    assert engine_ref() is None
    assert unroller_ref() is None


def test_persist_activity_warm_reattach_survives_detach(collector_off):
    """The strategy drops its solver at solve() exit; re-attaching to
    the same solver must still take the warm path (scores kept)."""
    circuit, prop = instance_by_name("03_b").build()
    from repro.encode.unroll import Unroller

    formula = Unroller(circuit, prop).instance(8).formula
    solver = CdclSolver(formula, config=SolverConfig(max_conflicts=20))
    strategy = VsidsStrategy()
    strategy.persist_activity = True
    solver.solve(strategy=strategy)
    assert strategy._solver is None
    scores = strategy._kscore
    scale = strategy._kinc
    solver.solve(strategy=strategy)
    assert strategy._kscore is scores  # warm: the score array was kept
    assert strategy._kinc >= scale
    # A different solver gets a cold attach.
    other = CdclSolver(formula, config=SolverConfig(max_conflicts=20))
    other.solve(strategy=strategy)
    assert strategy._kscore is not scores
