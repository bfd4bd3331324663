"""Installed-prefix templates: a forked solver equals a cold install.

``CdclSolver(formula, prefix=template, prefix_clauses=n)`` extends a
never-solved template to ``formula``'s first ``n`` clauses and starts the
new solver as a copy of it, installing only the remaining clauses.  The
BMC engine forks every depth's solver this way.  These tests compare
the fork against a solver that installed the same formula cold, structure
by structure, on every data plane, and then compare the searches.  The
same comparison pins ``add_clauses`` (the incremental engines' bulk feed)
to one ``add_clause`` per clause.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cnf import CnfFormula, mk_lit
from repro.encode.unroll import Unroller
from repro.sat import CdclSolver, SolverConfig
from repro.sat.kernel import native_available
from repro.workloads import instance_by_name

_NATIVE = pytest.mark.skipif(
    not native_available(), reason="native kernel not buildable here"
)


#: Both data planes.
CELLS = [
    pytest.param(SolverConfig(backend="python"), id="python"),
    pytest.param(SolverConfig(backend="native"), id="native", marks=[_NATIVE]),
]


def _template(config):
    return CdclSolver(config=replace(config, record_cdg=False))


def _fork(formula, config, template, count=None):
    return CdclSolver(
        formula, config=config, prefix=template, prefix_clauses=count
    )


def _installed_state(solver):
    """Every structure clause installation writes, as plain values."""
    arena = solver._arena
    state = {
        "num_vars": solver.num_vars,
        "var_capacity": solver._var_capacity,
        "arena.data": list(arena.data),
        "arena.refs": list(arena.refs),
        "arena.flags": bytes(arena.flags),
        "arena.activity": list(arena.activity),
        "arena.dead_words": arena.dead_words,
        "activity_alias": solver._activity is arena.activity,
        "lits_view": list(solver._lits_view),
        "lit_counts": list(solver._lit_counts),
        "lit_truth": list(solver.lit_truth),
        "levels": list(solver._levels),
        "reasons": list(solver._reasons),
        "trail": list(solver._trail),
        "trail_len": solver._trail_len,
        "qhead": solver._qhead,
        "saved_phase": list(solver._saved_phase),
        "seen": bytes(solver._seen),
        "lbd_stamp": list(solver._lbd_stamp),
        "original_ids": list(solver._original_ids),
        "original_id_set": set(solver._original_id_set),
        "num_original_literals": solver._num_original_literals,
        "root_unit_of": dict(solver._root_unit_of),
        "root_pruned": set(solver._root_pruned),
        "pending_root_pruned": solver._pending_root_pruned,
        "pending_load_propagations": solver._pending_load_propagations,
        "ok": solver._ok,
        "final_conflict": (
            solver.cdg._final_antecedents if solver.cdg is not None else None
        ),
    }
    kernel = solver._kernel
    for name in ("long", "bin", "tern"):
        cols = getattr(kernel, name)
        for column in ("offs", "size", "caps", "data"):
            state[f"{name}.{column}"] = list(getattr(cols, column))
        state[f"{name}.used"] = cols.used
    # A cold solver mirrors lazily at its first analysis; a fork
    # inherits its template's mirror.  Synced, they must agree.
    solver._akernel.sync_mirror()
    mirror = solver._akernel.mirror
    state["mirror"] = (
        list(mirror.data), list(mirror.refs), mirror.synced, mirror.dead
    )
    return state


def _search_signature(outcome):
    stats = outcome.stats
    return (
        outcome.status,
        stats.decisions,
        stats.propagations,
        stats.conflicts,
        stats.learned_clauses,
        stats.root_pruned_clauses,
        tuple(outcome.model) if outcome.model is not None else None,
        outcome.core_clauses,
    )


def _assert_fork_matches_cold(formula, config, template, count=None):
    cold = CdclSolver(formula, config=config)
    fork = _fork(formula, config, template, count)
    cold_state = _installed_state(cold)
    fork_state = _installed_state(fork)
    for key in cold_state:
        assert fork_state[key] == cold_state[key], key
    assert _search_signature(fork.solve()) == _search_signature(cold.solve())


def _bmc_rows():
    return [instance_by_name(name).build() for name in ("01_b", "17_1_b2")]


@pytest.mark.parametrize("config", CELLS)
def test_fork_equals_cold_install_depth_by_depth(config):
    for circuit, prop in _bmc_rows():
        unroller = Unroller(circuit, prop)
        template = _template(config)
        for k in range(0, 9):
            instance = unroller.instance(k)
            _assert_fork_matches_cold(
                instance.formula, config, template,
                instance.property_clause_index,
            )


@pytest.mark.parametrize("config", CELLS)
def test_fork_from_start_depth_above_zero(config):
    """The first fork extends an empty template by several frames at
    once (``BmcEngine(start_depth=k)``)."""
    circuit, prop = instance_by_name("03_b").build()
    unroller = Unroller(circuit, prop)
    template = _template(config)
    for k in (4, 5, 7):
        instance = unroller.instance(k)
        _assert_fork_matches_cold(
            instance.formula, config, template, instance.property_clause_index
        )


def _root_unsat_formula(extra):
    """A prefix that is contradictory at install (units ``a`` and
    ``~a`` after clauses touching assigned literals), then ``extra``
    more clauses."""
    a, b, c, d, e = (mk_lit(v) for v in range(5))
    formula = CnfFormula(6)
    formula.add_clause([a])
    formula.add_clause([a ^ 1, b, c, d])   # one false literal: rewritten
    formula.add_clause([a, e])             # satisfied at the root: pruned
    formula.add_clause([a ^ 1, b])         # unit at the root
    formula.add_clause([b ^ 1, c, d, e])
    formula.add_clause([a ^ 1])            # contradiction
    for clause in extra:
        formula.add_clause(clause)
    return formula


@pytest.mark.parametrize("config", CELLS)
def test_fork_of_root_unsat_prefix(config):
    f = mk_lit(5)
    first = _root_unsat_formula([])
    template = _template(config)
    _assert_fork_matches_cold(first, config, template, first.num_clauses)
    assert not template._ok
    longer = _root_unsat_formula([[f, f ^ 1], [f]])
    _assert_fork_matches_cold(longer, config, template, first.num_clauses)
    fork = _fork(longer, config, template, longer.num_clauses)
    outcome = fork.solve()
    assert outcome.status.value == "unsat"
    assert set(outcome.core_clauses) <= set(range(first.num_clauses))


@pytest.mark.parametrize("config", CELLS)
def test_fork_with_root_assignments_before_the_cut(config):
    formula = _root_unsat_formula([])
    # Drop the contradiction: a consistent prefix whose install
    # rewrites, prunes and enqueues at the root.
    consistent = CnfFormula.adopt(6, list(formula.clauses)[:5])
    template = _template(config)
    for cut in range(consistent.num_clauses + 1):
        _assert_fork_matches_cold(consistent, config, _template(config), cut)
        _assert_fork_matches_cold(consistent, config, template, cut)


def test_template_guards():
    circuit, prop = instance_by_name("01_b").build()
    unroller = Unroller(circuit, prop)
    config = SolverConfig()
    template = _template(config)
    deep = unroller.instance(4)
    _fork(deep.formula, config, template, deep.property_clause_index)
    with pytest.raises(ValueError, match="template holds"):
        _fork(deep.formula, config, template, 3)
    shallow = unroller.instance(2)
    with pytest.raises(ValueError, match="more variables"):
        _fork(shallow.formula, config, template, shallow.property_clause_index)
    with pytest.raises(ValueError, match="template config differs"):
        _fork(deep.formula, replace(config, prune_root_satisfied=False),
              template, deep.property_clause_index)
    if native_available():
        python = _template(replace(config, backend="python"))
        with pytest.raises(ValueError, match="differs in backend"):
            _fork(deep.formula, replace(config, backend="native"), python,
                  deep.property_clause_index)
    other = CnfFormula.adopt(deep.formula.num_vars, list(deep.formula.clauses))
    other._clauses[deep.property_clause_index - 1] = other.clause(0)
    with pytest.raises(ValueError, match="does not extend"):
        _fork(other, config, template, other.num_clauses)
    solved = CdclSolver(deep.formula, config=config)
    solved.solve()
    with pytest.raises(ValueError, match="never be solved"):
        _fork(deep.formula, config, solved, deep.property_clause_index)


def test_fork_shares_nothing_mutable_with_its_template():
    """Solving a fork (learned clauses, watch moves, trail growth) must
    leave the template exactly as installed."""
    circuit, prop = instance_by_name("03_b").build()
    unroller = Unroller(circuit, prop)
    for config in (SolverConfig(), SolverConfig(backend="python")):
        template = _template(config)
        instance = unroller.instance(6)
        _fork(instance.formula, config, template,
              instance.property_clause_index)
        before = _installed_state(template)
        fork = _fork(instance.formula, config, template,
                     instance.property_clause_index)
        assert fork.solve().stats.conflicts > 0
        assert _installed_state(template) == before


def _bulk_cases():
    a, b, c, d, e, f = (mk_lit(v) for v in range(6))
    consistent = [
        [a, b], [b, b], [a ^ 1, a, c], [c, d, e, f], [a], [a ^ 1, b, c, d],
        [a, e], [c, c, d], [b ^ 1, d, e, f, c],
    ]
    contradictory = consistent + [[a ^ 1], [b, c], []]
    return consistent, contradictory


@pytest.mark.parametrize("config", CELLS)
def test_add_clauses_equals_add_clause_sequence(config):
    """The incremental engines feed frames through ``add_clauses``: it
    must install exactly what one ``add_clause`` per clause installs."""
    for clauses in _bulk_cases():
        one_by_one = CdclSolver(CnfFormula(6), config=config)
        bulk = CdclSolver(CnfFormula(6), config=config)
        for split in (0, 3):
            ids = [one_by_one.add_clause(lits) for lits in clauses[split:]]
            assert list(bulk.add_clauses(clauses[split:])) == ids
            assert _installed_state(bulk) == _installed_state(one_by_one)
            assert [bulk.is_original_clause(i) for i in ids] == [True] * len(ids)
            assert bulk.cdg.is_original(ids[-1])
            assert _search_signature(bulk.solve()) == _search_signature(
                one_by_one.solve()
            )


def test_add_clauses_validates_the_whole_batch_first():
    solver = CdclSolver(CnfFormula(3))
    with pytest.raises(ValueError, match="num_vars"):
        solver.add_clauses([[0, 2], [4, 7]])
    with pytest.raises(ValueError, match="bad packed literal"):
        solver.add_clauses([[0], [-1]])
    assert len(solver._arena.refs) == 0
