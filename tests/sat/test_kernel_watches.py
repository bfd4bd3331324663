"""White-box tests of the watch columns on both planes.

The watch state is three packed CSR-style ``array('i')`` column sets.
Every mutation — install attach, in-propagation watch moves,
swap-with-last detach (learned-DB reduction), order-preserving bulk
drop (root-satisfied pruning) — must keep two properties, checked here
on raw columns rather than search statistics:

* the watch sets are exactly what the clause arena implies: every live
  attached binary/ternary clause is watched on all its literals, every
  live attached long clause on its first two arena positions, with
  payload literals (implied literal, companions, blocker) from the
  clause itself, and nothing else is watched;
* the python and native planes, driven through the same script, hold
  the same entries in the same order — watch order is search state.
"""

import pytest

from repro.cnf import CnfFormula, mk_lit
from repro.sat import CdclSolver, SolverConfig
from repro.sat.arena import INACTIVE, TOMBSTONE
from repro.sat.elimination import eliminate_variables
from repro.sat.kernel import native_available
from repro.sat.simplify import simplify
from repro.workloads.cnf_families import pigeonhole, xor_chain
from tests.conftest import random_formula

BACKENDS = [
    "python",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(), reason="native kernel not buildable here"
        ),
    ),
]


def _expected_watches(solver):
    """Per-literal clause-ID lists every attached clause owes the watch
    columns, rebuilt from the arena (order-free)."""
    arena = solver._arena
    num_lits = 2 * solver.num_vars
    expected = {name: [[] for _ in range(num_lits)] for name in ("long", "bin", "tern")}
    for cid in range(len(arena.refs)):
        if arena.flags[cid] & (TOMBSTONE | INACTIVE) or cid in solver._root_pruned:
            continue
        lits = arena.literals(cid)
        if len(lits) < 2:
            continue
        if len(lits) == 2:
            table, watched = "bin", lits
        elif len(lits) == 3:
            table, watched = "tern", lits
        else:
            table, watched = "long", lits[:2]
        for lit in watched:
            expected[table][lit].append(cid)
    return expected


def _assert_watches_consistent(solver, ctx):
    """The columns hold exactly the watches the arena implies (a subset
    when install met a root contradiction and stopped attaching), each
    entry's payload drawn from its own clause."""
    expected = _expected_watches(solver)
    actual = solver._kernel.watch_snapshot()
    complete = solver._root_conflict is None
    for table in ("long", "bin", "tern"):
        for lit, entries in enumerate(actual[table]):
            got = sorted(entry[0] for entry in entries)
            want = sorted(expected[table][lit])
            if complete:
                assert got == want, (
                    f"{ctx}: {table} watches of literal {lit}: {got} != {want}"
                )
            else:
                assert set(got) <= set(want), f"{ctx}: stray {table} watch"
            for cid, *payload in entries:
                lits = solver.clause_literals(cid)
                assert lit in lits, f"{ctx}: clause {cid} watched on {lit}"
                if table == "long":
                    assert payload[0] in lits, f"{ctx}: foreign blocker"
                else:
                    others = list(lits)
                    others.remove(lit)
                    assert payload == others, f"{ctx}: {table} payload {payload}"


def _columns(solver):
    """Every raw column of the watch state, as plain values."""
    kernel = solver._kernel
    return {
        f"{name}.{column}": list(getattr(getattr(kernel, name), column))
        for name in ("long", "bin", "tern")
        for column in ("offs", "size", "caps", "data")
    }


def _solver(formula, backend, **config_kw):
    return CdclSolver(formula, config=SolverConfig(backend=backend, **config_kw))


def _mixed_formula():
    """Units, binaries (incl. duplicate-literal collapse), ternaries
    (incl. tautology), long clauses with duplicates — every install
    normalization path."""
    formula = CnfFormula(8)
    formula.add_clause([mk_lit(0)])                      # unit
    formula.add_clause([mk_lit(1), mk_lit(2, True)])     # binary
    formula.add_clause([mk_lit(3), mk_lit(3)])           # dup -> unit
    formula.add_clause([mk_lit(4), mk_lit(4, True), mk_lit(5)])  # taut
    formula.add_clause([mk_lit(2), mk_lit(5), mk_lit(6, True)])  # ternary
    formula.add_clause([mk_lit(1), mk_lit(5), mk_lit(5), mk_lit(7)])  # ->tern
    formula.add_clause(
        [mk_lit(2, True), mk_lit(4), mk_lit(6), mk_lit(7, True)]
    )  # long
    return formula


class TestWatchTableEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_install_time_tables_match(self, backend):
        _assert_watches_consistent(_solver(_mixed_formula(), backend), "install")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tables_match_after_search_and_reduction(self, backend):
        # PHP(5) under a tight learned-DB budget: watch moves, learned
        # attaches and swap-with-last detaches.
        solver = _solver(pigeonhole(5), backend, reduce_base=1, reduce_growth=1.1)
        outcome = solver.solve()
        assert outcome.stats.deleted_clauses > 0
        _assert_watches_consistent(solver, "post-search")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tables_match_after_root_pruning(self, backend):
        # Root units satisfy clauses at level 0: the pruning pass drops
        # their watches through kernel.drop_clauses.
        from repro.sat.solver import _PRUNE_MIN_NEW_FACTS

        num_units = _PRUNE_MIN_NEW_FACTS + 4
        base = 12
        formula = CnfFormula(base + num_units + 2)
        for clause in pigeonhole(3).clauses:
            formula.add_clause(clause.literals)
        spare_a, spare_b = base + num_units, base + num_units + 1
        for i in range(num_units):
            formula.add_clause([mk_lit(base + i)])
            formula.add_clause(
                [mk_lit(base + i), mk_lit(spare_a, True), mk_lit(spare_b, True)]
            )
        solver = _solver(formula, backend, prune_root_satisfied=True)
        assert solver.solve().stats.root_pruned_clauses > 0
        _assert_watches_consistent(solver, "post-pruning")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tables_match_on_simplified_and_eliminated_formulas(self, backend):
        rng = __import__("random").Random(20040607)
        for trial in range(20):
            original = random_formula(rng, rng.randint(4, 10), rng.randint(6, 30))
            for name, derived in (
                ("simplify", simplify(original).formula),
                ("eliminate", eliminate_variables(original).formula),
            ):
                solver = _solver(derived, backend)
                _assert_watches_consistent(
                    solver, f"trial {trial} install after {name}"
                )
                solver.solve()
                _assert_watches_consistent(
                    solver, f"trial {trial} solve after {name}"
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tables_match_through_incremental_growth(self, backend):
        # ensure_num_vars between solves exercises kernel.grow(): the
        # columns gain literal slots while keeping every live entry.
        solver = _solver(xor_chain(6, True), backend)
        solver.solve()
        _assert_watches_consistent(solver, "incremental step 0")
        num_vars = solver.num_vars
        rng = __import__("random").Random(7)
        for step in range(1, 4):
            num_vars += 2
            solver.ensure_num_vars(num_vars)
            for _ in range(4):
                width = rng.randint(1, 4)
                chosen = rng.sample(range(num_vars), width)
                solver.add_clause([2 * v + rng.randint(0, 1) for v in chosen])
            solver.solve(assumptions=[2 * rng.randrange(num_vars) + rng.randint(0, 1)])
            _assert_watches_consistent(solver, f"incremental step {step}")


@pytest.mark.skipif(not native_available(), reason="native kernel not buildable here")
def test_planes_hold_identical_watch_columns():
    """The same scripts on both planes — install, search with learned-DB
    reduction and root pruning, incremental growth — leave identical
    raw columns: same entries, same order, same pool layout."""
    rng = __import__("random").Random(20040607)
    formulas = [_mixed_formula(), pigeonhole(4), xor_chain(9, False)]
    formulas += [random_formula(rng, rng.randint(6, 12), 40) for _ in range(6)]
    for index, formula in enumerate(formulas):
        twins = [
            _solver(formula, backend, reduce_base=1, reduce_growth=1.1)
            for backend in ("python", "native")
        ]
        assert _columns(twins[0]) == _columns(twins[1]), f"formula {index}: install"
        script = __import__("random").Random(index)
        for step in range(3):
            outcomes = [twin.solve() for twin in twins]
            assert outcomes[0].stats.conflicts == outcomes[1].stats.conflicts
            assert _columns(twins[0]) == _columns(twins[1]), (
                f"formula {index}: after solve {step}"
            )
            if outcomes[0].status.value == "unsat":
                break
            num_vars = twins[0].num_vars + 2
            clause = [2 * v + script.randint(0, 1) for v in script.sample(range(num_vars), 3)]
            for twin in twins:
                twin.ensure_num_vars(num_vars)
                twin.add_clause(clause)
