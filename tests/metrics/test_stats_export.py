"""The stats export surface and the solver/portfolio metrics publishers.

``SolverStats.as_dict`` is the single export surface (metrics, bench,
experiment tables); the key-pin test below is the tripwire the
docstring promises — adding a counter field without updating the
consumers' expectations fails here first, loudly.
"""

from __future__ import annotations

from dataclasses import fields

from repro.cnf import CnfFormula, mk_lit
from repro.metrics import MetricsRegistry
from repro.sat import CdclSolver, PortfolioMember, PortfolioSolver, SolverConfig
from repro.sat.profile import structure_counts
from repro.sat.solver import SNAPSHOT_GAUGES
from repro.sat.stats import SolverStats
from repro.sat.types import SolveResult
from repro.workloads.cnf_families import pigeonhole

#: The pinned export key set, in dataclass declaration order.  If this
#: fails you added/renamed a SolverStats field: update this tuple AND
#: check the metrics/bench/table consumers pick the new counter up.
EXPECTED_STAT_KEYS = (
    "decisions",
    "propagations",
    "conflicts",
    "restarts",
    "learned_clauses",
    "deleted_clauses",
    "max_decision_level",
    "cdg_entries",
    "solve_time",
    "learned_literals_before_min",
    "learned_literals",
    "minimized_literals",
    "learned_lbd_sum",
    "root_pruned_clauses",
    "arena_compactions",
    "arena_reclaimed_words",
    "exported_clauses",
    "imported_clauses",
)


def test_as_dict_key_set_is_pinned():
    assert tuple(SolverStats().as_dict()) == EXPECTED_STAT_KEYS
    assert EXPECTED_STAT_KEYS == tuple(f.name for f in fields(SolverStats))


def test_as_dict_reflects_values():
    stats = SolverStats(decisions=3, conflicts=7, solve_time=0.5)
    d = stats.as_dict()
    assert d["decisions"] == 3
    assert d["conflicts"] == 7
    assert d["solve_time"] == 0.5


class TestSolverPublish:
    def _solve(self, **config_kwargs):
        solver = CdclSolver(
            pigeonhole(4), config=SolverConfig(**config_kwargs)
        )
        outcome = solver.solve()
        assert outcome.status is SolveResult.UNSAT
        return solver

    def test_counters_match_stats(self):
        registry = MetricsRegistry()
        solver = self._solve(metrics=registry)
        stats = solver.stats.as_dict()
        assert stats["conflicts"] > 0
        for name, value in stats.items():
            assert registry.value(f"solver_{name}_total") == value, name

    def test_access_counters_match_profile(self):
        registry = MetricsRegistry()
        solver = self._solve(metrics=registry, profile_access=True)
        counts = structure_counts(solver._profile)
        assert counts["arena"] > 0
        for structure, count in counts.items():
            assert registry.value(
                "solver_access_total", {"structure": structure}
            ) == count, structure

    def test_state_gauges_published(self):
        registry = MetricsRegistry()
        solver = self._solve(metrics=registry)
        assert registry.value("solver_vars") == solver.num_vars
        assert registry.value("solver_arena_words") > 0
        assert registry.kind_for("solver_vars") == "gauge"

    def test_metrics_labels_applied_to_every_series(self):
        registry = MetricsRegistry()
        labels = {"instance": "php4", "method": "test"}
        self._solve(metrics=registry, metrics_labels=dict(labels),
                    profile_access=True)
        assert registry.value("solver_conflicts_total", labels) > 0
        # Unlabeled lookups see nothing: labels really key the series.
        assert registry.value("solver_conflicts_total") == 0.0
        access = dict(labels)
        access["structure"] = "watch"
        assert registry.value("solver_access_total", access) > 0

    def test_publishing_does_not_change_search(self):
        plain = self._solve()
        observed = self._solve(metrics=MetricsRegistry(),
                               profile_access=True)
        want = plain.stats.as_dict()
        got = observed.stats.as_dict()
        want.pop("solve_time")
        got.pop("solve_time")
        assert want == got

    def test_reentrant_solve_publishes_deltas_once(self):
        registry = MetricsRegistry()
        formula = CnfFormula(2)
        formula.add_clause([mk_lit(0), mk_lit(1)])
        solver = CdclSolver(formula, config=SolverConfig(metrics=registry))
        solver.solve()
        first = solver.stats.decisions
        solver.solve()
        second = solver.stats.decisions
        # "Cumulative across solves": the counter is the sum of the
        # per-solve stats, each solve contributing its delta exactly once.
        assert registry.value("solver_decisions_total") == first + second


def test_merge_sums_fields_and_maxes_decision_level():
    total = SolverStats(decisions=2, max_decision_level=9, solve_time=0.5)
    total.merge(SolverStats(decisions=3, max_decision_level=4, solve_time=0.25,
                            imported_clauses=7))
    assert total.decisions == 5
    assert total.max_decision_level == 9
    assert total.solve_time == 0.75
    assert total.imported_clauses == 7


class TestSnapshot:
    """``CdclSolver.snapshot()`` is the one counter view behind both
    ``on_progress`` and the metrics publisher."""

    def test_snapshot_holds_stats_and_gauges(self):
        solver = CdclSolver(pigeonhole(4))
        solver.solve()
        snap = solver.snapshot()
        assert tuple(snap)[: len(EXPECTED_STAT_KEYS)] == EXPECTED_STAT_KEYS
        assert set(snap) - set(EXPECTED_STAT_KEYS) <= set(SNAPSHOT_GAUGES)
        assert snap["vars"] == solver.num_vars
        assert snap["conflicts"] == solver.stats.conflicts

    def test_progress_fires_every_n_conflicts_with_snapshot(self):
        every = 16
        fired = []
        config = SolverConfig(on_progress=fired.append, progress_every=every)
        solver = CdclSolver(pigeonhole(6), config=config)
        outcome = solver.solve()
        plain = CdclSolver(pigeonhole(6)).solve()
        assert outcome.stats.conflicts >= 3 * every
        assert len(fired) == outcome.stats.conflicts // every
        assert [snap["conflicts"] for snap in fired] == [
            every * (i + 1) for i in range(len(fired))
        ]
        for snap in fired:
            assert set(snap) == set(fired[0])
            assert set(EXPECTED_STAT_KEYS) <= set(snap)
            assert 0 < snap["trail_depth"] <= snap["vars"]
        # The hook observes; the search is unchanged.
        want = plain.stats.as_dict()
        got = outcome.stats.as_dict()
        want.pop("solve_time")
        got.pop("solve_time")
        assert want == got


class TestPortfolioExport:
    MEMBERS = [
        PortfolioMember(name="vsids/save", strategy="vsids"),
        PortfolioMember(name="berkmin/save", strategy="berkmin"),
    ]

    def _outcome(self, registry=None):
        return PortfolioSolver(
            pigeonhole(5),
            members=list(self.MEMBERS),
            base_config=SolverConfig(metrics=registry),
            deterministic=True,
        ).solve()

    def test_outcome_as_dict_routes_member_stats(self):
        doc = self._outcome().as_dict()
        assert doc["status"] == "unsat"
        assert doc["deterministic"] is True
        assert [m["name"] for m in doc["members"]] == [
            "vsids/save", "berkmin/save",
        ]
        for member in doc["members"]:
            # Full stats present in deterministic mode, routed through
            # SolverStats.as_dict — the pinned key set, nothing less.
            assert tuple(member["stats"]) == EXPECTED_STAT_KEYS

    def test_portfolio_publishes_aggregates(self):
        registry = MetricsRegistry()
        outcome = self._outcome(registry)
        assert registry.value("portfolio_solves_total") == 1
        assert registry.value("portfolio_epochs_total") == outcome.epochs
        assert registry.value("portfolio_bus_shared_total") == (
            outcome.shared_clauses
        )
        winner = next(
            r for r in outcome.reports if r.name == outcome.winner
        )
        assert registry.value(
            "portfolio_member_conflicts_total", {"member": winner.name}
        ) == winner.stats.conflicts
        # Member solvers never publish directly (fork safety): no
        # solver_* series leaked into the shared registry.
        assert registry.value("solver_conflicts_total") == 0.0
