"""The program's layers as the benchmark sees them, and the per-layer
metrics a traced item reports.

Each layer is timed by wrapping its public entry points (see
:mod:`tracer`).  The table below names every per-layer metric and the
end-to-end metric it should move, on which workload; a change that
claims a gain in one layer is expected to move exactly these.

=========================  ==============================================
metric                     moves
=========================  ==============================================
workloads.build_s          ``wall_s`` on table1_oneshot (circuit build)
encode.instance_s          ``wall_s`` on table1_oneshot (``Unroller.instance``)
encode.vars/clauses/       size of the depth instances handed to the solver
literals                   (table1_oneshot; 0 elsewhere)
cnf_cache.hits/misses      ``EncodingCache`` use (cold per run: misses only)
solver.construct_s         ``wall_s`` on table1_oneshot; ~0 on cnf_solve
solver.ensure_vars_s       table1_oneshot and incremental ``wall_s``
solver.install_s           construct self time minus ``ensure_num_vars``;
                           table1_oneshot ``wall_s`` only
solver.add_clause_s/calls  ``wall_s`` on incremental; unused elsewhere
incremental.feed_s         ``wall_s`` on incremental (``feed_frames``)
heuristics.attach_s/calls  ``wall_s`` and ``search_s`` on incremental and
                           table1_oneshot; ~0 on cnf_solve
heuristics.ranked_vars     ranked variables summed over solves (ROADMAP
heuristics.switched_depths  item 4's observables: is the ordering used?)
solver.search_s            ``solve`` minus attach minus core extraction:
                           ``search_s`` and ``wall_s`` on cnf_solve first
solver.decisions, ...      search work counts; equal under any change that
                           keeps the search identical
cdg.core_s/clauses/vars    core extraction; under 1% everywhere
refine.update_s            ``bmc_score_update``; under 1% everywhere
dimacs.parse_s             ``parse_dimacs``; under 1% of cnf_solve
engine.self_s              the depth loop itself, counterexample
                           re-simulation included
engine.depth_solves        depth instances solved
engine.wall_s.<method>     untraced wall per method (the paper's ratio)
trace.unattributed_s       item wall not covered by any span
trace.overhead             traced wall over untraced wall
verdict_errors             failed items over attempted items
=========================  ==============================================

Times are reference seconds (see ``run.py``) summed over the run's
items, each item's median over its traced runs; ``solver.search_s``,
``solver.install_s`` and ``engine.self_s`` are self times, the other
spans' times include their children.  ``solver.propagations_per_s`` is
propagations over ``solver.search_s``.
"""

from __future__ import annotations

from typing import Dict, List

from tracer import Tracer

#: Per-layer metric names in output order, with their units.
PER_LAYER = {
    "workloads.build_s": "s",
    "encode.instance_s": "s",
    "encode.vars": "count",
    "encode.clauses": "count",
    "encode.literals": "count",
    "cnf_cache.hits": "count",
    "cnf_cache.misses": "count",
    "solver.construct_s": "s",
    "solver.ensure_vars_s": "s",
    "solver.install_s": "s",
    "solver.add_clause_s": "s",
    "solver.add_clause_calls": "count",
    "incremental.feed_s": "s",
    "heuristics.attach_s": "s",
    "heuristics.attach_calls": "count",
    "heuristics.ranked_vars": "count",
    "heuristics.switched_depths": "count",
    "solver.search_s": "s",
    "solver.decisions": "count",
    "solver.propagations": "count",
    "solver.conflicts": "count",
    "solver.learned_clauses": "count",
    "solver.restarts": "count",
    "solver.propagations_per_s": "1/s",
    "cdg.core_s": "s",
    "cdg.core_clauses": "count",
    "cdg.core_vars": "count",
    "refine.update_s": "s",
    "dimacs.parse_s": "s",
    "engine.self_s": "s",
    "engine.depth_solves": "count",
    "engine.wall_s.bmc": "s",
    "engine.wall_s.static": "s",
    "engine.wall_s.dynamic": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
    "verdict_errors": "ratio",
}

#: Metrics the run assembles itself rather than from one item's spans.
RUN_LEVEL = {
    "solver.propagations_per_s",
    "engine.wall_s.bmc",
    "engine.wall_s.static",
    "engine.wall_s.dynamic",
    "trace.overhead",
    "verdict_errors",
}


class LayerProbe:
    """Installs the layer spans in a traced child and turns them, plus
    what the entry points returned, into one item's layer metrics."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.formulas: List[object] = []
        self.counts: Dict[str, int] = {
            "solver.decisions": 0,
            "solver.propagations": 0,
            "solver.conflicts": 0,
            "solver.learned_clauses": 0,
            "solver.restarts": 0,
            "cdg.core_clauses": 0,
            "cdg.core_vars": 0,
            "heuristics.ranked_vars": 0,
            "heuristics.switched_depths": 0,
        }
        self.backends: set = set()

    def install(self) -> None:
        """Wrap every layer's entry points (see the module table)."""
        from repro.bmc import incremental, refine
        from repro.bmc.engine import BmcEngine
        from repro.cnf import dimacs
        from repro.encode.unroll import Unroller
        from repro.sat import heuristics
        from repro.sat.cdg import ConflictDependencyGraph
        from repro.sat.solver import CdclSolver
        from repro.workloads.suite import SuiteInstance

        tracer = self.tracer
        tracer.install(SuiteInstance, "build", "workloads.build")
        tracer.install(Unroller, "instance", "encode.instance", self._on_instance)
        tracer.install(CdclSolver, "__init__", "solver.construct", self._on_construct)
        tracer.install(CdclSolver, "ensure_num_vars", "solver.ensure_vars")
        tracer.install(CdclSolver, "add_clause", "solver.add_clause")
        tracer.install(CdclSolver, "solve", "solver.solve", self._on_solve)
        for cls in vars(heuristics).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, heuristics.DecisionStrategy)
                and "attach" in vars(cls)
            ):
                tracer.install(cls, "attach", "heuristics.attach")
        tracer.install(ConflictDependencyGraph, "unsat_core", "cdg.core")
        # Relative cores (incremental solves under assumptions) are
        # extracted by this solver method rather than by the CDG.
        tracer.install(CdclSolver, "_relative_unsat_outcome", "cdg.core")
        tracer.install(refine, "bmc_score_update", "refine.update")
        tracer.install(incremental, "bmc_score_update", "refine.update")
        tracer.install(incremental, "feed_frames", "incremental.feed")
        tracer.install(BmcEngine, "run", "engine")
        tracer.install(incremental.IncrementalBmcEngine, "run", "engine")
        tracer.install(dimacs, "parse_dimacs", "dimacs.parse")

    def _on_instance(self, args, instance) -> None:
        self.formulas.append(instance.formula)

    def _on_construct(self, args, _result) -> None:
        solver = args[0]
        for kernel in (solver._kernel, solver._akernel):
            self.backends.add("legacy" if kernel is None else kernel.name)

    def _on_solve(self, args, outcome) -> None:
        solver = args[0]
        stats = outcome.stats
        counts = self.counts
        counts["solver.decisions"] += stats.decisions
        counts["solver.propagations"] += stats.propagations
        counts["solver.conflicts"] += stats.conflicts
        counts["solver.learned_clauses"] += stats.learned_clauses
        counts["solver.restarts"] += stats.restarts
        counts["cdg.core_clauses"] += len(outcome.core_clauses or ())
        counts["cdg.core_vars"] += len(outcome.core_vars or ())
        strategy = solver.strategy
        counts["heuristics.ranked_vars"] += len(getattr(strategy, "_var_rank", ()))
        counts["heuristics.switched_depths"] += bool(getattr(strategy, "switched", False))

    def metrics(self, wall_s: float, cache=None) -> Dict[str, float]:
        """One item's layer metrics (call after the item's clock stopped)."""
        tracer = self.tracer
        self_s = tracer.self_s
        incl_s = tracer.incl_s
        calls = tracer.calls
        out: Dict[str, float] = {
            "workloads.build_s": incl_s["workloads.build"],
            "encode.instance_s": incl_s["encode.instance"],
            "encode.vars": sum(f.num_vars for f in self.formulas),
            "encode.clauses": sum(f.num_clauses for f in self.formulas),
            "encode.literals": sum(f.num_literals() for f in self.formulas),
            "cnf_cache.hits": cache.hits if cache is not None else 0,
            "cnf_cache.misses": cache.misses if cache is not None else 0,
            "solver.construct_s": incl_s["solver.construct"],
            "solver.ensure_vars_s": incl_s["solver.ensure_vars"],
            "solver.install_s": self_s["solver.construct"],
            "solver.add_clause_s": incl_s["solver.add_clause"],
            "solver.add_clause_calls": calls["solver.add_clause"],
            "incremental.feed_s": incl_s["incremental.feed"],
            "heuristics.attach_s": incl_s["heuristics.attach"],
            "heuristics.attach_calls": calls["heuristics.attach"],
            "solver.search_s": self_s["solver.solve"],
            "cdg.core_s": incl_s["cdg.core"],
            "refine.update_s": incl_s["refine.update"],
            "dimacs.parse_s": incl_s["dimacs.parse"],
            "engine.self_s": self_s["engine"],
            "engine.depth_solves": calls["solver.solve"] if calls["engine"] else 0,
            "trace.unattributed_s": wall_s - tracer.top_s,
        }
        out.update(self.counts)
        return out
