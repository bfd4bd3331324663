"""The BMC depth loop (standard BMC and the paper's Fig. 5 skeleton).

``BmcEngine`` iterates ``k = start_depth .. max_depth``, generating the
depth-``k`` CNF (Eq. 1) and handing it to the CDCL solver.  A strategy
factory chooses the decision ordering per instance — plain VSIDS
reproduces "standard BMC"; the refine-order subclasses in
``repro.bmc.refine`` implement the paper's algorithm by feeding unsat-core
variables back into the next instance's ordering.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace as dc_replace
from typing import Callable, Optional

from repro.circuit.netlist import Circuit
from repro.encode.unroll import BmcInstance, Unroller
from repro.sat.heuristics import DecisionStrategy, RankedStrategy, VsidsStrategy
from repro.sat.solver import CdclSolver, SolverConfig
from repro.sat.types import SolveOutcome, SolveResult
from repro.bmc.result import BmcResult, BmcStatus, DepthStats, Trace

#: A factory: (instance, k) -> the decision strategy for that SAT call.
StrategyFactory = Callable[[BmcInstance, int], DecisionStrategy]


def vsids_factory(instance: BmcInstance, k: int) -> DecisionStrategy:
    """The baseline: Chaff's default VSIDS on every instance."""
    return VsidsStrategy()


def resolve_unroller(
    circuit: Circuit,
    property_net: int,
    use_coi: bool,
    unroller: Optional[Unroller],
    constrain_init: bool = True,
) -> Unroller:
    """Validate an injected (shared) unroller or build a private one.

    An injected unroller must encode exactly the formula a private one
    would — same circuit object, property, cone-of-influence setting and
    initial-state constraint — otherwise cache sharing would silently
    change results.
    """
    if unroller is None:
        return Unroller(
            circuit, property_net, use_coi=use_coi, constrain_init=constrain_init
        )
    if (
        unroller.circuit is not circuit
        or unroller.property_net != property_net
        or unroller.use_coi != use_coi
        or unroller.constrain_init != constrain_init
    ):
        raise ValueError(
            "injected unroller does not match "
            "circuit/property_net/use_coi/constrain_init"
        )
    return unroller


class BmcEngine:
    """Bounded model checking of an invariant property ``G property_net``.

    Parameters
    ----------
    circuit, property_net:
        The model and the invariant net ``P`` (true = good states).
    max_depth:
        Completeness threshold analogue: the last depth checked.
    strategy_factory:
        Decision-ordering choice per instance (default: VSIDS).
    solver_config:
        Per-instance solver configuration, including budgets.
    use_coi:
        Restrict the encoding to the property's cone of influence.
    time_budget:
        Optional wall-clock cap for the whole run; on expiry the run
        reports ``BUDGET_EXHAUSTED`` at the last completed depth (the
        paper's 2-hour-cap rows).
    verify_traces:
        Re-simulate counterexamples before returning them (cheap, on by
        default).
    unroller:
        Optional pre-built (possibly shared) unroller for this circuit
        and property — the CNF-cache hook (see ``repro.bmc.cnf_cache``).
        Must match ``circuit``/``property_net``/``use_coi`` exactly;
        frames already encoded in it are reused, frames it lacks are
        encoded on demand.  Instances assembled from a shared unroller
        are byte-identical to ones from a private unroller.
    """

    def __init__(
        self,
        circuit: Circuit,
        property_net: int,
        max_depth: int,
        strategy_factory: StrategyFactory = vsids_factory,
        solver_config: Optional[SolverConfig] = None,
        use_coi: bool = False,
        start_depth: int = 0,
        time_budget: Optional[float] = None,
        verify_traces: bool = True,
        unroller: Optional[Unroller] = None,
        trace_dir: Optional[str] = None,
        trace_name: str = "bmc",
    ) -> None:
        if max_depth < start_depth:
            raise ValueError("max_depth must be >= start_depth")
        self.circuit = circuit
        self.property_net = property_net
        self.max_depth = max_depth
        self.start_depth = start_depth
        self.strategy_factory = strategy_factory
        self.solver_config = solver_config or SolverConfig()
        #: Binary solver-trace telemetry (repro.sat.trace): when set,
        #: each depth's solve writes ``{trace_name}_d{k:03d}.rtrc``
        #: under this directory (one solver per depth, so one trace per
        #: depth).  The portfolio engines route this seam too: the row
        #: race keeps only the winning member's traces (which member
        #: wins is scheduling-dependent unless deterministic) and the
        #: depth race re-solves the winner with the writer attached —
        #: see ``repro.bmc.portfolio``.
        self.trace_dir = trace_dir
        self.trace_name = trace_name
        self.time_budget = time_budget
        self.verify_traces = verify_traces
        self.unroller = resolve_unroller(circuit, property_net, use_coi, unroller)
        #: Optional seam called as ``solver_hook(solver, k)`` right after
        #: each depth's solver is constructed — the portfolio row race
        #: attaches its clause-sharing ``on_learned`` hook here without
        #: subclassing every engine flavour (RefineOrderBmc, Shtrichman
        #: and BerkMin runs all inherit this ``_solve_depth``).
        self.solver_hook = None
        #: The installed-prefix template of the current :meth:`run`: a
        #: never-solved solver holding the unrolling's clauses up to the
        #: last depth's frame, extended frame by frame.  Each depth's
        #: solver is forked from it (``CdclSolver(prefix=...)``), so
        #: per-depth construction copies arrays and installs one new
        #: frame plus the property clause instead of re-installing the
        #: whole unrolling.  Private to this engine; dropped when the
        #: run ends.
        self._template: Optional[CdclSolver] = None

    # Subclass hook: called after each UNSAT depth with its outcome.
    def on_unsat(self, k: int, instance: BmcInstance, outcome: SolveOutcome) -> None:
        """Default: nothing (standard BMC learns nothing across depths)."""

    def _solve_depth(self, instance: BmcInstance, k: int) -> tuple:
        """Solve one depth's SAT instance; returns ``(outcome, extras)``.

        ``extras`` feeds optional :class:`DepthStats` fields
        (``switched``, ``winner``).  Subclasses replace the solving
        machinery here — the portfolio engine
        (``repro.bmc.portfolio.PortfolioBmcEngine``) races several
        strategies per depth — while the depth loop, budgets, statistics
        and trace handling in :meth:`run` stay shared.
        """
        strategy = self.strategy_factory(instance, k)
        config = self.solver_config
        if self.trace_dir is not None:
            stem = os.path.join(self.trace_dir, f"{self.trace_name}_d{k:03d}")
            overrides = {"trace_path": stem + ".rtrc"}
            # Access-stream sidecar rides the same per-depth naming so
            # `python -m repro.trace <dir>` picks both up in one pass.
            if config.profile_access:
                overrides["access_stream_path"] = stem + ".racc"
            config = dc_replace(config, **overrides)
        if self._template is None:
            # Never solved, so it needs no CDG: a root contradiction met
            # while installing is handed to each fork's own CDG.
            self._template = CdclSolver(
                config=dc_replace(self.solver_config, record_cdg=False)
            )
        solver = CdclSolver(
            instance.formula,
            strategy=strategy,
            config=config,
            prefix=self._template,
            prefix_clauses=instance.property_clause_index,
        )
        if self.solver_hook is not None:
            self.solver_hook(solver, k)
        outcome = solver.solve()
        extras = {}
        if isinstance(strategy, RankedStrategy):
            extras["switched"] = strategy.switched
        return outcome, extras

    def run(self) -> BmcResult:
        """Execute the depth loop; see :class:`BmcResult`."""
        start = time.perf_counter()
        try:
            return self._run(start)
        finally:
            self._template = None

    def _run(self, start: float) -> BmcResult:
        result = BmcResult(status=BmcStatus.PASSED_BOUNDED, depth_reached=self.start_depth - 1)
        for k in range(self.start_depth, self.max_depth + 1):
            if (
                self.time_budget is not None
                and time.perf_counter() - start > self.time_budget
            ):
                result.status = BmcStatus.BUDGET_EXHAUSTED
                break
            instance = self.unroller.instance(k)
            outcome, extras = self._solve_depth(instance, k)
            depth_stats = DepthStats(
                k=k,
                status=outcome.status.value,
                num_vars=instance.formula.num_vars,
                num_clauses=instance.formula.num_clauses,
                decisions=outcome.stats.decisions,
                propagations=outcome.stats.propagations,
                conflicts=outcome.stats.conflicts,
                solve_time=outcome.stats.solve_time,
                core_clauses=(
                    len(outcome.core_clauses)
                    if outcome.core_clauses is not None
                    else None
                ),
                core_vars=(
                    len(outcome.core_vars) if outcome.core_vars is not None else None
                ),
                switched=extras.get("switched"),
                root_pruned=outcome.stats.root_pruned_clauses,
                winner=extras.get("winner"),
            )
            result.per_depth.append(depth_stats)
            self._publish_depth_metrics(depth_stats)
            if outcome.status is SolveResult.UNKNOWN:
                result.status = BmcStatus.BUDGET_EXHAUSTED
                break
            result.depth_reached = k
            if outcome.status is SolveResult.SAT:
                result.status = BmcStatus.FAILED
                result.trace = self._build_trace(instance, outcome)
                break
            self.on_unsat(k, instance, outcome)
        result.total_time = time.perf_counter() - start
        return result

    def _publish_depth_metrics(self, depth_stats: DepthStats) -> None:
        """Publish one depth's outcome into the configured registry.

        The per-solve solver counters already flow through
        ``CdclSolver._publish_metrics`` (the registry rides
        ``solver_config.metrics`` into every depth's solver); this adds
        the depth-loop view: current depth, instance size, and
        per-status depth counts.  Status is the only extra label — depth
        ``k`` is a gauge value, not a label, to keep series cardinality
        bounded.
        """
        registry = self.solver_config.metrics
        if registry is None:
            return
        labels = dict(self.solver_config.metrics_labels or {})
        registry.gauge("bmc_depth", labels=labels).set(float(depth_stats.k))
        registry.gauge("bmc_instance_vars", labels=labels).set(
            float(depth_stats.num_vars)
        )
        registry.gauge("bmc_instance_clauses", labels=labels).set(
            float(depth_stats.num_clauses)
        )
        registry.counter("bmc_depths_total", labels=labels).inc()
        registry.counter("bmc_solve_seconds_total", labels=labels).inc(
            depth_stats.solve_time
        )
        status_labels = dict(labels)
        status_labels["status"] = depth_stats.status
        registry.counter("bmc_depth_status_total", labels=status_labels).inc()

    def _build_trace(self, instance: BmcInstance, outcome: SolveOutcome) -> Trace:
        trace = Trace(
            depth=instance.k,
            inputs=instance.decode_inputs(outcome.model),
            initial_state=instance.decode_initial_state(outcome.model),
            property_net=self.property_net,
        )
        if self.verify_traces:
            frames = self.circuit.simulate(trace.inputs, initial_state=trace.initial_state)
            if frames[instance.k][self.property_net] != 0:
                raise AssertionError(
                    "internal error: counterexample fails re-simulation"
                )
        return trace
