"""Multi-property BMC: several invariants against one unrolled model.

Industrial runs (the paper's Table 1 has rows like 24_1_b1/b2/b3 — three
properties of one design) check many properties of the same netlist.
Encoding the model once and dispatching each property as a unit
assumption amortises both the unrolling and the learned clauses across
properties, on top of the per-depth amortisation of
:class:`~repro.bmc.incremental.IncrementalBmcEngine`.

Each property keeps its own ``varRank`` (cores differ per property), so
the paper's refinement applies per property while sharing everything
else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.cnf.literals import lit_neg
from repro.encode.unroll import Unroller
from repro.sat.heuristics import RankedStrategy, VsidsStrategy
from repro.sat.solver import CdclSolver, SolverConfig
from repro.sat.types import SolveResult
from repro.bmc.refine import bmc_score_update
from repro.bmc.result import BmcStatus, DepthStats, Trace

_MODES = ("vsids", "static", "dynamic")


@dataclass
class PropertyOutcome:
    """Per-property result of a multi-property run."""

    property_net: int
    status: BmcStatus
    depth_reached: int = -1
    trace: Optional[Trace] = None
    per_depth: List[DepthStats] = field(default_factory=list)


class MultiPropertyBmc:
    """Check a set of invariants depth-by-depth on one shared solver.

    At each depth ``k``, every still-open property is queried with its
    own assumption ``not P_i(V_k)``; falsified properties collect a
    verified trace and drop out; the rest continue.  The run ends when
    all properties have failed or ``max_depth`` is exhausted.
    """

    def __init__(
        self,
        circuit: Circuit,
        property_nets: Sequence[int],
        max_depth: int,
        mode: str = "dynamic",
        solver_config: Optional[SolverConfig] = None,
        verify_traces: bool = True,
    ) -> None:
        if not property_nets:
            raise ValueError("need at least one property")
        if len(set(property_nets)) != len(property_nets):
            raise ValueError("duplicate property nets")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        config = solver_config or SolverConfig()
        if mode != "vsids" and not config.record_cdg:
            raise ValueError("refined modes require record_cdg=True")
        self.circuit = circuit
        self.property_nets = list(property_nets)
        self.max_depth = max_depth
        self.mode = mode
        self.solver_config = config
        self.verify_traces = verify_traces
        # One unroller for the whole model: encode the union of cones
        # (i.e. the full model, per Eq. 1), shared by all properties.
        self.unroller = Unroller(circuit, self.property_nets[0])
        self.var_ranks: Dict[int, Dict[int, float]] = {
            net: {} for net in self.property_nets
        }
        self._solver = CdclSolver(config=config)
        self._clauses_fed = 0

    def _feed_frames(self, k: int) -> None:
        self.unroller.ensure_frames(k)
        self._solver.ensure_num_vars(self.unroller.num_encoded_vars)
        self._solver.add_clauses(
            clause.literals
            for clause, _origin in self.unroller.clauses_since(self._clauses_fed)
        )
        self._clauses_fed = self.unroller.num_encoded_clauses

    def _strategy(self, net: int):
        if self.mode == "vsids":
            return VsidsStrategy()
        return RankedStrategy(
            self.var_ranks[net], dynamic=(self.mode == "dynamic")
        )

    def run(self) -> Dict[int, PropertyOutcome]:
        """Returns one :class:`PropertyOutcome` per property net."""
        outcomes = {
            net: PropertyOutcome(property_net=net, status=BmcStatus.PASSED_BOUNDED)
            for net in self.property_nets
        }
        open_properties = list(self.property_nets)
        for k in range(self.max_depth + 1):
            if not open_properties:
                break
            self._feed_frames(k)
            still_open = []
            for net in open_properties:
                property_lit = self.unroller.lit_of(net, k)
                result = self._solver.solve(
                    assumptions=[lit_neg(property_lit)],
                    strategy=self._strategy(net),
                )
                outcome = outcomes[net]
                outcome.per_depth.append(
                    DepthStats(
                        k=k,
                        status=result.status.value,
                        num_vars=self._solver.num_vars,
                        num_clauses=self._clauses_fed,
                        decisions=result.stats.decisions,
                        propagations=result.stats.propagations,
                        conflicts=result.stats.conflicts,
                        solve_time=result.stats.solve_time,
                        core_clauses=(
                            len(result.core_clauses)
                            if result.core_clauses is not None
                            else None
                        ),
                    )
                )
                if result.status is SolveResult.UNKNOWN:
                    outcome.status = BmcStatus.BUDGET_EXHAUSTED
                    continue  # property stays closed for this run
                outcome.depth_reached = k
                if result.status is SolveResult.SAT:
                    outcome.status = BmcStatus.FAILED
                    outcome.trace = self._build_trace(net, k, result.model)
                else:
                    still_open.append(net)
                    if self.mode != "vsids" and result.core_vars is not None:
                        bmc_score_update(self.var_ranks[net], result.core_vars, k)
            open_properties = still_open
        return outcomes

    def _build_trace(self, net: int, k: int, model) -> Trace:
        lit_of = self.unroller.lit_of
        inputs = [
            {
                inp: model[lit_of(inp, frame) >> 1] ^ (lit_of(inp, frame) & 1)
                for inp in self.unroller.nets_inputs
            }
            for frame in range(k + 1)
        ]
        initial_state = {
            latch: model[lit_of(latch, 0) >> 1] ^ (lit_of(latch, 0) & 1)
            for latch in self.unroller.nets_latches
        }
        trace = Trace(depth=k, inputs=inputs, initial_state=initial_state, property_net=net)
        if self.verify_traces:
            frames = self.circuit.simulate(inputs, initial_state=initial_state)
            if frames[k][net] != 0:
                raise AssertionError("counterexample fails re-simulation")
        return trace
