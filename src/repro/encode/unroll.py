"""Time-frame unrolling of the paper's Eq. 1.

For an invariant property ``G P`` and a depth ``k``, the BMC instance is::

    I(V0)  and  T(V0,W1,V1) ... T(V(k-1),Wk,Vk)  and  not P(Vk)

The :class:`Unroller` is *stateful and monotone*: frames are encoded once
and cached, and variable/clause numbering for the shared prefix is
identical across instances of increasing ``k``.  This is what lets the
paper's ``varRank`` — keyed by CNF variable — transfer from one BMC
instance to the next (the same circuit net at the same time frame is the
same CNF variable in every instance).

Encoding choices (standard for circuit BMC):

* NOT/BUF are free — they alias to the fanin literal with the phase bit.
* NAND/NOR/XNOR alias to the negation of the AND/OR/XOR variable.
* Latch variables are shared across the frame boundary:
  ``lit(latch, f+1) = lit(next_state_net, f)``.
* Variable 0 is a global constant-true anchored by a unit clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit, GateOp
from repro.circuit.ops import cone_of_influence
from repro.cnf.formula import Clause, CnfFormula
from repro.cnf.literals import lit_neg, mk_lit
from repro.encode.tseitin import gate_clauses


@dataclass(frozen=True)
class ClauseOrigin:
    """Provenance of one CNF clause.

    ``kind`` is ``"const"``, ``"init"``, ``"gate"`` or ``"property"``;
    ``net``/``frame`` locate the circuit element (−1 where meaningless).
    The abstraction module maps unsat cores back to circuit elements
    through these records (the paper's Fig. 3).
    """

    kind: str
    net: int
    frame: int


class BmcInstance:
    """One depth-``k`` BMC SAT instance with provenance and decoding."""

    def __init__(
        self,
        unroller: "Unroller",
        k: int,
        formula: CnfFormula,
        origins: List[ClauseOrigin],
        property_clause_index: int,
    ) -> None:
        self.unroller = unroller
        self.k = k
        self.formula = formula
        self.origins = origins
        self.property_clause_index = property_clause_index

    @property
    def circuit(self) -> Circuit:
        return self.unroller.circuit

    def lit_of(self, net: int, frame: int) -> int:
        """CNF literal of a circuit net at a time frame (0 .. k)."""
        if not 0 <= frame <= self.k:
            raise ValueError(f"frame {frame} outside 0..{self.k}")
        return self.unroller.lit_of(net, frame)

    def value_of(self, model: Sequence[int], net: int, frame: int) -> int:
        """Value of a net at a frame under a satisfying model."""
        lit = self.lit_of(net, frame)
        return model[lit >> 1] ^ (lit & 1)

    def origin_of(self, clause_index: int) -> ClauseOrigin:
        """Provenance of a clause of this instance's formula."""
        return self.origins[clause_index]

    def decode_inputs(self, model: Sequence[int]) -> List[Dict[int, int]]:
        """Input vectors per frame, suitable for ``Circuit.simulate``."""
        return [
            {net: self.value_of(model, net, frame) for net in self.unroller.nets_inputs}
            for frame in range(self.k + 1)
        ]

    def decode_initial_state(self, model: Sequence[int]) -> Dict[int, int]:
        """Latch values at frame 0 (relevant for ``init=None`` latches)."""
        return {
            net: self.value_of(model, net, 0) for net in self.unroller.nets_latches
        }


class Unroller:
    """Monotone unroller for one circuit + property pair.

    ``property_net`` is the net that must hold in every reachable state
    (the invariant ``P``); each instance asserts its negation at frame
    ``k``.  With ``use_coi=True``, only the property's sequential cone of
    influence is encoded (an ablation; the default matches Eq. 1's full
    transition relation).
    """

    def __init__(
        self,
        circuit: Circuit,
        property_net: int,
        use_coi: bool = False,
        constrain_init: bool = True,
        memoize_instances: bool = False,
    ) -> None:
        circuit.validate()
        if not 0 <= property_net < circuit.num_nets:
            raise ValueError(f"property net {property_net} does not exist")
        self.circuit = circuit
        self.property_net = property_net
        self.use_coi = use_coi
        self.constrain_init = constrain_init
        if use_coi:
            cone = cone_of_influence(circuit, [property_net])
            self._nets = [net for net in circuit.topological_order() if net in cone]
        else:
            self._nets = circuit.topological_order()
        net_set = set(self._nets)
        self.nets_inputs = tuple(n for n in circuit.inputs if n in net_set)
        self.nets_latches = tuple(n for n in circuit.latches if n in net_set)

        # Variable 0 is constant-true; clause 0 asserts it.  Clauses are
        # stored as ready-made immutable Clause objects so that every
        # depth-k instance assembly shares them (CnfFormula.add_clause
        # stores Clause inputs as-is) instead of re-wrapping each tuple
        # per depth.
        self._num_vars = 1
        self._clauses: List[Clause] = [Clause((mk_lit(0),))]
        self._origins: List[ClauseOrigin] = [ClauseOrigin("const", -1, -1)]
        self._lit_cache: Dict[Tuple[int, int], int] = {}
        self._var_frame: List[int] = [-1]  # allocation frame per variable
        self._frames_built = 0
        self._vars_after_frame: List[int] = []
        self._clauses_after_frame: List[int] = []
        # With memoize_instances, assembled BmcInstance objects are kept
        # per depth and handed out shared.  Safe because instance(k) is
        # deterministic and consumers treat instances as read-only (the
        # solver copies clause literals into its own arena) — the basis
        # of the cross-strategy CNF cache (repro.bmc.cnf_cache).
        self._instance_memo: Optional[Dict[int, "BmcInstance"]] = (
            {} if memoize_instances else None
        )

    # -- variable management -------------------------------------------

    def _new_var(self, frame: int) -> int:
        var = self._num_vars
        self._num_vars += 1
        self._var_frame.append(frame)
        return var

    def lit_of(self, net: int, frame: int) -> int:
        """Packed literal of ``net`` at ``frame``; frames must be built."""
        try:
            return self._lit_cache[(net, frame)]
        except KeyError:
            raise KeyError(
                f"net {net} at frame {frame} is not encoded "
                f"(frames built: {self._frames_built}, coi={self.use_coi})"
            ) from None

    def var_frame(self, var: int) -> int:
        """The frame a CNF variable was allocated in (−1 for the constant).

        This is the "time axis" position used by the Shtrichman baseline
        ordering."""
        return self._var_frame[var]

    # -- frame construction ----------------------------------------------

    def _add_clause(self, lits: Sequence[int], origin: ClauseOrigin) -> None:
        self._clauses.append(Clause(tuple(lits)))
        self._origins.append(origin)

    def ensure_frames(self, k: int) -> None:
        """Encode frames up to and including ``k``.

        Each frame's clauses are checked against the frame's variable
        watermark once, here; instance assembly then shares slices of
        the clause list without re-validating them per depth.
        """
        while self._frames_built <= k:
            first = len(self._clauses)
            self._build_frame(self._frames_built)
            self._check_frame(first)
            self._frames_built += 1
            self._vars_after_frame.append(self._num_vars)
            self._clauses_after_frame.append(len(self._clauses))

    def _check_frame(self, first: int) -> None:
        """Reject a clause of the frame just built (indices ``first``
        onward) that references a variable beyond its watermark."""
        new = self._clauses[first:]
        top = max(chain.from_iterable(map(_LITERALS, new)), default=0)
        if (top >> 1) < self._num_vars:
            return
        for index, clause in enumerate(new, first):
            for lit in clause.literals:
                if (lit >> 1) >= self._num_vars:
                    raise ValueError(
                        f"clause {index} literal {lit} references variable "
                        f"{lit >> 1} >= num_vars {self._num_vars} "
                        f"(frame {self._frames_built})"
                    )

    def _build_frame(self, frame: int) -> None:
        circuit = self.circuit
        cache = self._lit_cache
        const_true = mk_lit(0)
        for net in self._nets:
            op = circuit.op_of(net)
            if op is GateOp.CONST0:
                cache[(net, frame)] = lit_neg(const_true)
            elif op is GateOp.CONST1:
                cache[(net, frame)] = const_true
            elif op is GateOp.INPUT:
                cache[(net, frame)] = mk_lit(self._new_var(frame))
            elif op is GateOp.LATCH:
                if frame == 0:
                    lit = mk_lit(self._new_var(0))
                    cache[(net, 0)] = lit
                    init = circuit.init_of(net)
                    if init is not None and self.constrain_init:
                        self._add_clause(
                            [lit if init == 1 else lit_neg(lit)],
                            ClauseOrigin("init", net, 0),
                        )
                else:
                    cache[(net, frame)] = cache[(circuit.next_of(net), frame - 1)]
            elif op is GateOp.BUF:
                cache[(net, frame)] = cache[(circuit.fanins_of(net)[0], frame)]
            elif op is GateOp.NOT:
                cache[(net, frame)] = lit_neg(cache[(circuit.fanins_of(net)[0], frame)])
            else:
                base_op, negate = _ALIAS[op]
                fanin_lits = [cache[(f, frame)] for f in circuit.fanins_of(net)]
                out_var = self._new_var(frame)
                origin = ClauseOrigin("gate", net, frame)
                for clause in gate_clauses(base_op, out_var, fanin_lits):
                    self._add_clause(clause, origin)
                lit = mk_lit(out_var)
                cache[(net, frame)] = lit_neg(lit) if negate else lit

    # -- incremental access (used by repro.bmc.incremental) ----------------

    @property
    def num_encoded_clauses(self) -> int:
        """Clauses encoded so far (over all built frames)."""
        return len(self._clauses)

    @property
    def num_encoded_vars(self) -> int:
        """Variable watermark over all built frames."""
        return self._num_vars

    def clauses_since(
        self, index: int, stop: Optional[int] = None
    ) -> List[Tuple[Tuple[int, ...], ClauseOrigin]]:
        """Clauses (with provenance) added at or after cumulative index
        ``index`` — the delta an incremental solver must ingest after
        ``ensure_frames`` advanced.  ``stop`` bounds the delta at a
        cumulative index (e.g. a frame watermark): a *shared* unroller
        may hold frames beyond the consumer's current depth, and feeding
        those early would change search behaviour."""
        return list(zip(self._clauses[index:stop], self._origins[index:stop]))

    def clause_watermark(self, k: int) -> int:
        """Cumulative clause count covering exactly frames ``0..k``
        (builds the frames if needed).  Independent of how many further
        frames a shared unroller has already encoded."""
        self.ensure_frames(k)
        return self._clauses_after_frame[k]

    def var_watermark(self, k: int) -> int:
        """Variable watermark covering exactly frames ``0..k`` (builds
        the frames if needed)."""
        self.ensure_frames(k)
        return self._vars_after_frame[k]

    def origin_of_clause(self, index: int) -> ClauseOrigin:
        """Provenance of a cumulative clause index (identical to the
        incremental solver's original-clause ID)."""
        return self._origins[index]

    def formula_up_to(self, k: int) -> Tuple[CnfFormula, List[ClauseOrigin]]:
        """The transition formula for frames 0..k *without* any property
        clause (the k-induction engine asserts properties via
        assumptions instead)."""
        self.ensure_frames(k)
        num_clauses = self._clauses_after_frame[k]
        formula = CnfFormula.adopt(
            self._vars_after_frame[k], self._clauses[:num_clauses]
        )
        return formula, self._origins[:num_clauses]

    # -- instance assembly -------------------------------------------------

    def instance(self, k: int) -> BmcInstance:
        """The depth-``k`` BMC instance (deterministic for every ``k``,
        independent of what was built before; memoized when the unroller
        was created with ``memoize_instances=True``)."""
        if k < 0:
            raise ValueError("depth must be non-negative")
        if self._instance_memo is not None:
            memo = self._instance_memo.get(k)
            if memo is not None:
                return memo
        self.ensure_frames(k)
        num_clauses = self._clauses_after_frame[k]
        # O(slice) assembly: the frames' clauses were validated when
        # they were encoded, so the formula adopts a slice of the shared
        # clause list; only the property clause is new.
        clauses = self._clauses[:num_clauses]
        property_lit = self.lit_of(self.property_net, k)
        clauses.append(Clause((lit_neg(property_lit),)))
        formula = CnfFormula.adopt(self._vars_after_frame[k], clauses)
        origins = self._origins[:num_clauses]
        origins.append(ClauseOrigin("property", self.property_net, k))
        built = BmcInstance(self, k, formula, origins, num_clauses)
        if self._instance_memo is not None:
            self._instance_memo[k] = built
        return built


_LITERALS = attrgetter("literals")

_ALIAS = {
    GateOp.AND: (GateOp.AND, False),
    GateOp.NAND: (GateOp.AND, True),
    GateOp.OR: (GateOp.OR, False),
    GateOp.NOR: (GateOp.OR, True),
    GateOp.XOR: (GateOp.XOR, False),
    GateOp.XNOR: (GateOp.XOR, True),
    GateOp.MUX: (GateOp.MUX, False),
}
