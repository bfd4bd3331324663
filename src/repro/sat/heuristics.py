"""Decision-ordering strategies (paper §3.3).

The solver is strategy-agnostic: it calls ``decide()`` for the next branch
literal and reports conflicts/backtracks.  Three orderings matter for the
paper:

* :class:`VsidsStrategy` — Chaff's VSIDS, with the exact update rule the
  paper quotes: every literal ``l`` holds ``cha_score(l)``, initialised to
  its literal count in the CNF and periodically updated as
  ``cha_score(l) = cha_score(l) / 2 + new_lit_counts(l)``.
* :class:`RankedStrategy` (static) — the paper's refined ordering: sort
  primarily by the pre-computed per-variable ``bmc_score``, with
  ``cha_score`` only as a tiebreaker, for the whole solve.
* :class:`RankedStrategy` (dynamic) — same initial ordering, but falls
  back to pure VSIDS as soon as the number of decisions exceeds
  ``1/64`` of the number of original literals (a sign the prediction is
  inaccurate and the instance is hard).

Decision engine (PR 3)
----------------------

All production strategies share an **indexed binary max-heap over
variable activity** (:class:`repro.sat.activity_heap
.VariableActivityHeap`): ``decide()`` pops the maximum variable (keyed
by its better polarity) in O(log n) and branches on that stored
literal, and the periodic score update re-keys only the literals that
actually appeared in learned clauses — there is no full rebuild,
neither a sort nor a scan.  Each strategy expresses its paper ordering
as a stack of per-literal key arrays (most significant first; ties
always break toward the lower literal index), so the heap's total
order is *identical* to the stable-sorted scan order the pre-heap
implementation used.

The heap's score array holds ``cha_score * 2^u`` (``u`` = number of
periodic updates so far).  Under the paper's rule
``s' = s/2 + new_counts`` the scaled score only *grows*:
``K' = K + new_counts * 2^(u+1)``, so a periodic update is a handful of
O(log n) increase-key operations instead of touching all ``2n``
literals.  Powers of two are exact in binary floating point, so the
scaled comparison is bit-for-bit the comparison of the paper's scores;
when the scale factor threatens the float range (once per ~84k
conflicts) the array is renormalised in place, which preserves the
order exactly.

The pre-heap machinery — a periodically re-sorted literal list scanned
with a moving pointer — is retained verbatim as
:class:`ScanOrderVsidsStrategy` / :class:`ScanOrderRankedStrategy`.
They are **reference implementations** for the differential fuzzing
suite (``tests/properties/test_solver_differential.py``), which
cross-checks heap and scan-order verdicts on thousands of instances;
they are not wired into the experiment layer.

Protocol note: the solver tells strategies which literals a backtrack
unassigned (:meth:`DecisionStrategy.on_unassigned`) so heap strategies
can re-insert popped variables; scan strategies ignore it.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, List, Mapping, Optional, Sequence

from repro.sat.activity_heap import VariableActivityHeap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sat.solver import CdclSolver

#: How many conflicts between two score halvings / order rebuilds.
#: Chaff used an update period of this order; the paper just says
#: "periodically".
DEFAULT_UPDATE_PERIOD = 256

#: Scaled-score magnitude that triggers an in-place renormalisation of
#: the heap key array (see the module docstring).  2^333 < 1e101, so
#: renormalising here keeps every ``K + c * 2^(u+1)`` exact.
_KEY_RESCALE_LIMIT = 1e100


class ChaffScores:
    """The per-literal ``cha_score`` array with Chaff's decay rule."""

    def __init__(self, num_vars: int, initial_counts: Sequence[int]) -> None:
        if len(initial_counts) != 2 * num_vars:
            raise ValueError("initial_counts must have one entry per literal")
        self.num_vars = num_vars
        self.score = [float(c) for c in initial_counts]
        self.new_counts = [0] * (2 * num_vars)

    def on_learned_clause(self, literals: Iterable[int]) -> None:
        """Count literals of a freshly learned conflict clause."""
        new_counts = self.new_counts
        for lit in literals:
            new_counts[lit] += 1

    def periodic_update(self) -> None:
        """Apply ``cha_score = cha_score / 2 + new_lit_counts``; reset counts."""
        self.score = [s * 0.5 + c for s, c in zip(self.score, self.new_counts)]
        self.new_counts = [0] * len(self.new_counts)


class DecisionStrategy(ABC):
    """Interface between the CDCL solver and a decision ordering."""

    name = "abstract"

    #: Opt-in warm re-attachment: when True and :meth:`attach` re-binds
    #: the *same* solver (a repeated ``solve()`` call), activity state
    #: accumulated in earlier calls is kept instead of re-seeded from
    #: the original literal counts.  The portfolio's deterministic
    #: epoch slicing runs many budgeted solves on one solver; cold
    #: re-seeding every epoch threw the search back to its starting
    #: ordering each time (measured: PHP(8) epoch-sliced at 1024
    #: conflicts/epoch needs ~78k conflicts cold vs ~7k warm).  Off by
    #: default — single-shot behaviour and the scan-order reference
    #: equivalence are bit-for-bit unchanged.
    persist_activity = False

    def __init__(self) -> None:
        self._solver: Optional["CdclSolver"] = None
        # Weak reference to the solver of the last detach: enough to
        # recognise a warm re-attach without keeping the solver alive.
        self._last_solver: Optional["weakref.ref[CdclSolver]"] = None

    def attach(self, solver: "CdclSolver") -> None:
        """Bind to a solver; called once before solving starts."""
        self._solver = solver

    def detach(self) -> None:
        """Unbind at ``solve()`` exit.

        ``solver.strategy -> strategy._solver -> solver`` is a reference
        cycle; dropping the back edge when the search ends lets a
        finished solver be freed by reference counting alone, instead
        of lingering (with its arena and CDG) until a full cyclic
        collection.  The next :meth:`attach` re-binds.
        """
        solver = self._solver
        if solver is not None:
            self._last_solver = weakref.ref(solver)
            self._solver = None

    def _reattaching(self, solver: "CdclSolver") -> bool:
        """True when ``solver`` is the one this strategy last served."""
        last = self._last_solver
        return self._solver is solver or (last is not None and last() is solver)

    @abstractmethod
    def decide(self) -> int:
        """Next branch literal (packed), or ``-1`` if every variable is
        assigned (the formula is satisfied)."""

    def on_conflict(self, learned_literals: Sequence[int]) -> None:
        """Called after each conflict with the learned clause's literals."""

    def on_backtrack(self) -> None:
        """Called whenever the solver undoes assignments (incl. restarts)."""

    def on_unassigned(self, literals: Sequence[int]) -> None:
        """Called by the solver's backtrack with the trail literals being
        undone (heap strategies re-insert their variables; the default —
        and every scan strategy — ignores it)."""


class _HeapOrderStrategy(DecisionStrategy):
    """Shared heap mechanics: scaled activity keys + an indexed max-heap
    (see the module docstring for the ordering and exactness argument)."""

    def __init__(self, update_period: int = DEFAULT_UPDATE_PERIOD) -> None:
        super().__init__()
        if update_period <= 0:
            raise ValueError("update_period must be positive")
        self._update_period = update_period
        self._kscore: List[float] = []
        self._kinc = 1.0  # 2^u, the current score scale factor
        self._new_counts: List[int] = []
        self._bumped: List[int] = []  # literals with a nonzero new count
        self._heap: Optional[VariableActivityHeap] = None
        self._conflicts_since_update = 0

    def attach(self, solver: "CdclSolver") -> None:
        if (
            self.persist_activity
            and self._reattaching(solver)
            and self._heap is not None
            and len(self._kscore) == 2 * solver.num_vars
        ):
            # Warm re-attach (persist_activity): keep the accumulated
            # scores/scale/pending bumps; only the heap membership must
            # be rebuilt (assignments changed since the last detach),
            # and the key arrays re-installed — subclasses may have
            # rebuilt theirs (ranked keys) against the same solver.
            self._solver = solver
            self._heap.set_key_arrays(self._key_arrays())
            self._heap.rebuild_unassigned(solver.lit_truth, solver.num_vars)
            return
        super().attach(solver)
        # Keys MUST be floats: the scaled-score scheme is defined to
        # round exactly as the paper's halved float cha_score does
        # (beyond ~53 periodic updates the low-order contributions are
        # deliberately absorbed — exact integer sums would tie-break
        # differently from the scan-order reference on long runs).
        # map(float, ...) is the cheapest C-level conversion.
        self._kscore = list(map(float, solver.original_literal_counts()))
        self._kinc = 1.0
        self._new_counts = [0] * (2 * solver.num_vars)
        del self._bumped[:]
        # _conflicts_since_update deliberately persists across attaches,
        # matching the scan-order reference (fresh scores, but the decay
        # countdown carries over between solve() calls on one solver).
        self._heap = VariableActivityHeap(self._key_arrays())
        # Root facts enqueued before the search starts (unit clauses,
        # incremental re-solves) are permanent: leave their variables
        # out of the heap instead of lazily discarding them later.
        self._heap.rebuild_unassigned(solver.lit_truth, solver.num_vars)

    def _key_arrays(self) -> list:
        """Key arrays, most significant first; subclasses override."""
        return [self._kscore]

    def on_conflict(self, learned_literals: Sequence[int]) -> None:
        counts = self._new_counts
        bumped = self._bumped
        for lit in learned_literals:
            if not counts[lit]:
                bumped.append(lit)
            counts[lit] += 1
        self._conflicts_since_update += 1
        if self._conflicts_since_update >= self._update_period:
            self._conflicts_since_update = 0
            self._periodic_update()

    def _periodic_update(self) -> None:
        """The paper's decay, in scaled form: double the scale factor and
        add ``new_counts * scale`` to exactly the bumped literals — each
        an O(log n) increase-key, never a rebuild."""
        kinc = self._kinc * 2.0
        if kinc > _KEY_RESCALE_LIMIT:
            self._renormalise()
            kinc = 2.0
        self._kinc = kinc
        kscore = self._kscore
        counts = self._new_counts
        heap = self._heap
        for lit in self._bumped:
            kscore[lit] += counts[lit] * kinc
            counts[lit] = 0
            heap.increase(lit)
        del self._bumped[:]

    def _renormalise(self) -> None:
        """Divide the whole key array by the scale factor (back to the
        unscaled ``cha_score``) and re-key the heap entries in place —
        a uniform positive scaling, so the heap order is untouched."""
        scale = 1.0 / self._kinc
        kscore = self._kscore
        for lit in range(len(kscore)):
            kscore[lit] *= scale
        self._kinc = 1.0
        self._heap.refresh()

    def on_unassigned(self, literals: Sequence[int]) -> None:
        """Re-insert the unassigned variables (popped ones do not come
        back by themselves; the heap filters the still-present majority
        at C speed)."""
        heap = self._heap
        if heap is None:
            return  # not attached yet (pre-solve backtracks); attach rebuilds
        heap.reinsert(literals)

    def decide(self) -> int:
        # One subscript per lazily discarded pop: a literal's truth is
        # 2 exactly when its variable is unassigned (lit < 0 is the
        # heap's empty sentinel, not a truth value).
        truth = self._solver.lit_truth
        pop = self._heap.pop
        while True:
            lit = pop()
            if lit < 0 or truth[lit] == 2:
                return lit


class VsidsStrategy(_HeapOrderStrategy):
    """Chaff's VSIDS: order all literals by ``cha_score`` alone
    (descending; ties break toward the lower literal index so runs are
    deterministic)."""

    name = "vsids"


class RankedStrategy(_HeapOrderStrategy):
    """The paper's refined ordering over a pre-computed variable ranking.

    ``var_rank`` maps variable index to its ``bmc_score`` (missing
    variables score 0).  In *static* mode the ordering is
    ``(bmc_score, cha_score)`` for the entire solve.  In *dynamic* mode the
    strategy watches the solver's decision counter and permanently reverts
    to pure VSIDS once it exceeds ``num_original_literals / switch_divisor``
    (the paper uses a divisor of 64).
    """

    name = "ranked"

    def __init__(
        self,
        var_rank: Mapping[int, float],
        dynamic: bool = False,
        switch_divisor: int = 64,
        update_period: int = DEFAULT_UPDATE_PERIOD,
    ) -> None:
        super().__init__(update_period=update_period)
        if switch_divisor <= 0:
            raise ValueError("switch_divisor must be positive")
        self._var_rank = dict(var_rank)
        self._rank_keys: list = []
        self._dynamic = dynamic
        self._switch_divisor = switch_divisor
        self._switched = False
        self._switch_threshold = 0
        # Cumulative decide() calls across attaches — the dynamic
        # switch counter under epoch-sliced (persist_activity) solving,
        # where solver.stats resets every re-entry and would otherwise
        # never reach the whole-formula threshold.
        self._decide_calls = 0
        self.name = "ranked-dynamic" if dynamic else "ranked-static"

    @property
    def switched(self) -> bool:
        """True once the dynamic fallback to VSIDS has triggered."""
        return self._switched

    def attach(self, solver: "CdclSolver") -> None:
        """Bind to a solver and compute the dynamic switch threshold."""
        self._switch_threshold = solver.num_original_literals() // self._switch_divisor
        # Both literals of a variable share its rank: one C-level
        # lookup per variable, written to the even and odd slots.
        num_vars = solver.num_vars
        per_var = list(map(self._var_rank.get, range(num_vars), repeat(0.0)))
        keys = [0.0] * (2 * num_vars)
        keys[0::2] = per_var
        keys[1::2] = per_var
        self._rank_keys = keys
        super().attach(solver)

    def _key_arrays(self) -> list:
        if self._switched:
            return [self._kscore]
        # Net order: (bmc_score desc, cha_score desc, literal asc).
        return [self._rank_keys, self._kscore]

    def decide(self) -> int:
        """Next branch literal; may trigger the dynamic VSIDS fallback.

        The switch counter is the larger of the solver's per-solve
        decision count (the paper's rule — and within a single solve
        ``_decide_calls - 1`` equals it exactly, so one-shot behaviour
        is bit-identical to the scan-order reference) and the
        strategy's own cumulative ``decide()`` count, which keeps
        counting across epoch-sliced re-entries where the per-solve
        counter resets at every barrier and would otherwise never
        reach a whole-formula threshold.
        """
        self._decide_calls += 1
        if self._dynamic and not self._switched:
            count = max(
                self._solver.stats.decisions, self._decide_calls - 1
            )
            if count > self._switch_threshold:
                self._switched = True
                # One-time comparator change: re-heapify the current
                # membership under pure VSIDS keys.
                self._heap.set_key_arrays(self._key_arrays())
        return super().decide()


class BerkMinStrategy(_HeapOrderStrategy):
    """A BerkMin-flavoured ordering (Goldberg & Novikov, DATE'02 — the
    paper's reference [7]).

    BerkMin organises conflict clauses chronologically and branches on a
    literal of the *most recent unresolved* conflict clause, falling back
    to a global activity order when every conflict clause is satisfied.
    This implementation keeps the solver-side mechanics identical to the
    other strategies (so comparisons isolate the ordering): a bounded
    stack of recent learned clauses is scanned newest-first for an
    unresolved one, choosing its highest-``cha_score`` free literal;
    otherwise the VSIDS heap decides.
    """

    name = "berkmin"

    def __init__(
        self,
        update_period: int = DEFAULT_UPDATE_PERIOD,
        recent_limit: int = 512,
    ) -> None:
        super().__init__(update_period=update_period)
        if recent_limit <= 0:
            raise ValueError("recent_limit must be positive")
        self._recent_limit = recent_limit
        self._recent: list = []  # newest last

    def on_conflict(self, learned_literals: Sequence[int]) -> None:
        """Record the clause on the recency stack and update scores."""
        super().on_conflict(learned_literals)
        self._recent.append(tuple(learned_literals))
        if len(self._recent) > self._recent_limit:
            del self._recent[: len(self._recent) // 2]

    def decide(self) -> int:
        """Branch from the newest unresolved conflict clause, else VSIDS.

        The tie-break key uses the scaled heap scores — the scale factor
        is a common positive constant, so the order is the ``cha_score``
        order.  A literal chosen here is *not* popped from the heap;
        later pops discard it lazily once its variable is assigned.
        """
        solver = self._solver
        truth = solver.lit_truth
        for clause in reversed(self._recent):
            satisfied = False
            free = []
            for lit in clause:
                value = truth[lit]
                if value == 2:
                    free.append(lit)
                elif value == 1:
                    satisfied = True
                    break
            if satisfied or not free:
                continue
            score = self._kscore
            return max(free, key=lambda lit: (score[lit], -lit))
        return super().decide()


class FixedOrderStrategy(DecisionStrategy):
    """Branch on an explicit literal sequence, then fall back to the
    first unassigned variable.  Useful in tests and for reproducing
    hand-constructed search trees.

    The fallback proposes the positive phase, but no longer forces it:
    the solver's phase policy (``SolverConfig.phase_mode``) applies to
    every decision this strategy returns, so under ``save`` a variable
    the fallback reaches is re-assigned its last-seen polarity.
    """

    name = "fixed"

    def __init__(self, literal_order: Sequence[int]) -> None:
        super().__init__()
        self._literal_order = list(literal_order)

    def decide(self) -> int:
        """Follow the fixed order, then first unassigned variable."""
        truth = self._solver.lit_truth
        for lit in self._literal_order:
            if truth[lit] == 2:
                return lit
        for var in range(self._solver.num_vars):
            if truth[var + var] == 2:
                return 2 * var
        return -1


# ----------------------------------------------------------------------
# Scan-order reference implementations (pre-PR-3 machinery, retained for
# differential testing only — see the module docstring).
# ----------------------------------------------------------------------


class _ScanOrderStrategy(DecisionStrategy):
    """Reference mechanics: a sorted literal order + scan pointer + lazy
    rebuilds driven by precomputed key arrays.  Order rebuilds apply each
    key array as a stable descending ``list.sort`` pass (least
    significant first), so ties resolve toward the lower literal index —
    the exact total order the heap strategies reproduce."""

    def __init__(self, update_period: int = DEFAULT_UPDATE_PERIOD) -> None:
        super().__init__()
        if update_period <= 0:
            raise ValueError("update_period must be positive")
        self._update_period = update_period
        self._scores: Optional[ChaffScores] = None
        self._order: list = []
        self._order_dirty = True
        self._ptr = 0
        self._conflicts_since_update = 0

    def attach(self, solver: "CdclSolver") -> None:
        super().attach(solver)
        self._scores = ChaffScores(solver.num_vars, solver.original_literal_counts())
        self._order_dirty = True

    def _sort_passes(self) -> list:
        """Per-literal key arrays, least-significant first; each is
        applied as a stable descending sort.  Subclasses override."""
        return [self._scores.score]

    def _invalidate_order(self) -> None:
        self._order_dirty = True

    def _rebuild_order(self) -> None:
        order = list(range(2 * self._scores.num_vars))
        for keys in self._sort_passes():
            order.sort(key=keys.__getitem__, reverse=True)
        self._order = order
        self._order_dirty = False
        self._ptr = 0

    def on_conflict(self, learned_literals: Sequence[int]) -> None:
        self._scores.on_learned_clause(learned_literals)
        self._conflicts_since_update += 1
        if self._conflicts_since_update >= self._update_period:
            self._conflicts_since_update = 0
            self._scores.periodic_update()
            self._order_dirty = True

    def on_backtrack(self) -> None:
        self._ptr = 0

    def decide(self) -> int:
        if self._order_dirty:
            self._rebuild_order()
        truth = self._solver.lit_truth
        order = self._order
        ptr = self._ptr
        n = len(order)
        while ptr < n:
            lit = order[ptr]
            if truth[lit] == 2:
                self._ptr = ptr
                return lit
            ptr += 1
        self._ptr = ptr
        return -1


class ScanOrderVsidsStrategy(_ScanOrderStrategy):
    """Seed (pre-heap) VSIDS: the differential-fuzzing reference."""

    name = "vsids-scan"


class ScanOrderRankedStrategy(_ScanOrderStrategy):
    """Seed (pre-heap) ranked ordering: the differential-fuzzing
    reference for :class:`RankedStrategy` (both modes)."""

    name = "ranked-scan"

    def __init__(
        self,
        var_rank: Mapping[int, float],
        dynamic: bool = False,
        switch_divisor: int = 64,
        update_period: int = DEFAULT_UPDATE_PERIOD,
    ) -> None:
        super().__init__(update_period=update_period)
        if switch_divisor <= 0:
            raise ValueError("switch_divisor must be positive")
        self._var_rank = dict(var_rank)
        self._rank_keys: list = []
        self._dynamic = dynamic
        self._switch_divisor = switch_divisor
        self._switched = False
        self._switch_threshold = 0
        self.name = "ranked-dynamic-scan" if dynamic else "ranked-static-scan"

    @property
    def switched(self) -> bool:
        return self._switched

    def attach(self, solver: "CdclSolver") -> None:
        self._switch_threshold = solver.num_original_literals() // self._switch_divisor
        rank = self._var_rank
        self._rank_keys = [
            rank.get(lit >> 1, 0.0) for lit in range(2 * solver.num_vars)
        ]
        super().attach(solver)

    def _sort_passes(self) -> list:
        if self._switched:
            return [self._scores.score]
        # cha_score pass first, then the stable bmc_score pass on top:
        # net order is (bmc_score desc, cha_score desc, literal asc).
        return [self._scores.score, self._rank_keys]

    def decide(self) -> int:
        if (
            self._dynamic
            and not self._switched
            and self._solver.stats.decisions > self._switch_threshold
        ):
            self._switched = True
            self._invalidate_order()
        return super().decide()
