"""A Chaff-style CDCL SAT solver with unsat-core bookkeeping.

This is the substrate the paper instruments: DLL search (Fig. 1 of the
paper) with two-watched-literal BCP, first-UIP conflict analysis and clause
learning, Luby restarts, activity-based deletion of learned clauses, and a
pluggable decision strategy (``repro.sat.heuristics``).

Two features set it apart from a textbook CDCL and come straight from the
paper:

* **Simplified CDG recording** (§3.1): each learned clause's antecedent IDs
  are stored in a :class:`~repro.sat.cdg.ConflictDependencyGraph`, keyed by
  integer pseudo-IDs, independent of the clause database.  Clause deletion
  therefore never breaks core reconstruction.
* **Complete derivations**: literals assigned at decision level 0 are
  eliminated from learned clauses, so their reason chains are folded into
  the antecedent list.  Every CDG entry is a genuine resolution derivation,
  which the proof checker (``repro.sat.proof``) replays.

The solver is also **incremental** in the SATIRE / Eén–Sörensson style the
paper cites as complementary ([17], [5]): clauses and variables may be
added between ``solve()`` calls, learned clauses persist, and each call
may carry *assumptions* — literals temporarily forced as the first
decisions.  UNSAT under assumptions reports both the subset of
assumptions used (``failed_assumptions``) and the relative unsat core
(original clauses that, together with the assumptions, are
contradictory).  The incremental BMC engine (``repro.bmc.incremental``)
builds directly on this.

Clause IDs: the initial formula's clauses keep their ``CnfFormula``
indices ``0 .. m-1``; later ``add_clause`` calls and learned clauses share
the tail of the ID space (the CDG distinguishes leaves from derivations).

Flat-memory data plane (PR 4)
-----------------------------

The clause database and the watch tables no longer hold per-clause
Python lists and wide tuples; see ``docs/architecture.md`` for the
memory layout and the measured CPython tradeoffs.

* Every clause's literals live in one :class:`~repro.sat.arena
  .ClauseArena` — a single ``array('i')`` of blocks addressed by
  ``refs[cid]``, with header words carrying the learned flag, the
  tombstone bit and the length, plus parallel ``refs``/``activity``
  header columns.  Learned-DB reduction tombstones blocks and (when no
  CDG pins deleted clauses for proof export) an in-place compaction
  slides live blocks left, so dead clauses stop costing memory instead
  of lingering as unreachable lists.
* Assignments are kept **per literal**: ``lit_truth[lit]`` is 1/0/2
  (true/false/unassigned — 2, not -1, so the ternary scan's dominant
  "neither companion is false" case collapses to one truthiness test)
  for every packed literal, maintained in pairs as the trail grows and
  shrinks.  Every watch test in BCP is then a single subscript — no
  variable-index shift, no phase xor — which is what let the watch
  entries shrink.
* Watch entries are packed pairs/triples: long clauses ``(cid,
  blocker)``, binary clauses ``(cid, implied)``, ternary clauses
  ``(cid, other_a, other_b)``.  The ``(var, want)`` columns PR 1 baked
  into each entry are subsumed by the ``lit_truth`` column, which is
  shared across every entry instead of copied into each.

Hot-path invariants (the experiment layer's throughput depends on
these; see ``benchmarks/solver_bench.py`` for the tracking numbers):

* Binary and ternary clauses live in dedicated, *static* watch lists
  (binary: the implied literal; ternary: both other literals) — BCP on
  them is one ``lit_truth`` subscript per test, no clause access, no
  watch moves.
* Long-clause watch entries carry a *blocker* literal whose
  satisfaction (``lit_truth[blocker] == 1``) skips the clause without
  touching the arena.
* ``_propagate`` hoists every attribute into locals and assigns
  inline; learned-vs-original queries in ``_analyze`` are one arena
  flag-byte read; tautological originals are excluded from literal
  counts so ``cha_score`` seeds and the dynamic 1/64 switch threshold
  reflect only installed literals.
* ``_analyze`` reuses persistent scratch arrays (``_seen`` plus the
  touched/zero lists) — no per-conflict set allocations — and runs
  learned-clause self-subsumption minimization (one-step ``local`` by
  default, budgeted-recursive via ``SolverConfig.minimize_learned``)
  before installing the clause, citing every reason clause a removal
  proof consumed as an extra CDG antecedent so proof replay stays
  complete.
* Decisions come from an indexed activity heap
  (``repro.sat.activity_heap``) — O(log n) per decision and score
  bump, no periodic order rebuilds; ``_backtrack`` reports the undone
  literals to the strategy (``on_unassigned``) so popped variables
  re-enter the heap.
* Decision phases follow ``SolverConfig.phase_mode``: by default each
  re-decided variable is re-assigned its last-seen polarity (phase
  saving), captured in ``_backtrack`` as assignments are undone.
* Clauses satisfied at decision level 0 are pruned from the watch
  lists (``SolverConfig.prune_root_satisfied``): skipped at install
  time, and swept after each restart as learned units accumulate —
  their literal blocks and CDG entries remain, so cores and proof
  replay are unaffected.
"""

from __future__ import annotations

import gc
import time
from array import array
from contextlib import contextmanager
from itertools import chain
from operator import attrgetter
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cnf.formula import CnfFormula
from repro.metrics.access import (
    SID_ARENA,
    SID_CLAUSE,
    SID_TRAIL,
    AccessStreamWriter,
)
from repro.sat.arena import (
    ClauseArena,
    HEADER_WORDS,
    ClauseArenaFullError,
    INACTIVE,
    LEARNED,
    STORAGE_MODES,
    TOMBSTONE,
)
from repro.sat.cdg import ConflictDependencyGraph
from repro.sat.heuristics import DecisionStrategy, VsidsStrategy
from repro.sat.kernel import (
    ANALYZE_BACKENDS,
    BCP_BACKENDS,
    create_analyze_kernel,
    create_kernel,
)
from repro.sat.profile import (
    NPROF,
    PROF_ARENA,
    PROF_ATRAIL,
    PROF_AWORDS,
    PROF_BIN,
    PROF_DEQ,
    PROF_HEAP,
    PROF_LONG,
    PROF_OPEN,
    PROF_PROPS,
    PROF_TERN,
    new_profile_buffer,
    profile_as_dict,
    structure_counts,
)
from repro.sat.stats import SolverStats
from repro.sat.trace import (
    STATUS_SAT,
    STATUS_UNKNOWN,
    STATUS_UNSAT,
    TraceEvent,
    TraceRecorder,
    TraceTee,
    TraceWriter,
)
from repro.sat.types import AnalysisResult, SolveOutcome, SolveResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.metrics import MetricsRegistry


@dataclass
class SolverConfig:
    """Tunables for a :class:`CdclSolver`.

    The defaults reproduce the configuration used in the experiments;
    budget fields (``max_*``) turn an exhaustive solve into a bounded one
    that may return ``UNKNOWN`` (the paper's two-hour timeout analogue).
    Budgets apply per ``solve()`` call.
    """

    record_cdg: bool = True
    check_model: bool = True
    use_restarts: bool = True
    restart_base: int = 100
    clause_deletion: bool = True
    # Aggressive learned-DB reduction: the watch lists of live learned
    # clauses dominate BCP cost in conflict-bound workloads, so the DB
    # ceiling starts low and grows slowly (PR 2 measured ~1.4x
    # conflict-bound throughput from this alone; bounded solves lose
    # nothing since deleted clauses stay exportable for proofs).
    reduce_base: int = 150
    reduce_growth: float = 1.05
    clause_activity_decay: float = 0.999
    #: Learned-clause minimization: ``"local"`` (one self-subsumption
    #: resolution step per literal — the default: it captures most of
    #: the clause shrinkage for near-zero overhead), ``"recursive"``
    #: (MiniSat-style budgeted DFS over reason chains — shortest
    #: clauses, but on this pure-Python substrate the extra proof
    #: search costs about what the shorter clauses save), or ``"off"``.
    minimize_learned: str = "local"
    #: Budget for one recursive redundancy proof: the DFS gives up (the
    #: literal is kept) after exploring this many reason-side variables.
    #: Keeps pathological reason chains from costing more than the
    #: shorter clause saves; real solvers bound this the same way.
    minimize_budget: int = 20
    #: Decision-phase policy applied to every literal a strategy
    #: returns: ``"save"`` (re-assign the variable's last-seen polarity,
    #: falling back to the strategy's choice for never-assigned
    #: variables — the modern default, it keeps the search near
    #: previously explored satisfying fragments after backjumps and
    #: restarts), ``"default"`` (the strategy's literal untouched — the
    #: pre-PR-3 behaviour), or ``"inverted"`` (the strategy's phase
    #: flipped; mostly a fuzzing/diagnostic mode).  Assumption literals
    #: are forced verbatim and never rephased.
    phase_mode: str = "save"
    #: Detach clauses satisfied at decision level 0 from the watch lists
    #: after each restart (and skip attaching clauses already satisfied
    #: at install time).  A level-0 assignment is permanent for the
    #: solver's lifetime, so such clauses can never propagate or
    #: conflict again — BCP only stops scanning them.  Their literal
    #: blocks, CDG entries and proof exports are untouched, so core
    #: extraction and proof replay are unaffected; the count is recorded
    #: in ``stats.root_pruned_clauses``.
    prune_root_satisfied: bool = True
    #: Element store of the clause arena: ``"fast"`` (Python-list words
    #: — the CPython-speed default) or ``"compact"`` (``array('i')``
    #: words — half the memory per literal and the layout a C/memoryview
    #: propagation backend consumes zero-copy).  Search behaviour is
    #: identical in both modes; see ``repro.sat.arena``.
    arena_storage: str = "fast"
    #: Propagation backend (the BCP data plane; see
    #: ``repro.sat.kernel``): ``"legacy"`` (the in-solver tuple-list
    #: loop — the default), ``"python"`` (the flat-array kernel, pure
    #: Python, always available) or ``"native"`` (the same scan
    #: compiled via cffi — requires a C compiler on first use; probe
    #: ``repro.sat.kernel.native_available()`` before requesting it).
    #: Search behaviour is byte-identical across all three; the kernel
    #: backends force ``arena_storage="compact"`` internally (the
    #: zero-copy layout they alias).
    bcp_backend: str = "legacy"
    #: Conflict-analysis backend (the first-UIP resolution loop; see
    #: ``repro.sat.kernel``), composing with :attr:`bcp_backend`:
    #: ``"legacy"`` (the in-solver ``_analyze`` main loop — the
    #: default), ``"python"`` (the same loop behind the kernel seam,
    #: always available) or ``"native"`` (the walk compiled via cffi).
    #: Search behaviour is byte-identical across all three — identical
    #: literal iteration order means identical learned clauses.  When
    #: both planes are ``"native"`` the search loop runs the *fused*
    #: ``search_step`` (propagate, then analyze the conflict without
    #: re-crossing the FFI boundary).  ``"native"`` analysis over a
    #: ``"legacy"`` BCP plane silently upgrades the data plane to the
    #: python BCP kernel (the C walk needs the typed arrays; search is
    #: identical either way).
    analyze_backend: str = "legacy"
    #: Learned-clause export cap for portfolio solving
    #: (``repro.sat.portfolio``): learned clauses of at most this many
    #: literals are buffered for sharing with peer solvers — short
    #: clauses prune the most search per byte shipped.  ``None`` (the
    #: default) disables export entirely; the buffer is handed out
    #: through the :attr:`CdclSolver.on_learned` hook at restart points
    #: and through :meth:`CdclSolver.drain_exported` between solves.
    export_learned_max_len: Optional[int] = None
    #: Binary solver-trace telemetry (``repro.sat.trace``): when set,
    #: every ``solve()`` writes its search-level event stream (DECIDE /
    #: ENQUEUE / CONFLICT / LEARN / BACKTRACK / RESTART / REDUCE /
    #: ASSUME / END) to this path as a versioned varint-packed binary
    #: trace.  Repeated ``solve()`` calls on one solver re-open the
    #: path, so the file holds the *last* call's trace.  The stream
    #: sees only search-level state, which PR 7 pinned byte-identical
    #: across BCP backends — traces are therefore backend-invariant.
    #: Disabled (``None``) the entire feature costs one ``is not None``
    #: test per event site.
    trace_path: Optional[str] = None
    #: In-memory variant of :attr:`trace_path`: a caller-supplied list
    #: that receives decoded :class:`repro.sat.trace.TraceEvent` tuples
    #: (no serialization).  Both options may be set at once; the
    #: streams are identical by construction.
    trace_events: Optional[List["TraceEvent"]] = None
    #: Observability plane (``repro.metrics``): a registry this solver
    #: publishes counters and gauges into — ``solver_*_total`` counter
    #: deltas for every :class:`SolverStats` field plus state gauges
    #: (learned-DB size, arena footprint/tombstone ratio, heap size,
    #: trail depth).  Publishing happens at epoch boundaries only
    #: (restart points and ``solve()`` exit), never per conflict, and
    #: reads no clock — rates come from registry snapshots.  ``None``
    #: (the default) costs one ``is not None`` test per restart.
    metrics: Optional["MetricsRegistry"] = None
    #: Label set attached to every series this solver publishes (e.g.
    #: the portfolio member name); ``None`` for unlabeled series.
    metrics_labels: Optional[Dict[str, str]] = None
    #: Per-structure access profiling (``repro.sat.profile``): every
    #: BCP/analysis backend accounts its memory traffic — arena words,
    #: watch-column entries, ``lit_truth``/trail/reasons/levels
    #: subscripts, heap ops — into the flat raw-counter array exposed
    #: as :meth:`CdclSolver.access_profile`.  Aggregation happens at
    #: kernel-call granularity (locals flushed at exit; the native
    #: kernels fill the same buffer from C through one
    #: ``from_buffer`` view), so profiled searches stay byte-identical
    #: and the hot loops stay solcheck-clean.
    profile_access: bool = False
    #: Sampled access-stream sidecar (``repro.metrics.access``): when
    #: set, every ``solve()`` appends (structure, offset) events — the
    #: antecedent clause IDs and arena block offsets each sampled
    #: conflict's analysis touched, plus the trail depth — to this
    #: path in the varint ``RACC`` framing, for offline locality
    #: analysis (``python -m repro.trace``).  Like the trace, the file
    #: holds the *last* call's stream.
    access_stream_path: Optional[str] = None
    #: Record an access-stream sample every this many conflicts
    #: (deterministic — keyed on the conflict counter, no clock).
    access_sample_every: int = 16
    #: Live-progress hook, fired at search level every
    #: :attr:`progress_every` conflicts with a counters-only payload
    #: (:meth:`CdclSolver.progress_snapshot`).  The payload carries no
    #: wall-clock reading — interested callers stamp arrival times
    #: themselves (see ``repro.experiments`` ``--progress``).  The
    #: hook must not mutate the solver (same contract as the strategy
    #: hooks).
    on_progress: Optional[Callable[[Dict[str, int]], None]] = None
    #: Conflict interval between :attr:`on_progress` firings.
    progress_every: int = 2048
    max_conflicts: Optional[int] = None
    max_decisions: Optional[int] = None
    max_propagations: Optional[int] = None


#: Valid values of :attr:`SolverConfig.minimize_learned`.
MINIMIZE_MODES = ("off", "local", "recursive")

#: Solve outcome -> trace END-event status code (repro.sat.trace).
_TRACE_STATUS = {
    SolveResult.SAT: STATUS_SAT,
    SolveResult.UNSAT: STATUS_UNSAT,
    SolveResult.UNKNOWN: STATUS_UNKNOWN,
}

#: Valid values of :attr:`SolverConfig.phase_mode`.
PHASE_MODES = ("default", "save", "inverted")

#: Valid values of :attr:`SolverConfig.arena_storage` (re-exported from
#: the arena module).
ARENA_STORAGE_MODES = STORAGE_MODES

#: Valid values of :attr:`SolverConfig.bcp_backend` (re-exported from
#: the kernel package).
SOLVER_BCP_BACKENDS = BCP_BACKENDS

#: Valid values of :attr:`SolverConfig.analyze_backend` (re-exported
#: from the kernel package).
SOLVER_ANALYZE_BACKENDS = ANALYZE_BACKENDS

#: Clause-activity magnitude that triggers a rescale.  Single source of
#: truth for both the inlined bump in ``_analyze`` and the out-of-line
#: :meth:`CdclSolver._bump_clause_activity`.
ACTIVITY_RESCALE_LIMIT = 1e20

#: Minimum number of new level-0 facts before a root-satisfied watch
#: sweep runs (see :meth:`CdclSolver._prune_root_satisfied`).
_PRUNE_MIN_NEW_FACTS = 16

#: Arena compaction trigger: reclaim tombstoned literal blocks once they
#: are at least this many words *and* at least half the arena (amortized
#: O(1) per word; see :meth:`CdclSolver._maybe_compact_arena`).
_COMPACT_MIN_DEAD_WORDS = 1024


def luby(index: int) -> int:
    """The ``index``-th element (1-based) of the Luby restart sequence
    1, 1, 2, 1, 1, 2, 4, ..."""
    if index < 1:
        raise ValueError("luby index is 1-based")
    x = index - 1
    size = 1
    seq = 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class CdclSolver:
    """CDCL solver over a :class:`CnfFormula`, incrementally extensible.

    One-shot use: build with a formula, call :meth:`solve` once.
    Incremental use: keep calling :meth:`add_clause` / :meth:`new_var` /
    :meth:`solve` (optionally with assumptions); learned clauses and
    level-0 facts persist across calls.  The decision strategy defaults to
    VSIDS; the BMC layer passes
    :class:`~repro.sat.heuristics.RankedStrategy` instances to realise the
    paper's refined orderings.

    Forking from an installed prefix: ``prefix`` is a *template* — a
    solver that was never solved and was never given clauses except
    through construction — holding the leading clauses of ``formula``
    installed.  The constructor first extends the template, in place,
    to ``formula``'s first ``prefix_clauses`` clauses (default: all of
    them), then starts this solver as a copy of every installed
    structure of the template and installs the remaining clauses
    itself.  The result is identical, structure for structure, to a
    solver that installed all of ``formula`` cold (install is a
    deterministic left-to-right pass with no propagation, so the state
    after clause ``i`` depends only on clauses ``0 .. i``); search
    state — CDG, statistics, strategy — is this solver's own.  The BMC
    engine keeps one template per run, so each depth pays for copying
    the installed arrays plus installing its new frame instead of a
    full re-install.  The template's configuration must agree with
    ``config`` on every field that shapes installed state
    (:data:`_INSTALL_FIELDS`).
    """

    def __init__(
        self,
        formula: Optional[CnfFormula] = None,
        strategy: Optional[DecisionStrategy] = None,
        config: Optional[SolverConfig] = None,
        prefix: Optional["CdclSolver"] = None,
        prefix_clauses: Optional[int] = None,
    ) -> None:
        self._formula = formula if formula is not None else CnfFormula(0)
        self.config = config or SolverConfig()
        if self.config.minimize_learned not in MINIMIZE_MODES:
            raise ValueError(
                f"minimize_learned must be one of {MINIMIZE_MODES}, "
                f"got {self.config.minimize_learned!r}"
            )
        if self.config.phase_mode not in PHASE_MODES:
            raise ValueError(
                f"phase_mode must be one of {PHASE_MODES}, "
                f"got {self.config.phase_mode!r}"
            )
        if self.config.arena_storage not in STORAGE_MODES:
            raise ValueError(
                f"arena_storage must be one of {STORAGE_MODES}, "
                f"got {self.config.arena_storage!r}"
            )
        if self.config.bcp_backend not in BCP_BACKENDS:
            raise ValueError(
                f"bcp_backend must be one of {BCP_BACKENDS}, "
                f"got {self.config.bcp_backend!r}"
            )
        if self.config.analyze_backend not in ANALYZE_BACKENDS:
            raise ValueError(
                f"analyze_backend must be one of {ANALYZE_BACKENDS}, "
                f"got {self.config.analyze_backend!r}"
            )
        self.strategy = strategy or VsidsStrategy()
        self.num_vars = 0
        self.stats = SolverStats()
        # The kernel backends alias the assignment state across the FFI
        # boundary, so it must live in typed arrays; the legacy backend
        # keeps the measured-faster Python lists.  Search behaviour is
        # identical either way (both are subscripted int sequences).
        # Native conflict analysis also needs the typed plane (the C
        # walk reads levels/reasons/trail/seen zero-copy), so it forces
        # kernel mode even over bcp_backend="legacy" — the data plane
        # is then the python BCP kernel.
        kernel_mode = (
            self.config.bcp_backend != "legacy"
            or self.config.analyze_backend == "native"
        )

        #: Per-*literal* truth values: 1 true, 0 false, 2 unassigned
        #: (2 rather than -1 so "not false" is plain truthiness).  The
        #: two entries of a variable are written together whenever the
        #: trail grows or shrinks, so every literal test anywhere in
        #: the solver (and in the decision strategies) is one subscript.
        #: Public accessors (``value_of``, ``assigns``) translate the
        #: internal 2 back to the conventional -1.  A ``List[int]``
        #: under the legacy backend, a ``bytearray`` under the kernel
        #: backends (faster Python subscripting than ``array('b')``;
        #: the C scan reads it as ``unsigned char``).
        self.lit_truth: Sequence[int] = bytearray() if kernel_mode else []
        self._levels: Sequence[int] = array("i") if kernel_mode else []
        self._reasons: Sequence[int] = array("i") if kernel_mode else []
        # Last value each variable held before it was unassigned
        # (-1 = never assigned); the phase_mode="save" source.
        self._saved_phase: List[int] = []
        self._seen = bytearray()
        #: Physical size of the per-var/per-lit arrays (grown
        #: geometrically by :meth:`ensure_num_vars`; ``num_vars`` is the
        #: logical size).
        self._var_capacity = 0
        # Watch tables, one list per packed literal.  Entries are packed
        # tuples: long clauses (clause_id, blocker) — a satisfied
        # blocker skips the clause without touching the arena; ternary
        # clauses (clause_id, other_a, other_b) — watched statically on
        # all three literals.  Binary clauses — whose watches never
        # move and whose every scan may propagate — keep the implied
        # literal's complement and variable precomputed,
        # (clause_id, implied, ~implied, var): pure BCP chains assign
        # on almost every scanned entry, and the two extra tuple fields
        # are cheaper there than an xor+shift per assignment.
        self._watches: List[List[Tuple[int, int]]] = []
        self._watches_bin: List[List[Tuple[int, int, int, int]]] = []
        self._watches_tern: List[List[Tuple[int, int, int]]] = []
        self._lit_counts: List[int] = []  # original-clause literal counts
        #: The trail: a dynamically grown list under the legacy
        #: backend; under the kernel backends a *preallocated*
        #: ``array('i')`` of ``_var_capacity`` slots whose live prefix
        #: is ``_trail_len`` (the C scan appends by subscript, it
        #: cannot grow a Python list).  ``_trail_len`` is maintained in
        #: both modes; legacy keeps ``len(_trail) == _trail_len``.
        self._trail: Sequence[int] = array("i") if kernel_mode else []
        self._trail_len = 0
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._decision_level = 0

        self._num_initial = self._formula.num_clauses
        #: The flat clause store: every clause's literals live here as
        #: one block; ``_arena.refs[cid]`` addresses them and
        #: ``_arena.activity`` is the per-clause activity column.
        #: The kernel backends force the compact (``array('i')``)
        #: store — the clause memory they alias zero-copy; fast-vs-
        #: compact search identity is pinned by the differential
        #: fuzzer, so this changes no behaviour.
        self._arena = ClauseArena(
            "compact" if kernel_mode else self.config.arena_storage
        )
        #: Raw access-counter buffer (repro.sat.profile), or None when
        #: profiling is off.  Allocated *before* the kernels: the
        #: native wrappers capture it at construction and alias it from
        #: C through one ``from_buffer`` view.
        self._profile = (
            new_profile_buffer() if self.config.profile_access else None
        )
        #: The propagation kernel (None under the legacy backend).  Its
        #: construction must precede ``ensure_num_vars`` (which grows
        #: the kernel's watch columns alongside the per-var arrays);
        #: ``bcp_backend="native"`` raises here, cleanly, on hosts
        #: without cffi or a C compiler.
        self._kernel = (
            create_kernel(
                self,
                self.config.bcp_backend
                if self.config.bcp_backend != "legacy"
                else "python",
            )
            if kernel_mode
            else None
        )
        #: The conflict-analysis kernel (None under the legacy
        #: backend); ``analyze_backend="native"`` raises here, cleanly,
        #: on hosts without cffi or a C compiler.
        self._akernel = (
            create_analyze_kernel(self, self.config.analyze_backend)
            if self.config.analyze_backend != "legacy"
            else None
        )
        #: True when both planes are native: the search loop then runs
        #: the fused propagate->analyze step (one FFI crossing per
        #: conflict) instead of two seam calls.
        self._fused = (
            self._kernel is not None
            and self._kernel.name == "native"
            and self._akernel is not None
            and self._akernel.name == "native"
        )
        # Analysis-side literal views, one immutable tuple per clause.
        # Conflict analysis is literal-ORDER-blind (seen-marking makes
        # duplicates and permutations irrelevant), and a clause's
        # literal SET never changes after install — watch moves only
        # permute the arena block — so these views never go stale.
        # Original clauses share the formula's own tuples (one
        # reference, no copy); learned clauses pay one tuple while
        # live, freed at deletion.  The arena stays the store of
        # record: propagation, watch positions, proofs and
        # clause_literals() all read it, analysis iterates the view.
        self._lits_view: List[Tuple[int, ...]] = []
        self._original_ids: List[int] = []
        self._original_id_set: Set[int] = set()
        self._learned_ids: List[int] = []
        self._activity = self._arena.activity
        self._activity_inc = 1.0
        self._num_live_learned = 0
        self._num_original_literals = 0
        # Defining original unit clause per variable (var -> (lit, cid)):
        # the fallback _reason_closure resolves level-0 facts against when
        # a front end discharged their trail reason (reason == -1).
        self._root_unit_of: Dict[int, Tuple[int, int]] = {}
        # Root-level watch pruning (config.prune_root_satisfied): IDs of
        # clauses detached because a level-0 assignment satisfies them
        # forever, plus the trail watermark up to which level-0 facts
        # have been processed.  Pruned clauses keep their literal blocks
        # and CDG entries — only their watch entries are dropped.
        self._root_pruned: Set[int] = set()
        self._root_prune_watermark = 0
        # Install-time prunes happen outside solve(); like
        # _pending_load_propagations they are credited to the next
        # solve's statistics.
        self._pending_root_pruned = 0
        # Conflict-analysis scratch, reused across conflicts so the hot
        # path allocates no per-conflict sets (_seen doubles as the
        # marker array; these lists record what must be unmarked).
        self._touched_scratch: List[int] = []
        self._zero_scratch: List[int] = []
        self._min_stack: List[int] = []
        # LBD (glue) stamp array: one slot per possible decision level
        # (0..var_capacity, grown with the variable space) plus a
        # generation counter, so counting a learned clause's distinct
        # levels allocates nothing and never needs clearing.
        self._lbd_stamp = array("i", [0])
        self._lbd_gen = 0

        self._cdg = (
            ConflictDependencyGraph(self._num_initial)
            if self.config.record_cdg
            else None
        )
        self._ok = True
        # Antecedents of a root-level contradiction met while installing
        # (None while consistent): a fork re-records them in its own CDG.
        self._root_conflict: Optional[List[int]] = None
        self._solving = False
        # True until the first solve()/add_clause: only such a solver
        # may serve as an installed-prefix template.
        self._pristine = True
        # Trace telemetry (repro.sat.trace): the active sink during a
        # traced solve(), else None.  _trace_mark is the trail position
        # up to which entries have been emitted as ENQUEUE events; the
        # event sites in _search flush [_trace_mark, _trail_len) before
        # each event so propagations are recorded lazily, off the BCP
        # hot path.
        self._trace = None
        self._trace_mark = 0
        # Lazy index of the constructor formula's literal tuples (model
        # checking); references the formula's own immutable tuples.
        self._formula_literal_index: Optional[List[Tuple[int, ...]]] = None
        self._assumptions: List[int] = []
        self.failed_assumptions: Optional[frozenset] = None
        # Implications derived while installing clauses (eager level-0
        # propagation); credited to the next solve() call's statistics.
        self._pending_load_propagations = 0
        # Learned-clause sharing (repro.sat.portfolio): clauses learned
        # by *this* solver and short enough to export
        # (config.export_learned_max_len) accumulate here until a
        # sharing point drains them; clauses learned by *peers* arrive
        # through add_shared_clause / the on_learned hook and their IDs
        # are recorded for introspection.  on_learned — when set — is
        # invoked at restart points (assumption-free solves only) with
        # the drained export batch; whatever iterable of clauses it
        # returns is imported at decision level 0.
        self._export_buffer: List[Tuple[int, ...]] = []
        self._imported_ids: List[int] = []
        self._pending_imported = 0
        self.on_learned = None
        # Learned-DB reduction ceiling, persisted across solve() calls:
        # resetting it per call made repeated budgeted solves (the
        # portfolio's deterministic epoch slicing, and any incremental
        # caller resuming with max_conflicts) delete their accumulated
        # learned DB every re-entry — each epoch re-learned what the
        # last one threw away.  None until the first search computes
        # the formula-derived floor.
        self._max_learned: Optional[float] = None
        # Observability plane state: the open access-stream sidecar
        # during a solve (else None), the per-field counter values
        # already published into config.metrics (counters publish
        # deltas; cleared when stats reset at solve entry), and the
        # raw profile slots already published (same delta discipline).
        self._access_stream: Optional[AccessStreamWriter] = None
        self._published_stats: Dict[str, float] = {}
        self._published_profile: List[int] = [0] * NPROF

        if prefix is None:
            self.ensure_num_vars(self._formula.num_vars)
        else:
            with _collector_paused():
                self._fork_prefix(prefix, prefix_clauses)
        self._install_initial()

    # ------------------------------------------------------------------
    # Installed-prefix templates (see the class docstring).
    # ------------------------------------------------------------------

    def _extend_prefix(self, formula: CnfFormula, count: int) -> None:
        """Grow this template to ``formula``'s first ``count`` clauses,
        whose leading part must be the clauses it already installed."""
        if not self._pristine:
            raise ValueError("an installed-prefix template must never be solved")
        installed = len(self._arena.refs)
        if not installed <= count <= formula.num_clauses:
            raise ValueError(
                f"template holds {installed} clauses; cannot extend it to "
                f"{count} of a {formula.num_clauses}-clause formula"
            )
        if installed and (
            formula.clause(installed - 1) != self._formula.clause(installed - 1)
        ):
            raise ValueError("formula does not extend the template's clauses")
        self._formula = formula
        self.ensure_num_vars(formula.num_vars)
        self._install_initial(count)
        if self._akernel is not None:
            self._akernel.sync_mirror()

    def _fork_prefix(self, prefix: "CdclSolver", count: Optional[int]) -> None:
        """Start as a copy of ``prefix``'s installed state, after
        extending it to ``count`` clauses of this solver's formula.

        Every per-variable array is cut or padded to the capacity a cold
        ``ensure_num_vars(num_vars)`` allocates, so the copy matches a
        cold install array for array, not just up to ``num_vars``.
        """
        formula = self._formula
        for name in _INSTALL_FIELDS:
            if getattr(prefix.config, name) != getattr(self.config, name):
                raise ValueError(
                    f"template config differs in {name}: "
                    f"{getattr(prefix.config, name)!r} != "
                    f"{getattr(self.config, name)!r}"
                )
        if prefix.num_vars > formula.num_vars:
            raise ValueError("template has more variables than the formula")
        prefix._extend_prefix(
            formula, formula.num_clauses if count is None else count
        )
        num_vars = formula.num_vars
        cap = max(num_vars, 16) if num_vars else 0
        lits = 2 * cap
        kernel = self._kernel
        self.num_vars = num_vars
        self._var_capacity = cap
        self.lit_truth = _fit(prefix.lit_truth, lits, 2)
        self._levels = _fit(prefix._levels, cap, -1)
        self._reasons = _fit(prefix._reasons, cap, -1)
        self._lit_counts = _fit(prefix._lit_counts, lits, 0)
        # Never written before the first search: fresh defaults.
        self._saved_phase = [-1] * cap
        self._seen = bytearray(cap)
        self._lbd_stamp = array("i", bytes(4 * (cap + 1)))
        self._trail_len = prefix._trail_len
        if kernel is None:
            self._trail = prefix._trail[:]
            self._watches = _fit_table(prefix._watches, lits)
            self._watches_bin = _fit_table(prefix._watches_bin, lits)
            self._watches_tern = _fit_table(prefix._watches_tern, lits)
        else:
            self._trail = _fit(prefix._trail, cap, 0)
            source = prefix._kernel
            kernel.long.copy_from(source.long, lits)
            kernel.bin.copy_from(source.bin, lits)
            kernel.tern.copy_from(source.tern, lits)
        if self._akernel is not None:
            self._akernel.mirror.copy_from(prefix._akernel.mirror)
        self._arena = prefix._arena.copy()
        self._activity = self._arena.activity
        self._lits_view = prefix._lits_view[:]
        self._original_ids = prefix._original_ids[:]
        self._original_id_set = prefix._original_id_set.copy()
        self._num_original_literals = prefix._num_original_literals
        self._root_unit_of = prefix._root_unit_of.copy()
        self._root_pruned = prefix._root_pruned.copy()
        self._pending_root_pruned = prefix._pending_root_pruned
        self._pending_load_propagations = prefix._pending_load_propagations
        if not prefix._ok:
            self._mark_root_unsat(prefix._root_conflict)

    # ------------------------------------------------------------------
    # Incremental interface.
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable and return its index.

        Like :meth:`ensure_num_vars`, must not be called mid-search.
        """
        var = self.num_vars
        self.ensure_num_vars(var + 1)
        return var

    def ensure_num_vars(self, count: int) -> None:
        """Grow the variable space to at least ``count`` variables.

        Must not be called during an active :meth:`solve`: the watch
        tables, trail and strategy state are sized at search entry, and
        growing them mid-search would silently corrupt propagation.
        The physical arrays grow geometrically (at least doubling), so
        the one-variable-at-a-time pattern front ends use costs
        amortized O(1) per variable instead of one resize per call.
        """
        if count <= self.num_vars:
            return
        if self._solving:
            raise RuntimeError(
                "ensure_num_vars/new_var may not be called during solve()"
            )
        if count > self._var_capacity:
            new_cap = max(count, 2 * self._var_capacity, 16)
            grow = new_cap - self._var_capacity
            self.lit_truth.extend([2] * (2 * grow))
            self._levels.extend([-1] * grow)
            self._reasons.extend([-1] * grow)
            self._saved_phase.extend([-1] * grow)
            self._seen.extend(bytes(grow))
            self._lbd_stamp.extend([0] * grow)
            self._lit_counts.extend([0] * (2 * grow))
            if self._kernel is None:
                watches = self._watches
                watches_bin = self._watches_bin
                watches_tern = self._watches_tern
                for _ in range(2 * grow):
                    watches.append([])
                    watches_bin.append([])
                    watches_tern.append([])
            else:
                # Preallocate trail slots to physical capacity (the
                # kernels append by subscript) and size the flat watch
                # columns; the legacy tuple tables stay empty.
                self._trail.extend([0] * grow)
                self._kernel.grow(2 * new_cap)
            self._var_capacity = new_cap
        self.num_vars = count

    def add_clause(self, literals: Sequence[int]) -> int:
        """Add an original clause (allowed between solves); returns its ID.

        Must not be called mid-search.  The solver backtracks to decision
        level 0 first, so pending assumptions from a previous call do not
        leak into the clause's status.
        """
        if self._solving:
            raise RuntimeError("add_clause may not be called during solve()")
        self._pristine = False
        self._backtrack(0)
        self._check_literals(literals)
        return self._install_clause(list(literals), initial=False)

    def _check_literals(self, literals: Sequence[int]) -> None:
        for lit in literals:
            if lit < 0:
                raise ValueError(f"bad packed literal {lit}")
            if (lit >> 1) >= self.num_vars:
                raise ValueError(
                    f"literal references variable {lit >> 1} >= num_vars "
                    f"{self.num_vars}; call new_var()/ensure_num_vars first"
                )

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> range:
        """Add many original clauses at once; returns their IDs.

        The result is the same as calling :meth:`add_clause` on each
        clause in order — same IDs, same installed state — but the
        batch is validated up front (nothing is installed when a literal
        is bad) and goes through the bulk install loop instead of one
        generic install per clause.  The incremental engines feed whole
        frames through this.
        """
        if self._solving:
            raise RuntimeError("add_clauses may not be called during solve()")
        batch = list(map(tuple, clauses))
        literals = list(chain.from_iterable(batch))
        if literals and (
            min(literals) < 0 or (max(literals) >> 1) >= self.num_vars
        ):
            for lits in batch:
                self._check_literals(lits)
        self._pristine = False
        self._backtrack(0)
        if self._akernel is not None:
            # The bulk loop grows the arena the fused native step may
            # hold views of (see _install_clause).
            self._akernel.invalidate_views()
        first = len(self._arena.refs)
        ids = range(first, first + len(batch))
        if self._cdg is not None:
            # Registered before installing: a root contradiction met in
            # the batch cites these clauses as CDG leaves.
            for cid in ids:
                self._cdg.register_original(cid)
        self._install_bulk(batch)
        return ids

    # ------------------------------------------------------------------
    # Learned-clause sharing (the portfolio subsystem's import/export
    # surface; see ``repro.sat.portfolio``).
    # ------------------------------------------------------------------

    def add_shared_clause(self, literals: Sequence[int]) -> int:
        """Import a clause learned by a peer solver; returns its ID.

        The clause must be a logical consequence of the (shared) input
        formula — which every learned clause of a peer solving the same
        formula is.  It is installed through the ordinary original-clause
        path: deduplicated, arena-allocated, registered as a CDG *leaf*
        (an imported clause has no local derivation, so proof replay
        treats it as an axiom — sound relative to the shared formula),
        and eligible to appear in unsat cores and as a conflict
        antecedent.  Unlike :meth:`add_clause`, imported literals do
        NOT feed the ``cha_score`` seeds or the dynamic strategy's
        switch threshold: those are statistics of the input formula,
        not of the peers' sharing volume.  Callable between solves only; mid-solve imports go
        through the :attr:`on_learned` hook, which the search loop
        invokes at restart points (decision level 0).
        """
        if self._solving:
            raise RuntimeError(
                "add_shared_clause may not be called during solve(); "
                "set on_learned for mid-solve imports"
            )
        self._pristine = False
        self._backtrack(0)
        self._check_literals(literals)
        cid = self._install_clause(
            list(literals), initial=False, count_literals=False
        )
        self._imported_ids.append(cid)
        self._pending_imported += 1
        return cid

    def _import_shared(self, clauses: Sequence[Sequence[int]]) -> None:
        """Mid-solve import path (decision level 0 only — the restart
        sharing point).  Installs each clause exactly like
        :meth:`add_shared_clause`; a clause falsified at the root marks
        the solver UNSAT (with its reason closure recorded as the final
        conflict) and the remainder of the batch is dropped."""
        count = 0
        for lits in clauses:
            count += 1
            self._imported_ids.append(
                self._install_clause(
                    list(lits), initial=False, count_literals=False
                )
            )
            if not self._ok:
                break
        self.stats.imported_clauses += count

    def drain_exported(self) -> List[Tuple[int, ...]]:
        """Return (and clear) the buffered exportable learned clauses.

        The buffer fills during search with learned clauses of at most
        ``config.export_learned_max_len`` literals; the deterministic
        portfolio mode drains it between epoch solves, the race mode
        drains it through the :attr:`on_learned` hook instead.
        """
        batch = self._export_buffer[:]
        del self._export_buffer[:]
        return batch

    @property
    def imported_ids(self) -> Tuple[int, ...]:
        """Clause IDs installed through the shared-clause import path."""
        return tuple(self._imported_ids)

    def _install_initial(self, stop: Optional[int] = None) -> None:
        """Bulk-install the constructor formula.

        Resumable: installation continues at clause ``len(arena.refs)``
        (a fork starts with its template's clauses already in place)
        and runs to ``stop`` (default: the end of the formula).
        """
        clauses = self._formula.clauses_between(len(self._arena.refs), stop)
        self._install_bulk(map(_LITERALS, clauses))

    def _install_bulk(self, clause_literals: Iterable[Tuple[int, ...]]) -> None:
        """Install original clauses (literal tuples) in order, under
        consecutive clause IDs from ``len(arena.refs)`` on.

        This is the hottest path of the *experiment* layer: every
        (strategy, depth) BMC run builds a fresh solver over the full
        depth-k CNF, so clause installation runs tens of thousands of
        times per Table-1 row.  Compared to the generic
        :meth:`_install_clause` it hoists every per-clause attribute
        access and specializes dedupe/tautology checks for the 2-3
        literal clauses Tseitin encodings consist of.  Clause literals
        go straight into the arena (one ``extend`` per clause); only
        clauses that meet pre-assigned variables take the slow
        classification path.
        """
        arena = self._arena
        adata = arena.data
        adata_append = adata.append
        adata_extend = adata.extend
        arefs = arena.refs
        arefs_append = arefs.append
        aflags_append = arena.flags.append
        activity_append = arena.activity.append
        view_append = self._lits_view.append
        original_append = self._original_ids.append
        original_add = self._original_id_set.add
        lit_counts = self._lit_counts
        truth = self.lit_truth
        watches_bin = self._watches_bin
        watches_tern = self._watches_tern
        watches = self._watches
        kernel = self._kernel
        kernel_attach = None if kernel is None else kernel.attach
        num_literals = 0
        next_cid = len(arefs)
        # This loop appends to the arena word store directly (no
        # per-clause ``arena.add`` call), so it must also enforce the
        # arena's word ceiling itself — a running count against the
        # hoisted limit keeps the guard O(1) per clause.
        word_limit = arena.word_limit
        words = len(adata)
        for lits in clause_literals:
            n = len(lits)
            taut = False
            if n == 2:
                a, b = lits
                if a == b:
                    lits = (a,)
                    n = 1
                else:
                    taut = a ^ 1 == b
            elif n == 3:
                a, b, c = lits
                if a == b or a == c or b == c:
                    lits = tuple(dict.fromkeys(lits))
                    n = len(lits)
                    taut = _is_tautology(lits)
                else:
                    taut = a ^ 1 == b or a ^ 1 == c or b ^ 1 == c
            elif n > 3:
                lits = tuple(dict.fromkeys(lits))
                n = len(lits)
                taut = _is_tautology(lits)
            words += HEADER_WORDS + n
            if words > word_limit:
                raise ClauseArenaFullError(arena.full_message(words))
            cid = next_cid
            next_cid += 1
            original_append(cid)
            original_add(cid)
            flags = INACTIVE if taut else 0
            adata_append(flags)
            adata_append(n)
            arefs_append(len(adata))
            adata_extend(lits)
            aflags_append(flags)
            activity_append(0.0)
            view_append(lits)
            if taut:
                continue
            for lit in lits:
                lit_counts[lit] += 1
            num_literals += n
            if not self._ok or n <= 1:
                if self._ok:
                    if n == 0:
                        self._mark_root_unsat([cid])
                    else:
                        self._load_unit(cid, lits[0])
                continue
            clean = True
            for lit in lits:
                if truth[lit] != 2:
                    clean = False
                    break
            if not clean:
                self._install_assigned(cid, list(lits))
                continue
            if kernel_attach is not None:
                kernel_attach(cid, lits)
            elif n == 2:
                a, b = lits
                watches_bin[a].append((cid, b, b ^ 1, b >> 1))
                watches_bin[b].append((cid, a, a ^ 1, a >> 1))
            elif n == 3:
                a, b, c = lits
                watches_tern[a].append((cid, b, c))
                watches_tern[b].append((cid, a, c))
                watches_tern[c].append((cid, a, b))
            else:
                watches[lits[0]].append((cid, lits[1]))
                watches[lits[1]].append((cid, lits[0]))
        self._num_original_literals += num_literals

    def _install_clause(
        self, lits: List[int], initial: bool, count_literals: bool = True
    ) -> int:
        akernel = self._akernel
        if akernel is not None:
            # The arena and watch pools may grow below; the fused
            # native step caches FFI views of them across calls
            # (mid-solve path: shared-clause import at level 0).
            akernel.invalidate_views()
        lits = list(dict.fromkeys(lits))  # dedupe, keep order
        taut = _is_tautology(lits)
        cid = self._arena.add(lits, INACTIVE if taut else 0)
        self._lits_view.append(tuple(lits))
        self._original_ids.append(cid)
        self._original_id_set.add(cid)
        if not initial and self._cdg is not None:
            self._cdg.register_original(cid)
        if taut:
            # Never attached, so its literals must not feed the initial
            # cha_score array or the dynamic strategy's 1/64 switch
            # threshold (paper §3.3): count only installed literals.
            return cid
        if count_literals:
            # Shared-clause imports pass False: the paper's cha_score
            # seeds and the 1/64 switch threshold are statistics of the
            # *input formula*, and letting peers' sharing volume inflate
            # them would change the decision heuristics' semantics.
            lit_counts = self._lit_counts
            for lit in lits:
                lit_counts[lit] += 1
            self._num_original_literals += len(lits)
        if not self._ok:
            return cid
        if not lits:
            self._mark_root_unsat([cid])
        elif len(lits) == 1:
            self._load_unit(cid, lits[0])
        else:
            # Fast path (the bulk of solver construction over a BMC
            # formula): a clause with no assigned literal needs none of
            # the level-0 unit/conflict handling — attach as-is.
            truth = self.lit_truth
            for lit in lits:
                if truth[lit] != 2:
                    self._install_assigned(cid, lits)
                    return cid
            self._attach_clause(cid, lits)
        return cid

    def _install_assigned(self, cid: int, lits: List[int]) -> None:
        """Install a clause some of whose literals are already assigned
        (level-0 facts): it may be satisfied, effectively unit, or
        falsified; one pass classifies it.  Long clauses get two
        non-false literals moved to the watch positions (the arena block
        is rewritten to the reordered form); a clause already
        *satisfied* at level 0 stays satisfied forever, so under
        ``config.prune_root_satisfied`` it is never attached at all
        (pruned at birth — recorded so introspection agrees with the
        restart-time sweep).  Installation always happens at decision
        level 0, so every assigned literal seen here is a root fact."""
        truth = self.lit_truth
        satisfied = False
        first_un = -1
        second_un = -1
        for lit in lits:
            value = truth[lit]
            if value == 2:
                if first_un < 0:
                    first_un = lit
                elif second_un < 0:
                    second_un = lit
            elif value == 1:
                satisfied = True
                break
        if satisfied:
            if self.config.prune_root_satisfied:
                self._root_pruned.add(cid)
                self._pending_root_pruned += 1
                return
        else:
            if first_un == -1:  # every literal false at level 0
                antecedents = [cid]
                self._reason_closure([lit >> 1 for lit in lits], antecedents)
                self._mark_root_unsat(antecedents)
                return
            if second_un == -1:  # effectively unit at level 0
                lits.remove(first_un)
                lits.insert(0, first_un)
                self._rewrite_block(cid, lits)
                self._enqueue(first_un, cid)
                self._pending_load_propagations += 1
            elif len(lits) > 3:
                lits.remove(first_un)
                lits.remove(second_un)
                lits[:0] = (first_un, second_un)
                self._rewrite_block(cid, lits)
        self._attach_clause(cid, lits)

    def _rewrite_block(self, cid: int, lits: Sequence[int]) -> None:
        """Write a reordered literal sequence back over the clause's
        arena block (same length — install-time watch positioning)."""
        data = self._arena.data
        base = self._arena.refs[cid]
        for i, lit in enumerate(lits):
            data[base + i] = lit

    def _attach_clause(self, cid: int, lits: Sequence[int]) -> None:
        if self._kernel is not None:
            self._kernel.attach(cid, lits)
            return
        if len(lits) == 2:
            a, b = lits
            self._watches_bin[a].append((cid, b, b ^ 1, b >> 1))
            self._watches_bin[b].append((cid, a, a ^ 1, a >> 1))
        elif len(lits) == 3:
            a, b, c = lits
            self._watches_tern[a].append((cid, b, c))
            self._watches_tern[b].append((cid, a, c))
            self._watches_tern[c].append((cid, a, b))
        else:
            a, b = lits[0], lits[1]
            self._watches[a].append((cid, b))
            self._watches[b].append((cid, a))

    def _load_unit(self, clause_id: int, lit: int) -> None:
        self._root_unit_of.setdefault(lit >> 1, (lit, clause_id))
        value = self.lit_truth[lit]
        if value == 1:
            return  # redundant duplicate unit
        if value == 0:
            antecedents = [clause_id]
            self._reason_closure([lit >> 1], antecedents)
            self._mark_root_unsat(antecedents)
            return
        self._enqueue(lit, clause_id)
        self._pending_load_propagations += 1

    def _mark_root_unsat(self, antecedents: Sequence[int]) -> None:
        self._ok = False
        self._root_conflict = list(antecedents)
        if self._cdg is not None:
            self._cdg.set_final_conflict(antecedents)

    # ------------------------------------------------------------------
    # Introspection used by decision strategies and the BMC layer.
    # ------------------------------------------------------------------

    @property
    def assigns(self) -> List[int]:
        """Per-variable assignment snapshot: -1 unassigned, else 0/1.

        Compatibility view over the per-literal truth table (the
        variable's value is its positive literal's truth).  Read-only:
        hot paths and strategies use :attr:`lit_truth` directly.
        """
        truth = self.lit_truth
        return [
            -1 if truth[var + var] == 2 else truth[var + var]
            for var in range(self.num_vars)
        ]

    def original_literal_counts(self) -> List[int]:
        """Literal occurrence counts over the original clauses — the
        initial ``cha_score`` values (paper §3.3)."""
        return self._lit_counts[: 2 * self.num_vars]

    def num_original_literals(self) -> int:
        """Total literal count of the original clauses (the base of the
        dynamic strategy's 1/64 switch threshold)."""
        return self._num_original_literals

    @property
    def cdg(self) -> Optional[ConflictDependencyGraph]:
        return self._cdg

    @property
    def decision_level(self) -> int:
        return self._decision_level

    def value_of(self, lit: int) -> int:
        """Current value of a literal: 1 true, 0 false, -1 unassigned.

        (Internally unassigned is stored as 2 — see ``lit_truth`` — and
        mapped to the conventional -1 at this public boundary.)
        """
        value = self.lit_truth[lit]
        return -1 if value == 2 else value

    def clause_literals(self, clause_id: int) -> Tuple[int, ...]:
        """Literals of any clause (original or learned, even deleted —
        unless arena compaction reclaimed the block, which only happens
        without CDG recording)."""
        return self._arena.literals(clause_id)

    def is_original_clause(self, clause_id: int) -> bool:
        """True if the clause ID denotes an original (non-learned) clause."""
        return clause_id in self._original_id_set

    def _looks_learned(self, clause_id: int) -> bool:
        # O(1) via the arena's learned flag; the ID spaces of original
        # and learned clauses interleave incrementally, so a plain range
        # check is not enough.
        return bool(self._arena.flags[clause_id] & LEARNED)

    def arena_footprint(self) -> dict:
        """Flat-store memory accounting (see ``ClauseArena.footprint``)."""
        return self._arena.footprint()

    # ------------------------------------------------------------------
    # Assignment trail.
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: int) -> None:
        truth = self.lit_truth
        truth[lit] = 1
        truth[lit ^ 1] = 0
        var = lit >> 1
        self._levels[var] = self._decision_level
        self._reasons[var] = reason
        if self._kernel is None:
            self._trail.append(lit)
        else:
            self._trail[self._trail_len] = lit
        self._trail_len += 1

    def _backtrack(self, level: int) -> None:
        if self._decision_level <= level:
            return
        limit = self._trail_lim[level]
        truth = self.lit_truth
        saved = self._saved_phase
        trail = self._trail
        undone = trail[limit:self._trail_len]
        for lit in undone:
            saved[lit >> 1] = 1 ^ (lit & 1)
            truth[lit] = 2
            truth[lit ^ 1] = 2
        # _levels/_reasons are deliberately left stale: every consumer
        # reads them only for *assigned* variables (conflict and reason
        # clauses contain assigned literals by construction; the
        # learned-DB lock test guards on lit_truth first), and both are
        # overwritten by the next assignment.  Level-0 entries are
        # never undone, so a stale level is always >= 1 and can never
        # masquerade as a root fact.
        if self._kernel is None:
            del trail[limit:]
        # Kernel mode: entries past _trail_len are dead capacity, the
        # next assignments overwrite them in place.
        self._trail_len = limit
        del self._trail_lim[level:]
        self._qhead = limit
        self._decision_level = level
        self.strategy.on_unassigned(undone)
        self.strategy.on_backtrack()
        profile = self._profile
        if profile is not None:
            # Heap reinserts: every unassigned variable is offered back
            # to the decision heap (pops are counted at decision sites).
            profile[PROF_HEAP] += len(undone)

    # ------------------------------------------------------------------
    # Boolean constraint propagation (two watched literals).
    # ------------------------------------------------------------------

    def _propagate(self) -> int:  # solcheck: hot
        """Exhaust the implication queue; returns a conflicting clause ID
        or -1.

        Hot-path invariants: every name used in the inner loop is a
        local (attribute lookups are hoisted once per call — the
        decision level is constant for the call's duration, and
        assignments are written inline rather than via
        :meth:`_enqueue`); every literal test is one ``lit_truth``
        subscript; each long-clause watch entry carries a *blocker*
        literal whose satisfaction skips the clause without touching
        the arena; propagation counts accumulate locally and are
        flushed to ``stats`` once on exit.

        Under a kernel backend (``config.bcp_backend != "legacy"``)
        the whole call is delegated across the seam — same contract,
        flat data plane (see ``repro.sat.kernel``).
        """
        kernel = self._kernel
        if kernel is not None:
            return kernel.propagate()
        truth = self.lit_truth
        adata = self._arena.data
        arefs = self._arena.refs
        watches = self._watches
        watches_bin = self._watches_bin
        watches_tern = self._watches_tern
        trail = self._trail
        trail_append = trail.append
        levels = self._levels
        reasons = self._reasons
        level = self._decision_level
        qhead = self._qhead
        props = 0
        trail_len = len(trail)
        # Access profiling (repro.sat.profile): raw aggregates in plain
        # locals, flushed at the exit sites below — never a buffer write
        # inside the loop.
        profile = self._profile
        qhead0 = qhead
        acc_bin = 0
        acc_tern = 0
        acc_long = 0
        acc_open = 0
        acc_arena = 0
        while qhead < trail_len:
            lit = trail[qhead]
            qhead += 1
            false_lit = lit ^ 1
            entries = watches_bin[false_lit]
            if entries:
                acc_bin += len(entries)
                for cid, implied, neg, var in entries:
                    value = truth[implied]
                    if value == 2:
                        props += 1
                        truth[implied] = 1
                        truth[neg] = 0
                        levels[var] = level
                        reasons[var] = cid
                        trail_append(implied)
                        trail_len += 1
                    elif value == 0:
                        self._qhead = qhead
                        self._trail_len = trail_len
                        self.stats.propagations += props
                        if profile is not None:
                            profile[PROF_BIN] += acc_bin
                            profile[PROF_TERN] += acc_tern
                            profile[PROF_LONG] += acc_long
                            profile[PROF_OPEN] += acc_open
                            profile[PROF_ARENA] += acc_arena
                            profile[PROF_PROPS] += props
                            profile[PROF_DEQ] += qhead - qhead0
                        return cid
            entries = watches_tern[false_lit]
            if entries:
                acc_tern += len(entries)
                for cid, lit_a, lit_b in entries:
                    value_a = truth[lit_a]
                    value_b = truth[lit_b]
                    if value_a and value_b:
                        # Neither companion is false (any mix of true
                        # and unassigned): nothing can happen here.
                        # The dominant case, and the 0/1/2 encoding
                        # makes it a single truthiness test.
                        continue
                    if value_a == 0:  # a is false
                        if value_b == 2:
                            props += 1
                            truth[lit_b] = 1
                            truth[lit_b ^ 1] = 0
                            var = lit_b >> 1
                            levels[var] = level
                            reasons[var] = cid
                            trail_append(lit_b)
                            trail_len += 1
                        elif value_b == 0:
                            self._qhead = qhead
                            self._trail_len = trail_len
                            self.stats.propagations += props
                            if profile is not None:
                                profile[PROF_BIN] += acc_bin
                                profile[PROF_TERN] += acc_tern
                                profile[PROF_LONG] += acc_long
                                profile[PROF_OPEN] += acc_open
                                profile[PROF_ARENA] += acc_arena
                                profile[PROF_PROPS] += props
                                profile[PROF_DEQ] += qhead - qhead0
                            return cid
                        # else: b is true — clause satisfied
                    elif value_a == 2:  # b is false, a unassigned
                        props += 1
                        truth[lit_a] = 1
                        truth[lit_a ^ 1] = 0
                        var = lit_a >> 1
                        levels[var] = level
                        reasons[var] = cid
                        trail_append(lit_a)
                        trail_len += 1
                    # else: a is true — clause satisfied
            watch_list = watches[false_lit]
            if not watch_list:
                continue
            n = len(watch_list)
            acc_long += n
            # Phase 1 — read-only: until a watch actually *moves* the
            # list needs no compaction, so kept entries cost no stores
            # (satisfied blockers, refreshed blockers and unit
            # propagations all update in place or not at all), and a
            # conflict returns with the list untouched.  Only the first
            # removal switches to the copying loop below, where j
            # trails i from the removed slot on.
            i = 0
            while i < n:
                entry = watch_list[i]
                if truth[entry[1]] == 1:
                    i += 1
                    continue
                cid = entry[0]
                acc_open += 1
                base = arefs[cid]
                first = adata[base]
                if first == false_lit:
                    first = adata[base + 1]
                    adata[base] = first
                    adata[base + 1] = false_lit
                first_truth = truth[first]
                if first_truth == 1:
                    watch_list[i] = (cid, first)
                    i += 1
                    continue
                end = base + adata[base - 1]
                acc_arena += end - base - 2
                for k in range(base + 2, end):
                    other = adata[k]
                    if truth[other] != 0:
                        adata[k] = adata[base + 1]
                        adata[base + 1] = other
                        watches[other].append((cid, first))
                        break
                else:
                    if first_truth == 2:
                        props += 1
                        truth[first] = 1
                        truth[first ^ 1] = 0
                        var = first >> 1
                        levels[var] = level
                        reasons[var] = cid
                        trail_append(first)
                        trail_len += 1
                        i += 1
                        continue
                    self._qhead = qhead
                    self._trail_len = trail_len
                    self.stats.propagations += props
                    if profile is not None:
                        profile[PROF_BIN] += acc_bin
                        profile[PROF_TERN] += acc_tern
                        profile[PROF_LONG] += acc_long
                        profile[PROF_OPEN] += acc_open
                        profile[PROF_ARENA] += acc_arena
                        profile[PROF_PROPS] += props
                        profile[PROF_DEQ] += qhead - qhead0
                    return cid
                # Watch moved: slot i is dropped — compact from here on.
                j = i
                i += 1
                while i < n:
                    entry = watch_list[i]
                    i += 1
                    if truth[entry[1]] == 1:
                        watch_list[j] = entry
                        j += 1
                        continue
                    cid = entry[0]
                    acc_open += 1
                    base = arefs[cid]
                    first = adata[base]
                    if first == false_lit:
                        first = adata[base + 1]
                        adata[base] = first
                        adata[base + 1] = false_lit
                    first_truth = truth[first]
                    if first_truth == 1:
                        watch_list[j] = (cid, first)
                        j += 1
                        continue
                    end = base + adata[base - 1]
                    acc_arena += end - base - 2
                    for k in range(base + 2, end):
                        other = adata[k]
                        if truth[other] != 0:
                            adata[k] = adata[base + 1]
                            adata[base + 1] = other
                            watches[other].append((cid, first))
                            break
                    else:
                        watch_list[j] = entry
                        j += 1
                        if first_truth == 2:
                            props += 1
                            truth[first] = 1
                            truth[first ^ 1] = 0
                            var = first >> 1
                            levels[var] = level
                            reasons[var] = cid
                            trail_append(first)
                            trail_len += 1
                        else:
                            # Conflict: keep the untouched tail.
                            while i < n:
                                watch_list[j] = watch_list[i]
                                j += 1
                                i += 1
                            del watch_list[j:]
                            self._qhead = qhead
                            self._trail_len = trail_len
                            self.stats.propagations += props
                            if profile is not None:
                                profile[PROF_BIN] += acc_bin
                                profile[PROF_TERN] += acc_tern
                                profile[PROF_LONG] += acc_long
                                profile[PROF_OPEN] += acc_open
                                profile[PROF_ARENA] += acc_arena
                                profile[PROF_PROPS] += props
                                profile[PROF_DEQ] += qhead - qhead0
                            return cid
                del watch_list[j:]
                break
        self._qhead = qhead
        self._trail_len = trail_len
        self.stats.propagations += props
        if profile is not None:
            profile[PROF_BIN] += acc_bin
            profile[PROF_TERN] += acc_tern
            profile[PROF_LONG] += acc_long
            profile[PROF_OPEN] += acc_open
            profile[PROF_ARENA] += acc_arena
            profile[PROF_PROPS] += props
            profile[PROF_DEQ] += qhead - qhead0
        return -1

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP) with complete antecedent recording.
    # ------------------------------------------------------------------

    def _reason_closure(self, start_vars: Sequence[int], antecedents: List[int]) -> None:
        """Append the reason chains of level-0 variables to ``antecedents``.

        Level-0 literals are dropped from learned clauses, so a complete
        resolution derivation must also cite the clauses that forced them.

        A level-0 variable may legitimately carry no trail reason
        (``reason == -1``): front ends that install root-level unit
        clauses incrementally can discharge or never record the
        implication (the incremental BMC engines re-feed facts between
        ``solve()`` calls).  Such variables resolve against their
        defining original unit clause instead of crashing; only a
        variable with neither a reason nor a consistent defining unit is
        a genuine internal error.
        """
        view = self._lits_view
        visited: Set[int] = set()
        stack = list(start_vars)
        while stack:
            var = stack.pop()
            if var in visited:
                continue
            visited.add(var)
            reason = self._reasons[var]
            if reason == -1:
                reason = self._defining_unit(var)
                if reason == -1:
                    raise AssertionError(
                        f"level-0 variable {var} has no reason clause "
                        f"and no defining unit"
                    )
                antecedents.append(reason)
                continue  # a unit clause closes the chain for this var
            antecedents.append(reason)
            for lit in view[reason]:
                other = lit >> 1
                if other != var:
                    stack.append(other)

    def _defining_unit(self, var: int) -> int:
        """Clause ID of an original unit clause matching ``var``'s current
        assignment, or -1."""
        entry = self._root_unit_of.get(var)
        if entry is not None and self.lit_truth[entry[0]] == 1:
            return entry[1]
        return -1

    def _analyze(self, conflict_cid: int) -> AnalysisResult:  # solcheck: hot
        """First-UIP analysis with learned-clause minimization.

        The legacy analysis backend: the resolution main loop inline
        (``analyze_backend="python"``/``"native"`` route the same loop
        through the kernel seam instead — see :meth:`_analyze_kernel`),
        then the shared Python tail (:meth:`_finish_analysis`).  The
        returned :class:`AnalysisResult` carries the asserting literal
        at ``learned[0]`` and (when the clause is not unit) a literal
        of the backjump level at position 1.

        Hot-path invariants: the only marker structure is the persistent
        ``_seen`` bytearray; level-0 variables and marked variables are
        recorded in the reusable ``_zero_scratch`` / ``_touched_scratch``
        lists, so a conflict allocates no sets.  Clause literals are
        read as one arena slice per visited clause; the learned-clause
        test is one flag-byte read.  Clause-activity bumps are inlined
        (the rescale path is the out-of-line rarity).

        After the first-UIP clause is formed, redundant literals are
        removed by self-subsumption over reason chains (see
        :meth:`_minimize_learned`); every reason clause consumed by a
        removal proof is appended to ``antecedents`` so the CDG entry
        remains a complete resolution derivation that
        ``repro.sat.proof`` can replay.
        """
        seen = self._seen
        levels = self._levels
        reasons = self._reasons
        view = self._lits_view
        aflags = self._arena.flags
        trail = self._trail
        activity = self._activity
        inc = self._activity_inc
        current = self._decision_level
        learned: List[int] = [0]
        antecedents: List[int] = [conflict_cid]
        zero = self._zero_scratch
        touched = self._touched_scratch
        touched_append = touched.append
        learned_append = learned.append
        counter = 0
        p = -1
        cid = conflict_cid
        idx = self._trail_len - 1
        rescale_limit = ACTIVITY_RESCALE_LIMIT
        profile = self._profile
        idx0 = idx
        acc_words = 0

        while True:
            if cid != conflict_cid and aflags[cid] & 1:  # LEARNED
                bumped = activity[cid] + inc
                activity[cid] = bumped
                if bumped > rescale_limit:
                    # solcheck: ignore[HOT02] rescale fires ~once per 1e20
                    # activity bumps; hoisting would cost every iteration
                    self._rescale_clause_activity()
                    # solcheck: ignore[HOT02] must re-read: the rescale
                    # just rewrote _activity_inc under our feet
                    inc = self._activity_inc
            lits = view[cid]
            acc_words += len(lits)
            for q in lits:
                if q == p:
                    continue
                var = q >> 1
                if seen[var]:
                    continue
                level = levels[var]
                if level == 0:
                    seen[var] = 1
                    touched_append(var)
                    zero.append(var)
                    continue
                seen[var] = 1
                touched_append(var)
                if level >= current:
                    counter += 1
                else:
                    learned_append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            cid = reasons[p >> 1]
            antecedents.append(cid)

        learned[0] = p ^ 1
        if profile is not None:
            profile[PROF_AWORDS] += acc_words
            profile[PROF_ATRAIL] += idx0 - idx
        return self._finish_analysis(learned, antecedents)

    def _analyze_kernel(self, conflict_cid: int) -> AnalysisResult:
        """Analysis via the kernel seam (``analyze_backend`` not
        ``"legacy"``): the kernel runs the resolution main loop, the
        solver replays the clause-activity bumps its legacy twin
        inlines (from the antecedent order, before minimization can
        extend the list) and runs the shared tail."""
        learned, antecedents = self._akernel.analyze(conflict_cid)
        self._replay_clause_bumps(antecedents)
        return self._finish_analysis(learned, antecedents)

    def _replay_clause_bumps(self, antecedents: List[int]) -> None:
        """Replay the bumps ``_analyze`` inlines, float-identically.

        Legacy bumps each learned clause visited by the resolution main
        loop, in visit order — which is exactly ``antecedents[1:]`` as
        a kernel hands it back (``antecedents[0]``, the conflict
        clause, is falsified and can never be a reason, so the legacy
        ``cid != conflict_cid`` guard never bumped it).  Must run
        before :meth:`_finish_analysis`: minimization and the level-0
        closure append further antecedents legacy does not bump.
        """
        aflags = self._arena.flags
        activity = self._activity
        inc = self._activity_inc
        rescale_limit = ACTIVITY_RESCALE_LIMIT
        for i in range(1, len(antecedents)):
            cid = antecedents[i]
            if aflags[cid] & 1:  # LEARNED
                bumped = activity[cid] + inc
                activity[cid] = bumped
                if bumped > rescale_limit:
                    self._rescale_clause_activity()
                    inc = self._activity_inc

    def _finish_analysis(
        self, learned: List[int], antecedents: List[int]
    ) -> AnalysisResult:
        """The analysis tail every backend funnels through: learned-
        clause minimization, LBD, the level-0 reason closure, seen-mark
        clearing and the backjump-literal swap.  Expects the seam state
        the main loop leaves behind — asserting literal at
        ``learned[0]``, seen marks set, touched/zero scratch filled."""
        levels = self._levels
        seen = self._seen
        zero = self._zero_scratch
        touched = self._touched_scratch
        stats = self.stats
        stats.learned_literals_before_min += len(learned)
        mode = self.config.minimize_learned
        if mode != "off" and len(learned) > 2:
            self._minimize_learned(learned, antecedents, mode == "recursive")
        stats.learned_literals += len(learned)

        # LBD of the final (minimized) clause: distinct decision levels
        # among its literals, counted with the generation-stamped array
        # (no set, no clearing).  Identical across backends because the
        # clause itself is.
        gen = self._lbd_gen + 1
        self._lbd_gen = gen
        stamp = self._lbd_stamp
        lbd = 0
        for q in learned:
            level = levels[q >> 1]
            if stamp[level] != gen:
                stamp[level] = gen
                lbd += 1
        stats.learned_lbd_sum += lbd

        # While the seen marks are still set, close over the level-0
        # chains (minimization may have added zero-level variables).
        if zero:
            self._reason_closure(zero, antecedents)
        for var in touched:
            seen[var] = 0
        del touched[:]
        del zero[:]

        if len(learned) > 1:
            max_i = 1
            max_level = levels[learned[1] >> 1]
            for i in range(2, len(learned)):
                level = levels[learned[i] >> 1]
                if level > max_level:
                    max_level = level
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            btlevel = max_level
        else:
            btlevel = 0
        return AnalysisResult(learned, btlevel, lbd, antecedents)

    def _minimize_learned(
        self, learned: List[int], antecedents: List[int], recursive: bool
    ) -> None:
        """Self-subsumption minimization of a freshly learned clause.

        A non-asserting literal ``q`` is *redundant* when its reason
        clause resolves away against the rest of the learned clause:
        every other literal of ``reason(var(q))`` is a level-0 fact, an
        already-marked variable, or (in recursive mode) transitively
        redundant itself.  Removing redundant literals shortens the
        clause — cutting downstream BCP work — without weakening it.

        Soundness bookkeeping: each reason clause consumed by a
        successful redundancy proof is appended to ``antecedents`` (the
        implication graph is acyclic in trail order, so reverse unit
        propagation over the extended antecedent list still derives the
        minimized clause), and level-0 variables met along the way join
        the zero-scratch list for the usual reason-chain closure.
        """
        levels = self._levels
        reasons = self._reasons
        seen = self._seen
        view = self._lits_view
        budget = self.config.minimize_budget
        mask = 0
        for i in range(1, len(learned)):
            mask |= 1 << (levels[learned[i] >> 1] & 31)
        j = 1
        for i in range(1, len(learned)):
            q = learned[i]
            var = q >> 1
            reason = reasons[var]
            if reason == -1:
                learned[j] = q
                j += 1
                continue
            # Inline fast path: one resolution step.  Most candidates
            # are decided here; only reasons that meet unseen variables
            # fall through to the recursive DFS.  Seen codes: 1 = in the
            # clause or proven covered, 3 = proven (or assumed, after a
            # budget abort) non-redundant — both memoized per conflict.
            verdict = 1  # 1 redundant, 0 not, -1 needs recursion
            for r in view[reason]:
                u = r >> 1
                if u == var:
                    continue
                s = seen[u]
                if s == 1:
                    continue
                if s == 3:
                    verdict = 0
                    break
                lu = levels[u]
                if lu == 0:
                    seen[u] = 1
                    self._touched_scratch.append(u)
                    self._zero_scratch.append(u)
                    continue
                if (
                    not recursive
                    or reasons[u] == -1
                    or not (mask >> (lu & 31)) & 1
                ):
                    # A decision variable or a level outside the clause
                    # can never be resolved away; memoize the failure so
                    # later candidates skip it in one lookup.
                    seen[u] = 3
                    self._touched_scratch.append(u)
                    verdict = 0
                    break
                verdict = -1
                break
            if verdict == 1:
                antecedents.append(reason)
                continue
            if verdict == -1 and self._lit_redundant(
                var, mask, antecedents, budget
            ):
                continue
            learned[j] = q
            j += 1
        removed = len(learned) - j
        if removed:
            del learned[j:]
            self.stats.minimized_literals += removed

    def _lit_redundant(
        self, var0: int, mask: int, antecedents: List[int], budget: int
    ) -> bool:
        """True if ``var0``'s literal is redundant in the current learned
        clause; on success the consumed reason clauses join ``antecedents``.

        ``mask`` is the abstraction of decision levels present in the
        clause (MiniSat's ``abstract_levels``): a reason touching a level
        outside it can never be covered, which prunes most failures in
        one bit test.  Proofs that would explore more than
        ``config.minimize_budget`` variables are abandoned (literal
        kept) — soundness never depends on a proof being found.
        """
        seen = self._seen
        levels = self._levels
        reasons = self._reasons
        view = self._lits_view
        touched = self._touched_scratch
        zero = self._zero_scratch
        stack = self._min_stack
        del stack[:]
        stack.append(var0)
        top = len(touched)
        while stack:
            v = stack.pop()
            for q in view[reasons[v]]:
                u = q >> 1
                if u == v:
                    continue
                lu = levels[u]
                if lu == 0:
                    if not seen[u]:
                        seen[u] = 1
                        touched.append(u)
                        zero.append(u)
                    continue
                s = seen[u]
                if s == 1:
                    continue
                failed = s == 3
                if not failed:
                    budget -= 1
                    failed = (
                        budget < 0
                        or reasons[u] == -1
                        or not (mask >> (lu & 31)) & 1
                    )
                if failed:
                    # Memoize the failure: every level>0 variable this
                    # proof explored is re-marked "non-redundant", so
                    # later candidates fail on it in one lookup rather
                    # than re-running the DFS.  (Level-0 marks stay:
                    # their chains are harmless extra antecedents and
                    # keep the zero list in sync.)
                    for k in range(top, len(touched)):
                        w = touched[k]
                        if levels[w] != 0:
                            seen[w] = 3
                    return False
                seen[u] = 1
                touched.append(u)
                stack.append(u)
        antecedents.append(reasons[var0])
        for k in range(top, len(touched)):
            w = touched[k]
            if levels[w] != 0:
                antecedents.append(reasons[w])
        return True

    def _active_original(self, cid: int) -> bool:
        # The set agrees with the CDG's is_original (both track initial
        # plus incrementally added clauses) and is O(1) either way.
        return cid in self._original_id_set

    def _bump_clause_activity(self, cid: int) -> None:
        # Out-of-line form of the bump inlined in _analyze (same
        # threshold constant); kept as the maintained utility entry
        # point for tests and future non-hot-path callers.
        self._activity[cid] += self._activity_inc
        if self._activity[cid] > ACTIVITY_RESCALE_LIMIT:
            self._rescale_clause_activity()

    def _rescale_clause_activity(self) -> None:
        """Rescale on overflow — learned-clause activities only.

        Original clauses never accumulate activity (bumps are gated on
        the learned side), so scaling them is at best wasted work over
        the whole clause DB and would corrupt any externally assigned
        original-clause activity.  Relative ordering among learned
        clauses is preserved exactly (one common factor).
        """
        scale = 1e-20
        activity = self._activity
        for cid in self._learned_ids:
            activity[cid] *= scale
        self._activity_inc *= scale

    def _add_learned(self, learned: List[int], antecedents: List[int]) -> int:
        akernel = self._akernel
        if akernel is not None:
            # The arena append always resizes arrays the fused native
            # step holds cached FFI views of; watch-pool growth during
            # the attach (rare) invalidates itself via the columns'
            # on_resize hook.
            akernel.invalidate_arena_views()
        cid = self._arena.add(learned, LEARNED, self._activity_inc)
        self._lits_view.append(tuple(learned))
        self._learned_ids.append(cid)
        self._num_live_learned += 1
        self.stats.learned_clauses += 1
        if self._cdg is not None:
            self._cdg.add(cid, antecedents)
            self.stats.cdg_entries += 1
        if len(learned) >= 2:
            self._attach_clause(cid, learned)
        return cid

    # ------------------------------------------------------------------
    # Learned-clause deletion (the feature the simplified CDG protects).
    # ------------------------------------------------------------------

    def _reduce_learned_db(self) -> None:
        adata = self._arena.data
        arefs = self._arena.refs
        aflags = self._arena.flags
        reasons = self._reasons
        truth = self.lit_truth
        activity = self._activity
        candidates = []
        # _learned_ids is ascending and learned clauses are never
        # tautological, so this visits exactly the live learned clauses
        # in clause-ID order (the order the old full-range scan had).
        # The lock test ("currently the reason of an assignment") guards
        # on the implied literal being true before trusting _reasons —
        # backtracking leaves _reasons stale for unassigned variables.
        for cid in self._learned_ids:
            if aflags[cid] & TOMBSTONE:
                continue
            base = arefs[cid]
            n = adata[base - 1]
            if n <= 2:
                continue  # keep short clauses, they are cheap and strong
            if n == 3:
                # Ternary watches never reorder literals, so the implied
                # literal of a reason clause may sit at any position.
                a = adata[base]
                b = adata[base + 1]
                c = adata[base + 2]
                if (
                    (truth[a] == 1 and reasons[a >> 1] == cid)
                    or (truth[b] == 1 and reasons[b >> 1] == cid)
                    or (truth[c] == 1 and reasons[c >> 1] == cid)
                ):
                    continue  # locked
            else:
                first = adata[base]
                if truth[first] == 1 and reasons[first >> 1] == cid:
                    continue  # locked
            candidates.append(cid)
        if not candidates:
            return
        candidates.sort(key=lambda cid: (activity[cid], -cid))
        root_pruned = self._root_pruned
        arena = self._arena
        view = self._lits_view
        akernel = self._akernel
        if akernel is not None:
            # Arena compaction below resizes the word store the fused
            # native step holds cached FFI views of.
            akernel.invalidate_views()
        for cid in candidates[: len(candidates) // 2]:
            if cid not in root_pruned:  # pruned clauses are already detached
                self._detach_clause(cid)
            arena.tombstone(cid)
            view[cid] = ()  # free the analysis view; reasons stay live
            if akernel is not None:
                akernel.free_clause(cid)  # and its install-order mirror block
            self._num_live_learned -= 1
            self.stats.deleted_clauses += 1
        self._maybe_compact_arena()

    def _maybe_compact_arena(self) -> None:
        """Reclaim tombstoned literal blocks in place, when allowed.

        With a CDG the literals of deleted learned clauses are pinned —
        ``export_proof`` and ``clause_literals`` promise access to them
        — so tombstones accumulate but blocks stay.  Without a CDG
        (the bounded/benchmark configurations) the blocks are dead the
        moment they are detached: compaction slides live blocks left
        once the dead fraction reaches half the arena, which amortizes
        to O(1) work per reclaimed word.  Clause IDs — the only handle
        watch entries and stats hold — are stable across compaction.
        """
        arena = self._arena
        if (
            self._cdg is None
            and arena.dead_words >= _COMPACT_MIN_DEAD_WORDS
            and 2 * arena.dead_words >= len(arena.data)
        ):
            self.stats.arena_reclaimed_words += arena.compact()
            self.stats.arena_compactions += 1

    def _prune_root_satisfied(self) -> None:
        """Detach every clause a level-0 assignment satisfies (paper-side
        motivation: root-satisfied clauses still get scanned by BCP on
        every watch hit, and on conflict-bound workloads learned units
        keep growing the root-satisfied population).

        Called after each restart.  Level-0 assignments are never undone
        for the lifetime of the solver — assumptions live at levels
        >= 1 — so a clause
        satisfied at level 0 can never become unit or conflicting again
        and its watch entries are dead weight.  Only the watch entries
        go: literal blocks, activity, CDG entries and proof export stay,
        which keeps core extraction, ``_reason_closure`` and replay
        byte-identical with pruning on or off.

        Cost: one pass over the arena plus one in-place compaction pass
        over the watch tables, gated by a trail watermark so restarts
        without new root facts pay one comparison.  The sweep only runs
        once a batch of at least ``_PRUNE_MIN_NEW_FACTS`` new root facts
        has accumulated: a lone learned unit rarely satisfies enough
        clauses to repay two full passes (facts below the threshold are
        not lost — they stay below the watermark and count toward the
        next batch).
        """
        limit = self._trail_lim[0] if self._trail_lim else self._trail_len
        if limit - self._root_prune_watermark < _PRUNE_MIN_NEW_FACTS:
            return
        self._root_prune_watermark = limit
        truth = self.lit_truth
        levels = self._levels
        adata = self._arena.data
        arefs = self._arena.refs
        aflags = self._arena.flags
        pruned = self._root_pruned
        dead = TOMBSTONE | INACTIVE
        newly = []
        for cid in range(len(arefs)):
            if aflags[cid] & dead or cid in pruned:
                continue
            base = arefs[cid]
            n = adata[base - 1]
            if n < 2:
                continue
            for lit in adata[base:base + n]:
                if truth[lit] == 1 and levels[lit >> 1] == 0:
                    newly.append(cid)
                    break
        if not newly:
            return
        pruned.update(newly)
        self.stats.root_pruned_clauses += len(newly)
        self._compact_watches(pruned)

    def _compact_watches(self, dropped: Set[int]) -> None:
        """Remove every watch entry whose clause ID is in ``dropped``,
        compacting each list in place (surviving order preserved — the
        propagation order of the remaining entries is untouched)."""
        if self._kernel is not None:
            self._kernel.drop_clauses(dropped)
            return
        for table in (self._watches, self._watches_bin, self._watches_tern):
            for watch_list in table:
                if watch_list:
                    n = len(watch_list)
                    j = 0
                    for i in range(n):
                        entry = watch_list[i]
                        if entry[0] not in dropped:
                            watch_list[j] = entry
                            j += 1
                    if j != n:
                        del watch_list[j:]

    @property
    def root_pruned_clauses(self) -> int:
        """Total clauses detached as root-satisfied over the solver's
        lifetime (install-time skips included)."""
        return len(self._root_pruned)

    def _detach_clause(self, cid: int) -> None:
        if self._kernel is not None:
            self._kernel.detach(cid)
            return
        adata = self._arena.data
        base = self._arena.refs[cid]
        n = adata[base - 1]
        if n == 2:
            table = self._watches_bin
            watched = (adata[base], adata[base + 1])
        elif n == 3:
            table = self._watches_tern
            watched = (adata[base], adata[base + 1], adata[base + 2])
        else:
            table = self._watches
            watched = (adata[base], adata[base + 1])
        for lit in watched:
            watch_list = table[lit]
            for i, entry in enumerate(watch_list):
                if entry[0] == cid:
                    watch_list[i] = watch_list[-1]
                    watch_list.pop()
                    break

    # ------------------------------------------------------------------
    # Main search loop (the paper's Fig. 1, plus restarts and deletion).
    # ------------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        strategy: Optional[DecisionStrategy] = None,
    ) -> SolveOutcome:
        """Run the CDCL search to completion (or budget exhaustion).

        ``assumptions`` are literals forced as the first decisions; an
        UNSAT answer then means "unsatisfiable under these assumptions"
        and ``failed_assumptions`` lists the subset actually used.
        Repeated calls are allowed; clauses and learning persist.
        """
        if self._solving:
            raise RuntimeError("re-entrant solve() call")
        for lit in assumptions:
            if lit < 0 or (lit >> 1) >= self.num_vars:
                raise ValueError(f"bad assumption literal {lit}")
        if strategy is not None:
            self.strategy = strategy
        self._pristine = False
        self._solving = True
        self._assumptions = list(assumptions)
        self.failed_assumptions = None
        self.stats = SolverStats()
        # Stats reset ⇒ the counter deltas already published into
        # config.metrics restart from zero too.
        self._published_stats.clear()
        self.stats.propagations += self._pending_load_propagations
        self._pending_load_propagations = 0
        self.stats.root_pruned_clauses += self._pending_root_pruned
        self._pending_root_pruned = 0
        self.stats.imported_clauses += self._pending_imported
        self._pending_imported = 0
        trace = self._open_trace()
        sidecar = self._open_access_stream()
        start = time.perf_counter()
        try:
            self._backtrack(0)
            self._access_stream = sidecar
            if trace is not None:
                # Mark 0: the first flush re-emits the root trail
                # (install-time units and their implications), so the
                # trace is self-contained — TraceState rebuilds the
                # full final trail from events alone.
                self._trace = trace
                self._trace_mark = 0
            outcome = self._search()
            if trace is not None:
                self._trace_flush()
                trace.end(_TRACE_STATUS[outcome.status])
        finally:
            self._solving = False
            # Break solver -> strategy -> solver so this solver can be
            # freed by reference counting once its owner lets go.
            self.strategy.detach()
            if self._akernel is not None:
                # Release cached fused-step views so between-solve
                # mutations (ensure_num_vars, add_clause) never hit a
                # pinned buffer.
                self._akernel.invalidate_views()
            if trace is not None:
                self._trace = None
                trace.close()
            if sidecar is not None:
                self._access_stream = None
                sidecar.close()
        self.stats.solve_time = time.perf_counter() - start
        if self.config.metrics is not None:
            self._publish_metrics()
        outcome.stats = self.stats
        return outcome

    def _open_trace(self):
        """Build this solve() call's trace sink, or None when tracing
        is disabled (the common case: the config holds two Nones)."""
        config = self.config
        if config.trace_path is None and config.trace_events is None:
            return None
        sinks = []
        if config.trace_path is not None:
            sinks.append(TraceWriter(config.trace_path, self.num_vars))
        if config.trace_events is not None:
            sinks.append(TraceRecorder(config.trace_events, self.num_vars))
        if len(sinks) == 1:
            return sinks[0]
        return TraceTee(sinks)

    # Called once per search-level event site of a traced solve; the
    # heavy per-literal loop lives in TraceWriter.enqueue_run.
    # solcheck: hot
    def _trace_flush(self) -> None:
        mark = self._trace_mark
        n = self._trail_len
        if n > mark:
            self._trace.enqueue_run(self._trail, mark, n)
            self._trace_mark = n

    # ------------------------------------------------------------------
    # Observability plane: access profiling, metrics, live progress.
    # ------------------------------------------------------------------

    def _open_access_stream(self) -> Optional[AccessStreamWriter]:
        """This solve() call's ``.racc`` sidecar writer, or None (the
        common case — one config read)."""
        config = self.config
        if config.access_stream_path is None:
            return None
        return AccessStreamWriter(
            config.access_stream_path, config.access_sample_every
        )

    def _record_access_sample(
        self, sidecar: AccessStreamWriter, antecedents: List[int]
    ) -> None:
        """One sampled conflict's event block: the clause IDs analysis
        resolved over, their arena block offsets, and the trail depth.
        Runs at search level, conflict-granular — never per access."""
        arefs = self._arena.refs
        sidecar.record_block(SID_CLAUSE, antecedents)
        sidecar.record_block(
            SID_ARENA, [arefs[cid] for cid in antecedents]
        )
        sidecar.record(SID_TRAIL, self._trail_len)

    def access_profile(self) -> Optional[Dict[str, object]]:
        """The per-structure access profile accumulated so far (raw
        slots by name plus derived structure totals), or None when
        ``config.profile_access`` is off.  Cumulative across solve()
        calls — callers wanting per-solve numbers difference two reads.
        """
        if self._profile is None:
            return None
        return profile_as_dict(self._profile)

    def progress_snapshot(self) -> Dict[str, int]:
        """The live-progress payload: counters and depths only — no
        clock read, nothing a hook could perturb the search with."""
        stats = self.stats
        return {
            "conflicts": stats.conflicts,
            "decisions": stats.decisions,
            "propagations": stats.propagations,
            "restarts": stats.restarts,
            "learned": self._num_live_learned,
            "trail": self._trail_len,
            "level": self._decision_level,
            "vars": self.num_vars,
        }

    def _publish_metrics(self) -> None:
        """Publish into ``config.metrics``: counter deltas for every
        :class:`SolverStats` field, state gauges, and (when profiling)
        per-structure access counters.  Called at epoch boundaries only
        — restart points and solve() exit — and reads no clock (rates
        are a snapshot-time concern; see ``repro.metrics``)."""
        registry = self.config.metrics
        if registry is None:
            return
        labels = self.config.metrics_labels
        published = self._published_stats
        for name, value in self.stats.as_dict().items():
            prev = published.get(name, 0.0)
            if value != prev:
                registry.counter(
                    f"solver_{name}_total",
                    help=f"Cumulative solver {name} across solves.",
                    labels=labels,
                ).inc(value - prev)
                published[name] = float(value)
        arena = self._arena
        words = len(arena.data)
        registry.gauge(
            "solver_vars", help="Variables in the solver.", labels=labels
        ).set(self.num_vars)
        registry.gauge(
            "solver_learned_live",
            help="Live learned clauses in the database.",
            labels=labels,
        ).set(self._num_live_learned)
        registry.gauge(
            "solver_trail_depth",
            help="Assigned literals on the trail.",
            labels=labels,
        ).set(self._trail_len)
        registry.gauge(
            "solver_arena_words",
            help="Clause-arena footprint in literal words.",
            labels=labels,
        ).set(words)
        registry.gauge(
            "solver_arena_tombstone_ratio",
            help="Fraction of arena words held by deleted clauses.",
            labels=labels,
        ).set(arena.dead_words / words if words else 0.0)
        heap = getattr(self.strategy, "_heap", None)
        if heap is not None:
            registry.gauge(
                "solver_heap_size",
                help="Variables in the decision activity heap.",
                labels=labels,
            ).set(len(heap))
        profile = self._profile
        if profile is not None:
            prev_raw = self._published_profile
            raw_delta = [profile[i] - prev_raw[i] for i in range(NPROF)]
            for structure, count in structure_counts(raw_delta).items():
                if count:
                    access_labels = dict(labels) if labels else {}
                    access_labels["structure"] = structure
                    registry.counter(
                        "solver_access_total",
                        help="Per-structure memory accesses "
                        "(repro.sat.profile).",
                        labels=access_labels,
                    ).inc(count)
            self._published_profile = list(profile)

    def _search(self) -> SolveOutcome:
        if not self._ok:
            return self._unsat_outcome()
        config = self.config
        self.strategy.attach(self)
        restart_epoch = 1
        conflicts_in_epoch = 0
        epoch_limit = config.restart_base * luby(restart_epoch)
        # The reduction ceiling never shrinks across solve() calls on
        # one solver: a single-solve run is byte-identical to before
        # (the floor is the old per-call value), while re-entrant
        # solves keep the ceiling their reductions grew.
        max_learned = max(
            self._max_learned or 0,
            config.reduce_base + len(self._original_ids) // 3,
        )
        self._max_learned = max_learned
        # Per-conflict hoists (the conflict path runs thousands of times
        # per second; budget fields are read-only during a solve).
        activity_decay = config.clause_activity_decay
        max_conflicts = config.max_conflicts
        max_propagations = config.max_propagations
        prune_enabled = config.prune_root_satisfied
        export_cap = config.export_learned_max_len
        export_buffer = self._export_buffer
        on_learned = self.on_learned
        save_phase = config.phase_mode == "save"
        invert_phase = config.phase_mode == "inverted"
        saved_phase = self._saved_phase
        truth = self.lit_truth
        stats = self.stats
        num_vars = self.num_vars
        num_assumptions = len(self._assumptions)
        decide = self.strategy.decide
        on_conflict = self.strategy.on_conflict
        # Observability hoists: all default-off, each costing one `is
        # not None` (or bool) test per conflict/decision when detached.
        # Like the trace, every capture site lives at search level —
        # the hot loops below the seam stay untouched.
        profile = self._profile
        sidecar = self._access_stream
        sample_every = config.access_sample_every
        on_progress = config.on_progress
        progress_every = config.progress_every
        metrics_on = config.metrics is not None
        # Trace sink (None when disabled — every event site below is
        # then a single `is not None` test).  Event capture lives here
        # at search level, never inside _propagate: the native kernel
        # runs the BCP loop opaquely in C, and search-level state is
        # what PR 7 pinned byte-identical across backends.
        trace = self._trace
        # Conflict-analysis dispatch: the fused native step (propagate
        # and analyze in one FFI crossing), the kernel seam, or the
        # legacy inline loop.  All three produce identical
        # AnalysisResults — the fuzzer and the Table-1 pin hold the
        # grid byte-identical.
        akernel = self._akernel
        fused_step = akernel.search_step if self._fused else None

        while True:
            if fused_step is not None:
                conflict, analysis = fused_step(num_assumptions)
            else:
                conflict = self._propagate()
                analysis = None
            if conflict != -1:
                stats.conflicts += 1
                conflicts_in_epoch += 1
                if trace is not None:
                    self._trace_flush()
                    trace.conflict(self._decision_level)
                if self._decision_level == 0:
                    self._record_final_conflict(conflict)
                    self._ok = False
                    return self._unsat_outcome()
                if self._decision_level <= num_assumptions:
                    # The conflict is entirely above assumption decisions:
                    # UNSAT under the current assumptions.
                    return self._assumption_conflict_outcome(conflict)
                if analysis is not None:
                    # Fused path: the C walk already ran; replay the
                    # bumps and run the shared Python tail.
                    self._replay_clause_bumps(analysis[1])
                    learned, btlevel, _, antecedents = self._finish_analysis(
                        analysis[0], analysis[1]
                    )
                elif akernel is not None:
                    learned, btlevel, _, antecedents = self._analyze_kernel(
                        conflict
                    )
                else:
                    learned, btlevel, _, antecedents = self._analyze(conflict)
                self._activity_inc /= activity_decay
                # Backjumping below the assumption prefix is fine: the
                # decision loop re-establishes assumptions level by level.
                self._backtrack(btlevel)
                if trace is not None:
                    trace.learn(len(learned))
                    trace.backtrack(btlevel)
                    self._trace_mark = self._trail_len
                cid = self._add_learned(learned, antecedents)
                if export_cap is not None and len(learned) <= export_cap:
                    export_buffer.append(tuple(learned))
                    stats.exported_clauses += 1
                if truth[learned[0]] == 2:
                    self._enqueue(learned[0], cid)
                    stats.propagations += 1
                on_conflict(learned)
                if sidecar is not None and stats.conflicts % sample_every == 0:
                    # Sampled access-stream event block: which clauses
                    # (and arena blocks) this conflict's analysis
                    # resolved over, plus the trail depth.  Keyed on
                    # the conflict counter — deterministic, no clock.
                    self._record_access_sample(sidecar, antecedents)
                if (
                    on_progress is not None
                    and stats.conflicts % progress_every == 0
                ):
                    on_progress(self.progress_snapshot())
                if max_conflicts is not None and stats.conflicts >= max_conflicts:
                    return SolveOutcome(status=SolveResult.UNKNOWN)
                if (
                    max_propagations is not None
                    and stats.propagations >= max_propagations
                ):
                    return SolveOutcome(status=SolveResult.UNKNOWN)
                continue

            if (
                config.use_restarts
                and conflicts_in_epoch >= epoch_limit
                and self._decision_level > num_assumptions
            ):
                restart_epoch += 1
                conflicts_in_epoch = 0
                epoch_limit = config.restart_base * luby(restart_epoch)
                self.stats.restarts += 1
                if trace is not None:
                    # Pending enqueues at the backjump level survive a
                    # restart to that same level — flush before the
                    # trail is truncated so they are not lost.
                    self._trace_flush()
                self._backtrack(num_assumptions)
                if trace is not None:
                    trace.restart(num_assumptions)
                    self._trace_mark = self._trail_len
                if prune_enabled:
                    self._prune_root_satisfied()
                if metrics_on:
                    # Epoch-boundary publish: counter deltas + state
                    # gauges at every restart, so a scraper sees live
                    # values without the solver ever publishing on the
                    # per-conflict path.
                    self._publish_metrics()
                if on_learned is not None and num_assumptions == 0:
                    # Sharing point (portfolio race mode): the solver is
                    # at decision level 0, so peer clauses can be
                    # installed through the ordinary root-level path.
                    # The hook receives this solver's drained exports
                    # and returns the peers' clauses to import; a root
                    # falsification surfaces as UNSAT right here, a
                    # root unit is picked up by the next _propagate().
                    batch = export_buffer[:]
                    del export_buffer[:]
                    imports = on_learned(batch)
                    if imports:
                        self._import_shared(imports)
                        if not self._ok:
                            return self._unsat_outcome()
                continue
            if config.clause_deletion and self._num_live_learned > max_learned:
                deleted_before = stats.deleted_clauses
                self._reduce_learned_db()
                if trace is not None:
                    trace.reduce(stats.deleted_clauses - deleted_before)
                max_learned = int(max_learned * config.reduce_growth)
                self._max_learned = max_learned

            if self._decision_level < num_assumptions:
                lit = self._assumptions[self._decision_level]
                value = truth[lit]
                if value == 0:
                    return self._failed_assumption_outcome(lit)
                if trace is not None:
                    # ASSUME records only the level-open; the literal
                    # itself (when actually enqueued) arrives through
                    # the ordinary ENQUEUE flush at the next site.
                    self._trace_flush()
                    trace.assume(lit)
                # Open a level even if already true, so level indices and
                # assumption indices stay aligned.
                self._trail_lim.append(self._trail_len)
                self._decision_level += 1
                if value == 2:
                    self._enqueue(lit, -1)
                continue

            if self._trail_len == num_vars:
                # Every variable is assigned: SAT without asking the
                # strategy (saves draining the whole decision heap of
                # its propagation-assigned variables one pop at a time).
                return self._sat_outcome()
            lit = decide()
            if lit == -1:
                return self._sat_outcome()
            if truth[lit] != 2:
                raise AssertionError("strategy chose an assigned variable")
            var = lit >> 1
            # Phase policy: the strategy picks the variable; the phase is
            # the saved polarity (phase_mode="save", when one exists),
            # the strategy's literal ("default"), or its complement
            # ("inverted").  Assumptions bypass this block entirely.
            if save_phase:
                polarity = saved_phase[var]
                if polarity >= 0:
                    lit = (var << 1) | (polarity ^ 1)
            elif invert_phase:
                lit ^= 1
            stats.decisions += 1
            if profile is not None:
                # One heap pop per decision (reinserts are counted at
                # backtrack time).
                profile[PROF_HEAP] += 1
            if (
                config.max_decisions is not None
                and stats.decisions > config.max_decisions
            ):
                return SolveOutcome(status=SolveResult.UNKNOWN)
            self._trail_lim.append(self._trail_len)
            self._decision_level += 1
            if self._decision_level > self.stats.max_decision_level:
                self.stats.max_decision_level = self._decision_level
            self._enqueue(lit, -1)
            if trace is not None:
                # One guarded block per decision: flush the propagation
                # run that preceded it (everything below the literal
                # just enqueued), then record the decision itself.
                mark = self._trace_mark
                n = self._trail_len - 1
                if n > mark:
                    trace.enqueue_run(self._trail, mark, n)
                trace.decide(lit)
                self._trace_mark = n + 1

    # ------------------------------------------------------------------
    # Outcome construction.
    # ------------------------------------------------------------------

    def _record_final_conflict(self, conflict_cid: int) -> None:
        if self._cdg is None:
            return
        antecedents = [conflict_cid]
        conflict_vars = [
            lit >> 1 for lit in self._arena.literals(conflict_cid)
        ]
        self._reason_closure(conflict_vars, antecedents)
        self._cdg.set_final_conflict(antecedents)

    def _relative_closure(self, seed_vars: Sequence[int]) -> Tuple[List[int], Set[int]]:
        """Reason closure stopping at decision variables (assumptions).

        Returns ``(antecedent clause ids, assumption vars encountered)``.
        """
        adata = self._arena.data
        arefs = self._arena.refs
        antecedents: List[int] = []
        assumption_vars: Set[int] = set()
        visited: Set[int] = set()
        stack = list(seed_vars)
        while stack:
            var = stack.pop()
            if var in visited:
                continue
            visited.add(var)
            reason = self._reasons[var]
            if reason == -1:
                if self._levels[var] == 0:
                    # Root fact whose trail reason was discharged by an
                    # incremental front end: cite its defining unit, do
                    # not misreport it as a failed assumption.
                    unit = self._defining_unit(var)
                    if unit != -1:
                        antecedents.append(unit)
                        continue
                assumption_vars.add(var)
                continue
            antecedents.append(reason)
            base = arefs[reason]
            for lit in adata[base:base + adata[base - 1]]:
                other = lit >> 1
                if other != var:
                    stack.append(other)
        return antecedents, assumption_vars

    def _assumption_conflict_outcome(self, conflict_cid: int) -> SolveOutcome:
        seed = [lit >> 1 for lit in self._arena.literals(conflict_cid)]
        antecedents, assumption_vars = self._relative_closure(seed)
        return self._relative_unsat_outcome([conflict_cid] + antecedents, assumption_vars)

    def _failed_assumption_outcome(self, lit: int) -> SolveOutcome:
        antecedents, assumption_vars = self._relative_closure([lit >> 1])
        assumption_vars.add(lit >> 1)
        return self._relative_unsat_outcome(antecedents, assumption_vars)

    def _relative_unsat_outcome(
        self, antecedents: List[int], assumption_vars: Set[int]
    ) -> SolveOutcome:
        self.failed_assumptions = frozenset(
            lit for lit in self._assumptions if (lit >> 1) in assumption_vars
        )
        core_clauses = None
        core_vars = None
        if self._cdg is not None:
            core: Set[int] = set()
            visited: Set[int] = set()
            stack = list(antecedents)
            while stack:
                cid = stack.pop()
                if cid in visited:
                    continue
                visited.add(cid)
                if self._cdg.is_original(cid):
                    core.add(cid)
                else:
                    stack.extend(self._cdg.antecedents_of(cid))
            core_clauses = frozenset(core)
            core_vars = frozenset(
                lit >> 1
                for cid in core_clauses
                for lit in self._arena.literals(cid)
            )
        return SolveOutcome(
            status=SolveResult.UNSAT,
            core_clauses=core_clauses,
            core_vars=core_vars,
            failed_assumptions=self.failed_assumptions,
        )

    def _sat_outcome(self) -> SolveOutcome:
        # The model is the positive-literal column of the truth table
        # (one stride-2 slice, not a per-variable subscript loop);
        # unassigned variables default to 0.  ``list(...)`` normalizes
        # the kernel backends' ``bytearray`` slice to the list the
        # SolveOutcome contract promises.
        model = list(self.lit_truth[0:2 * self.num_vars:2])
        if 2 in model:  # C-speed scan; all-assigned is the common case
            model = [0 if value == 2 else value for value in model]
        if self.config.check_model and not self._model_check(model):
            raise AssertionError("internal error: produced model does not satisfy formula")
        return SolveOutcome(status=SolveResult.SAT, model=model)

    def _model_check(self, model: List[int]) -> bool:
        # Constructor clauses are checked against the formula's own
        # immutable literal tuples: iterating cached tuple refs with an
        # early break is markedly faster in CPython than re-boxing the
        # same literals out of the arena, and the raw formula is
        # exactly what the model must satisfy (tautologies hold both
        # phases of a var, so any model passes them; an empty clause
        # falls through its loop and fails).  The tuple index is built
        # on the first SAT answer and holds references the formula
        # already owns.  Only originals added through the incremental
        # interface live solely in the arena.
        index = self._formula_literal_index
        if index is None:
            index = self._formula_literal_index = [
                clause.literals for clause in self._formula.clauses
            ]
        for lits in index:
            for lit in lits:
                if model[lit >> 1] ^ (lit & 1):
                    break
            else:
                return False
        adata = self._arena.data
        arefs = self._arena.refs
        aflags = self._arena.flags
        for cid in self._original_ids[self._num_initial:]:
            base = arefs[cid]
            n = adata[base - 1]
            if not n:
                if not aflags[cid] & INACTIVE:
                    return False
                continue
            for lit in adata[base:base + n]:
                if model[lit >> 1] ^ (lit & 1):
                    break
            else:
                return False
        return True

    def _unsat_outcome(self) -> SolveOutcome:
        core_clauses = None
        core_vars = None
        if self._cdg is not None and self._cdg.final_antecedents is not None:
            core_clauses = self._cdg.unsat_core()
            core_vars = frozenset(
                lit >> 1
                for cid in core_clauses
                for lit in self._arena.literals(cid)
            )
        return SolveOutcome(
            status=SolveResult.UNSAT,
            core_clauses=core_clauses,
            core_vars=core_vars,
        )

    def export_proof(self):
        """Export the (global) refutation for independent checking.

        Returns a :class:`repro.sat.proof.ResolutionProof`.  Requires CDG
        recording and a completed *global* UNSAT answer (not merely UNSAT
        under assumptions); deleted clauses are exportable because their
        literal blocks are retained in the arena whenever a CDG is
        recorded (compaction only reclaims them without one).
        """
        from repro.sat.proof import ResolutionProof

        if self._cdg is None:
            raise RuntimeError("CDG recording was disabled; no proof available")
        if self._cdg.final_antecedents is None:
            raise RuntimeError("no final conflict recorded (not proven UNSAT)")
        learned = {}
        extra_originals = {}
        arena = self._arena
        for cid in range(len(arena.refs)):
            if self._cdg.is_original(cid):
                if cid >= self._num_initial:
                    extra_originals[cid] = arena.literals(cid)
                continue
            learned[cid] = (
                arena.literals(cid),
                self._cdg.antecedents_of(cid),
            )
        return ResolutionProof(
            num_original=self._num_initial,
            learned=learned,
            final_antecedents=self._cdg.final_antecedents,
            extra_originals=extra_originals,
        )


_LITERALS = attrgetter("literals")

#: SolverConfig fields that shape installed state: a template and its
#: forks must agree on them (the data plane, the arena store, and
#: whether install skips root-satisfied clauses).
_INSTALL_FIELDS = (
    "bcp_backend",
    "analyze_backend",
    "arena_storage",
    "prune_root_satisfied",
)


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Suspend the cyclic garbage collector around a template fork.

    A fork allocates tens of thousands of containers in one burst (one
    watch list per literal on the legacy plane) and none of them can
    form a cycle: lists of tuples of ints, sets of ints, a dict of
    tuples.  Left on, the collector runs a young-generation pass every
    700 allocations; over the 21 depths of a 10k-variable Table-1 row
    that came to about 60 passes per fork and a full pass (every live
    object traversed) every other fork, all looking for garbage that
    cannot exist here.  Paused, the new objects are examined once, at
    the first collection after the fork.  Reference counting is
    unaffected, so nothing is freed later than it would be.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _fit(column, size: int, fill: int):
    """A copy of ``column`` cut or padded (with ``fill``) to ``size``."""
    out = column[:size]
    if len(out) < size:
        out.extend([fill] * (size - len(out)))
    return out


def _fit_table(table: List[list], size: int) -> List[list]:
    """A copy of a per-literal watch table (each list copied) cut or
    padded with empty lists to ``size`` literals."""
    out = list(map(list.copy, table[:size]))
    out.extend([] for _ in range(size - len(out)))
    return out


def _is_tautology(lits: Sequence[int]) -> bool:
    # Specialized for the 2-3 literal clauses that dominate Tseitin
    # encodings; the set-based general case only runs for longer ones.
    n = len(lits)
    if n <= 1:
        return False
    if n == 2:
        return lits[0] ^ 1 == lits[1]
    if n == 3:
        a, b, c = lits
        return a ^ 1 == b or a ^ 1 == c or b ^ 1 == c
    lit_set = set(lits)
    return any(lit ^ 1 in lit_set for lit in lit_set)


def solve_formula(
    formula: CnfFormula,
    strategy: Optional[DecisionStrategy] = None,
    config: Optional[SolverConfig] = None,
) -> SolveOutcome:
    """Convenience one-call interface: build a solver and solve."""
    return CdclSolver(formula, strategy=strategy, config=config).solve()
