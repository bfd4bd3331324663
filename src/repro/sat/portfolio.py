"""Portfolio solving: race the paper's strategies with clause sharing.

The paper's Table 1 runs every instance under several decision-ordering
strategies because none dominates — VSIDS, BerkMin and the ranked
CDG-guided variants each win different rows.  Run sequentially, that
diversity only costs time; this module spends it as *parallelism*: N
solver configurations attack one formula concurrently, the first to
finish decides the answer, and short learned clauses flow between the
solvers so one configuration's conflicts prune the others' search.

Two execution modes, one result type:

**Race mode** (``deterministic=False``) — one OS process per member
(``multiprocessing``).  Each member's solver exports learned clauses up
to ``share_max_len`` literals through the
:attr:`~repro.sat.solver.CdclSolver.on_learned` restart hook; the
parent pumps them across a deduplicating :class:`SharedClauseBus` into
the peers' import queues, and peers install them at decision level 0
(the solver's root-level import path).  The first finisher wins, the
losers are cancelled.  Which clauses crossed the bus — and therefore
the winner's exact statistics — depends on OS scheduling; the *verdict*
never does (every member solves the same formula, and imported clauses
are logical consequences of it).

**Deterministic mode** (``deterministic=True``) — search is sliced into
*epochs* of ``epoch_conflicts`` conflicts (the solver's per-call
``max_conflicts`` budget).  All members run epoch ``e`` to its conflict
barrier; their exports are merged in member-index order and delivered
at the start of epoch ``e + 1``; the winner is the member finishing in
the earliest epoch, ties broken toward the lowest member index.  Every
search-derived result — verdict, winning member, per-member statistics,
the imported-clause sets — is a pure function of (formula, members,
``epoch_conflicts``, ``share_max_len``), so repeated runs and different
``jobs`` values are byte-identical: worker processes are only a
placement vehicle (members are partitioned round-robin across ``jobs``
persistent workers; the epoch barrier makes placement invisible).

Soundness: imported clauses enter through
:meth:`~repro.sat.solver.CdclSolver.add_shared_clause`, which installs
them as CDG *leaves* — an imported clause has no local derivation, so
proof replay treats it as an axiom.  The refutation is then valid
relative to the shared formula (each imported clause is a peer's
learned clause, i.e. entailed), unsat cores may cite imported clauses
and remain unsatisfiable as clause *sets*, and
``tests/sat/test_portfolio.py`` re-proves such cores standalone.

Nested use: a portfolio inside a daemonic pool worker (the experiment
layer's ``--jobs`` pool) cannot fork children, so both modes detect the
daemon flag and fall back to the in-process deterministic path — same
verdict, no child processes.  ``repro.experiments.parallel`` offers
``nested=True`` pools (non-daemonic workers) when true nesting is
wanted.
"""

from __future__ import annotations

import os
import queue as queue_module
import sys
import time
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cnf.formula import CnfFormula
from repro.sat.heuristics import (
    BerkMinStrategy,
    DecisionStrategy,
    RankedStrategy,
    VsidsStrategy,
)
from repro.sat.solver import (
    CdclSolver,
    MINIMIZE_MODES,
    PHASE_MODES,
    SolverConfig,
)
from repro.sat.stats import SolverStats
from repro.sat.types import SolveOutcome, SolveResult

#: Strategy kinds a :class:`PortfolioMember` may name.
STRATEGY_KINDS = ("vsids", "berkmin", "ranked-static", "ranked-dynamic")

#: Default learned-clause export cap (literals).  Short clauses prune
#: the most search per word shipped; beyond ~8 literals the import cost
#: (watch entries, BCP scans in every peer) outweighs the pruning.
DEFAULT_SHARE_MAX_LEN = 8

#: Default deterministic-mode epoch length (conflicts per member per
#: epoch).  Small enough that sharing reaches peers while their search
#: is still shapeable, large enough that the per-epoch solve()
#: re-entry cost stays negligible.
DEFAULT_EPOCH_CONFLICTS = 256


@dataclass(frozen=True)
class PortfolioMember:
    """One portfolio configuration cell: strategy x phase x minimize.

    ``var_rank`` (a tuple of ``(variable, score)`` pairs — tuple, not
    dict, so members stay hashable and picklable) seeds the ranked
    strategies; the BMC layer feeds unsat-core ranks through it.
    """

    name: str
    strategy: str = "vsids"
    phase_mode: str = "save"
    minimize_learned: str = "local"
    var_rank: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGY_KINDS:
            raise ValueError(
                f"strategy must be one of {STRATEGY_KINDS}, got {self.strategy!r}"
            )
        if self.phase_mode not in PHASE_MODES:
            raise ValueError(
                f"phase_mode must be one of {PHASE_MODES}, got {self.phase_mode!r}"
            )
        if self.minimize_learned not in MINIMIZE_MODES:
            raise ValueError(
                f"minimize_learned must be one of {MINIMIZE_MODES}, "
                f"got {self.minimize_learned!r}"
            )

    def build_strategy(self) -> DecisionStrategy:
        """A fresh decision-strategy instance for this member."""
        if self.strategy == "vsids":
            return VsidsStrategy()
        if self.strategy == "berkmin":
            return BerkMinStrategy()
        rank = dict(self.var_rank)
        return RankedStrategy(rank, dynamic=(self.strategy == "ranked-dynamic"))

    def overlay_config(
        self, base: Optional[SolverConfig], share_max_len: Optional[int]
    ) -> SolverConfig:
        """The member's :class:`SolverConfig`: the base overlaid with
        this cell's phase/minimize choice and the export cap."""
        return replace(
            base if base is not None else SolverConfig(),
            phase_mode=self.phase_mode,
            minimize_learned=self.minimize_learned,
            export_learned_max_len=share_max_len,
        )


#: The leading default cells, most-diverse-first: the paper's two
#: activity families split across phase policies before the minimize
#: axis starts repeating.
_LEAD_CELLS = (
    ("vsids", "save", "local"),
    ("berkmin", "save", "local"),
    ("vsids", "inverted", "local"),
    ("berkmin", "default", "recursive"),
    ("vsids", "default", "recursive"),
    ("berkmin", "inverted", "local"),
)


def default_members(count: int = 4) -> List[PortfolioMember]:
    """``count`` diverse configuration cells in a fixed, documented order.

    The first cells split the strategy axis before the phase axis and
    the phase axis before the minimize axis; past the hand-picked lead
    the full (strategy x phase x minimize) product fills in.  The order
    is part of the deterministic mode's contract (member index breaks
    winner ties), so it never depends on ambient state.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    cells = list(_LEAD_CELLS)
    for combo in product(("vsids", "berkmin"), PHASE_MODES, MINIMIZE_MODES):
        if combo not in cells:
            cells.append(combo)
    members = []
    for strategy, phase, minimize in cells[:count]:
        members.append(
            PortfolioMember(
                name=f"{strategy}/{phase}/{minimize}",
                strategy=strategy,
                phase_mode=phase,
                minimize_learned=minimize,
            )
        )
    if count > len(cells):
        raise ValueError(
            f"count {count} exceeds the {len(cells)} distinct default cells; "
            f"pass explicit members instead"
        )
    return members


class SharedClauseBus:
    """Deduplicating broadcast fabric between portfolio members.

    Clauses are keyed by their canonical form (sorted deduplicated
    literal tuple).  A member never receives a clause it already knows —
    its own exports included — and each distinct clause is counted once
    in :attr:`shared`.  Determinism is inherited from the caller: given
    the same ``publish`` call sequence, the pending queues are
    identical (the deterministic mode publishes in member-index order
    at epoch barriers).
    """

    def __init__(self, num_members: int) -> None:
        self._known: List[set] = [set() for _ in range(num_members)]
        self._pending: List[List[Tuple[int, ...]]] = [
            [] for _ in range(num_members)
        ]
        self._published: set = set()
        #: Distinct clauses ever published on the bus.
        self.shared = 0
        #: Clause deliveries queued so far (one per (clause, receiver)).
        self.deliveries = 0

    def publish(self, member: int, clauses: Sequence[Sequence[int]]) -> None:
        """Queue ``member``'s exported clauses for every other member."""
        known = self._known
        pending = self._pending
        for lits in clauses:
            key = tuple(sorted(set(lits)))
            known[member].add(key)
            if key not in self._published:
                self._published.add(key)
                self.shared += 1
            for other in range(len(known)):
                if other != member and key not in known[other]:
                    known[other].add(key)
                    pending[other].append(key)
                    self.deliveries += 1

    def collect(self, member: int) -> List[Tuple[int, ...]]:
        """Drain the clauses queued for ``member`` (arrival order)."""
        batch = self._pending[member]
        self._pending[member] = []
        return batch


@dataclass
class MemberReport:
    """What one portfolio member did.

    ``status`` is ``"sat"``/``"unsat"`` for a finisher, ``"unknown"``
    for a deterministic member that never reached a verdict before the
    race ended, and ``"cancelled"`` for a raced loser (its counters are
    then the last sharing-point snapshot, not final values).  ``stats``
    holds the member's counters: merged across epochs in deterministic
    mode, the final (or last shipped) solve's in race mode, and
    all-zero for a member that never ran.
    """

    name: str
    status: str = "unknown"
    winner: bool = False
    epochs: int = 0
    #: Row-race engines only: the deepest BMC depth the member had
    #: reached at its last message (None elsewhere).
    depth: Optional[int] = None
    stats: SolverStats = field(default_factory=SolverStats)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready member report; the ``stats`` sub-dict is
        :meth:`SolverStats.as_dict`, so every solver counter (LBD sums,
        arena compactions, ...) reaches the metrics/bench consumers
        without this report having to enumerate them."""
        return {
            "name": self.name,
            "status": self.status,
            "winner": self.winner,
            "epochs": self.epochs,
            "depth": self.depth,
            "solve_time": self.stats.solve_time,
            "stats": self.stats.as_dict(),
        }


@dataclass
class PortfolioOutcome:
    """Everything a portfolio solve produces.

    ``outcome`` is the winning member's full :class:`SolveOutcome`
    (model / core / failed assumptions), ``None`` when no member
    finished (deterministic mode with ``max_epochs``).  In
    deterministic mode every field except ``wall_time`` and the
    per-member ``solve_time`` is byte-reproducible.
    """

    status: SolveResult
    winner: Optional[str]
    outcome: Optional[SolveOutcome]
    reports: List[MemberReport] = field(default_factory=list)
    epochs: int = 0
    shared_clauses: int = 0
    deliveries: int = 0
    deterministic: bool = False
    wall_time: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready outcome with per-member reports (see
        :meth:`MemberReport.as_dict`)."""
        return {
            "status": self.status.value,
            "winner": self.winner,
            "epochs": self.epochs,
            "shared_clauses": self.shared_clauses,
            "deliveries": self.deliveries,
            "deterministic": self.deterministic,
            "wall_time": self.wall_time,
            "members": [report.as_dict() for report in self.reports],
        }

    @property
    def model(self):
        return self.outcome.model if self.outcome is not None else None

    @property
    def core_clauses(self):
        return self.outcome.core_clauses if self.outcome is not None else None

    @property
    def core_vars(self):
        return self.outcome.core_vars if self.outcome is not None else None


def _resolve_jobs(jobs: Optional[int], num_members: int) -> int:
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return min(jobs, num_members)


def _in_daemon() -> bool:
    """True inside a daemonic process (a plain ``multiprocessing.Pool``
    worker), where spawning children raises."""
    import multiprocessing

    return bool(multiprocessing.current_process().daemon)


def _available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware: a race
    wider than this only time-slices, it cannot win wall time)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _build_solver(
    formula: CnfFormula,
    member: PortfolioMember,
    base_config: Optional[SolverConfig],
    share_max_len: Optional[int],
    warm_activity: bool = True,
) -> CdclSolver:
    strategy = member.build_strategy()
    # Epoch-sliced members re-enter solve() many times; warm
    # re-attachment keeps their accumulated activity instead of
    # re-seeding every epoch (see DecisionStrategy.persist_activity).
    # Cold re-entry (warm_activity=False) doubles as a diversification
    # restart — occasionally much better, occasionally much worse; the
    # robust default is warm.
    strategy.persist_activity = warm_activity
    config = member.overlay_config(base_config, share_max_len)
    if config.metrics is not None or config.on_progress is not None:
        # The registry and progress callback stay with the coordinating
        # process: member solvers may live in forked children, where a
        # published counter dies with the child (and in-process members
        # would multiply-count one logical solve).  The portfolio
        # publishes aggregate and per-member series itself.
        config = replace(
            config, metrics=None, metrics_labels=None, on_progress=None
        )
    return CdclSolver(formula, strategy=strategy, config=config)


def _run_member_epoch(
    solver: CdclSolver,
    budgets: Tuple[int, Optional[int], Optional[int]],
    imports: Sequence[Sequence[int]],
) -> Tuple[str, List[Tuple[int, ...]], SolverStats, Optional[SolveOutcome]]:
    """One deterministic epoch of one member: import the barrier batch,
    search under this epoch's ``(conflicts, propagations, decisions)``
    budgets — the latter two are the member's *remaining* shares of a
    caller-supplied cumulative cap — and drain the exports."""
    conflicts, propagations, decisions = budgets
    for lits in imports:
        solver.add_shared_clause(lits)
    solver.config.max_conflicts = conflicts
    solver.config.max_propagations = propagations
    solver.config.max_decisions = decisions
    outcome = solver.solve()
    exported = solver.drain_exported()
    finished = outcome.status is not SolveResult.UNKNOWN
    return (
        outcome.status.value,
        exported,
        outcome.stats,
        outcome if finished else None,
    )


def carve_epoch_budgets(
    epoch_conflicts: int,
    caps: Tuple[Optional[int], Optional[int], Optional[int]],
    used: Tuple[int, int, int],
) -> Optional[Tuple[int, Optional[int], Optional[int]]]:
    """Next-epoch ``(max_conflicts, max_propagations, max_decisions)``
    for a member that has already spent ``used`` of the cumulative
    ``caps`` (each cap may be None = unbounded), or ``None`` when any
    cap is exhausted.  Shared by the deterministic portfolio and the
    incremental portfolio engine so the budget-laundering rules cannot
    drift apart.
    """
    conflict_cap, prop_cap, decision_cap = caps
    used_conflicts, used_props, used_decisions = used
    budget = epoch_conflicts
    if conflict_cap is not None:
        remaining = conflict_cap - used_conflicts
        if remaining <= 0:
            return None
        budget = min(budget, remaining)
    remaining_props = None
    if prop_cap is not None:
        remaining_props = prop_cap - used_props
        if remaining_props <= 0:
            return None
    remaining_decisions = None
    if decision_cap is not None:
        remaining_decisions = decision_cap - used_decisions
        if remaining_decisions <= 0:
            return None
    return (budget, remaining_props, remaining_decisions)


def _group_worker(formula, member_specs, base_config, share_max_len,
                  warm_activity, cmd_q, reply_q):
    """Persistent deterministic-mode worker: owns a fixed subset of the
    members' solvers across all epochs (solver state must live where the
    member does)."""
    solvers = {
        index: _build_solver(
            formula, member, base_config, share_max_len, warm_activity
        )
        for index, member in member_specs
    }
    while True:
        message = cmd_q.get()
        if message[0] != "epoch":
            break
        _tag, work = message
        replies = []
        for index, budgets, imports in work:
            replies.append(
                (index,) + _run_member_epoch(solvers[index], budgets, imports)
            )
        reply_q.put(replies)


class _InProcessGroup:
    """Deterministic-mode group living in the coordinating process."""

    def __init__(self, indices, formula, members, base_config, share_max_len,
                 warm_activity):
        self.indices = list(indices)
        self._solvers = {
            index: _build_solver(
                formula, members[index], base_config, share_max_len,
                warm_activity,
            )
            for index in self.indices
        }
        self._replies: Optional[list] = None

    def dispatch(self, work) -> None:
        self._replies = [
            (index,) + _run_member_epoch(self._solvers[index], budgets, imports)
            for index, budgets, imports in work
        ]

    def gather(self) -> list:
        replies, self._replies = self._replies, None
        return replies

    def stop(self) -> None:  # symmetry with _ProcessGroup
        pass


class _ProcessGroup:
    """Deterministic-mode group hosted in a persistent child process."""

    def __init__(self, context, indices, formula, members, base_config,
                 share_max_len, warm_activity):
        self.indices = list(indices)
        self._cmd = context.Queue()
        self._reply = context.Queue()
        self._process = context.Process(
            target=_group_worker,
            args=(
                formula,
                [(index, members[index]) for index in self.indices],
                base_config,
                share_max_len,
                warm_activity,
                self._cmd,
                self._reply,
            ),
            daemon=True,
        )
        self._process.start()

    def dispatch(self, work) -> None:
        self._cmd.put(("epoch", work))

    def gather(self) -> list:
        while True:
            try:
                return self._reply.get(timeout=1.0)
            except queue_module.Empty:
                if not self._process.is_alive():
                    raise RuntimeError(
                        "portfolio epoch worker died "
                        f"(exit code {self._process.exitcode})"
                    )

    def stop(self) -> None:
        try:
            self._cmd.put(("stop",))
        except (OSError, ValueError):
            pass
        self._process.join(timeout=5)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=1)


def _race_worker(
    index, formula, member, base_config, share_max_len, warm_activity,
    export_q, import_q, result_q,
):
    """Race-mode child: solve to completion, trading clauses at every
    restart through the on_learned hook."""
    try:
        solver = _build_solver(
            formula, member, base_config, share_max_len, warm_activity
        )
        started = time.perf_counter()

        def hook(batch):
            # stats.solve_time is only written when solve() returns; the
            # shipped copy carries the live wall clock so a cancelled
            # loser's report still shows how long it searched.
            export_q.put((
                index,
                batch,
                replace(
                    solver.stats, solve_time=time.perf_counter() - started
                ),
            ))
            imports: List[Tuple[int, ...]] = []
            while True:
                try:
                    imports.extend(import_q.get_nowait())
                except queue_module.Empty:
                    break
            return imports

        solver.on_learned = hook
        outcome = solver.solve()
        result_q.put((index, "done", outcome, outcome.stats))
    except Exception as exc:  # pragma: no cover - surfaced by the parent
        result_q.put((index, "error", f"{type(exc).__name__}: {exc}", None))


class PortfolioSolver:
    """Race N solver configurations on one formula, sharing clauses.

    Parameters
    ----------
    formula:
        The CNF instance every member solves.
    members:
        The configuration cells (default: :func:`default_members` (4)).
        Member order matters: it breaks deterministic winner ties.
    base_config:
        Common :class:`SolverConfig` each member's cell overlays
        (default: solver defaults — CDG recording on, so the winner
        carries cores/proofs).
    deterministic:
        ``True`` selects the epoch-barrier mode (byte-reproducible
        results); ``False`` the wall-clock race.
    jobs:
        Deterministic mode: worker processes to spread members over
        (``None``/1 = in-process serial, 0 = one per CPU, capped at the
        member count; results are identical for every value).  Race
        mode always runs one process per member and treats ``jobs=1``
        as "no parallelism available" — it falls back to the
        deterministic in-process path.
    share_max_len:
        Learned-clause export cap in literals (``None`` disables
        sharing entirely).
    epoch_conflicts:
        Deterministic mode: conflicts per member per epoch (the
        sharing-barrier spacing).
    max_epochs:
        Deterministic mode: give up (status UNKNOWN) after this many
        epochs; ``None`` = run to a verdict.  In race mode it applies
        only when the adaptive fallback engages the deterministic
        in-process path (single CPU / daemonic worker / ``jobs=1``) —
        a true wall-clock race is bounded with ``time_budget`` instead.
    time_budget:
        Race mode only: seconds after which the race is cancelled with
        status UNKNOWN.  Rejected in deterministic mode (wall-clock
        cutoffs are not reproducible).
    """

    def __init__(
        self,
        formula: CnfFormula,
        members: Optional[Sequence[PortfolioMember]] = None,
        base_config: Optional[SolverConfig] = None,
        deterministic: bool = False,
        jobs: Optional[int] = None,
        share_max_len: Optional[int] = DEFAULT_SHARE_MAX_LEN,
        epoch_conflicts: int = DEFAULT_EPOCH_CONFLICTS,
        max_epochs: Optional[int] = None,
        time_budget: Optional[float] = None,
        warm_activity: bool = True,
    ) -> None:
        self.formula = formula
        self.members = list(members) if members is not None else default_members()
        if not self.members:
            raise ValueError("portfolio needs at least one member")
        names = [member.name for member in self.members]
        if len(set(names)) != len(names):
            raise ValueError(f"member names must be unique, got {names}")
        if epoch_conflicts <= 0:
            raise ValueError("epoch_conflicts must be positive")
        if jobs is not None and jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if deterministic and time_budget is not None:
            raise ValueError(
                "time_budget is wall-clock and breaks deterministic "
                "reproducibility; use max_epochs instead"
            )
        self.base_config = base_config
        self.deterministic = deterministic
        self.jobs = jobs
        self.share_max_len = share_max_len
        self.epoch_conflicts = epoch_conflicts
        self.max_epochs = max_epochs
        self.time_budget = time_budget
        #: Keep each member's decision-strategy activity across epoch
        #: re-entries (robust default).  False re-seeds scores every
        #: epoch — a diversification restart with high variance.
        self.warm_activity = warm_activity

    # ------------------------------------------------------------------

    def solve(self) -> PortfolioOutcome:
        """Run the portfolio; see :class:`PortfolioOutcome`."""
        if self.deterministic:
            result = self._solve_deterministic()
        else:
            width = min(len(self.members), _available_cpus())
            if self.jobs is not None and self.jobs > 0:
                width = min(width, self.jobs)
            if width <= 1 or _in_daemon():
                # No real parallelism available (single member or CPU,
                # nested inside a daemonic pool worker, or explicitly
                # jobs=1): a wider race would only time-slice, so run
                # the epoch-interleaved deterministic path in-process
                # instead — same verdict, and the sharing still prunes
                # the search.
                result = self._solve_deterministic(force_serial=True)
            else:
                result = self._solve_race(width)
        self._publish_metrics(result)
        return result

    #: Per-member :class:`SolverStats` counters published with a
    #: ``member`` label.
    _MEMBER_COUNTER_KEYS = (
        "conflicts",
        "decisions",
        "propagations",
        "restarts",
        "exported_clauses",
        "imported_clauses",
    )

    def _publish_metrics(self, result: PortfolioOutcome) -> None:
        """Publish bus traffic and per-member work into the registry.

        The bus hit rate is installed deliveries over queued deliveries
        — a queued clause misses when its receiver finishes (or is
        cancelled) before the next import point drains it.
        """
        config = self.base_config
        registry = config.metrics if config is not None else None
        if registry is None:
            return
        labels = dict(config.metrics_labels or {})
        registry.counter("portfolio_solves_total", labels=labels).inc()
        registry.counter("portfolio_epochs_total", labels=labels).inc(
            result.epochs
        )
        registry.counter("portfolio_bus_shared_total", labels=labels).inc(
            result.shared_clauses
        )
        registry.counter("portfolio_bus_deliveries_total", labels=labels).inc(
            result.deliveries
        )
        exported = 0
        imported = 0
        for report in result.reports:
            member_labels = dict(labels)
            member_labels["member"] = report.name
            stats = report.stats
            for key in self._MEMBER_COUNTER_KEYS:
                value = getattr(stats, key)
                if value:
                    registry.counter(
                        f"portfolio_member_{key}_total", labels=member_labels
                    ).inc(value)
            exported += stats.exported_clauses
            imported += stats.imported_clauses
        registry.counter(
            "portfolio_exported_clauses_total", labels=labels
        ).inc(exported)
        registry.counter(
            "portfolio_imported_clauses_total", labels=labels
        ).inc(imported)
        registry.gauge("portfolio_bus_hit_rate", labels=labels).set(
            imported / result.deliveries if result.deliveries else 0.0
        )

    # ------------------------------------------------------------------
    # Deterministic epoch-barrier mode.
    # ------------------------------------------------------------------

    def _solve_deterministic(self, force_serial: bool = False) -> PortfolioOutcome:
        start = time.perf_counter()
        members = self.members
        num = len(members)
        jobs = 1 if force_serial else _resolve_jobs(self.jobs, num)
        if jobs > 1 and _in_daemon():
            jobs = 1  # daemonic pool workers cannot fork epoch workers
        groups = self._make_groups(jobs)
        bus = SharedClauseBus(num)
        reports = [MemberReport(name=member.name) for member in members]
        active = set(range(num))
        finished: Dict[int, SolveOutcome] = {}
        epoch = 0
        # Caller-supplied max_conflicts/max_propagations/max_decisions
        # budgets cap each member's *cumulative* work across epochs
        # (per-epoch budgets are carved out of what remains), exactly
        # as they cap a single solve() call — the epoch slicing must
        # not launder any of them away.
        base = self.base_config
        caps = (
            base.max_conflicts if base is not None else None,
            base.max_propagations if base is not None else None,
            base.max_decisions if base is not None else None,
        )
        # time_budget only reaches this path as the race fallback
        # (deterministic=True rejects it in the constructor): enforce
        # it at epoch boundaries, like the race enforces its deadline.
        deadline = (
            start + self.time_budget if self.time_budget is not None else None
        )
        try:
            while active and (self.max_epochs is None or epoch < self.max_epochs):
                if deadline is not None and time.perf_counter() > deadline:
                    break
                dispatched = []
                for group in groups:
                    work = []
                    for index in group.indices:
                        if index not in active:
                            continue
                        report = reports[index]
                        budgets = carve_epoch_budgets(
                            self.epoch_conflicts,
                            caps,
                            (
                                report.stats.conflicts,
                                report.stats.propagations,
                                report.stats.decisions,
                            ),
                        )
                        if budgets is None:
                            active.discard(index)
                            continue
                        work.append((index, budgets, bus.collect(index)))
                    if work:
                        group.dispatch(work)
                        dispatched.append(group)
                if not dispatched:
                    break  # every member exhausted its conflict cap
                replies = []
                for group in dispatched:
                    replies.extend(group.gather())
                # Member-index order makes the bus state — and therefore
                # the next epoch's import batches — placement-invariant.
                replies.sort(key=lambda reply: reply[0])
                finishers = []
                for index, status, exported, stats, outcome in replies:
                    report = reports[index]
                    report.epochs += 1
                    report.stats.merge(stats)
                    bus.publish(index, exported)
                    if outcome is not None:
                        report.status = status
                        finishers.append(index)
                        finished[index] = outcome
                epoch += 1
                if finishers:
                    active.difference_update(finishers)
                    break
        finally:
            for group in groups:
                group.stop()
        return self._deterministic_outcome(
            bus, reports, finished, epoch, time.perf_counter() - start
        )

    def _make_groups(self, jobs: int) -> list:
        members = self.members
        num = len(members)
        if jobs <= 1:
            return [
                _InProcessGroup(
                    range(num), self.formula, members, self.base_config,
                    self.share_max_len, self.warm_activity,
                )
            ]
        from multiprocessing import get_context

        method = "fork" if sys.platform == "linux" else "spawn"
        context = get_context(method)
        partitions = [
            [index for index in range(num) if index % jobs == slot]
            for slot in range(jobs)
        ]
        return [
            _ProcessGroup(
                context, indices, self.formula, members, self.base_config,
                self.share_max_len, self.warm_activity,
            )
            for indices in partitions
            if indices
        ]

    def _deterministic_outcome(
        self, bus, reports, finished, epochs, wall_time
    ) -> PortfolioOutcome:
        if finished:
            verdicts = {outcome.status for outcome in finished.values()}
            if len(verdicts) > 1:  # pragma: no cover - soundness backstop
                raise RuntimeError(
                    f"portfolio members disagree on the verdict: {verdicts} "
                    f"(an imported clause was not a consequence of the formula?)"
                )
            winner_index = min(finished)
            reports[winner_index].winner = True
            outcome = finished[winner_index]
            status = outcome.status
            winner = self.members[winner_index].name
        else:
            outcome = None
            status = SolveResult.UNKNOWN
            winner = None
        return PortfolioOutcome(
            status=status,
            winner=winner,
            outcome=outcome,
            reports=reports,
            epochs=epochs,
            shared_clauses=bus.shared,
            deliveries=bus.deliveries,
            deterministic=True,
            wall_time=wall_time,
        )

    # ------------------------------------------------------------------
    # Wall-clock race mode.
    # ------------------------------------------------------------------

    def _solve_race(self, width: Optional[int] = None) -> PortfolioOutcome:
        from multiprocessing import get_context

        start = time.perf_counter()
        members = self.members
        if width is not None and width < len(members):
            # Adaptive width: racing more members than cores only
            # time-slices them; the leading (most diverse) cells run.
            members = members[:width]
        num = len(members)
        method = "fork" if sys.platform == "linux" else "spawn"
        context = get_context(method)
        result_q = context.Queue()
        export_q = context.Queue()
        import_qs = [context.Queue() for _ in range(num)]
        processes = []
        for index, member in enumerate(members):
            process = context.Process(
                target=_race_worker,
                args=(
                    index, self.formula, member, self.base_config,
                    self.share_max_len, self.warm_activity,
                    export_q, import_qs[index], result_q,
                ),
                daemon=True,
            )
            process.start()
            processes.append(process)

        bus = SharedClauseBus(num)
        snapshots: Dict[int, SolverStats] = {}
        reports = [MemberReport(name=member.name) for member in members]
        winner_index: Optional[int] = None
        winner_outcome: Optional[SolveOutcome] = None
        extra_outcomes: Dict[int, SolveOutcome] = {}
        deadline = None if self.time_budget is None else start + self.time_budget
        try:
            while winner_index is None:
                # Pump the bus: forward every export batch to the peers
                # that have not seen those clauses yet.
                while True:
                    try:
                        index, batch, snapshot = export_q.get_nowait()
                    except queue_module.Empty:
                        break
                    snapshots[index] = snapshot
                    bus.publish(index, batch)
                    for other in range(num):
                        if other != index:
                            pending = bus.collect(other)
                            if pending:
                                import_qs[other].put(pending)
                try:
                    index, kind, payload, snapshot = result_q.get(timeout=0.02)
                except queue_module.Empty:
                    if deadline is not None and time.perf_counter() > deadline:
                        break
                    if all(not process.is_alive() for process in processes):
                        if len(extra_outcomes) == num:
                            break  # every member reported UNKNOWN
                        raise RuntimeError(
                            "a portfolio race worker died without a result "
                            f"({len(extra_outcomes)}/{num} members reported)"
                        )
                    continue
                if kind == "error":
                    raise RuntimeError(f"portfolio race worker failed: {payload}")
                snapshots[index] = snapshot
                if payload.status is SolveResult.UNKNOWN:
                    # A member that merely exhausted a base_config
                    # budget does not decide the race — peers still
                    # searching may yet return a verdict.  Only when
                    # every member has reported UNKNOWN is the race
                    # itself UNKNOWN.
                    extra_outcomes[index] = payload
                    if len(extra_outcomes) == num:
                        break
                    continue
                winner_index = index
                winner_outcome = payload
                # Co-finishers already queued beat the cancellation:
                # record their real verdicts, don't mislabel them.
                while True:
                    try:
                        other, okind, opayload, osnap = result_q.get_nowait()
                    except queue_module.Empty:
                        break
                    if okind == "done":
                        extra_outcomes[other] = opayload
                        snapshots[other] = osnap
        finally:
            for index, process in enumerate(processes):
                if index != winner_index and process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=2)
                if process.is_alive():  # pragma: no cover - hard kill backstop
                    process.kill()
                    process.join(timeout=1)
            for q in [result_q, export_q, *import_qs]:
                q.cancel_join_thread()

        for index, report in enumerate(reports):
            if index in snapshots:
                report.stats = snapshots[index]
            if index in extra_outcomes:
                report.status = extra_outcomes[index].status.value
            else:
                report.status = "cancelled"
        if winner_index is None:
            status = SolveResult.UNKNOWN
            winner = None
        else:
            report = reports[winner_index]
            report.winner = True
            report.status = winner_outcome.status.value
            status = winner_outcome.status
            winner = members[winner_index].name
            # Same soundness backstop as the deterministic mode: any
            # co-finisher that reached a *verdict* must agree with the
            # winner (an UNKNOWN co-finisher merely ran out of budget).
            disagreeing = {
                outcome.status
                for outcome in extra_outcomes.values()
                if outcome.status is not SolveResult.UNKNOWN
                and outcome.status is not status
            }
            if disagreeing:  # pragma: no cover - soundness backstop
                raise RuntimeError(
                    f"portfolio members disagree on the verdict: "
                    f"{disagreeing | {status}} (an imported clause was "
                    f"not a consequence of the formula?)"
                )
        for member in self.members[num:]:
            reports.append(MemberReport(name=member.name, status="skipped"))
        return PortfolioOutcome(
            status=status,
            winner=winner,
            outcome=winner_outcome,
            reports=reports,
            shared_clauses=bus.shared,
            deliveries=bus.deliveries,
            deterministic=False,
            wall_time=time.perf_counter() - start,
        )


def solve_portfolio(formula: CnfFormula, **kwargs) -> PortfolioOutcome:
    """Convenience one-call interface: build a portfolio and solve."""
    return PortfolioSolver(formula, **kwargs).solve()
