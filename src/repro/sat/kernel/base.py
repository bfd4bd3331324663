"""The BCP-kernel seam: what a propagation backend owes the solver.

A *kernel* owns the watch state (three :class:`~repro.sat.kernel
.columns.WatchColumns`) and implements boolean constraint propagation
over the solver's flat typed state — ``lit_truth`` (a ``bytearray``),
``_levels``/``_reasons``/``_trail`` (``array('i')``) and the compact
:class:`~repro.sat.arena.ClauseArena` word store, all aliased, never
copied.  Everything else — decisions, conflict analysis, proofs, CDG,
strategies — stays in Python and talks to the kernel only through this
seam:

``propagate() -> int``
    Exhaust the implication queue from ``solver._qhead``; assign
    implied literals (truth/levels/reasons/trail), advance
    ``solver._qhead``/``solver._trail_len``, add the propagation count
    to ``solver.stats``, and return the conflicting clause ID or -1.
    Exactly the contract of the legacy ``CdclSolver._propagate``.

``attach(cid, lits)`` / ``detach(cid)`` / ``drop_clauses(dropped)``
    The watch bookkeeping hooks: clause install, single-clause detach
    (swap-with-last, learned-DB reduction) and bulk order-preserving
    removal (root-satisfied pruning).  Each replicates the legacy
    tuple-table operation so watch-list order — and therefore search
    behaviour — is byte-identical across backends.

``grow(lit_capacity)``
    Called from ``ensure_num_vars`` when the literal space grows;
    backtracking needs no hook (the kernel keeps no per-level state —
    the solver rewinds the shared trail/qhead itself).

The base class implements every hook except :meth:`propagate` — watch
mutation is not hot and shared verbatim by both kernels, which also
guarantees the python and native backends grow byte-identical watch
layouts (the native kernel defers its in-propagate appends through the
same doubling policy).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.sat.kernel.columns import ClauseLitMirror, WatchColumns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sat.solver import CdclSolver


class BcpKernelBase:
    """Watch-state owner and propagation seam shared by both kernels."""

    #: Config value selecting this kernel (subclasses override).
    name = "base"

    def __init__(self, solver: "CdclSolver") -> None:
        # Weak: the solver owns its kernels, and a strong back edge
        # would make every solver a reference cycle that only the
        # cyclic collector can free.
        self._solver_ref = weakref.ref(solver)
        self.long = WatchColumns(2)
        self.bin = WatchColumns(2)
        self.tern = WatchColumns(3)

    @property
    def solver(self) -> "CdclSolver":
        """The owning solver (held weakly)."""
        return self._solver_ref()

    # -- sizing ------------------------------------------------------------

    def grow(self, lit_capacity: int) -> None:
        self.long.grow_lits(lit_capacity)
        self.bin.grow_lits(lit_capacity)
        self.tern.grow_lits(lit_capacity)

    # -- watch bookkeeping (legacy-equivalent, not hot) --------------------

    def attach(self, cid: int, lits: Sequence[int]) -> None:
        n = len(lits)
        if n == 2:
            a, b = lits
            self.bin.append2(a, cid, b)
            self.bin.append2(b, cid, a)
        elif n == 3:
            a, b, c = lits
            self.tern.append3(a, cid, b, c)
            self.tern.append3(b, cid, a, c)
            self.tern.append3(c, cid, a, b)
        else:
            a, b = lits[0], lits[1]
            self.long.append2(a, cid, b)
            self.long.append2(b, cid, a)

    def detach(self, cid: int) -> None:
        arena = self.solver._arena
        adata = arena.data
        base = arena.refs[cid]
        n = adata[base - 1]
        if n == 2:
            self.bin.detach(adata[base], cid)
            self.bin.detach(adata[base + 1], cid)
        elif n == 3:
            self.tern.detach(adata[base], cid)
            self.tern.detach(adata[base + 1], cid)
            self.tern.detach(adata[base + 2], cid)
        else:
            self.long.detach(adata[base], cid)
            self.long.detach(adata[base + 1], cid)

    def drop_clauses(self, dropped: Set[int]) -> None:
        self.long.drop_clauses(dropped)
        self.bin.drop_clauses(dropped)
        self.tern.drop_clauses(dropped)

    # -- the hot seam ------------------------------------------------------

    def propagate(self) -> int:
        raise NotImplementedError

    # -- introspection -----------------------------------------------------

    def watch_snapshot(self) -> Dict[str, List[List[Tuple[int, ...]]]]:
        """Per-literal entry tuples in legacy table shape — the
        white-box surface the cross-backend watch tests compare.
        Binary entries are expanded back to the legacy 4-tuple
        ``(cid, implied, ~implied, var)`` (the columns store 2 words
        and recompute the rest)."""
        num_lits = 2 * self.solver.num_vars
        return {
            "long": [self.long.entries(lit) for lit in range(num_lits)],
            "bin": [
                [
                    (cid, implied, implied ^ 1, implied >> 1)
                    for cid, implied in self.bin.entries(lit)
                ]
                for lit in range(num_lits)
            ],
            "tern": [self.tern.entries(lit) for lit in range(num_lits)],
        }

    def footprint(self) -> Dict[str, dict]:
        return {
            "long": self.long.footprint(),
            "bin": self.bin.footprint(),
            "tern": self.tern.footprint(),
        }


class AnalyzeKernelBase:
    """The conflict-analysis seam: what an analysis backend owes the solver.

    An *analysis kernel* runs the first-UIP resolution loop — and only
    that loop — over the solver's flat state.  Everything downstream of
    the raw first-UIP clause (activity-bump replay, minimization,
    level-0 reason closure, LBD, the backjump-literal swap, CDG/proof
    recording, clause install) stays in ``CdclSolver``; the seam hands
    back exactly what that Python tail needs:

    ``analyze(conflict_cid) -> (learned, antecedents)``
        Run first-UIP from the conflicting clause.  On return:

        * ``learned`` is the raw (pre-minimization) clause with the
          asserting literal at position 0, remaining literals in legacy
          discovery order;
        * ``antecedents`` is the ordered resolvent list —
          ``antecedents[0]`` the conflict clause, then each reason
          clause in resolution order (the CDG/proof derivation prefix,
          and the bump-replay worklist: legacy bumps exactly
          ``antecedents[1:]`` in this order);
        * the solver's ``_seen`` marks are LEFT SET, with the marked
          variables appended to ``solver._touched_scratch`` and the
          level-0 subset to ``solver._zero_scratch`` (discovery order)
          — minimization and the reason closure consume the marks, and
          ``_finish_analysis`` clears them, exactly as after the legacy
          loop.

    ``search_step(num_assumptions) -> (conflict, analysis_or_none)``
        The fused fast path (native only): propagate, and when a
        conflict lands at an analyzable level (``decision_level >
        num_assumptions``) run the resolution loop before returning to
        Python — one FFI crossing per conflict instead of two.
        ``analysis`` is the ``analyze`` pair, or None when there is no
        conflict / the level mandates a terminal Python path (level 0
        UNSAT, assumption-prefix conflicts).  The base implementation
        composes the two seams in Python; the native kernel overrides
        it with the single C call.

    ``sync_mirror()`` / ``free_clause(cid)``
        Install-order mirror bookkeeping (see
        :class:`~repro.sat.kernel.columns.ClauseLitMirror`): analysis
        iterates clause literals in install order, which for long
        clauses only the mirror preserves.  ``sync_mirror`` runs at
        analysis entry (cheap no-op when nothing new was installed);
        ``free_clause`` drops a deleted clause's block at learned-DB
        reduction.  The pure-Python kernel iterates the solver's
        ``_lits_view`` directly and never materializes the mirror.
    """

    #: Config value selecting this kernel (subclasses override).
    name = "base"

    def __init__(self, solver: "CdclSolver") -> None:
        self._solver_ref = weakref.ref(solver)  # weak: see BcpKernelBase
        self.mirror = ClauseLitMirror()

    @property
    def solver(self) -> "CdclSolver":
        """The owning solver (held weakly)."""
        return self._solver_ref()

    # -- mirror bookkeeping (no-ops for the pure-Python kernel) ------------

    def sync_mirror(self) -> None:
        self.mirror.sync(self.solver._lits_view)

    def free_clause(self, cid: int) -> None:
        self.mirror.free(cid)

    def invalidate_views(self) -> None:
        """Release any FFI views cached across ``search_step`` calls.

        The solver calls this before every operation that can resize a
        kernel-viewed array (clause install, learned-DB reduction /
        arena compaction) and at ``solve()`` teardown.  A no-op for the
        pure-Python kernel; the native kernel releases its cached
        ``from_buffer`` exports so the resize does not hit a pinned
        buffer.  Safety is fail-loud either way: a missed invalidation
        raises ``BufferError`` at the resize site (cffi keeps the
        buffer exported), never silent corruption.
        """

    def invalidate_arena_views(self) -> None:
        """Soft variant of :meth:`invalidate_views` for the per-conflict
        resizes (arena append in ``_add_learned``, mirror sync): the
        native kernel drops only the arena and mirror exports and keeps
        the other cached views alive.  Watch-pool growth during the
        attach is covered separately (``WatchColumns.on_resize``).
        A no-op for the pure-Python kernel.
        """

    # -- the seam ----------------------------------------------------------

    def analyze(self, conflict_cid: int) -> Tuple[List[int], List[int]]:
        raise NotImplementedError

    def search_step(
        self, num_assumptions: int
    ) -> Tuple[int, Optional[Tuple[List[int], List[int]]]]:
        """Propagate, then analyze in place when the conflict is
        analyzable.  This Python composition exists for completeness
        and tests; the solver only routes through ``search_step`` when
        both kernels are native (where the override fuses the two loops
        into one C call)."""
        solver = self.solver
        conflict = solver._propagate()
        if conflict < 0 or solver._decision_level <= num_assumptions:
            return conflict, None
        return conflict, self.analyze(conflict)

    def footprint(self) -> Dict[str, object]:
        return {"mirror": self.mirror.footprint()}
