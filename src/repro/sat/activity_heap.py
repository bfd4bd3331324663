"""Indexed binary max-heap over variable activity (the decision engine).

This replaces the scan-order machinery the decision strategies used
through PR 2 (a periodically re-sorted literal list scanned with a
moving pointer).  The heap keeps the *same total order* — each strategy
supplies its comparison as a stack of per-literal key arrays, most
significant first, with ties always resolved toward the lower literal
index — but turns the two expensive operations into logarithmic ones:

* ``pop()`` (one decision) is O(log n) instead of a scan that re-walks
  the assigned prefix after every backtrack;
* a score bump (``increase``) is O(log n) instead of marking the whole
  order dirty and paying a full ``2 * num_vars`` stable sort at the
  next decision.

The heap is indexed by **variable**, not literal: each entry is the
variable's *better* polarity under the current comparator, stored as a
tuple ``(key_0, ..., key_m, -best_lit)``.  Native tuple comparison
gives the lexicographic order in C, and the trailing ``-best_lit``
reproduces the stable sort's tie-break toward lower literal indices —
popping the maximum variable and branching on its stored best literal
selects exactly the literal a full scan over the ``2n`` literal order
would have found first.  A ``pos`` array maps every variable to its
heap slot (-1 when absent), so membership tests and targeted key
updates are O(1).

Protocol with the strategies (mirrors MiniSat's ``order_heap``):

* variables that get assigned by BCP while in the heap simply linger;
  ``pop`` discards them lazily, so the caller keeps popping until it
  sees an unassigned variable;
* a variable popped (and possibly discarded) is *gone* — on backtrack
  the strategy hands the undone trail literals to :meth:`reinsert`,
  which re-inserts exactly the missing ones (a C-speed membership
  filter first: most undone variables were never popped and are still
  present, so the common case costs one list comprehension, not one
  sift per literal).

Key discipline: between ``rebuild``/``refresh`` calls the key arrays
may only *grow* per literal (see the scaled-score scheme in
``repro.sat.heuristics``); ``increase`` therefore only sifts up.
``update`` handles the general case (tests, and comparator sanity).
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, List, Sequence

try:  # the stdlib's max-heap heapify (C in CPython; public from 3.14 on)
    from heapq import heapify_max as _heapify_max  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - depends on the interpreter
    from heapq import _heapify_max  # type: ignore[attr-defined]


class VariableActivityHeap:
    """Max-heap of variables keyed by their best literal's key stack."""

    __slots__ = ("_keys", "_heap", "_pos")

    def __init__(self, key_arrays: Sequence[Sequence[float]]) -> None:
        if not key_arrays:
            raise ValueError("at least one key array is required")
        self._keys: List[Sequence[float]] = list(key_arrays)
        self._heap: List[tuple] = []
        self._pos: List[int] = []

    # -- entry construction ------------------------------------------------

    def _entry(self, var: int) -> tuple:
        """The variable's better polarity as a comparison tuple."""
        keys = self._keys
        a = 2 * var
        b = a + 1
        if len(keys) == 1:
            k = keys[0]
            ka = k[a]
            kb = k[b]
            # Strict >: on equal keys the positive (lower) literal wins,
            # matching the stable sort's index tie-break.
            return (kb, -b) if kb > ka else (ka, -a)
        ea = tuple(k[a] for k in keys) + (-a,)
        eb = tuple(k[b] for k in keys) + (-b,)
        return eb if eb > ea else ea

    # -- bulk (re)construction ---------------------------------------------

    def _all_entries(self, num_vars: int) -> Iterable[tuple]:
        """Every variable's entry, built at C level: the even- and
        odd-literal key columns are zipped with their negated literal
        indices and ``max`` picks the better polarity — the same choice
        :meth:`_entry` makes (equal keys fall to the ``-lit`` slot,
        where the lower literal wins)."""
        n = 2 * num_vars
        keys = self._keys
        even = zip(*[k[0:n:2] for k in keys], range(0, -n, -2))
        odd = zip(*[k[1:n:2] for k in keys], range(-1, -n, -2))
        return map(max, even, odd)

    def rebuild(self, variables: Iterable[int], num_vars: int) -> None:
        """Reset membership to ``variables`` and heapify in O(n)."""
        self._heap = list(map(self._entry, variables))
        self._heapify(num_vars)

    def rebuild_unassigned(self, truth: Sequence[int], num_vars: int) -> None:
        """Reset membership to the variables whose literals are
        unassigned in ``truth`` (the per-literal truth column, 2 =
        unassigned) and heapify — the strategy attach path, with no
        per-variable Python call."""
        free = map((2).__eq__, truth[0:2 * num_vars:2])
        self._heap = list(compress(self._all_entries(num_vars), free))
        self._heapify(num_vars)

    def _heapify(self, num_vars: int) -> None:
        """Heap-order ``_heap`` in place and rebuild the position index.

        Entries are distinct (each ends in its own ``-lit``), so the
        comparator is a strict total order: every valid heap layout
        pops the same sequence, whichever heapify produced it.
        """
        heap = self._heap
        _heapify_max(heap)
        pos = [-1] * num_vars
        for i, e in enumerate(heap):
            pos[(-e[-1]) >> 1] = i
        self._pos = pos

    def set_key_arrays(self, key_arrays: Sequence[Sequence[float]]) -> None:
        """Swap the comparator (e.g. the dynamic ranked->VSIDS switch) and
        re-heapify the current membership under the new order."""
        if not key_arrays:
            raise ValueError("at least one key array is required")
        self._keys = list(key_arrays)
        members = [(-e[-1]) >> 1 for e in self._heap]
        self.rebuild(members, len(self._pos))

    def refresh(self) -> None:
        """Re-key every entry in place after an order-preserving transform
        of the key arrays (uniform positive scaling): positions are
        already valid, only the stored tuples are stale."""
        heap = self._heap
        entry = self._entry
        for i, e in enumerate(heap):
            heap[i] = entry((-e[-1]) >> 1)

    # -- core operations ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, var: int) -> bool:
        return self._pos[var] >= 0

    def push(self, var: int) -> None:
        """Insert a variable; no-op if it is already present."""
        if self._pos[var] >= 0:
            return
        heap = self._heap
        heap.append(self._entry(var))
        self._sift_up(len(heap) - 1)

    def reinsert(self, trail_literals: Sequence[int]) -> None:  # solcheck: hot
        """Re-insert the variables of freshly unassigned trail literals.

        The backtrack hot path: most of these variables were assigned by
        BCP and never popped, so they are still present — filter first
        (one C-level list comprehension over the ``pos`` array), then
        sift only the genuinely missing ones.
        """
        pos = self._pos
        missing = [lit >> 1 for lit in trail_literals if pos[lit >> 1] < 0]
        if not missing:
            return
        heap = self._heap
        entry = self._entry
        sift_up = self._sift_up
        for var in missing:
            heap.append(entry(var))
            sift_up(len(heap) - 1)

    def pop(self) -> int:  # solcheck: hot
        """Remove the maximum variable; returns its best *literal*, or -1
        if the heap is empty."""
        heap = self._heap
        if not heap:
            return -1
        pos = self._pos
        top = heap[0]
        lit = -top[-1]
        pos[lit >> 1] = -1
        last = heap.pop()
        n = len(heap)
        if not n:
            return lit
        # heapq-style hole sink: walk the larger-child chain down to a
        # leaf without comparing against ``last`` (it came from the
        # bottom, so it almost always belongs there), then sift it up.
        # One comparison per level instead of two.
        i = 0
        child = 1
        while child < n:
            right = child + 1
            if right < n and heap[right] > heap[child]:
                child = right
            c = heap[child]
            heap[i] = c
            pos[(-c[-1]) >> 1] = i
            i = child
            child = 2 * i + 1
        heap[i] = last
        pos[(-last[-1]) >> 1] = i
        self._sift_up(i)
        return lit

    def increase(self, lit: int) -> None:  # solcheck: hot
        """Re-key the literal's variable after its key grew; sifts up.

        The variable's entry is the max over both polarities, so a grown
        component can only raise (or keep) the entry — an increase-key.
        """
        i = self._pos[lit >> 1]
        if i < 0:
            return
        self._heap[i] = self._entry(lit >> 1)
        self._sift_up(i)

    def update(self, lit: int) -> None:
        """Re-key a present variable; sifts whichever way is needed."""
        var = lit >> 1
        i = self._pos[var]
        if i < 0:
            return
        self._heap[i] = self._entry(var)
        self._sift_up(i)
        self._sift_down(self._pos[var])

    # -- sifting -------------------------------------------------------------

    def _sift_up(self, i: int) -> None:  # solcheck: hot
        heap = self._heap
        pos = self._pos
        item = heap[i]
        while i > 0:
            parent = (i - 1) >> 1
            p = heap[parent]
            if p >= item:
                break
            heap[i] = p
            pos[(-p[-1]) >> 1] = i
            i = parent
        heap[i] = item
        pos[(-item[-1]) >> 1] = i

    def _sift_down(self, i: int) -> None:  # solcheck: hot
        heap = self._heap
        pos = self._pos
        n = len(heap)
        item = heap[i]
        child = 2 * i + 1
        while child < n:
            right = child + 1
            if right < n and heap[right] > heap[child]:
                child = right
            c = heap[child]
            if item >= c:
                break
            heap[i] = c
            pos[(-c[-1]) >> 1] = i
            i = child
            child = 2 * i + 1
        heap[i] = item
        pos[(-item[-1]) >> 1] = i

    # -- introspection (tests) ----------------------------------------------

    def check_invariant(self) -> bool:
        """True iff every parent entry >= both children and the position
        index is consistent; used by the property tests."""
        heap = self._heap
        pos = self._pos
        for i in range(1, len(heap)):
            if heap[(i - 1) >> 1] < heap[i]:
                return False
        for i, e in enumerate(heap):
            if pos[(-e[-1]) >> 1] != i:
                return False
        present = sum(1 for p in pos if p >= 0)
        return present == len(heap)
