"""Flat per-literal watch columns: the kernel side of the watch tables.

The legacy data plane keeps one Python list of packed tuples per
literal (``CdclSolver._watches`` / ``_watches_bin`` / ``_watches_tern``).
A C kernel cannot walk Python lists, so the kernel backends replace all
three tables with instances of :class:`WatchColumns`: one pooled
``array('i')`` holding every literal's entries back to back, addressed
by per-literal ``offs``/``size``/``caps`` columns (a CSR layout with
per-row headroom).

Entry layouts (32-bit words each)::

    long clauses     [cid, blocker]           2 words
    ternary clauses  [cid, other_a, other_b]  3 words
    binary clauses   [cid, implied]           2 words

The long and ternary layouts mirror the legacy tuples word for word.
Binary entries drop the legacy tuples' precomputed ``~implied``/``var``
words: recomputing them is one int op each, cheaper in both kernels
than the extra subscripts (Python) or memory traffic (C) of reading
them back.

Growth discipline: a literal's block holds ``caps[lit]`` entries; an
append into a full block *relocates* it to the pool tail with doubled
capacity (4 entries minimum).  The abandoned block becomes padding.
Because capacities double, the total pool size stays within a small
constant factor of the peak live volume — the same amortization Python
lists provide — so no compaction pass is needed.  The pool only ever
grows via :meth:`reserve`, keeping the backing ``array`` object stable
for zero-copy ``ffi.from_buffer`` aliasing by the native kernel (the
buffer is re-acquired per propagate call, so growth between calls is
safe).

Mutation entry points mirror the legacy list operations exactly —
append (attach / watch move), swap-with-last removal (:meth:`detach`),
and order-preserving filtering (:meth:`drop_clauses`) — so a kernel
backend's watch-list order evolves byte-identically to the legacy
tables' and search behaviour is preserved.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Set, Tuple


class WatchColumns:
    """One watch table (long, binary or ternary) as flat typed columns."""

    __slots__ = ("words", "offs", "size", "caps", "data", "used", "on_resize")

    def __init__(self, words: int) -> None:
        #: Words per entry (2 long, 2 binary, 3 ternary).
        self.words = words
        #: Per-literal first word offset into ``data``.
        self.offs = array("i")
        #: Per-literal live entry count.
        self.size = array("i")
        #: Per-literal allocated entry capacity.
        self.caps = array("i")
        #: The entry pool; ``used`` words are allocated to blocks.
        self.data = array("i")
        self.used = 0
        #: Called right before any column array resizes — the fused
        #: native analysis kernel hooks this to drop its cached
        #: ``from_buffer`` views (a resize of an exported buffer would
        #: raise BufferError).  None when nothing caches views.
        self.on_resize = None

    # -- sizing ------------------------------------------------------------

    def copy_from(self, src: "WatchColumns", lit_capacity: int) -> None:
        """Become a copy of ``src`` with the per-literal columns cut or
        zero-padded to ``lit_capacity`` (a template fork; the pool is
        copied verbatim, so its layout matches a cold install of the
        same clauses).  ``on_resize`` stays this object's own."""
        cb = self.on_resize
        if cb is not None:
            cb()
        self.offs = src.offs[:lit_capacity]
        self.size = src.size[:lit_capacity]
        self.caps = src.caps[:lit_capacity]
        self.data = src.data[:]
        self.used = src.used
        self.grow_lits(lit_capacity)

    def grow_lits(self, lit_capacity: int) -> None:
        """Extend the per-literal columns to ``lit_capacity`` literals
        (new literals start with no block: off 0, size 0, cap 0)."""
        add = lit_capacity - len(self.offs)
        if add > 0:
            cb = self.on_resize
            if cb is not None:
                cb()
            zeros = array("i", bytes(4 * add))
            self.offs.extend(zeros)
            self.size.extend(zeros)
            self.caps.extend(zeros)

    def reserve(self, words_needed: int) -> None:
        """Grow the pool so at least ``words_needed`` total words exist
        (geometric, so per-word cost is amortized O(1))."""
        have = len(self.data)
        if words_needed > have:
            cb = self.on_resize
            if cb is not None:
                cb()
            target = max(words_needed, 2 * have, 64)
            self.data.frombytes(bytes(4 * (target - have)))

    def _relocate(self, lit: int, sz: int, cap: int) -> int:
        """Move ``lit``'s block to the pool tail with doubled capacity;
        returns the new block offset."""
        words = self.words
        new_cap = cap * 2 if cap else 4
        used = self.used
        need = used + new_cap * words
        if need > len(self.data):
            self.reserve(need)
        if sz:
            data = self.data
            old = self.offs[lit]
            data[used:used + sz * words] = data[old:old + sz * words]
        self.offs[lit] = used
        self.caps[lit] = new_cap
        self.used = need
        return used

    # -- legacy-equivalent mutations ---------------------------------------

    def append2(self, lit: int, w0: int, w1: int) -> None:
        """Append a 2-word entry (the long-table watch move / attach)."""
        sz = self.size[lit]
        if sz == self.caps[lit]:
            off = self._relocate(lit, sz, self.caps[lit]) + 2 * sz
        else:
            off = self.offs[lit] + 2 * sz
        data = self.data
        data[off] = w0
        data[off + 1] = w1
        self.size[lit] = sz + 1

    def append3(self, lit: int, w0: int, w1: int, w2: int) -> None:
        sz = self.size[lit]
        if sz == self.caps[lit]:
            off = self._relocate(lit, sz, self.caps[lit]) + 3 * sz
        else:
            off = self.offs[lit] + 3 * sz
        data = self.data
        data[off] = w0
        data[off + 1] = w1
        data[off + 2] = w2
        self.size[lit] = sz + 1

    def detach(self, lit: int, cid: int) -> None:
        """Remove the entry watching ``cid`` by swap-with-last — the
        legacy ``watch_list[i] = watch_list[-1]; pop()`` move (order
        destroying, exactly like the original)."""
        words = self.words
        data = self.data
        base = self.offs[lit]
        n = self.size[lit]
        for i in range(n):
            src = base + i * words
            if data[src] == cid:
                last = base + (n - 1) * words
                if src != last:
                    data[src:src + words] = data[last:last + words]
                self.size[lit] = n - 1
                break

    def drop_clauses(self, dropped: Set[int]) -> None:
        """Remove every entry whose clause ID is in ``dropped``,
        preserving survivor order — the legacy ``_compact_watches``."""
        words = self.words
        data = self.data
        offs = self.offs
        size = self.size
        for lit in range(len(offs)):
            n = size[lit]
            if not n:
                continue
            base = offs[lit]
            j = 0
            for i in range(n):
                src = base + i * words
                if data[src] not in dropped:
                    if j != i:
                        dst = base + j * words
                        data[dst:dst + words] = data[src:src + words]
                    j += 1
            if j != n:
                size[lit] = j

    # -- introspection (tests, footprint) ----------------------------------

    def entries(self, lit: int) -> List[Tuple[int, ...]]:
        """The literal's entries as packed tuples (legacy table shape)."""
        words = self.words
        data = self.data
        base = self.offs[lit]
        return [
            tuple(data[base + i * words:base + (i + 1) * words])
            for i in range(self.size[lit])
        ]

    def live_words(self) -> int:
        words = self.words
        total = 0
        for n in self.size:
            total += n * words
        return total

    def footprint(self) -> dict:
        return {
            "pool_words": len(self.data),
            "used_words": self.used,
            "live_words": self.live_words(),
        }


#: Mirror compaction trigger (words): below this much dead weight the
#: rebuild costs more than the memory it returns.
_MIRROR_COMPACT_MIN_DEAD = 1024


class ClauseLitMirror:
    """Install-order literal blocks of *long* clauses, as flat columns.

    Conflict analysis iterates each visited clause's literals in
    **install order** (``CdclSolver._lits_view``) — that order decides
    seen-marking order, hence the learned clause, hence the whole
    search.  The arena block cannot serve: long-clause (n >= 4) watch
    moves permute it in place.  A C analysis kernel therefore needs a
    flat install-order copy; this class is that copy, built lazily from
    the view and never mutated by propagation.

    Short clauses (n <= 3) are deliberately *not* mirrored
    (``refs[cid] == -1``): their watches are static, so arena order ==
    install order for every short clause analysis can visit.  (The one
    short-block rewrite — ``_install_assigned``'s unit-at-level-0
    repositioning — only touches clauses that are satisfied or unit at
    level 0 forever; such a clause can never be a conflict nor the
    reason of a level>0 variable, so the analysis main loop never reads
    it.  The Python-side consumers that *do* read such clauses —
    ``_reason_closure``, minimization — iterate the view directly.)

    Block layout (32-bit words), addressed like the arena::

        ... | n | lit_0 | ... | lit_{n-1} | n | ...
                ^
                refs[cid]

    ``sync(view)`` appends blocks for clauses installed since the last
    call (one pass over the view's new tail — O(1) amortized per
    clause, called at analysis-kernel entry).  ``free(cid)`` drops a
    deleted clause's block (learned-DB reduction); dead words are
    reclaimed by an arena-style in-place compaction once they reach
    half the store.  The backing arrays only grow or compact between
    FFI calls, so per-call ``ffi.from_buffer`` aliasing is safe.
    """

    __slots__ = ("data", "refs", "synced", "dead")

    def __init__(self) -> None:
        #: The literal blocks; ``refs[cid]`` points at the first literal
        #: and ``data[refs[cid] - 1]`` holds the length.
        self.data = array("i")
        #: Per-clause block offset; -1 = not mirrored (short clause,
        #: tautology's empty slot, or freed).
        self.refs = array("q")
        #: Number of view entries already mirrored.
        self.synced = 0
        #: Dead words left behind by :meth:`free`.
        self.dead = 0

    def copy_from(self, src: "ClauseLitMirror") -> None:
        """Become an independent copy of ``src`` (a template fork)."""
        self.data = src.data[:]
        self.refs = src.refs[:]
        self.synced = src.synced
        self.dead = src.dead

    def sync(self, view: Sequence[Tuple[int, ...]]) -> None:
        """Mirror every clause installed since the last call."""
        n = len(view)
        synced = self.synced
        if synced == n:
            return
        if (
            self.dead >= _MIRROR_COMPACT_MIN_DEAD
            and 2 * self.dead >= len(self.data)
        ):
            self.compact()
        data = self.data
        refs = self.refs
        for cid in range(synced, n):
            lits = view[cid]
            if len(lits) > 3:
                data.append(len(lits))
                refs.append(len(data))
                data.extend(lits)
            else:
                refs.append(-1)
        self.synced = n

    def free(self, cid: int) -> None:
        """Drop a deleted clause's block (no-op when not mirrored)."""
        if cid < self.synced:
            ref = self.refs[cid]
            if ref >= 0:
                self.dead += self.data[ref - 1] + 1
                self.refs[cid] = -1

    def compact(self) -> int:
        """Slide live blocks left in place; returns words reclaimed.
        Clause IDs are stable (only ``refs`` is rewritten)."""
        if not self.dead:
            return 0
        data = self.data
        refs = self.refs
        write = 0
        for cid in range(len(refs)):
            ref = refs[cid]
            if ref < 0:
                continue
            n = data[ref - 1]
            src = ref - 1
            if src != write:
                data[write:write + 1 + n] = data[src:src + 1 + n]
            refs[cid] = write + 1
            write += 1 + n
        reclaimed = len(data) - write
        del data[write:]
        self.dead = 0
        return reclaimed

    def entries(self, cid: int) -> Tuple[int, ...]:
        """The mirrored literal tuple (white-box test surface); ``()``
        when the clause is not mirrored."""
        ref = self.refs[cid]
        if ref < 0:
            return ()
        return tuple(self.data[ref:ref + self.data[ref - 1]])

    def footprint(self) -> dict:
        return {
            "pool_words": len(self.data),
            "dead_words": self.dead,
            "clauses": self.synced,
        }
