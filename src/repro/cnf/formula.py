"""Immutable clause values and a growable CNF formula container.

``CnfFormula`` is the hand-off format between the encoder (``repro.encode``)
and the SAT solver (``repro.sat``).  It deliberately stores clauses as plain
tuples of packed literals: the solver copies them into its own mutable
arena, so the formula object stays a faithful, reusable description of the
problem (the "original clauses" of the paper, whose indices double as
unsat-core clause IDs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cnf.literals import lit_str, lit_var


@dataclass(frozen=True)
class Clause:
    """An immutable disjunction of packed literals."""

    literals: Tuple[int, ...]

    def __post_init__(self) -> None:
        for lit in self.literals:
            if lit < 0:
                raise ValueError(f"bad packed literal {lit}")

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[int]:
        return iter(self.literals)

    def __contains__(self, lit: int) -> bool:
        return lit in self.literals

    def variables(self) -> Tuple[int, ...]:
        """Variables mentioned by the clause, in literal order."""
        return tuple(lit >> 1 for lit in self.literals)

    def is_tautology(self) -> bool:
        """True if the clause contains a literal and its complement."""
        lits = set(self.literals)
        return any(lit ^ 1 in lits for lit in lits)

    def __str__(self) -> str:
        return "(" + " | ".join(lit_str(lit) for lit in self.literals) + ")"


class CnfFormula:
    """A CNF formula: a clause list plus a variable-count watermark.

    Clause indices are stable: the ``i``-th added clause keeps index ``i``
    forever.  The unsat-core machinery reports cores as sets of these
    indices.
    """

    def __init__(self, num_vars: int = 0) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self._num_vars = num_vars
        self._clauses: List[Clause] = []

    @classmethod
    def adopt(cls, num_vars: int, clauses: List[Clause]) -> "CnfFormula":
        """A formula over ``clauses`` with no per-clause validation.

        The list is taken over, not copied.  For producers that already
        checked every clause against the variable bound when they built
        it (the unroller validates each frame once, when the frame is
        encoded); everyone else goes through :meth:`add_clause`.
        """
        formula = cls(num_vars)
        formula._clauses = clauses
        return formula

    @property
    def num_vars(self) -> int:
        """Number of variables (variables are ``0 .. num_vars - 1``)."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    @property
    def clauses(self) -> Sequence[Clause]:
        return tuple(self._clauses)

    def new_var(self) -> int:
        """Allocate and return a fresh variable index."""
        var = self._num_vars
        self._num_vars += 1
        return var

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh consecutive variables."""
        if count < 0:
            raise ValueError("count must be non-negative")
        first = self._num_vars
        self._num_vars += count
        return list(range(first, first + count))

    def add_clause(self, literals: Iterable[int]) -> int:
        """Append a clause; returns its stable index.

        Raises ``ValueError`` if a literal references a variable beyond the
        current watermark — grow the formula with ``new_var`` first.
        """
        clause = literals if isinstance(literals, Clause) else Clause(tuple(literals))
        for lit in clause:
            if lit_var(lit) >= self._num_vars:
                raise ValueError(
                    f"literal {lit_str(lit)} references variable {lit_var(lit)} "
                    f">= num_vars {self._num_vars}"
                )
        self._clauses.append(clause)
        return len(self._clauses) - 1

    def extend(self, clauses: Iterable[Iterable[int]]) -> List[int]:
        """Add many clauses; returns their indices."""
        return [self.add_clause(c) for c in clauses]

    def clause(self, index: int) -> Clause:
        """The clause at a stable index."""
        return self._clauses[index]

    def clauses_between(
        self, start: int, stop: Optional[int] = None
    ) -> List[Clause]:
        """The clauses at indices ``start .. stop - 1`` (a list slice,
        so reading a tail does not copy the whole clause list)."""
        return self._clauses[start:stop]

    def num_literals(self) -> int:
        """Total literal count over all clauses (the paper's "original
        literals", used by the dynamic strategy's 1/64 switch threshold)."""
        return sum(len(c) for c in self._clauses)

    def subformula(self, clause_indices: Iterable[int]) -> "CnfFormula":
        """A new formula over the same variables with only the given clauses.

        Used to check that an extracted unsat core is itself unsatisfiable.
        """
        sub = CnfFormula(self._num_vars)
        for idx in clause_indices:
            sub.add_clause(self._clauses[idx])
        return sub

    def evaluate(self, assignment: Sequence[int]) -> bool:
        """Evaluate under a full assignment (``assignment[var]`` in {0, 1})."""
        if len(assignment) < self._num_vars:
            raise ValueError("assignment shorter than num_vars")
        for clause in self._clauses:
            satisfied = False
            for lit in clause:
                value = assignment[lit >> 1]
                if value not in (0, 1):
                    raise ValueError(f"assignment[{lit >> 1}] = {value} not in {{0,1}}")
                if value != (lit & 1):
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True

    def variables_of(self, clause_indices: Iterable[int]) -> set:
        """Union of variables over the given clause indices.

        This is the paper's core operation: the variables appearing in an
        unsatisfiable core (§3.2) feed ``update_ranking``.
        """
        var_set: set = set()
        for idx in clause_indices:
            var_set.update(lit >> 1 for lit in self._clauses[idx])
        return var_set

    def copy(self) -> "CnfFormula":
        """An independent shallow copy (clauses are immutable)."""
        dup = CnfFormula(self._num_vars)
        dup._clauses = list(self._clauses)
        return dup

    def __str__(self) -> str:
        return (
            f"CnfFormula(vars={self._num_vars}, clauses={len(self._clauses)})"
        )

    __repr__ = __str__
