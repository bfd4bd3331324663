"""The benchmark's workloads: which items a seed selects, how one item
runs, and how its output is checked.

An *item* is one user-visible run of the program, the unit the
benchmark times and checks:

``table1_oneshot``
    One suite row under one method (``bmc``, ``static``, ``dynamic``)
    through ``repro.experiments.runner.run_instance`` with a cold
    ``EncodingCache``: a fresh SAT instance and solver per depth, the
    paper's own Table-1 workload.  Solver construction dominates it, so
    this is where construction, install and encoding changes show.

``incremental``
    The same rows and methods on ``IncrementalBmcEngine`` (the
    ``repro-bmc check --incremental`` path): one solver per run, written
    to through ``feed_frames``/``add_clause`` instead of a bulk install
    per depth.  A construction or template change should not move it;
    an ``add_clause``, ``attach`` or heap change should.

``cnf_solve``
    The ``repro-bmc solve`` path: DIMACS text parsed with
    ``parse_dimacs`` and solved by one default solver with core
    extraction.  The inputs are uniform random 3-SAT near the threshold
    (a SAT/UNSAT mix) plus PHP(7).  Search is over 99% of the work, so
    kernel, analysis and learned-DB changes show here first.

Seed 0 selects ``small_suite()`` (one row per regime) for the two BMC
workloads.  Other seeds draw a stratified, cost-matched row set: two
failing and four passing rows, like ``small_suite()``, redrawn until the
set's reference cost (``calibration.json``) matches ``small_suite()``'s
on every measured dimension.  ``cnf_solve`` draws its random instances
from a fixed pool the same way, by verdict and matched cost.  Matching
keeps the amount of work per run the same across seeds, so that the
run-to-run spread of a metric reflects the program, not the draw.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

WORKLOADS = ("table1_oneshot", "incremental", "cnf_solve")
METHODS = ("bmc", "static", "dynamic")
#: ``repro-bmc check --incremental`` maps methods to engine modes so.
INCREMENTAL_MODES = {"bmc": "vsids", "static": "static", "dynamic": "dynamic"}

CALIBRATION_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calibration.json")

#: Row-set shape for seeds other than 0 (the shape of ``small_suite()``).
FAIL_ROWS = 2
PASS_ROWS = 4
#: Random 3-SAT inputs: variables, clause/variable ratio, pool size.
CNF_VARS = 150
CNF_RATIO = 4.26
CNF_POOL = 120
#: Random instances per ``cnf_solve`` set, by verdict; PHP(7) rides along.
CNF_SAT = 4
CNF_UNSAT = 6
PHP_HOLES = 7
#: A drawn set is accepted once each of its summed reference costs is
#: within this share of the target.
MATCH_TOLERANCE = 0.03
MAX_DRAWS = 200_000


@dataclass(frozen=True)
class Item:
    """One timed unit: a suite row under a method, or one CNF input.

    ``clauses`` holds the generated CNF (packed literals) for
    ``cnf_solve`` items; ``expected`` is the verdict the item must
    reach (``"sat"``/``"unsat"`` for CNF items, ``None`` for rows,
    whose expectation lives on the suite row).
    """

    name: str
    method: str
    row: Optional[str] = None
    num_vars: int = 0
    clauses: Tuple[Tuple[int, ...], ...] = ()
    expected: Optional[str] = None


# ---------------------------------------------------------------------------
# Input generation (the benchmark's own generators; the program only sees
# the generated inputs).
# ---------------------------------------------------------------------------


def random_3sat(index: int) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """Pool instance ``index``: uniform random 3-SAT, packed literals."""
    rng = random.Random(f"cnf_solve:{index}")
    num_clauses = round(CNF_VARS * CNF_RATIO)
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(CNF_VARS), 3)
        clauses.append(tuple(2 * var + rng.randint(0, 1) for var in chosen))
    return CNF_VARS, tuple(clauses)


def pigeonhole(holes: int) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """PHP(holes): holes + 1 pigeons, each in some hole, no two sharing."""
    def var(pigeon: int, hole: int) -> int:
        return pigeon * holes + hole

    clauses = [tuple(2 * var(p, h) for h in range(holes)) for p in range(holes + 1)]
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                clauses.append((2 * var(p1, h) + 1, 2 * var(p2, h) + 1))
    return (holes + 1) * holes, tuple(clauses)


def load_calibration() -> dict:
    """Reference costs per row and per pool instance (see calibrate.py)."""
    with open(CALIBRATION_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _matched_draw(
    rng: random.Random,
    strata: Sequence[Tuple[Sequence[str], int]],
    cost,
    target: Sequence[float],
) -> List[str]:
    """Draw ``count`` names from each stratum until the summed cost
    vector is within :data:`MATCH_TOLERANCE` of ``target``; after
    :data:`MAX_DRAWS` tries, the closest draw seen.  Deterministic in
    ``rng``."""
    best: List[str] = []
    best_err = float("inf")
    for _ in range(MAX_DRAWS):
        pick = [name for names, count in strata for name in rng.sample(list(names), count)]
        totals = [sum(parts) for parts in zip(*(cost(name) for name in pick))]
        err = max(abs(total - goal) / goal for total, goal in zip(totals, target))
        if err < best_err:
            best, best_err = pick, err
        if err <= MATCH_TOLERANCE:
            break
    return best


def draw_rows(seed: int, suite, small_names: Sequence[str]) -> List[str]:
    """The suite rows seed ``seed`` selects (see the module docstring)."""
    if seed == 0:
        return list(small_names)
    calibration = load_calibration()["rows"]
    # A set's peak memory is its largest row's: leave out rows above the
    # reference set's peak, so that every set peaks at about its height.
    caps = {
        workload: max(calibration[name][workload]["rss_mb"] for name in small_names)
        for workload in ("table1_oneshot", "incremental")
    }
    eligible = [
        row for row in suite
        if all(calibration[row.name][w]["rss_mb"] <= cap for w, cap in caps.items())
    ]
    fails = [row.name for row in eligible if row.expected == "fail"]
    passes = [row.name for row in eligible if row.expected == "pass"]

    def cost(name: str) -> List[float]:
        entry = calibration[name]
        return [
            entry[workload][field]
            for workload in ("table1_oneshot", "incremental")
            for field in ("wall_s", "search_s", "rss_mb")
        ]

    target = [sum(parts) for parts in zip(*(cost(name) for name in small_names))]
    rng = random.Random(f"rows:{seed}")
    return sorted(_matched_draw(rng, [(fails, FAIL_ROWS), (passes, PASS_ROWS)], cost, target))


def draw_cnf(seed: int, pool: Sequence[dict]) -> List[int]:
    """Pool indices of the random instances seed ``seed`` selects."""
    sat = [i for i, entry in enumerate(pool) if entry["status"] == "sat"]
    unsat = [i for i, entry in enumerate(pool) if entry["status"] == "unsat"]

    def cost(index: int) -> List[float]:
        return [pool[index]["wall_s"], pool[index]["search_s"]]

    def mean(indices: Sequence[int], k: int) -> float:
        return sum(cost(i)[k] for i in indices) / len(indices)

    target = [CNF_SAT * mean(sat, k) + CNF_UNSAT * mean(unsat, k) for k in (0, 1)]
    rng = random.Random(f"cnf:{seed}")
    return sorted(_matched_draw(rng, [(sat, CNF_SAT), (unsat, CNF_UNSAT)], cost, target))


def build_items(workload: str, seed: int, all_inputs: bool = False) -> List[Item]:
    """The items of one run.  ``all_inputs`` selects every suite row (or
    the whole CNF pool) instead of a seeded draw -- the full-table and
    calibration modes."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")
    if workload == "cnf_solve":
        # The first calibration runs the whole pool before any verdict
        # is on record; every later run checks verdicts against it.
        pool = load_calibration()["cnf_pool"] if os.path.exists(CALIBRATION_PATH) else None
        indices = list(range(CNF_POOL)) if all_inputs else draw_cnf(seed, pool)
        statuses = [entry["status"] for entry in pool] if pool else [None] * CNF_POOL
        items = []
        for index in indices:
            num_vars, clauses = random_3sat(index)
            items.append(Item(f"rand3_{index:03d}", "solve", None, num_vars, clauses, statuses[index]))
        num_vars, clauses = pigeonhole(PHP_HOLES)
        items.append(Item(f"php{PHP_HOLES}", "solve", None, num_vars, clauses, "unsat"))
        return items
    from repro.workloads.suite import small_suite, table1_suite

    suite = table1_suite()
    if all_inputs:
        names = [row.name for row in suite]
    else:
        names = draw_rows(seed, suite, [row.name for row in small_suite()])
    return [Item(f"{name}/{method}", method, name) for name in names for method in METHODS]


# ---------------------------------------------------------------------------
# Running and checking one item (inside the forked child).
# ---------------------------------------------------------------------------


class ItemError(Exception):
    """An item's output contradicts its expectation."""


@dataclass
class Outcome:
    """What one item run reports back: its counts and verdict digest are
    compared across every run of the item (the search-identity guard)."""

    search_s: float
    counts: Tuple[int, int, int]  # decisions, propagations, conflicts
    digest: str


def check_verdict(row, status: str, depth: int) -> None:
    """The suite's expectation: a counterexample at exactly ``cex_depth``
    for failing rows, no counterexample through ``max_depth`` otherwise."""
    if row.expected == "fail":
        if status != "failed" or depth != row.cex_depth:
            raise ItemError(
                f"{row.name}: expected a counterexample at depth {row.cex_depth}, "
                f"got {status} at {depth}"
            )
    elif status != "passed-bounded" or depth != row.max_depth:
        raise ItemError(
            f"{row.name}: expected no counterexample through depth "
            f"{row.max_depth}, got {status} at {depth}"
        )


class Runner:
    """Runs and checks items of one workload.  It holds what a run
    shares (suite rows, DIMACS texts), built once before any item is
    timed.  :meth:`execute` is the timed part -- exactly what a user's
    run does -- and :meth:`check` the untimed verification after it."""

    def __init__(self, workload: str, items: Sequence[Item]) -> None:
        self.workload = workload
        self.items = list(items)
        if workload == "cnf_solve":
            from repro.cnf.dimacs import dimacs_str
            from repro.cnf.formula import CnfFormula

            self.texts = {}
            for item in self.items:
                formula = CnfFormula(item.num_vars)
                for clause in item.clauses:
                    formula.add_clause(clause)
                self.texts[item.name] = dimacs_str(formula)
        else:
            from repro.workloads.suite import table1_suite

            self.rows = {row.name: row for row in table1_suite()}

    def execute(self, item: Item):
        """One user-visible run of the item; returns its raw result."""
        if self.workload == "table1_oneshot":
            from repro.bmc.cnf_cache import EncodingCache
            from repro.experiments.runner import run_instance

            cache = EncodingCache()
            return cache, run_instance(self.rows[item.row], item.method, encoding_cache=cache)
        if self.workload == "incremental":
            from repro.bmc.incremental import IncrementalBmcEngine

            row = self.rows[item.row]
            circuit, prop = row.build()
            engine = IncrementalBmcEngine(
                circuit, prop, max_depth=row.max_depth, mode=INCREMENTAL_MODES[item.method]
            )
            return None, engine.run()
        from repro.cnf import dimacs
        from repro.sat.solver import CdclSolver

        formula = dimacs.parse_dimacs(self.texts[item.name])
        return formula, CdclSolver(formula).solve()

    def check(self, item: Item, raw, verify: bool) -> Outcome:
        """Check a raw result against the item's expectation.  ``verify``
        adds the costly check (the UNSAT-core re-solve); the caller asks
        for it on an item's first run and relies on the digest after."""
        if self.workload == "table1_oneshot":
            result = raw[1]
            check_verdict(self.rows[item.row], result.status, result.depth_reached)
            return Outcome(
                search_s=result.solve_time,
                counts=(result.decisions, result.implications, result.conflicts),
                digest=f"{result.status}@{result.depth_reached}:"
                + ",".join(depth.status for depth in result.per_depth),
            )
        if self.workload == "incremental":
            result = raw[1]
            check_verdict(self.rows[item.row], result.status.value, result.depth_reached)
            return Outcome(
                search_s=sum(depth.solve_time for depth in result.per_depth),
                counts=(result.total_decisions, result.total_propagations, result.total_conflicts),
                digest=f"{result.status.value}@{result.depth_reached}:"
                + ",".join(depth.status for depth in result.per_depth),
            )
        return self._check_cnf(item, *raw, verify)

    def _check_cnf(self, item: Item, formula, outcome, verify: bool) -> Outcome:
        status = outcome.status.value
        parsed = [tuple(clause.literals) for clause in formula.clauses]
        if parsed != list(item.clauses):
            raise ItemError(f"{item.name}: parsed formula differs from the generated one")
        if item.expected is not None and status != item.expected:
            raise ItemError(f"{item.name}: expected {item.expected}, got {status}")
        if status == "sat":
            model = outcome.model
            for clause in item.clauses:
                if not any(model[lit >> 1] ^ (lit & 1) for lit in clause):
                    raise ItemError(f"{item.name}: model falsifies clause {clause}")
            payload = "".join(map(str, model))
        elif status == "unsat":
            core = sorted(outcome.core_clauses or ())
            if not core or core[-1] >= len(item.clauses):
                raise ItemError(f"{item.name}: UNSAT without a valid core")
            if verify:
                _check_core_unsat(item, core)
            payload = ",".join(map(str, core))
        else:
            raise ItemError(f"{item.name}: solver gave up ({status})")
        stats = outcome.stats
        return Outcome(
            search_s=stats.solve_time,
            counts=(stats.decisions, stats.propagations, stats.conflicts),
            digest=f"{status}:" + hashlib.sha256(payload.encode()).hexdigest()[:16],
        )


def _check_core_unsat(item: Item, core: Sequence[int]) -> None:
    """Re-solve the core's clauses with a fresh solver: it must be UNSAT."""
    from repro.cnf.formula import CnfFormula
    from repro.sat.solver import CdclSolver

    formula = CnfFormula(item.num_vars)
    for index in core:
        formula.add_clause(item.clauses[index])
    if CdclSolver(formula).solve().status.value != "unsat":
        raise ItemError(f"{item.name}: the unsat core is satisfiable")
