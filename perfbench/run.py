"""End-to-end benchmark of the BMC reproduction, with a per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1_oneshot --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload incremental --seed 3 --trace 1
    python3 perfbench/run.py --full-table        # traced split of all 37 rows

Workloads (see ``items.py`` for why each exists): ``table1_oneshot``,
``incremental`` and ``cnf_solve``.  Every run uses the configuration a
``repro-bmc check|solve`` user gets: default ``SolverConfig``, serial,
one process, no ``--jobs``, no portfolio.

A run goes over the workload's items in passes, starting passes until
``--seconds`` have elapsed.  Each pass sets up a fresh worker process
(``setup_s`` is the median over a run's set-ups, at least three), and
each item runs in a fresh fork of it (see ``worker.py``).

Times are reported in *reference seconds*.  On a shared host the
interpreter's speed can drift by 10-20% within a minute, so a
fixed pure-Python task (:func:`speed_probe`, which runs none of the
program's code) is timed between consecutive items.  Each time is
multiplied by the reference probe time (``probe_s`` in
``calibration.json``) over the median probe time around it.  A change
to the program moves these times exactly as it moves the host's own;
the unscaled host seconds are printed as ``raw_*`` lines.

End-to-end metrics, from untraced runs (``--trace 0``):

``wall_s``
    Wall time of one pass: the sum over items of each item's median
    wall time.  One pass of ``table1_oneshot`` is a Table-1 run over the
    drawn rows and the three methods.
``search_s``
    The paper's Table-1 column: the sum of ``SolverStats.solve_time``
    over the pass (each item's median).
``setup_s``
    Interpreter start, the program's imports, the backend probe and
    input generation, before the first item.
``peak_rss_mb``
    Peak resident memory of an item's process, mean over the items.
    (The largest item's peak would follow whichever input a seed drew.)

``verdict_errors`` (failed items over attempted items) is printed with
them; the result line carries it as ``failed``/``attempted``.  It is
not a metric of the result line because it is 0 on every correct run.
An item fails when its verdict or counterexample depth contradicts the
suite's expectation, a counterexample does not re-simulate, a model
falsifies a clause of the generated formula, an UNSAT core is
satisfiable, or its decisions, propagations, conflicts or verdict
digest differ from the item's first run in this run (the
search-identity guard).

``--trace 1`` runs every item both untraced and traced and reports the
per-layer metrics of ``layers.py`` instead.  Every result is stamped with
the git revision (and a dirty flag), Python version, CPU count, the
backends that ran and the seed, on the line before the final JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from items import METHODS, WORKLOADS, load_calibration  # noqa: E402
from layers import PER_LAYER  # noqa: E402

END_TO_END = {"wall_s": "s", "search_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_SETUPS = 3
#: Items on each side of a result whose speed probes set its scale.
PROBE_WINDOW = 2
#: A run that is not finished by then is stopped and reports no result.
RUN_LIMIT_S = 170
#: Per-item layer columns printed by traced runs and the full table.
SPLIT_COLUMNS = (
    ("build", "workloads.build_s"),
    ("encode", "encode.instance_s"),
    ("construct", "solver.construct_s"),
    ("ensure", "solver.ensure_vars_s"),
    ("feed", "incremental.feed_s"),
    ("attach", "heuristics.attach_s"),
    ("search", "solver.search_s"),
    ("core", "cdg.core_s"),
    ("engine", "engine.self_s"),
    ("other", "trace.unattributed_s"),
)


_PROBE_RNG = random.Random("speed-probe")
_PROBE_DATA = [_PROBE_RNG.randrange(1 << 30) for _ in range(1 << 18)]
_PROBE_INDEX = [_PROBE_RNG.randrange(1 << 18) for _ in range(40_000)]


def speed_probe() -> float:
    """Seconds this host takes for a fixed pure-Python task.

    The task mixes what the program spends its time on -- list
    subscripts over a working set of a few MB, dict stores, appends and
    integer arithmetic -- and uses none of the program's code, so no
    change to the program can move it.  On a shared host the speed of
    the interpreter drifts by 10-20% within a minute; timing this task
    next to every item lets a run divide that drift out (see
    :meth:`Run.sample`).
    """
    start = time.perf_counter()
    data = _PROBE_DATA
    table: Dict[int, int] = {}
    window: List[int] = []
    acc = 0
    for index in _PROBE_INDEX:
        value = data[index]
        table[value & 1023] = acc
        window.append(value)
        if len(window) > 64:
            del window[:32]
        acc += value & 7
    return time.perf_counter() - start


class WorkerProcess:
    """One ``worker.py`` process: set up on start, then one item per
    :meth:`request`.  Use as a context manager; leaving it stops the
    worker and waits for it."""

    def __init__(self, workload: str, seed: int, all_inputs: bool = False) -> None:
        command = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", workload, "--seed", str(seed)]
        if all_inputs:
            command.append("--all")
        start = time.perf_counter()
        # Its own session, so that stopping it also stops an item's fork.
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if not line:
            self.close()
            raise RuntimeError(f"worker failed to set up (exit code {self.proc.returncode})")
        ready = json.loads(line)["ready"]
        self.items: List[str] = ready["items"]
        self.backends: Dict[str, str] = ready["backends"]

    def request(self, index: int, trace: bool, verify: bool) -> dict:
        self.proc.stdin.write(json.dumps({"item": index, "trace": int(trace), "verify": int(verify)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker ended unexpectedly")
        return json.loads(line)

    def close(self) -> None:
        proc = self.proc
        if proc.poll() is None:
            try:
                proc.stdin.write(json.dumps({"exit": 1}) + "\n")
                proc.stdin.close()
                proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        proc.stdout.close()

    def __enter__(self) -> "WorkerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def git_stamp() -> Dict[str, object]:
    """Revision of the checkout and whether tracked files differ from it."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"rev": "unknown", "dirty": None}
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"rev": "unknown", "dirty": None}
    if rev.returncode != 0 or status.returncode != 0:
        return {"rev": "unknown", "dirty": None}
    return {"rev": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _scaled(sample: dict, value: float, key: str, raw: bool = False) -> float:
    return value if raw or not key.endswith("_s") else value * sample["scale"]


class Run:
    """One benchmark run: passes over the items, the checks, the metrics.

    Every pass starts a fresh worker (``start_worker()``), so a run's
    passes see several interpreter start-ups -- each with its own
    address-space layout and string-hash seed -- instead of one; what
    layout a process happens to get then averages out within a run
    rather than between runs.  The start-ups are also the run's
    set-up samples.
    """

    def __init__(self, start_worker: Callable[[], "WorkerProcess"], trace: bool,
                 probe_ref_s: float) -> None:
        self.start_worker = start_worker
        self.trace = trace
        self.probe_ref_s = probe_ref_s
        self.items: List[str] = []
        self.backends: Dict[str, str] = {}
        self.setups: List[float] = []
        self.raw_setups: List[float] = []
        self.probes: List[float] = []
        self.timeline: List[dict] = []
        self._last_probe: Optional[float] = None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.passes = 0
        self.untraced: Dict[str, List[dict]] = {}
        self.traced: Dict[str, List[dict]] = {}
        self.reference: Dict[str, tuple] = {}

    def set_up(self) -> "WorkerProcess":
        """Start a worker and record its set-up time (raw and scaled by
        the speed probes on either side of it)."""
        before = speed_probe()
        worker = self.start_worker()
        self._last_probe = speed_probe()
        self.raw_setups.append(worker.setup_s)
        self.setups.append(worker.setup_s * self.probe_ref_s / ((before + self._last_probe) / 2))
        if not self.items:
            self.items = list(worker.items)
            self.backends = worker.backends
            self.untraced = {name: [] for name in self.items}
            self.traced = {name: [] for name in self.items}
        elif worker.items != self.items:
            worker.close()
            raise RuntimeError("workers of one run disagree on the items")
        return worker

    def sample(self, worker: "WorkerProcess", index: int, traced: bool) -> None:
        """Run one item once, check it, and keep its result.

        The speed probe runs before and after the item (consecutive
        items share a probe); :meth:`run_passes` turns the probes into
        each result's ``scale``.
        """
        name = self.items[index]
        before = self._last_probe if self._last_probe is not None else speed_probe()
        result = worker.request(index, traced, verify=name not in self.reference)
        self._last_probe = speed_probe()
        self.probes.append(self._last_probe)
        result["probe_s"] = (before + self._last_probe) / 2
        self.timeline.append(result)
        self.attempted += 1
        if result["ok"]:
            key = (tuple(result["counts"]), result["digest"])
            first = self.reference.setdefault(name, key)
            if key != first:
                result = {"ok": False, "error": (
                    f"search differs from the item's first run: counts/digest {key} != {first}")}
        if not result["ok"]:
            self.failed += 1
            self.errors.append(f"{name}{' (traced)' if traced else ''}: {result['error']}")
            return
        (self.traced if traced else self.untraced)[name].append(result)

    def run_passes(self, seconds: float, passes: Optional[int] = None) -> None:
        """Exactly ``passes`` passes, or -- without it -- passes started
        until ``seconds`` have elapsed; the pass under way then finishes,
        so that every item has as many runs as the others.  Traced runs
        alternate which of an item's two runs goes first.  A run sets
        up at least :data:`MIN_SETUPS` times."""
        start = time.perf_counter()
        while True:
            with self.set_up() as worker:
                for index in range(len(self.items)):
                    modes = [False]
                    if self.trace:
                        modes = [False, True] if self.passes % 2 == 0 else [True, False]
                    for traced in modes:
                        self.sample(worker, index, traced)
            self.passes += 1
            if passes is not None:
                if self.passes >= passes:
                    break
            elif time.perf_counter() - start >= seconds:
                break
        while len(self.setups) < MIN_SETUPS:
            self.set_up().close()
        self._assign_scales()

    def _assign_scales(self) -> None:
        """Give every result its ``scale``: the reference probe time over
        the median probe time around it (the item and its
        :data:`PROBE_WINDOW` neighbours on each side, in run order).
        Times the run reports are multiplied by it, which puts them in
        seconds of the host ``calibration.json`` was measured on.  The
        window is wide enough to average out one probe's noise and
        narrow enough to follow the host's drift."""
        probes = [result["probe_s"] for result in self.timeline]
        for i, result in enumerate(self.timeline):
            window = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
            result["scale"] = self.probe_ref_s / statistics.median(window)

    def item_median(self, name: str, key: str, traced: bool = False, raw: bool = False) -> float:
        """Median of one result field over an item's runs; times (``_s``
        fields) scaled to reference seconds unless ``raw``."""
        samples = (self.traced if traced else self.untraced)[name]
        return _median([_scaled(sample, sample[key], key, raw) for sample in samples])

    def end_to_end(self, raw: bool = False) -> Dict[str, float]:
        names = self.items
        return {
            "wall_s": sum(self.item_median(name, "wall_s", raw=raw) for name in names),
            "search_s": sum(self.item_median(name, "search_s", raw=raw) for name in names),
            "setup_s": statistics.median(self.raw_setups if raw else self.setups),
            "peak_rss_mb": statistics.mean(self.item_median(name, "rss_mb") for name in names),
        }

    def item_layers(self, name: str) -> Dict[str, float]:
        """An item's layer metrics: the median of each over its traced runs."""
        samples = self.traced[name]
        if not samples:
            return {}
        return {
            key: _median([_scaled(sample, sample["layers"][key], key) for sample in samples])
            for key in samples[0]["layers"]
        }

    def per_layer(self) -> Dict[str, float]:
        names = self.items
        totals: Dict[str, float] = {}
        for name in names:
            for key, value in self.item_layers(name).items():
                totals[key] = totals.get(key, 0.0) + value
        out = {key: totals.get(key, 0.0) for key in PER_LAYER}
        search = out["solver.search_s"]
        out["solver.propagations_per_s"] = out["solver.propagations"] / search if search else 0.0
        for method in METHODS:
            out[f"engine.wall_s.{method}"] = sum(
                self.item_median(name, "wall_s") for name in names
                if name.endswith(f"/{method}")
            )
        untraced = sum(self.item_median(name, "wall_s") for name in names)
        traced = sum(self.item_median(name, "wall_s", traced=True) for name in names)
        out["trace.overhead"] = traced / untraced if untraced else 0.0
        out["verdict_errors"] = self.failed / self.attempted if self.attempted else 1.0
        return out

    def traced_backends(self) -> List[str]:
        return sorted({b for samples in self.traced.values() for s in samples for b in s["backends"]})


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_split(run: Run, grouped: bool) -> None:
    """Per-item (or, ``grouped``, per-row) layer seconds of a traced run."""
    groups: Dict[str, List[str]] = {}
    for name in run.items:
        groups.setdefault(name.split("/")[0] if grouped else name, []).append(name)
    header = f"{'item':<16}{'wall':>9}" + "".join(f"{title:>10}" for title, _ in SPLIT_COLUMNS)
    print(header)
    for label, names in groups.items():
        layers = [run.item_layers(name) for name in names]
        wall = sum(run.item_median(name, "wall_s") for name in names)
        cells = "".join(
            f"{sum(item.get(key, 0.0) for item in layers):>10.3f}" for _, key in SPLIT_COLUMNS
        )
        print(f"{label:<16}{wall:>9.3f}{cells}")


def print_shares(run: Run, metrics: Dict[str, float]) -> None:
    """Where the traced runs' wall time went, as shares of it."""
    wall_s = sum(run.item_median(name, "wall_s", traced=True) for name in run.items)
    if not wall_s:
        return
    parts = {
        "solver construction": metrics["solver.construct_s"],
        "solve (attach+search+core)": metrics["heuristics.attach_s"]
        + metrics["solver.search_s"] + metrics["cdg.core_s"],
        "encode (Unroller.instance)": metrics["encode.instance_s"],
        "incremental feed": metrics["incremental.feed_s"],
    }
    print(f"traced wall {wall_s:.3f} s (x{metrics['trace.overhead']:.3f} the untraced wall)")
    for label, seconds in parts.items():
        print(f"  {label:<28}{seconds:>9.3f} s  {100 * seconds / wall_s:5.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end BMC benchmark with a per-layer split.")
    parser.add_argument("--workload", choices=WORKLOADS, default="table1_oneshot")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-table", action="store_true",
                        help="one traced pass over all 37 suite rows, split per row "
                             "(no time limit)")
    args = parser.parse_args(argv)
    if args.full_table and args.workload == "cnf_solve":
        parser.error("--full-table needs a suite workload")
    trace = bool(args.trace) or args.full_table
    if not args.full_table:
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(RUN_LIMIT_S)

    stamp = {
        **git_stamp(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(trace),
    }
    run = Run(lambda: WorkerProcess(args.workload, args.seed, args.full_table), trace,
              load_calibration()["probe_s"])
    run.run_passes(args.seconds, passes=1 if args.full_table else None)
    stamp["backends"] = run.backends
    stamp["items"] = len(run.items)
    stamp["passes"] = run.passes
    stamp["time_scale"] = _median([result["scale"] for result in run.timeline])

    for error in run.errors:
        print(f"FAILED {error}", file=sys.stderr)
    if trace:
        stamp["traced_backends"] = run.traced_backends()
        metrics = run.per_layer()
        units = PER_LAYER
        print_split(run, grouped=args.full_table)
        print_shares(run, metrics)
    else:
        metrics = run.end_to_end()
        units = END_TO_END
        raw = run.end_to_end(raw=True)
        for name in ("wall_s", "search_s", "setup_s"):
            print(f"{'raw_' + name:<28}{_fmt(raw[name]):>14} s (host seconds, unscaled)")
    for name, value in metrics.items():
        print(f"{name:<28}{_fmt(value):>14} {units[name]}")
    if not trace:
        print(f"{'verdict_errors':<28}{_fmt(run.failed / run.attempted):>14} ratio")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result_line(run, metrics, units)))
    return 0


def result_line(run: Run, metrics: Dict[str, float], units: Dict[str, str]) -> dict:
    """The run's final output line."""
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _on_alarm(signum, frame) -> None:
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, TimeoutError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(2)
