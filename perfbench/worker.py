"""The benchmark's worker process: set up once, then run each item in a fork.

``run.py`` starts it as::

    python3 perfbench/worker.py --workload W --seed S [--all]

Set-up is what a user's ``repro-bmc`` process pays before its first
run: the interpreter, the program's imports from ``<checkout>/src``, a
probe of the BCP and analysis backends a default ``CdclSolver`` binds,
and -- the benchmark's share -- generating the run's inputs.  When it is
done the worker prints one JSON line ``{"ready": {...}}`` and then
serves requests read from stdin, one JSON object per line:

``{"item": i, "trace": 0|1, "verify": 0|1}``
    Run item ``i`` and print one JSON result line.
``{"exit": 1}`` or end of input
    Exit.

Every item runs in a child forked from the set-up process, so each run
starts from the heap a fresh process has after its imports.  Earlier
items can leave no garbage for the collector to walk and no warm cache
behind; the collector stays on, as users have it.  The worker waits for
each child with ``wait4`` and adds the child's peak resident memory to
its result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from items import Runner, build_items
from layers import LayerProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_program() -> None:
    """Import the program from the checkout's ``src`` (nothing else)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"worker: no program sources under {src}")
    sys.path.insert(0, src)
    # Everything an item touches, so that no item pays for an import.
    import repro.bmc.cnf_cache  # noqa: F401
    import repro.bmc.incremental  # noqa: F401
    import repro.cnf.dimacs  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.sat.solver  # noqa: F401


def probe_backends() -> dict:
    """The BCP and analysis planes a default solver actually binds."""
    from repro.cnf.formula import CnfFormula
    from repro.sat.solver import CdclSolver

    solver = CdclSolver(CnfFormula(1))
    return {
        "bcp": "legacy" if solver._kernel is None else solver._kernel.name,
        "analyze": "legacy" if solver._akernel is None else solver._akernel.name,
    }


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _run_child(runner, item, trace: bool, verify: bool) -> dict:
    """Body of the forked child: one timed item, then its checks."""
    probe = None
    if trace:
        probe = LayerProbe()
        probe.install()
    start = time.perf_counter()
    raw = runner.execute(item)
    wall_s = time.perf_counter() - start
    if probe is not None:
        probe.tracer.uninstall()
    outcome = runner.check(item, raw, verify)
    result = {
        "ok": True,
        "wall_s": wall_s,
        "search_s": outcome.search_s,
        "counts": list(outcome.counts),
        "digest": outcome.digest,
    }
    if probe is not None:
        cache = raw[0] if runner.workload == "table1_oneshot" else None
        result["layers"] = probe.metrics(wall_s, cache)
        result["backends"] = sorted(probe.backends)
    return result


def run_forked(runner, item, trace: bool, verify: bool) -> dict:
    """Run one item in a forked child; returns its result message."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child never returns into the worker's loop: whatever
        # happens, it ends here, and an empty pipe reports the failure.
        try:
            os.close(read_fd)
            try:
                result = _run_child(runner, item, trace, verify)
            except Exception:
                result = {"ok": False, "error": traceback.format_exc()[-4000:]}
            _write_all(write_fd, json.dumps(result).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks = []
    with os.fdopen(read_fd, "rb") as pipe:
        for chunk in iter(lambda: pipe.read(65536), b""):
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    if chunks:
        result = json.loads(b"".join(chunks))
    else:
        result = {"ok": False, "error": f"item process ended with wait status {status}"}
    result["rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--all", action="store_true", help="every row / pool instance")
    args = parser.parse_args(argv)

    import_program()
    backends = probe_backends()
    items = build_items(args.workload, args.seed, all_inputs=args.all)
    runner = Runner(args.workload, items)
    print(json.dumps({"ready": {"items": [item.name for item in items], "backends": backends}}),
          flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("exit"):
            break
        item = items[request["item"]]
        result = run_forked(runner, item, bool(request["trace"]), bool(request["verify"]))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
