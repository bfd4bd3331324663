"""Measure the reference costs the seeded draws match against.

    python3 perfbench/calibrate.py [--repeats 3]

Runs every suite row under both BMC workloads and every instance of the
``cnf_solve`` pool, untraced, ``--repeats`` times each, and writes
``calibration.json`` next to this file: per row and workload the wall
and search seconds summed over the three methods and the peak memory;
per pool instance its verdict, wall and search seconds; and the median
time of ``run.speed_probe`` over the calibration, the unit in which
runs report their times.  Costs only
steer which inputs a seed draws (see ``items.py``); re-run this when
the program's relative costs have shifted enough that draws no longer
match.  A run takes about ten minutes on a 2-CPU host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from typing import Dict, List

from run import HERE, Run, WorkerProcess, git_stamp

from items import CALIBRATION_PATH


def measure(workload: str, repeats: int, probes: List[float]) -> Dict[str, Dict[str, float]]:
    """Median wall/search/memory of every item of ``workload``'s full
    input set, times in units of the speed probe (a reference probe time
    of 1); appends the run's speed probes."""
    run = Run(lambda: WorkerProcess(workload, seed=0, all_inputs=True), trace=False,
              probe_ref_s=1.0)
    run.run_passes(seconds=0.0, passes=repeats)
    if run.failed:
        raise SystemExit("calibration run failed:\n" + "\n".join(run.errors))
    probes.extend(run.probes)
    return {
        name: {
            "wall_s": run.item_median(name, "wall_s"),
            "search_s": run.item_median(name, "search_s"),
            "rss_mb": run.item_median(name, "rss_mb"),
            "status": run.untraced[name][0]["digest"].split(":")[0],
        }
        for name in run.items
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    probes: List[float] = []
    for workload in ("table1_oneshot", "incremental"):
        for name, cost in measure(workload, args.repeats, probes).items():
            row = name.split("/")[0]
            entry = rows.setdefault(row, {}).setdefault(
                workload, {"wall_s": 0.0, "search_s": 0.0, "rss_mb": 0.0})
            entry["wall_s"] += cost["wall_s"]
            entry["search_s"] += cost["search_s"]
            entry["rss_mb"] = max(entry["rss_mb"], cost["rss_mb"])
    pool: List[dict] = [
        {"status": cost["status"], "wall_s": cost["wall_s"], "search_s": cost["search_s"]}
        for name, cost in measure("cnf_solve", args.repeats, probes).items()
        if name.startswith("rand3_")
    ]
    # Probe units to seconds at the host's median speed over the calibration.
    probe_s = statistics.median(probes)
    for entry in [cost for row in rows.values() for cost in row.values()] + pool:
        entry["wall_s"] *= probe_s
        entry["search_s"] *= probe_s
    calibration = {
        "measured_on": {
            **git_stamp(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "repeats": args.repeats,
        },
        "probe_s": probe_s,
        "rows": rows,
        "cnf_pool": pool,
    }
    with open(CALIBRATION_PATH, "w", encoding="utf-8") as handle:
        json.dump(calibration, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(CALIBRATION_PATH, os.path.dirname(HERE))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
