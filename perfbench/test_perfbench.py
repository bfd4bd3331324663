"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs two cheap items, untraced and traced, through the
same fork-per-item path and metric assembly a real run uses.  The test
checks that every end-to-end and per-layer metric is emitted, that no
item fails (``verdict_errors`` is 0), and that traced and untraced runs
of an item make identical searches.
"""

from __future__ import annotations

import pytest

import items
import run
import worker
from layers import PER_LAYER, RUN_LEVEL
from tracer import Tracer

worker.import_program()

TINY = {
    "table1_oneshot": [items.Item("15_b/bmc", "bmc", "15_b"),
                       items.Item("27_b/dynamic", "dynamic", "27_b")],
    "incremental": [items.Item("15_b/static", "static", "15_b"),
                    items.Item("14_b_2/bmc", "bmc", "14_b_2")],
    "cnf_solve": [items.Item("php3", "solve", None, *items.pigeonhole(3), "unsat"),
                  items.Item("rand3_000", "solve", None, *items.random_3sat(0), None)],
}


class InProcessWorker:
    """Stands in for ``run.WorkerProcess``, forking items from this process."""

    setup_s = 0.1
    backends = {"bcp": "legacy", "analyze": "legacy"}

    def __init__(self, workload: str) -> None:
        self.runner = items.Runner(workload, TINY[workload])
        self.items = [item.name for item in TINY[workload]]

    def request(self, index: int, trace: bool, verify: bool) -> dict:
        return worker.run_forked(self.runner, self.runner.items[index], trace, verify)

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@pytest.mark.parametrize("workload", items.WORKLOADS)
def test_every_metric_emitted_and_searches_identical(workload):
    bench = run.Run(lambda: InProcessWorker(workload), trace=True, probe_ref_s=0.02)
    bench.run_passes(seconds=0.0, passes=2)
    assert bench.errors == []
    assert bench.attempted == 8

    end_to_end = bench.end_to_end()
    assert list(end_to_end) == list(run.END_TO_END)
    assert all(value > 0 for value in end_to_end.values())
    per_layer = bench.per_layer()
    assert list(per_layer) == list(PER_LAYER)
    assert per_layer["verdict_errors"] == 0
    line = run.result_line(bench, per_layer, PER_LAYER)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0

    for name in bench.items:
        runs = bench.untraced[name] + bench.traced[name]
        assert len(runs) == 4
        assert len({(tuple(r["counts"]), r["digest"]) for r in runs}) == 1
        assert set(bench.traced[name][0]["layers"]) == set(PER_LAYER) - RUN_LEVEL
        assert bench.traced[name][0]["backends"] == ["legacy"]
    assert per_layer["solver.decisions"] == sum(
        bench.untraced[name][0]["counts"][0] for name in bench.items
    )


def test_search_identity_guard_marks_a_diverging_run_failed():
    class Diverging(InProcessWorker):
        def request(self, index, trace, verify):
            result = super().request(index, trace, verify)
            if trace:
                result["counts"][0] += 1
            return result

    bench = run.Run(lambda: Diverging("cnf_solve"), trace=True, probe_ref_s=0.02)
    bench.run_passes(seconds=0.0, passes=1)
    assert bench.failed == 2 and bench.attempted == 4
    assert all("first run" in error for error in bench.errors)


def test_wrong_verdict_is_counted_not_raised():
    wrong = items.Item("php3", "solve", None, *items.pigeonhole(3), "sat")
    runner = items.Runner("cnf_solve", [wrong])
    result = worker.run_forked(runner, wrong, trace=False, verify=True)
    assert not result["ok"] and "expected sat" in result["error"]


def test_draws_are_seeded_stratified_and_matched():
    from repro.workloads.suite import small_suite, table1_suite

    suite = table1_suite()
    small = [row.name for row in small_suite()]
    by_name = {row.name: row for row in suite}
    assert items.draw_rows(0, suite, small) == small
    for seed in (1, 2, 3):
        rows = items.draw_rows(seed, suite, small)
        assert rows == items.draw_rows(seed, suite, small)
        assert sorted(by_name[name].expected for name in rows) == ["fail"] * 2 + ["pass"] * 4
        cnf = items.build_items("cnf_solve", seed)
        assert [item.expected for item in cnf].count("sat") == items.CNF_SAT
        assert [item.expected for item in cnf].count("unsat") == items.CNF_UNSAT + 1


def test_tracer_self_times_cover_the_outermost_spans():
    tracer = Tracer()

    class Base:
        def attach(self):
            return "base"

    class Derived(Base):
        def attach(self):
            return super().attach()

    tracer.install(Base, "attach", "attach")
    tracer.install(Derived, "attach", "attach")
    outer = tracer.wrap("solve", lambda: Derived().attach())
    assert outer() == "base"
    assert tracer.calls == {"attach": 1, "solve": 1}
    assert tracer.self_s["attach"] == pytest.approx(tracer.incl_s["attach"])
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.top_s)
    tracer.uninstall()
    assert not hasattr(Derived.attach, "__wrapped__")
