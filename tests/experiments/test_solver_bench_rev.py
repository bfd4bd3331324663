"""The bench ledger's revision stamp (``benchmarks/solver_bench.py``).

Rows of ``BENCH_history.jsonl`` written from a tree with uncommitted
changes must not pass for the committed revision, so the stamp carries a
``+dirty`` suffix there.  ``subprocess.run`` is stubbed: no git needed.
"""

from __future__ import annotations

import subprocess
from types import SimpleNamespace

import pytest

from benchmarks import solver_bench


def _stub(monkeypatch, answers):
    calls = []

    def run(cmd, **kwargs):
        calls.append(cmd[1:])
        answer = answers[cmd[1]]
        if isinstance(answer, BaseException):
            raise answer
        return SimpleNamespace(returncode=answer[0], stdout=answer[1])

    monkeypatch.setattr(subprocess, "run", run)
    return calls


def test_clean_tree_is_the_bare_revision(monkeypatch):
    calls = _stub(monkeypatch, {"rev-parse": (0, "abc1234\n"), "status": (0, "")})
    assert solver_bench._git_rev() == "abc1234"
    assert calls == [["rev-parse", "--short", "HEAD"], ["status", "--porcelain"]]


def test_dirty_tree_is_marked(monkeypatch):
    _stub(monkeypatch, {
        "rev-parse": (0, "abc1234\n"),
        "status": (0, " M src/repro/sat/solver.py\n?? new.txt\n"),
    })
    assert solver_bench._git_rev() == "abc1234+dirty"


def test_failed_status_keeps_the_revision(monkeypatch):
    _stub(monkeypatch, {"rev-parse": (0, "abc1234\n"), "status": (128, "")})
    assert solver_bench._git_rev() == "abc1234"


@pytest.mark.parametrize("answer", [
    (128, ""),
    (0, "\n"),
    FileNotFoundError("git"),
    subprocess.TimeoutExpired("git", 10),
])
def test_unknown_outside_a_checkout(monkeypatch, answer):
    _stub(monkeypatch, {"rev-parse": answer, "status": (0, "")})
    assert solver_bench._git_rev() == "unknown"
