"""Backend selection: ``SolverConfig.backend`` and the native build.

``"auto"`` binds the native plane where the compiled kernel can be had
and the python plane otherwise, warning once per process with the
reason.  Every way the native build can fail — cffi missing, the
compiler failing, an unwritable cache, a damaged cached object — must
end in that fallback, never in a crash.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import warnings

import pytest

import repro.sat.kernel as kernel_pkg
from repro.cnf import CnfFormula
from repro.sat import CdclSolver, SolverConfig
from repro.sat.kernel import BACKENDS, native, native_available, resolve_backend

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


@pytest.fixture
def fresh_build(monkeypatch, tmp_path):
    """An empty kernel cache and no memoized build outcome or warning:
    the next probe builds from scratch (undone after the test)."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_MODULE", None)
    monkeypatch.setattr(native, "_BUILD_ERROR", None)
    monkeypatch.setattr(kernel_pkg, "_fallback_warned", False)
    return tmp_path / "cache"


def _auto_solver_with_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solver = CdclSolver(CnfFormula(1))
        CdclSolver(CnfFormula(1))  # a second solver must not warn again
    return solver, [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_backend_registry():
    assert BACKENDS == ("auto", "python", "native")
    assert SolverConfig().backend == "auto"
    with pytest.raises(ValueError, match="backend must be one of"):
        resolve_backend("compact")
    with pytest.raises(ValueError, match="backend must be one of"):
        CdclSolver(CnfFormula(1), config=SolverConfig(backend="no-such"))


@pytest.mark.skipif(
    not os.environ.get("REPRO_KERNEL_NATIVE_REQUIRED"),
    reason="only enforced where a C toolchain is guaranteed (CI native legs)",
)
def test_native_kernel_builds_in_ci():
    """Everywhere else the native kernel degrades to a skip or to the
    python plane; the CI jobs that install cffi + cc exercise it, so
    there a failed build must FAIL (not silently run python)."""
    assert native_available(), native.native_unavailable_reason()


def test_default_solver_binds_native_when_available_else_python():
    solver = CdclSolver(CnfFormula(1))
    expected = "native" if native_available() else "python"
    assert (solver._kernel.name, solver._akernel.name) == (expected, expected)
    python = CdclSolver(CnfFormula(1), config=SolverConfig(backend="python"))
    assert (python._kernel.name, python._akernel.name) == ("python", "python")


def _assert_falls_back(reason_fragment):
    solver, caught = _auto_solver_with_warnings()
    assert (solver._kernel.name, solver._akernel.name) == ("python", "python")
    assert len(caught) == 1, [str(w.message) for w in caught]
    message = str(caught[0].message)
    assert native.native_unavailable_reason() in message
    assert reason_fragment in message
    assert "backend='python'" in message
    with pytest.raises(RuntimeError, match="native kernel unavailable"):
        CdclSolver(CnfFormula(1), config=SolverConfig(backend="native"))


def test_auto_falls_back_when_cffi_is_missing(fresh_build, monkeypatch, tmp_path):
    # The compiler runs in a child interpreter; shadow cffi there.
    shadow = tmp_path / "shadow" / "cffi"
    shadow.mkdir(parents=True)
    (shadow / "__init__.py").write_text("raise ImportError('cffi is not installed')\n")
    monkeypatch.setenv("PYTHONPATH", str(shadow.parent))
    _assert_falls_back("cffi is not installed")


def test_auto_falls_back_when_the_compiler_fails(fresh_build, monkeypatch):
    pytest.importorskip("cffi")
    monkeypatch.setenv("CC", "false")  # a compiler that is present but fails
    _assert_falls_back("CompileError")


def test_auto_falls_back_when_the_cache_is_not_writable(fresh_build, monkeypatch):
    pytest.importorskip("cffi")

    def refuse(*args, **kwargs):
        raise PermissionError("cache directory is read-only")

    monkeypatch.setattr(native.os, "makedirs", refuse)
    _assert_falls_back("PermissionError")


@pytest.mark.skipif(not native_available(), reason="native kernel not buildable here")
@pytest.mark.parametrize("size,sidecar", [(1000, "stale"), (4096, "missing")])
def test_truncated_cached_kernel_is_rebuilt_not_loaded(tmp_path, size, sidecar):
    """A cached object cut short used to kill the loading process with
    SIGBUS.  Now it fails its checksum and is rebuilt."""
    good = native.module_path()
    cache = tmp_path / "cache"
    cache.mkdir()
    damaged = cache / os.path.basename(good)
    with open(good, "rb") as handle:
        damaged.write_bytes(handle.read(size))
    if sidecar == "stale":
        shutil.copy(good + ".sha256", str(damaged) + ".sha256")
    script = (
        "from repro.sat import CdclSolver\n"
        "from repro.workloads.cnf_families import pigeonhole\n"
        "solver = CdclSolver(pigeonhole(4))\n"
        "print(solver.solve().status.value, solver._kernel.name)\n"
    )
    env = dict(os.environ, REPRO_KERNEL_CACHE=str(cache), PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["unsat", "native"]
    assert native._verified(str(damaged))
