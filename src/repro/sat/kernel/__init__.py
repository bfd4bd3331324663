"""The solver's data plane: BCP and conflict-analysis kernels.

``SolverConfig.backend`` selects the plane.  Both planes run the same
search, byte for byte:

``"python"``
    :class:`~repro.sat.kernel.pykernel.PythonBcpKernel` /
    :class:`~repro.sat.kernel.pykernel.PythonAnalyzeKernel`: propagation
    and the first-UIP walk in pure Python over flat ``array('i')``
    columns and typed solver state.  Always available; the semantics
    reference the native plane is fuzzed against.
``"native"``
    :class:`~repro.sat.kernel.native.NativeBcpKernel` /
    :class:`~repro.sat.kernel.native.NativeAnalyzeKernel`: the same
    loops compiled to C (cffi), aliasing the same arrays zero-copy,
    fused into one ``search_step`` call that propagates and analyzes
    the conflict without re-crossing the FFI boundary.  Needs cffi and
    a C compiler; the extension is compiled on first use and cached
    (see :mod:`repro.sat.kernel.native`).  Raises :class:`RuntimeError`
    at solver construction where it cannot be built.
``"auto"`` (the default)
    ``"native"`` when :func:`native_available`, else ``"python"`` —
    with one :class:`RuntimeWarning` per process carrying
    :func:`native_unavailable_reason`.

See :mod:`repro.sat.kernel.base` for the seam contracts and
``docs/architecture.md`` ("Propagation data plane" / "Conflict-analysis
plane") for the layouts.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Tuple

from repro.sat.kernel.base import AnalyzeKernelBase, BcpKernelBase
from repro.sat.kernel.columns import ClauseLitMirror, WatchColumns
from repro.sat.kernel.native import (
    NativeAnalyzeKernel,
    NativeBcpKernel,
    native_available,
    native_unavailable_reason,
)
from repro.sat.kernel.pykernel import PythonAnalyzeKernel, PythonBcpKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sat.solver import CdclSolver

#: Valid values of ``SolverConfig.backend``.
BACKENDS = ("auto", "python", "native")

#: Whether ``"auto"`` has already warned about falling back (once per
#: process).
_fallback_warned = False


def resolve_backend(backend: str) -> str:
    """The plane ``backend`` binds on this host: ``"python"`` or
    ``"native"``.  ``"auto"`` falls back to python, warning once per
    process; an explicit ``"native"`` is returned as is (its kernels
    raise where they cannot be built)."""
    global _fallback_warned
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend != "auto":
        return backend
    if native_available():
        return "native"
    if not _fallback_warned:
        _fallback_warned = True
        warnings.warn(
            f"backend='auto' is using the python kernel: "
            f"{native_unavailable_reason()}",
            RuntimeWarning,
            stacklevel=3,
        )
    return "python"


def create_kernels(
    solver: "CdclSolver", backend: str
) -> Tuple[BcpKernelBase, AnalyzeKernelBase]:
    """The (BCP, analysis) kernel pair of the plane ``backend`` binds."""
    if resolve_backend(backend) == "native":
        bcp = NativeBcpKernel(solver)
        return bcp, NativeAnalyzeKernel(solver, bcp)
    return PythonBcpKernel(solver), PythonAnalyzeKernel(solver)


__all__ = [
    "AnalyzeKernelBase",
    "BACKENDS",
    "BcpKernelBase",
    "ClauseLitMirror",
    "NativeAnalyzeKernel",
    "NativeBcpKernel",
    "PythonAnalyzeKernel",
    "PythonBcpKernel",
    "WatchColumns",
    "create_kernels",
    "native_available",
    "native_unavailable_reason",
    "resolve_backend",
]
