"""Pin the OpenBLAS copies bundled with numpy and scipy to one thread.

Every BLAS call in liqdrop is a small gemv or gemm (structure factors,
L-BFGS updates, 3-vector products).  A second BLAS thread does no useful
work on them; it spins, and doubles the CPU time of a run without shortening
it.  The setting is process-wide: it holds for every numpy and scipy caller
in the interpreter that imports liqdrop.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy
import scipy

# (package, library directory of its wheel, file pattern, setter symbol)
_OPENBLAS = (
    (numpy, "numpy.libs", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    (scipy, "scipy.libs", "libscipy_openblas*.so", "scipy_openblas_set_num_threads"),
)


def pin_one_thread() -> None:
    """Set each bundled OpenBLAS to one thread; a missing library or symbol
    is skipped."""
    for package, libdir, pattern, symbol in _OPENBLAS:
        site = os.path.dirname(os.path.dirname(package.__file__))
        for path in glob.glob(os.path.join(site, libdir, pattern)):
            try:
                setter = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
