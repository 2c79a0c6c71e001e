"""Importing liqdrop pins the OpenBLAS copies bundled with numpy and scipy."""

import ctypes
import glob
import os

import numpy
import pytest
import scipy

import liqdrop  # noqa: F401


@pytest.mark.parametrize(
    "package, libdir, pattern, getter",
    [
        (numpy, "numpy.libs", "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        (scipy, "scipy.libs", "libscipy_openblas*.so", "scipy_openblas_get_num_threads"),
    ],
)
def test_bundled_openblas_runs_one_thread(package, libdir, pattern, getter):
    site = os.path.dirname(os.path.dirname(package.__file__))
    paths = glob.glob(os.path.join(site, libdir, pattern))
    if not paths:
        pytest.skip(f"no bundled OpenBLAS in {libdir}")
    for path in paths:
        get = getattr(ctypes.CDLL(path), getter, None)
        if get is None:
            pytest.skip(f"{os.path.basename(path)} has no {getter}")
        get.argtypes = []
        get.restype = ctypes.c_int
        assert get() == 1
