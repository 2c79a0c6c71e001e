"""Free-space Coulomb energy of gridded charge fields by FFT convolution.

D(f) = (1/2) double integral f(x) f(y) / |x-y| for a density held constant on
cubic cells of pitch h.  Cell-cell interactions use the midpoint 1/r kernel;
the diagonal uses the exact self-integral of a uniform cube, which is what
keeps the quadratic form positive and the energy O(h^2)-accurate.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _fft

__all__ = [
    "CUBE_SELF_INTEGRAL",
    "freespace_coulomb_energy",
    "grid_kernel",
    "grid_potential",
]

# double integral over [0,1]^3 x [0,1]^3 of 1/|x-y|; frozen from an
# independent Monte-Carlo run (1e9 pairs) cross-checked against the
# escalating-quadrature path in potentials.py
CUBE_SELF_INTEGRAL = 1.8823126443897


def grid_kernel(shape: tuple, h: float):
    """Transform of the cell-cell kernel for fields of ``shape`` at pitch
    ``h``, with the zero-padded grid shape; fields of one shape and pitch can
    share it."""
    m = [2 * n for n in shape]
    axes_off = [np.minimum(np.arange(mi), mi - np.arange(mi)) for mi in m]
    ox, oy, oz = np.meshgrid(*axes_off, indexing="ij", sparse=True)
    r2 = (ox.astype(float)) ** 2 + (oy.astype(float)) ** 2 + (oz.astype(float)) ** 2
    with np.errstate(divide="ignore"):
        ker = 1.0 / (h * np.sqrt(r2))
    ker[0, 0, 0] = CUBE_SELF_INTEGRAL / h
    return _fft.rfftn(ker), m


def grid_potential(values: np.ndarray, h: float, kernel=None) -> np.ndarray:
    """Potential of the gridded charge f at the cell centers (same shape).

    ``kernel`` is ``grid_kernel(values.shape, h)``, built here when omitted.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim != 3:
        raise ValueError("charge field must be a 3d array")
    ker_hat, m = grid_kernel(f.shape, h) if kernel is None else kernel
    fpad = np.zeros(m)
    fpad[: f.shape[0], : f.shape[1], : f.shape[2]] = f
    conv = _fft.irfftn(_fft.rfftn(fpad) * ker_hat, s=m)
    return h**3 * conv[: f.shape[0], : f.shape[1], : f.shape[2]]


def freespace_coulomb_energy(values: np.ndarray, h: float) -> float:
    """D(f) >= 0 for the piecewise-constant charge field ``values``."""
    f = np.asarray(values, dtype=float)
    pot = grid_potential(f, h)
    return 0.5 * h**3 * float(np.sum(f * pot))
