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

# double integral over [0,1]^3 x [0,1]^3 of 1/|x-y|, which has the closed
# form 2 [(1 + sqrt2 - 2 sqrt3) / 5 - pi / 3 + ln((1 + sqrt2)(2 + sqrt3))]
# = 1.8823126443896605; the frozen value agrees with it to 4e-14 and stays
# as it is, because every grid energy depends on its last digit
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

    The convolution runs on the zero-padded grid without building it: each
    pass transforms only the lines that hold data.  Forward: rfft along
    axis 2, then fft along axis 0, then fft along axis 1, each padding with
    ``n=``.  Inverse: ifft along axis 0, keep the first shape[0] rows; ifft
    along axis 1, keep the first shape[1]; irfft along axis 2 and crop.
    These are scipy's rfftn and irfftn axis orders, and the inverse is
    scaled once at the end by pocketfft's own factor, 1/(m0 m1 m2) rounded
    from long double, so the result equals the full padded transforms bit
    for bit.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim != 3:
        raise ValueError("charge field must be a 3d array")
    ker_hat, m = grid_kernel(f.shape, h) if kernel is None else kernel
    n0, n1, n2 = f.shape
    g = _fft.rfft(f, n=m[2], axis=2)
    g = _fft.fft(g, n=m[0], axis=0, overwrite_x=True)
    g = _fft.fft(g, n=m[1], axis=1, overwrite_x=True)
    g *= ker_hat
    g = _fft.ifft(g, axis=0, norm="forward", overwrite_x=True)[:n0]
    g = _fft.ifft(g, axis=1, norm="forward", overwrite_x=True)[:, :n1]
    conv = _fft.irfft(g, n=m[2], axis=2, norm="forward")[:, :, :n2]
    scale = float(1 / np.longdouble(m[0] * m[1] * m[2]))
    return h**3 * (conv * scale)


def freespace_coulomb_energy(values: np.ndarray, h: float) -> float:
    """D(f) >= 0 for the piecewise-constant charge field ``values``."""
    f = np.asarray(values, dtype=float)
    pot = grid_potential(f, h)
    return 0.5 * h**3 * float(np.sum(f * pot))
