"""Free-space Coulomb energy of gridded charge fields by FFT convolution.

D(f) = (1/2) double integral f(x) f(y) / |x-y| for a density held constant on
cubic cells of pitch h.  Cell-cell interactions use the midpoint 1/r kernel;
the diagonal uses the exact self-integral of a uniform cube, which is what
keeps the quadratic form positive and the energy O(h^2)-accurate.

The convolution is the zero-padded one of Hockney & Eastwood (Computer
Simulation Using Particles, 1988) on a grid of m = 2 * shape cells per axis,
but no array of the whole padded grid is built.  The padded kernel depends on
each axis only through the offset min(k, m - k), so it is even in every axis:
1/r is evaluated on the octant of offsets 0..m/2 only, and each transform
pass runs on lines gathered from that octant with the mirror index.  Mirrored
lines have identical inputs, so their transforms are equal bit for bit, and
the result is that of scipy's ``rfftn`` of the full kernel.  The field is
transformed along axis 2 once; each block of ``_SLAB`` planes of that
spectrum then runs its own axis-0 and axis-1 passes, meets its block of the
kernel, and goes back through the inverse axis-0 and axis-1 passes before
the final inverse along axis 2.  Besides its input and output, a call holds
the axis-2 spectrum of each field and the kernel's axis-2 transform over the
octant, each about twice the size of one real field, and a few arrays of
one slab of the padded grid.  For two 128^3 fields that is 68 + 34 MB plus
at most 17 MB per slab array, where the full padded transforms held 135 MB
per array.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _fft

__all__ = [
    "CUBE_SELF_INTEGRAL",
    "grid_potential",
]

# double integral over [0,1]^3 x [0,1]^3 of 1/|x-y|, which has the closed
# form 2 [(1 + sqrt2 - 2 sqrt3) / 5 - pi / 3 + ln((1 + sqrt2)(2 + sqrt3))]
# = 1.8823126443896605; the frozen value agrees with it to 4e-14 and stays
# as it is, because every grid energy depends on its last digit
CUBE_SELF_INTEGRAL = 1.8823126443897

# axis-2 frequency planes per slab; the slab size changes no value
_SLAB = 8


def _mirror(m: int) -> np.ndarray:
    """Offset min(k, m - k) of each index k of a padded axis of m cells."""
    k = np.arange(m)
    return np.minimum(k, m - k)


def _kernel_z(shape: tuple, h: float) -> np.ndarray:
    """Axis-2 rfft of the padded cell-cell kernel for fields of ``shape`` at
    pitch ``h``, one line per pair of axis-0 and axis-1 offsets: a complex
    (m0/2+1, m1/2+1, m2/2+1) array."""
    ox, oy, oz = np.meshgrid(*[np.arange(n + 1) for n in shape], indexing="ij", sparse=True)
    ker = (ox.astype(float)) ** 2 + (oy.astype(float)) ** 2 + (oz.astype(float)) ** 2
    np.sqrt(ker, out=ker)
    ker *= h
    with np.errstate(divide="ignore"):
        np.divide(1.0, ker, out=ker)
    ker[0, 0, 0] = CUBE_SELF_INTEGRAL / h
    return _fft.rfft(ker[:, :, _mirror(2 * shape[2])], axis=2)


def grid_potential(values: np.ndarray, h: float) -> np.ndarray:
    """Potential of the gridded charge f at the cell centers (same shape).

    ``values`` is one field or a stack of fields whose last three axes are
    the grid; the kernel is built once per call for all of them.

    The passes run in scipy's ``rfftn`` and ``irfftn`` axis orders, each
    padding with ``n=`` and transforming only the lines that hold data.
    Forward: rfft along axis 2, then, one slab of ``_SLAB`` axis-2
    frequencies at a time, fft along axis 0, then along axis 1.  The
    kernel's slab comes from its octant the same way: fft along axis 0 on
    rows gathered by the mirror index, then along axis 1 on columns gathered
    the same way.  Inverse, in the slab: ifft along axis 0, keep the first
    shape[0] rows; ifft along axis 1, keep the first shape[1].  Last, irfft
    along axis 2 one axis-0 row at a time into the cropped output.  The
    inverse is scaled once at the end by pocketfft's own factor, 1/(m0 m1
    m2) rounded from long double, and then by h^3, so the result equals the
    full padded transforms bit for bit.  Running the inverse axis-1 pass
    before the axis-0 one does not.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim < 3:
        raise ValueError("charge field must be a 3d array or a stack of them")
    n0, n1, n2 = f.shape[-3:]
    m0, m1, m2 = 2 * n0, 2 * n1, 2 * n2
    ker_z = _kernel_z((n0, n1, n2), h)
    mir0, mir1 = _mirror(m0), _mirror(m1)
    g = _fft.rfft(f, n=m2, axis=-1)
    for lo in range(0, n2 + 1, _SLAB):
        blk = slice(lo, lo + _SLAB)
        ker = _fft.fft(ker_z[mir0, :, blk], axis=0)
        ker = _fft.fft(ker[:, mir1], axis=1, overwrite_x=True)
        s = _fft.fft(g[..., blk], n=m0, axis=-3)
        s = _fft.fft(s, n=m1, axis=-2, overwrite_x=True)
        s *= ker
        s = _fft.ifft(s, axis=-3, norm="forward", overwrite_x=True)[..., :n0, :, :]
        s = _fft.ifft(s, axis=-2, norm="forward", overwrite_x=True)[..., :n1, :]
        g[..., blk] = s
    out = np.empty(f.shape)
    for i in range(n0):
        out[..., i, :, :] = _fft.irfft(g[..., i, :, :], n=m2, axis=-1, norm="forward")[..., :n2]
    out *= float(1 / np.longdouble(m0 * m1 * m2))
    out *= h**3
    return out

