"""Lattice zeta functions by incomplete-gamma (theta) representation.

For a rank-3 lattice L define zeta_L(s) = (1/2) sum over nonzero v in L of
|v|^-s, convergent for Re s > 3 and continued to the complex plane minus the
pole at s = 3.  With L normalized to unit cell volume and D its dual lattice,
splitting the Mellin integral of the theta function at t = 1 gives

    pi^(-s/2) Gamma(s/2) 2 zeta_L(s)
        = 2/(s-3) - 2/s
        + sum_{v in L, v != 0} Gamma(s/2, pi |v|^2) (pi |v|^2)^(-s/2)
        + sum_{w in D, w != 0} Gamma((3-s)/2, pi |w|^2) (pi |w|^2)^(-(3-s)/2),

which is manifestly invariant under (s, L) -> (3-s, D) and converges like
exp(-pi r^2) in the summation radius.  General lattices reduce to unit
covolume by homogeneity: zeta_{c L}(s) = c^-s zeta_L(s).

Special points: 1/Gamma(s/2) kills the bracket at s = 0 except for the -2/s
pole, giving zeta_L(0) = -1/2 for every lattice; at negative even integers
1/Gamma(s/2) = 0 while the bracket stays finite, so those are zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import exp1, gamma as _gamma, gammaincc

from liqdrop.geom import Lattice, lattice_vectors

__all__ = ["ZetaValue", "epstein_zeta", "epstein_zeta_direct", "completed_zeta", "upper_gamma"]

# summation radius: tail terms scale like exp(-pi r^2), so r = 3.9 puts the
# truncation near 2e-21, comfortably below the 1e-12 error reported
_RMAX = 3.9
_TAIL = 1e-12


def upper_gamma(a: float, x) -> np.ndarray:
    """Upper incomplete gamma Gamma(a, x) for real a (may be <= 0) and x > 0.

    scipy's regularized ``gammaincc`` times Gamma(a) for a > 0, ``exp1`` at
    a = 0; negative ``a`` is lifted by the recurrence
    Gamma(a, x) = (Gamma(a+1, x) - x^a e^-x) / a.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("upper_gamma requires x > 0")
    if a == 0.0:
        # base of the recurrence when a is a non-positive integer
        return exp1(x)
    if a < 0.0:
        # climb to positive a; depth is at most a few steps for our range
        return (upper_gamma(a + 1.0, x) - x**a * np.exp(-x)) / a
    return gammaincc(a, x) * _gamma(a)


@dataclass(frozen=True)
class ZetaValue:
    s: float
    value: float
    error: float


def _unit_covolume(lattice: Lattice):
    lam = lattice.covolume ** (1.0 / 3.0)
    unit = Lattice(basis=lattice.basis / lam, density=1.0, kind=lattice.kind)
    return unit, lam


def _theta_sum(lattice: Lattice, a: float) -> float:
    """sum over nonzero v of Gamma(a, pi |v|^2) (pi |v|^2)^(-a)."""
    vecs = lattice_vectors(lattice, _RMAX)
    y = np.pi * np.sum(vecs**2, axis=1)
    return float(np.sum(upper_gamma(a, y) * y ** (-a)))


def completed_zeta(lattice: Lattice, s: float) -> float:
    """Symmetric completion Z_L(s) = pi^(-s/2) Gamma(s/2) 2 zeta_L(s).

    Normalized internally to unit covolume; satisfies Z_L(s) = Z_D(3-s)
    exactly, which makes it the natural object for functional-equation
    checks.  Pole at s = 3 (and s = 0 from the Gamma factor).
    """
    if s in (0.0, 3.0):
        raise ValueError("completed zeta has poles at s = 0 and s = 3")
    unit, _ = _unit_covolume(lattice)
    dual = unit.dual()
    bracket = (
        2.0 / (s - 3.0)
        - 2.0 / s
        + _theta_sum(unit, s / 2.0)
        + _theta_sum(dual, (3.0 - s) / 2.0)
    )
    return bracket


def epstein_zeta(lattice: Lattice, s: float) -> ZetaValue:
    """Analytically continued zeta_L(s) = (1/2) sum' |v|^-s.

    Valid for every real s except the pole at s = 3.  The reported error
    combines the summation tail with an O(1) float roundoff allowance.
    """
    s = float(s)
    if s == 3.0:
        raise ValueError("zeta_L has a simple pole at s = 3")
    unit, lam = _unit_covolume(lattice)
    scale = lam ** (-s)
    if s == 0.0:
        # bracket pole -2/s cancels the Gamma pole: the limit is -1/2
        return ZetaValue(s=s, value=-0.5 * scale, error=1e-15)
    if s < 0.0 and s == 2.0 * round(s / 2.0):
        # trivial zeros: 1/Gamma(s/2) vanishes, bracket finite
        return ZetaValue(s=s, value=0.0, error=1e-15)
    bracket = completed_zeta(lattice, s)
    value = 0.5 * np.pi ** (s / 2.0) / _gamma(s / 2.0) * bracket
    err = _TAIL + 1e-14 * abs(value)
    return ZetaValue(s=s, value=scale * value, error=scale * err)


def epstein_zeta_direct(lattice: Lattice, s: float, rmax: float = 40.0):
    """Brute-force partial sum for Re s > 3, with an integral tail estimate.

    Returns ``(value, tail)`` where ``tail`` bounds the truncation using
    a shell-count comparison: the number of lattice points per radius grows
    like 4 pi rho r^2, so the tail is about 2 pi rho rmax^(3-s)/(s-3).
    """
    if s <= 3.0:
        raise ValueError("direct summation requires s > 3")
    vecs = lattice_vectors(lattice, rmax)
    r = np.linalg.norm(vecs, axis=1)
    value = 0.5 * float(np.sum(r ** (-s)))
    rho = lattice.density
    tail = 2.0 * np.pi * rho * rmax ** (3.0 - s) / (s - 3.0)
    # shell-count fluctuation allowance on top of the smooth estimate
    return value, 2.0 * tail
