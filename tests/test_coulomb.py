"""Coulomb layer: lattice sums, periodic kernel, closed-form potentials."""

import math
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy import fft as scipy_fft
from scipy.special import erfc

from liqdrop.coulomb import (
    CUBE_SELF_INTEGRAL,
    PeriodicKernel,
    completed_zeta,
    domain_pair_coulomb,
    epstein_zeta,
    epstein_zeta_direct,
    madelung_z3,
    potential_ball,
    potential_box,
    potential_cube,
    potential_domain,
    potential_tetra,
    tetra_field,
    upper_gamma,
)
from liqdrop.coulomb.ewald import _BLOCK, _CACHE_BLOCK, _MIN_SHIFTS, _block_shifts
from liqdrop.coulomb.grid import grid_potential
from liqdrop.coulomb.potentials import (
    TetraBody,
    _box_gradient,
    _brick_antiderivative,
)
from liqdrop.geom import (
    Ball,
    BallUnion,
    Cube,
    Tetrahedron,
    make_lattice,
    regular_tetrahedron,
    voxelize,
)

# independently derived high-precision reference values
MADELUNG_Z3 = -2.837297479480619
ZETA_BCC_1 = -1.4442307515269701
ZETA_SC_1 = -1.4186487397403098
ZETA_FCC_1 = -1.4441410595101616
ZETA_SC_MINUS_1 = -0.13329813935919682
GREEN_UNIT_HALF = -0.8019359700280242  # unit cell, x = (1/2, 1/2, 1/2)
GREEN_UNIT_MIXED = -0.4071807084095082  # unit cell, x = (1/2, 1/4, 1/8)
CUBE_CENTER_POTENTIAL = 2.38007736397955
TETRA_SELF_INTEGRAL = 1.7719175767900737
TETRA_PROBE_POTENTIAL = 2.1663728273038916  # unit regular tetra at (0.1,-0.05,0.2)


# ---------------------------------------------------------------------------
# incomplete gamma continuation
# ---------------------------------------------------------------------------


def test_upper_gamma_matches_mpmath():
    # the orders the zeta command meets: s/2 and (3 - s)/2 at s = 0.5, 1, 2.5, 5
    x = np.linspace(1.0, 50.0, 50)
    for a in (-1.0, 0.25, 0.5, 1.0, 1.25, 2.5):
        with mpmath.workdps(30):
            expected = [float(mpmath.gammainc(a, mpmath.mpf(float(v)))) for v in x]
        np.testing.assert_allclose(upper_gamma(a, x), expected, rtol=1e-13)


def test_upper_gamma_recurrence_at_negative_order():
    # Gamma(a+1, x) = a Gamma(a, x) + x^a e^(-x) continues to a < 0
    x = np.array([0.2, 1.0, 3.7])
    for a in (-0.5, -1.25):
        lhs = upper_gamma(a + 1.0, x)
        rhs = a * upper_gamma(a, x) + x**a * np.exp(-x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11)


# ---------------------------------------------------------------------------
# analytically continued lattice sums
# ---------------------------------------------------------------------------


def test_zeta_regression_values():
    assert epstein_zeta(make_lattice("bcc"), 1.0).value == pytest.approx(
        ZETA_BCC_1, abs=1e-12
    )
    assert epstein_zeta(make_lattice("sc"), 1.0).value == pytest.approx(
        ZETA_SC_1, abs=1e-12
    )
    assert epstein_zeta(make_lattice("fcc"), 1.0).value == pytest.approx(
        ZETA_FCC_1, abs=1e-12
    )
    # continuation below the abscissa of convergence, even below s = 0
    assert epstein_zeta(make_lattice("sc"), -1.0).value == pytest.approx(
        ZETA_SC_MINUS_1, abs=1e-12
    )


@pytest.mark.parametrize("kind", ["sc", "bcc", "fcc"])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
def test_zeta_functional_equation(kind, s):
    lat = make_lattice(kind)
    resid = abs(completed_zeta(lat, s) - completed_zeta(lat.dual(), 3.0 - s))
    assert resid <= 1e-10


def test_zeta_matches_brute_force_in_convergent_region():
    for kind in ("sc", "bcc", "fcc"):
        lat = make_lattice(kind)
        val, err = epstein_zeta_direct(lat, 5.0, rmax=30.0)
        z = epstein_zeta(lat, 5.0)
        assert abs(z.value - val) <= err + z.error


def test_zeta_density_scaling():
    # halving all distances scales |v|^(-s) sums by 2^s: zeta is homogeneous
    lat1 = make_lattice("bcc", 1.0)
    lat8 = make_lattice("bcc", 8.0)  # distances halve
    s = 1.7
    assert epstein_zeta(lat8, s).value == pytest.approx(
        2.0**s * epstein_zeta(lat1, s).value, rel=1e-12
    )


# ---------------------------------------------------------------------------
# periodic kernel
# ---------------------------------------------------------------------------


def test_madelung_values_and_scaling():
    assert madelung_z3() == pytest.approx(MADELUNG_Z3, abs=1e-12)
    assert madelung_z3(2.0) == pytest.approx(MADELUNG_Z3 / 2.0, abs=1e-12)
    k = PeriodicKernel(1.0)
    assert k.madelung() == pytest.approx(MADELUNG_Z3, abs=1e-12)


def test_madelung_keeps_every_bit_at_the_default_alpha():
    assert madelung_z3(1.0) == MADELUNG_Z3
    # the bits of the previous default, alpha = pi (full ball of k-vectors)
    assert PeriodicKernel(1.0, alpha=math.pi).madelung() == MADELUNG_Z3


def _full_ball(k):
    """Every k-vector of the cutoff ball, both signs, with the unpaired
    coefficient 4 pi exp(-k^2/(4 alpha)) / (ell^3 k^2)."""
    kcut = 2.0 * np.sqrt(k.alpha * np.log(1.0 / k.tol)) + 2.0 * np.pi / k.ell
    nmax = int(np.ceil(kcut * k.ell / (2.0 * np.pi)))
    rng = np.arange(-nmax, nmax + 1)
    grid = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), -1).reshape(-1, 3)
    kvecs = grid * (2.0 * np.pi / k.ell)
    k2 = np.sum(kvecs**2, axis=1)
    keep = (k2 > 0.0) & (np.sqrt(k2) <= kcut)
    kvecs, k2 = kvecs[keep], k2[keep]
    return kvecs, (4.0 * np.pi / k.ell**3) * np.exp(-k2 / (4.0 * k.alpha)) / k2


def test_half_space_k_sum_equals_full_ball():
    n = 16
    ell = n ** (1.0 / 3.0)
    k = PeriodicKernel(ell)
    assert (len(k.shifts), len(k.kvecs)) == (29, 775)
    full, coef = _full_ball(k)
    # the kept half and its mirror image are the whole ball, each k once
    both = np.concatenate([k.kvecs, -k.kvecs])
    assert len(both) == len(full) == 1550
    assert {tuple(v) for v in np.round(both * ell / (2 * np.pi)).astype(int)} == {
        tuple(v) for v in np.round(full * ell / (2 * np.pi)).astype(int)
    }
    pos = np.random.default_rng(16).random((n, 3)) * ell
    e, g = k.energy_and_gradient(pos)
    ball = PeriodicKernel(ell)
    ball.kvecs, ball.kcoef = full, coef
    e_ref, g_ref = _broadcast_energy_and_gradient(ball, pos)
    assert e == pytest.approx(e_ref, rel=1e-14, abs=1e-14)
    np.testing.assert_allclose(g, g_ref, rtol=0.0, atol=1e-13)
    x = np.array([[0.31, 0.12, 0.44], [0.5, 0.5, 0.5]]) * ell
    np.testing.assert_allclose(k.green(x), ball.green(x), rtol=0.0, atol=1e-14)
    assert k.madelung() == pytest.approx(ball.madelung(), rel=0.0, abs=1e-14)


@pytest.mark.parametrize("n", [16, 54, 128])
def test_default_alpha_agrees_with_pi_over_ell_squared(n):
    ell = n ** (1.0 / 3.0)
    pos = np.random.default_rng(300 + n).random((n, 3)) * ell
    e, g = PeriodicKernel(ell).energy_and_gradient(pos)
    e_pi, g_pi = PeriodicKernel(ell, alpha=np.pi / ell**2).energy_and_gradient(pos)
    bound = 1e-12 * max(1.0, abs(e))
    assert abs(e - e_pi) <= bound
    assert np.abs(g - g_pi).max() <= bound


def test_green_function_frozen_values():
    k = PeriodicKernel(1.0)
    assert k.green([(0.5, 0.5, 0.5)])[0] == pytest.approx(
        GREEN_UNIT_HALF, abs=1e-12
    )
    assert k.green([(0.5, 0.25, 0.125)])[0] == pytest.approx(
        GREEN_UNIT_MIXED, abs=1e-12
    )


def test_green_alpha_independence():
    x = np.array([[0.31, 0.12, 0.44], [0.5, 0.5, 0.5]])
    base = PeriodicKernel(1.0).green(x)
    for alpha in (1.3, math.pi, 7.0):
        np.testing.assert_allclose(
            PeriodicKernel(1.0, alpha=alpha).green(x), base, atol=1e-12
        )


def test_green_homogeneity_in_cell_size():
    # kernel at period ell, evaluated at ell*u, equals kernel at period 1 over ell
    u = np.array([[0.5, 0.5, 0.5], [0.5, 0.25, 0.125], [0.1, 0.7, 0.32]])
    g1 = PeriodicKernel(1.0).green(u)
    for ell in (0.5, 2.0, 3.7):
        gell = PeriodicKernel(ell).green(ell * u)
        np.testing.assert_allclose(gell, g1 / ell, atol=1e-12)


def test_green_lattice_periodicity():
    k = PeriodicKernel(1.3)
    x = np.array([[0.2, 0.33, 0.47]])
    np.testing.assert_allclose(
        k.green(x + np.array([1.3, -2.6, 3.9])), k.green(x), atol=1e-12
    )


@pytest.mark.parametrize("n", [2, 7, 16, 54])
def test_energy_and_gradient_invariances(n):
    ell = n ** (1.0 / 3.0)
    k = PeriodicKernel(ell)
    rng = np.random.default_rng(100 + n)
    pts = rng.random((n, 3)) * ell
    e, g = k.energy_and_gradient(pts)
    # the wrappers return exactly the fused results
    assert k.pair_energy(pts) == e
    np.testing.assert_array_equal(k.pair_gradient(pts), g)

    def check(moved, order):
        e2, g2 = k.energy_and_gradient(moved)
        assert e2 == pytest.approx(e, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(g2, g[order], rtol=1e-9, atol=1e-11)

    ident = np.arange(n)
    check(pts + rng.normal(size=3), ident)
    for axis in range(3):
        moved = pts.copy()
        moved[n // 2, axis] += ell
        check(moved, ident)
    perm = rng.permutation(n)
    check(pts[perm], perm)


def _direct_k_space(k, pos):
    """Reference: the structure-factor sum from cos and sin of every k.x."""
    phase = pos @ k.kvecs.T
    c, s = np.cos(phase), np.sin(phase)
    ctot, stot = c.sum(axis=0), s.sum(axis=0)
    recip = 0.5 * np.dot(k.kcoef, ctot**2 + stot**2 - len(pos))
    cross = s * ctot[None, :] - c * stot[None, :]
    return recip, -(cross * k.kcoef[None, :]) @ k.kvecs


def _table_k_space(k, pos):
    """Reference: e^{ik.x} as the product, in axis order, of per-axis table
    columns e^{i m theta_a}, theta_a = 2 pi x_a / ell; negative m mirror the
    non-negative ones by conjugation."""
    m = np.rint(k.kvecs * k.ell / (2.0 * np.pi)).astype(int)
    nmax = int(np.abs(m).max())
    mtheta = (pos.T * (2.0 * np.pi / k.ell))[:, :, None] * np.arange(nmax + 1.0)
    half = np.empty(mtheta.shape, complex)
    half.real, half.imag = np.cos(mtheta), np.sin(mtheta)
    table = np.concatenate([np.conj(half[:, :, :0:-1]), half], axis=2)
    cols = m + nmax
    eik = table[0][:, cols[:, 0]] * table[1][:, cols[:, 1]] * table[2][:, cols[:, 2]]
    # point-major, as in the kernel: the sum over points runs row by row and
    # the product with kvecs sees the same memory order
    eik = np.ascontiguousarray(eik)
    sk = sum(eik[1:], eik[0])
    recip = 0.5 * np.dot(k.kcoef, sk.real**2 + sk.imag**2 - len(pos))
    cross = (eik * np.conj(sk)).imag * k.kcoef
    return recip, -cross @ k.kvecs


def _full_shift_ball(k):
    """Every lattice shift within rcut / ell + sqrt(3) / 2 cells: all images
    inside rcut of any displacement in the centered cell, in both signs of
    every axis."""
    reach = k.rcut / k.ell + np.sqrt(3.0) / 2.0 + 1e-9
    m = int(np.ceil(reach))
    rng = np.arange(-m, m + 1)
    grid = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), -1).reshape(-1, 3)
    return grid[np.linalg.norm(grid, axis=1) <= reach] * k.ell


def _broadcast_energy_and_gradient(k, pos, k_space=_direct_k_space, folded=False):
    """Reference: the real-space sum over one (pairs, shifts, 3) array, with
    the kernel's rule that erfc is zero at r >= rcut, and the k-space sum by
    ``k_space``.

    By default the sum runs at the minimum-image displacement dx over the
    full ball of shifts (``_full_shift_ball``), which shares nothing with the
    kernel's fold, and ``np.add.at`` scatters the pair forces.  ``folded``
    repeats the kernel's own steps instead: the sum at |dx| over
    ``k.shifts``, the sign of dx on the forces, and a ``np.bincount``
    scatter."""
    n = len(pos)
    iu, ju = np.triu_indices(n, k=1)
    dx = pos[iu] - pos[ju]
    dx -= k.ell * np.round(dx / k.ell)
    if folded:
        d = np.abs(dx)[:, None, :] - k.shifts[None, :, :]
    else:
        d = dx[:, None, :] - _full_shift_ball(k)[None, :, :]
    r = np.linalg.norm(d, axis=-1)
    sa = np.sqrt(k.alpha)
    screened = np.where(sa * r < sa * k.rcut, erfc(sa * r), 0.0)
    real = np.sum(screened / r)
    mag = screened / r**2 + (2.0 * sa / np.sqrt(np.pi)) * np.exp(-k.alpha * r**2) / r
    forces = np.sum((mag / r)[:, :, None] * d, axis=1)
    if folded:
        forces *= np.copysign(1.0, dx)
        grad = np.stack([np.bincount(ju, f, n) - np.bincount(iu, f, n)
                         for f in forces.T], axis=1)
    else:
        grad = np.zeros_like(pos)
        np.add.at(grad, iu, -forces)
        np.add.at(grad, ju, forces)
    recip, kgrad = k_space(k, pos)
    grad += kgrad
    npairs = n * (n - 1) / 2.0
    return real + recip - npairs * k.self_const, grad


def _block_regime(npair, nshift):
    """Which bound of the real-space block rule sets the block at ``npair``."""
    step = _block_shifts(npair)
    if step >= nshift:
        return "one block"
    if step == _BLOCK // npair < _MIN_SHIFTS:
        return "2^16 cap"
    if step == _MIN_SHIFTS > _CACHE_BLOCK // npair:
        return "32-shift floor"
    assert step == _CACHE_BLOCK // npair and nshift % step != 0
    return "2^14 blocks, partial last"


# every regime of the block rule, bit for bit: the folded real-space sum
# against the broadcast formula in the kernel's shift order, the k-space sum
# against the test-local phase tables.  The cases without a suffix use
# alpha = pi/ell^2 (178 folded shifts), the "default" cases the default
# alpha (29 folded shifts, fewer than the 32-shift floor, so only one block
# or the 2^16 cap).
@pytest.mark.parametrize(
    "n, regime, default_alpha",
    [
        pytest.param(2, "one block", False, id="2"),
        pytest.param(3, "one block", False, id="3"),
        pytest.param(16, "2^14 blocks, partial last", False, id="16"),
        pytest.param(27, "2^14 blocks, partial last", False, id="27"),
        pytest.param(54, "32-shift floor", False, id="54"),
        pytest.param(200, "2^16 cap", False, id="200"),
        pytest.param(16, "one block", True, id="16-default"),
        pytest.param(27, "one block", True, id="27-default"),
        pytest.param(54, "one block", True, id="54-default"),
        pytest.param(200, "2^16 cap", True, id="200-default"),
    ],
)
def test_energy_and_gradient_bitwise_equal_to_broadcast_formula(n, regime, default_alpha):
    rng = np.random.default_rng(500 + n)
    ell = n ** (1.0 / 3.0) * rng.uniform(0.5, 2.0)
    pts = rng.random((n, 3)) * ell * rng.uniform(0.5, 3.0)
    k = PeriodicKernel(ell, alpha=None if default_alpha else np.pi / ell**2)
    assert len(k.shifts) == (29 if default_alpha else 178)
    assert _block_regime(n * (n - 1) // 2, len(k.shifts)) == regime
    e, g = k.energy_and_gradient(pts)
    e_ref, g_ref = _broadcast_energy_and_gradient(k, pts, _table_k_space, folded=True)
    assert e == e_ref
    np.testing.assert_array_equal(g, g_ref)


@pytest.mark.parametrize("default_alpha", [True, False], ids=["default", "pi-over-ell2"])
@pytest.mark.parametrize("n", [2, 3, 16, 27, 54, 128, 200])
def test_energy_and_gradient_matches_direct_structure_factor(n, default_alpha):
    # the per-axis phase tables against cos and sin of every k.x, with
    # points up to 3 ell outside the cell
    rng = np.random.default_rng(700 + n)
    ell = n ** (1.0 / 3.0) * rng.uniform(0.5, 2.0)
    pts = rng.uniform(-3.0, 4.0, (n, 3)) * ell
    k = PeriodicKernel(ell, alpha=None if default_alpha else np.pi / ell**2)
    e, g = k.energy_and_gradient(pts)
    e_ref, g_ref = _broadcast_energy_and_gradient(k, pts)
    bound = 1e-12 * max(1.0, abs(e_ref))
    assert abs(e - e_ref) <= bound
    assert np.abs(g - g_ref).max() <= bound


def _fold_edge_points(ell):
    """Eight points on the ell / 4 grid, each moved by whole cells up to
    3 ell outside the cell, so that displacement components of exactly 0 and
    +-ell/2 remain after the minimum-image reduction."""
    q = ell / 4.0
    base = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 2], [2, 2, 2],
                     [1, 0, 3], [3, 1, 0], [0, 3, 1], [1, 1, 2]]) * q
    cells = np.array([[0, 0, 0], [3, 0, 0], [-3, 1, 0], [0, 0, -2],
                      [1, -3, 3], [0, 2, 0], [-1, -1, 3], [2, 0, -3]])
    return base + cells * ell


@pytest.mark.parametrize("default_alpha", [True, False], ids=["default", "pi-over-ell2"])
@pytest.mark.parametrize("ell", [2.0, 3.0, 16.0 ** (1.0 / 3.0)])
def test_fold_matches_the_full_shift_ball_at_zero_and_half_cell(ell, default_alpha):
    # components 0 and +-ell/2 are the edges of the fold: at 0 the sign of
    # dx is a choice, at ell/2 the image pair s and s - ell tie
    pts = _fold_edge_points(ell)
    k = PeriodicKernel(ell, alpha=None if default_alpha else np.pi / ell**2)
    iu, ju = np.triu_indices(len(pts), k=1)
    dx = pts[iu] - pts[ju]
    dx -= ell * np.round(dx / ell)
    assert np.any(dx == 0.0) and np.any(dx == ell / 2) and np.any(dx == -ell / 2)
    e, g = k.energy_and_gradient(pts)
    e_ref, g_ref = _broadcast_energy_and_gradient(k, pts)
    bound = 1e-12 * max(1.0, abs(e_ref))
    assert abs(e - e_ref) <= bound
    assert np.abs(g - g_ref).max() <= bound


@pytest.mark.parametrize("default_alpha", [True, False], ids=["default", "pi-over-ell2"])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_energy_and_gradient_under_an_axis_reflection(axis, default_alpha):
    # x -> -x on one axis maps the configuration onto its mirror image: the
    # energy stays and that column of the gradient flips sign
    n = 54
    ell = n ** (1.0 / 3.0)
    pts = np.random.default_rng(1300 + axis).uniform(-3.0, 4.0, (n, 3)) * ell
    k = PeriodicKernel(ell, alpha=None if default_alpha else np.pi / ell**2)
    e, g = k.energy_and_gradient(pts)
    mirror = pts.copy()
    mirror[:, axis] *= -1.0
    e2, g2 = k.energy_and_gradient(mirror)
    assert abs(e2 - e) <= 1e-13 * abs(e)
    flip = np.ones(3)
    flip[axis] = -1.0
    np.testing.assert_allclose(g2, g * flip, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("default_alpha", [True, False], ids=["default", "pi-over-ell2"])
@pytest.mark.parametrize("n", [2, 16, 54, 128])
def test_truncation_error_bounds_the_error_against_a_tol_1e20_kernel(n, default_alpha):
    # the real-space sum stops at rcut and the k-space sum at kcut; against
    # a kernel summed to tol = 1e-20, one pair errs by at most the estimate,
    # a configuration by at most the estimate per pair, and the estimate
    # meets tol.  Points lie up to 3 ell outside the cell.
    rng = np.random.default_rng(900 + n)
    ell = n ** (1.0 / 3.0)
    alpha = None if default_alpha else np.pi / ell**2
    configs = [rng.uniform(-3.0, 4.0, (n, 3)) * ell for _ in range(64 if n == 2 else 2)]
    exact = PeriodicKernel(ell, alpha=alpha, tol=1e-20)
    refs = [exact.energy_and_gradient(pos) for pos in configs]
    npairs = n * (n - 1) // 2
    for tol in (1e-6, 1e-8, 1e-10, 1e-13):
        k = PeriodicKernel(ell, alpha=alpha, tol=tol)
        assert 0.0 < k.truncation_error <= tol
        for pos, (e_ref, g_ref) in zip(configs, refs):
            e, g = k.energy_and_gradient(pos)
            assert abs(e - e_ref) <= npairs * k.truncation_error
            if tol == 1e-13:
                assert np.abs(g - g_ref).max() <= 1e-12


def test_energy_and_gradient_peak_memory_n128():
    n = 128
    ell = n ** (1.0 / 3.0)
    pts = np.random.default_rng(7).random((n, 3)) * ell
    k = PeriodicKernel(ell)
    tracemalloc.start()
    try:
        k.energy_and_gradient(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"ell": 1.0, "tol": 1.0}, "tol"),
        ({"ell": 1.0, "tol": 0.0}, "tol"),
        ({"ell": 1.0, "tol": 2.0}, "tol"),
        ({"ell": 1.0, "tol": -1.0}, "tol"),
        ({"ell": 1.0, "tol": math.nan}, "tol"),
        ({"ell": math.nan}, "ell"),
        ({"ell": math.inf}, "ell"),
        ({"ell": 0.0}, "ell"),
        ({"ell": -1.0}, "ell"),
        ({"ell": 1.0, "alpha": math.nan}, "alpha"),
        ({"ell": 1.0, "alpha": math.inf}, "alpha"),
        ({"ell": 1.0, "alpha": 0.0}, "alpha"),
        ({"ell": 1.0, "alpha": -2.0}, "alpha"),
    ],
)
def test_kernel_rejects_bad_parameters(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        PeriodicKernel(**kwargs)


def _assert_bitwise(result, reference):
    assert np.float64(result[0]).tobytes() == np.float64(reference[0]).tobytes()
    assert result[1].tobytes() == reference[1].tobytes()


def test_energy_and_gradient_raises_on_coincident_pair():
    n = 58
    k = PeriodicKernel(n ** (1.0 / 3.0))
    pts = np.random.default_rng(3).random((n, 3)) * k.ell
    pts[-1] = pts[-2]  # the last pair
    with pytest.raises(ValueError, match="coincident"):
        k.energy_and_gradient(pts)


def test_kernel_buffers_are_per_thread_and_follow_n():
    # one kernel keeps its scratch between calls, one set per thread: calls
    # at growing and shrinking n, and calls from two threads at once, give
    # the bits of a fresh kernel
    ell = 3.1
    rng = np.random.default_rng(11)
    configs = [rng.random((n, 3)) * ell for n in (7, 60, 2, 33, 60, 7)]
    fresh = [PeriodicKernel(ell).energy_and_gradient(p) for p in configs]
    k = PeriodicKernel(ell)
    for p, ref in zip(configs, fresh):
        _assert_bitwise(k.energy_and_gradient(p), ref)
    with ThreadPoolExecutor(2) as pool:
        for _ in range(3):
            results = pool.map(k.energy_and_gradient, configs)
            for res, ref in zip(results, fresh):
                _assert_bitwise(res, ref)


def test_energy_and_gradient_split_stress_many_switches():
    # eight threads (more than the cores of a small box) share one kernel,
    # with the interpreter switching threads every microsecond; each call,
    # n = 200 among them, gives the bits of a serial call on a fresh kernel
    rng = np.random.default_rng(1100)
    ell = 200 ** (1.0 / 3.0) * rng.uniform(0.5, 2.0)
    configs = [rng.random((n, 3)) * ell * rng.uniform(0.5, 3.0)
               for n in (200, 7, 200, 60, 200, 2, 200, 33)]
    fresh = [PeriodicKernel(ell).energy_and_gradient(p) for p in configs]
    k = PeriodicKernel(ell)
    interval = sys.getswitchinterval()
    t0 = time.perf_counter()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for _ in range(2):
                results = pool.map(k.energy_and_gradient, configs)
                for res, ref in zip(results, fresh):
                    _assert_bitwise(res, ref)
    finally:
        sys.setswitchinterval(interval)
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# closed-form free-space potentials
# ---------------------------------------------------------------------------


def test_potential_ball_closed_forms():
    q, r0 = 2.0, 1.5
    r = np.array([0.0, 0.75, 1.5, 3.0])
    v = potential_ball(q, r0, r)
    inside = q * (3.0 * r0**2 - r[:2] ** 2) / (2.0 * r0**3)
    np.testing.assert_allclose(v[:2], inside, rtol=1e-14)
    assert v[2] == pytest.approx(q / r0, rel=1e-14)  # continuous at the surface
    assert v[3] == pytest.approx(q / 3.0, rel=1e-14)


def test_potential_cube_center_and_corner():
    assert potential_cube(1.0, [(0.0, 0.0, 0.0)])[0] == pytest.approx(
        CUBE_CENTER_POTENTIAL, abs=1e-12
    )
    # a corner of the unit cube sees 1/8 of the center value of a side-2 cube;
    # by scaling v_center(side 2) = 4 v_center(side 1), so corner = center / 2
    corner = potential_cube(1.0, [(0.5, 0.5, 0.5)])[0]
    assert corner == pytest.approx(CUBE_CENTER_POTENTIAL / 2.0, rel=1e-12)


def test_potential_box_additivity_and_scaling():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, (16, 3))
    whole = potential_box((0.0, 0.0, 0.0), (1.0, 1.0, 2.0), pts)
    lower = potential_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), pts)
    upper = potential_box((0.0, 0.0, 1.0), (1.0, 1.0, 2.0), pts)
    np.testing.assert_allclose(lower + upper, whole, rtol=1e-11, atol=1e-13)
    # homogeneity: scaling lengths by s scales the potential by s^2
    s = 2.5
    scaled = potential_box(
        (0.0, 0.0, 0.0), (s * 1.0, s * 1.0, s * 2.0), s * pts
    )
    np.testing.assert_allclose(scaled, s**2 * whole, rtol=1e-12)


def _corner_loop_box(lo, hi, pts):
    # the per-corner reference: one antiderivative call per corner, summed
    # in (i, j, k) order
    lo, hi, pts = (np.asarray(v, dtype=float) for v in (lo, hi, pts))
    a = lo - pts
    b = hi - pts
    total = 0.0
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                u1 = b[..., 0] if i else a[..., 0]
                u2 = b[..., 1] if j else a[..., 1]
                u3 = b[..., 2] if k else a[..., 2]
                sign = 1.0 if (i + j + k) % 2 == 1 else -1.0
                total = total + sign * _brick_antiderivative(u1, u2, u3)
    return total


def _axis_loop_gradient(cube, pts):
    # the per-axis reference: central differences, one axis at a time
    lo = np.asarray(cube.center) - cube.side / 2.0
    hi = np.asarray(cube.center) + cube.side / 2.0
    h = cube.side * 1e-6
    out = np.empty_like(pts)
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        out[:, ax] = (
            _corner_loop_box(lo, hi, pts + e) - _corner_loop_box(lo, hi, pts - e)
        ) / (2.0 * h)
    return out


def test_potential_box_bitwise_equal_to_corner_loop():
    # the batched corner evaluation must keep every bit, including on
    # faces, edges and corners where antiderivative terms vanish or meet
    # the atan guard; numpy's SIMD log/atan loops may treat the stacked
    # arrays differently from per-corner ones, so this is checked, not assumed
    rng = np.random.default_rng(11)
    for trial in range(330):
        n = 1 + trial % 11
        side = rng.uniform(0.2, 4.0)
        center = rng.normal(size=3)
        lo, hi = center - side / 2.0, center + side / 2.0
        pts = center + rng.uniform(-1.5, 1.5, (n, 3)) * side
        if trial % 3 == 1:  # snap coordinates onto face planes
            snap = rng.random((n, 3)) < 0.6
            pts = np.where(snap, np.where(rng.random((n, 3)) < 0.5, lo, hi), pts)
        elif trial % 3 == 2:  # corners, edge midpoints, face centers, center
            pts = np.where(
                rng.random((n, 3)) < 0.75,
                np.where(rng.random((n, 3)) < 0.5, lo, hi),
                center,
            )
        cases = (
            (lo, hi, pts),  # one box against the points, as piece_potential
            (lo, hi, pts[0]),  # a single point
            (  # a batch of boxes against the points
                np.stack([lo, lo - 0.3, lo + 0.1])[:, None, :],
                np.stack([hi, hi + 0.2, hi + 0.1])[:, None, :],
                pts[None, :, :],
            ),
        )
        for box_lo, box_hi, x in cases:
            got = potential_box(box_lo, box_hi, x)
            want = _corner_loop_box(box_lo, box_hi, x)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        cube = Cube(side=side, center=tuple(center))
        got = _box_gradient(cube, pts)
        assert got.tobytes() == _axis_loop_gradient(cube, pts).tobytes()


def test_cube_self_integral_consistency():
    val, err = domain_pair_coulomb(
        Cube(side=1.0, center=(0.0, 0.0, 0.0)),
        Cube(side=1.0, center=(0.0, 0.0, 0.0)),
    )
    assert val == pytest.approx(CUBE_SELF_INTEGRAL, abs=max(err, 1e-10))


def test_cube_self_integral_matches_closed_form():
    closed = 2.0 * (
        (1.0 + math.sqrt(2.0) - 2.0 * math.sqrt(3.0)) / 5.0
        - math.pi / 3.0
        + math.log((1.0 + math.sqrt(2.0)) * (2.0 + math.sqrt(3.0)))
    )
    assert abs(CUBE_SELF_INTEGRAL - closed) <= 1e-13


def test_tetra_potential_frozen_value_and_far_field():
    t = regular_tetrahedron(1.0)
    assert potential_tetra(t, [(0.1, -0.05, 0.2)])[0] == pytest.approx(
        TETRA_PROBE_POTENTIAL, abs=1e-9
    )
    # far away the unit-volume tetra looks like a unit point charge
    far = np.array([[40.0, 3.0, -11.0]])
    r = np.linalg.norm(far[0])
    assert potential_tetra(t, far)[0] == pytest.approx(1.0 / r, rel=1e-4)


def test_tetra_field_far_field_is_volume_over_r():
    # about its centroid a regular tetrahedron has no dipole and, by its
    # symmetry, no quadrupole: Phi = V/r (1 + O(r^-3)) and grad Phi =
    # -V x/r^3 (1 + O(r^-3)); the cancelling face terms cost about
    # 1e-16 (r/edge)^2 of relative accuracy
    t = regular_tetrahedron(2.0, center=(0.3, -0.2, 0.1))
    body = TetraBody(t)
    direction = np.array([0.3, -0.7, 0.648]) / np.linalg.norm([0.3, -0.7, 0.648])
    for r, rel in ((30.0, 1e-5), (300.0, 1e-8), (3000.0, 1e-9)):
        x = t.centroid() + r * direction
        phi, grad = tetra_field(body, x)
        assert phi == pytest.approx(t.volume / r, rel=rel)
        np.testing.assert_allclose(grad, -t.volume * r * direction / r**3, rtol=3 * rel)


def _split_at(verts, p):
    """The four tetrahedra with apex ``p`` over the faces of ``verts``."""
    faces = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
    return [np.array([p, *verts[list(f)]]) for f in faces]


def test_tetra_field_is_additive_over_a_split():
    rng = np.random.default_rng(11)
    verts = regular_tetrahedron(1.0).vertices + 0.1 * rng.normal(size=(4, 3))
    apex = rng.dirichlet([2.0, 2.0, 2.0, 2.0]) @ verts
    pts = np.concatenate([
        verts.mean(axis=0) + 0.4 * rng.normal(size=(6, 3)),  # inside and out
        verts.mean(axis=0) + 3.0 * rng.normal(size=(3, 3)),
        apex[None, :],  # a vertex of every piece
        (0.5 * (apex + verts[0]))[None, :],  # on an inner edge
    ])
    phi, grad = tetra_field(verts, pts)
    parts = [tetra_field(piece, pts) for piece in _split_at(verts, apex)]
    np.testing.assert_allclose(sum(p for p, _ in parts), phi, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sum(g for _, g in parts), grad, rtol=1e-11, atol=1e-11)


def test_tetra_field_laplacian_is_minus_four_pi_inside_and_zero_outside():
    # the divergence of the closed-form gradient, by central differences
    rng = np.random.default_rng(5)
    verts = regular_tetrahedron(1.0).vertices + 0.1 * rng.normal(size=(4, 3))
    t = Tetrahedron(vertices=verts)
    body = TetraBody(t)
    inside = t.centroid() + 0.1 * rng.normal(size=(4, 3))
    outside = t.centroid() + np.array(
        [[1.5, 0.2, 0.1], [-0.3, -1.4, 0.9], [4.0, 4.0, -3.0]]
    )
    assert t.contains(inside).all() and not t.contains(outside).any()
    h = 1e-4

    def grad(p):
        return tetra_field(body, p)[1]

    for pts, want in ((inside, -4.0 * np.pi), (outside, 0.0)):
        div = sum(
            (grad(pts + h * e) - grad(pts - h * e))[:, k] / (2.0 * h)
            for k, e in enumerate(np.eye(3))
        )
        np.testing.assert_allclose(div, want, rtol=0, atol=1e-6)


def test_tetra_field_matches_finite_differences():
    t = regular_tetrahedron(1.0)
    pts = np.array([[0.1, -0.05, 0.2], [1.1, 0.8, -0.4]])
    pot, grad = tetra_field(t, pts)
    np.testing.assert_allclose(pot, potential_tetra(t, pts), rtol=1e-10)
    h = 1e-5
    for k in range(3):
        shift = np.zeros(3)
        shift[k] = h
        fd = (potential_tetra(t, pts + shift) - potential_tetra(t, pts - shift)) / (
            2.0 * h
        )
        np.testing.assert_allclose(grad[:, k], fd, rtol=1e-6, atol=1e-8)


def _apex_rule(vertices, x, order):
    """Potential and gradient at one point ``x`` by the apex decomposition:
    one signed tetrahedron with apex x per face, each a smooth integral over
    the unit triangle (tensor Gauss rule via a=u, b=v(1-u))."""
    g1, w1 = np.polynomial.legendre.leggauss(order)
    u, wu = 0.5 * (g1 + 1.0), 0.5 * w1
    a = np.repeat(u, order)
    b = np.tile(u, order) * (1.0 - a)
    w = np.outer(wu, wu).ravel() * (1.0 - a)
    nodes = np.stack([a, b, 1.0 - a - b], axis=1)
    phi, grad = 0.0, np.zeros(3)
    for i, j, k in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
        corners = vertices[[i, j, k]] - x
        # |det| is 6 times the apex tetra's volume; it counts positive when x
        # lies on the side of the face's plane that holds the body
        vol6 = np.linalg.det(corners)
        side = np.linalg.det(vertices[[i, j, k]] - vertices[6 - i - j - k])
        g = nodes @ corners  # points of the face relative to x
        gn = np.sqrt(np.einsum("qi,qi->q", g, g))
        phi += 0.5 * abs(vol6) * np.sign(vol6 * side) * float(w @ (1.0 / gn))
        grad += abs(vol6) * np.sign(vol6 * side) * ((w / gn**3) @ g)
    return phi, grad


def test_tetra_field_matches_apex_rule_at_order_800():
    # away from the faces the apex rule's integrands are smooth; at 0.1 from
    # every face plane its orders 400 and 800 agree to about 1e-13
    t = regular_tetrahedron(1.0)
    rng = np.random.default_rng(3)
    normals, offsets = t.face_planes()
    pts = []
    for spread, inside in ((0.15, True), (1.0, False)):
        cand = t.centroid() + spread * rng.normal(size=(20, 3))
        keep = np.abs(cand @ normals.T - offsets).min(axis=1) >= 0.1
        pts.append(cand[keep & (t.contains(cand) == inside)][:3])
    pts = np.concatenate(pts)
    assert len(pts) == 6
    phi, grad = tetra_field(t, pts)
    for p, g, x in zip(phi, grad, pts):
        ref_phi, ref_grad = _apex_rule(t.vertices, x, 800)
        assert p == pytest.approx(ref_phi, abs=1e-12)
        np.testing.assert_allclose(g, ref_grad, rtol=0, atol=1e-12)


def _mp_sub(u, v):
    return [p - q for p, q in zip(u, v)]


def _mp_dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _mp_cross(u, v):
    return [
        u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]
    ]


def _mp_norm(u):
    return mpmath.sqrt(_mp_dot(u, u))


def _mp_face_integral(a, b, c, x):
    """int over the triangle (a, b, c) of dS/|y - x| by mpmath: segments
    parallel to bc, each integrated in closed form, then tanh-sinh over the
    segment's distance t from a, so that edge bc sits at the endpoint t = 1."""
    ab, ac, ax = _mp_sub(b, a), _mp_sub(c, a), _mp_sub(a, x)
    bc = _mp_sub(c, b)
    unit = [p / _mp_norm(bc) for p in bc]

    def seg(t):
        # from p0 = a + t ab to p1 = a + t ac, of length t |bc|
        w0 = [p + t * q for p, q in zip(ax, ab)]
        w1 = [p + t * q for p, q in zip(ax, ac)]
        along = _mp_dot(w0, unit)
        far = t * _mp_norm(bc) + along + _mp_norm(w1)
        return mpmath.log(far / (along + _mp_norm(w0)))

    area2 = _mp_norm(_mp_cross(ab, ac))
    return area2 / _mp_norm(bc) * mpmath.quad(seg, [0, 1])


def _mp_field(vertices, x, edge):
    """Phi = (1/2) sum_f h_f I_f and grad Phi = -sum_f n_f I_f, with each
    face integral I_f by ``_mp_face_integral`` at 25 digits; faces holding
    ``edge`` are parametrized with that edge at the end of the quadrature."""
    with mpmath.workdps(25):
        v = [[mpmath.mpf(float(c)) for c in row] for row in vertices]
        xm = [mpmath.mpf(float(c)) for c in x]
        phi, grad = mpmath.mpf(0), [mpmath.mpf(0)] * 3
        for opp in range(4):
            face = [i for i in range(4) if i != opp]
            if set(edge) <= set(face):
                face = [i for i in face if i not in edge] + list(edge)
            a, b, c = (v[i] for i in face)
            n = _mp_cross(_mp_sub(b, a), _mp_sub(c, a))
            sign = -1 if _mp_dot(n, _mp_sub(v[opp], a)) > 0 else 1  # outward
            n = [sign * p / _mp_norm(n) for p in n]
            integral = _mp_face_integral(a, b, c, xm)
            phi += _mp_dot(n, _mp_sub(a, xm)) * integral / 2
            grad = [g - p * integral for g, p in zip(grad, n)]
        return float(phi), np.array([float(g) for g in grad])


def test_tetra_field_matches_mpmath_near_an_edge():
    # from 1e-3 down to 1e-8 off the middle of edge (0, 1), inside and out:
    # the log term's argument is formed without cancellation there (with
    # |r_a| |r_b| + r_a . r_b taken as it stands, the gradient misses by
    # 2e-11 at 1e-6 and by 4e-7 at 1e-8)
    verts = regular_tetrahedron(1.0).vertices
    mid = 0.5 * (verts[0] + verts[1])
    inward = verts[2:].mean(axis=0) - mid
    inward /= np.linalg.norm(inward)
    along = 0.2 * (verts[1] - verts[0])
    for dist in (1e-3, 1e-6, 1e-8):
        for x in (mid + dist * inward, mid - dist * inward + along):
            phi, grad = tetra_field(verts, x)
            ref_phi, ref_grad = _mp_field(verts, x, (0, 1))
            assert phi == pytest.approx(ref_phi, abs=1e-13)
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-13)


def test_tetra_field_on_faces_edges_and_vertices_equals_inside_limits():
    # the benchmark body; points on each face, at each edge's midpoint, at
    # each vertex, and on two face planes outside their faces
    rng = np.random.default_rng(2)
    verts = regular_tetrahedron(1.0).vertices * 2.2246
    body = TetraBody(verts)
    centroid = verts.mean(axis=0)
    faces = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
    on_faces = [rng.dirichlet([1.0, 1.0, 1.0]) @ verts[list(f)] for f in faces]
    midpoints = [0.5 * (verts[i] + verts[j]) for i in range(4) for j in range(i + 1, 4)]
    pts = np.array([*on_faces, *midpoints, *verts])
    phi, grad = tetra_field(body, pts)
    assert np.isfinite(phi).all() and np.isfinite(grad).all()
    for delta in (1e-11, 1e-12):
        phi_in, grad_in = tetra_field(body, pts + delta * (centroid - pts))
        np.testing.assert_allclose(phi, phi_in, rtol=0, atol=1e-9)
        np.testing.assert_allclose(grad, grad_in, rtol=0, atol=1e-9)
    # on a face plane outside the face the field is smooth: both sides agree
    normals, offsets = Tetrahedron(vertices=verts).face_planes()
    for f in (0, 3):
        corner = verts[faces[f][0]]
        x = corner + 0.7 * (corner - verts[list(faces[f])].mean(axis=0))
        assert abs(x @ normals[f] - offsets[f]) < 1e-13
        phi_x, grad_x = tetra_field(body, x)
        for side in (1e-12, -1e-12):
            phi_s, grad_s = tetra_field(body, x + side * normals[f])
            assert phi_s == pytest.approx(phi_x, abs=1e-9)
            np.testing.assert_allclose(grad_s, grad_x, rtol=0, atol=1e-9)


def _volume_quadrature(tet, order):
    """int over ``tet`` of the closed-form potential of ``tet``: tensor Gauss
    on the unit cube, collapsed onto the simplex with its Jacobian."""
    g, w = np.polynomial.legendre.leggauss(order)
    u, w = 0.5 * (g + 1.0), 0.5 * w
    uu, vv, ww = np.meshgrid(u, u, u, indexing="ij")
    bary = np.stack([uu, vv * (1.0 - uu), ww * (1.0 - uu) * (1.0 - vv)], axis=-1)
    weights = np.einsum("i,j,k->ijk", w, w, w) * (1.0 - uu) ** 2 * (1.0 - vv)
    v = tet.vertices
    pts = v[0] + bary.reshape(-1, 3) @ (v[1:] - v[0])
    return 6.0 * tet.volume * float(weights.ravel() @ potential_tetra(tet, pts))


@pytest.mark.parametrize("shape", ["regular", "perturbed", "corner"])
def test_tetra_self_integral_matches_volume_quadrature(shape):
    # the surface identity against a volume integral of the same potential;
    # order 64 of the volume rule is within about 1e-13 (orders 24, 34, 48
    # and 64 miss by 2e-10, 1e-11, 9e-13 and 9e-14 on the regular body).
    # The corner tetrahedron (0, e1, e2, e3) missed tol = 1e-8 by the old
    # volume ladder (error 2.1e-7).
    rng = np.random.default_rng(1)
    regular = regular_tetrahedron(1.0).vertices
    verts = {
        "regular": regular,
        "perturbed": regular + 0.2 * rng.normal(size=(4, 3)),
        "corner": np.vstack([np.zeros(3), np.eye(3)]),
    }[shape]
    tet = Tetrahedron(vertices=verts)
    val, err = domain_pair_coulomb(tet, tet)
    assert err < 1e-13
    assert val == pytest.approx(_volume_quadrature(tet, 64), abs=3e-13)


def test_tetra_self_integral_cached_and_scaled():
    t = regular_tetrahedron(1.0)
    val, err = domain_pair_coulomb(t, t)
    assert val == pytest.approx(TETRA_SELF_INTEGRAL, abs=1e-12)
    assert err <= 1e-13
    # the regular shape constant scales exactly like volume^(5/3)
    t2 = regular_tetrahedron(2.0)
    val2, _ = domain_pair_coulomb(t2, t2)
    assert val2 == pytest.approx(val * 2.0 ** (5.0 / 3.0), rel=1e-13)
    for scale in (0.3, 2.2246, 7.0):
        ts = Tetrahedron(vertices=t.vertices * scale)
        got, _ = domain_pair_coulomb(ts, ts)
        assert got == pytest.approx(val * scale**5, rel=1e-13)


def test_tetra_self_integral_quadrature_path():
    # a slightly irregular tetra takes the same surface identity; continuity
    # keeps the value near the regular-shape constant, and the volume
    # quadrature of its potential agrees
    t = regular_tetrahedron(1.0)
    verts = t.vertices.copy()
    verts[0] += np.array([1e-4, -5e-5, 2e-5])
    ti = Tetrahedron(vertices=verts)
    val, err = domain_pair_coulomb(ti, ti)
    assert val == pytest.approx(TETRA_SELF_INTEGRAL, abs=5e-4)
    assert err < 1e-13
    assert val == pytest.approx(_volume_quadrature(ti, 64), abs=3e-13)


@pytest.mark.parametrize(
    "pair",
    [
        (Ball(radius=1.0), Cube(side=3.0)),
        (Ball(radius=1.0), Ball(radius=1.0, center=(1.0, 0.0, 0.0))),
        (Cube(side=4.0), Cube(side=4.0, center=(8.0, 0.0, 0.0))),
        (Cube(side=2.0), Ball(radius=1.0)),
        # centres 5e-6 apart relative to their distance from the origin:
        # overlapping, distinct balls, which a tolerance-based equality
        # would take for one
        (Ball(radius=1.0, center=(1000.0, 0.0, 0.0)),
         Ball(radius=1.0, center=(1000.005, 0.0, 0.0))),
    ],
    ids=["ball-in-cube", "overlapping-balls", "distinct-cubes", "cube-and-ball",
         "near-equal-balls"],
)
def test_domain_pair_coulomb_raises_without_a_closed_form(pair):
    names = ", ".join(type(d).__name__ for d in pair)
    with pytest.raises(ValueError, match=f"no closed form for the pair {names}$"):
        domain_pair_coulomb(*pair)


def test_domain_pair_coulomb_program_pairs_are_pinned():
    # the pairs that programs pass, against the repr of (value, error)
    # recorded before the quadrature ladder was removed
    origin = (0.0, 0.0, 0.0)
    scaled = Tetrahedron(vertices=regular_tetrahedron(1.0).vertices * 2.2246)
    cases = [
        ((Cube(side=6.0, center=origin),) * 2, "(14636.863122774308, 7.776e-09)"),
        ((Cube(side=8.0, center=origin),) * 2, "(61679.62073136169, 3.2768e-08)"),
        ((scaled, scaled), "(96.5390855311971, 1.0373923942097463e-12)"),
        ((Ball(radius=1.0, center=origin),) * 2, "(21.055156055657292, 0.0)"),
        ((Ball(radius=0.5, center=origin), Ball(radius=0.7, center=(3.0, 0.0, 0.0))),
         "(0.2507610599684184, 0.0)"),
        # equal cubes with ndarray centres, held as separate objects
        ((Cube(side=6.0, center=np.zeros(3)), Cube(side=6.0, center=np.zeros(3))),
         "(14636.863122774308, 7.776e-09)"),
    ]
    for pair, want in cases:
        assert repr(domain_pair_coulomb(*pair)) == want


def test_potential_domain_dispatch():
    pts = np.array([[0.3, 0.1, -0.2], [2.0, 1.0, 0.5]])
    ball = Ball(radius=0.8, center=(0.0, 0.0, 0.0))
    np.testing.assert_allclose(
        potential_domain(ball, pts),
        potential_ball(ball.volume, 0.8, np.linalg.norm(pts, axis=1)),
        rtol=1e-12,
    )
    cube = Cube(side=1.0, center=(0.0, 0.0, 0.0))
    np.testing.assert_allclose(
        potential_domain(cube, pts), potential_cube(1.0, pts), rtol=1e-12
    )
    tet = regular_tetrahedron(1.0)
    np.testing.assert_allclose(
        potential_domain(tet, pts), potential_tetra(tet, pts), rtol=1e-9
    )


def test_ball_pair_coulomb_closed_form():
    # disjoint uniform balls interact like point charges at their centers
    b1 = Ball(radius=0.5, center=(0.0, 0.0, 0.0))
    b2 = Ball(radius=0.7, center=(3.0, 0.0, 0.0))
    val, err = domain_pair_coulomb(b1, b2)
    assert val == pytest.approx(b1.volume * b2.volume / 3.0, abs=max(err, 1e-10))


def _padded_potential(f, h):
    """The convolution as it was first written: the whole 2*shape kernel and
    the zero-padded field through rfftn, the product through irfftn, then
    crop."""
    m = [2 * n for n in f.shape]
    axes_off = [np.minimum(np.arange(mi), mi - np.arange(mi)) for mi in m]
    ox, oy, oz = np.meshgrid(*axes_off, indexing="ij", sparse=True)
    r2 = (ox.astype(float)) ** 2 + (oy.astype(float)) ** 2 + (oz.astype(float)) ** 2
    with np.errstate(divide="ignore"):
        ker = 1.0 / (h * np.sqrt(r2))
    ker[0, 0, 0] = CUBE_SELF_INTEGRAL / h
    fpad = np.zeros(m)
    fpad[: f.shape[0], : f.shape[1], : f.shape[2]] = f
    conv = scipy_fft.irfftn(scipy_fft.rfftn(fpad) * scipy_fft.rfftn(ker), s=m)
    return h**3 * conv[: f.shape[0], : f.shape[1], : f.shape[2]]


# (2731, 1, 1) pads to 21848 cells, a count whose reciprocal rounded from
# long double differs from 1.0 / 21848 in the last bit; the 41 axis-2
# frequency planes of (33, 17, 40) make five slabs of 8 and one of 1
@pytest.mark.parametrize(
    "shape",
    [(5, 7, 9), (16, 12, 20), (2731, 1, 1), (1, 1, 1), (3, 1, 2), (33, 17, 40)],
)
def test_grid_potential_equals_full_padded_transforms(shape):
    f = np.random.default_rng(3).random((2, *shape))
    h = 0.1
    ref = np.stack([_padded_potential(x, h) for x in f])
    assert grid_potential(f[0], h).tobytes() == ref[0].tobytes()
    # a stack of two fields gives each field's own potential
    assert grid_potential(f, h).tobytes() == ref.tobytes()


def test_grid_potential_peak_memory():
    # no array of the 128^3 padded grid is built: the whole padded kernel
    # and its transform, shared by two one-field calls, peaked at 48 MiB;
    # this call peaks at about 20 MiB
    f = np.random.default_rng(0).random((2, 64, 64, 64))
    tracemalloc.start()
    try:
        grid_potential(f, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_freespace_grid_energy_matches_ball_self_energy():
    u = BallUnion(centers=np.zeros((1, 3)), radii=np.ones(1))
    v = voxelize(u, h=0.08)
    q = v.measure
    exact = 0.6 * q**2 / 1.0
    f = v.occ.astype(float)
    est = 0.5 * v.h**3 * float(np.sum(f * grid_potential(f, v.h)))
    assert est == pytest.approx(exact, rel=2e-2)
