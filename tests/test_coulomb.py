"""Coulomb layer: lattice sums, periodic kernel, closed-form potentials."""

import math
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import erfc, gamma as _gamma, gammaincc

from liqdrop.coulomb import (
    CUBE_SELF_INTEGRAL,
    PeriodicKernel,
    completed_zeta,
    domain_pair_coulomb,
    epstein_zeta,
    epstein_zeta_direct,
    freespace_coulomb_energy,
    madelung_z3,
    potential_ball,
    potential_box,
    potential_cube,
    potential_domain,
    potential_tetra,
    tetra_field,
    upper_gamma,
)
from liqdrop.coulomb.potentials import (
    _FACES,
    _ORDERS,
    _RULES,
    _tetra_face_quad,
    _tetra_faces,
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
from liqdrop.jellium import crystal_positions, minimize_local

# independently derived high-precision reference values
MADELUNG_Z3 = -2.837297479480619
ZETA_BCC_1 = -1.4442307515269701
ZETA_SC_1 = -1.4186487397403098
ZETA_FCC_1 = -1.4441410595101616
ZETA_SC_MINUS_1 = -0.13329813935919682
GREEN_UNIT_HALF = -0.8019359700280242  # unit cell, x = (1/2, 1/2, 1/2)
GREEN_UNIT_MIXED = -0.4071807084095082  # unit cell, x = (1/2, 1/4, 1/8)
CUBE_CENTER_POTENTIAL = 2.38007736397955
TETRA_SELF_INTEGRAL = 1.7719173459773292
TETRA_PROBE_POTENTIAL = 2.1663728273038916  # unit regular tetra at (0.1,-0.05,0.2)


# ---------------------------------------------------------------------------
# incomplete gamma continuation
# ---------------------------------------------------------------------------


def test_upper_gamma_matches_scipy_for_positive_order():
    x = np.array([0.1, 0.7, 2.3, 9.0])
    for a in (0.25, 1.0, 2.5):
        expected = _gamma(a) * gammaincc(a, x)
        np.testing.assert_allclose(upper_gamma(a, x), expected, rtol=1e-12)


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
    e, g = k.energy_and_gradient(pts, q=1.3)
    # the wrappers return exactly the fused results
    assert k.pair_energy(pts, q=1.3) == e
    np.testing.assert_array_equal(k.pair_gradient(pts, q=1.3), g)

    def check(moved, order):
        e2, g2 = k.energy_and_gradient(moved, q=1.3)
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


def _broadcast_energy_and_gradient(k, pos, q):
    """Reference: the real-space sum over one (pairs, shifts, 3) array."""
    n = len(pos)
    grad = np.zeros_like(pos)
    iu, ju = np.triu_indices(n, k=1)
    dx = pos[iu] - pos[ju]
    dx -= k.ell * np.round(dx / k.ell)
    d = dx[:, None, :] - k.shifts[None, :, :]
    r = np.linalg.norm(d, axis=-1)
    sa = np.sqrt(k.alpha)
    screened = erfc(sa * r)
    real = np.sum(screened / r)
    mag = screened / r**2 + (2.0 * sa / np.sqrt(np.pi)) * np.exp(-k.alpha * r**2) / r
    gpair = -np.sum((mag / r)[:, :, None] * d, axis=1)
    np.add.at(grad, iu, gpair)
    np.add.at(grad, ju, -gpair)
    phase = pos @ k.kvecs.T
    c, s = np.cos(phase), np.sin(phase)
    ctot, stot = c.sum(axis=0), s.sum(axis=0)
    recip = 0.5 * np.dot(k.kcoef, ctot**2 + stot**2 - n)
    cross = s * ctot[None, :] - c * stot[None, :]
    grad += -(cross * k.kcoef[None, :]) @ k.kvecs
    npairs = n * (n - 1) / 2.0
    return q**2 * (real + recip - npairs * k.self_const), q**2 * grad


# one pair; one block; several blocks with a partial last one; many blocks
@pytest.mark.parametrize("n", [2, 3, 16, 54, 200])
def test_energy_and_gradient_bitwise_equal_to_broadcast_formula(n):
    rng = np.random.default_rng(500 + n)
    ell = n ** (1.0 / 3.0) * rng.uniform(0.5, 2.0)
    q = rng.uniform(0.2, 3.0)
    pts = rng.random((n, 3)) * ell * rng.uniform(0.5, 3.0)
    k = PeriodicKernel(ell)
    e, g = k.energy_and_gradient(pts, q)
    e_ref, g_ref = _broadcast_energy_and_gradient(k, pts, q)
    assert e == e_ref
    np.testing.assert_array_equal(g, g_ref)


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


def _random_case(n):
    rng = np.random.default_rng(900 + n)
    ell = n ** (1.0 / 3.0) * rng.uniform(0.5, 2.0)
    q = rng.uniform(0.2, 3.0)
    pts = rng.random((n, 3)) * ell * rng.uniform(0.5, 3.0)
    return PeriodicKernel(ell), pts, q


def _assert_bitwise(result, reference):
    assert np.float64(result[0]).tobytes() == np.float64(reference[0]).tobytes()
    assert result[1].tobytes() == reference[1].tobytes()


# on 2 and 3 workers, n = 2 and 3 run inline and n = 54 and 200 split
@pytest.mark.parametrize("n", [2, 3, 54, 200])
def test_energy_and_gradient_split_bitwise_equal_to_serial(n):
    k, pts, q = _random_case(n)
    serial = k.energy_and_gradient(pts, q)
    for workers in (2, 3):
        assert (k.chunks(n, workers) > 1) == (n >= 54)
        with ThreadPoolExecutor(workers) as pool:
            _assert_bitwise(k.energy_and_gradient(pts, q, executor=pool), serial)


def test_energy_and_gradient_split_raises_on_coincident_pair():
    n = 54
    k = PeriodicKernel(n ** (1.0 / 3.0))
    pts = np.random.default_rng(3).random((n, 3)) * k.ell
    pts[-1] = pts[-2]  # the last pair, in the last worker's range
    assert k.chunks(n, 2) == 2
    with ThreadPoolExecutor(2) as pool:
        with pytest.raises(ValueError, match="coincident"):
            k.energy_and_gradient(pts, executor=pool)


def test_energy_and_gradient_split_stress_many_switches():
    k, pts, q = _random_case(200)
    serial = k.energy_and_gradient(pts, q)
    interval = sys.getswitchinterval()
    t0 = time.perf_counter()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for _ in range(2):
                _assert_bitwise(k.energy_and_gradient(pts, q, executor=pool), serial)
    finally:
        sys.setswitchinterval(interval)
    assert time.perf_counter() - t0 < 60.0


def test_minimize_local_bitwise_equal_with_pool():
    n = 54
    side = n ** (1.0 / 3.0)
    k = PeriodicKernel(side)
    rng = np.random.default_rng(54)
    start = crystal_positions("bcc", 3, side) + rng.normal(scale=0.1, size=(n, 3))
    pos0, trace0 = minimize_local(start, k, maxiter=5)
    with ThreadPoolExecutor(2) as pool:
        pos1, trace1 = minimize_local(start, k, maxiter=5, executor=pool)
    assert len(trace0) >= 5
    assert pos1.tobytes() == pos0.tobytes()
    assert trace1.tobytes() == trace0.tobytes()


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


def test_cube_self_integral_consistency():
    val, err = domain_pair_coulomb(
        Cube(side=1.0, center=(0.0, 0.0, 0.0)),
        Cube(side=1.0, center=(0.0, 0.0, 0.0)),
    )
    assert val == pytest.approx(CUBE_SELF_INTEGRAL, abs=max(err, 1e-10))


def test_tetra_potential_frozen_value_and_far_field():
    t = regular_tetrahedron(1.0)
    assert potential_tetra(t, [(0.1, -0.05, 0.2)])[0] == pytest.approx(
        TETRA_PROBE_POTENTIAL, abs=1e-9
    )
    # far away the unit-volume tetra looks like a unit point charge
    far = np.array([[40.0, 3.0, -11.0]])
    r = np.linalg.norm(far[0])
    assert potential_tetra(t, far)[0] == pytest.approx(1.0 / r, rel=1e-4)


def test_tetra_self_integral_cached_and_scaled():
    t = regular_tetrahedron(1.0)
    val, err = domain_pair_coulomb(t, t)
    assert val == pytest.approx(TETRA_SELF_INTEGRAL, abs=1e-12)
    assert err <= 1e-8
    # the regular shape constant scales exactly like volume^(5/3)
    t2 = regular_tetrahedron(2.0)
    val2, _ = domain_pair_coulomb(t2, t2)
    assert val2 == pytest.approx(TETRA_SELF_INTEGRAL * 2.0 ** (5.0 / 3.0), rel=1e-10)


def test_tetra_self_integral_quadrature_path():
    # a slightly irregular tetra takes the live quadrature path; continuity
    # keeps the value near the regular-shape constant
    t = regular_tetrahedron(1.0)
    verts = t.vertices.copy()
    verts[0] += np.array([1e-4, -5e-5, 2e-5])
    ti = Tetrahedron(vertices=verts)
    val, err = domain_pair_coulomb(ti, ti, tol=1e-6)
    assert val == pytest.approx(TETRA_SELF_INTEGRAL, abs=5e-4)
    assert err < 1e-4


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


def _einsum_face_quad(vertices, pts, order, want_grad):
    """Reference: the apex rule over one (P, Q, 3) array per face."""
    a, b, w = _RULES[order]
    c = 1.0 - a - b
    phi = np.zeros(len(pts))
    grad = np.zeros((len(pts), 3)) if want_grad else None
    scale = np.abs(np.linalg.det(vertices[1:] - vertices[0]))
    for fa, fb, fc in _FACES:
        pa, pb, pc = vertices[fa] - pts, vertices[fb] - pts, vertices[fc] - pts
        wf = np.einsum("pi,pi->p", pa, np.cross(pb, pc)) / 6.0
        wf = np.where(np.abs(wf) > 1e-13 * scale, wf, 0.0)
        g = (
            pa[:, None, :] * a[None, :, None]
            + pb[:, None, :] * b[None, :, None]
            + pc[:, None, :] * c[None, :, None]
        )
        gn = np.maximum(np.linalg.norm(g, axis=-1), 1e-300)
        phi += 3.0 * wf * ((1.0 / gn) @ w)
        if want_grad:
            grad += 6.0 * wf[:, None] * np.einsum("pqi,q->pi", g / gn[..., None] ** 3, w)
    return phi, grad


@pytest.mark.parametrize("npts", [1, 2, 6, 11])
def test_tetra_face_quad_bitwise_equal_to_einsum_formula(npts):
    rng = np.random.default_rng(600 + npts)
    verts = regular_tetrahedron(1.0).vertices + 0.1 * rng.normal(size=(4, 3))
    # points inside and outside the body
    pts = rng.normal(size=(npts, 3)) * 0.8
    # the last point lies within 1e-14 of a face plane: that face's W_f drops to 0
    fa, fb, fc = _FACES[npts % 4]
    pts[-1] = rng.dirichlet([1.0, 1.0, 1.0]) @ verts[[fa, fb, fc]]
    normal = np.cross(verts[fb] - verts[fa], verts[fc] - verts[fa])
    pts[-1] += 5e-15 * normal / np.linalg.norm(normal)
    for order in _ORDERS:
        for want_grad in (False, True):
            phi, grad = _tetra_face_quad(_tetra_faces(verts, pts), order, want_grad)
            phi_ref, grad_ref = _einsum_face_quad(verts, pts, order, want_grad)
            np.testing.assert_array_equal(phi, phi_ref)
            if want_grad:
                np.testing.assert_array_equal(grad, grad_ref)
            else:
                assert grad is None


def _reference_ladder(vertices, pts, tol, want_grad):
    """The order ladder of ``_tetra_eval`` over ``_einsum_face_quad``; also
    returns the order it stopped at."""
    vertices = np.asarray(vertices, dtype=float).reshape(4, 3)
    if np.linalg.det(vertices[1:] - vertices[0]) > 0.0:
        vertices = vertices[[0, 2, 1, 3]]
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    prev_phi = prev_grad = None
    for order in _ORDERS:
        phi, grad = _einsum_face_quad(vertices, pts, order, want_grad)
        if prev_phi is not None:
            err = np.max(np.abs(phi - prev_phi))
            if want_grad:
                err = max(err, np.max(np.abs(grad - prev_grad)))
            if err <= tol * max(1.0, np.max(np.abs(phi))):
                break
        prev_phi, prev_grad = phi, grad
    return phi, grad, order


def test_tetra_ladder_bitwise_equal_to_reference():
    rng = np.random.default_rng(7)
    verts = regular_tetrahedron(1.0).vertices + 0.05 * rng.normal(size=(4, 3))
    center = verts.mean(axis=0)
    fa, fb, fc = _FACES[1]
    normal = np.cross(verts[fb] - verts[fa], verts[fc] - verts[fa])
    near_face = rng.dirichlet([1.0, 1.0, 1.0]) @ verts[[fa, fb, fc]]
    near_face += 5e-15 * normal / np.linalg.norm(normal)
    point_sets = (
        center + 0.15 * rng.normal(size=(3, 3)),  # inside
        center + 1.5 * rng.normal(size=(3, 3)),  # mostly outside
        center + 10.0 * rng.normal(size=(2, 3)),  # far away
        near_face[None, :],
    )
    exits = set()
    for pts in point_sets:
        for tol in (1e-1, 1e-4, 3e-8, 1e-9):
            phi_ref, _, order = _reference_ladder(verts, pts, tol, False)
            exits.add(order)
            assert potential_tetra(verts, pts, tol=tol).tobytes() == phi_ref.tobytes()
            phi_ref, grad_ref, order = _reference_ladder(verts, pts, tol, True)
            exits.add(order)
            phi, grad = tetra_field(verts, pts, tol=tol)
            assert phi.tobytes() == phi_ref.tobytes()
            assert grad.tobytes() == grad_ref.tobytes()
    # early exits at 12, 18 and 26, and at least one full ladder
    assert exits == {12, 18, 26, 38}


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


def test_freespace_grid_energy_matches_ball_self_energy():
    u = BallUnion(centers=np.zeros((1, 3)), radii=np.ones(1))
    v = voxelize(u, h=0.08)
    q = v.measure
    exact = 0.6 * q**2 / 1.0
    est = freespace_coulomb_energy(v.occ.astype(float), v.h)
    assert est == pytest.approx(exact, rel=2e-2)
