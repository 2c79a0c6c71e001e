"""Dilute-limit upper-bound pipeline and window-localization checks."""

import numpy as np
import pytest

from liqdrop.coulomb import madelung_z3, potential_box
from liqdrop.droplet import OPT_ENERGY_PER_VOLUME, OPT_MASS, OPT_RADIUS
from liqdrop.expansion import (
    _both_inside,
    _dot,
    _face_planes,
    _norm,
    _random_windows,
    expansion_sweep,
    extract_coefficients,
    gs_coulomb_inequality_check,
    gs_perimeter_identity_check,
    upper_bound_e,
)
from liqdrop.geom import Ball, BallUnion, Cube, regular_tetrahedron
from liqdrop.jellium import crystal_positions

# residual coefficient of the bcc crystal bracket (independently derived):
# (5/2)^(2/3) * (bcc lattice-sum value); counting the self-image energy once
# per cell instead of once per point gives a different value at n = 16
RESIDUAL_PER_PARTICLE = -2.6602957899652124
RESIDUAL_SINGLE_N16 = -1.6880721776306877


# ---------------------------------------------------------------------------
# upper bound with frozen crystal residuals
# ---------------------------------------------------------------------------


def crystal_report(rho):
    n = 16
    cell = (OPT_MASS * n / rho) ** (1.0 / 3.0)
    pts = crystal_positions("bcc", 2, cell)
    return upper_bound_e(rho, n=n, points=pts)


def test_upper_bound_crystal_residual_per_particle():
    rep = crystal_report(1e-3)
    assert rep.residual_coefficient_no_quadratic == pytest.approx(
        RESIDUAL_PER_PARTICLE, abs=1e-9
    )
    # the quadratic term is the analytic droplet-size correction
    assert rep.quadratic_term == pytest.approx(
        2.0 * np.pi * OPT_RADIUS**2 * 1e-6, rel=1e-12
    )
    assert rep.upper_bound == pytest.approx(
        OPT_ENERGY_PER_VOLUME * 1e-3
        + RESIDUAL_PER_PARTICLE * 1e-4
        + rep.quadratic_term,
        rel=1e-10,
    )


def test_self_image_once_per_point_not_once_per_cell():
    # the bound counts each point's own images; counting them once per cell
    # raises the residual by (n - 1) / n^(4/3) * |M| * OPT_MASS^(2/3) / 2
    n, rho = 16, 1e-3
    rep = crystal_report(rho)
    assert rep.self_image_term == n * madelung_z3(rep.cell) / 2.0
    once_per_cell = rep.pair_energy + rep.self_image_term / n
    single = (OPT_MASS**2 / rep.cell**3) * once_per_cell / rho ** (4.0 / 3.0)
    assert single == pytest.approx(RESIDUAL_SINGLE_N16, abs=1e-9)
    mad = madelung_z3(1.0)
    offset = (n - 1) / n ** (4.0 / 3.0) * abs(mad) * OPT_MASS ** (2.0 / 3.0) / 2
    assert offset == pytest.approx(0.972, abs=5e-4)
    assert single - rep.residual_coefficient_no_quadratic == pytest.approx(
        offset, rel=1e-9
    )


def test_upper_bound_validates_inputs():
    pts = crystal_positions("bcc", 2, 1.0)
    with pytest.raises(ValueError):
        upper_bound_e(0.5, n=16, points=pts)  # too dense for the dilute pipeline
    with pytest.raises(ValueError):
        upper_bound_e(1e-3, n=1, points=pts[:1])


def test_upper_bound_rejects_points_that_do_not_match_n():
    # the cell side follows from n, so points of another count gave a bound
    # for the wrong cell: the 16-point bcc crystal passed with n=54 returned
    # a residual of -0.654 in place of -2.660, without an error
    cell = (OPT_MASS * 16 / 1e-3) ** (1.0 / 3.0)
    pts = crystal_positions("bcc", 2, cell)
    for n, points in ((54, pts), (15, pts), (16, pts[:, :2]), (16, pts.ravel())):
        with pytest.raises(ValueError, match="shape"):
            upper_bound_e(1e-3, n=n, points=points)


# ---------------------------------------------------------------------------
# sweep: exact rescaling across the density grid
# ---------------------------------------------------------------------------


def test_expansion_sweep_scales_exactly():
    rhos = [1e-3, 1e-4, 1e-5]
    pp, _ = expansion_sweep(rhos, n=8, seed=0, restarts=2, hops=1)
    assert len(pp) == 3
    # the same unit-cell minimizer is rescaled, so the residual coefficient
    # (before the quadratic term) is exactly density-independent
    r0 = pp[0].residual_coefficient_no_quadratic
    for rep in pp[1:]:
        assert rep.residual_coefficient_no_quadratic == pytest.approx(r0, rel=1e-12)
    # an 8-point optimized cell cannot beat the crystal residual by much
    assert r0 == pytest.approx(RESIDUAL_PER_PARTICLE, rel=0.05)


def test_expansion_sweep_checks_every_density_before_the_search(monkeypatch):
    # the sweep shares upper_bound_e's dilute range; it used to minimize and
    # report a bound at rho = 0.9, where neighbouring droplets overlap
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr("liqdrop.expansion.basin_hop", no_search)
    for rhos in ([0.9, 0.1, 0.01, 0.001], [1e-3, 1e-4, 0.0], [1e-3, -1e-4]):
        with pytest.raises(ValueError, match=r"\(0, 1e-2\]"):
            expansion_sweep(rhos, n=4, restarts=1, hops=0)


# ---------------------------------------------------------------------------
# coefficient extraction
# ---------------------------------------------------------------------------


def test_extract_coefficients_recovers_synthetic_data():
    rhos = np.array([1e-3, 3e-4, 1e-4, 3e-5])
    c1, c2 = OPT_ENERGY_PER_VOLUME, -2.66
    vals = c1 * rhos + c2 * rhos ** (4.0 / 3.0) + 2.0 * np.pi * OPT_RADIUS**2 * rhos**2
    # the known droplet-size correction is subtracted before the fit
    got1, got2, resid = extract_coefficients(rhos, vals)
    assert got1 == pytest.approx(c1, rel=1e-12)
    assert got2 == pytest.approx(c2, rel=1e-10)
    assert resid < 1e-16


def test_extract_coefficients_guards():
    with pytest.raises(ValueError):
        extract_coefficients([1e-3, 1e-4], [1.0, 2.0])  # too few densities
    with pytest.raises(ValueError):
        extract_coefficients(
            [1e-3, 9e-4, 8e-4, 7e-4], [1.0, 2.0, 3.0, 4.0]
        )  # span under one decade
    with pytest.raises(ValueError):
        extract_coefficients([1e-3, 3e-4, 1e-4, 3e-5], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# window-localization spot checks (small samples; the acceptance suite
# runs the full-size versions)
# ---------------------------------------------------------------------------


def test_perimeter_identity_small_sample():
    omega = BallUnion(centers=np.zeros((1, 3)), radii=np.array([1.0]))
    rep = gs_perimeter_identity_check(omega, ell=3.0, samples=20_000, seed=1)
    assert rep.analytic == pytest.approx(4.0 * np.pi, rel=1e-14)
    assert 0.0 < rep.sigma < 0.6
    assert abs(rep.mc_value - rep.analytic) <= 5.0 * rep.sigma
    again = gs_perimeter_identity_check(omega, ell=3.0, samples=20_000, seed=1)
    assert again.mc_value == rep.mc_value  # bitwise deterministic


def test_coulomb_inequality_small_sample():
    omega = BallUnion(
        centers=np.array([[-1.2, 0.0, 0.0], [1.2, 0.3, 0.0]]),
        radii=np.array([0.5, 0.6]),
    )
    lam = Cube(side=8.0)
    rep = gs_coulomb_inequality_check(
        omega, lam, rho=0.05, ell=5.0, samples_per_pair=10_000, seed=2
    )
    assert rep.passed
    assert rep.margin_in_sigmas >= -3.0
    assert rep.sigma > 0.0


# exact results of seeded checks: a changed digit means a changed draw or a
# changed floating-point grouping in the window kernel
THREE_BALLS = BallUnion(
    centers=np.array([[-1.4, 0.1, 0.0], [1.3, -0.2, 0.1], [0.1, 1.5, -0.2]]),
    radii=np.array([0.5, 0.6, 0.45]),
)
ONE_BALL = BallUnion(centers=np.zeros((1, 3)), radii=np.ones(1))


@pytest.mark.parametrize(
    "omega, mc_value, sigma",
    [
        (ONE_BALL, 12.089063585729132, 0.2766431135820428),
        (THREE_BALLS, 10.105563583645782, 0.20399148930938032),
    ],
    ids=["one-ball", "three-balls"],
)
def test_perimeter_identity_is_pinned(omega, mc_value, sigma):
    # 60,000 samples: one full batch of 50,000 and a partial one
    rep = gs_perimeter_identity_check(omega, ell=4.0, samples=60_000, seed=3)
    assert (rep.mc_value, rep.sigma) == (mc_value, sigma)


@pytest.mark.parametrize(
    "omega, lhs, rhs, sigma",
    [
        (ONE_BALL, 11.141485834023797, 6.349878157044498, 1.0507371548250481),
        (THREE_BALLS, 12.725929384494908, 3.263180600009969, 0.6299683373699004),
    ],
    ids=["one-ball", "three-balls"],
)
def test_coulomb_inequality_is_pinned(omega, lhs, rhs, sigma):
    rep = gs_coulomb_inequality_check(
        omega, Cube(side=6.0), rho=0.05, ell=4.0, samples_per_pair=3000, seed=11
    )
    assert (rep.lhs, rep.rhs, rep.sigma) == (lhs, rhs, sigma)


# row-major references of the window kernel, written with einsum, np.cross
# and np.linalg.norm over (count, 4, 3) arrays
def _reference_windows(rng, ell, count, lo, hi):
    q = rng.normal(size=(count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    rot = np.empty((count, 3, 3))
    rot[:, 0, 0] = 1 - 2 * (y * y + z * z)
    rot[:, 0, 1] = 2 * (x * y - w * z)
    rot[:, 0, 2] = 2 * (x * z + w * y)
    rot[:, 1, 0] = 2 * (x * y + w * z)
    rot[:, 1, 1] = 1 - 2 * (x * x + z * z)
    rot[:, 1, 2] = 2 * (y * z - w * x)
    rot[:, 2, 0] = 2 * (x * z - w * y)
    rot[:, 2, 1] = 2 * (y * z + w * x)
    rot[:, 2, 2] = 1 - 2 * (x * x + y * y)
    verts = np.einsum("bij,vj->bvi", rot, regular_tetrahedron().vertices * ell)
    tlo = lo - verts.max(axis=1)
    thi = hi - verts.min(axis=1)
    t = tlo + rng.random((count, 3)) * (thi - tlo)
    return verts + t[:, None, :], np.prod(thi - tlo, axis=1) / ell**3


_REFERENCE_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def _reference_planes(verts):
    normals = np.empty((len(verts), 4, 3))
    offsets = np.empty((len(verts), 4))
    for f, (i, j, k) in enumerate(_REFERENCE_FACES):
        nvec = np.cross(verts[:, j] - verts[:, i], verts[:, k] - verts[:, i])
        nvec /= np.linalg.norm(nvec, axis=1, keepdims=True)
        off = np.einsum("bi,bi->b", nvec, verts[:, i])
        opp = ({0, 1, 2, 3} - {i, j, k}).pop()
        s = np.sign(np.einsum("bi,bi->b", nvec, verts[:, opp]) - off)
        normals[:, f] = nvec * s[:, None]
        offsets[:, f] = off * s
    return normals, offsets


def _reference_both_inside(verts, x, y):
    inside = np.ones(len(verts), dtype=bool)
    for i, j, k in _REFERENCE_FACES:
        nvec = np.cross(verts[:, j] - verts[:, i], verts[:, k] - verts[:, i])
        opp = ({0, 1, 2, 3} - {i, j, k}).pop()
        side_opp = np.einsum("bi,bi->b", nvec, verts[:, opp] - verts[:, i])
        side_x = np.einsum("bi,bi->b", nvec, x - verts[:, i])
        side_y = np.einsum("bi,bi->b", nvec, y - verts[:, i])
        inside &= (side_x * side_opp >= 0) & (side_y * side_opp >= 0)
    return inside


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_window_kernel_equals_row_major_reference(seed):
    count, ell = 20_000, 4.0
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2.0, 0.0, 3)
    hi = lo + rng.uniform(0.5, 2.0, 3)
    ref_verts, ref_weight = _reference_windows(
        np.random.default_rng(seed), ell, count, lo, hi)
    verts, weight = _random_windows(
        np.random.default_rng(seed), ell, count, lo[:, None], hi[:, None])
    assert verts.tobytes() == np.ascontiguousarray(ref_verts.transpose(1, 2, 0)).tobytes()
    assert weight.tobytes() == ref_weight.tobytes()

    ref_normals, ref_offsets = _reference_planes(ref_verts)
    normals, offsets = _face_planes(verts)
    assert normals.tobytes() == np.ascontiguousarray(
        ref_normals.transpose(1, 2, 0)).tobytes()
    assert offsets.tobytes() == np.ascontiguousarray(ref_offsets.T).tobytes()

    # four surface points per window, as the perimeter check tests them
    pts = (lo + hi) / 2.0 + rng.normal(size=(count, 4, 3)) * ell
    ref_mask = np.all(
        np.einsum("bfi,bmi->bmf", ref_normals, pts) >= ref_offsets[:, None, :] - 1e-12,
        axis=2,
    )
    mask = np.ones((4, count), dtype=bool)
    for nvec, off in zip(normals, offsets):
        mask &= _dot(nvec[:, None], pts.T) >= off - 1e-12
    assert 0 < mask.sum() < mask.size
    assert np.array_equal(mask, ref_mask.T)
    ref_dist = np.linalg.norm(pts[:, :, None, :] - lo[None, None, None, :], axis=3)
    assert _norm(pts.T - lo[:, None, None]).tobytes() == np.ascontiguousarray(
        ref_dist[:, :, 0].T).tobytes()

    # per-sample translation boxes and point pairs, as in the Coulomb check
    x = rng.normal(size=(count, 3))
    y = x + rng.normal(size=(count, 3)) * ell / 2.0
    ref_verts, ref_weight = _reference_windows(
        np.random.default_rng(seed + 1), ell, count, x, x)
    verts, weight = _random_windows(np.random.default_rng(seed + 1), ell, count, x.T, x.T)
    assert verts.tobytes() == np.ascontiguousarray(ref_verts.transpose(1, 2, 0)).tobytes()
    assert weight.tobytes() == ref_weight.tobytes()
    inside = _both_inside(verts, x.T, y.T)
    assert 0 < inside.sum() < count
    assert np.array_equal(inside, _reference_both_inside(ref_verts, x, y))


@pytest.mark.parametrize(
    "check, kwargs",
    [
        ("perimeter", {"ell": -1.0}),
        ("perimeter", {"ell": 0.0}),
        ("perimeter", {"ell": np.nan}),
        ("perimeter", {"samples": 0}),
        ("coulomb", {"ell": -1.0}),
        ("coulomb", {"ell": 0.0}),
        ("coulomb", {"ell": np.inf}),
        ("coulomb", {"samples_per_pair": 1}),
    ],
    ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else v,
)
def test_window_checks_reject_meaningless_inputs(check, kwargs):
    # ell -1 reflected the window into negative weights, samples 0 divided by
    # zero, and one sample per pair gave a nan standard error
    omega = BallUnion(centers=np.zeros((1, 3)), radii=np.array([1.0]))
    with pytest.raises(ValueError):
        if check == "perimeter":
            gs_perimeter_identity_check(omega, **{"ell": 3.0, "samples": 100, **kwargs})
        else:
            gs_coulomb_inequality_check(
                omega, Cube(side=8.0), rho=0.05,
                **{"ell": 5.0, "samples_per_pair": 100, **kwargs},
            )


def test_coulomb_check_background_sampler_needs_a_cube():
    # at rho > 0 the container is sampled as a cube; a ball container used to
    # die reading its side
    omega = BallUnion(centers=np.zeros((1, 3)), radii=np.array([1.0]))
    with pytest.raises(TypeError, match="Ball"):
        gs_coulomb_inequality_check(omega, Ball(radius=3.0), rho=0.05, ell=5.0,
                                    samples_per_pair=100)


# ---------------------------------------------------------------------------
# cell decay
# ---------------------------------------------------------------------------


def _cube_pair_integral(cell, offset, order=10):
    """int over the cube of side ``cell`` at the origin of the potential of
    its copy at ``offset``: a tensor Gauss-Legendre rule of ``order`` points
    per axis.  Order 10 is where the escalating volume quadrature once used
    here stopped at tol = 1e-9, so the value is the same to the last bit."""
    x, w = np.polynomial.legendre.leggauss(order)
    u = (0.5 * (x + 1.0) - 0.5) * cell
    w = 0.5 * w
    pts = np.stack(np.meshgrid(u, u, u, indexing="ij"), axis=-1).reshape(-1, 3)
    ww = np.einsum("i,j,k->ijk", w, w, w).ravel()
    c = np.asarray(offset, dtype=float)
    return cell**3 * float(ww @ potential_box(c - cell / 2.0, c + cell / 2.0, pts))


def _cell_pair_interaction(points, cell, offset):
    """Interaction energy between a cell's charge (points carrying one optimal
    droplet mass each, minus the neutralizing background on the cube) and a
    copy of it translated by ``offset``."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    offset = np.asarray(offset, dtype=float)
    q = OPT_MASS
    dens = len(pts) * q / cell**3
    pts2 = pts + offset
    d = np.linalg.norm(pts[:, None, :] - pts2[None, :, :], axis=2)
    e = q**2 * float(np.sum(1.0 / d))
    lo, hi = np.full(3, -cell / 2.0), np.full(3, cell / 2.0)
    phi_1_at_2 = potential_box(lo, hi, pts2)
    phi_2_at_1 = potential_box(lo + offset, hi + offset, pts)
    e -= q * dens * float(np.sum(phi_1_at_2) + np.sum(phi_2_at_1))
    return e + dens**2 * _cube_pair_integral(cell, offset)


def test_cube_pair_rule_matches_the_volume_ladder_values():
    # (value at offset (x, 0, 0), cell 4) that the escalating volume
    # quadrature returned at tol = 1e-9
    for x, want in ((8.0, 511.1192033418857), (-8.0, 511.11920334188574),
                    (16.0, 255.97108405137996)):
        got = _cube_pair_integral(4.0, (x, 0.0, 0.0))
        assert got == pytest.approx(want, rel=1e-12)
        # well separated cubes interact nearly like point charges
        assert got == pytest.approx(4.0**6 / abs(x), rel=1e-2)


def test_cell_pair_interaction_symmetry_and_decay():
    cell = 4.0
    pts = crystal_positions("bcc", 2, cell) - cell / 2.0
    e2 = _cell_pair_interaction(pts, cell, (2.0 * cell, 0.0, 0.0))
    e2m = _cell_pair_interaction(pts, cell, (-2.0 * cell, 0.0, 0.0))
    e4 = _cell_pair_interaction(pts, cell, (4.0 * cell, 0.0, 0.0))
    assert e2 == pytest.approx(e2m, rel=1e-10)
    assert abs(e4) < abs(e2)
    # neutral cells: interaction is tiny compared to the raw charge scale
    raw = (len(pts) * OPT_MASS) ** 2 / (2.0 * cell)
    assert abs(e2) < 1e-3 * raw
