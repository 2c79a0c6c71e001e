"""Dilute-limit energy expansion via explicit trial states, plus Monte-Carlo
verification of the rigid-motion localization identities used by the matching
lower bound.

Pipeline: place N optimized points in a periodic cube whose side is chosen so
each point carries one optimal droplet mass at the target background density,
evaluate the periodic Coulomb energy of the resulting point configuration
(including the self-image term), and assemble an upper bound on the energy
per volume of the form

    (energy-per-volume constant) * rho + (point-energy term) * rho^(4/3)
        + (droplet-size correction) * rho^2.

Fitting the bound over a grid of densities recovers the linear coefficient
and the rho^(4/3) coefficient, whose target is (droplet mass)^(2/3) times the
per-particle energy of the periodic point problem at unit density.

The localization checks sample rigid motions of a fixed unit-volume
tetrahedron: the perimeter identity reconstructs the perimeter of a ball
union from tetrahedral windows, and the Coulomb inequality bounds the full
interaction energy from below by its window-localized average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from liqdrop.coulomb.ewald import PeriodicKernel
from liqdrop.droplet import (
    OPT_ENERGY_PER_VOLUME,
    OPT_MASS,
    OPT_RADIUS,
    liquid_drop_energy,
)
from liqdrop.geom import BallUnion, Cube, regular_tetrahedron
from liqdrop.jellium import basin_hop, crystal_positions

__all__ = [
    "ExpansionReport",
    "upper_bound_e",
    "expansion_sweep",
    "extract_coefficients",
    "gs_perimeter_identity_check",
    "PerimeterIdentityReport",
    "gs_coulomb_inequality_check",
    "CoulombLocalizationReport",
]


# ---------------------------------------------------------------------------
# upper bound assembly
# ---------------------------------------------------------------------------


@dataclass
class ExpansionReport:
    rho: float
    n_points: int
    cell: float
    pair_energy: float  # sum over pairs of the periodic kernel
    self_image_term: float  # n * Madelung / (2 cell): each point's own images
    per_cell_bracket: float  # pair_energy + self_image_term
    upper_bound: float
    residual_coefficient: float  # (upper_bound - mu* rho) / rho^(4/3)
    residual_coefficient_no_quadratic: float
    quadratic_term: float


def _assemble_report(rho, n, cell, pair, madelung_over_cell):
    self_term = n * madelung_over_cell / 2.0
    bracket = pair + self_term
    quad = 2.0 * np.pi * OPT_RADIUS**2 * rho**2
    bound = OPT_ENERGY_PER_VOLUME * rho + (OPT_MASS**2 / cell**3) * bracket + quad
    resid = (bound - OPT_ENERGY_PER_VOLUME * rho) / rho ** (4.0 / 3.0)
    resid_nq = (bound - OPT_ENERGY_PER_VOLUME * rho - quad) / rho ** (4.0 / 3.0)
    return ExpansionReport(
        rho=rho,
        n_points=n,
        cell=cell,
        pair_energy=pair,
        self_image_term=self_term,
        per_cell_bracket=bracket,
        upper_bound=bound,
        residual_coefficient=resid,
        residual_coefficient_no_quadratic=resid_nq,
        quadratic_term=quad,
    )


def _trial_cell(rho: float, n: int) -> float:
    """Side of the periodic cell holding n optimal droplets at background
    density rho; rho must lie in (0, 1e-2], the dilute range the trial state
    is built for (denser cells make neighbouring droplets overlap)."""
    if not 0.0 < rho <= 1e-2:
        raise ValueError("density must lie in (0, 1e-2]")
    return (OPT_MASS * n / rho) ** (1.0 / 3.0)


def upper_bound_e(rho: float, n: int, points: np.ndarray) -> ExpansionReport:
    """Upper bound on the energy per unit volume at background density rho,
    from the given N points per periodic cell of side (mass N / rho)^(1/3).

    ``points`` is required and must have shape (n, 3); the minimizer that
    programs use comes from expansion_sweep, which rescales one unit-cell
    optimization to every density.

    The periodic self-energy (half the Madelung term) counts once per point,
    which matches the independent total-energy evaluation for commensurate
    crystals.
    """
    cell = _trial_cell(rho, n)
    if n < 2:
        raise ValueError("need at least two points per cell")
    if np.shape(points) != (n, 3):
        raise ValueError(f"points must have shape ({n}, 3), got {np.shape(points)}")
    kernel = PeriodicKernel(cell)
    pair = kernel.pair_energy(points)
    return _assemble_report(rho, n, cell, pair, kernel.madelung())


def expansion_sweep(
    rhos,
    n: int = 54,
    seed: int = 0,
    restarts: int = 6,
    hops: int = 2,
    threads: int = 1,
):
    """Upper-bound reports for a density grid.

    The periodic minimizer is computed once in the unit-density cell (side
    n^(1/3)) by basin hopping, with seeded crystal starts added when n
    matches a cubic crystal count, and rescaled exactly to every density
    (the kernel obeys green(cell * u; cell) = green(u; 1) / cell, so the
    scaled configuration stays optimal and its energies scale by 1/cell);
    this makes the sweep O(one optimization) instead of O(grid size).
    Every density must lie in (0, 1e-2], as in ``upper_bound_e``; the grid
    is checked before the search starts.
    Returns (one report per density, the ``BasinHopResult`` of the search).
    """
    rhos = [float(r) for r in rhos]
    cells = [_trial_cell(rho, n) for rho in rhos]
    unit_side = n ** (1.0 / 3.0)
    unit_kernel = PeriodicKernel(unit_side)
    extras = []
    for kind, per_cell in (("sc", 1), ("bcc", 2), ("fcc", 4)):
        k = round((n / per_cell) ** (1.0 / 3.0))
        if k >= 1 and per_cell * k**3 == n:
            extras.append(crystal_positions(kind, k, unit_side))
    result = basin_hop(
        n, unit_kernel, restarts=restarts, hops=hops, seed=seed, threads=threads,
        initial_configs=extras,
    )
    unit_pos = result.best_positions.copy()
    unit_pos -= unit_pos.mean(axis=0)  # zero total displacement in the centered cell
    unit_pair = unit_kernel.pair_energy(unit_pos)
    unit_madelung = unit_kernel.madelung()
    reports = []
    for rho, cell in zip(rhos, cells):
        scale = unit_side / cell  # energies scale like inverse length
        reports.append(_assemble_report(rho, n, cell, unit_pair * scale,
                                        unit_madelung * scale))
    return reports, result


def extract_coefficients(rhos, values):
    """Least-squares fit of upper-bound values to c1 rho + c2 rho^(4/3),
    after subtracting the analytic droplet-size correction
    2 pi R*^2 rho^2 from each value.

    values may be ExpansionReports or plain numbers.
    Returns (c1, c2, max abs fit residual).
    """
    rhos = np.asarray([float(r) for r in rhos])
    vals = np.asarray(
        [v.upper_bound if isinstance(v, ExpansionReport) else float(v) for v in values]
    )
    if len(rhos) != len(vals):
        raise ValueError("grid and values disagree in length")
    if len(rhos) < 4:
        raise ValueError("need at least 4 densities for a stable fit")
    if rhos.max() / rhos.min() < 10.0:
        raise ValueError("density grid must span at least a factor of 10")
    y = vals - 2.0 * np.pi * OPT_RADIUS**2 * rhos**2
    X = np.stack([rhos, rhos ** (4.0 / 3.0)], axis=1)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    return float(coef[0]), float(coef[1]), float(np.abs(resid).max())


# ---------------------------------------------------------------------------
# rigid-motion sampling utilities
# ---------------------------------------------------------------------------
#
# The window checks work on component-major arrays: a batch of points is
# (3, ..., batch) and a batch of moved windows is (4 vertices, 3, batch), so
# each step is an elementwise pass over contiguous rows.  Random draws keep
# their row-major shapes and order and are transposed once (_transposed).
# The three helpers group their terms as numpy's calls on (batch, 3) arrays
# do: np.cross computes [a1*b2 - a2*b1, a2*b0 - a0*b2, a0*b1 - a1*b0], a
# 3-term einsum contraction computes (x0*y0 + x2*y2) + x1*y1, and
# np.linalg.norm over a length-3 axis computes sqrt((x*x + y*y) + z*z).  So
# the digits of a seeded check do not depend on the layout; the tests hold
# the kernel bit for bit to a row-major einsum reference.


def _transposed(a):
    """A draw made in its row-major shape, laid out component-major."""
    return np.ascontiguousarray(a.T)


def _cross(a, b):
    return np.stack((a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]))


def _dot(a, b):
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _norm(a):
    return np.sqrt((a[0] * a[0] + a[1] * a[1]) + a[2] * a[2])


def _random_rotations(rng, count):
    """Uniform rotation matrices via normalized quaternions, as a
    (3, 3, count) array."""
    q = rng.normal(size=(count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = _transposed(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _triangle_points(rng, a, b, c):
    """Uniform points on the triangles with vertex arrays a, b, c of shape
    (3, m, count); the two uniform draws run over count, then m."""
    m, count = a.shape[1:]
    u = _transposed(rng.random(count * m).reshape(count, m))
    v = _transposed(rng.random(count * m).reshape(count, m))
    flip = u + v > 1.0
    u = np.where(flip, 1.0 - u, u)
    v = np.where(flip, 1.0 - v, v)
    return a + u * (b - a) + v * (c - a)


# the corners i < j < k of each face, then the opposite vertex
_FACES = ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 3, 1), (1, 2, 3, 0))


def _random_windows(rng, ell, count, lo, hi):
    """``count`` random rigid motions of the window, the unit-volume regular
    tetrahedron scaled by ``ell``: a uniform rotation, then a translation
    drawn uniformly from the box of those whose rotated bounding box meets
    [lo, hi], where lo and hi are (3, 1) or (3, count).  Returns the moved
    vertices (4, 3, count) and each motion's weight, the volume of its
    translation box over ell^3."""
    verts0 = regular_tetrahedron().vertices * ell
    # verts[v, i] = sum over j of rot[i, j] * verts0[v, j], grouped by _dot
    columns = _random_rotations(rng, count).transpose(1, 0, 2)[:, None]
    verts = _dot(columns, verts0.T[:, :, None, None])
    tlo = lo - verts.max(axis=0)
    step = hi - verts.min(axis=0) - tlo
    verts += tlo + _transposed(rng.random((count, 3))) * step
    weight = step[0] * step[1] * step[2] / ell**3
    return verts, weight


def _face_planes(verts):
    """Unit normals (4, 3, count) and offsets (4, count) of the faces of the
    moved windows, in the order of _FACES, oriented so that n . x >= offset
    inside the window."""
    normals = np.empty(verts.shape)
    offsets = np.empty((4, verts.shape[2]))
    for f, (i, j, k, opp) in enumerate(_FACES):
        nvec = _cross(verts[j] - verts[i], verts[k] - verts[i])
        nvec /= _norm(nvec)
        off = _dot(nvec, verts[i])
        s = np.sign(_dot(nvec, verts[opp]) - off)
        normals[f] = nvec * s
        offsets[f] = off * s
    return normals, offsets


def _both_inside(verts, x, y):
    """Whether the points x and y, both (3, count), lie in their moved window:
    each on the side of every face plane that holds the opposite vertex,
    boundary included."""
    inside = np.ones(verts.shape[2], dtype=bool)
    for i, j, k, opp in _FACES:
        nvec = _cross(verts[j] - verts[i], verts[k] - verts[i])
        side_opp = _dot(nvec, verts[opp] - verts[i])
        side_x = _dot(nvec, x - verts[i])
        side_y = _dot(nvec, y - verts[i])
        inside &= (side_x * side_opp >= 0) & (side_y * side_opp >= 0)
    return inside


@dataclass(frozen=True)
class PerimeterIdentityReport:
    analytic: float
    mc_value: float
    sigma: float
    window_correction: float
    samples: int


def gs_perimeter_identity_check(
    omega: BallUnion,
    ell: float,
    samples: int = 10**6,
    seed: int = 0,
) -> PerimeterIdentityReport:
    """Monte-Carlo check of the tetrahedral-window perimeter identity.

    The perimeter of a ball union equals the Haar average over rigid motions
    of the perimeter of the intersection with a moving window, the
    unit-volume regular tetrahedron scaled by ``ell``, normalized so each
    point is covered once, minus the window's own surface contribution
    (tetra surface area) * |omega| / ell.  Both boundary pieces (droplet
    surface inside the window, window surface inside the droplets) are
    sampled at 4 points each per motion; the report carries the MC standard
    error of the mean.  Motions are drawn in batches of 50,000, and the batch
    size fixes the drawn stream, hence the result for a given seed.  Each
    batch is held component-major, and its dot products, cross products and
    norms keep the grouping of numpy's row-major calls (see the helpers
    above), so the layout does not change a digit.

    Raises ValueError unless ``ell`` is positive and finite and ``samples``
    is at least 1.
    """
    if not 0.0 < ell < np.inf:
        raise ValueError("window scale ell must be positive and finite")
    if samples < 1:
        raise ValueError("need at least one sample")
    if len(omega.radii) == 0:
        return PerimeterIdentityReport(0.0, 0.0, 0.0, 0.0, samples)
    verts0 = regular_tetrahedron().vertices * ell
    area_tetra = 0.0
    for i, j, k, _ in _FACES:
        area_tetra += 0.5 * np.linalg.norm(
            np.cross(verts0[j] - verts0[i], verts0[k] - verts0[i])
        )
    correction = area_tetra / ell**2 * omega.volume / ell

    centers, radii = omega.centers, omega.radii
    areas = 4.0 * np.pi * radii**2
    total_ball_area = float(areas.sum())
    lo_om, hi_om = omega.bounding_box()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    total = 0.0
    total_sq = 0.0
    done = 0
    m = 4  # surface points per motion on each boundary piece
    while done < samples:
        b = min(50_000, samples - done)
        verts, weight = _random_windows(rng, ell, b, lo_om[:, None], hi_om[:, None])

        # droplet surface inside the window
        ball_pick = _transposed(rng.choice(len(radii), size=(b, m),
                                           p=areas / total_ball_area))
        dirs = _transposed(rng.normal(size=(b, m, 3)))
        pts = centers.T[:, ball_pick] + radii[ball_pick] * (dirs / _norm(dirs))
        inside_tet = np.ones((m, b), dtype=bool)
        for nvec, off in zip(*_face_planes(verts)):
            inside_tet &= _dot(nvec[:, None], pts) >= off - 1e-12
        sphere_part = total_ball_area * inside_tet.mean(axis=0)

        # window surface inside the droplets (4 equal-area faces)
        face_pick = _transposed(rng.integers(0, 4, size=(b, m)))
        # corners (a, b, c) of the picked face f, as listed in _FACES: a is
        # vertex 1 on face 3, b is vertex 2 on faces 2 and 3, c is vertex 2
        # on face 0, and each is the other candidate vertex elsewhere
        v0, v1, v2, v3 = verts[:, :, None]
        fpts = _triangle_points(rng,
                                np.where(face_pick == 3, v1, v0),
                                np.where(face_pick >= 2, v2, v1),
                                np.where(face_pick == 0, v2, v3))
        inside_om = np.zeros((m, b), dtype=bool)
        for center, radius in zip(centers, radii):
            inside_om |= _norm(fpts - center[:, None, None]) <= radius
        face_part = area_tetra * inside_om.mean(axis=0)

        vals = weight * (sphere_part + face_part)
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    sigma = np.sqrt(var / samples)
    return PerimeterIdentityReport(
        analytic=omega.perimeter,
        mc_value=mean - correction,
        sigma=float(sigma),
        window_correction=correction,
        samples=samples,
    )


@dataclass(frozen=True)
class CoulombLocalizationReport:
    lhs: float
    rhs: float
    sigma: float
    margin_in_sigmas: float
    passed: bool


def gs_coulomb_inequality_check(
    omega: BallUnion,
    lam: Cube,
    rho: float,
    ell: float,
    samples_per_pair: int = 40_000,
    seed: int = 0,
) -> CoulombLocalizationReport:
    """Sampling check that window localization only lowers Coulomb energy.

    LHS: exact energy of the droplet-minus-background charge.  RHS: the Haar
    average over rigid tetrahedral windows of the energy localized to one
    window, written via the pair-coverage weight (the probability that both
    points of a pair fall in the same moving window) and sampled jointly
    with the pair points.  Superadditivity of the Coulomb energy under this
    averaging gives LHS >= RHS; the check passes when LHS >= RHS - 3 sigma.
    The window is the unit-volume regular tetrahedron scaled by ``ell``.
    Points and windows are held component-major, and their dot products,
    cross products and norms keep the grouping of numpy's row-major calls
    (see the helpers above), so the layout does not change a digit.

    Raises ValueError unless ``ell`` is positive and finite and
    ``samples_per_pair`` is at least 2, and TypeError at ``rho`` > 0 unless
    ``lam`` is a ``Cube``.
    """
    if not 0.0 < ell < np.inf:
        raise ValueError("window scale ell must be positive and finite")
    if samples_per_pair < 2:
        raise ValueError("need at least two samples per pair for a standard error")
    k = len(omega.radii)
    if k == 0 and rho == 0.0:
        return CoulombLocalizationReport(0.0, 0.0, 0.0, 0.0, True)
    breakdown = liquid_drop_energy(omega, lam, rho)
    lhs = breakdown.droplet_droplet + breakdown.droplet_background + (
        breakdown.background_background
    )

    # components of the signed charge: each ball with weight +1, the
    # container with weight -rho
    comp_samplers = []
    rng_master = np.random.default_rng(np.random.SeedSequence(seed))
    for i in range(k):
        comp_samplers.append(("ball", omega.centers[i], omega.radii[i],
                              4.0 * np.pi * omega.radii[i]**3 / 3.0, 1.0))
    if rho > 0.0:
        if not isinstance(lam, Cube):
            raise TypeError(f"the background sampler needs a Cube, not a {type(lam).__name__}")
        comp_samplers.append(("cube", np.asarray(lam.center), lam.side,
                              lam.side**3, -rho))

    def draw(comp, count):
        kind, c, size, vol, w = comp
        if kind == "ball":
            u = _transposed(rng_master.normal(size=(count, 3)))
            radius = size * rng_master.random(count) ** (1.0 / 3.0)
            return c[:, None] + u / _norm(u) * radius
        return c[:, None] + (_transposed(rng_master.random((count, 3))) - 0.5) * size

    rhs = 0.0
    var_total = 0.0
    n_comp = len(comp_samplers)
    for i in range(n_comp):
        for j in range(i, n_comp):
            ci, cj = comp_samplers[i], comp_samplers[j]
            count = samples_per_pair
            x = draw(ci, count)
            y = draw(cj, count)
            r = _norm(x - y)
            good = r > 1e-12
            verts, wbox = _random_windows(rng_master, ell, count, x, x)
            inside = _both_inside(verts, x, y)
            kernel_vals = np.where(good, wbox * inside / np.maximum(r, 1e-12), 0.0)
            pref = ci[3] * cj[3] * ci[4] * cj[4]
            if i == j:
                pref *= 0.5
            est = pref * kernel_vals
            rhs += float(est.mean())
            var_total += float(est.var(ddof=1)) / count
    sigma = float(np.sqrt(var_total))
    margin = (lhs - rhs) / sigma if sigma > 0 else np.inf
    return CoulombLocalizationReport(
        lhs=lhs,
        rhs=rhs,
        sigma=sigma,
        margin_in_sigmas=float(margin),
        passed=bool(lhs >= rhs - 3.0 * sigma),
    )
