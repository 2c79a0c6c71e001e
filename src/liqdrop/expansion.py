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
from liqdrop.coulomb.potentials import domain_pair_coulomb, potential_box
from liqdrop.droplet import (
    OPT_ENERGY_PER_VOLUME,
    OPT_MASS,
    OPT_RADIUS,
    grand_canonical_F,
    liquid_drop_energy,
)
from liqdrop.geom import BallUnion, Cube, Tetrahedron, regular_tetrahedron
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
    "lower_simplex_rhs",
    "LowerSimplexReport",
    "cell_pair_interaction",
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
    self_image_term: float  # Madelung term under the chosen convention
    per_cell_bracket: float  # pair_energy + self_image_term
    upper_bound: float
    residual_coefficient: float  # (upper_bound - mu* rho) / rho^(4/3)
    residual_coefficient_no_quadratic: float
    convention: str  # "per-particle" or "single"
    quadratic_term: float


def _assemble_report(rho, n, cell, pair, madelung_over_cell, convention):
    if convention == "per-particle":
        self_term = n * madelung_over_cell / 2.0
    elif convention == "single":
        self_term = madelung_over_cell / 2.0
    else:
        raise ValueError("convention must be 'per-particle' or 'single'")
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
        convention=convention,
        quadratic_term=quad,
    )


def upper_bound_e(
    rho: float,
    n: int,
    points: np.ndarray,
    convention: str = "per-particle",
) -> ExpansionReport:
    """Upper bound on the energy per unit volume at background density rho,
    from the given N points per periodic cell of side (mass N / rho)^(1/3).

    ``points`` is required and must have shape (n, 3); the minimizer that
    programs use comes from expansion_sweep, which rescales one unit-cell
    optimization to every density.

    The self-image term has two conventions: "per-particle" applies the
    periodic self-energy once per point (default; validated against the
    independent total-energy evaluation for commensurate crystals), "single"
    applies it once per cell.  Both are reported by expansion_sweep.
    """
    if not 0.0 < rho <= 1e-2:
        raise ValueError("density must lie in (0, 1e-2]")
    if n < 2:
        raise ValueError("need at least two points per cell")
    if np.shape(points) != (n, 3):
        raise ValueError(f"points must have shape ({n}, 3), got {np.shape(points)}")
    cell = (OPT_MASS * n / rho) ** (1.0 / 3.0)
    kernel = PeriodicKernel(cell)
    pair = kernel.pair_energy(points, q=1.0)
    return _assemble_report(rho, n, cell, pair, kernel.madelung(), convention)


def expansion_sweep(
    rhos,
    n: int = 54,
    seed: int = 0,
    restarts: int = 6,
    hops: int = 2,
    threads: int = 1,
):
    """Reports for a density grid, under both self-image conventions.

    The periodic minimizer is computed once in the unit-density cell (side
    n^(1/3)) by basin hopping, with seeded crystal starts added when n
    matches a cubic crystal count, and rescaled exactly to every density
    (the kernel obeys green(cell * u; cell) = green(u; 1) / cell, so the
    scaled configuration stays optimal and its energies scale by 1/cell);
    this makes the sweep O(one optimization) instead of O(grid size).
    Returns (reports_per_particle, reports_single).
    """
    rhos = [float(r) for r in rhos]
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
    unit_pair = unit_kernel.pair_energy(unit_pos, q=1.0)
    unit_madelung = unit_kernel.madelung()
    per_particle, single = [], []
    for rho in rhos:
        cell = (OPT_MASS * n / rho) ** (1.0 / 3.0)
        scale = unit_side / cell  # energies scale like inverse length
        pair = unit_pair * scale
        mad_over_cell = unit_madelung * scale
        per_particle.append(_assemble_report(rho, n, cell, pair, mad_over_cell,
                                             "per-particle"))
        single.append(_assemble_report(rho, n, cell, pair, mad_over_cell,
                                       "single"))
    return per_particle, single


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


def _random_rotations(rng, count):
    """Uniform rotation matrices via normalized quaternions."""
    q = rng.normal(size=(count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((count, 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def _triangle_points(rng, a, b, c):
    """Uniform points on triangles with vertex arrays a, b, c."""
    u = rng.random(len(a))
    v = rng.random(len(a))
    flip = u + v > 1.0
    u = np.where(flip, 1.0 - u, u)
    v = np.where(flip, 1.0 - v, v)
    return a + u[:, None] * (b - a) + v[:, None] * (c - a)


_FACE_IDX = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def _random_windows(rng, ell, count, lo, hi):
    """``count`` random rigid motions of the window, the unit-volume regular
    tetrahedron scaled by ``ell``: a uniform rotation, then a translation
    drawn uniformly from the box of those whose rotated bounding box meets
    [lo, hi].  Returns the moved vertices (count, 4, 3) and each motion's
    weight, the volume of its translation box over ell^3."""
    verts0 = regular_tetrahedron().vertices * ell
    verts = np.einsum("bij,vj->bvi", _random_rotations(rng, count), verts0)
    vlo = verts.min(axis=1)
    vhi = verts.max(axis=1)
    tlo = lo - vhi
    thi = hi - vlo
    t = tlo + rng.random((count, 3)) * (thi - tlo)
    weight = np.prod(thi - tlo, axis=1) / ell**3
    return verts + t[:, None, :], weight


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
    size fixes the drawn stream, hence the result for a given seed.

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
    for i, j, k in _FACE_IDX:
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
        verts, weight = _random_windows(rng, ell, b, lo_om, hi_om)
        # inward-oriented face planes of each moved tetrahedron
        normals = np.empty((b, 4, 3))
        offsets = np.empty((b, 4))
        for f, (i, j, k) in enumerate(_FACE_IDX):
            nvec = np.cross(verts[:, j] - verts[:, i], verts[:, k] - verts[:, i])
            nvec /= np.linalg.norm(nvec, axis=1, keepdims=True)
            off = np.einsum("bi,bi->b", nvec, verts[:, i])
            opp = ({0, 1, 2, 3} - {i, j, k}).pop()
            s = np.sign(np.einsum("bi,bi->b", nvec, verts[:, opp]) - off)
            nvec *= s[:, None]
            off *= s
            normals[:, f] = nvec
            offsets[:, f] = off

        # droplet surface inside the window
        ball_pick = rng.choice(len(radii), size=(b, m), p=areas / total_ball_area)
        dirs = rng.normal(size=(b, m, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        pts = centers[ball_pick] + radii[ball_pick][..., None] * dirs
        inside_tet = np.all(
            np.einsum("bfi,bmi->bmf", normals, pts) >= offsets[:, None, :] - 1e-12,
            axis=2,
        )
        sphere_part = total_ball_area * inside_tet.mean(axis=1)

        # window surface inside the droplets (4 equal-area faces)
        face_pick = rng.integers(0, 4, size=(b, m))
        fidx = np.asarray(_FACE_IDX)[face_pick]  # (b, m, 3)
        arange_b = np.arange(b)[:, None]
        a_v = verts[arange_b, fidx[:, :, 0]]
        b_v = verts[arange_b, fidx[:, :, 1]]
        c_v = verts[arange_b, fidx[:, :, 2]]
        fpts = _triangle_points(rng, a_v.reshape(-1, 3), b_v.reshape(-1, 3),
                                c_v.reshape(-1, 3)).reshape(b, m, 3)
        d = np.linalg.norm(fpts[:, :, None, :] - centers[None, None, :, :], axis=3)
        inside_om = np.any(d <= radii[None, None, :], axis=2)
        face_part = (area_tetra) * inside_om.mean(axis=1)

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

    Raises ValueError unless ``ell`` is positive and finite and
    ``samples_per_pair`` is at least 2.
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
        comp_samplers.append(("cube", np.asarray(lam.center), lam.side,
                              lam.side**3, -rho))

    def draw(comp, count):
        kind, c, size, vol, w = comp
        if kind == "ball":
            u = rng_master.normal(size=(count, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            radius = size * rng_master.random(count) ** (1.0 / 3.0)
            return c + u * radius[:, None]
        return c + (rng_master.random((count, 3)) - 0.5) * size

    rhs = 0.0
    var_total = 0.0
    n_comp = len(comp_samplers)
    for i in range(n_comp):
        for j in range(i, n_comp):
            ci, cj = comp_samplers[i], comp_samplers[j]
            count = samples_per_pair
            x = draw(ci, count)
            y = draw(cj, count)
            r = np.linalg.norm(x - y, axis=1)
            good = r > 1e-12
            verts, wbox = _random_windows(rng_master, ell, count, x, x)
            inside = np.ones(count, dtype=bool)
            for f, (p, qq, s) in enumerate(_FACE_IDX):
                nvec = np.cross(verts[:, qq] - verts[:, p], verts[:, s] - verts[:, p])
                opp = ({0, 1, 2, 3} - {p, qq, s}).pop()
                side_opp = np.einsum("bi,bi->b", nvec, verts[:, opp] - verts[:, p])
                side_x = np.einsum("bi,bi->b", nvec, x - verts[:, p])
                side_y = np.einsum("bi,bi->b", nvec, y - verts[:, p])
                inside &= (side_x * side_opp >= 0) & (side_y * side_opp >= 0)
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


# ---------------------------------------------------------------------------
# simplex lower-bound bracket
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerSimplexReport:
    value: float
    grand_canonical_value: float
    cell: float
    a_scale: float
    rho: float
    note: str


def lower_simplex_rhs(
    rho: float,
    a_scale: float,
    depth: int = 4,
    seed: int = 0,
    starts: int = 2,
) -> LowerSimplexReport:
    """The simplex-cell bracket appearing in the matching lower bound:
    (grand-canonical value on the tetra cell of side scale A rho^(-1/3))
    divided by (rho^(1/3) A^3).

    Computed with the ball-ansatz minimizer, so the returned number is an
    upper bound on the true bracket; the order-1/A correction with its
    non-explicit constant is reported as unquantified.
    """
    if rho < 0.0 or rho > 1e-2:
        raise ValueError("density must lie in [0, 1e-2]")
    if not 2.0 <= a_scale <= 6.0:
        raise ValueError("cell scale must lie in [2, 6]")
    if rho == 0.0:
        return LowerSimplexReport(0.0, 0.0, np.inf, a_scale, 0.0,
                                  "empty optimum at zero density")
    ell = a_scale * rho ** (-1.0 / 3.0)
    tet = Tetrahedron(vertices=regular_tetrahedron().vertices * ell)
    report = grand_canonical_F(tet, rho, kmax=depth, seed=seed, starts=starts)
    value = report.value / (rho ** (1.0 / 3.0) * a_scale**3)
    return LowerSimplexReport(
        value=value,
        grand_canonical_value=report.value,
        cell=ell,
        a_scale=a_scale,
        rho=rho,
        note="ansatz upper bound; order-1/A correction constant unquantified",
    )


# ---------------------------------------------------------------------------
# cell-to-cell interaction for the decay property
# ---------------------------------------------------------------------------


def cell_pair_interaction(points, cell: float, offset) -> float:
    """Interaction energy between a cell's charge (unit-mass points at the
    given positions carrying the droplet mass each, minus the neutralizing
    uniform background on the cube) and a translated copy of itself.

    Used to verify the multipole decay of neutral, dipole-free cells.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    offset = np.asarray(offset, dtype=float)
    q = OPT_MASS
    dens = n * q / cell**3
    pts2 = pts + offset
    d = np.linalg.norm(pts[:, None, :] - pts2[None, :, :], axis=2)
    e = q**2 * float(np.sum(1.0 / d))
    lo1 = np.full(3, -cell / 2.0)
    hi1 = -lo1
    phi_1_at_2 = potential_box(lo1, hi1, pts2)  # cube 1 potential at copy's points
    phi_2_at_1 = potential_box(lo1 + offset, hi1 + offset, pts)
    e -= q * dens * float(np.sum(phi_1_at_2) + np.sum(phi_2_at_1))
    pair, _ = domain_pair_coulomb(
        Cube(side=cell), Cube(side=cell, center=tuple(offset)), tol=1e-9
    )
    e += dens**2 * pair
    return e
