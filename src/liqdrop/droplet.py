"""Sharp-interface droplet energetics: perimeter plus Coulomb self-energy of a
droplet set against a uniform neutralizing background filling a container.

The energy of a droplet set O inside a container L at background density rho is

    perimeter(O) + (1/2) double-integral of
        (1_O - rho 1_L)(x) (1_O - rho 1_L)(y) / |x - y|.

For a single ball the energy per unit droplet volume is the one-variable
function 3/R + (4 pi/5) R^2 whose minimizer fixes the optimal droplet radius,
its volume ("mass"), and the energy-per-volume constant that acts as a
chemical potential in the grand-canonical functional below.  Those three
numbers feed every other pipeline in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from liqdrop.coulomb.grid import grid_potential
from liqdrop.coulomb.potentials import (
    domain_pair_coulomb,
    potential_domain,
    potential_domain_gradient,
)
from liqdrop.geom import Ball, BallUnion, Cube, Tetrahedron, VoxelSet, sample_in_domain

__all__ = [
    "DropletConstants",
    "LiquidDropBreakdown",
    "ball_energy_per_volume",
    "ball_optimum",
    "liquid_drop_energy",
    "grand_canonical_F",
    "GrandCanonicalDropReport",
    "mass_bound_check",
    "MassBoundReport",
]


def ball_energy_per_volume(radius) -> np.ndarray:
    """Energy per unit volume of an isolated ball droplet of the given radius:
    (4 pi R^2 + (3/5) Q^2 / R) / Q with Q = (4 pi / 3) R^3, which simplifies
    to 3/R + (4 pi / 5) R^2."""
    radius = np.asarray(radius, dtype=float)
    if np.any(radius <= 0.0):
        raise ValueError("radius must be positive")
    return 3.0 / radius + (4.0 * np.pi / 5.0) * radius**2


@dataclass(frozen=True)
class DropletConstants:
    """Optimal single-ball droplet data plus the rigorous unrestricted-problem
    brackets carried as metadata.

    The ball family gives exact closed forms; whether balls are optimal among
    all sets is an open conjecture, so ``ball_family_only`` marks that every
    value here is the ball-restricted answer.  Downstream pipelines take
    (energy-per-volume, mass, radius) as parameters so other values can be
    substituted.
    """

    best_radius: float
    best_energy_per_volume: float
    best_mass: float
    smallest_minimizer_mass: float
    unrestricted_mass_upper_bound: float = 8.0
    unrestricted_smallest_mass_lower_bound: float = 2.5
    ball_family_only: bool = True
    ball_optimality_conjectured: bool = True


# closed forms used as cross-checks and by downstream modules
OPT_RADIUS = (15.0 / (8.0 * np.pi)) ** (1.0 / 3.0)
OPT_ENERGY_PER_VOLUME = 9.0 * (np.pi / 15.0) ** (1.0 / 3.0)
OPT_MASS = 2.5


def ball_optimum() -> DropletConstants:
    """Minimize the one-variable ball energy-per-volume numerically.

    A bracketing scalar minimization is polished by Newton iteration on the
    stationarity equation -3/R^2 + (8 pi / 5) R = 0, converging to machine
    precision; the returned values agree with the closed forms
    (15/(8 pi))^(1/3) and 9 (pi/15)^(1/3) to 1e-12.
    """
    res = minimize_scalar(
        ball_energy_per_volume, bounds=(0.1, 10.0), method="bounded",
        options={"xatol": 1e-12},
    )
    r = float(res.x)
    for _ in range(60):
        d1 = -3.0 / r**2 + (8.0 * np.pi / 5.0) * r
        d2 = 6.0 / r**3 + 8.0 * np.pi / 5.0
        step = d1 / d2
        r -= step
        if abs(step) < 1e-16 * r:
            break
    mass = 4.0 * np.pi * r**3 / 3.0
    return DropletConstants(
        best_radius=r,
        best_energy_per_volume=float(ball_energy_per_volume(r)),
        best_mass=mass,
        smallest_minimizer_mass=mass,
    )


# ---------------------------------------------------------------------------
# full energy breakdown
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiquidDropBreakdown:
    perimeter: float
    droplet_droplet: float
    droplet_background: float  # carries its (negative) sign
    background_background: float
    total: float
    droplet_volume: float
    neutrality_defect: float  # droplet volume minus rho * container volume


def _ball_union_breakdown(omega: BallUnion, lam, rho, tol, container_volume):
    centers, radii = omega.centers, omega.radii
    k = len(radii)
    charges = 4.0 * np.pi * radii**3 / 3.0
    perimeter = omega.perimeter
    if k and np.any(lam.inner_distance(centers) < radii - 1e-12):
        raise ValueError("droplet set is not contained in the container")
    dd = float(np.sum(0.6 * charges**2 / radii)) if k else 0.0
    if k >= 2:
        iu, ju = np.triu_indices(k, 1)
        d = np.linalg.norm(centers[iu] - centers[ju], axis=1)
        dd += float(np.sum(charges[iu] * charges[ju] / d))
    db = 0.0
    if rho > 0.0 and k:
        phi = potential_domain(lam, centers, tol=tol)
        # exact coupling for a ball strictly inside the container: the
        # container potential splits into a harmonic part (mean value
        # property over the ball) and a quadratic part with a closed moment
        db = -rho * float(np.sum(charges * (phi - (2.0 * np.pi / 5.0) * radii**2)))
    bb = 0.0
    if rho > 0.0:
        pair, _ = domain_pair_coulomb(lam, lam, tol=tol)
        bb = 0.5 * rho**2 * pair
    volume = omega.volume
    return LiquidDropBreakdown(
        perimeter=perimeter,
        droplet_droplet=dd,
        droplet_background=db,
        background_background=bb,
        total=perimeter + dd + db + bb,
        droplet_volume=volume,
        neutrality_defect=volume - rho * container_volume,
    )


def _voxel_breakdown(omega: VoxelSet, lam, rho, perimeter_method, container_volume):
    h = omega.h
    if isinstance(lam, VoxelSet):
        if abs(lam.h - h) > 1e-12 * h:
            raise ValueError("droplet and container voxel grids disagree")
        shift = (np.asarray(omega.origin) - np.asarray(lam.origin)) / h
        idx = np.round(shift).astype(int)
        if np.max(np.abs(shift - idx)) > 1e-9:
            raise ValueError("voxel grids are not aligned")
        occ_lam = lam.occ
        occ_om = np.zeros_like(occ_lam)
        sl = tuple(slice(i, i + s) for i, s in zip(idx, omega.occ.shape))
        if any(i < 0 or i + s > L for i, s, L in zip(idx, omega.occ.shape, occ_lam.shape)):
            raise ValueError("droplet set is not contained in the container")
        occ_om[sl] = omega.occ
    elif isinstance(lam, Cube):
        n = lam.side / h
        if abs(n - round(n)) > 1e-9:
            raise ValueError("container side must be a multiple of the voxel pitch")
        n = int(round(n))
        lam_origin = np.asarray(lam.center) - lam.side / 2.0
        shift = (np.asarray(omega.origin) - lam_origin) / h
        idx = np.round(shift).astype(int)
        if np.max(np.abs(shift - idx)) > 1e-9:
            raise ValueError("voxel grid is not aligned with the container")
        occ_lam = np.ones((n, n, n), dtype=bool)
        occ_om = np.zeros_like(occ_lam)
        if any(i < 0 or i + s > n for i, s in zip(idx, omega.occ.shape)):
            raise ValueError("droplet set is not contained in the container")
        sl = tuple(slice(i, i + s) for i, s in zip(idx, omega.occ.shape))
        occ_om[sl] = omega.occ
    else:
        raise TypeError("voxel droplets need a cube or voxel-set container")
    if np.any(occ_om & ~occ_lam):
        raise ValueError("droplet set is not contained in the container")

    f_om = occ_om.astype(float)
    f_lam = occ_lam.astype(float)
    pot_om = grid_potential(f_om, h)
    dd = 0.5 * h**3 * float(np.sum(f_om * pot_om))
    db = 0.0
    bb = 0.0
    if rho > 0.0:
        pot_lam = grid_potential(f_lam, h)
        db = -rho * h**3 * float(np.sum(f_om * pot_lam))
        bb = 0.5 * rho**2 * h**3 * float(np.sum(f_lam * pot_lam))
    perimeter = omega.perimeter(method=perimeter_method)
    volume = omega.measure
    return LiquidDropBreakdown(
        perimeter=perimeter,
        droplet_droplet=dd,
        droplet_background=db,
        background_background=bb,
        total=perimeter + dd + db + bb,
        droplet_volume=volume,
        neutrality_defect=volume - rho * container_volume,
    )


def liquid_drop_energy(
    omega,
    lam,
    rho: float,
    tol: float = 1e-8,
    perimeter_method: str = "crofton13",
) -> LiquidDropBreakdown:
    """Energy breakdown of droplet set ``omega`` in container ``lam`` at
    background density ``rho``.

    Disjoint ball unions use exact closed forms throughout (spherical
    droplets interact like point charges at their centers); voxel sets use
    the free-space grid solver and a voxel perimeter estimate.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("background density must lie in [0, 1]")
    container_volume = lam.measure if isinstance(lam, VoxelSet) else lam.volume
    if isinstance(omega, BallUnion):
        return _ball_union_breakdown(omega, lam, rho, tol, container_volume)
    if isinstance(omega, VoxelSet):
        return _voxel_breakdown(omega, lam, rho, perimeter_method, container_volume)
    raise TypeError("droplet set must be a BallUnion or a VoxelSet")


# ---------------------------------------------------------------------------
# grand-canonical functional
# ---------------------------------------------------------------------------


@dataclass
class GrandCanonicalDropReport:
    value: float
    ball_count: int
    centers: np.ndarray
    radii: np.ndarray
    values_by_count: dict
    background_self: float
    converged: bool


def _gc_objective_factory(lam, rho, mu, penalty, k, tol):
    if isinstance(lam, Tetrahedron):
        normals, offsets = lam.face_planes()
    else:
        normals = offsets = None

    def objective(x):
        c = x[: 3 * k].reshape(k, 3)
        r = x[3 * k:]
        q = 4.0 * np.pi * r**3 / 3.0
        dq = 4.0 * np.pi * r**2  # dQ/dR
        e = float(np.sum(4.0 * np.pi * r**2 + 0.6 * q**2 / r - mu * q))
        gc = np.zeros((k, 3))
        gr = 8.0 * np.pi * r + 1.2 * q * dq / r - 0.6 * q**2 / r**2 - mu * dq
        if k >= 2:
            iu, ju = np.triu_indices(k, 1)
            d = c[iu] - c[ju]
            dist = np.maximum(np.linalg.norm(d, axis=1), 1e-12)
            e += float(np.sum(q[iu] * q[ju] / dist))
            gpair = -(q[iu] * q[ju] / dist**3)[:, None] * d
            np.add.at(gc, iu, gpair)
            np.add.at(gc, ju, -gpair)
            gq = np.zeros(k)
            np.add.at(gq, iu, q[ju] / dist)
            np.add.at(gq, ju, q[iu] / dist)
            gr += gq * dq
        if rho > 0.0:
            phi = potential_domain(lam, c, tol=tol)
            dphi = potential_domain_gradient(lam, c, tol=tol)
            e -= rho * float(np.sum(q * (phi - (2.0 * np.pi / 5.0) * r**2)))
            gc -= rho * q[:, None] * dphi
            gr -= rho * (dq * (phi - (2.0 * np.pi / 5.0) * r**2)
                         - q * (4.0 * np.pi / 5.0) * r)
        # containment and disjointness penalties
        if normals is not None:
            s = c @ normals.T - offsets - r[:, None]
            viol = np.minimum(s, 0.0)
            e += penalty * float(np.sum(viol**2))
            gc += 2.0 * penalty * (viol @ normals)
            gr += -2.0 * penalty * np.sum(viol, axis=1)
        else:
            s = lam.inner_distance(c) - r
            viol = np.minimum(s, 0.0)
            e += penalty * float(np.sum(viol**2))
            # gradient of inner distance: radial for balls, axis for cubes
            gdist = _inner_distance_gradient(lam, c)
            gc += 2.0 * penalty * viol[:, None] * gdist
            gr += -2.0 * penalty * viol
        if k >= 2:
            gap = dist - (r[iu] + r[ju])
            violp = np.minimum(gap, 0.0)
            e += penalty * float(np.sum(violp**2))
            u = d / dist[:, None]
            gpen = 2.0 * penalty * violp[:, None] * u
            np.add.at(gc, iu, gpen)
            np.add.at(gc, ju, -gpen)
            gpr = -2.0 * penalty * violp
            np.add.at(gr, iu, gpr)
            np.add.at(gr, ju, gpr)
        return e, np.concatenate([gc.ravel(), gr])

    return objective


def _inner_distance_gradient(lam, pts):
    if isinstance(lam, Ball):
        d = pts - np.asarray(lam.center)
        n = np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-12)
        return -d / n
    if isinstance(lam, Cube):
        d = pts - np.asarray(lam.center)
        g = np.zeros_like(pts)
        worst = np.argmax(np.abs(d), axis=1)
        rows = np.arange(len(pts))
        g[rows, worst] = -np.sign(d[rows, worst])
        return g
    raise TypeError("unsupported container for penalty gradients")


def grand_canonical_F(
    lam,
    rho: float,
    kmax: int = 3,
    seed: int = 0,
    starts: int = 3,
    mu: float | None = None,
    tol: float = 1e-8,
    kmin: int = 0,
) -> GrandCanonicalDropReport:
    """Upper bound on the grand-canonical droplet energy: the droplet energy
    minus (energy-per-volume constant) * |droplet|, minimized over unions of
    0..kmax disjoint balls with free centers and radii inside ``lam``.

    The optimal value over the nested ansatz families is non-increasing in
    ``kmax`` by construction (the scan keeps the best over all counts).
    """
    if not 0.0 <= rho <= 0.5:
        raise ValueError("background density must lie in [0, 1/2]")
    if starts < 1:
        raise ValueError("need at least one optimizer start per count")
    mu = OPT_ENERGY_PER_VOLUME if mu is None else float(mu)
    bb = 0.0
    if rho > 0.0:
        pair, _ = domain_pair_coulomb(lam, lam, tol=max(tol, 1e-9))
        bb = 0.5 * rho**2 * pair
    values = {}
    best = (np.inf, 0, np.zeros((0, 3)), np.zeros(0))
    if kmin <= 0:
        values[0] = bb
        best = (bb, 0, np.zeros((0, 3)), np.zeros(0))
    converged = True
    radius_hi = min(3.0 * OPT_RADIUS, 0.45 * lam.diameter)
    seeds = np.random.SeedSequence(seed).spawn(kmax)
    penalty_base = 1e4 * max(1.0, mu)
    for k in range(max(1, kmin), kmax + 1):
        rng = np.random.default_rng(seeds[k - 1])
        obj = _gc_objective_factory(lam, rho, mu, penalty_base * k, k, tol)
        value = _gc_objective_factory(lam, rho, mu, 0.0, k, tol)
        best_k = np.inf
        best_ck, best_rk = None, None
        for _ in range(starts):
            c0 = sample_in_domain(rng, lam, k)
            r0 = OPT_RADIUS * rng.uniform(0.8, 1.2, size=k)
            x0 = np.concatenate([c0.ravel(), r0])
            bounds = [(None, None)] * (3 * k) + [(1e-3, radius_hi)] * k
            res = minimize(obj, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                           options={"maxiter": 500, "gtol": 1e-9, "ftol": 1e-15})
            c = res.x[: 3 * k].reshape(k, 3)
            r = res.x[3 * k:]
            c, r, feasible = _make_feasible(lam, c, r)
            if not feasible:
                converged = False
                continue
            e = bb + value(np.concatenate([c.ravel(), r]))[0]
            if e < best_k:
                best_k, best_ck, best_rk = e, c, r
        if best_ck is not None:
            values[k] = best_k
            if best_k < best[0]:
                best = (best_k, k, best_ck, best_rk)
    return GrandCanonicalDropReport(
        value=best[0],
        ball_count=best[1],
        centers=best[2],
        radii=best[3],
        values_by_count=values,
        background_self=bb,
        converged=converged,
    )


def _make_feasible(lam, c, r, shrink=1.0 - 1e-9):
    """Shrink radii slightly so containment/disjointness hold exactly."""
    r = r.copy()
    for _ in range(60):
        ok = True
        inner = lam.inner_distance(c)
        over = r - inner
        if np.any(over > 0.0):
            r = np.minimum(r, np.maximum(inner, 0.0) * shrink)
            ok = False
        if len(r) >= 2:
            iu, ju = np.triu_indices(len(r), 1)
            d = np.linalg.norm(c[iu] - c[ju], axis=1)
            overlap = r[iu] + r[ju] - d
            if np.any(overlap > 0.0):
                scale = np.min(np.where(overlap > 0.0, d / (r[iu] + r[ju]), 1.0))
                r *= scale * shrink
                ok = False
        if np.any(r <= 1e-6):
            return c, r, False
        if ok:
            return c, r, True
    return c, r, False


# ---------------------------------------------------------------------------
# mass bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MassBoundReport:
    hypothesis_met: bool
    droplet_volume: float
    bound: float
    passed: bool | None
    note: str


def mass_bound_check(omega, lam, rho: float, tol: float = 1e-8) -> MassBoundReport:
    """Check the a-priori mass bound for low-energy droplet sets.

    Hypothesis: the droplet's energy does not exceed (energy-per-volume
    constant) * |droplet|.  Conclusion checked: |droplet| <= 8 + 16 pi rho
    diam(container)^3.  When the hypothesis fails the bound is not claimed.
    """
    breakdown = liquid_drop_energy(omega, lam, rho, tol=tol)
    volume = breakdown.droplet_volume
    mu_budget = OPT_ENERGY_PER_VOLUME * volume
    hypothesis = breakdown.total <= mu_budget + 1e-9 * max(1.0, abs(mu_budget))
    diam = lam.diameter if not isinstance(lam, VoxelSet) else float(
        np.linalg.norm(np.asarray(lam.occ.shape) * lam.h)
    )
    bound = 8.0 + 16.0 * np.pi * rho * diam**3
    if not hypothesis:
        return MassBoundReport(
            hypothesis_met=False,
            droplet_volume=volume,
            bound=bound,
            passed=None,
            note="hypothesis not met: energy exceeds the per-volume budget",
        )
    ok = volume <= bound + 1e-12 * max(1.0, bound)
    return MassBoundReport(
        hypothesis_met=True,
        droplet_volume=volume,
        bound=bound,
        passed=bool(ok),
        note="" if ok else "mass bound violated",
    )
