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
from scipy.optimize import minimize

from liqdrop.coulomb.grid import grid_potential
from liqdrop.coulomb.potentials import domain_field, domain_pair_coulomb
from liqdrop.geom import Ball, BallUnion, Cube, VoxelSet, sample_in_domain
from liqdrop.jellium import RestartStatus

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
    value here is the ball-restricted answer.
    """

    best_radius: float
    best_energy_per_volume: float
    best_mass: float
    smallest_minimizer_mass: float
    unrestricted_mass_upper_bound: float = 8.0
    unrestricted_smallest_mass_lower_bound: float = 2.5
    ball_family_only: bool = True
    ball_optimality_conjectured: bool = True


# the ball optimum in closed form; OPT_RADIUS solves -3/R^2 + (8 pi / 5) R = 0
OPT_RADIUS = (15.0 / (8.0 * np.pi)) ** (1.0 / 3.0)
OPT_ENERGY_PER_VOLUME = 9.0 * (np.pi / 15.0) ** (1.0 / 3.0)
OPT_MASS = 2.5


def ball_optimum() -> DropletConstants:
    """The optimal single-ball droplet: radius (15/(8 pi))^(1/3), energy per
    volume 9 (pi/15)^(1/3) and mass 5/2, the stationary point of
    3/R + (4 pi / 5) R^2."""
    return DropletConstants(
        best_radius=OPT_RADIUS,
        best_energy_per_volume=OPT_ENERGY_PER_VOLUME,
        best_mass=OPT_MASS,
        smallest_minimizer_mass=OPT_MASS,
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


def _wall_margins(lam, c, r):
    """Wall margins of the balls of centers ``c`` and radii ``r`` in the
    container ``lam``: per axis in a ``Cube``, radial in a ``Ball``; all >= 0
    iff every ball lies in ``lam``."""
    d = c - np.asarray(lam.center)
    if isinstance(lam, Ball):
        return lam.radius - np.linalg.norm(d, axis=1) - r
    return (lam.side / 2.0 - np.abs(d) - r[:, None]).ravel()


def _ball_union_breakdown(omega: BallUnion, lam, rho):
    centers, radii = omega.centers, omega.radii
    k = len(radii)
    charges = 4.0 * np.pi * radii**3 / 3.0
    perimeter = omega.perimeter
    if k and np.any(_wall_margins(lam, centers, radii) < -1e-12):
        raise ValueError("droplet set is not contained in the container")
    dd = float(np.sum(0.6 * charges**2 / radii)) if k else 0.0
    if k >= 2:
        iu, ju = np.triu_indices(k, 1)
        d = np.linalg.norm(centers[iu] - centers[ju], axis=1)
        dd += float(np.sum(charges[iu] * charges[ju] / d))
    db = 0.0
    if rho > 0.0 and k:
        phi, _ = domain_field(lam, centers)
        # exact coupling for a ball strictly inside the container: the
        # container potential splits into a harmonic part (mean value
        # property over the ball) and a quadratic part with a closed moment
        db = -rho * float(np.sum(charges * (phi - (2.0 * np.pi / 5.0) * radii**2)))
    bb = 0.0
    if rho > 0.0:
        pair, _ = domain_pair_coulomb(lam, lam)
        bb = 0.5 * rho**2 * pair
    volume = omega.volume
    return LiquidDropBreakdown(
        perimeter=perimeter,
        droplet_droplet=dd,
        droplet_background=db,
        background_background=bb,
        total=perimeter + dd + db + bb,
        droplet_volume=volume,
        neutrality_defect=volume - rho * lam.volume,
    )


def _voxel_breakdown(omega: VoxelSet, lam: VoxelSet, rho):
    h = omega.h
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
    if np.any(occ_om & ~occ_lam):
        raise ValueError("droplet set is not contained in the container")

    # the droplet field and, at rho > 0, the container's go through one
    # call, which builds the kernel once
    f = np.stack([occ_om, occ_lam] if rho > 0.0 else [occ_om]).astype(float)
    pot = grid_potential(f, h)
    dd = 0.5 * h**3 * float(np.sum(f[0] * pot[0]))
    db = 0.0
    bb = 0.0
    if rho > 0.0:
        db = -rho * h**3 * float(np.sum(f[0] * pot[1]))
        bb = 0.5 * rho**2 * h**3 * float(np.sum(f[1] * pot[1]))
    perimeter = omega.perimeter()
    volume = omega.measure
    return LiquidDropBreakdown(
        perimeter=perimeter,
        droplet_droplet=dd,
        droplet_background=db,
        background_background=bb,
        total=perimeter + dd + db + bb,
        droplet_volume=volume,
        neutrality_defect=volume - rho * lam.measure,
    )


def liquid_drop_energy(
    omega,
    lam,
    rho: float,
) -> LiquidDropBreakdown:
    """Energy breakdown of droplet set ``omega`` in container ``lam`` at
    background density ``rho``.

    Disjoint ball unions use exact closed forms throughout (spherical
    droplets interact like point charges at their centers); voxel sets use
    the free-space grid solver and a voxel perimeter estimate, and need a
    voxel-set container on the same grid (``voxelize_domain``).  A ball
    union needs a ``Ball`` or a ``Cube`` container; any other container,
    like any other droplet set, raises ``TypeError``.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("background density must lie in [0, 1]")
    if isinstance(omega, BallUnion):
        if not isinstance(lam, (Ball, Cube)):
            raise TypeError(
                f"ball-union droplets need a Ball or a Cube container, not {type(lam).__name__}"
            )
        return _ball_union_breakdown(omega, lam, rho)
    if isinstance(omega, VoxelSet):
        if not isinstance(lam, VoxelSet):
            raise TypeError(
                f"voxel droplets need a voxel-set container, not {type(lam).__name__}"
            )
        return _voxel_breakdown(omega, lam, rho)
    raise TypeError("droplet set must be a BallUnion or a VoxelSet")


# ---------------------------------------------------------------------------
# grand-canonical functional
# ---------------------------------------------------------------------------


@dataclass
class GrandCanonicalDropReport:
    """Result of ``grand_canonical_F``: per count, a ``RestartStatus`` over
    its SLSQP starts; ``converged`` when every start succeeded and kept every
    radius positive."""

    value: float
    ball_count: int
    centers: np.ndarray
    radii: np.ndarray
    values_by_count: dict
    status_by_count: dict
    background_self: float
    converged: bool


def _gc_objective_factory(lam, rho, k):
    mu = OPT_ENERGY_PER_VOLUME

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
            phi, dphi = domain_field(lam, c)
            e -= rho * float(np.sum(q * (phi - (2.0 * np.pi / 5.0) * r**2)))
            gc -= rho * q[:, None] * dphi
            gr -= rho * (dq * (phi - (2.0 * np.pi / 5.0) * r**2)
                         - q * (4.0 * np.pi / 5.0) * r)
        return e, np.concatenate([gc.ravel(), gr])

    return objective


def _gc_margins(lam, k, x):
    """Wall margins and pair gaps of the union ``x`` (centers, then radii);
    all >= 0 iff it is feasible."""
    c = x[: 3 * k].reshape(k, 3)
    r = x[3 * k:]
    iu, ju = np.triu_indices(k, 1)
    gaps = np.linalg.norm(c[iu] - c[ju], axis=1) - r[iu] - r[ju]
    return np.concatenate([_wall_margins(lam, c, r), gaps])


def grand_canonical_F(
    lam,
    rho: float,
    kmax: int = 3,
    seed: int = 0,
    starts: int = 3,
) -> GrandCanonicalDropReport:
    """Upper bound on the grand-canonical droplet energy: the droplet energy
    minus (energy-per-volume constant) * |droplet|, minimized over unions of
    0..kmax disjoint balls with free centers and radii inside ``lam``, a
    ``Ball`` or a ``Cube``.

    Each seeded start runs SLSQP with the wall margins (per axis in a
    ``Cube``, radial in a ``Ball``) and the pair gaps as inequality
    constraints; every radius then shrinks once by the worst violation left.
    ``converged`` is true only when every start succeeded and kept every
    radius positive; ``status_by_count`` says so per count.

    The optimal value over the nested ansatz families is non-increasing in
    ``kmax`` by construction (the scan keeps the best over all counts).
    Raises ``TypeError`` for any other container.
    """
    if not isinstance(lam, (Ball, Cube)):
        raise TypeError(f"the container must be a Ball or a Cube, not {type(lam).__name__}")
    if not 0.0 <= rho <= 0.5:
        raise ValueError("background density must lie in [0, 1/2]")
    if starts < 1:
        raise ValueError("need at least one optimizer start per count")
    if kmax < 0:
        raise ValueError("the largest droplet count must be at least 0")
    if not lam.volume > 0.0:
        raise ValueError("the container must have positive volume")
    bb = 0.0
    if rho > 0.0:
        pair, _ = domain_pair_coulomb(lam, lam)
        bb = 0.5 * rho**2 * pair
    values = {0: bb}
    status = {0: RestartStatus(True, 0)}
    best = (bb, 0, np.zeros((0, 3)), np.zeros(0))
    radius_hi = min(3.0 * OPT_RADIUS, 0.45 * lam.diameter)
    seeds = np.random.SeedSequence(seed).spawn(kmax)
    for k in range(1, kmax + 1):
        rng = np.random.default_rng(seeds[k - 1])
        obj = _gc_objective_factory(lam, rho, k)
        feasible = {"type": "ineq", "fun": lambda x, k=k: _gc_margins(lam, k, x)}
        bounds = [(None, None)] * (3 * k) + [(1e-3, radius_hi)] * k
        best_k, best_ck, best_rk = np.inf, None, None
        ok_k, evals = True, 0
        for _ in range(starts):
            c0 = sample_in_domain(rng, lam, k)
            r0 = OPT_RADIUS * rng.uniform(0.8, 1.2, size=k)
            x0 = np.concatenate([c0.ravel(), r0])
            res = minimize(obj, x0, jac=True, method="SLSQP", bounds=bounds,
                           constraints=feasible,
                           options={"maxiter": 500, "ftol": 1e-12})
            evals += res.nfev
            c = res.x[: 3 * k].reshape(k, 3)
            r = res.x[3 * k:] - max(0.0, -_gc_margins(lam, k, res.x).min())
            ok_k = ok_k and bool(res.success) and bool(r.min() > 0.0)
            if not r.min() > 0.0:
                continue
            e = bb + obj(np.concatenate([c.ravel(), r]))[0]
            if e < best_k:
                best_k, best_ck, best_rk = e, c, r
        status[k] = RestartStatus(ok_k, evals)
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
        status_by_count=status,
        background_self=bb,
        converged=all(s.converged for s in status.values()),
    )


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


def mass_bound_check(omega, lam, rho: float) -> MassBoundReport:
    """Check the a-priori mass bound for low-energy droplet sets.

    Hypothesis: the droplet's energy does not exceed (energy-per-volume
    constant) * |droplet|.  Conclusion checked: |droplet| <= 8 + 16 pi rho
    diam(container)^3.  When the hypothesis fails the bound is not claimed.
    """
    breakdown = liquid_drop_energy(omega, lam, rho)
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
