"""Point charges on a neutralizing unit background (classical one-component plasma).

Periodic side: energies and gradients on a cubic torus through the zero-mean
kernel, local quasi-Newton descent, and seeded basin hopping; at unit charge
density the per-particle energy of a commensurate crystal equals the lattice
zeta value at s = 1 with no finite-size error, which pins down every sign and
factor convention in the sums.

Finite side: n points of charge q on the unit background of a scaled
tetrahedron, the grand-canonical point problem of the lower bound.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from liqdrop.coulomb.ewald import CoincidentPointsError, PeriodicKernel
from liqdrop.coulomb.potentials import (
    TetraBody,
    domain_pair_coulomb,
    tetra_field,
)
from liqdrop.geom import Tetrahedron, regular_tetrahedron, sample_in_domain

__all__ = [
    "PointConfiguration",
    "PeriodicEnergyReport",
    "periodic_energy",
    "minimize_local",
    "basin_hop",
    "BasinHopResult",
    "RestartStatus",
    "crystal_positions",
    "grand_canonical_point_jellium",
    "GrandCanonicalPointReport",
    "e_jel_extrapolate",
]


@dataclass
class PointConfiguration:
    """Point charges of a common magnitude, either in a domain or on a torus."""

    positions: np.ndarray
    charge: float = 1.0
    container: object | None = None  # a geom domain, or a cell side for tori

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class PeriodicEnergyReport:
    pair: float
    madelung_self: float
    total: float
    per_particle: float


def periodic_energy(positions, kernel: PeriodicKernel) -> PeriodicEnergyReport:
    """Total torus energy of unit charges: pair sum of the zero-mean kernel
    plus the self-image term n M / 2 that completes each charge's interaction
    with its own periodic copies."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 3)
    n = len(pos)
    pair = kernel.pair_energy(pos)
    mad = n * kernel.madelung() / 2.0
    total = pair + mad
    return PeriodicEnergyReport(
        pair=pair, madelung_self=mad, total=total, per_particle=total / max(n, 1)
    )


# ---------------------------------------------------------------------------
# local and global optimization on the torus
# ---------------------------------------------------------------------------


def minimize_local(positions, kernel: PeriodicKernel, gtol: float = 1e-8):
    """L-BFGS descent of the periodic pair energy of unit charges.

    Returns (positions, trace, converged); the trace rows are (eval index,
    energy, gradient max-norm) recorded at every objective call, and
    ``converged`` is scipy's ``success`` flag of the run.  Coincidence is
    already an infinite barrier of the energy itself, so the only guard
    needed is against overlapping points during line search: where the
    kernel raises ``CoincidentPointsError`` (a pair closer than 1e-10 cell
    sides), the objective returns 1e12 and a zero gradient and records no
    trace row.
    """
    x0 = np.asarray(positions, dtype=float).reshape(-1).copy()
    n = x0.size // 3
    trace = []

    def objective(x):
        try:
            e, g = kernel.energy_and_gradient(x.reshape(n, 3))
        except CoincidentPointsError:
            # off-manifold guard: huge value, zero gradient
            return 1e12, np.zeros_like(x)
        g = g.ravel()
        trace.append((len(trace), e, float(np.abs(g).max())))
        return e, g

    res = minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 500, "gtol": gtol, "ftol": 1e-14},
    )
    pos = res.x.reshape(n, 3)
    pos -= kernel.ell * np.floor(pos / kernel.ell)  # canonical cell reps
    return pos, np.array(trace), bool(res.success)


@dataclass(frozen=True)
class RestartStatus:
    converged: bool  # every L-BFGS run of the restart succeeded
    evaluations: int  # energy-and-gradient evaluations over those runs


@dataclass
class BasinHopResult:
    best_positions: np.ndarray
    best_energy: float  # pair energy (no Madelung term)
    best_per_particle: float  # with Madelung self term
    restart_table: np.ndarray  # rows: (restart, per-particle energy)
    restart_status: list  # one RestartStatus per row of restart_table


def _one_restart(args):
    idx, seed, n, kernel, hops, gtol, start = args
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3)) * kernel.ell if start is None else np.array(start)
    pos, trace, converged = minimize_local(pos, kernel, gtol=gtol)
    evals = len(trace)
    best = kernel.pair_energy(pos)
    for _ in range(hops):
        trial = pos + rng.normal(scale=0.12 * kernel.ell, size=pos.shape)
        trial, trace, ok = minimize_local(trial, kernel, gtol=gtol)
        converged, evals = converged and ok, evals + len(trace)
        e = kernel.pair_energy(trial)
        if e < best:
            best, pos = e, trial
    return idx, best, pos, RestartStatus(converged, evals)


def basin_hop(
    n: int,
    kernel: PeriodicKernel,
    restarts: int = 20,
    hops: int = 4,
    seed: int = 0,
    threads: int = 1,
    gtol: float = 1e-8,
    initial_configs=None,
) -> BasinHopResult:
    """Monotone basin hopping of n unit charges with independent seeded
    restarts.

    Each restart draws from its own spawned RNG stream and the reduction is
    by restart index, so results are identical for any thread count.
    ``initial_configs`` adds deterministic extra restarts started from the
    given configurations instead of uniform draws.  The restarts are mapped
    over a pool of ``threads`` workers, which share ``kernel``; they overlap
    in its numpy and ``erfc`` passes, which release the interpreter lock.
    Raises ``ValueError`` unless there is at least one start, random or given.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    extras = [np.asarray(p, dtype=float).reshape(n, 3) for p in (initial_configs or [])]
    total = restarts + len(extras)
    if total < 1:
        raise ValueError("restarts plus initial configurations must be at least 1, "
                         f"got {restarts} + {len(extras)}")
    seeds = np.random.SeedSequence(seed).spawn(total)
    jobs = [(i, seeds[i], n, kernel, hops, gtol, None) for i in range(restarts)]
    jobs += [(restarts + j, seeds[restarts + j], n, kernel, hops, gtol, extras[j])
             for j in range(len(extras))]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(_one_restart, jobs))
    mad = kernel.madelung()
    table = np.array([(i, (e + n * mad / 2.0) / n) for i, e, _, _ in results])
    best_idx = int(np.argmin([e for _, e, _, _ in results]))
    _, best_e, best_pos, _ = results[best_idx]
    return BasinHopResult(
        best_positions=best_pos,
        best_energy=best_e,
        best_per_particle=float(table[best_idx, 1]),
        restart_table=table,
        restart_status=[s for _, _, _, s in results],
    )


def crystal_positions(kind: str, k: int, ell: float) -> np.ndarray:
    """Commensurate sc/bcc/fcc sublattice filling a cubic cell of side ell.

    k conventional cubes per cell side; N = k^3, 2 k^3, 4 k^3 points.
    """
    a = ell / k
    base = {
        "sc": [(0.0, 0.0, 0.0)],
        "bcc": [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5)],
        "fcc": [(0.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)],
    }[kind.lower()]
    ii = np.arange(k)
    gx, gy, gz = np.meshgrid(ii, ii, ii, indexing="ij")
    cells = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3).astype(float)
    pts = (cells[:, None, :] + np.asarray(base)[None, :, :]).reshape(-1, 3) * a
    return pts


# ---------------------------------------------------------------------------
# grand-canonical point problem on a scaled tetrahedron
# ---------------------------------------------------------------------------


@dataclass
class GrandCanonicalPointReport:
    a_scale: float
    charge: float
    best_n: int
    best_value: float
    best_positions: np.ndarray
    values_by_n: dict
    averaging_bounds: dict  # n -> J_n, the uniform-i.i.d. upper bound
    interpolation_bound: float  # certified-negative convex combination value
    background_self: float  # (1/2) int int over the scaled tetra


def _finite_energy(pos, pairs, q, body, planes, bb, penalty):
    """Energy of charges q at ``pos`` on the unit background of ``body``, a
    ``TetraBody`` whose self term is ``bb`` and whose ``face_planes()`` are
    ``planes``, plus ``penalty`` times the squared face violations; returns
    (energy, flat gradient).  ``pairs`` is ``np.triu_indices(len(pos), k=1)``."""
    n = len(pos)
    e = bb
    g = np.zeros_like(pos)
    if n >= 2:
        iu, ju = pairs
        d = pos[iu] - pos[ju]
        r = np.linalg.norm(d, axis=1)
        r = np.maximum(r, 1e-12)
        e += q**2 * float(np.sum(1.0 / r))
        gp = -q**2 * d / (r**3)[:, None]
        np.add.at(g, iu, gp)
        np.add.at(g, ju, -gp)
    if n >= 1:
        phi, dphi = tetra_field(body, pos)
        e -= q * float(np.sum(phi))
        g -= q * dphi
        # quadratic penalty per violated face keeps iterates inside
        normals, offsets = planes
        s = pos @ normals.T - offsets  # (n, 4), negative = outside
        viol = np.minimum(s, 0.0)
        e += penalty * float(np.sum(viol**2))
        g += 2.0 * penalty * (viol @ normals)
    return e, g.ravel()


def grand_canonical_point_jellium(
    a_scale: float,
    charge: float = 2.5,
    seed: int = 0,
    window: tuple | None = None,
    starts: int = 3,
) -> GrandCanonicalPointReport:
    """Minimize over n and positions in the tetra A*Delta the energy of n
    charges q on unit background, scanning n over a window around A^3/q.

    Also evaluates, for each n, the closed-form bound J_n obtained by
    averaging the energy over i.i.d. uniform positions, and the convex
    combination of J_N, J_{N+1} at N = floor(A^3/q) that certifies a
    strictly negative optimum for every A with A^3 > q.

    Raises ValueError unless ``a_scale`` and ``charge`` are positive and
    finite, ``starts`` is at least 1 and ``window`` (lo, hi) has
    0 <= lo <= hi.
    """
    if not (0.0 < a_scale < np.inf and 0.0 < charge < np.inf):
        raise ValueError("scale and charge must be positive and finite")
    if starts < 1:
        raise ValueError("need at least one optimizer start per count")
    if window is not None and not 0 <= window[0] <= window[1]:
        raise ValueError(f"count window lo,hi needs 0 <= lo <= hi: {window!r}")
    base = regular_tetrahedron()
    verts = base.vertices * a_scale
    tet = Tetrahedron(vertices=verts)
    planes = tet.face_planes()
    body = TetraBody(tet)
    q = float(charge)
    bb_full, _ = domain_pair_coulomb(tet, tet)
    bb = 0.5 * bb_full

    nstar = a_scale**3 * base.volume / q
    half = int(np.ceil(a_scale**2))
    if window is None:
        lo = max(0, int(np.floor(nstar)) - half)
        hi = int(np.ceil(nstar)) + half
    else:
        lo, hi = window
    energy_scale = max(1.0, q**2 * max(nstar, 1.0) ** 2 / max(a_scale, 1.0))
    penalty = 1e4 * energy_scale

    seeds = np.random.SeedSequence(seed).spawn(hi - lo + 1)
    values, configs, jbounds = {}, {}, {}
    for n in range(lo, hi + 1):
        jbounds[n] = (n * (n - 1) * q**2 / (2.0 * a_scale**6 * base.volume**2)
                      - q * n / (a_scale**3 * base.volume) + 0.5) * bb_full
        if n == 0:
            values[0] = bb
            configs[0] = np.zeros((0, 3))
            continue
        rng = np.random.default_rng(seeds[n - lo])
        pairs = np.triu_indices(n, k=1)
        best_e, best_pos = np.inf, None
        for _ in range(starts):
            x0 = sample_in_domain(rng, tet, n).ravel()
            res = minimize(
                lambda x: _finite_energy(
                    x.reshape(n, 3), pairs, q, body, planes, bb, penalty
                ),
                x0, jac=True, method="L-BFGS-B",
                options={"maxiter": 400, "gtol": 1e-7, "ftol": 1e-14},
            )
            pos = _project_into(planes, res.x.reshape(n, 3))
            e, _ = _finite_energy(pos, pairs, q, body, planes, bb, 0.0)
            if e < best_e:
                best_e, best_pos = e, pos
        values[n] = best_e
        configs[n] = best_pos

    best_n = min(values, key=lambda k: values[k])
    nfloor = int(np.floor(nstar))
    t = nstar - nfloor
    interp = -(nfloor + t**2) * q**2 / (2.0 * a_scale**6 * base.volume**2) * bb_full
    return GrandCanonicalPointReport(
        a_scale=a_scale,
        charge=q,
        best_n=best_n,
        best_value=values[best_n],
        best_positions=configs[best_n],
        values_by_n=values,
        averaging_bounds=jbounds,
        interpolation_bound=interp,
        background_self=bb,
    )


def _project_into(planes, pos: np.ndarray) -> np.ndarray:
    """Push points just inside the tetra with ``face_planes()`` ``planes``
    (cyclic projection on violated faces)."""
    normals, offsets = planes
    pos = pos.copy()
    for _ in range(40):
        s = pos @ normals.T - offsets
        worst = s.min(axis=1)
        if np.all(worst >= 0.0):
            break
        f = s.argmin(axis=1)
        bad = worst < 0.0
        pos[bad] -= worst[bad, None] * normals[f[bad]]
    return pos


# ---------------------------------------------------------------------------
# size-trend extrapolation
# ---------------------------------------------------------------------------


def e_jel_extrapolate(counts, energies):
    """Fit per-particle energies to e_inf + c N^(-1/3) and report the limit.

    Crude but honest: with commensurate crystals the slope is zero by
    construction, with optimizer output it absorbs the leading finite-size
    drift.  Returns (e_inf, slope, residual_max).
    """
    counts = np.asarray(counts, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if len(counts) < 2:
        raise ValueError("need at least two sizes")
    X = np.stack([np.ones_like(counts), counts ** (-1.0 / 3.0)], axis=1)
    coef, *_ = np.linalg.lstsq(X, energies, rcond=None)
    resid = energies - X @ coef
    return float(coef[0]), float(coef[1]), float(np.abs(resid).max())
