"""The benchmark's workloads: seeded operation lists and their output checks.

An operation runs one CLI command through ``liqdrop.cli.main`` (or one
library pipeline) and writes its outputs into its own directory.  Its check
reads those outputs back and returns a list of failure messages, empty when
every reference in ``reference.py`` is met.

Why each workload exists:

- ``crystal``: n = 16 basin hopping, single thread.  Ewald calls are small,
  so Python and L-BFGS overhead count; the plain single-thread baseline.
- ``dilute``: the dilute-expansion pipeline at n = 54 (1431 pairs x 389
  image shifts per Ewald call) through the thread-pool path.
- ``simplex``: grand-canonical point jellium in a tetrahedron; nearly all
  time in the tetrahedron potential, none in Ewald.
- ``checks``: Monte Carlo localization checks, boundary layers, box and FFT
  grid potentials, zeta sums and droplet constants; the layers above idle.
"""

from __future__ import annotations

import collections
import csv
import json
import os

import numpy as np

import reference as ref

# dilute: perturbed-crystal starts.  Random starts at n = 54 need 20-33 s
# each depending on the seed; starts 0.1 from the bcc minimum converge in
# 51-58 evaluations, which keeps the run-to-run spread small.
DILUTE_N = 54
DILUTE_STARTS = 3
DILUTE_AMPLITUDE = 0.1
RHO_GRID = (1e-3, 3e-4, 1e-4, 3e-5)


# ``run(outdir)`` returns an exit code, ``check(outdir)`` failure messages
Op = collections.namedtuple("Op", "label run check")


def _cli(label, argv, check):
    def run(outdir):
        import liqdrop.cli

        return liqdrop.cli.main([*argv, "--out", outdir])

    return Op(label, run, check)


def _load(outdir, name):
    with open(os.path.join(outdir, name + ".json"), encoding="utf-8") as fp:
        return json.load(fp)


def _summary(outdir, name):
    return _load(outdir, name)["summary"]


def _dump(outdir, payload):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fp:
        json.dump(payload, fp, sort_keys=True)
    return 0


def _within(label, value, target, tol):
    if abs(value - target) <= tol:
        return []
    return [f"{label} {value!r} not within {tol:.3g} of {target!r}"]


def _in_bracket(label, value, bracket):
    lo, hi = bracket
    return [] if lo <= value <= hi else [f"{label} {value!r} outside [{lo}, {hi}]"]


def _coefficients(label, c1, c2):
    return _within(f"{label} c1", c1, ref.C1, ref.C1_RTOL * ref.C1) + _within(
        f"{label} c2", c2, ref.C2, ref.C2_RTOL * abs(ref.C2)
    )


# ---------------------------------------------------------------------------
# crystal
# ---------------------------------------------------------------------------


def _check_crystal(outdir):
    # one restart may stop in a higher local minimum (-1.42896 at some
    # seeds); nothing may lie below the bracket
    best = _summary(outdir, "jellium-opt")["best_per_particle"]
    lo = ref.CRYSTAL_BRACKET[0]
    return _in_bracket("best per-particle energy", best, (lo, 0.0))


def _best_of_searches(outdir):
    """The best energy over the pass's searches, like acceptance 4 takes the
    best over its restarts; reads the outputs of the operations before it."""
    parent = os.path.dirname(outdir)
    best = min(
        _summary(os.path.join(parent, d), "jellium-opt")["best_per_particle"]
        for d in sorted(os.listdir(parent))
        if os.path.isfile(os.path.join(parent, d, "jellium-opt.json"))
    )
    return _dump(outdir, {"best_per_particle": best})


def _check_best_of_searches(outdir):
    best = _load(outdir, "result")["best_per_particle"]
    return _in_bracket("best per-particle energy", best, ref.CRYSTAL_BRACKET)


def crystal(seed):
    ops = [
        _cli(
            f"jellium-opt#{i}",
            ["jellium-opt", "--n", "16", "--restarts", "1", "--hops", "2",
             "--threads", "1", "--seed", str(8 * seed + i)],
            _check_crystal,
        )
        for i in range(8)
    ]
    return ops + [Op("best-of-8", _best_of_searches, _check_best_of_searches)]


# ---------------------------------------------------------------------------
# dilute
# ---------------------------------------------------------------------------


def _check_expansion(outdir):
    fit = _summary(outdir, "expansion")["fits"]["per-particle"]
    return _coefficients(
        "expansion", fit["linear_coefficient"], fit["four_thirds_coefficient"]
    )


def _perturbed_pipeline(seed):
    """Minimize n = 54 from seeded perturbations of the bcc crystal on two
    threads, then fit c1 and c2 from the trial-state upper bounds."""

    def run(outdir):
        from liqdrop.coulomb import PeriodicKernel
        from liqdrop.droplet import OPT_MASS
        from liqdrop.expansion import extract_coefficients, upper_bound_e
        from liqdrop.jellium import basin_hop, crystal_positions

        n = DILUTE_N
        side = n ** (1.0 / 3.0)
        rng = np.random.default_rng(seed)
        base = crystal_positions("bcc", 3, side)
        starts = [base + rng.normal(scale=DILUTE_AMPLITUDE, size=base.shape)
                  for _ in range(DILUTE_STARTS)]
        res = basin_hop(n, PeriodicKernel(side), restarts=0, hops=0, seed=seed,
                        threads=2, initial_configs=starts)
        unit = res.best_positions - res.best_positions.mean(axis=0)
        reports = []
        for rho in RHO_GRID:
            cell = (OPT_MASS * n / rho) ** (1.0 / 3.0)
            reports.append(upper_bound_e(rho, n=n, points=unit * (cell / side)))
        c1, c2, _ = extract_coefficients(RHO_GRID, reports)
        return _dump(outdir, {
            "restart_per_particle": [float(e) for _, e in res.restart_table],
            "best_per_particle": float(res.best_per_particle),
            "c1": float(c1),
            "c2": float(c2),
        })

    def check(outdir):
        out = _load(outdir, "result")
        return _in_bracket(
            "best per-particle energy", out["best_per_particle"], ref.CRYSTAL_BRACKET
        ) + _coefficients("perturbed", out["c1"], out["c2"])

    return Op("perturbed-bcc", run, check)


def dilute(seed):
    rho = ",".join(repr(r) for r in RHO_GRID)
    return [
        _cli(
            "expansion",
            ["expansion", "--n", str(DILUTE_N), "--restarts", "0", "--hops", "0",
             "--rho", rho, "--threads", "2", "--seed", str(seed)],
            _check_expansion,
        ),
        _perturbed_pipeline(seed),
    ]


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------


def _check_simplex(outdir):
    s = _summary(outdir, "jellium-gc")
    with open(os.path.join(outdir, "jellium-gc.csv"), encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))[1:]
    bounds = s["averaging_bounds"]
    fails = []
    for count, value in rows:
        if float(value) > bounds[count]:
            fails.append(f"value at n={count} {value} above its averaging bound")
    interp = s["interpolation_bound"]
    if not interp < 0.0:
        fails.append(f"interpolation bound {interp!r} is not negative")
    if s["best_value"] > interp:
        fails.append(f"best value {s['best_value']!r} above interpolation bound")
    return fails


def simplex(seed):
    # the window holds floor and ceil of a^3 |tetra| / charge = 4.4, so the
    # interpolation bound applies; small counts keep each start short, and
    # many starts keep the seed-to-seed spread of the run time small
    return [
        _cli(
            "jellium-gc",
            ["jellium-gc", "--a", "2.2246", "--window", "4,7", "--starts", "10",
             "--seed", str(seed)],
            _check_simplex,
        )
    ]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _check_gs(outdir):
    s = _summary(outdir, "gs-check")
    return [] if s["all_passed"] else [f"gs-check failed: {s['checks']}"]


def _check_quadlayer(outdir):
    s = _summary(outdir, "quadlayer")
    fails = []
    if s["max_abs_charge"] > ref.LAYER_MAX_CHARGE:
        fails.append(f"max |charge| {s['max_abs_charge']!r}")
    if s["max_abs_dipole_over_eps4"] > ref.LAYER_MAX_DIPOLE_OVER_EPS4:
        fails.append(f"max |dipole|/eps^4 {s['max_abs_dipole_over_eps4']!r}")
    if not s["min_containment_margin"] > 0.0:
        fails.append(f"containment margin {s['min_containment_margin']!r}")
    if s["perimeter_constant"] > ref.LAYER_MAX_PERIMETER_CONSTANT:
        fails.append(f"perimeter constant {s['perimeter_constant']!r}")
    probes = s["far_field_probes"]
    if not probes:
        fails.append("no far-field probes")
    for p in probes:
        fails += _in_bracket("decay exponent", p["decay_exponent"], ref.LAYER_DECAY)
    return fails


def _check_fgc(outdir):
    s = _summary(outdir, "fgc")
    return [f"fgc not converged at rho={r}" for r, v in s["by_rho"].items()
            if not v["converged"]]


def _voxel_pipeline(seed):
    """Voxel liquid-drop energy of a seeded two-ball union on the FFT grid,
    against the exact ball-union breakdown."""

    def run(outdir):
        from liqdrop.droplet import liquid_drop_energy
        from liqdrop.geom import BallUnion, Cube, voxelize, voxelize_domain

        rng = np.random.default_rng(seed)
        radii = rng.uniform(0.8, 1.2, 2)
        centers = np.array([[-1.4, 0.0, 0.0], [1.4, 0.0, 0.0]])
        centers += rng.uniform(-0.2, 0.2, centers.shape)
        union = BallUnion(centers=centers, radii=radii)
        lam = Cube(side=6.4)
        rho, h = 0.05, 0.05
        exact = liquid_drop_energy(union, lam, rho)
        voxel = liquid_drop_energy(voxelize(union, h), voxelize_domain(lam, h), rho)
        return _dump(outdir, {"exact": exact.total, "voxel": voxel.total})

    def check(outdir):
        out = _load(outdir, "result")
        return _within("voxel total", out["voxel"], out["exact"],
                       ref.VOXEL_RTOL * abs(out["exact"]))

    return Op("voxel-energy", run, check)


def _check_zeta(outdir):
    v = _summary(outdir, "zeta")["values"]["1.0"]
    return _within("zeta_bcc(1)", v["value"], ref.ZETA_BCC_1, v["truncation_error"])


def _check_madelung(outdir):
    v = _summary(outdir, "madelung")["value"]
    return _within("madelung", v, ref.MADELUNG_Z3, ref.MADELUNG_ATOL)


def _check_droplet(outdir):
    c = _summary(outdir, "droplet")["constants"]
    return (
        _within("radius", c["best_radius"], ref.DROPLET_RADIUS, ref.DROPLET_ATOL)
        + _within("energy per volume", c["best_energy_per_volume"], ref.C1,
                  ref.DROPLET_ATOL)
        + _within("mass", c["best_mass"], ref.DROPLET_MASS, ref.DROPLET_ATOL)
    )


def _check_cheese(outdir):
    with open(os.path.join(outdir, "cheese.csv"), encoding="utf-8", newline="") as fp:
        counts = {row[0]: row[2] for row in csv.reader(fp)}
    count = int(counts["1"])
    if count != ref.CHEESE_FIRST_COUNT:
        return [f"first-generation count {count}"]
    return []


def checks(seed):
    s = str(seed)
    ops = [
        _cli("gs-check", ["gs-check", "--samples", "1000000", "--configs", "6",
                          "--seed", s], _check_gs),
    ]
    for rho in ("0.1", "0.3", "0.5"):
        ops.append(_cli(f"quadlayer@{rho}", ["quadlayer", "--rho", rho, "--seed", s],
                        _check_quadlayer))
    ops += [
        _cli("fgc", ["fgc", "--rho", "0.0,0.01,0.02", "--seed", s], _check_fgc),
        _voxel_pipeline(seed),
        _cli("zeta", ["zeta", "--s", "0.5,1,2.5,5", "--seed", s], _check_zeta),
        _cli("madelung", ["madelung", "--seed", s], _check_madelung),
        _cli("droplet", ["droplet", "--seed", s], _check_droplet),
        _cli("cheese", ["cheese", "--k", "12", "--seed", s], _check_cheese),
    ]
    return ops


BUILDERS = {"crystal": crystal, "dilute": dilute, "simplex": simplex, "checks": checks}


def build(name, seed):
    """The operation list of workload ``name`` for workload seed ``seed``."""
    return BUILDERS[name](seed)
