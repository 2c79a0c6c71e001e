"""Command-line interface: deterministic numeric runs emitting CSV and JSON.

Every subcommand writes an RFC-4180 CSV table, a JSON summary with a
provenance block (echo of the resolved numeric configuration, the master
seed, and the package version; never timestamps), and, where a sweep is
involved, a two-column whitespace data file for offline plotting.  Runs with
the same configuration produce byte-identical outputs, independent of
``--threads`` (``jellium-opt`` and ``expansion``, the subcommands that run
optimizer restarts side by side on a thread pool); ``--threads`` must be at
least 1.  Their JSON summaries list per restart whether every L-BFGS run
converged and how many evaluations it took, and count the
``unconverged_restarts``; the ``jellium-gc`` and ``fgc`` summaries list the
same per count and count the ``unconverged_runs``.

Exit codes: 0 ok, 1 bad arguments, 2 numeric failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from liqdrop import __version__
from liqdrop.appendixlab import far_field_exponent, quadrupole_layer, swiss_cheese
from liqdrop.coulomb import PeriodicKernel, epstein_zeta
from liqdrop.droplet import ball_optimum, grand_canonical_F, liquid_drop_energy
from liqdrop.expansion import (
    expansion_sweep,
    extract_coefficients,
    gs_coulomb_inequality_check,
    gs_perimeter_identity_check,
)
from liqdrop.geom import Ball, BallUnion, Cube, make_lattice
from liqdrop.jellium import (
    PointConfiguration,
    basin_hop,
    grand_canonical_point_jellium,
)
from liqdrop.serialize import dump_json, write_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_BAD_ARGS = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

_THREADS_HELP = "worker threads: restarts run side by side (does not change results)"

# execution plumbing that is not part of the numeric configuration echo
_NON_CONFIG = {"config", "out", "prefix", "threads", "seed", "subcommand"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_ARGS, f"{self.prog}: error: {message}\n")


def _floats(text: str):
    try:
        vals = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty number list")
    if not all(math.isfinite(v) for v in vals):
        raise argparse.ArgumentTypeError(f"not a list of finite numbers: {text!r}")
    if len(set(vals)) != len(vals):
        raise argparse.ArgumentTypeError(f"list repeats a value: {text!r}")
    return vals


def _count_window(text: str):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two integers: {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"window lo,hi needs 0 <= lo <= hi: {text!r}")
    return (lo, hi)


def _at_least_one(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return count


def _non_negative(text: str) -> int:
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0: {text!r}")
    return count


def _at_least_two(text: str) -> int:
    count = int(text)
    if count < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2: {text!r}")
    return count


def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number: {text!r}")
    return value


def _unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1]: {text!r}")
    return value


def _background_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 0.5:
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1/2]: {text!r}")
    return value


def _lattice_kind(text: str) -> str:
    kind = str(text).strip().lower()
    if kind not in ("sc", "bcc", "fcc"):
        raise argparse.ArgumentTypeError(f"lattice must be sc, bcc, or fcc: {text!r}")
    return kind


def _build_parser():
    """Build the CLI parser; returns it, the flag types of each subcommand
    (for config values and the echo) and the subcommand parsers."""
    typemap: dict[str, dict] = {}
    parser = _Parser(
        prog="liqdrop",
        description="Liquid-drop and point-charge numerics with deterministic outputs.",
    )
    parser.add_argument("--version", action="version", version=f"liqdrop {__version__}")
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def sub(name: str, help_text: str):
        sp = subs.add_parser(name, help=help_text)
        typemap[name] = {}

        def add(flag: str, *, type=str, default=None, help: str = ""):
            dest = flag.lstrip("-").replace("-", "_")
            typemap[name][dest] = type
            sp.add_argument(flag, type=type, default=default, help=help, dest=dest)

        for flag, typ, dv, h in (
            ("--seed", int, 0, "master RNG seed"),
            ("--config", str, None, "key=value file merged under flags (flags win)"),
            ("--out", str, ".", "output directory"),
            ("--prefix", str, None, "output basename (default: subcommand)"),
        ):
            add(flag, type=typ, default=dv, help=h)
        return sp, add

    sp, add = sub("zeta", "analytically continued lattice sums over a unit-density lattice")
    add("--lattice", type=_lattice_kind, default="bcc", help="sc, bcc, or fcc")
    add("--s", type=_floats, default=(1.0,), help="comma list of exponents")

    sp, add = sub("madelung", "periodic point-charge self energy for the cubic lattice")
    add("--ell", type=_positive, default=1.0, help="cell side")

    sp, add = sub("jellium-opt", "basin-hopped periodic point-charge minimization")
    add("--n", type=_at_least_one, default=8, help="points per cell")
    add("--density", type=_positive, default=1.0, help="points per unit volume")
    add("--restarts", type=_at_least_one, default=4, help="independent random restarts")
    add("--hops", type=_non_negative, default=2, help="perturbation hops per restart")
    add("--tol", type=_positive, default=1e-8, help="L-BFGS gradient tolerance")
    add("--threads", type=_at_least_one, default=1, help=_THREADS_HELP)

    sp, add = sub("jellium-gc", "grand-canonical point-charge energy in a scaled simplex")
    add("--a", type=_positive, default=8.0, help="simplex scale")
    add("--charge", type=_positive, default=2.5, help="chemical-potential charge weight")
    add("--starts", type=_at_least_one, default=2, help="optimizer starts per count")
    add("--window", type=_count_window, default=None,
        help="count window lo,hi with 0 <= lo <= hi")

    sp, add = sub("droplet", "isolated droplet constants and an energy breakdown")
    add("--radius", type=_positive, default=None, help="droplet radius (default: optimal)")
    add("--rho", type=_positive, default=0.1, help="background density")

    sp, add = sub("fgc", "grand-canonical droplet energy sweep over densities")
    add("--rho", type=_floats, default=(0.01,), help="comma list of densities")
    add("--side", type=_positive, default=6.0, help="container cube side")
    add("--kmax", type=_non_negative, default=2, help="max droplets in the ansatz")
    add("--starts", type=_at_least_one, default=2, help="optimizer starts per count")

    sp, add = sub("expansion", "dilute-limit upper-bound pipeline and coefficient fit")
    add("--rho", type=_floats, default=(1e-3, 3e-4, 1e-4, 3e-5), help="density grid")
    add("--n", type=_at_least_one, default=16, help="points per periodic cell")
    add("--restarts", type=_non_negative, default=4, help="optimizer restarts")
    add("--hops", type=_non_negative, default=2, help="perturbation hops per restart")
    add("--threads", type=_at_least_one, default=1, help=_THREADS_HELP)

    sp, add = sub("gs-check", "Monte Carlo localization identities for rigid tilings")
    add("--samples", type=_at_least_one, default=200000, help="rigid-motion samples")
    add("--pair-samples", type=_at_least_two, default=20000,
        help="samples per interaction pair")
    add("--configs", type=_non_negative, default=3, help="random droplet configurations")
    add("--ell", type=_positive, default=5.0, help="tiling simplex scale")
    add("--side", type=_positive, default=8.0, help="container cube side")
    add("--rho", type=_unit_interval, default=0.05, help="background density")

    sp, add = sub("cheese", "exact nested ball-packing schedule")
    add("--k", type=_at_least_one, default=3, help="packing depth")
    add("--growth", type=_at_least_two, default=26, help="radius growth factor")

    sp, add = sub("quadlayer", "charge- and dipole-free boundary screening layer")
    add("--radius", type=_positive, default=2.0, help="ball domain radius")
    add("--cube-side", type=_positive, default=None, help="use a cube domain instead")
    add("--eps", type=_positive, default=0.25, help="tile size")
    add("--subdiv", type=_at_least_two, default=8, help="boundary tile subdivision")
    add("--rho", type=_background_fraction, default=0.3, help="background fraction")
    add("--probes", type=_non_negative, default=3,
        help="pieces probed for far-field decay")

    return parser, typemap, subs.choices


def _read_config(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"bad config line {lineno}: {line.rstrip()!r}")
            key, value = text.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_zeta(ns):
    lat = make_lattice(ns.lattice)
    rows, values = [], {}
    for s in ns.s:
        z = epstein_zeta(lat, s)
        rows.append((ns.lattice, s, z.value, z.error))
        values[repr(float(s))] = {"value": z.value, "truncation_error": z.error}
    plot = [(s, value) for _, s, value, _ in rows]
    return {
        "header": ("lattice", "s", "value", "truncation_error"),
        "rows": rows,
        "summary": {"lattice": ns.lattice, "values": values},
        "plot": ("s value", plot) if len(plot) > 1 else None,
    }


def _cmd_madelung(ns):
    kernel = PeriodicKernel(ns.ell)
    value, error = kernel.madelung(), kernel.truncation_error
    return {
        "header": ("cell_side", "value", "truncation_error"),
        "rows": [(ns.ell, value, error)],
        "summary": {"cell_side": ns.ell, "value": value, "truncation_error": error},
    }


def _ewald_summary(kernel):
    """The truncation an Ewald kernel sums with, for the JSON summaries."""
    return {
        "alpha": kernel.alpha,
        "real_cutoff": kernel.rcut,
        "shifts": len(kernel.shifts),
        "kvectors": len(kernel.kvecs),
        "truncation_error": kernel.truncation_error,
    }


def _restart_summary(search):
    """Per-restart convergence of a basin-hopping search, for the JSON summaries."""
    restarts = [{"restart": i, "converged": s.converged, "evaluations": s.evaluations}
                for i, s in enumerate(search.restart_status)]
    return {"restarts": restarts,
            "unconverged_restarts": sum(not s["converged"] for s in restarts)}


def _cmd_jellium_opt(ns):
    ell = (ns.n / ns.density) ** (1.0 / 3.0)
    kernel = PeriodicKernel(ell)
    res = basin_hop(
        ns.n,
        kernel,
        restarts=ns.restarts,
        hops=ns.hops,
        seed=ns.seed,
        threads=ns.threads,
        gtol=ns.tol,
    )
    rows = [(int(i), float(e)) for i, e in res.restart_table]
    best = PointConfiguration(
        positions=res.best_positions,
        charge=1.0,
        container=Cube(side=ell, center=(ell / 2.0, ell / 2.0, ell / 2.0)),
    )
    return {
        "header": ("restart", "per_particle_energy"),
        "rows": rows,
        "summary": {
            "n": ns.n,
            "density": ns.density,
            "cell_side": ell,
            "best_energy": res.best_energy,
            "best_per_particle": res.best_per_particle,
            "gradient_tolerance": ns.tol,
            "best_configuration": best,
            "ewald": _ewald_summary(kernel),
            **_restart_summary(res),
        },
    }


def _cmd_jellium_gc(ns):
    rep = grand_canonical_point_jellium(
        ns.a,
        charge=ns.charge,
        seed=ns.seed,
        window=ns.window,
        starts=ns.starts,
    )
    by_n = rep.values_by_n
    items = sorted((int(k), float(v)) for k, v in dict(by_n).items())
    return {
        "header": ("count", "value"),
        "rows": items,
        "summary": {
            "scale": rep.a_scale,
            "charge": rep.charge,
            "best_count": rep.best_n,
            "best_value": rep.best_value,
            "averaging_bounds": rep.averaging_bounds,
            "interpolation_bound": rep.interpolation_bound,
            "background_self": rep.background_self,
            "status_by_n": rep.status_by_n,
            "unconverged_runs": sum(not s.converged for s in rep.status_by_n.values()),
        },
    }


def _cmd_droplet(ns):
    consts = ball_optimum()
    radius = consts.best_radius if ns.radius is None else ns.radius
    omega = BallUnion(centers=np.zeros((1, 3)), radii=np.array([radius]))
    vol = 4.0 * math.pi / 3.0 * radius**3
    side = (vol / ns.rho) ** (1.0 / 3.0)
    if side < 2.0 * radius:
        raise ValueError("background density too high for a cubic container")
    lam = Cube(side=side, center=(0.0, 0.0, 0.0))
    breakdown = liquid_drop_energy(omega, lam, ns.rho)
    rows = [
        ("optimal_ball_radius", consts.best_radius),
        ("optimal_energy_per_volume", consts.best_energy_per_volume),
        ("optimal_ball_mass", consts.best_mass),
        ("smallest_minimizer_mass", consts.smallest_minimizer_mass),
        ("droplet_radius", radius),
        ("container_side", side),
        ("perimeter", breakdown.perimeter),
        ("droplet_droplet", breakdown.droplet_droplet),
        ("droplet_background", breakdown.droplet_background),
        ("background_background", breakdown.background_background),
        ("total", breakdown.total),
    ]
    return {
        "header": ("quantity", "value"),
        "rows": rows,
        "summary": {
            "constants": consts,
            "breakdown": breakdown,
            "droplet_radius": radius,
            "container_side": side,
            "rho": ns.rho,
        },
    }


def _cmd_fgc(ns):
    lam = Cube(side=ns.side, center=(0.0, 0.0, 0.0))
    rows, per_rho, unconverged = [], {}, 0
    for rho in ns.rho:
        rep = grand_canonical_F(lam, rho, kmax=ns.kmax, seed=ns.seed, starts=ns.starts)
        rows.append((rho, rep.value, rep.ball_count, int(rep.converged)))
        per_rho[repr(float(rho))] = {
            "value": rep.value,
            "ball_count": rep.ball_count,
            "values_by_count": rep.values_by_count,
            "status_by_count": rep.status_by_count,
            "converged": bool(rep.converged),
        }
        unconverged += sum(not s.converged for s in rep.status_by_count.values())
    return {
        "header": ("rho", "value", "ball_count", "converged"),
        "rows": rows,
        "summary": {"container_side": ns.side, "kmax": ns.kmax, "by_rho": per_rho,
                    "unconverged_runs": unconverged},
        "plot": ("rho value", [(r[0], r[1]) for r in rows]),
    }


def _cmd_expansion(ns):
    reports, search = expansion_sweep(
        ns.rho,
        n=ns.n,
        seed=ns.seed,
        restarts=ns.restarts,
        hops=ns.hops,
        threads=ns.threads,
    )
    c1, c2, resid = extract_coefficients(ns.rho, reports)
    fits = {
        "per-particle": {
            "linear_coefficient": c1,
            "four_thirds_coefficient": c2,
            "max_fit_residual": resid,
        }
    }
    rows = [
        (
            rep.rho,
            rep.n_points,
            rep.cell,
            rep.upper_bound,
            rep.residual_coefficient,
            rep.residual_coefficient_no_quadratic,
        )
        for rep in reports
    ]
    return {
        "header": (
            "rho",
            "n_points",
            "cell",
            "upper_bound",
            "residual_coefficient",
            "residual_coefficient_no_quadratic",
        ),
        "rows": rows,
        # the sweep minimizes in the unit-density cell with this kernel
        "summary": {"n": ns.n, "fits": fits,
                    "ewald": _ewald_summary(PeriodicKernel(ns.n ** (1.0 / 3.0))),
                    **_restart_summary(search)},
        "plot": ("rho upper_bound", [(rep.rho, rep.upper_bound) for rep in reports]),
    }


def _cmd_gs_check(ns):
    omega = BallUnion(centers=np.zeros((1, 3)), radii=np.ones(1))
    per = gs_perimeter_identity_check(
        omega, ell=ns.ell, samples=ns.samples, seed=ns.seed
    )
    per_ok = abs(per.mc_value - per.analytic) <= 3.0 * per.sigma
    rows = [
        ("perimeter-identity", per.mc_value, per.analytic, per.sigma, int(per_ok))
    ]
    checks = {
        "perimeter": {
            "mc_value": per.mc_value,
            "analytic": per.analytic,
            "sigma": per.sigma,
            "passed": bool(per_ok),
        }
    }
    lam = Cube(side=ns.side, center=(0.0, 0.0, 0.0))
    base = np.array([[-1.5, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.5, 0.0]])
    all_ok = per_ok
    for i in range(ns.configs):
        rng = np.random.default_rng((ns.seed, 7, i))
        k = 1 + i % 3
        centers = base[:k] + rng.uniform(-0.3, 0.3, (k, 3))
        radii = rng.uniform(0.35, 0.6, k)
        cfg = BallUnion(centers=centers, radii=radii)
        rep = gs_coulomb_inequality_check(
            cfg,
            lam,
            rho=ns.rho,
            ell=ns.ell,
            samples_per_pair=ns.pair_samples,
            seed=ns.seed + 1000 + i,
        )
        rows.append((f"coulomb-{i}", rep.lhs, rep.rhs, rep.sigma, int(rep.passed)))
        checks[f"coulomb-{i}"] = {
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "sigma": rep.sigma,
            "margin_in_sigmas": rep.margin_in_sigmas,
            "passed": bool(rep.passed),
        }
        all_ok = all_ok and rep.passed
    return {
        "header": ("check", "value", "reference", "sigma", "passed"),
        "rows": rows,
        "summary": {"checks": checks, "all_passed": bool(all_ok)},
    }


def _cmd_cheese(ns):
    s = swiss_cheese(ns.k, growth=ns.growth)
    rows = [(j, s.radii[j], s.counts[j], s.leftover_ratios[j], s.perimeter_ratios[j])
            for j in range(s.depth + 1)]
    spread = [
        max(float(x), 1.0 / float(x)) if float(x) > 0 else math.inf
        for x in (*s.leftover_ratios[2:], *s.perimeter_ratios[2:])
    ]
    return {
        "header": (
            "generation",
            "radius",
            "count",
            "leftover_ratio",
            "perimeter_ratio",
        ),
        "rows": rows,
        "summary": {
            "growth": s.growth,
            "keep_fraction": s.keep_fraction,
            "shrink": s.shrink,
            "depth": s.depth,
            "leftover_ratios": [float(x) for x in s.leftover_ratios],
            "perimeter_ratios": [float(x) for x in s.perimeter_ratios],
            "two_sided_constant": max(spread) if spread else None,
        },
    }


def _cmd_quadlayer(ns):
    if ns.cube_side is not None:
        domain = Cube(side=ns.cube_side, center=(0.0, 0.0, 0.0))
    else:
        domain = Ball(radius=ns.radius, center=(0.0, 0.0, 0.0))
    layer = quadrupole_layer(domain, ns.eps, ns.subdiv, ns.rho)
    masks = layer.kind_masks()
    charges = np.abs(layer.charges())
    dips = np.linalg.norm(layer.dipoles(), axis=1)
    perims = layer.inner_perimeters()
    margins = layer.containment_margins()
    rows = []
    for kind, mask in masks.items():
        if not mask.any():
            rows.append((kind, 0, 0.0, 0.0, 0.0, math.nan))
            continue
        rows.append(
            (
                kind,
                int(mask.sum()),
                float(charges[mask].max()),
                float(dips[mask].max()),
                float(perims[mask].max()),
                float(margins[mask].min()),
            )
        )
    probes = []
    merged_idx = np.flatnonzero(masks["merged"])[: ns.probes]
    for i in merged_idx:
        piece = layer[int(i)]
        probes.append(
            {"key": list(piece.key), "decay_exponent": far_field_exponent(piece)}
        )
    return {
        "header": (
            "kind",
            "count",
            "max_abs_charge",
            "max_abs_dipole",
            "max_inner_perimeter",
            "min_containment_margin",
        ),
        "rows": rows,
        "summary": {
            "domain": domain,
            "counts": layer.counts(),
            "total_volume": layer.total_volume(),
            "perimeter_constant": layer.perimeter_constant(),
            "com_shift_constant": layer.com_shift_constant(),
            "min_containment_margin": float(margins.min()),
            "max_abs_charge": float(charges.max()),
            "max_abs_dipole_over_eps4": float(dips.max() / ns.eps**4),
            "far_field_probes": probes,
        },
    }


_HANDLERS = {
    "zeta": _cmd_zeta,
    "madelung": _cmd_madelung,
    "jellium-opt": _cmd_jellium_opt,
    "jellium-gc": _cmd_jellium_gc,
    "droplet": _cmd_droplet,
    "fgc": _cmd_fgc,
    "expansion": _cmd_expansion,
    "gs-check": _cmd_gs_check,
    "cheese": _cmd_cheese,
    "quadlayer": _cmd_quadlayer,
}


def _emit(ns, typemap: dict, payload: dict) -> str:
    outdir = ns.out or "."
    os.makedirs(outdir, exist_ok=True)
    base = os.path.join(outdir, ns.prefix or ns.subcommand)
    write_csv(base + ".csv", payload["header"], payload["rows"])
    echo_keys = sorted(set(typemap[ns.subcommand]) - _NON_CONFIG)
    doc = {
        "summary": payload["summary"],
        "provenance": {
            "command": ns.subcommand,
            "config": {k: getattr(ns, k) for k in echo_keys},
            "seed": ns.seed,
            "version": __version__,
        },
    }
    dump_json(doc, base + ".json")
    if payload.get("plot"):
        header, pairs = payload["plot"]
        with open(base + ".dat", "w", encoding="utf-8", newline="\n") as fp:
            fp.write(f"# {header}\n")
            for x, y in pairs:
                fp.write(f"{float(x)!r} {float(y)!r}\n")
    return base


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, typemap, subparsers = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if not getattr(ns, "subcommand", None):
        parser.print_usage(sys.stderr)
        print("liqdrop: error: a subcommand is required", file=sys.stderr)
        return EXIT_BAD_ARGS

    if ns.config:
        try:
            raw = _read_config(ns.config)
        except OSError as e:
            print(f"liqdrop: cannot read config: {e}", file=sys.stderr)
            return EXIT_IO
        except ValueError as e:
            print(f"liqdrop: {e}", file=sys.stderr)
            return EXIT_BAD_ARGS
        known = typemap[ns.subcommand]
        defaults = {}
        for key, value in raw.items():
            if key not in known:
                print(
                    f"liqdrop: unknown config key {key!r} for {ns.subcommand}",
                    file=sys.stderr,
                )
                return EXIT_BAD_ARGS
            try:
                defaults[key] = known[key](value)
            except (ValueError, argparse.ArgumentTypeError) as e:
                print(f"liqdrop: bad config value for {key!r}: {e}", file=sys.stderr)
                return EXIT_BAD_ARGS
        # config values become defaults, so flags win on the second parse
        subparsers[ns.subcommand].set_defaults(**defaults)
        ns = parser.parse_args(argv)

    try:
        payload = _HANDLERS[ns.subcommand](ns)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"liqdrop: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        base = _emit(ns, typemap, payload)
    except OSError as e:
        print(f"liqdrop: cannot write outputs: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {base}.csv and {base}.json")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
