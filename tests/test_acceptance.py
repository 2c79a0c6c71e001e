"""End-to-end acceptance gate.

Each test runs one headline check at its fixed tolerance and prints a single
PASS/FAIL line (visible with ``pytest -v -rA`` or ``-s``); the pytest verdict
of each test is the same pass/fail signal.
"""

import time

import numpy as np
import pytest

from liqdrop.appendixlab import far_field_exponent, quadrupole_layer, swiss_cheese
from liqdrop.coulomb import PeriodicKernel, completed_zeta, epstein_zeta, epstein_zeta_direct
from liqdrop.droplet import ball_optimum
from liqdrop.expansion import (
    expansion_sweep,
    extract_coefficients,
    gs_coulomb_inequality_check,
    gs_perimeter_identity_check,
)
from liqdrop.geom import Ball, BallUnion, Cube, make_lattice
from liqdrop.jellium import basin_hop, crystal_positions, periodic_energy

ZETA_BCC_TARGET = -1.4442
ZETA_BCC_REFERENCE = -1.4442307515269701
RESIDUAL_TARGET = -2.660
RHO_GRID = (1e-3, 3e-4, 1e-4, 3e-5)
THREADS = 8


def _report(num: int, label: str, ok: bool, detail: str, elapsed: float,
            limit: float | None = None) -> None:
    if limit is not None:
        ok = ok and elapsed < limit
        detail = f"{detail}; {elapsed:.1f}s < {limit:.0f}s"
    else:
        detail = f"{detail}; {elapsed:.1f}s"
    line = f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_acceptance_1_lattice_sums():
    t0 = time.time()
    lat_bcc = make_lattice("bcc")
    z = epstein_zeta(lat_bcc, 1.0)
    ok = abs(z.value - ZETA_BCC_TARGET) <= 5e-4
    worst_feq = 0.0
    for kind in ("sc", "bcc", "fcc"):
        lat = make_lattice(kind)
        for s in (0.5, 1.0, 2.5):
            resid = abs(completed_zeta(lat, s) - completed_zeta(lat.dual(), 3.0 - s))
            worst_feq = max(worst_feq, resid)
    ok = ok and worst_feq <= 1e-10
    worst_brute = 0.0
    for kind in ("sc", "bcc", "fcc"):
        lat = make_lattice(kind)
        direct, trunc = epstein_zeta_direct(lat, 5.0, rmax=30.0)
        z5 = epstein_zeta(lat, 5.0)
        gap = abs(direct - z5.value)
        budget = trunc + z5.error
        ok = ok and gap <= budget
        worst_brute = max(worst_brute, gap)
    _report(
        1,
        "lattice sums",
        ok,
        f"bcc value {z.value:.6f} vs {ZETA_BCC_TARGET}, functional-eq resid "
        f"{worst_feq:.2e}, brute-force gap {worst_brute:.2e}",
        time.time() - t0,
        limit=5.0,
    )


def test_acceptance_2_droplet_constants():
    t0 = time.time()
    opt = ball_optimum()
    r_exact = (15.0 / (8.0 * np.pi)) ** (1.0 / 3.0)
    e_exact = 9.0 * (np.pi / 15.0) ** (1.0 / 3.0)
    errs = (
        abs(opt.best_radius - r_exact),
        abs(opt.best_energy_per_volume - e_exact),
        abs(opt.best_mass - 2.5),
    )
    ok = max(errs) <= 1e-10
    _report(
        2,
        "droplet ball constants",
        ok,
        f"radius/energy/mass errors {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e}",
        time.time() - t0,
        limit=1.0,
    )


def test_acceptance_3_crystal_energy():
    t0 = time.time()
    n = 16
    ell = float(n) ** (1.0 / 3.0)
    kernel = PeriodicKernel(ell)
    pts = crystal_positions("bcc", 2, ell)
    per_particle = periodic_energy(pts, kernel).per_particle
    gap_reference = abs(per_particle - ZETA_BCC_REFERENCE)
    gap_round = abs(per_particle - ZETA_BCC_TARGET)
    ok = gap_reference <= 1e-6 and gap_round <= 5e-4
    _report(
        3,
        "commensurate crystal energy",
        ok,
        f"per-particle {per_particle:.10f}, lattice-sum gap {gap_reference:.1e}, "
        f"rounded-target gap {gap_round:.1e}",
        time.time() - t0,
        limit=10.0,
    )


def test_acceptance_4_global_optimization_bracket():
    t0 = time.time()
    n = 16
    kernel = PeriodicKernel(float(n) ** (1.0 / 3.0))
    res = basin_hop(n, kernel, restarts=50, hops=4, seed=0, threads=THREADS)
    lo, hi = -1.4508 - 1e-3, -1.4430
    ok = lo <= res.best_per_particle <= hi
    _report(
        4,
        "random-start optimization bracket",
        ok,
        f"best per-particle {res.best_per_particle:.6f} in [{lo:.4f}, {hi:.4f}]",
        time.time() - t0,
        limit=600.0,
    )


def test_acceptance_5_dilute_expansion_coefficients():
    t0 = time.time()
    pp = expansion_sweep(RHO_GRID, n=54, seed=0, restarts=6, hops=2,
                         threads=THREADS)
    c1_pp, c2_pp, _ = extract_coefficients(RHO_GRID, pp)
    e_exact = 9.0 * (np.pi / 15.0) ** (1.0 / 3.0)
    ok = abs(c1_pp - e_exact) <= 5e-3 * e_exact
    ok = ok and abs(c2_pp - RESIDUAL_TARGET) <= 0.1 * abs(RESIDUAL_TARGET)
    _report(
        5,
        "dilute expansion coefficients",
        ok,
        f"per-particle c1 {c1_pp:.6f} (target {e_exact:.6f} +-0.5%), "
        f"c2 {c2_pp:.4f} (target {RESIDUAL_TARGET} +-10%)",
        time.time() - t0,
        limit=1800.0,
    )


def test_acceptance_6_localization_identities():
    t0 = time.time()
    omega = BallUnion(centers=np.zeros((1, 3)), radii=np.ones(1))
    per = gs_perimeter_identity_check(omega, ell=5.0, samples=10**6, seed=0)
    sphere = 4.0 * np.pi
    per_ok = (
        abs(per.mc_value - sphere) <= 3.0 * per.sigma and per.sigma < 0.01 * sphere
    )
    lam = Cube(side=8.0)
    base = np.array([[-1.5, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.5, 0.0]])
    worst = np.inf
    coul_ok = True
    for i in range(20):
        rng = np.random.default_rng((0, 7, i))
        k = 1 + i % 3
        centers = base[:k] + rng.uniform(-0.3, 0.3, (k, 3))
        radii = rng.uniform(0.35, 0.6, k)
        cfg = BallUnion(centers=centers, radii=radii)
        rep = gs_coulomb_inequality_check(
            cfg, lam, rho=0.05, ell=5.0, samples_per_pair=20_000, seed=1000 + i
        )
        worst = min(worst, rep.margin_in_sigmas)
        coul_ok = coul_ok and rep.passed
    ok = per_ok and coul_ok and worst >= -3.0
    _report(
        6,
        "window localization identities",
        ok,
        f"perimeter MC {per.mc_value:.4f} vs {sphere:.4f} (sigma {per.sigma:.4f}), "
        f"worst energy margin {worst:.1f} sigma over 20 configurations",
        time.time() - t0,
        limit=300.0,
    )


def test_acceptance_7_boundary_screening_layer():
    t0 = time.time()
    domain = Ball(radius=2.0, center=(0.0, 0.0, 0.0))
    eps = 0.25
    worst_charge = worst_dipole = worst_perim = 0.0
    worst_margin = np.inf
    decay_lo, decay_hi = np.inf, -np.inf
    for rho in (0.1, 0.3, 0.5):
        layer = quadrupole_layer(domain, eps, 8, rho)
        worst_charge = max(worst_charge, float(np.abs(layer.charges()).max()))
        worst_dipole = max(worst_dipole, float(np.abs(layer.dipoles()).max()))
        worst_margin = min(worst_margin, float(layer.containment_margins().min()))
        worst_perim = max(worst_perim, layer.perimeter_constant())
        for i in np.flatnonzero(layer.kind_masks()["merged"])[:3]:
            p = far_field_exponent(layer[int(i)])
            decay_lo, decay_hi = min(decay_lo, p), max(decay_hi, p)
    ok = (
        worst_charge <= 1e-15
        and worst_dipole <= 1e-12 * eps**4
        and worst_margin > 0.0
        and worst_perim <= 10.0
        and 2.7 <= decay_lo
        and decay_hi <= 3.3
    )
    _report(
        7,
        "boundary screening layer",
        ok,
        f"max |charge| {worst_charge:.1e}, max |dipole| {worst_dipole:.1e}, "
        f"min margin {worst_margin:.1e}, perimeter constant {worst_perim:.2f} "
        f"(single C=10), decay exponents [{decay_lo:.3f}, {decay_hi:.3f}]",
        time.time() - t0,
        limit=60.0,
    )


def test_acceptance_8_nested_ball_packing():
    t0 = time.time()
    s = swiss_cheese(12)
    from fractions import Fraction

    exact_ok = (
        s.growth == 26
        and s.radii[0] == Fraction(1, 2)
        and s.counts[1] == 729
    )
    spread_ok = all(
        Fraction(1, 50) <= s.leftover_ratios[k] <= 50
        and Fraction(1, 50) <= s.perimeter_ratios[k] <= 50
        for k in range(2, 13)
    )
    ok = exact_ok and spread_ok
    worst = max(
        max(float(s.leftover_ratios[k]), 1.0 / float(s.leftover_ratios[k]),
            float(s.perimeter_ratios[k]), 1.0 / float(s.perimeter_ratios[k]))
        for k in range(2, 13)
    )
    _report(
        8,
        "nested ball packing",
        ok,
        f"base radius 1/2, first-generation count 729, two-sided constant "
        f"{worst:.1f} <= 50 over depths 2..12",
        time.time() - t0,
        limit=1.0,
    )


def test_acceptance_9_property_suites(tmp_path):
    t0 = time.time()
    # gradient vs central differences at 1e-6 relative
    kern = PeriodicKernel(1.9)
    rng = np.random.default_rng(3)
    pts = rng.random((4, 3)) * 1.9
    grad = kern.pair_gradient(pts)
    fd_ok = True
    h = 1e-6
    for i in range(4):
        for ax in range(3):
            shifted = pts.copy()
            shifted[i, ax] += h
            ep = kern.pair_energy(shifted)
            shifted[i, ax] -= 2 * h
            em = kern.pair_energy(shifted)
            fd = (ep - em) / (2 * h)
            if abs(grad[i, ax] - fd) > 1e-6 * max(1.0, abs(fd)):
                fd_ok = False
    # homogeneity: kernel values scale exactly like inverse length, and
    # lattice sums scale exactly with density
    u = np.array([[0.31, 0.12, 0.47]])
    g1 = PeriodicKernel(1.0).green(u)[0]
    g3 = PeriodicKernel(3.0).green(3.0 * u)[0]
    homog_ok = abs(g3 - g1 / 3.0) <= 1e-12 * abs(g1)
    z1 = epstein_zeta(make_lattice("sc"), 2.0).value
    z8 = epstein_zeta(make_lattice("sc", density=8.0), 2.0).value
    homog_ok = homog_ok and abs(z8 - 4.0 * z1) <= 1e-12 * abs(z8)
    # determinism: identical bytes across reruns and thread counts
    from liqdrop.cli import main

    args = ("jellium-opt", "--n", "8", "--restarts", "2", "--hops", "1",
            "--seed", "5")
    dirs = [str(tmp_path / d) for d in ("a", "b", "c")]
    assert main([*args, "--threads", "1", "--out", dirs[0]]) == 0
    assert main([*args, "--threads", "1", "--out", dirs[1]]) == 0
    assert main([*args, "--threads", "8", "--out", dirs[2]]) == 0
    det_ok = True
    for name in ("jellium-opt.csv", "jellium-opt.json"):
        b0 = open(f"{dirs[0]}/{name}", "rb").read()
        det_ok = det_ok and b0 == open(f"{dirs[1]}/{name}", "rb").read()
        det_ok = det_ok and b0 == open(f"{dirs[2]}/{name}", "rb").read()
    ok = fd_ok and homog_ok and det_ok
    _report(
        9,
        "property suites",
        ok,
        f"finite-difference gradients {'ok' if fd_ok else 'FAIL'}, "
        f"scaling identities {'ok' if homog_ok else 'FAIL'}, "
        f"thread/run determinism {'ok' if det_ok else 'FAIL'}",
        time.time() - t0,
    )
