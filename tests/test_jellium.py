"""Point charges in a neutralizing background: torus and scaled tetrahedron."""

from types import SimpleNamespace

import numpy as np
import pytest

import liqdrop.jellium as jellium
from liqdrop.coulomb import PeriodicKernel, domain_pair_coulomb
from liqdrop.coulomb.ewald import CoincidentPointsError
from liqdrop.geom import Tetrahedron, regular_tetrahedron
from liqdrop.jellium import (
    PointConfiguration,
    basin_hop,
    crystal_positions,
    e_jel_extrapolate,
    grand_canonical_point_jellium,
    minimize_local,
    periodic_energy,
)

# independently derived lattice-sum values (see tests/test_coulomb.py)
ZETA_SC_1 = -1.4186487397403098
ZETA_BCC_1 = -1.4442307515269701
ZETA_FCC_1 = -1.4441410595101616


# ---------------------------------------------------------------------------
# crystal generators
# ---------------------------------------------------------------------------


def test_crystal_positions_counts_and_range():
    for kind, per_cell in (("sc", 1), ("bcc", 2), ("fcc", 4)):
        for k in (1, 2, 3):
            pts = crystal_positions(kind, k, ell=3.0)
            assert pts.shape == (per_cell * k**3, 3)
            assert np.all(pts >= -1e-12)
            assert np.all(pts < 3.0)
            # all positions distinct modulo the cell
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            d += np.eye(len(pts)) * 10.0
            assert d.min() > 0.1


def test_crystal_positions_rejects_unknown_kind():
    with pytest.raises(KeyError):
        crystal_positions("hex", 2, 1.0)


# ---------------------------------------------------------------------------
# periodic energy against the lattice-sum values
# ---------------------------------------------------------------------------


def crystal_per_particle(kind, k, per_cell):
    n = per_cell * k**3
    ell = n ** (1.0 / 3.0)  # unit point density
    kern = PeriodicKernel(ell)
    pts = crystal_positions(kind, k, ell)
    return periodic_energy(pts, kern).per_particle


def test_unit_density_crystals_match_lattice_sums():
    assert crystal_per_particle("sc", 1, 1) == pytest.approx(ZETA_SC_1, abs=1e-10)
    assert crystal_per_particle("bcc", 1, 2) == pytest.approx(ZETA_BCC_1, abs=1e-10)
    assert crystal_per_particle("fcc", 1, 4) == pytest.approx(ZETA_FCC_1, abs=1e-10)


def test_supercell_energy_is_size_independent():
    assert crystal_per_particle("bcc", 2, 2) == pytest.approx(ZETA_BCC_1, abs=1e-9)


def test_periodic_energy_report_consistency():
    kern = PeriodicKernel(2.0)
    pts = np.array([[0.1, 0.2, 0.3], [1.0, 1.5, 0.2], [0.4, 1.1, 1.8]])
    rep = periodic_energy(pts, kern)
    assert rep.total == pytest.approx(rep.pair + rep.madelung_self, rel=1e-14)
    assert rep.per_particle == pytest.approx(rep.total / 3.0, rel=1e-14)
    # self-image term: n M / 2 with the kernel's own constant
    assert rep.madelung_self == pytest.approx(3 * kern.madelung() / 2.0, rel=1e-13)


def test_periodic_gradient_matches_finite_differences():
    kern = PeriodicKernel(1.7)
    rng = np.random.default_rng(5)
    pts = rng.random((4, 3)) * 1.7
    grad = kern.pair_gradient(pts)
    h = 1e-6
    for i in (0, 2):
        for k in range(3):
            shifted = pts.copy()
            shifted[i, k] += h
            ep = kern.pair_energy(shifted)
            shifted[i, k] -= 2 * h
            em = kern.pair_energy(shifted)
            fd = (ep - em) / (2 * h)
            assert grad[i, k] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_crystal_is_stationary():
    ell = 16.0 ** (1.0 / 3.0)
    kern = PeriodicKernel(ell)
    pts = crystal_positions("bcc", 2, ell)
    grad = kern.pair_gradient(pts)
    assert np.abs(grad).max() < 1e-9


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


def test_minimize_local_descends_and_reaches_stationarity():
    kern = PeriodicKernel(2.0)
    rng = np.random.default_rng(11)
    pts0 = rng.random((8, 3)) * 2.0
    e0 = kern.pair_energy(pts0)
    pts, trace, converged = minimize_local(pts0, kern)
    e1 = kern.pair_energy(pts)
    assert e1 < e0
    assert np.abs(kern.pair_gradient(pts)).max() < 1e-6
    assert len(trace) >= 2
    assert converged is True


def test_minimize_local_evaluates_energy_and_gradient_once(monkeypatch):
    fused, objective = [], []
    fused_call = PeriodicKernel.energy_and_gradient
    scipy_minimize = jellium.minimize

    def counted_fused(self, *args, **kwargs):
        fused.append(1)
        return fused_call(self, *args, **kwargs)

    def forbidden(self, *args, **kwargs):
        raise AssertionError("pair_gradient called by the minimizer")

    def counted_minimize(fun, x0, **kwargs):
        def counted_fun(x):
            objective.append(1)
            return fun(x)

        return scipy_minimize(counted_fun, x0, **kwargs)

    monkeypatch.setattr(PeriodicKernel, "energy_and_gradient", counted_fused)
    monkeypatch.setattr(PeriodicKernel, "pair_gradient", forbidden)
    monkeypatch.setattr(jellium, "minimize", counted_minimize)
    kern = PeriodicKernel(2.0)
    pts = np.random.default_rng(11).random((8, 3)) * 2.0
    _, trace, _ = minimize_local(pts, kern)
    assert len(objective) >= 2
    assert len(fused) == len(objective) == len(trace)


def test_minimize_local_guard_returns_huge_value_and_zero_gradient(monkeypatch):
    # a pair closer than 1e-10 cells through the minimum image: the kernel
    # raises, and the objective returns (1e12, 0) and records no trace row
    calls = []

    def one_call(fun, x0, **kwargs):
        calls.append(fun(x0))
        return SimpleNamespace(x=x0, success=False)

    monkeypatch.setattr(jellium, "minimize", one_call)
    kern = PeriodicKernel(2.0)
    pts = np.random.default_rng(12).random((6, 3)) * 2.0
    pts[4] = pts[1] + np.array([2.0, -2.0, 0.5e-10])
    with pytest.raises(CoincidentPointsError):
        kern.energy_and_gradient(pts)
    _, trace, converged = minimize_local(pts, kern)
    [(energy, grad)] = calls
    assert energy == 1e12
    assert grad.shape == (18,) and not grad.any()
    assert len(trace) == 0
    assert converged is False
    # just outside the threshold the kernel evaluates
    pts[4] = pts[1] + np.array([2.0, -2.0, 2e-10])
    calls.clear()
    _, trace, _ = minimize_local(pts, kern)
    assert calls[0][0] < 1e12
    assert len(trace) == 1


def test_basin_hop_deterministic_and_thread_invariant():
    kern = PeriodicKernel(8.0 ** (1.0 / 3.0))
    a = basin_hop(8, kern, restarts=3, hops=1, seed=42, threads=1)
    b = basin_hop(8, kern, restarts=3, hops=1, seed=42, threads=1)
    c = basin_hop(8, kern, restarts=3, hops=1, seed=42, threads=4)
    assert a.best_positions.tobytes() == b.best_positions.tobytes()
    assert a.restart_table.tobytes() == b.restart_table.tobytes()
    assert a.best_positions.tobytes() == c.best_positions.tobytes()
    assert a.restart_table.tobytes() == c.restart_table.tobytes()


def test_basin_hop_reports_each_restart_status(monkeypatch):
    # a restart counts as converged only when each of its L-BFGS runs
    # succeeded, and its evaluations are the kernel calls of those runs
    runs, fused = [], []
    scipy_minimize = jellium.minimize
    fused_call = PeriodicKernel.energy_and_gradient

    def second_run_fails(fun, x0, **kwargs):
        res = scipy_minimize(fun, x0, **kwargs)
        runs.append(res.nfev)
        if len(runs) == 2:
            res.success = False
        return res

    def counted_fused(self, *args, **kwargs):
        fused.append(1)
        return fused_call(self, *args, **kwargs)

    monkeypatch.setattr(jellium, "minimize", second_run_fails)
    monkeypatch.setattr(PeriodicKernel, "energy_and_gradient", counted_fused)
    res = basin_hop(8, PeriodicKernel(2.0), restarts=2, hops=1, seed=3, threads=1)
    assert [s.converged for s in res.restart_status] == [False, True]
    assert [s.evaluations for s in res.restart_status] == [runs[0] + runs[1],
                                                            runs[2] + runs[3]]
    # besides L-BFGS, each run's result is scored by one pair_energy call
    assert len(fused) == sum(runs) + len(runs)


def test_basin_hop_large_n_thread_invariant():
    # two restarts at n = 108 run at once on two threads, sharing one kernel
    n = 108
    side = n ** (1.0 / 3.0)
    kern = PeriodicKernel(side)
    rng = np.random.default_rng(5)
    starts = [crystal_positions("fcc", 3, side) + rng.normal(scale=1e-3, size=(n, 3))
              for _ in range(2)]
    a = basin_hop(n, kern, restarts=0, hops=0, threads=1, initial_configs=starts)
    b = basin_hop(n, kern, restarts=0, hops=0, threads=2, initial_configs=starts)
    assert a.restart_table.shape == (2, 2)
    assert a.best_positions.tobytes() == b.best_positions.tobytes()
    assert a.restart_table.tobytes() == b.restart_table.tobytes()


def test_basin_hop_rejects_fewer_than_one_thread():
    kern = PeriodicKernel(2.0)
    for threads in (0, -1, -(10**9)):
        with pytest.raises(ValueError, match="threads"):
            basin_hop(8, kern, restarts=1, hops=0, threads=threads)


def test_basin_hop_needs_at_least_one_start():
    # no restarts and no initial configuration used to die in an argmin of
    # an empty sequence; one given start and no random ones still runs
    n, ell = 16, 16.0 ** (1.0 / 3.0)
    kern = PeriodicKernel(ell)
    for extras in (None, []):
        with pytest.raises(ValueError, match="restarts plus initial configurations"):
            basin_hop(n, kern, restarts=0, hops=0, initial_configs=extras)
    res = basin_hop(n, kern, restarts=0, hops=0,
                    initial_configs=[crystal_positions("bcc", 2, ell)])
    assert res.restart_table.shape == (1, 2)


def test_basin_hop_crystal_seed_is_never_beaten_badly():
    # with a bcc crystal among the starts, the best energy is at most the
    # crystal energy (the hop acceptance is monotone)
    n, ell = 16, 16.0 ** (1.0 / 3.0)
    kern = PeriodicKernel(ell)
    crystal = crystal_positions("bcc", 2, ell)
    crystal_e = kern.pair_energy(crystal)
    res = basin_hop(n, kern, restarts=2, hops=1, seed=0,
                    initial_configs=[crystal])
    assert res.best_energy <= crystal_e + 1e-10
    assert res.restart_table.shape == (3, 2)
    assert res.best_per_particle == pytest.approx(
        (res.best_energy + n * kern.madelung() / 2.0) / n, rel=1e-13
    )


def test_point_configuration_shapes():
    cfg = PointConfiguration(positions=[0.0, 0.0, 0.0, 1.0, 1.0, 1.0], charge=2.0)
    assert len(cfg) == 2
    assert cfg.positions.shape == (2, 3)


# ---------------------------------------------------------------------------
# grand-canonical point problem on the scaled tetrahedron
# ---------------------------------------------------------------------------


def test_grand_canonical_point_jellium_small_cell():
    a = 2.2246  # cell volume slightly above 11, charge 2.5 -> about 4.4
    rep = grand_canonical_point_jellium(a, charge=2.5, window=(4, 5),
                                        starts=1, seed=0)
    assert rep.best_n in (4, 5)
    assert rep.best_value < 0.0
    # the optimizer beats the i.i.d.-averaging closed-form bound
    assert rep.best_value <= min(rep.averaging_bounds.values()) + 1e-9
    # the certified interpolation bound is strictly negative here
    assert rep.interpolation_bound < 0.0
    assert rep.best_value <= rep.interpolation_bound
    # background self term matches the cached pair integral
    tet = regular_tetrahedron()
    verts = tet.vertices * a
    scaled = Tetrahedron(vertices=verts)
    bb, _ = domain_pair_coulomb(scaled, scaled)
    assert rep.background_self == pytest.approx(0.5 * bb, rel=1e-12)
    assert set(rep.values_by_n) == {4, 5}


def test_grand_canonical_point_jellium_empty_window():
    rep = grand_canonical_point_jellium(1.2, charge=2.5, window=(0, 0), starts=1)
    assert rep.best_n == 0
    assert rep.best_value == pytest.approx(rep.background_self, rel=1e-14)
    assert rep.best_positions.shape == (0, 3)


@pytest.mark.parametrize(
    "bad",
    [
        {"a_scale": 0.0},
        {"a_scale": -1.0},
        {"a_scale": float("nan")},
        {"charge": 0.0},
        {"charge": -1.0},
        {"starts": 0},
        {"window": (7, 4)},
        {"window": (-1, 2)},
    ],
)
def test_grand_canonical_point_jellium_rejects_meaningless_inputs(bad):
    args = {"a_scale": 2.2246, "charge": 2.5, "window": (4, 5), "starts": 1} | bad
    with pytest.raises(ValueError):
        grand_canonical_point_jellium(**args)


# ---------------------------------------------------------------------------
# infinite-size extrapolation
# ---------------------------------------------------------------------------


def test_e_jel_extrapolate_recovers_synthetic_law():
    counts = np.array([8, 27, 64, 125, 216])
    e_inf, slope = -1.44, 0.37
    energies = e_inf + slope * counts ** (-1.0 / 3.0)
    got_e, got_slope, resid = e_jel_extrapolate(counts, energies)
    assert got_e == pytest.approx(e_inf, abs=1e-12)
    assert got_slope == pytest.approx(slope, abs=1e-11)
    assert resid < 1e-13


def test_e_jel_extrapolate_needs_two_sizes():
    with pytest.raises(ValueError):
        e_jel_extrapolate([8], [-1.4])
