"""Droplet energies: single-ball closed forms, breakdowns, grand-canonical."""

import numpy as np
import pytest

from liqdrop.droplet import (
    OPT_ENERGY_PER_VOLUME,
    OPT_MASS,
    OPT_RADIUS,
    ball_energy_per_volume,
    ball_optimum,
    grand_canonical_F,
    liquid_drop_energy,
    mass_bound_check,
)
from liqdrop.geom import (
    Ball,
    BallUnion,
    Cube,
    regular_tetrahedron,
    voxelize,
    voxelize_domain,
)


# ---------------------------------------------------------------------------
# single-ball closed forms
# ---------------------------------------------------------------------------


def test_ball_energy_per_volume_closed_form():
    assert ball_energy_per_volume(1.0) == pytest.approx(
        3.0 + 4.0 * np.pi / 5.0, rel=1e-15
    )
    r = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(
        ball_energy_per_volume(r), 3.0 / r + (4.0 * np.pi / 5.0) * r**2, rtol=1e-15
    )
    with pytest.raises(ValueError):
        ball_energy_per_volume(0.0)
    with pytest.raises(ValueError):
        ball_energy_per_volume([-1.0, 1.0])


def test_ball_optimum_matches_closed_forms():
    opt = ball_optimum()
    assert opt.best_radius == pytest.approx(
        (15.0 / (8.0 * np.pi)) ** (1.0 / 3.0), abs=1e-12
    )
    assert opt.best_energy_per_volume == pytest.approx(
        9.0 * (np.pi / 15.0) ** (1.0 / 3.0), abs=1e-12
    )
    assert opt.best_mass == pytest.approx(2.5, abs=1e-12)
    assert opt.smallest_minimizer_mass == pytest.approx(2.5, abs=1e-12)
    assert opt.ball_family_only and opt.ball_optimality_conjectured
    # module-level constants agree with the optimizer output
    assert OPT_RADIUS == pytest.approx(opt.best_radius, abs=1e-13)
    assert OPT_ENERGY_PER_VOLUME == pytest.approx(opt.best_energy_per_volume, abs=1e-12)
    assert OPT_MASS == 2.5


def test_optimal_radius_is_stationary():
    r = OPT_RADIUS
    assert -3.0 / r**2 + (8.0 * np.pi / 5.0) * r == pytest.approx(0.0, abs=1e-12)
    # the optimal value satisfies the exact identity e = (12 pi / 5) R^2 + ...
    assert ball_energy_per_volume(r) == pytest.approx(OPT_ENERGY_PER_VOLUME, abs=1e-13)
    # mass of the optimal ball
    assert 4.0 * np.pi * r**3 / 3.0 == pytest.approx(OPT_MASS, abs=1e-13)


# ---------------------------------------------------------------------------
# ball-union breakdown against closed forms
# ---------------------------------------------------------------------------


def test_single_ball_breakdown_in_ball_container():
    R, RL, rho = 0.7, 3.0, 0.1
    lam = Ball(radius=RL, center=(0.0, 0.0, 0.0))
    omega = BallUnion(centers=np.zeros((1, 3)), radii=np.array([R]))
    br = liquid_drop_energy(omega, lam, rho)
    q = 4.0 * np.pi * R**3 / 3.0
    assert br.perimeter == pytest.approx(4.0 * np.pi * R**2, rel=1e-14)
    assert br.droplet_droplet == pytest.approx(0.6 * q**2 / R, rel=1e-14)
    # container potential at the center is 2 pi RL^2; the ball average
    # subtracts the exact quadratic moment (2 pi / 5) R^2
    db = -rho * q * (2.0 * np.pi * RL**2 - (2.0 * np.pi / 5.0) * R**2)
    assert br.droplet_background == pytest.approx(db, rel=1e-13)
    vl = lam.volume
    assert br.background_background == pytest.approx(
        0.5 * rho**2 * 1.2 * vl**2 / RL, rel=1e-13
    )
    assert br.total == pytest.approx(
        br.perimeter + br.droplet_droplet + br.droplet_background
        + br.background_background,
        rel=1e-14,
    )
    assert br.droplet_volume == pytest.approx(q, rel=1e-14)
    assert br.neutrality_defect == pytest.approx(q - rho * vl, rel=1e-12)


def test_two_ball_breakdown_has_point_charge_interaction():
    lam = Cube(side=10.0)
    omega = BallUnion(
        centers=np.array([[-1.5, 0.0, 0.0], [1.5, 0.0, 0.0]]),
        radii=np.array([0.5, 0.8]),
    )
    br = liquid_drop_energy(omega, lam, 0.0)
    q = 4.0 * np.pi * np.array([0.5, 0.8]) ** 3 / 3.0
    expect = 0.6 * q[0] ** 2 / 0.5 + 0.6 * q[1] ** 2 / 0.8 + q[0] * q[1] / 3.0
    assert br.droplet_droplet == pytest.approx(expect, rel=1e-14)
    assert br.background_background == 0.0
    assert br.droplet_background == 0.0


def test_breakdown_validates_inputs():
    lam = Ball(radius=1.0, center=(0.0, 0.0, 0.0))
    poking_out = BallUnion(centers=np.array([[0.8, 0.0, 0.0]]), radii=np.array([0.5]))
    with pytest.raises(ValueError):
        liquid_drop_energy(poking_out, lam, 0.0)
    inside = BallUnion(centers=np.zeros((1, 3)), radii=np.array([0.3]))
    with pytest.raises(ValueError):
        liquid_drop_energy(inside, lam, 1.5)
    with pytest.raises(TypeError):
        liquid_drop_energy("not a droplet", lam, 0.1)


def test_voxel_breakdown_approximates_closed_forms():
    R = 1.0
    vox = voxelize_domain(Ball(radius=R, center=(0.0, 0.0, 0.0)), h=0.05)
    br = liquid_drop_energy(vox, voxelize_domain(Cube(side=4.0), 0.05), 0.0)
    q = 4.0 * np.pi / 3.0
    assert br.droplet_droplet == pytest.approx(0.6 * q**2 / R, rel=2e-2)
    assert br.perimeter == pytest.approx(4.0 * np.pi * R**2, rel=2e-2)
    assert br.droplet_volume == pytest.approx(q, rel=1e-2)


def test_voxel_breakdown_is_pinned():
    # two balls on a 64^3 grid in a 128^3 padded transform; the droplet and
    # container fields share one kernel transform, and every term must keep
    # the value recorded before that sharing
    union = BallUnion(
        centers=np.array([[-1.3, 0.1, 0.0], [1.45, -0.05, 0.1]]),
        radii=np.array([0.9, 1.1]),
    )
    h = 0.1
    rep = liquid_drop_energy(voxelize(union, h), voxelize_domain(Cube(side=6.4), h), 0.05)
    assert {k: float(v) for k, v in vars(rep).items()} == {
        "perimeter": 25.317656267093597,
        "droplet_droplet": 29.422302478148126,
        "droplet_background": -39.77867141939743,
        "background_background": 25.26427224218588,
        "total": 40.225559568030164,
        "droplet_volume": 8.654000000000002,
        "neutrality_defect": -4.4532000000000025,
    }


def test_voxel_breakdown_requires_containment_and_alignment():
    vox = voxelize_domain(Ball(radius=1.0, center=(0.0, 0.0, 0.0)), h=0.25)
    small = voxelize_domain(Cube(side=1.0), 0.25)
    with pytest.raises(ValueError, match="not contained"):
        liquid_drop_energy(vox, small, 0.0)
    # a side of 4.1 puts the cube's grid 0.2 cells off the droplet's
    misaligned = voxelize_domain(Cube(side=4.1), 0.25)
    with pytest.raises(ValueError, match="not aligned"):
        liquid_drop_energy(vox, misaligned, 0.0)
    # the container is voxelized by the caller
    with pytest.raises(TypeError, match="voxel-set container"):
        liquid_drop_energy(vox, Cube(side=4.0), 0.0)


# ---------------------------------------------------------------------------
# grand-canonical functional
# ---------------------------------------------------------------------------


def test_grand_canonical_zero_density_optimum_is_flat():
    # with no background, the best single ball is the optimal droplet and
    # its value (energy minus the per-volume constant times volume) is zero
    lam = Ball(radius=1.5, center=(0.0, 0.0, 0.0))
    rep = grand_canonical_F(lam, 0.0, kmax=1, seed=3, starts=2)
    assert rep.background_self == 0.0
    assert 0 in rep.values_by_count and 1 in rep.values_by_count
    assert rep.values_by_count[0] == 0.0
    assert abs(rep.values_by_count[1]) < 1e-6
    assert rep.value == min(rep.values_by_count.values())
    assert rep.converged


def test_grand_canonical_background_prefers_droplets():
    lam = Ball(radius=2.0, center=(0.0, 0.0, 0.0))
    rep = grand_canonical_F(lam, 0.05, kmax=2, seed=0, starts=2)
    assert rep.value == min(rep.values_by_count.values())
    # the empty set pays the full background self-energy; droplets help
    assert rep.value < rep.values_by_count[0]
    assert rep.ball_count >= 1
    assert rep.centers.shape == (rep.ball_count, 3)
    assert rep.radii.shape == (rep.ball_count,)
    # returned configuration is feasible
    assert np.all(lam.inner_distance(rep.centers) >= rep.radii - 1e-9)


def test_grand_canonical_rejects_large_density():
    with pytest.raises(ValueError):
        grand_canonical_F(Ball(radius=1.0, center=(0.0, 0.0, 0.0)), 0.7)


def test_grand_canonical_rejects_no_starts():
    # with no start the empty configuration would be reported as converged
    with pytest.raises(ValueError):
        grand_canonical_F(Ball(radius=1.0, center=(0.0, 0.0, 0.0)), 0.01, starts=0)


def test_grand_canonical_rejects_empty_container_and_negative_kmax():
    # a container of side <= 0 used to hang in the start sampler (side < 0)
    # or fail inside L-BFGS (side 0)
    for lam in (Cube(side=-1.0), Cube(side=0.0), Ball(radius=-1.0)):
        with pytest.raises(ValueError, match="positive volume"):
            grand_canonical_F(lam, 0.01, kmax=1, starts=1)
    with pytest.raises(ValueError, match="at least 0"):
        grand_canonical_F(Cube(side=6.0), 0.01, kmax=-1)


@pytest.mark.parametrize("lam", [
    BallUnion(centers=np.zeros((1, 3)), radii=np.array([2.0])),
    regular_tetrahedron(100.0),
], ids=["BallUnion", "Tetrahedron"])
def test_grand_canonical_rejects_unsupported_containers(lam):
    # only a Ball or a Cube has the inner-distance gradient of the penalty
    with pytest.raises(TypeError, match=type(lam).__name__):
        grand_canonical_F(lam, 0.0, kmax=1, starts=1)


# ---------------------------------------------------------------------------
# a-priori mass bound
# ---------------------------------------------------------------------------


def test_mass_bound_holds_for_optimal_ball():
    lam = Cube(side=4.0)
    omega = BallUnion(centers=np.zeros((1, 3)), radii=np.array([OPT_RADIUS]))
    rep = mass_bound_check(omega, lam, 0.0)
    assert rep.hypothesis_met
    assert rep.passed is True
    assert rep.droplet_volume == pytest.approx(OPT_MASS, rel=1e-12)
    assert rep.bound == pytest.approx(8.0, rel=1e-12)


def test_mass_bound_reports_unmet_hypothesis():
    lam = Cube(side=10.0)
    omega = BallUnion(centers=np.zeros((1, 3)), radii=np.array([3.0]))
    rep = mass_bound_check(omega, lam, 0.0)
    assert not rep.hypothesis_met
    assert rep.passed is None
    assert "hypothesis" in rep.note
