"""Boundary screening layers, ball-packing schedules, averaged limits."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import cKDTree

from liqdrop.appendixlab import (
    _STAGE1_HOSTS,
    _STAGE1_MARGIN,
    _STAGE2_HOSTS,
    _classify_subcells,
    _enumerate_layer_tiles,
    _rank_hosts,
    _subcell_center,
    far_field_exponent,
    piece_potential,
    quadrupole_layer,
    recursion_limit,
    swiss_cheese,
)
from liqdrop.geom import Ball, Cube

BALL = Ball(radius=1.0, center=(0.0, 0.0, 0.0))


@pytest.fixture(scope="module")
def small_layer():
    return quadrupole_layer(BALL, eps=0.125, subdiv=4, rho=0.2)


@pytest.fixture(scope="module")
def cube_layer():
    return quadrupole_layer(Cube(side=4.0), eps=0.25, subdiv=4, rho=0.3)


def _moments(piece):
    """Charge, dipole and trace-free quadrupole of a piece's signed density
    (the inner cube minus the background fraction of its boxes), from the
    closed-form moments of each box: an oracle independent of the layer's
    bulk arrays."""
    rho = piece.background_fraction
    sides = piece.box_hi - piece.box_lo
    vols = np.prod(sides, axis=1)
    centers = (piece.box_lo + piece.box_hi) / 2.0
    side = piece.inner_side
    charge = side**3 - rho * vols.sum()
    dipole = side**3 * piece.inner_center - rho * (vols[:, None] * centers).sum(axis=0)
    s_bg = np.einsum("b,bi,bj->ij", vols, centers, centers)
    s_bg[np.diag_indices(3)] += (vols[:, None] * (sides / 2.0) ** 2).sum(axis=0) / 3.0
    s_in = side**3 * np.outer(piece.inner_center, piece.inner_center)
    s_in[np.diag_indices(3)] += side**3 * (side / 2.0) ** 2 / 3.0
    s = s_in - rho * s_bg
    return float(charge), dipole, s - np.trace(s) / 3.0 * np.eye(3)


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------


def test_layer_counts_are_consistent(small_layer):
    counts = small_layer.counts()
    assert counts["merged"] + counts["exterior-cube"] + counts["subcell"] == len(
        small_layer
    )
    kinds = small_layer.kinds()
    assert len(kinds) == len(small_layer)
    for key in ("merged", "exterior-cube", "subcell"):
        assert int((kinds == key).sum()) == counts[key]
    assert counts["merged"] > 0
    assert counts["subcell"] > 0


def test_every_piece_is_charge_neutral(small_layer):
    assert np.abs(small_layer.charges()).max() < 1e-15


def test_every_piece_is_dipole_free(small_layer):
    eps = small_layer.eps
    assert np.abs(small_layer.dipoles()).max() < 1e-12 * eps**4


def test_inner_cubes_stay_inside_their_pieces(small_layer):
    assert small_layer.containment_margins().min() > 0.0


def test_perimeter_constant_is_uniform(small_layer):
    # Per(inner cube) <= C rho^(2/3) eps^2 for every piece with one C
    assert 0.0 < small_layer.perimeter_constant() <= 10.0
    sides = small_layer.inner_sides()
    vols = small_layer.volumes()
    np.testing.assert_allclose(sides**3, small_layer.rho * vols, rtol=1e-12)
    np.testing.assert_allclose(
        small_layer.inner_perimeters(), 6.0 * sides**2, rtol=1e-15
    )


def test_piece_count_scales_with_shell_volume(small_layer):
    # piece count stays proportional to (shell volume / tile volume)
    assert small_layer.piece_count_constant() < 20.0
    assert small_layer.total_volume() < small_layer.shell_volume()


def test_layer_build_is_deterministic():
    a = quadrupole_layer(BALL, eps=0.125, subdiv=4, rho=0.2)
    b = quadrupole_layer(BALL, eps=0.125, subdiv=4, rho=0.2)
    assert a.volumes().tobytes() == b.volumes().tobytes()
    assert a.dipoles().tobytes() == b.dipoles().tobytes()
    assert list(a.kinds()) == list(b.kinds())


def test_bulk_charges_and_dipoles_match_the_moment_oracle(small_layer, cube_layer):
    # every host piece (merged or exterior cube) and every 16th subcell
    for layer in (small_layer, cube_layer):
        counts = layer.counts()
        hosts = counts["merged"] + counts["exterior-cube"]
        charges, dipoles = layer.charges(), layer.dipoles()
        for i in [*range(hosts), *range(hosts, len(layer), 16)]:
            charge, dipole, _ = _moments(layer[i])
            assert abs(charge - charges[i]) <= 1e-14 * layer.eps**3
            assert np.abs(dipole - dipoles[i]).max() <= 1e-14 * layer.eps**4


def test_merged_pieces_decay_like_quadrupoles(small_layer):
    kinds = small_layer.kinds()
    for i in np.nonzero(kinds == "merged")[0][:3]:
        charge, dipole, _ = _moments(small_layer[i])
        assert abs(charge) < 1e-15
        assert np.abs(dipole).max() < 1e-15
        assert 2.7 <= far_field_exponent(small_layer[i]) <= 3.3


def test_exterior_cubes_decay_faster(cube_layer):
    # a centered cube-in-box piece has no charge, dipole, or quadrupole and
    # its potential falls off one power faster than the quadrupole rate
    kinds = cube_layer.kinds()
    ext = np.nonzero(kinds == "exterior-cube")[0]
    assert len(ext) > 0
    charge, dipole, quadrupole = _moments(cube_layer[ext[0]])
    assert charge == 0.0
    assert np.abs(dipole).max() == 0.0
    assert np.abs(quadrupole).max() == 0.0
    assert far_field_exponent(cube_layer[ext[0]]) > 4.0


def test_merged_piece_quadrupole_is_symmetric_and_trace_free(small_layer):
    kinds = small_layer.kinds()
    for i in np.nonzero(kinds == "merged")[0][:3]:
        _, _, q = _moments(small_layer[i])
        scale = np.abs(q).max()
        assert scale > 0.0
        assert np.abs(q - q.T).max() <= 1e-15 * scale
        assert abs(np.trace(q)) <= 1e-15 * scale


def test_fallback_placement_is_pinned():
    # at the densest background 93 boundary subcells find no certified
    # candidate host and are placed by the widening fallback scan; the
    # digests pin which host receives every subcell
    layer = quadrupole_layer(Ball(radius=2.0, center=(0.0, 0.0, 0.0)), 0.25, 8, 0.5)
    assert len(layer) == 323896
    assert layer.counts() == {"merged": 2048, "exterior-cube": 0, "subcell": 321848}
    digests = {
        name: hashlib.sha256(getattr(layer, name)().tobytes()).hexdigest()
        for name in ("volumes", "dipoles", "containment_margins")
    }
    assert digests == {
        "volumes": "de57440bc6523bde48e0e6fca6ce71b1ea41f243656fab74d4683ec462ce30fc",
        "dipoles": "7132a4de6f637177d1940937caea1fff02b1094ac350a226a26fd793bd66ce71",
        "containment_margins": (
            "d33096406944cafe3798ab57bbb4aa103ad1565d6682d603d40e57e122c17c7b"
        ),
    }


def test_fallback_heavy_cube_layer_is_pinned():
    # an off-center cube at a dense background sends 3,099 boundary subcells
    # through the widening fallback scan, which skips the hosts that already
    # refused the subcell; the digests pin which host receives every subcell
    layer = quadrupole_layer(Cube(side=1.6, center=(0.02, 0.01, -0.03)), 0.1, 5, 0.45)
    assert len(layer) == 92117
    assert layer.counts() == {"merged": 1984, "exterior-cube": 888, "subcell": 89245}
    digests = {
        name: hashlib.sha256(getattr(layer, name)().tobytes()).hexdigest()
        for name in ("volumes", "dipoles", "containment_margins")
    }
    assert digests == {
        "volumes": "d8914479c30e65ee857a5729da66e5ae9086957c2cd9283ae3bba800c23d6a47",
        "dipoles": "677c2428a1c903543fe13a5e54de5d1103c8ff3f122bc58515099dfb715bd26d",
        "containment_margins": (
            "25e21f452c0904942a569072f98236a3e4513b472d2b72b1e9dcbc9533588137"
        ),
    }


@pytest.mark.parametrize(
    "rho, size, counts, digests",
    [
        (
            0.1, 322934, {"merged": 799, "exterior-cube": 287, "subcell": 321848},
            {
                "volumes": "623fb29ee0c62b1b024fa8fc182cc1a127733694879c1495f92c97b2942feb88",
                "dipoles": "5af831ed9fd3f688be1db611877fe8e4eb2fd7bd65408d8a392e7a2e9d6563c5",
                "containment_margins": (
                    "522bfedb8efa5b7a5bcd8ead3493b866920714611d220b6a5c579bc7544801e0"
                ),
            },
        ),
        (
            0.3, 323013, {"merged": 1075, "exterior-cube": 90, "subcell": 321848},
            {
                "volumes": "644c4511e99612e07806ed2715c3551cc3b7aed5b9bba5f34a3933861ba33960",
                "dipoles": "b424c8c07d34e7ecc98e316218f0ae97ece775e741fb5d0ef290753bfca77f02",
                "containment_margins": (
                    "fe418fe70123e5f184d19cf5a4eeca564ccb07fb1782a3f699632342374b99af"
                ),
            },
        ),
    ],
)
def test_default_ball_layers_are_pinned(rho, size, counts, digests):
    # the quadlayer default ball at the lighter backgrounds, where most
    # subcells are placed from the stage-1 hosts alone; the digests pin
    # which host receives every subcell
    layer = quadrupole_layer(Ball(radius=2.0, center=(0.0, 0.0, 0.0)), 0.25, 8, rho)
    assert len(layer) == size
    assert layer.counts() == counts
    assert {
        name: hashlib.sha256(getattr(layer, name)().tobytes()).hexdigest()
        for name in digests
    } == digests


@pytest.mark.parametrize(
    "domain, eps, subdiv",
    [
        (Ball(radius=2.0, center=(0.0, 0.0, 0.0)), 0.25, 8),  # quadlayer default
        (Cube(side=3.1, center=(0.2, 0.1, -0.13)), 0.19, 5),
        (Ball(radius=1.3, center=(0.11, -0.07, 0.05)), 0.16, 6),
    ],
)
def test_stage_one_hosts_are_a_prefix_of_the_full_ranking(domain, eps, subdiv):
    # every subcell's certified stage-1 list must be the start of its
    # certified stage-2 list, with the same first box distance, or the
    # greedy would try hosts in another order.  The ranking depends on the
    # geometry only, not on the background fraction, so one build covers
    # every rho.
    pool, _, boundary = _enumerate_layer_tiles(domain, eps)
    _, bnd_keys = _classify_subcells(domain, boundary, eps, subdiv)
    centers = _subcell_center(bnd_keys, eps, subdiv)
    tile_centers = eps * pool.astype(float)
    tree = cKDTree(tile_centers)
    half_sum = eps / 2.0 + eps / (2.0 * subdiv)
    first, c1, d1 = _rank_hosts(
        tree, tile_centers, half_sum, centers, _STAGE1_HOSTS, _STAGE1_MARGIN
    )
    full, c2, d2 = _rank_hosts(
        tree, tile_centers, half_sum, centers, _STAGE2_HOSTS, 1.0
    )
    assert np.all(c1 <= c2)
    in_prefix = np.arange(_STAGE1_HOSTS) < c1[:, None]
    assert np.array_equal(
        np.where(in_prefix, first, -1), np.where(in_prefix, full[:, :_STAGE1_HOSTS], -1)
    )
    assert np.array_equal(d1[c1 > 0], d2[c1 > 0])
    assert np.mean(c1 > 0) > 0.5  # stage 1 certifies a host for most subcells


def test_commensurate_cube_has_no_merged_pieces(cube_layer):
    counts = cube_layer.counts()
    assert counts["merged"] == 0
    assert counts["exterior-cube"] > 0


def test_piece_potential_matches_multipole_neutrality(small_layer):
    # far from a piece the potential of the signed density is orders of
    # magnitude below the bare inner-cube potential
    kinds = small_layer.kinds()
    i = int(np.nonzero(kinds == "merged")[0][0])
    piece = small_layer[i]
    r = 16.0 * small_layer.eps
    pt = piece.inner_center + np.array([r, 0.0, 0.0])
    signed = abs(piece_potential(piece, pt)[0])
    bare = piece.inner_side**3 / r
    assert signed < 1e-2 * bare


# ---------------------------------------------------------------------------
# validation and the documented feasibility envelope
# ---------------------------------------------------------------------------


def test_quadrupole_layer_validates_inputs():
    with pytest.raises(ValueError):
        quadrupole_layer(BALL, eps=0.125, subdiv=4, rho=0.0)
    with pytest.raises(ValueError):
        quadrupole_layer(BALL, eps=0.125, subdiv=4, rho=0.6)
    with pytest.raises(ValueError):
        quadrupole_layer(BALL, eps=-0.1, subdiv=4, rho=0.2)
    with pytest.raises(ValueError):
        quadrupole_layer(BALL, eps=0.5, subdiv=4, rho=0.2)  # coarser than R/8
    with pytest.raises(ValueError):
        quadrupole_layer(BALL, eps=0.125, subdiv=1, rho=0.2)
    with pytest.raises(TypeError):
        quadrupole_layer(BALL, eps=0.125, subdiv=4.5, rho=0.2)


def test_absorption_failure_raises_with_remedy():
    # a 2x2x2 subdivision at the densest background cannot absorb the
    # crossing subcells; the error names the subcell and the way out
    with pytest.raises(ValueError, match="increase the subdivision"):
        quadrupole_layer(BALL, eps=0.125, subdiv=2, rho=0.5)


# ---------------------------------------------------------------------------
# recursive ball packing
# ---------------------------------------------------------------------------


def test_swiss_cheese_frozen_schedule():
    s = swiss_cheese(3)
    assert s.growth == 26
    assert s.keep_fraction == Fraction(26, 27)
    assert s.radii[0] == Fraction(1, 2)
    assert s.radii[1] == 27 - Fraction(1, 2)
    assert s.radii[2] == 27**2 - Fraction(1, 2)
    assert s.counts[0] == 1
    assert s.counts[1] == 729
    assert s.counts[2] == 26 * 27**4
    assert all(isinstance(c, int) for c in s.counts)
    assert s.depth == 3


def test_swiss_cheese_exact_leftover_identity():
    s = swiss_cheese(4)
    gamma = s.keep_fraction
    for bigk in (1, 2, 4):
        occupied = sum(
            s.counts[bigk - j] * s.radii[j] ** 3 for j in range(bigk)
        )
        vol = s.radii[bigk] ** 3
        assert s.leftover_ratios[bigk] == (vol - occupied) / (gamma**bigk * vol)
        assert s.leftover_ratios[bigk] > 0


def test_swiss_cheese_ratios_two_sided_bounded():
    s = swiss_cheese(12)
    for bigk in range(2, 13):
        assert Fraction(1, 50) <= s.leftover_ratios[bigk] <= 50
        assert Fraction(1, 50) <= s.perimeter_ratios[bigk] <= 50


def test_swiss_cheese_validates_inputs():
    with pytest.raises(ValueError):
        swiss_cheese(0)
    with pytest.raises(ValueError):
        swiss_cheese(15)
    with pytest.raises(ValueError):
        swiss_cheese(3, growth=1)


# ---------------------------------------------------------------------------
# averaged-sequence limit
# ---------------------------------------------------------------------------


def test_recursion_limit_geometric_example():
    gamma, c, n = 0.5, 3.0, 30
    values = np.full(n, c)
    allowances = c * gamma ** np.arange(n)
    cert = recursion_limit(values, gamma, allowances)
    # constant sequences have increments c * gamma^K exactly
    np.testing.assert_allclose(cert.increments, allowances, rtol=1e-12)
    assert cert.slack.min() >= -1e-12
    assert cert.limit == pytest.approx(c * (1.0 - gamma**n), rel=1e-12)
    assert cert.tail_bound < 1e-8
    assert cert.horizon == n - 1  # largest certified index


def test_recursion_limit_converging_sequence():
    gamma = 0.75
    n = 40
    target = -2.0
    values = target * (1.0 - gamma ** np.arange(1, n + 1))
    allowances = np.full(n, 1.0)
    cert = recursion_limit(values, gamma, allowances)
    assert cert.limit == pytest.approx(target, abs=1e-3)


def test_recursion_limit_detects_violation():
    values = [0.0, 0.0, 0.0, 10.0]
    allowances = [1.0, 1.0, 1.0, 1.0]
    with pytest.raises(ValueError, match="index 3"):
        recursion_limit(values, 0.5, allowances)


def test_recursion_limit_validates_inputs():
    with pytest.raises(ValueError):
        recursion_limit([1.0, 2.0], 1.5, [1.0, 1.0])
    with pytest.raises(ValueError):
        recursion_limit([1.0], 0.5, [1.0])
    with pytest.raises(ValueError):
        recursion_limit([1.0, 2.0], 0.5, [1.0])
