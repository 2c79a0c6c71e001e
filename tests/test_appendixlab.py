"""Boundary screening layers, ball-packing schedules, averaged limits."""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from liqdrop.appendixlab import (
    _HOST_REACH,
    _classify_subcells,
    _enumerate_layer_tiles,
    _host_windows,
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
    # at the densest background 93 boundary subcells are refused by every
    # host among their 48 nearest tiles and are placed farther out, still
    # inside their three-tile window; the digests pin which host receives
    # every subcell
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
    # an off-center cube at a dense background: 537 boundary subcells are
    # refused by every host of their window and go on through all the other
    # pool tiles in the exact order; the digests pin which host receives
    # every subcell
    layer = quadrupole_layer(Cube(side=1.6, center=(0.02, 0.01, -0.03)), 0.1, 5, 0.45)
    assert len(layer) == 92124
    assert layer.counts() == {"merged": 1991, "exterior-cube": 888, "subcell": 89245}
    digests = {
        name: hashlib.sha256(getattr(layer, name)().tobytes()).hexdigest()
        for name in ("volumes", "dipoles", "containment_margins")
    }
    assert digests == {
        "volumes": "555880f6be9660dbf255c368f725fc083014c4ab8d6266b124dc09358a8af79e",
        "dipoles": "4feb1163add308391258a3844e05914c27fe67c0c8670381f3064a8b64b81fad",
        "containment_margins": (
            "2b74e402d9898e428cf634732852738cde6c2ef170da9a46932bf9d086501967"
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


def _exact_gaps(pool, key, k):
    """Squared box distance from the subcell ``key`` to every pool tile, in
    units of (eps / (2k))^2, from doubled integer coordinates: the subcell
    center is 2 key + 1 - k, a tile center 2k z, and the half sides sum to
    k + 1."""
    sq = 0
    for axis in range(3):
        g = np.abs(2 * k * pool[:, axis] - (2 * key[axis] + 1 - k)) - (k + 1)
        sq = sq + np.maximum(g, 0) ** 2
    return sq


@pytest.mark.parametrize(
    "domain, eps, subdiv",
    [
        (Ball(radius=2.0, center=(0.0, 0.0, 0.0)), 0.25, 8),  # quadlayer default
        (Cube(side=3.1, center=(0.2, 0.1, -0.13)), 0.19, 5),
        (Ball(radius=1.3, center=(0.11, -0.07, 0.05)), 0.16, 6),
    ],
)
def test_walk_order_is_the_exact_box_distance_order(domain, eps, subdiv):
    # each subcell walks the window of its class; the pool tiles it meets,
    # in walk order, must be the start of a brute-force sort of all pool
    # tiles by exact box distance and tile index, and the window must hold
    # every pool tile below its cut.  The order depends on the geometry
    # only, not on the background fraction.
    k = subdiv
    pool, _, boundary = _enumerate_layer_tiles(domain, eps)
    _, bnd_keys = _classify_subcells(domain, boundary, eps, k)
    index = {tuple(t): i for i, t in enumerate(pool.tolist())}
    offsets, gaps, cut = _host_windows(k, _HOST_REACH)
    walked = 0
    for key in bnd_keys[:: max(1, len(bnd_keys) // 400)]:
        z, m = key // k, key % k
        c = (m[0] * k + m[1]) * k + m[2]
        window = offsets[c][gaps[c] < cut[c]]
        walk = [index[t] for t in map(tuple, (z + window).tolist()) if t in index]
        sq = _exact_gaps(pool, key, k)
        brute = np.lexsort((np.arange(len(pool)), sq))
        assert walk == [i for i in brute.tolist() if sq[i] < cut[c]]
        far = np.abs(pool - z).max(axis=1) > _HOST_REACH
        assert np.all(sq[far] >= cut[c])
        walked += len(walk) > 0
    assert walked > 300  # most subcells find a pool tile in their window


def _greedy_members(domain, eps, k, rho):
    """Test-local host assignment: every subcell ranks all pool tiles by
    exact box distance, ties by index; subcells go in order of their
    nearest pool tile's distance, ties by subcell order, and join the
    first host whose inner cube stays inside with the layer's reserve."""
    pool, _, boundary = _enumerate_layer_tiles(domain, eps)
    _, keys = _classify_subcells(domain, boundary, eps, k)
    pool = np.asfortranarray(pool)  # contiguous columns for _exact_gaps
    n = len(pool)
    nearest = [_exact_gaps(pool, key, k).min() for key in keys]
    sched = np.lexsort((np.arange(len(keys)), nearest))
    centers = _subcell_center(keys, eps, k).tolist()
    tiles = (eps * pool.astype(float)).tolist()
    cell_vol, tile_vol = (eps / k) ** 3, eps**3
    count, moment = [0] * n, [[0.0, 0.0, 0.0] for _ in range(n)]
    members = [[] for _ in range(n)]
    for s in sched.tolist():
        for i in np.sort(_exact_gaps(pool, keys[s], k) * n + np.arange(n)) % n:
            off = [p - t for p, t in zip(centers[s], tiles[i])]
            vol = tile_vol + (count[i] + 1) * cell_vol
            w = cell_vol / vol
            shift = max(abs((a + o) * w) for a, o in zip(moment[i], off))
            if eps / 2.0 - shift - (rho * vol) ** (1.0 / 3.0) / 2.0 >= 1e-3 * eps:
                count[i] += 1
                moment[i] = [a + o for a, o in zip(moment[i], off)]
                members[i].append(s)
                break
        else:
            raise AssertionError(f"subcell {s} found no host")
    return pool, keys, members


def test_layer_matches_a_test_local_greedy():
    # a small non-dyadic layer where 24 subcells exhaust their window: the
    # brute-force greedy puts every subcell in the same host as the layer
    domain, eps, k, rho = Ball(radius=0.6, center=(0.03, 0.02, -0.01)), 0.07, 3, 0.2
    layer = quadrupole_layer(domain, eps, k, rho)
    pool, keys, members = _greedy_members(domain, eps, k, rho)
    index = {tuple(t): i for i, t in enumerate(pool.tolist())}
    ptr = layer._host_sub_ptr
    assert sum(map(len, members)) == ptr[-1] == len(keys)
    for h, z in enumerate(layer._host_index.tolist()):
        got = layer._host_sub_centers[ptr[h] : ptr[h + 1]]
        want = _subcell_center(keys[sorted(members[index[tuple(z)]])], eps, k)
        assert got.tobytes() == want.tobytes()


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


def test_non_finite_tile_size_is_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tile size must be positive"):
                quadrupole_layer(Ball(radius=2.0), eps, 8, 0.3)


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
