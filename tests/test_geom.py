"""Geometry layer: lattices, domains, ball unions, voxel sets."""

import math

import numpy as np
import pytest

from liqdrop.geom import (
    Ball,
    BallUnion,
    Cube,
    Lattice,
    lattice_vectors,
    make_lattice,
    regular_tetrahedron,
    sample_in_domain,
    voxelize,
    voxelize_domain,
)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["sc", "bcc", "fcc"])
@pytest.mark.parametrize("density", [1.0, 0.37, 8.0])
def test_lattice_density_matches_covolume(kind, density):
    lat = make_lattice(kind, density)
    assert lat.kind == kind
    assert lat.covolume * density == pytest.approx(1.0, rel=1e-14)


def test_lattice_rejects_inconsistent_density():
    with pytest.raises(ValueError):
        Lattice(basis=np.eye(3), density=2.0)
    with pytest.raises(ValueError):
        Lattice(basis=np.zeros((3, 3)), density=1.0)
    with pytest.raises(ValueError):
        make_lattice("hexagonal")
    with pytest.raises(ValueError):
        make_lattice("sc", density=-1.0)


def test_dual_lattice_pairing_and_kinds():
    for kind, dual_kind in (("sc", "sc"), ("bcc", "fcc"), ("fcc", "bcc")):
        lat = make_lattice(kind, density=0.7)
        dual = lat.dual()
        assert dual.kind == dual_kind
        # defining property: b_i . d_j = delta_ij
        np.testing.assert_allclose(
            lat.basis @ dual.basis.T, np.eye(3), atol=1e-13
        )
        # double dual restores the original basis
        np.testing.assert_allclose(dual.dual().basis, lat.basis, atol=1e-13)
        assert dual.density == pytest.approx(lat.covolume, rel=1e-13)


def test_lattice_vectors_sc_shell_count():
    lat = make_lattice("sc", 1.0)
    vecs = lattice_vectors(lat, 2.0)
    # integer points with 0 < |v| <= 2: 6 + 12 + 8 + 6
    assert len(vecs) == 32
    norms = np.linalg.norm(vecs, axis=1)
    assert norms.max() <= 2.0 + 1e-12
    assert norms.min() > 0.0


def test_lattice_vectors_respects_basis():
    lat = make_lattice("bcc", 2.0)  # conventional cube side 1
    vecs = lattice_vectors(lat, 0.9)
    # nearest-neighbor shell of bcc: 8 vectors of length sqrt(3)/2
    assert len(vecs) == 8
    np.testing.assert_allclose(
        np.linalg.norm(vecs, axis=1), math.sqrt(3.0) / 2.0, rtol=1e-12
    )


# ---------------------------------------------------------------------------
# reference domains
# ---------------------------------------------------------------------------


def test_cube_measures_and_membership():
    c = Cube(side=2.0, center=(1.0, 0.0, 0.0))
    assert c.volume == pytest.approx(8.0)
    assert c.diameter == pytest.approx(2.0 * math.sqrt(3.0))
    assert c.contains([(1.0, 0.0, 0.0)])[0]
    assert c.contains([(2.0, 1.0, 1.0)])[0]  # corner, closed set
    assert not c.contains([(2.1, 0.0, 0.0)])[0]
    # the centre lies half a side from every face
    margin = c.side / 2.0 - np.abs(np.subtract((1.0, 0.0, 0.0), c.center)).max()
    assert margin == pytest.approx(1.0)


def test_ball_measures_and_membership():
    b = Ball(radius=1.5, center=(0.0, -1.0, 0.0))
    assert b.volume == pytest.approx(4.0 * math.pi / 3.0 * 1.5**3)
    assert b.diameter == pytest.approx(3.0)
    assert b.contains([(0.0, 0.5, 0.0)])[0]
    assert not b.contains([(0.0, 0.51, 0.0)])[0]
    margin = b.radius - np.linalg.norm(np.subtract((0.0, -1.0, 0.0), b.center))
    assert margin == pytest.approx(1.5)


def test_regular_tetrahedron_volume_and_planes():
    for vol in (1.0, 3.0):
        t = regular_tetrahedron(volume=vol, center=(0.2, 0.0, -0.1))
        assert t.volume == pytest.approx(vol, rel=1e-12)
        centroid = t.vertices.mean(axis=0)
        np.testing.assert_allclose(centroid, (0.2, 0.0, -0.1), atol=1e-12)
        assert t.contains([centroid])[0]
        # all four vertices lie on the closed boundary
        assert t.contains(t.vertices).all()
        assert not t.contains([centroid + 10.0])[0]
        # centroid depth is positive, vertices have zero depth on one face
        n, off = t.face_planes()
        assert (centroid @ n.T - off).min() > 0.0
        assert (t.vertices @ n.T - off).min(axis=1).max() < 1e-10


# ---------------------------------------------------------------------------
# ball unions
# ---------------------------------------------------------------------------


def test_ball_union_measures():
    u = BallUnion(
        centers=np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]),
        radii=np.array([1.0, 0.5]),
    )
    assert len(u) == 2
    assert u.volume == pytest.approx(4.0 * math.pi / 3.0 * (1.0 + 0.125))
    assert u.perimeter == pytest.approx(4.0 * math.pi * (1.0 + 0.25))
    assert u.contains([(0.5, 0.0, 0.0), (3.2, 0.0, 0.0)]).all()
    assert not u.contains([(1.8, 0.0, 0.0)])[0]
    lo, hi = u.bounding_box()
    np.testing.assert_allclose(lo, (-1.0, -1.0, -1.0))
    np.testing.assert_allclose(hi, (3.5, 1.0, 1.0))


def test_ball_union_rejects_overlap_and_bad_radii():
    with pytest.raises(ValueError):
        BallUnion(
            centers=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            radii=np.array([0.8, 0.8]),
        )
    with pytest.raises(ValueError):
        BallUnion(centers=np.zeros((1, 3)), radii=np.array([0.0]))


# ---------------------------------------------------------------------------
# voxel sets
# ---------------------------------------------------------------------------


def test_voxelize_ball_volume_and_perimeter():
    u = BallUnion(centers=np.zeros((1, 3)), radii=np.ones(1))
    v = voxelize(u, h=0.05)
    ball_vol = 4.0 * math.pi / 3.0
    assert v.measure == pytest.approx(ball_vol, rel=5e-3)
    # line-intercept estimator is unbiased for spheres
    assert v.perimeter() == pytest.approx(4.0 * math.pi, rel=2e-2)


def test_voxel_centers_roundtrip():
    c = Cube(side=1.0, center=(0.5, 0.5, 0.5))
    v = voxelize_domain(c, h=0.5)
    # a side that is a multiple of h gives the cube exactly
    assert v.measure == 1.0
    np.testing.assert_array_equal(v.origin, (0.0, 0.0, 0.0))
    pts = v.origin + (np.argwhere(v.occ) + 0.5) * v.h
    assert len(pts) == 8
    assert c.contains(pts).all()


@pytest.mark.parametrize(
    "cube, h, cells, inside",
    [
        (Cube(side=6.4), 0.05, 128, 128),
        # off-centre, with integer center coordinates
        (Cube(side=2.0, center=(1, 2, 3)), 0.1, 20, 20),
        # sides that are not a multiple of h: the cell count rounds up, and
        # the last layer's centers lie outside
        (Cube(side=1.37, center=(0.31, -0.7, 2.05)), 0.12, 12, 11),
        (Cube(side=6.4), 0.3, 22, 21),
    ],
)
def test_voxelize_cube_equals_membership_of_cell_centers(cube, h, cells, inside):
    v = voxelize_domain(cube, h)
    ii = [v.origin[k] + (np.arange(cells) + 0.5) * h for k in range(3)]
    x, y, z = np.meshgrid(*ii, indexing="ij")
    pts = np.stack([x, y, z], axis=-1).reshape(-1, 3)
    ref = cube.contains(pts).reshape((cells,) * 3)
    assert v.occ.shape == ref.shape
    assert v.occ.tobytes() == ref.tobytes()
    assert v.occ.sum() == inside**3


def test_voxelize_domain_takes_a_cube_only():
    # a ball droplet is voxelized as a one-ball union by voxelize
    for domain in (Ball(radius=1.0), regular_tetrahedron(1.0)):
        with pytest.raises(TypeError, match=type(domain).__name__):
            voxelize_domain(domain, 0.25)


def test_sample_in_domain_rejects_empty_bounding_box():
    # rejection from an empty box never accepts a draw; it used to loop forever
    rng = np.random.default_rng(0)
    for domain in (Cube(side=-1.0), Ball(radius=-0.5, center=(1.0, 0.0, 0.0))):
        with pytest.raises(ValueError, match="empty bounding box"):
            sample_in_domain(rng, domain, 3)
    # a degenerate but nonempty box still yields its one point
    assert np.array_equal(sample_in_domain(rng, Cube(side=0.0), 2), np.zeros((2, 3)))


def test_sample_in_domain_rejects_other_domain_types():
    # a ball union has no single centre or side to bound the draws by
    union = BallUnion(centers=np.zeros((1, 3)), radii=np.array([1.0]))
    with pytest.raises(TypeError, match="BallUnion"):
        sample_in_domain(np.random.default_rng(0), union, 3)
