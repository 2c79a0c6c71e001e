"""Geometry layer: Bravais lattices, reference domains, ball unions, voxel sets.

Everything downstream (lattice sums, droplet energies, localization checks)
consumes these types.  Conventions used throughout the package:

* lattice bases are row matrices, ``basis[i]`` is the i-th primitive vector;
* domains are closed subsets of R^3 with closed-form volume and diameter;
* voxel sets sample membership at cell centers on a uniform grid of pitch ``h``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Lattice",
    "make_lattice",
    "lattice_vectors",
    "Cube",
    "Ball",
    "Tetrahedron",
    "regular_tetrahedron",
    "sample_in_domain",
    "BallUnion",
    "VoxelSet",
    "voxelize",
    "voxelize_domain",
]


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

_DUAL_KIND = {"sc": "sc", "bcc": "fcc", "fcc": "bcc"}


@dataclass(frozen=True)
class Lattice:
    """Bravais lattice given by a primitive row basis and its point density.

    ``density * |det(basis)| == 1`` for a primitive basis; the constructor
    validates this so scaled or hand-built bases cannot drift out of sync.
    """

    basis: np.ndarray
    density: float
    kind: str = "custom"

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float).reshape(3, 3)
        object.__setattr__(self, "basis", b)
        vol = abs(np.linalg.det(b))
        if vol <= 0.0:
            raise ValueError("degenerate lattice basis")
        if not np.isclose(self.density * vol, 1.0, rtol=1e-12, atol=1e-12):
            raise ValueError(
                f"density {self.density} inconsistent with cell volume {vol}"
            )

    @property
    def covolume(self) -> float:
        return abs(np.linalg.det(self.basis))

    def dual(self) -> "Lattice":
        """Reciprocal lattice without the 2*pi factor: ``b_i . d_j = delta_ij``."""
        dbasis = np.linalg.inv(self.basis).T
        return Lattice(
            basis=dbasis,
            density=abs(np.linalg.det(self.basis)),
            kind=_DUAL_KIND.get(self.kind, f"dual-{self.kind}"),
        )


def make_lattice(kind: str, density: float = 1.0) -> Lattice:
    """Construct sc/bcc/fcc lattices at a prescribed point density.

    The bcc and fcc bases are the standard primitive triples built from the
    conventional cube of side ``a`` holding 2 resp. 4 lattice points.
    """
    kind = kind.lower()
    if density <= 0.0:
        raise ValueError("density must be positive")
    if kind == "sc":
        a = density ** (-1.0 / 3.0)
        basis = a * np.eye(3)
    elif kind == "bcc":
        a = (2.0 / density) ** (1.0 / 3.0)
        basis = (a / 2.0) * np.array(
            [[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]]
        )
    elif kind == "fcc":
        a = (4.0 / density) ** (1.0 / 3.0)
        basis = (a / 2.0) * np.array(
            [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        )
    else:
        raise ValueError(f"unknown lattice kind {kind!r}")
    return Lattice(basis=basis, density=density, kind=kind)


def lattice_vectors(lattice: Lattice, rmax: float):
    """All nonzero lattice vectors with euclidean norm <= rmax, as an (M, 3)
    array.

    Integer ranges follow from the dual basis: the coefficient of a vector v
    along primitive direction i is ``v . d_i``, bounded by ``rmax * |d_i|``.
    """
    b = lattice.basis
    dual = np.linalg.inv(b).T
    bounds = np.floor(rmax * np.linalg.norm(dual, axis=1) + 1e-9).astype(int)
    ax = [np.arange(-m, m + 1) for m in bounds]
    grid = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 3)
    vecs = grid @ b
    norms = np.linalg.norm(vecs, axis=1)
    keep = (norms <= rmax * (1.0 + 1e-12)) & (norms > 0.0)
    return vecs[keep]


# ---------------------------------------------------------------------------
# reference domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube of side ``side`` centered at ``center``."""

    side: float
    center: tuple = (0.0, 0.0, 0.0)

    @property
    def volume(self) -> float:
        return self.side**3

    @property
    def diameter(self) -> float:
        return self.side * np.sqrt(3.0)

    def contains(self, pts) -> np.ndarray:
        pts = np.atleast_2d(pts)
        d = np.abs(pts - np.asarray(self.center)) - self.side / 2.0
        return np.all(d <= 1e-12, axis=1)

    def inner_distance(self, pts) -> np.ndarray:
        """Distance to the boundary, positive inside, negative outside."""
        pts = np.atleast_2d(pts)
        d = self.side / 2.0 - np.abs(pts - np.asarray(self.center))
        return d.min(axis=1)


@dataclass(frozen=True)
class Ball:
    radius: float
    center: tuple = (0.0, 0.0, 0.0)

    @property
    def volume(self) -> float:
        return 4.0 * np.pi * self.radius**3 / 3.0

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, pts) -> np.ndarray:
        pts = np.atleast_2d(pts)
        r = np.linalg.norm(pts - np.asarray(self.center), axis=1)
        return r <= self.radius + 1e-12

    def inner_distance(self, pts) -> np.ndarray:
        pts = np.atleast_2d(pts)
        r = np.linalg.norm(pts - np.asarray(self.center), axis=1)
        return self.radius - r


@dataclass(frozen=True)
class Tetrahedron:
    """Tetrahedron from four vertices (rows of a (4, 3) array)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(4, 3)
        object.__setattr__(self, "vertices", v)
        if self.volume <= 0.0:
            raise ValueError("degenerate tetrahedron")

    @property
    def volume(self) -> float:
        v = self.vertices
        return abs(np.linalg.det(v[1:] - v[0])) / 6.0

    @property
    def diameter(self) -> float:
        v = self.vertices
        d = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=-1)
        return float(d.max())

    def face_planes(self):
        """Inward unit normals and offsets: x inside iff n.x >= off for all faces."""
        v = self.vertices
        normals = np.empty((4, 3))
        offsets = np.empty(4)
        idx = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
        for i, (a, b, c) in enumerate(idx):
            n = np.cross(v[b] - v[a], v[c] - v[a])
            n = n / np.linalg.norm(n)
            off = n @ v[a]
            if n @ v[i] < off:  # orient towards the opposite vertex
                n, off = -n, -off
            normals[i], offsets[i] = n, off
        return normals, offsets

    def contains(self, pts) -> np.ndarray:
        pts = np.atleast_2d(pts)
        n, off = self.face_planes()
        return np.all(pts @ n.T - off >= -1e-12, axis=1)

    def inner_distance(self, pts) -> np.ndarray:
        pts = np.atleast_2d(pts)
        n, off = self.face_planes()
        return (pts @ n.T - off).min(axis=1)

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)


def regular_tetrahedron(volume: float = 1.0, center=(0.0, 0.0, 0.0)) -> Tetrahedron:
    """Regular tetrahedron of the requested volume, centroid at ``center``.

    Built on alternating cube corners; a regular tetrahedron of edge e has
    volume e^3 / (6 sqrt(2)), so unit volume means e = (6 sqrt(2))^(1/3).
    """
    corners = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    edge = (6.0 * np.sqrt(2.0) * volume) ** (1.0 / 3.0)
    verts = corners * (edge / (2.0 * np.sqrt(2.0))) + np.asarray(center)
    return Tetrahedron(vertices=verts)


def sample_in_domain(rng, domain, n: int) -> np.ndarray:
    """n uniform points in a Tetrahedron, Ball or Cube, by rejection from its
    bounding box in batches of 4 n + 16 draws of ``rng``.  Raises
    ``ValueError`` when that box is empty, which no draw could fill, and
    ``TypeError`` for any other domain type."""
    if isinstance(domain, Tetrahedron):
        lo = domain.vertices.min(axis=0)
        hi = domain.vertices.max(axis=0)
    elif isinstance(domain, Ball):
        c = np.asarray(domain.center)
        lo, hi = c - domain.radius, c + domain.radius
    elif isinstance(domain, Cube):
        c = np.asarray(domain.center)
        lo, hi = c - domain.side / 2.0, c + domain.side / 2.0
    else:
        raise TypeError(f"cannot sample from a {type(domain).__name__}")
    if not np.all(lo <= hi):
        raise ValueError(f"cannot sample from a domain with empty bounding box: {domain}")
    out = np.empty((0, 3))
    while len(out) < n:
        cand = rng.random((4 * n + 16, 3)) * (hi - lo) + lo
        out = np.concatenate([out, cand[domain.contains(cand)]])
    return out[:n]


# ---------------------------------------------------------------------------
# ball unions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallUnion:
    """Finite union of pairwise disjoint closed balls."""

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float).reshape(-1, 3)
        r = np.asarray(self.radii, dtype=float).reshape(-1)
        if len(c) != len(r):
            raise ValueError("centers and radii length mismatch")
        if np.any(r <= 0.0):
            raise ValueError("radii must be positive")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)
        if len(c) > 1:
            d = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=-1)
            need = r[:, None] + r[None, :]
            np.fill_diagonal(d, np.inf)
            if np.any(d < need - 1e-9):
                raise ValueError("balls overlap")

    def __len__(self) -> int:
        return len(self.radii)

    @property
    def volume(self) -> float:
        return float(np.sum(4.0 * np.pi * self.radii**3 / 3.0))

    @property
    def perimeter(self) -> float:
        # exact for disjoint balls
        return float(np.sum(4.0 * np.pi * self.radii**2))

    def contains(self, pts) -> np.ndarray:
        pts = np.atleast_2d(pts)
        d = np.linalg.norm(pts[:, None, :] - self.centers[None, :, :], axis=-1)
        return np.any(d <= self.radii[None, :] + 1e-12, axis=1)

    def bounding_box(self):
        lo = (self.centers - self.radii[:, None]).min(axis=0)
        hi = (self.centers + self.radii[:, None]).max(axis=0)
        return lo, hi


# ---------------------------------------------------------------------------
# voxel sets
# ---------------------------------------------------------------------------

# unit offsets used by the line-intercept perimeter estimator: 3 axis,
# 6 face-diagonal and 4 body-diagonal directions (13 up to sign)
_CROFTON_DIRS = np.array(
    [
        [1, 0, 0], [0, 1, 0], [0, 0, 1],
        [1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1], [0, 1, 1], [0, 1, -1],
        [1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1],
    ],
    dtype=int,
)


@dataclass
class VoxelSet:
    """Occupancy grid: cell (i,j,k) spans origin + h*([i,i+1] x ... x [k,k+1])."""

    h: float
    origin: np.ndarray
    occ: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        self.occ = np.asarray(self.occ, dtype=bool)
        if self.occ.ndim != 3:
            raise ValueError("occupancy must be a 3d array")

    @property
    def measure(self) -> float:
        return float(self.occ.sum()) * self.h**3

    def centers(self) -> np.ndarray:
        """(M, 3) coordinates of occupied cell centers."""
        idx = np.argwhere(self.occ)
        return self.origin + (idx + 0.5) * self.h

    def perimeter(self) -> float:
        """Surface area estimate: line-intercept counts averaged over the 13
        lattice directions (Crofton).  It is unbiased for isotropic shapes
        (spheres) and carries a known few-percent anisotropy bias for
        polyhedra.
        """
        occ = np.pad(self.occ, 1, constant_values=False)
        acc = 0.0
        for v in _CROFTON_DIRS:
            shifted = occ
            for ax, s in enumerate(v):
                if s:
                    shifted = np.roll(shifted, -int(s), axis=ax)
            crossings = int(np.count_nonzero(occ != shifted))
            acc += crossings * self.h**2 / np.linalg.norm(v)
        # S = 2 * mean_d integral |n.u| dS with equal weights over directions
        return 2.0 * acc / len(_CROFTON_DIRS)


def voxelize(balls: BallUnion, h: float) -> VoxelSet:
    """Voxelize a ball union by cell-center membership, on a grid padded by
    at least 2 empty cells on each side."""
    lo, hi = balls.bounding_box()
    origin = np.floor(lo / h).astype(int) * h - 2 * h
    n = np.ceil((hi - origin) / h).astype(int) + 2
    ii = [origin[k] + (np.arange(n[k]) + 0.5) * h for k in range(3)]
    x, y, z = np.meshgrid(*ii, indexing="ij")
    pts = np.stack([x, y, z], axis=-1).reshape(-1, 3)
    occ = balls.contains(pts).reshape(tuple(n))
    return VoxelSet(h=h, origin=origin, occ=occ)


def voxelize_domain(domain, h: float) -> VoxelSet:
    """Voxelize a cube/ball/tetra domain by cell-center membership.

    For an axis-aligned ``Cube`` the grid starts at the cube's lower corner;
    when the side is an integer multiple of ``h`` the voxel set represents
    the cube exactly, otherwise the cell count is rounded up.  Balls and
    tetrahedra get a centered grid of ceil(diameter / h) + 2 cells per axis.
    """
    if isinstance(domain, Cube):
        c = np.asarray(domain.center)
        origin = c - domain.side / 2.0
        n = int(round(domain.side / h))
        if not np.isclose(n * h, domain.side, rtol=0, atol=1e-9 * h):
            n = int(np.ceil(domain.side / h - 1e-12))
    else:
        if isinstance(domain, Tetrahedron):
            c = domain.centroid()
        else:
            c = np.asarray(domain.center)
        n = int(np.ceil(domain.diameter / h)) + 2
        origin = c - n * h / 2.0
    origin = np.asarray(origin, dtype=float)
    ii = [origin[k] + (np.arange(n) + 0.5) * h for k in range(3)]
    if isinstance(domain, Cube):
        # Cube.contains tests |x_k - c_k| - side/2 <= 1e-12 on each axis, so
        # the occupancy is the outer AND of one mask per axis
        inside = [np.abs(ii[k] - c[k]) - domain.side / 2.0 <= 1e-12 for k in range(3)]
        occ = inside[0][:, None, None] & inside[1][:, None] & inside[2]
    else:
        x, y, z = np.meshgrid(*ii, indexing="ij")
        pts = np.stack([x, y, z], axis=-1).reshape(-1, 3)
        occ = domain.contains(pts).reshape((n, n, n))
    return VoxelSet(h=h, origin=origin, occ=occ)
