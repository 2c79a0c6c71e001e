"""Boundary screening layers, ball-packing schedules, and averaged limits.

Three constructions that control how a finite sample interacts with the rest
of space:

* :func:`quadrupole_layer` tiles the outer neighborhood of a ball or cube
  with disjoint axis-aligned cube unions and places inside each one a smaller
  cube whose volume restores local neutrality and whose position kills the
  dipole moment, so the leftover potential of every piece decays like a
  quadrupole (``1/r^3``) or faster.
* :func:`swiss_cheese` evaluates the exact radius/count schedule for packing
  a large ball with exponentially growing families of smaller balls, together
  with the leftover-volume and surface-area ratios that make the packing
  useful.
* :func:`recursion_limit` certifies the limit of a sequence that is almost
  superaveraged against its own geometric history, returning the limit value
  and the per-index slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from liqdrop.coulomb import potential_box
from liqdrop.geom import Ball, Cube

__all__ = [
    "LayerPiece",
    "BoundaryLayer",
    "quadrupole_layer",
    "PackingSchedule",
    "swiss_cheese",
    "RecursionLimitCertificate",
    "recursion_limit",
]


# ---------------------------------------------------------------------------
# box/domain classification helpers
# ---------------------------------------------------------------------------


def _lexsort_rows(a: np.ndarray) -> np.ndarray:
    """Row order sorting an integer array lexicographically (x, then y, then z)."""
    return np.lexsort((a[:, 2], a[:, 1], a[:, 0]))


def _box_domain_relation(domain, centers: np.ndarray, half: float):
    """Classify axis-aligned boxes of half-width ``half`` against ``domain``.

    Returns ``(outside, meets, dist)`` where ``outside`` marks boxes disjoint
    from the closed domain, ``meets`` marks boxes intersecting the boundary,
    and ``dist`` is the Euclidean distance from the (closed) box to the
    boundary surface (zero for boxes that meet it).
    """
    c = np.asarray(domain.center, dtype=float)
    off = np.abs(centers - c)
    # boxes that merely touch the domain's closure (zero-volume overlap)
    # count as outside, so grid-aligned flat boundaries stay non-degenerate
    if isinstance(domain, Ball):
        r = domain.radius
        dmin = np.linalg.norm(np.maximum(off - half, 0.0), axis=1)
        dmax = np.linalg.norm(off + half, axis=1)
        outside = dmin >= r
        inside = dmax <= r
        dist = np.where(outside, dmin - r, np.where(inside, r - dmax, 0.0))
        return outside, ~outside & ~inside, dist
    if isinstance(domain, Cube):
        hs = domain.side / 2.0
        gap = off - half - hs
        outside = np.any(gap >= 0.0, axis=1)
        inside = np.all(off + half <= hs, axis=1)
        d_out = np.linalg.norm(np.maximum(gap, 0.0), axis=1)
        d_in = hs - (off + half).max(axis=1)
        dist = np.where(outside, d_out, np.where(inside & ~outside, d_in, 0.0))
        return outside, ~outside & ~inside, dist
    raise TypeError("domain must be a Ball or a Cube")


def _regularity_scale(domain) -> float:
    """Largest tile size the construction accepts for this domain."""
    if isinstance(domain, Ball):
        return domain.radius / 8.0
    if isinstance(domain, Cube):
        return domain.side / 16.0
    raise TypeError("domain must be a Ball or a Cube")


# ---------------------------------------------------------------------------
# layer pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerPiece:
    """One neutral, dipole-free piece of a boundary layer.

    The support is a union of axis-aligned boxes (``box_lo[i]..box_hi[i]``);
    the first box of a merged piece is its host cube.  ``inner_center`` and
    ``inner_side`` describe the smaller cube placed inside the host so that
    the signed density (inner cube minus ``background_fraction`` times the
    support) carries zero total charge and zero dipole moment.
    """

    kind: str  # "subcell" | "exterior-cube" | "merged"
    key: tuple
    box_lo: np.ndarray
    box_hi: np.ndarray
    inner_center: np.ndarray
    inner_side: float
    background_fraction: float
    tile_size: float


class BoundaryLayer:
    """Decomposition of a domain's outer cube layer into neutral pieces.

    Behaves as a read-only sequence of :class:`LayerPiece`.  Bulk vectorized
    diagnostics (:meth:`charges`, :meth:`dipoles`, ...) cover all pieces at
    once; individual pieces are materialized lazily on indexing.

    Piece order: pieces hosted by fully-exterior tiles first (sorted
    lexicographically by tile index; merged and plain exterior cubes
    interleaved), then the fully-exterior subcells of boundary tiles (sorted
    by subcell index).

    :func:`quadrupole_layer` fixes every per-host array at build time: tile
    indices, the merged subcell centers with their CSR pointers, support
    volumes, first moments, inner-cube centers and sides, the inner-cube
    displacement from the tile center and the containment margin.  Subcell
    pieces are fixed by their integer keys and one common inner side.  The
    bulk accessors only concatenate these arrays with the subcell values
    and combine them elementwise; nothing is recomputed from the pieces.
    """

    def __init__(
        self, domain, eps, subdiv, rho, *, host_index, host_sub_centers,
        host_sub_ptr, host_volumes, host_moments, host_inner_center,
        host_inner_side, host_shift, host_margins, sub_index,
    ):
        self.domain = domain
        self.eps = float(eps)
        self.subdiv = int(subdiv)
        self.rho = float(rho)
        self._host_index = host_index  # (nh, 3) int, lex sorted
        self._host_sub_centers = host_sub_centers  # (M, 3) merged subcell centers
        self._host_sub_ptr = host_sub_ptr  # (nh+1,) CSR pointers into the above
        self._host_volumes = host_volumes  # (nh,)
        self._host_moments = host_moments  # (nh, 3) first moments of the support
        self._host_inner_center = host_inner_center  # (nh, 3)
        self._host_inner_side = host_inner_side  # (nh,)
        self._host_shift = host_shift  # (nh,) max-norm inner-cube displacement
        self._host_margins = host_margins  # (nh,)
        self._sub_index = sub_index  # (ns, 3) int, lex sorted: exterior subcells
        self._sub_inner_side = self.rho ** (1.0 / 3.0) * self.eps / self.subdiv

    # -- sequence protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._host_index) + len(self._sub_index)

    def _host_piece(self, i: int) -> LayerPiece:
        eps, k, rho = self.eps, self.subdiv, self.rho
        z = self._host_index[i]
        c = eps * z.astype(float)
        lo, hi = self._host_sub_ptr[i], self._host_sub_ptr[i + 1]
        subc = self._host_sub_centers[lo:hi]
        half = np.full((1 + len(subc), 3), eps / 2.0)
        half[1:] = eps / (2.0 * k)
        cs = np.vstack([c[None, :], subc])
        kind = "merged" if len(subc) else "exterior-cube"
        return LayerPiece(
            kind=kind,
            key=tuple(int(v) for v in z),
            box_lo=cs - half,
            box_hi=cs + half,
            inner_center=self._host_inner_center[i].copy(),
            inner_side=float(self._host_inner_side[i]),
            background_fraction=rho,
            tile_size=eps,
        )

    def _sub_piece(self, i: int) -> LayerPiece:
        eps, k, rho = self.eps, self.subdiv, self.rho
        key = self._sub_index[i]
        c = _subcell_center(key, eps, k)
        h = eps / (2.0 * k)
        return LayerPiece(
            kind="subcell",
            key=tuple(int(v) for v in key),
            box_lo=(c - h)[None, :],
            box_hi=(c + h)[None, :],
            inner_center=c.copy(),
            inner_side=self._sub_inner_side,
            background_fraction=rho,
            tile_size=eps,
        )

    def __getitem__(self, i):
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("piece index out of range")
        nh = len(self._host_index)
        return self._host_piece(i) if i < nh else self._sub_piece(i - nh)

    # -- bulk diagnostics ---------------------------------------------------

    def counts(self) -> dict:
        nsub = np.diff(self._host_sub_ptr)
        merged = int((nsub > 0).sum())
        return {
            "merged": merged,
            "exterior-cube": len(self._host_index) - merged,
            "subcell": len(self._sub_index),
        }

    def kind_masks(self) -> dict:
        """A boolean mask over the pieces, in sequence order, for each kind."""
        merged = np.diff(self._host_sub_ptr) > 0
        no_sub = np.zeros(len(self._sub_index), dtype=bool)
        return {
            "merged": np.concatenate([merged, no_sub]),
            "exterior-cube": np.concatenate([~merged, no_sub]),
            "subcell": np.concatenate([np.zeros_like(merged), ~no_sub]),
        }

    def volumes(self) -> np.ndarray:
        """Support volume of every piece, in sequence order."""
        sub = np.full(len(self._sub_index), (self.eps / self.subdiv) ** 3)
        return np.concatenate([self._host_volumes, sub])

    def inner_sides(self) -> np.ndarray:
        sub = np.full(len(self._sub_index), self._sub_inner_side)
        return np.concatenate([self._host_inner_side, sub])

    def charges(self) -> np.ndarray:
        """Total signed charge of every piece (inner cube minus background)."""
        return self.inner_sides() ** 3 - self.rho * self.volumes()

    def dipoles(self) -> np.ndarray:
        """First moment of the signed density of every piece."""
        eps, k, rho = self.eps, self.subdiv, self.rho
        host = (
            self._host_inner_side[:, None] ** 3 * self._host_inner_center
            - rho * self._host_moments
        )
        c = _subcell_center(self._sub_index, eps, k)
        sub = (self._sub_inner_side**3 - rho * (eps / k) ** 3) * c
        return np.vstack([host, sub])

    def inner_perimeters(self) -> np.ndarray:
        return 6.0 * self.inner_sides() ** 2

    def perimeter_constant(self) -> float:
        """Smallest C with Per(inner cube) <= C rho^(2/3) eps^2 for all pieces."""
        return float(
            self.inner_perimeters().max() / (self.rho ** (2.0 / 3.0) * self.eps**2)
        )

    def containment_margins(self) -> np.ndarray:
        """Distance from each inner cube to its host tile's boundary (> 0)."""
        sub_margin = (1.0 - self.rho ** (1.0 / 3.0)) * self.eps / (2.0 * self.subdiv)
        return np.concatenate(
            [self._host_margins, np.full(len(self._sub_index), sub_margin)]
        )

    def com_shift_constant(self) -> float:
        """Max inner-cube displacement from its tile center in units of
        tile size over (subdivision + 1)."""
        if not len(self._host_shift):
            return 0.0
        return float(self._host_shift.max() * (self.subdiv + 1) / self.eps)

    def shell_volume(self) -> float:
        """Volume of the outer shell that provably contains every piece."""
        t = (1.0 + math.sqrt(3.0)) * self.eps
        if isinstance(self.domain, Ball):
            r = self.domain.radius
            return 4.0 * math.pi / 3.0 * ((r + t) ** 3 - r**3)
        s = self.domain.side
        return (s + 2.0 * t) ** 3 - s**3

    def piece_count_constant(self) -> float:
        """Piece count over (shell volume / tile volume)."""
        return len(self) * self.eps**3 / self.shell_volume()

    def total_volume(self) -> float:
        return float(self.volumes().sum())


def _subcell_center(key, eps: float, k: int) -> np.ndarray:
    """Center of the subcell with integer key ``k*z + m`` (m in [0, k)^3)."""
    key = np.asarray(key, dtype=float)
    return (eps / k) * (key + 0.5) - eps / 2.0


def _enumerate_layer_tiles(domain, eps: float):
    """Integer indices of layer and host tiles around the boundary.

    Returns ``(pool, pool_dist, boundary)``: fully-exterior tiles within
    three tile sizes of the domain (lexicographically sorted, with matching
    distances) and the boundary-crossing tiles.
    """
    pool_reach = 3.0 * eps
    c = np.asarray(domain.center, dtype=float)
    reach = domain.diameter / 2.0 + pool_reach + 1.5 * eps
    lo = np.floor((c - reach) / eps).astype(int)
    hi = np.ceil((c + reach) / eps).astype(int)
    axes = [np.arange(lo[i], hi[i] + 1) for i in range(3)]
    z = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    centers = eps * z.astype(float)
    outside, meets, dist = _box_domain_relation(domain, centers, eps / 2.0)
    pool_mask = outside & (dist <= pool_reach * (1.0 + 1e-12))
    pool = z[pool_mask]
    pool_dist = dist[pool_mask]
    order = _lexsort_rows(pool)
    boundary = z[meets]
    return pool[order], pool_dist[order], boundary[_lexsort_rows(boundary)]


def _classify_subcells(domain, boundary_tiles, eps: float, k: int):
    """Split boundary tiles into (eps/k)-subcells; classify each one.

    Returns ``(ext_keys, bnd_keys)``: integer keys ``k*z + m`` of subcells
    fully outside the closed domain and of subcells meeting the boundary.
    Tiles are classified in batches of about two million subcells.
    """
    m = np.stack(
        np.meshgrid(np.arange(k), np.arange(k), np.arange(k), indexing="ij"),
        axis=-1,
    ).reshape(-1, 3)
    ext_parts, bnd_parts = [], []
    tiles_per_batch = max(1, 2_000_000 // (k**3))
    for start in range(0, len(boundary_tiles), tiles_per_batch):
        zb = boundary_tiles[start : start + tiles_per_batch]
        keys = (k * zb[:, None, :] + m[None, :, :]).reshape(-1, 3)
        centers = _subcell_center(keys, eps, k)
        outside, meets, _ = _box_domain_relation(domain, centers, eps / (2.0 * k))
        ext_parts.append(keys[outside])
        bnd_parts.append(keys[meets])
    ext = np.vstack(ext_parts) if ext_parts else np.zeros((0, 3), dtype=int)
    bnd = np.vstack(bnd_parts) if bnd_parts else np.zeros((0, 3), dtype=int)
    return ext[_lexsort_rows(ext)], bnd[_lexsort_rows(bnd)]


# Chebyshev reach, in tiles, of the host window of every subcell class
_HOST_REACH = 3


def _axis_gaps(m, o, k: int):
    """Box gap, per axis and in units of eps / (2k), between a subcell of
    class ``m`` in tile ``z`` and the tile ``z + o``:
    ``max(|2m + 1 - k - 2ko| - (k + 1), 0)``, an even integer."""
    return np.where(
        o == 0, 0, 2 * k * (np.abs(o) - 1) + 2 * np.where(o < 0, m, k - 1 - m)
    )


def _host_windows(k: int, reach: int):
    """The first host window of every subcell class, in exact order.

    A subcell with key ``K`` lies in tile ``z = K // k`` and has class
    ``m = K - k z``; its box distance to tile ``z + o`` depends on ``(m, o)``
    only.  Returns ``(offsets, gaps, cut)``: per class (flattened
    ``(m0 k + m1) k + m2``), the offsets with ``|o|_inf <= reach`` sorted by
    squared integer gap, ties by lexicographic offset (= tile index); their
    squared gaps; and the cut, the smallest squared gap of any offset beyond
    the reach.  The window is the prefix with squared gaps strictly below
    the cut: no tile outside the reach can precede it.
    """
    o = np.arange(-reach, reach + 1)
    m = np.arange(k)
    g2 = _axis_gaps(m[:, None], o[None, :], k) ** 2  # (class coordinate, offset)
    sq = (
        g2[:, None, None, :, None, None]
        + g2[None, :, None, None, :, None]
        + g2[None, None, :, None, None, :]
    ).reshape(k**3, -1)
    order = np.argsort(sq, axis=1, kind="stable")  # offsets are lex ordered
    offsets = np.stack(np.meshgrid(o, o, o, indexing="ij"), axis=-1).reshape(-1, 3)
    # beyond the reach every axis gap grows with |o|, so the nearest outside
    # offset has |o|_inf = reach + 1 on one axis and 0 on the others
    near = np.minimum(m, k - 1 - m)
    mm = np.stack(np.meshgrid(near, near, near, indexing="ij"), axis=-1)
    cut = (2 * k * reach + 2 * mm.reshape(-1, 3).min(axis=1)) ** 2
    return offsets[order], np.take_along_axis(sq, order, axis=1), cut


def _assemble_hosts(
    pool_tiles: np.ndarray,
    sub_keys: np.ndarray,
    eps: float,
    k: int,
    rho: float,
):
    """Attach each boundary subcell to the nearest host tile that can still
    absorb it, keeping every inner cube strictly inside its host.

    Hosts are fully-exterior tiles, nearest preferred by distance between
    the closed boxes, ties by lexicographic tile index; a subcell spills
    over to the next-nearest host whenever the addition would push the
    host's inner cube out of its tile.  Returns the per-tile subcell counts
    and member lists.  Raises ``ValueError`` when a subcell cannot be placed
    at all (subdivision too coarse).

    The order is exact.  Per axis, the gap between a subcell of class ``m``
    (key ``K = k z + m``) and tile ``z + o`` is an integer in units of
    ``eps / (2k)`` (:func:`_axis_gaps`), so each class sorts its offsets
    within a Chebyshev reach of 3 tiles once, by (squared gap, offset), and
    cuts the list below the smallest squared gap beyond the reach.  Each
    subcell walks its class window, skipping tiles not in the pool.  Subcells
    are scheduled by the squared gap of their first pool tile, ties in
    lexicographic subcell order.  A subcell that every pool tile of its
    window refuses goes on with all the other pool tiles in the same order.
    """
    n_pool = len(pool_tiles)
    if n_pool == 0:
        raise ValueError(
            "no fully-exterior tile available to absorb boundary subcells; "
            "decrease the tile size"
        )
    count = [0] * n_pool
    members: list = [[] for _ in range(n_pool)]
    ns = len(sub_keys)
    if ns == 0:
        return count, members
    reserve = 1e-3 * eps
    half_eps = eps / 2.0
    cell_vol = (eps / k) ** 3
    tile_vol = eps**3
    tile_centers = eps * pool_tiles.astype(float)
    tx, ty, tz = (tile_centers[:, j].tolist() for j in range(3))
    mx, my, mz = [0.0] * n_pool, [0.0] * n_pool, [0.0] * n_pool
    # per host count c: the weight of the next subcell and the inner half
    # side once it joins, for the host volume tile_vol + (c + 1) cell_vol;
    # no host grows past the first count whose inner cube alone cannot fit
    weights: list = []
    halves: list = []
    for c in range(ns):
        vol = tile_vol + (c + 1) * cell_vol
        weights.append(cell_vol / vol)
        halves.append((rho * vol) ** (1.0 / 3.0) / 2.0)
        if half_eps - halves[c] < reserve:
            break

    def place(i, s: int, pt) -> bool:
        # add subcell s (center pt) to host i if its inner cube stays inside
        c = count[i]
        ox, oy, oz = pt[0] - tx[i], pt[1] - ty[i], pt[2] - tz[i]
        w = weights[c]
        shift = max(
            abs((mx[i] + ox) * w), abs((my[i] + oy) * w), abs((mz[i] + oz) * w)
        )
        if half_eps - shift - halves[c] >= reserve:
            count[i] = c + 1
            mx[i] += ox
            my[i] += oy
            mz[i] += oz
            members[i].append(s)
            return True
        return False

    tiles = sub_keys // k
    cls_m = sub_keys - k * tiles
    cls = (cls_m[:, 0] * k + cls_m[:, 1]) * k + cls_m[:, 2]
    offsets, gaps, cut = _host_windows(k, _HOST_REACH)
    lengths = (gaps < cut[:, None]).sum(axis=1)

    # pool index of every tile a window reaches (-1: not in the pool)
    lo = np.minimum(pool_tiles.min(axis=0), tiles.min(axis=0) - _HOST_REACH)
    hi = np.maximum(pool_tiles.max(axis=0), tiles.max(axis=0) + _HOST_REACH)
    shape = hi - lo + 1
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    grid = np.full(int(np.prod(shape)), -1, dtype=np.int32)
    grid[(pool_tiles - lo) @ strides] = np.arange(n_pool, dtype=np.int32)
    bases = (tiles - lo) @ strides
    flat = offsets @ strides

    # squared axis gap of class coordinate m to a tile d steps away, at
    # column d + span: every pool tile is within span steps of every subcell
    span = int(shape.max())
    d = np.arange(-span, span + 1)
    sq_table = _axis_gaps(np.arange(k)[:, None], d[None, :], k) ** 2
    pool_cols = (pool_tiles + span).T

    def beyond(s: int):
        # the pool tiles outside the window of s, in (squared gap, index)
        # order, sorted as the single key squared gap * n_pool + index
        z = sub_keys[s] // k
        m = sub_keys[s] - k * z
        sq = (
            sq_table[m[0], pool_cols[0] - z[0]]
            + sq_table[m[1], pool_cols[1] - z[1]]
            + sq_table[m[2], pool_cols[2] - z[2]]
        )
        c = (m[0] * k + m[1]) * k + m[2]
        keys = np.sort((sq * n_pool + np.arange(n_pool))[sq >= cut[c]])
        return keys % n_pool, keys // n_pool

    # the squared gap of each subcell's first pool tile is its schedule key.
    # Each column pass covers all subcells (on the benchmark layers the first
    # pool tile is within 18 entries): passes over a shrinking remainder
    # left many small arrays behind and raised the peak memory of `checks`
    d_pref = np.full(ns, -1)
    for j in range(int(lengths.max())):
        hit = (
            (d_pref < 0) & (j < lengths[cls]) & (grid[bases + flat[cls, j]] >= 0)
        )
        d_pref[hit] = gaps[cls[hit], j]
        if d_pref.min() >= 0:
            break
    todo = np.flatnonzero(d_pref < 0)
    for s in todo.tolist():
        d_pref[s] = beyond(s)[1][0]

    # nearest-first greedy; place() runs on Python floats and ints, not
    # numpy scalars.  The setup arrays are freed first, so that the greedy's
    # lists reuse their memory: kept alive, they raised the peak memory of
    # `checks`, which builds three layers
    sched = np.lexsort((np.arange(ns), d_pref)).tolist()
    grid_l = grid.tolist()
    windows = [flat[c, : lengths[c]].tolist() for c in range(k**3)]
    cls_l, bases_l = cls.tolist(), bases.tolist()
    del tiles, cls_m, cls, offsets, gaps, lengths, grid, bases, flat, d_pref, todo
    pts = _subcell_center(sub_keys, eps, k).tolist()
    for s in sched:
        pt, b = pts[s], bases_l[s]
        for off in windows[cls_l[s]]:
            i = grid_l[b + off]
            if i >= 0 and place(i, s, pt):
                break
        else:
            if not any(place(i, s, pt) for i in beyond(s)[0].tolist()):
                key = tuple(int(v) for v in sub_keys[s])
                raise ValueError(
                    f"no host tile can absorb the boundary subcell at index "
                    f"{key} without its inner cube escaping; increase the "
                    f"subdivision or use coarser tiles"
                )
    return count, members


def quadrupole_layer(domain, eps: float, subdiv: int, rho: float) -> BoundaryLayer:
    """Tile the outer boundary neighborhood of ``domain`` with neutral pieces.

    Space is tiled by cubes of side ``eps`` centered at ``eps * z`` for
    integer ``z``.  Fully-exterior tiles within distance ``eps`` of the
    domain form the base of the layer.  Boundary-crossing tiles are
    subdivided at resolution ``eps/subdiv``; their fully-exterior subcells
    become standalone pieces, while subcells that still cross the boundary
    are attached (as full boxes) to the nearest fully-exterior tile that can
    absorb them, spilling over to the next-nearest host when an addition
    would push the host's inner cube out of its tile.  Every piece receives
    an inner cube of volume ``rho`` times the piece volume, centered at the
    piece's center of mass, so the signed density carries no charge and no
    dipole moment.

    "Nearest" is exact for every tile size.  The box gap between a subcell
    and a tile is, per axis, an integer multiple of ``eps/(2 subdiv)`` that
    depends only on the subcell's position in its tile (its class) and the
    tile offset.  Each class orders the offsets within three tiles once, by
    squared gap and then tile index, and cuts the list where a tile beyond
    that reach could come first; a subcell refused by every pool tile of
    its window tries all the other fully-exterior tiles in the same order.

    Raises ``ValueError`` for a tile size that is not positive and finite,
    and when some subcell cannot be absorbed by any host (subdivision too
    coarse), naming the offending subcell.
    """
    if not 0.0 < rho <= 0.5:
        raise ValueError("background fraction must lie in (0, 1/2]")
    if not 0.0 < eps < math.inf:
        raise ValueError("tile size must be positive and finite")
    scale = _regularity_scale(domain)
    if eps > scale * (1.0 + 1e-12):
        raise ValueError(
            f"tile size {eps} too coarse for this domain; need <= {scale}"
        )
    if subdiv != int(subdiv):
        raise TypeError("subdivision must be an integer")
    subdiv = int(subdiv)
    if subdiv < 2:
        raise ValueError("subdivision must be an integer >= 2")

    pool, pool_dist, boundary = _enumerate_layer_tiles(domain, eps)
    first_shell = pool_dist <= eps * (1.0 + 1e-12)
    ext_keys, bnd_keys = _classify_subcells(domain, boundary, eps, subdiv)
    count, members = _assemble_hosts(pool, bnd_keys, eps, subdiv, rho)

    # hosts: every first-shell exterior tile, plus any farther tile that
    # received spilled subcells
    counts_pool = np.asarray(count, dtype=int)
    rows = np.nonzero(first_shell | (counts_pool > 0))[0]
    hosts = pool[rows]
    counts = counts_pool[rows]
    ptr = np.zeros(len(hosts) + 1, dtype=int)
    np.cumsum(counts, out=ptr[1:])
    flat = [s for r in rows for s in sorted(members[r])]
    sub_sums = np.zeros((len(hosts), 3))
    if flat:
        sub_centers = _subcell_center(bnd_keys[np.asarray(flat)], eps, subdiv)
        nz = counts > 0
        sub_sums[nz] = np.add.reduceat(sub_centers, ptr[:-1][nz], axis=0)
    else:
        sub_centers = np.zeros((0, 3))

    vols = eps**3 + counts * (eps / subdiv) ** 3
    host_c = eps * hosts.astype(float)
    moments = eps**3 * host_c + (eps / subdiv) ** 3 * sub_sums
    com = moments / vols[:, None]
    sides = np.cbrt(rho * vols)

    # strict containment of every inner cube in its host tile
    shift = np.abs(com - host_c).max(axis=1)
    margins = eps / 2.0 - shift - sides / 2.0
    bad = np.nonzero(margins <= 0.0)[0]
    if len(bad):
        z = tuple(int(v) for v in hosts[bad[0]])
        raise ValueError(
            f"inner cube escapes its host tile for the merged piece at index "
            f"{z} (margin {margins[bad[0]]:.3e}); increase the subdivision"
        )

    return BoundaryLayer(
        domain, eps, subdiv, rho,
        host_index=hosts,
        host_sub_centers=sub_centers,
        host_sub_ptr=ptr,
        host_volumes=vols,
        host_moments=moments,
        host_inner_center=com,
        host_inner_side=sides,
        host_shift=shift,
        host_margins=margins,
        sub_index=ext_keys,
    )


def _fit_directions() -> np.ndarray:
    """32 deterministic, roughly equidistributed unit directions."""
    count = 32
    i = np.arange(count, dtype=float)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    zc = 1.0 - (2.0 * i + 1.0) / count
    theta = 2.0 * math.pi * i / phi
    s = np.sqrt(np.maximum(1.0 - zc**2, 0.0))
    return np.stack([s * np.cos(theta), s * np.sin(theta), zc], axis=1)


def piece_potential(piece: LayerPiece, pts) -> np.ndarray:
    """Coulomb potential of a piece's signed density at the given points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    h = piece.inner_side / 2.0
    v = potential_box(piece.inner_center - h, piece.inner_center + h, pts)
    for lo, hi in zip(piece.box_lo, piece.box_hi):
        v = v - piece.background_fraction * potential_box(lo, hi, pts)
    return v


def far_field_exponent(piece: LayerPiece) -> float:
    """Fitted decay exponent p of |potential| ~ r^(-p) away from the piece:
    a log-log fit of the RMS over 32 fixed directions at seven radii between
    4 and 32 tile sizes from the piece's centre of mass."""
    radii = np.geomspace(4.0 * piece.tile_size, 32.0 * piece.tile_size, 7)
    dirs = _fit_directions()
    com = _piece_com(piece)
    rms = np.empty(len(radii))
    for i, r in enumerate(radii):
        vals = piece_potential(piece, com + r * dirs)
        rms[i] = math.sqrt(float(np.mean(vals**2)))
    if np.any(rms <= 0.0):
        return math.inf
    slope = np.polyfit(np.log(radii), np.log(rms), 1)[0]
    return float(-slope)


def _piece_com(piece: LayerPiece) -> np.ndarray:
    sides = piece.box_hi - piece.box_lo
    vols = np.prod(sides, axis=1)
    centers = (piece.box_lo + piece.box_hi) / 2.0
    return (vols[:, None] * centers).sum(axis=0) / vols.sum()


# ---------------------------------------------------------------------------
# ball-packing schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PackingSchedule:
    """Exact radius/count schedule for the recursive ball packing.

    Generation ``j`` uses balls of radius ``radii[j]``; a ball of generation
    ``K`` is packed with ``counts[K - j]`` copies of each earlier generation
    ``j < K``.  ``leftover_ratios[K]`` is the unfilled volume fraction in
    units of ``keep_fraction**K`` and ``perimeter_ratios[K]`` the packed
    surface area over ball volume in the same units; both are exact
    rationals evaluated to float.
    """

    growth: int
    keep_fraction: Fraction
    shrink: Fraction
    radii: tuple
    counts: tuple
    leftover_ratios: tuple
    perimeter_ratios: tuple

    @property
    def depth(self) -> int:
        return len(self.radii) - 1


def swiss_cheese(depth: int, growth: int = 26) -> PackingSchedule:
    """Exact packing schedule up to the given generation ``depth``.

    Radii grow like ``(1 + growth)**j`` with an offset keeping leftover
    space; counts grow so that the unfilled volume fraction after packing
    generation ``K`` is of order ``keep_fraction**K`` with
    ``keep_fraction = growth / (1 + growth)``.
    """
    if not 1 <= depth <= 14:
        raise ValueError("packing depth must lie in 1..14")
    p = int(growth)
    if p < 2:
        raise ValueError("growth must be an integer >= 2")
    gamma = Fraction(p, p + 1)
    theta = Fraction(1, p + 1)
    radii = [Fraction(p + 1) ** j * (1 - theta**j / 2) for j in range(depth + 1)]
    # family sizes; generation 0 is the degenerate base case (a single ball)
    counts = [
        gamma**j * Fraction(p + 1) ** (3 * j) / p if j else Fraction(1)
        for j in range(depth + 1)
    ]
    for j, n in enumerate(counts[1:], start=1):
        if n.denominator != 1:
            raise ValueError(f"count at generation {j} is not an integer: {n}")
    leftover, perim = [Fraction(0)], [Fraction(0)]
    for bigk in range(1, depth + 1):
        occupied = sum(
            counts[bigk - j] * radii[j] ** 3 for j in range(bigk)
        )
        area = sum(counts[bigk - j] * 3 * radii[j] ** 2 for j in range(bigk))
        vol = radii[bigk] ** 3
        left = vol - occupied
        if left <= 0:
            raise ValueError(
                f"packing at generation {bigk} overfills the ball (exact check)"
            )
        leftover.append(left / (gamma**bigk * vol))
        perim.append(area / (gamma**bigk * vol))
    return PackingSchedule(
        growth=p,
        keep_fraction=gamma,
        shrink=theta,
        radii=tuple(radii),
        counts=tuple(int(n) for n in counts),
        leftover_ratios=tuple(leftover),
        perimeter_ratios=tuple(perim),
    )


# ---------------------------------------------------------------------------
# averaged-sequence limit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecursionLimitCertificate:
    """Limit certificate for an almost-superaveraged sequence.

    ``limit`` equals ``(1 - gamma) * sum(increments)`` over the horizon;
    ``increments[K]`` is the sequence value minus the geometric average of
    its history, ``slack[K] = allowances[K] - increments[K] >= 0`` is the
    verified hypothesis margin, and ``tail_bound`` estimates the neglected
    tail from the measured decay of the allowances (infinite when they do
    not decay).
    """

    limit: float
    increments: np.ndarray
    slack: np.ndarray
    tail_bound: float
    horizon: int


def recursion_limit(values, gamma: float, allowances) -> RecursionLimitCertificate:
    """Certify the limit of a sequence dominated by its geometric history.

    Hypothesis (verified index by index): each value exceeds the
    geometrically weighted average of all earlier values by at most the
    corresponding allowance,

        values[K] <= (1 - gamma)/gamma * sum_{j<K} gamma**(K-j) * values[j]
                     + allowances[K].

    The increment sequence ``g[K] = values[K] - average`` then reconstructs
    the values exactly via ``values[K] = g[K] + (1-gamma)*sum_{j<K} g[j]``,
    so when the allowances are summable the values converge to
    ``(1 - gamma) * sum(g)``.  Raises ``ValueError`` naming the first index
    where the hypothesis fails.
    """
    f = np.asarray(values, dtype=float)
    delta = np.asarray(allowances, dtype=float)
    if f.ndim != 1 or delta.shape != f.shape:
        raise ValueError("values and allowances must be 1-d of equal length")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    n = len(f)
    if n < 2:
        raise ValueError("need at least two sequence values")
    g = np.empty(n)
    hist = 0.0  # sum_{j<K} gamma**(K-j) * f[j], updated recursively
    for bigk in range(n):
        g[bigk] = f[bigk] - (1.0 - gamma) / gamma * hist
        tol = 1e-12 * max(1.0, abs(f[bigk]), abs(hist))
        if g[bigk] > delta[bigk] + tol:
            raise ValueError(
                f"averaging hypothesis fails at index {bigk}: "
                f"increment {g[bigk]:.6e} exceeds allowance {delta[bigk]:.6e}"
            )
        hist = gamma * (hist + f[bigk])
    limit = (1.0 - gamma) * float(g.sum())
    # tail estimate from the measured decay of the allowances
    tail = math.inf
    pos = delta[delta > 0]
    if len(delta) >= 2 and delta[-1] <= 0.0:
        tail = 0.0
    elif len(pos) >= 2 and delta[-1] > 0.0 and delta[-2] > 0.0:
        q = delta[-1] / delta[-2]
        if q < 1.0:
            tail = (1.0 - gamma) * delta[-1] * q / (1.0 - q)
    return RecursionLimitCertificate(
        limit=limit,
        increments=g,
        slack=delta - g,
        tail_bound=tail,
        horizon=n - 1,
    )
