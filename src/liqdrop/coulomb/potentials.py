"""Newtonian potentials of homogeneous bodies and body-pair Coulomb integrals.

Potentials are of unit density: Phi_D(x) = integral over D of dy/|x-y|.
Balls, boxes and tetrahedra have closed forms.

Tetrahedron (Werner & Scheeres, Celest. Mech. Dyn. Astron. 65:313, 1997).
For face f with outward unit normal n_f, h_f = n_f.(v_f - x) is the distance
from x to its plane (positive inside), and

    I_f = int_f dS/|y - x| = sum_e (m_fe . r_e) L_e - h_f omega_f,

summed over the face's three edges e with outward in-plane unit normal m_fe,
r_e = (a vertex of e) - x, L_e = log((|r_a| + |r_b| + l_e)/(|r_a| + |r_b| -
l_e)) and omega_f the signed solid angle of the face seen from x (Van
Oosterom & Strackee).  Then Phi = (1/2) sum_f h_f I_f and grad Phi =
-sum_f n_f I_f.  Both are finite and continuous everywhere.  On an edge's
segment L_e diverges while its coefficients m_fe . r_e vanish, with product
limit 0; the term is dropped there, and near the edge L_e comes from a
cancellation-free form.  On a face plane h_f = 0, and so is h_f omega_f.
Far from the body the face terms cancel, and the relative error grows like
1e-16 (r/l)^2: about 1e-11 at r = 1000 from the unit regular tetrahedron.

The self-integral of a tetrahedron uses the surface identity U = (2/5)
sum_f h_f int_f Phi dS, with h_f measured from the centroid, over a fixed
Gauss rule on each face; it returns the difference to the next face order
as its error, about 2e-14 on the unit regular tetrahedron.
"""

from __future__ import annotations

import numpy as np

# frozen unit-cube self integral; see grid.py for provenance
from liqdrop.coulomb.grid import CUBE_SELF_INTEGRAL
from liqdrop.geom import Ball, Cube, Tetrahedron

__all__ = [
    "potential_ball",
    "potential_box",
    "potential_cube",
    "potential_tetra",
    "tetra_field",
    "TetraBody",
    "potential_domain",
    "potential_domain_gradient",
    "domain_pair_coulomb",
]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def potential_ball(charge: float, radius: float, r) -> np.ndarray:
    """Potential of a ball of total charge ``charge`` at center distance r.

    Outside the support this is charge/r; inside, the harmonic-mean profile
    charge (3 R^2 - r^2)/(2 R^3).
    """
    r = np.asarray(r, dtype=float)
    inside = r < radius
    out = np.empty_like(r)
    out[~inside] = charge / np.maximum(r[~inside], 1e-300)
    out[inside] = charge * (3.0 * radius**2 - r[inside] ** 2) / (2.0 * radius**3)
    return out


def _brick_antiderivative(u1, u2, u3):
    r = np.sqrt(u1**2 + u2**2 + u3**2)
    tiny = 1e-300

    def _ln(num, coef):
        return coef * np.log(np.maximum(num + r, tiny))

    def _at(c, y):
        # c^2/2 * atan(y / (c r)), principal branch: the corner sum only
        # telescopes with atan in (-pi/2, pi/2); the c^2 prefactor kills
        # the +-pi/2 limit as c -> 0 so the guard value is irrelevant
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.arctan(y / (c * r))
        return 0.5 * c**2 * np.where(np.isfinite(t), t, 0.0)

    return (
        _ln(u3, u1 * u2)
        + _ln(u1, u2 * u3)
        + _ln(u2, u3 * u1)
        - _at(u1, u2 * u3)
        - _at(u2, u3 * u1)
        - _at(u3, u1 * u2)
    )


# the eight box corners in (i, j, k) order, 1 taking the upper bound on that
# axis, and the sign of each corner's antiderivative term
_CORNERS = tuple((i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1))
_CORNER_SIGNS = tuple(1.0 if sum(c) % 2 == 1 else -1.0 for c in _CORNERS)


def potential_box(lo, hi, pts) -> np.ndarray:
    """Potential of the box [lo, hi] (componentwise) at ``pts``.

    Standard corner expansion of the triple antiderivative of 1/r.  ``lo``
    and ``hi`` broadcast against ``pts``, so a batch of boxes against a batch
    of points is one call.

    The eight corners are stacked in ``(i, j, k)`` order (``_CORNERS``) into
    ``(8, ...)`` arrays and evaluated in one antiderivative call.  The signed
    corner terms are then summed one at a time in that order, starting from
    ``0.0``, so every output keeps the value and the sign of zero of a
    corner-by-corner loop.  Outputs are written at full ``repr`` precision
    and L-BFGS amplifies a one-ulp change, so that order is part of the
    result.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    pts = np.asarray(pts, dtype=float)
    ends = np.broadcast_arrays(lo - pts, hi - pts)
    u1, u2, u3 = (
        np.stack([ends[c[ax]][..., ax] for c in _CORNERS]) for ax in range(3)
    )
    f = _brick_antiderivative(u1, u2, u3)
    total = 0.0
    for c, sign in enumerate(_CORNER_SIGNS):
        total = total + sign * f[c]
    return total


def potential_cube(side: float, pts, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    c = np.asarray(center, dtype=float)
    half = side / 2.0
    return potential_box(c - half, c + half, pts)


# ---------------------------------------------------------------------------
# tetrahedra: closed form
# ---------------------------------------------------------------------------

# outward-oriented faces of a tetra with vertices 0..3 whose det(v1-v0, v2-v0,
# v3-v0) is negative: (a, b, c) listed so that (b-a) x (c-a) points away from
# the remaining vertex
_FACES = ((1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2))
_FACE_VERTICES = np.array(_FACES).T  # (3, 4)
# the six edges as vertex pairs: 01, 02, 03, 12, 13, 23
_EDGE_ENDS = np.array([[0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]])
# edge k of face f runs from vertex _FACES[f][k] to the next one; the edge
# opposite vertex k of face f is _OPPOSITE[k, f]
_FACE_EDGES = np.array([[4, 5, 3], [1, 5, 2], [2, 4, 0], [0, 3, 1]])
_OPPOSITE = np.roll(_FACE_EDGES, -1, axis=1).T
# for each edge, two rows of TetraBody.planes from one face that holds it:
# the edge's in-plane normal there, then that face's normal
_EDGE_PLANES = np.array([[12, 7, 9, 6, 4, 5], [2, 1, 1, 0, 0, 0]])


class TetraBody:
    """A homogeneous tetrahedron set up for ``tetra_field``.

    Holds, once per body, the vertices in outward order, the 16 planes
    ``planes @ x = offsets`` (rows 0-3 the outward unit face normals, rows
    4-15 the outward in-plane unit normals of each face's three edges, in
    ``_FACE_EDGES`` order), twice the face areas and the edge lengths.
    """

    def __init__(self, tetra: Tetrahedron | np.ndarray):
        v = tetra.vertices if isinstance(tetra, Tetrahedron) else tetra
        v = np.asarray(v, dtype=float).reshape(4, 3)
        if np.linalg.det(v[1:] - v[0]) > 0.0:
            v = v[[0, 2, 1, 3]]  # _FACES is outward for the other handedness
        tails = v[_FACE_VERTICES]  # (3, 4, 3): vertex k of face f
        edges = np.roll(tails, -1, axis=0) - tails  # edge k of face f
        cross = np.cross(edges[0], -edges[2])
        self.area2 = np.linalg.norm(cross, axis=1)[:, None]
        self.normals = cross / self.area2
        unit = edges / np.linalg.norm(edges, axis=2, keepdims=True)
        edge_normals = np.cross(unit, self.normals).transpose(1, 0, 2).reshape(12, 3)
        anchors = np.concatenate([tails[0], tails.transpose(1, 0, 2).reshape(12, 3)])
        self.vertices = v
        self.planes = np.concatenate([self.normals, edge_normals])
        self.offsets = np.einsum("ri,ri->r", self.planes, anchors)[:, None]
        lengths = np.linalg.norm(v[_EDGE_ENDS[1]] - v[_EDGE_ENDS[0]], axis=1)
        self.edge_len = lengths[:, None]


def _tetra_terms(body: TetraBody, x: np.ndarray):
    """Potential (P,) at the points ``x`` (P, 3) and the face integrals
    I_f = int_f dS/|y - x| (4, P)."""
    r = body.vertices[:, None, :] - x  # (4, P, 3)
    rho2 = np.einsum("vpi,vpi->vp", r, r)
    rho = np.sqrt(rho2)
    dist = body.offsets - body.planes @ x.T  # (16, P): h_f, then m.(v - x)
    h = dist[:4]
    ends2 = rho2[_EDGE_ENDS]
    dots = 0.5 * (ends2[0] + ends2[1] - body.edge_len**2)  # r_a . r_b per edge
    ends = rho[_EDGE_ENDS]
    rr = ends[0] * ends[1]
    # (|r_a| + |r_b|)^2 - l^2 = 2 (rr + dots); where dots < 0 that cancels, so
    # use rr + dots = l^2 d^2 / (rr - dots), d^2 the squared distance to the
    # edge line from its in-plane and normal offsets
    d2 = np.einsum("kep,kep->ep", dist[_EDGE_PLANES], dist[_EDGE_PLANES])
    half = np.divide(body.edge_len**2 * d2, rr - dots, out=rr + dots, where=dots < 0)
    # L_e = log((s + l)/(s - l)) = log1p(l (s + l)/half), s = |r_a| + |r_b|,
    # exact also far away, where L_e -> 0; on the edge itself half = 0 and
    # the coefficients m.(v - x) vanish too, so the term is dropped
    ratio = body.edge_len * (ends[0] + ends[1] + body.edge_len)
    log_e = np.log1p(np.divide(ratio, half, out=np.zeros_like(half), where=half > 0.0))
    # Van Oosterom-Strackee solid angle; its numerator r_a . (r_b x r_c) is
    # twice the face area times h_f, so h_f omega_f = 0 on the face plane
    corner = rho[_FACE_VERTICES]  # (3, 4, P)
    den = corner[0] * corner[1] * corner[2]
    den += np.einsum("kfp,kfp->fp", corner, dots[_OPPOSITE])
    omega = 2.0 * np.arctan2(body.area2 * h, den)
    edge_sum = np.einsum("fkp,fkp->fp", dist[4:].reshape(4, 3, -1), log_e[_FACE_EDGES])
    face = edge_sum - h * omega
    return 0.5 * np.einsum("fp,fp->p", h, face), face


def _prepared(tetra, pts):
    body = tetra if isinstance(tetra, TetraBody) else TetraBody(tetra)
    x = np.atleast_2d(np.asarray(pts, dtype=float))
    return body, x, np.asarray(pts).ndim == 1


def potential_tetra(tetra: Tetrahedron | TetraBody | np.ndarray, pts) -> np.ndarray:
    """Potential of a homogeneous tetrahedron at ``pts`` (closed form)."""
    body, x, single = _prepared(tetra, pts)
    phi, _ = _tetra_terms(body, x)
    return phi[0] if single else phi


def tetra_field(tetra: Tetrahedron | TetraBody | np.ndarray, pts):
    """(potential, gradient) of a homogeneous tetrahedron at ``pts``."""
    body, x, single = _prepared(tetra, pts)
    phi, face = _tetra_terms(body, x)
    grad = -(face.T @ body.normals)
    return (phi[0], grad[0]) if single else (phi, grad)


def _tetra_self_integral(tetra: Tetrahedron | np.ndarray):
    """int int over the tetrahedron of dx dy/|x - y|, with an error estimate.

    The surface identity U = (2/5) sum_f h_f int_f Phi dS, h_f the distance
    from the centroid to face f, turns it into four face integrals of the
    closed-form potential.  Each face takes a tensor Gauss-Legendre rule on
    the unit square, each axis mapped by t -> 3t^2 - 2t^3 (which tames the
    edge singularities of Phi), collapsed onto the triangle by a = u,
    b = v (1 - u).  Returns the value at order 32 and its difference to
    order 40.
    """
    body = TetraBody(tetra)
    v = body.vertices
    # h_f times the Jacobian 2 |f| of each face's map from the unit triangle
    scale = body.area2[:, 0] * (body.offsets[:4, 0] - body.normals @ v.mean(axis=0))
    vals = []
    for order in (32, 40):
        x, w1 = np.polynomial.legendre.leggauss(order)
        t = 0.5 * (x + 1.0)
        u, wu = t * t * (3.0 - 2.0 * t), 3.0 * w1 * t * (1.0 - t)
        a = np.repeat(u, order)
        b = np.tile(u, order) * (1.0 - a)
        w = np.outer(wu, wu).ravel() * (1.0 - a)
        total = 0.0
        for (i, j, k), s in zip(_FACES, scale.tolist()):
            pts = v[i] + np.outer(a, v[j] - v[i]) + np.outer(b, v[k] - v[i])
            # eight rows of the rule per call keep the temporaries below 0.5 MB
            for lo in range(0, order * order, 8 * order):
                phi, _ = _tetra_terms(body, pts[lo:lo + 8 * order])
                total += s * float(phi @ w[lo:lo + 8 * order])
        vals.append(0.4 * total)
    return vals[0], abs(vals[0] - vals[1])


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def potential_domain(domain, pts) -> np.ndarray:
    """Unit-density potential of a supported domain at ``pts``."""
    pts_arr = np.asarray(pts, dtype=float)
    single = pts_arr.ndim == 1
    p = np.atleast_2d(pts_arr)
    if isinstance(domain, Ball):
        r = np.linalg.norm(p - np.asarray(domain.center), axis=1)
        out = potential_ball(domain.volume, domain.radius, r)
    elif isinstance(domain, Cube):
        out = potential_cube(domain.side, p, center=domain.center)
    elif isinstance(domain, Tetrahedron):
        out = potential_tetra(domain, p)
    else:
        raise TypeError(f"no potential rule for {type(domain).__name__}")
    return out[0] if single else out


def potential_domain_gradient(domain, pts) -> np.ndarray:
    """Gradient of the unit-density potential (the field, up to sign) of a
    ``Ball`` or a ``Cube``; ``tetra_field`` gives a tetrahedron's."""
    pts_arr = np.asarray(pts, dtype=float)
    single = pts_arr.ndim == 1
    p = np.atleast_2d(pts_arr)
    if isinstance(domain, Ball):
        d = p - np.asarray(domain.center)
        r = np.maximum(np.linalg.norm(d, axis=1), 1e-300)
        q, R = domain.volume, domain.radius
        mag = np.where(r < R, -q * r / R**3, -q / r**2)
        out = (mag / r)[:, None] * d
    elif isinstance(domain, Cube):
        out = _box_gradient(domain, p)
    else:
        raise TypeError(f"no potential gradient rule for {type(domain).__name__}")
    return out[0] if single else out


def _box_gradient(cube: Cube, pts):
    # central differences on the closed form, step 1e-6 of the side; accurate
    # enough for penalties.  The six points pts + e_ax, then pts - e_ax, go
    # through one call.
    h = cube.side * 1e-6
    e = (h * np.eye(3))[:, None, :]
    phi = potential_cube(cube.side, np.concatenate([pts + e, pts - e]), cube.center)
    return ((phi[:3] - phi[3:]) / (2.0 * h)).T


# ---------------------------------------------------------------------------
# pair integrals D1 x D2 of 1/|x-y|
# ---------------------------------------------------------------------------

def _same_body(d1, d2, size: str) -> bool:
    # exact equality of the defining data: a ball 5e-6 off another is a
    # distinct body, and ndarray centres compare without numpy's ambiguity
    return getattr(d1, size) == getattr(d2, size) and np.array_equal(d1.center, d2.center)


def domain_pair_coulomb(d1, d2):
    """Double integral over d1 x d2 of 1/|x-y|, with an error estimate.

    Closed forms only: a ball with itself and two disjoint balls (Newton's
    theorem), a cube with itself (``CUBE_SELF_INTEGRAL``), and a tetrahedron
    with itself (the surface identity of ``_tetra_self_integral``).  A pair
    is the same body only when its defining data are exactly equal.

    Raises ValueError for any other pair, and when the tetrahedron's error
    estimate exceeds ``1e-9 * max(1, |value|)``.
    """
    if isinstance(d1, Ball) and isinstance(d2, Ball):
        if _same_body(d1, d2, "radius"):
            q, r = d1.volume, d1.radius
            return 1.2 * q**2 / r, 0.0
        d = float(np.linalg.norm(np.asarray(d1.center) - np.asarray(d2.center)))
        if d >= d1.radius + d2.radius - 1e-12:
            return d1.volume * d2.volume / d, 0.0
    elif isinstance(d1, Cube) and isinstance(d2, Cube):
        if _same_body(d1, d2, "side"):
            return CUBE_SELF_INTEGRAL * d1.side**5, 1e-12 * d1.side**5
    elif isinstance(d1, Tetrahedron) and isinstance(d2, Tetrahedron):
        if np.array_equal(d1.vertices, d2.vertices):
            val, err = _tetra_self_integral(d1)
            allowed = 1e-9 * max(1.0, abs(val))
            if not err <= allowed:
                raise ValueError(
                    f"pair integral error {err:.3g} exceeds the allowed {allowed:.3g}"
                )
            return val, err
    raise ValueError(
        f"no closed form for the pair {type(d1).__name__}, {type(d2).__name__}"
    )
