"""Newtonian potentials of homogeneous bodies and body-pair Coulomb integrals.

Potentials are of unit density: Phi_D(x) = integral over D of dy/|x-y|.
Balls and boxes have closed forms; tetrahedra are integrated by an
apex-decomposition quadrature whose order ladder (8 to 38 Gauss points per
side) stops when two orders agree to ``tol``.  It is not exact: the ladder
stops at order 38 without reporting a miss, and near a face, inside or
outside, the error reaches about 1e-4 in the potential and 1e-2 in the
gradient (ROADMAP item 2).
"""

from __future__ import annotations

import numpy as np

from liqdrop.geom import Ball, Cube, ScaledTranslate, Tetrahedron

__all__ = [
    "potential_ball",
    "potential_box",
    "potential_cube",
    "potential_tetra",
    "tetra_field",
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


def potential_box(lo, hi, pts) -> np.ndarray:
    """Potential of the box [lo, hi] (componentwise) at ``pts``.

    Standard corner expansion of the triple antiderivative of 1/r.  ``lo``
    and ``hi`` broadcast against ``pts``, so a batch of boxes against a batch
    of points is one call.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    pts = np.asarray(pts, dtype=float)
    a = lo - pts
    b = hi - pts
    total = 0.0
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                u1 = b[..., 0] if i else a[..., 0]
                u2 = b[..., 1] if j else a[..., 1]
                u3 = b[..., 2] if k else a[..., 2]
                sign = 1.0 if (i + j + k) % 2 == 1 else -1.0
                total = total + sign * _brick_antiderivative(u1, u2, u3)
    return total


def potential_cube(side: float, pts, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    c = np.asarray(center, dtype=float)
    half = side / 2.0
    return potential_box(c - half, c + half, pts)


# ---------------------------------------------------------------------------
# tetrahedra: apex-decomposition quadrature
# ---------------------------------------------------------------------------

# outward-oriented faces of a tetra with vertices 0..3: (a, b, c) listed so
# that (b-a) x (c-a) points away from the remaining vertex
_FACES = ((1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2))

_ORDERS = (8, 12, 18, 26, 38)


def _triangle_rule(n: int):
    """Tensor Gauss rule on the unit triangle via the map a=u, b=v(1-u)."""
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu) * (1.0 - uu)
    a = uu.ravel()
    b = (vv * (1.0 - uu)).ravel()
    return a, b, ww.ravel()


_RULES = {n: _triangle_rule(n) for n in _ORDERS}
# the third barycentric coordinate c = 1 - a - b of every node of each rule
_THIRD = {n: 1.0 - a - b for n, (a, b, _) in _RULES.items()}


def _tetra_faces(vertices: np.ndarray, pts: np.ndarray):
    """The order-independent part of the apex rule, once per call.

    For each face of ``_FACES`` returns ``(pa, pb, pc, wf)``: the face
    vertices relative to the points as ``(3, P, 1)`` views, ready to
    broadcast against the nodes, and the signed apex-tetra volumes ``W_f``.
    """
    scale = np.abs(np.linalg.det(vertices[1:] - vertices[0]))  # 6 V of the body
    faces = []
    for fa, fb, fc in _FACES:
        pa = vertices[fa] - pts  # (P, 3)
        pb = vertices[fb] - pts
        pc = vertices[fc] - pts
        wf = np.einsum("pi,pi->p", pa, np.cross(pb, pc)) / 6.0  # signed volume
        # x on (or within roundoff of) this face plane: the face integral can
        # diverge while wf -> 0, with product limit 0; drop it explicitly so
        # roundoff in wf cannot inject 0 * inf garbage
        wf = np.where(np.abs(wf) > 1e-13 * scale, wf, 0.0)
        faces.append((pa.T[:, :, None], pb.T[:, :, None], pc.T[:, :, None], wf))
    return faces


def _tetra_face_quad(faces, order: int, want_grad: bool):
    """One pass of the apex rule at a fixed order over ``_tetra_faces`` data.

    Splitting the body into four signed tetrahedra with apex at the
    evaluation point turns both the potential and its gradient into smooth
    integrals over the unit triangle:

        Phi(x)  = sum_f 3 W_f  int da db / |g|
        dPhi(x) = sum_f 6 W_f  int da db  g / |g|^3

    with g(a,b) the point of the (scaled) opposite face relative to x and
    W_f the signed apex-tetra volume.  No term is singular unless x sits on
    a face plane of its own decomposition, which cannot happen strictly
    inside and is measure zero outside.

    Each face fills one ``(3, P, Q)`` array ``g``, contiguous in the
    quadrature node, in place: ``pa a``, then ``+ pb b``, then ``+ pc c``.
    The norm is ``sqrt((g0^2 + g1^2) + g2^2)`` as in ``np.linalg.norm``.  The
    node sums keep one fixed order: one gemv per face for the potential, and
    for the gradient ``np.add.accumulate`` along the node axis, a sequential
    sum in node order.  Outputs are written at full ``repr`` precision and
    L-BFGS amplifies a one-ulp change, so that order is part of the result.
    """
    a, b, w = _RULES[order]
    c = _THIRD[order]
    npts = faces[0][3].shape[0]
    phi = np.zeros(npts)
    grad = np.zeros((npts, 3)) if want_grad else None
    g = np.empty((3, npts, len(w)))
    tmp = np.empty_like(g)
    gn = np.empty((npts, len(w)))
    for pa, pb, pc, wf in faces:
        np.multiply(pa, a, out=g)
        g += np.multiply(pb, b, out=tmp)
        g += np.multiply(pc, c, out=tmp)
        np.multiply(g[0], g[0], out=gn)
        gn += np.multiply(g[1], g[1], out=tmp[0])
        gn += np.multiply(g[2], g[2], out=tmp[0])
        np.sqrt(gn, out=gn)
        np.maximum(gn, 1e-300, out=gn)
        phi += 3.0 * wf * (np.divide(1.0, gn, out=tmp[0]) @ w)
        if want_grad:
            g /= np.power(gn, 3, out=tmp[0])
            g *= w
            np.add.accumulate(g, axis=2, out=tmp)
            grad += 6.0 * wf[:, None] * tmp[:, :, -1].T
    return phi, grad


def _tetra_eval(vertices, pts, tol, want_grad):
    vertices = np.asarray(vertices, dtype=float).reshape(4, 3)
    if np.linalg.det(vertices[1:] - vertices[0]) > 0.0:
        # _FACES is outward-oriented for the other handedness; swap two
        # vertices so the potential comes out positive for every input order
        vertices = vertices[[0, 2, 1, 3]]
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    faces = _tetra_faces(vertices, pts)
    prev_phi = prev_grad = None
    for order in _ORDERS:
        phi, grad = _tetra_face_quad(faces, order, want_grad)
        if prev_phi is not None:
            err = np.max(np.abs(phi - prev_phi))
            if want_grad:
                err = max(err, np.max(np.abs(grad - prev_grad)))
            if err <= tol * max(1.0, np.max(np.abs(phi))):
                break
        prev_phi, prev_grad = phi, grad
    return phi, grad


def potential_tetra(tetra: Tetrahedron | np.ndarray, pts, tol: float = 1e-9) -> np.ndarray:
    """Potential of a homogeneous tetrahedron, adaptive in quadrature order."""
    verts = tetra.vertices if isinstance(tetra, Tetrahedron) else tetra
    single = np.asarray(pts).ndim == 1
    phi, _ = _tetra_eval(verts, pts, tol, want_grad=False)
    return phi[0] if single else phi


def tetra_field(tetra: Tetrahedron | np.ndarray, pts, tol: float = 1e-9):
    """(potential, gradient) of a homogeneous tetrahedron at ``pts``."""
    verts = tetra.vertices if isinstance(tetra, Tetrahedron) else tetra
    single = np.asarray(pts).ndim == 1
    phi, grad = _tetra_eval(verts, pts, tol, want_grad=True)
    return (phi[0], grad[0]) if single else (phi, grad)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def potential_domain(domain, pts, tol: float = 1e-9) -> np.ndarray:
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
        out = potential_tetra(domain, p, tol=tol)
    elif isinstance(domain, ScaledTranslate):
        # Phi_{s D + t}(x) = s^2 Phi_D((x - t)/s)
        inner = (p - np.asarray(domain.shift)) / domain.scale
        out = domain.scale**2 * potential_domain(domain.base, inner, tol=tol)
    else:
        raise TypeError(f"no potential rule for {type(domain).__name__}")
    return out[0] if single else out


def potential_domain_gradient(domain, pts, tol: float = 1e-9) -> np.ndarray:
    """Gradient of the unit-density potential (the field, up to sign)."""
    pts_arr = np.asarray(pts, dtype=float)
    single = pts_arr.ndim == 1
    p = np.atleast_2d(pts_arr)
    if isinstance(domain, Ball):
        d = p - np.asarray(domain.center)
        r = np.maximum(np.linalg.norm(d, axis=1), 1e-300)
        q, R = domain.volume, domain.radius
        mag = np.where(r < R, -q * r / R**3, -q / r**2)
        out = (mag / r)[:, None] * d
    elif isinstance(domain, Tetrahedron):
        _, out = tetra_field(domain, p, tol=tol)
    elif isinstance(domain, Cube):
        out = _box_gradient(domain, p)
    elif isinstance(domain, ScaledTranslate):
        inner = (p - np.asarray(domain.shift)) / domain.scale
        out = domain.scale * potential_domain_gradient(domain.base, inner, tol=tol)
    else:
        raise TypeError(f"no potential gradient rule for {type(domain).__name__}")
    return out[0] if single else out


def _box_gradient(cube: Cube, pts, step_frac: float = 1e-6):
    # central differences on the closed form; accurate enough for penalties
    h = cube.side * step_frac
    out = np.empty_like(pts)
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        out[:, ax] = (
            potential_cube(cube.side, pts + e, cube.center)
            - potential_cube(cube.side, pts - e, cube.center)
        ) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# pair integrals D1 x D2 of 1/|x-y|
# ---------------------------------------------------------------------------

# frozen unit-cube self integral; see grid.py for provenance
from liqdrop.coulomb.grid import CUBE_SELF_INTEGRAL  # noqa: E402


def _gauss_cells(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _quad_over_cube(cube: Cube, f, order: int) -> float:
    u, w = _gauss_cells(order)
    c = np.asarray(cube.center)
    pts1 = c[None, :] + (u[:, None] - 0.5) * cube.side
    xx, yy, zz = np.meshgrid(pts1[:, 0], pts1[:, 1], pts1[:, 2], indexing="ij")
    pts = np.stack([xx, yy, zz], axis=-1).reshape(-1, 3)
    ww = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    return cube.volume * float(ww @ f(pts))


def _quad_over_ball(ball: Ball, f, order: int) -> float:
    # product rule: Gauss in radius^3 (uniform in volume), Gauss in cos(theta),
    # trapezoid in phi (exact for trig polynomials)
    u, w = _gauss_cells(order)
    r = ball.radius * u ** (1.0 / 3.0)
    mu, wmu = np.polynomial.legendre.leggauss(order)
    nphi = 2 * order
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    st = np.sqrt(1.0 - mu**2)
    x = np.einsum("r,m,p->rmp", r, st, np.cos(phi))
    y = np.einsum("r,m,p->rmp", r, st, np.sin(phi))
    z = np.einsum("r,m,p->rmp", r, mu, np.ones(nphi))
    pts = np.stack([x, y, z], axis=-1).reshape(-1, 3) + np.asarray(ball.center)
    ww = np.einsum("r,m,p->rmp", w, wmu / 2.0, np.full(nphi, 1.0 / nphi)).ravel()
    return ball.volume * float(ww @ f(pts))


def _quad_over_tetra(tet: Tetrahedron, f, order: int) -> float:
    # collapsed-cube map onto the simplex with its polynomial Jacobian
    u, w = _gauss_cells(order)
    U, V, W = np.meshgrid(u, u, u, indexing="ij")
    a = U
    b = V * (1.0 - U)
    c = W * (1.0 - U) * (1.0 - V)
    jac = (1.0 - U) ** 2 * (1.0 - V)
    ww = np.einsum("i,j,k->ijk", w, w, w) * jac
    v = tet.vertices
    pts = (
        v[0][None, :]
        + a.ravel()[:, None] * (v[1] - v[0])
        + b.ravel()[:, None] * (v[2] - v[0])
        + c.ravel()[:, None] * (v[3] - v[0])
    )
    return 6.0 * tet.volume * float(ww.ravel() @ f(pts))


def _quad_over_domain(domain, f, order: int) -> float:
    if isinstance(domain, Cube):
        return _quad_over_cube(domain, f, order)
    if isinstance(domain, Ball):
        return _quad_over_ball(domain, f, order)
    if isinstance(domain, Tetrahedron):
        return _quad_over_tetra(domain, f, order)
    if isinstance(domain, ScaledTranslate):
        g = lambda p: f(p * domain.scale + np.asarray(domain.shift))
        return domain.scale**3 * _quad_over_domain(domain.base, g, order)
    raise TypeError(f"no volume quadrature for {type(domain).__name__}")


def _same_ball(d1: Ball, d2: Ball) -> bool:
    return np.allclose(d1.center, d2.center) and np.isclose(d1.radius, d2.radius)


# self integral of the unit-volume regular tetrahedron, from the escalating
# quadrature below at tol=1e-8 (error estimate ~1e-9; the tol=1e-7 run
# agrees to all shown digits)
REGULAR_TETRA_SELF_INTEGRAL = 1.7719173459773292


def _is_regular_tetra(verts: np.ndarray) -> bool:
    iu, ju = np.triu_indices(4, k=1)
    e = np.linalg.norm(verts[iu] - verts[ju], axis=1)
    return bool(e.max() - e.min() <= 1e-9 * e.max())


def domain_pair_coulomb(d1, d2, tol: float = 1e-8):
    """Double integral over d1 x d2 of 1/|x-y|, with an error estimate.

    Closed forms where Newton's theorem gives them (ball pairs); a frozen
    high-accuracy constant for a cube with itself; otherwise an escalating
    Gauss quadrature of the closed-form/quadrature potential of one body
    over the other, with the difference of the last two refinements as the
    error estimate.
    """
    if isinstance(d1, Ball) and isinstance(d2, Ball):
        if _same_ball(d1, d2):
            q, r = d1.volume, d1.radius
            return 1.2 * q**2 / r, 0.0
        d = float(np.linalg.norm(np.asarray(d1.center) - np.asarray(d2.center)))
        if d >= d1.radius + d2.radius - 1e-12:
            return d1.volume * d2.volume / d, 0.0
        # overlapping distinct balls: fall through to quadrature
    if isinstance(d1, Cube) and isinstance(d2, Cube) and d1 == d2:
        return CUBE_SELF_INTEGRAL * d1.side**5, 1e-12 * d1.side**5
    if (
        isinstance(d1, Tetrahedron)
        and isinstance(d2, Tetrahedron)
        and (d1.vertices is d2.vertices or np.array_equal(d1.vertices, d2.vertices))
        and _is_regular_tetra(d1.vertices)
    ):
        # self integral scales like volume^(5/3) with a shape constant that
        # is the same for every regular tetrahedron
        scale = d1.volume ** (5.0 / 3.0)
        return REGULAR_TETRA_SELF_INTEGRAL * scale, 2e-9 * scale
    # irregular tetra self-integrals fall through to the quadrature path
    outer, inner = (d1, d2) if d1.volume <= d2.volume else (d2, d1)
    f = lambda pts: potential_domain(inner, pts, tol=tol * 1e-1)
    prev = None
    val = np.nan
    err = np.inf
    for order in (6, 10, 16, 24, 34):
        val = _quad_over_domain(outer, f, order)
        if prev is not None:
            err = abs(val - prev)
            if err <= tol * max(1.0, abs(val)):
                break
        prev = val
    return val, err
