"""Periodic Coulomb kernel on a cubic torus, evaluated by Ewald splitting.

The kernel G_l is the l-periodic solution of -Delta G = 4 pi (delta_per - 1/l^3)
with zero mean over the cell, i.e. the interaction of a unit point charge with
its own periodic images on a neutralizing background.  Near the origin
G_l(x) ~ 1/|x|, and G_l(x) = G_1(x/l) / l.

The split moves short range into a screened real-space image sum and the rest
into a Gaussian-damped reciprocal sum; the constant term pins the cell mean of
the kernel to zero, which is what makes values independent of the splitting
parameter alpha.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.special import erfc

__all__ = ["CoincidentPointsError", "PeriodicKernel", "madelung_z3"]

# Image terms (pairs x shifts) per real-space block: about _CACHE_BLOCK, whose
# scratch (6 doubles per term, 0.8 MB) stays in L2, but at least _MIN_SHIFTS
# shifts, which bounds the per-block Python overhead, and at most _BLOCK.
_CACHE_BLOCK = 2**14
_MIN_SHIFTS = 32
_BLOCK = 2**16


def _block_shifts(npair: int) -> int:
    """Shifts per real-space block over ``npair`` pairs."""
    return min(max(_MIN_SHIFTS, _CACHE_BLOCK // npair), max(1, _BLOCK // npair))


class CoincidentPointsError(ValueError):
    """Two points of a configuration lie closer than 1e-10 cell sides, after
    the minimum-image reduction."""


class PeriodicKernel:
    """Ewald evaluator for the zero-mean periodic Coulomb kernel at period ``ell``.

    ``energy_and_gradient`` gives the pair energy of a configuration and its
    gradient from one real-space and one structure-factor pass;
    ``pair_energy`` and ``pair_gradient`` return one of the two.

    The default alpha = 4 pi / ell^2 balances the two sums: at the default
    tolerance they run over 29 real-space shifts and 775 k-vectors for every
    ell (alpha = pi / ell^2 needs 178 shifts and 256 k-vectors).  The
    k-vectors cover half of k-space, those whose first
    nonzero integer component is positive.  The terms of k and -k are equal
    in the energy, the gradient, ``green`` and ``madelung``, so ``kcoef``
    carries the factor 2 and every formula is the full-ball one.

    Every k-vector is 2 pi / ell times an integer triple (m1, m2, m3), so
    the structure factor needs no cosine per point and k-vector.  Per-axis
    tables hold e^{i m theta_a} at each point, theta_a = 2 pi x_a / ell, for
    |m| up to the largest integer component: cos and sin for m >= 0 and
    their conjugates for m < 0.  The products over the distinct (m1, m2)
    pairs come next, and each k takes its pair's product times its m3
    column, in that order.

    The real-space sum stops at ``rcut`` = sqrt(ln(1/tol) / alpha), where
    erfc(sqrt(alpha) rcut) is about tol / sqrt(pi ln(1/tol)).  Displacements
    are reduced to the centered cell and then folded into one octant: the
    lattice is symmetric under each axis reflection, so the images of dx
    lie at the distances of those of |dx|, taken componentwise, and each
    pair force takes the sign of dx back per component.  ``shifts`` holds
    the lattice shifts within rcut of the box [0, ell/2]^3, which reach
    every image inside the cutoff of a folded displacement: 29 of the 57
    shifts within rcut / ell + sqrt(3) / 2 cells that the unfolded sum
    needs (178 of 251 at alpha = pi / ell^2).  ``green`` and ``madelung``
    sum over those 57.  At the images beyond the cutoff, which the shifts
    include too, no ``erfc`` is evaluated: the energy term is zero and the
    force keeps only its Gaussian part.  The reciprocal cutoff is padded by
    2 pi / ell.

    ``truncation_error`` estimates the error of one kernel value: the
    real-space tail beyond rcut, as the continuum integral
    (4 pi / ell^3) int_rcut^inf r erfc(sqrt(alpha) r) dr plus 6.5 rcut / ell
    terms at rcut for images crowding the cutoff sphere, and the reciprocal
    tail beyond kcut as the continuum integral
    2 sqrt(alpha / pi) erfc(kcut / (2 sqrt(alpha))).  The crowding term is
    measured, not proven.  A fine search over displacements, at tol from
    1e-13 to 1e-6, found no real-space tail above 0.95 of the estimate at
    alpha = pi / ell^2 and none above 0.67 of it at the default.  At other
    alphas, where a symmetric orbit of images can sit just beyond rcut, the
    tail found exceeded it at single tolerances: by 20 % at 3 pi / ell^2,
    3 % at 6 pi / ell^2 and up to 60 % below pi / ell^2.  The estimate
    scales as 1 / ell at fixed alpha ell^2, so it exceeds tol for ell well
    below 1.  Where it holds, the pair energy of a configuration errs by at
    most the estimate per pair.

    Its real-space sum runs over blocks of shifts, each a ``(shifts, 3,
    pairs)`` array contiguous along the pair axis, and every elementwise pass
    runs in place in scratch buffers.  Those buffers, the ``(pairs, shifts)``
    energy terms, the phase tables and the ``triu_indices`` pair indices of
    the last n belong to the calling thread (``_buffer``): they are kept
    between calls and grow with n, so a repeated call faults no fresh pages,
    and threads that share one kernel share no scratch.  The point-major
    complex ``(n, k-vectors)`` structure-factor arrays reuse the buffers of
    the scratch and the terms once the real-space sum is done.  A
    block holds about 2^14 image terms, but at least 32 shifts, which keeps
    its scratch small, and at most 2^16 terms (``_block_shifts``).  The
    block size changes no value, because the reduction order is fixed: the
    energy terms fill one pair-major ``(pairs, shifts)`` buffer summed by a
    single pairwise ``np.sum``, the gradient is summed sequentially in shift
    order, and the structure factor sums its point-major rows in point
    order.  Outputs are written at full ``repr`` precision and L-BFGS
    amplifies a one-ulp change, so that order is part of the result.

    Parameters
    ----------
    ell : float
        Cell side, finite and positive.
    alpha : float, optional
        Splitting parameter (inverse length squared), finite and positive.
        Default 4 pi / ell^2.  Results are alpha-independent up to the
        truncation tolerance.
    tol : float
        Target absolute truncation error of kernel values, in (0, 1); real
        and reciprocal cutoffs are derived from it.
    """

    def __init__(self, ell: float, alpha: float | None = None, tol: float = 1e-13):
        ell = float(ell)
        if not (math.isfinite(ell) and ell > 0.0):
            raise ValueError(f"ell must be finite and positive, got {ell}")
        self.ell = ell
        self.alpha = float(alpha) if alpha is not None else 4.0 * np.pi / ell**2
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        tol = float(tol)
        if not 0.0 < tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {tol}")
        self.tol = tol

        sa = np.sqrt(self.alpha)
        self.rcut = float(np.sqrt(np.log(1.0 / tol)) / sa)
        # displacements are reduced to the centered cell, so images within
        # rcut + half the cell diagonal are enough; the 1e-9 covers a
        # reduced displacement an ulp beyond the half cell
        reach = self.rcut / ell + np.sqrt(3.0) / 2.0 + 1e-9
        m = int(np.ceil(reach))
        rng = np.arange(-m, m + 1)
        shifts = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), -1).reshape(-1, 3)
        self._ball_shifts = shifts[np.linalg.norm(shifts, axis=1) <= reach] * ell
        # the many-body sums fold displacements into [0, 1/2]^3 cells, so
        # they need the shifts within rcut of that octant box only
        gap = shifts - np.clip(shifts, 0.0, 0.5)
        self.shifts = shifts[np.linalg.norm(gap, axis=1) <= self.rcut / ell + 1e-9] * ell

        # reciprocal cutoff: exp(-k^2/(4 alpha)) / k^2 below tol, padded
        kcut = 2.0 * np.sqrt(self.alpha * np.log(1.0 / tol)) + 2.0 * np.pi / ell
        nmax = int(np.ceil(kcut * ell / (2.0 * np.pi)))
        rng = np.arange(-nmax, nmax + 1)
        kgrid = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), -1).reshape(-1, 3)
        kvecs = kgrid * (2.0 * np.pi / ell)
        k2 = np.sum(kvecs**2, axis=1)
        # half of k-space: the first nonzero component is positive.  The k
        # and -k terms are equal in every sum, so each kept k counts twice.
        lead = np.where(kgrid[:, 0] != 0, kgrid[:, 0],
                        np.where(kgrid[:, 1] != 0, kgrid[:, 1], kgrid[:, 2]))
        keep = (lead > 0) & (np.sqrt(k2) <= kcut)
        self.kvecs = kvecs[keep]
        k2 = k2[keep]
        # e^{ik.x} = prod_a e^{i m_a theta_a} with theta_a = 2 pi x_a / ell:
        # each kept k names its (m1, m2) pair and its m3, as columns of the
        # per-axis phase tables (column _nmax + m holds m)
        self._nmax = int(np.abs(kgrid[keep]).max())
        cols = kgrid[keep] + self._nmax
        pairs, kpair = np.unique(cols[:, :2], axis=0, return_inverse=True)
        self._pair_cols = pairs.T
        self._kpair = kpair.ravel()
        self._kcol3 = cols[:, 2]
        self.kcoef = (8.0 * np.pi / ell**3) * np.exp(-k2 / (4.0 * self.alpha)) / k2
        self.self_const = np.pi / (self.alpha * ell**3)

        # the tails beyond the cutoffs; see the class docstring
        rc, at_rc = self.rcut, erfc(sa * self.rcut)
        beyond = (4.0 * np.pi / ell**3) * (
            rc * np.exp(-self.alpha * rc**2) / (2.0 * sa * np.sqrt(np.pi))
            + at_rc * (0.25 / self.alpha - 0.5 * rc**2))
        crowd = 6.5 * at_rc / ell  # 6.5 rc / ell terms erfc(sa rc) / rc
        recip = 2.0 * sa / np.sqrt(np.pi) * erfc(kcut / (2.0 * sa))
        self.truncation_error = float(beyond + crowd + recip)
        self._buffers = threading.local()

    def _buffer(self, name: str, shape, dtype=float) -> np.ndarray:
        """A C-contiguous ``dtype`` array of ``shape`` over this thread's
        float buffer ``name``.  The buffer is kept between calls and grows
        when a call needs more, so repeated calls touch no fresh pages."""
        size = math.prod(shape) * np.dtype(dtype).itemsize // 8
        buf = getattr(self._buffers, name, None)
        if buf is None or buf.size < size:
            buf = np.empty(size)
            setattr(self._buffers, name, buf)
        return buf[:size].view(dtype).reshape(shape)

    # -- point values -------------------------------------------------------

    def green(self, x) -> np.ndarray:
        """G_ell at displacement(s) x, shape (..., 3) -> (...)."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        pts = np.atleast_2d(x)
        pts = pts - self.ell * np.round(pts / self.ell)
        d = pts[:, None, :] - self._ball_shifts[None, :, :]
        r = np.linalg.norm(d, axis=-1)
        if np.any(r == 0.0):
            raise ValueError("kernel evaluated at a lattice point")
        real = np.sum(erfc(np.sqrt(self.alpha) * r) / r, axis=1)
        phase = pts @ self.kvecs.T
        recip = np.cos(phase) @ self.kcoef
        out = real + recip - self.self_const
        return out[0] if squeeze else out

    def madelung(self) -> float:
        """lim_{x->0} (G_ell(x) - 1/|x|): self-image energy scale, < 0."""
        r = np.linalg.norm(self._ball_shifts, axis=1)
        real = np.sum(erfc(np.sqrt(self.alpha) * r[r > 0.0]) / r[r > 0.0])
        recip = float(np.sum(self.kcoef))
        return real + recip - self.self_const - 2.0 * np.sqrt(self.alpha / np.pi)

    # -- many-body sums -----------------------------------------------------

    def energy_and_gradient(self, positions):
        """(sum_{j<k} G_ell(x_j - x_k), its gradient in every position), for
        unit charges.

        One minimum-image reduction, one erfc pass and one structure factor
        serve both results.
        """
        pos = np.asarray(positions, dtype=float).reshape(-1, 3)
        n = len(pos)
        if n < 2:
            return 0.0, np.zeros_like(pos)
        pairs = getattr(self._buffers, "pairs", None)
        if pairs is None or pairs[0] != n:
            pairs = self._buffers.pairs = (n, *np.triu_indices(n, k=1))
        _, iu, ju = pairs
        dx = pos[iu] - pos[ju]
        dx -= self.ell * np.round(dx / self.ell)
        # every image lies at least as far away as the minimum image
        if np.linalg.norm(dx, axis=1).min() < 1e-10 * self.ell:
            raise CoincidentPointsError("coincident points in pair energy")
        # each axis reflection maps the images of dx onto those of its
        # mirror, so the real-space pass sums at |dx| and the sign of dx
        # returns in the forces
        dxt = np.ascontiguousarray(dx.T)
        sign = np.copysign(1.0, dxt)
        terms, forces = self._real_space(np.abs(dxt, out=dxt))
        real = np.sum(terms)
        forces *= sign
        # pair (i, j) adds -forces to the gradient at x_i and +forces at x_j
        grad = np.empty_like(pos)
        for a, f in enumerate(forces):
            grad[:, a] = np.bincount(ju, f, n) - np.bincount(iu, f, n)
        # table[a, j, _nmax + m] = e^{i m theta_a} at x_j for |m| <= _nmax
        nm = self._nmax
        mtheta = np.multiply.outer(pos.T * (2.0 * np.pi / self.ell), np.arange(nm + 1.0),
                                   out=self._buffer("mtheta", (3, n, nm + 1)))
        table = self._buffer("table", (3, n, 2 * nm + 1), complex)
        np.cos(mtheta, out=table.real[:, :, nm:])
        np.sin(mtheta, out=table.imag[:, :, nm:])
        np.conjugate(table[:, :, :nm:-1], out=table[:, :, :nm])
        # e^{ik.x_j}: the (m1, m2) products, then each k's pair times its m3
        c1, c2 = self._pair_cols
        shape = (n, len(c1))
        e12 = np.take(table[0], c1, axis=1, out=self._buffer("e12", shape, complex))
        e12 *= np.take(table[1], c2, axis=1, out=self._buffer("factor", shape, complex))
        # the real-space pass is spent, so its scratch and terms buffers hold
        # the (n, k-vectors) arrays
        shape = (n, len(self.kvecs))
        eik = np.take(e12, self._kpair, axis=1, out=self._buffer("scratch", shape, complex))
        eik *= np.take(table[2], self._kcol3, axis=1,
                       out=self._buffer("terms", shape, complex))
        sk = eik.sum(axis=0)
        recip = 0.5 * np.dot(self.kcoef, sk.real**2 + sk.imag**2 - n)
        # Im(e^{ik.x_i} conj S) = sum_{j != i} sin(k.(x_i - x_j))
        eik *= sk.conj()
        # the m3 factors are spent too, so their buffer takes the weighted sines
        cross = np.multiply(eik.imag, self.kcoef, out=self._buffer("terms", shape))
        grad += np.negative(cross, out=cross) @ self.kvecs
        npairs = n * (n - 1) / 2.0
        return real + recip - npairs * self.self_const, grad

    def _real_space(self, dxt):
        """Real-space image sum over the pairs of ``dxt``, shape (3, pairs),
        folded displacements with every component in [0, ell/2].

        Returns the pair-major ``(pairs, shifts)`` terms erfc(s r)/r, zero at
        r >= rcut, and the ``(3, pairs)`` pair forces, -(grad wrt x_i of
        pair (i, j)) at the folded displacements, summed in shift order.  Both are views of the calling
        thread's buffers; the terms hold until the structure-factor pass
        reuses their buffer."""
        npair, nshift = dxt.shape[1], len(self.shifts)
        sa = np.sqrt(self.alpha)
        srcut = sa * self.rcut
        gauss = 2.0 * sa / np.sqrt(np.pi)
        step = min(_block_shifts(npair), nshift)
        terms = self._buffer("terms", (npair, nshift))
        # row 0 of blk is the running sum of the pair forces, rows 1.. one
        # block of displacements; scratch holds per-term values
        blk = self._buffer("blk", (step + 1, 3, npair))
        blk[0] = 0.0
        scratch = self._buffer("scratch", (3, step, npair))
        for s0 in range(0, nshift, step):
            sh = self.shifts[s0 : s0 + step]
            m = len(sh)
            rows = blk[: m + 1]
            r, a, b = scratch[:, :m]
            d = np.subtract(dxt, sh[:, :, None], out=rows[1:])  # (shifts, 3, pairs)
            x, y, z = d[:, 0], d[:, 1], d[:, 2]
            # r = sqrt((x*x + y*y) + z*z), the grouping np.linalg.norm uses
            np.multiply(x, x, out=r)
            r += np.multiply(y, y, out=a)
            r += np.multiply(z, z, out=a)
            np.sqrt(r, out=r)
            # erfc only inside the cutoff; the terms beyond it are zero
            screened = np.multiply(r, sa, out=a)
            flat = screened.reshape(-1)
            inside = np.flatnonzero(flat < srcut)
            values = erfc(flat[inside])
            flat.fill(0.0)
            flat[inside] = values
            np.divide(screened, r, out=terms[:, s0 : s0 + m].T)
            # d/dr [erfc(s r)/r] = -(erfc(s r)/r^2 + 2 s exp(-s^2 r^2)/(sqrt(pi) r));
            # mag/r is built in a, with r^2 = r*r (bitwise r**2) in b
            r2 = np.multiply(r, r, out=b)
            np.divide(screened, r2, out=a)
            np.exp(np.multiply(r2, -self.alpha, out=b), out=b)
            b *= gauss
            b /= r
            a += b
            a /= r
            d *= a[:, None, :]
            # the running sum leads the block, so the sum stays sequential in shifts
            blk[0] = np.sum(rows, axis=0)
        return terms, blk[0]

    def pair_energy(self, positions) -> float:
        """sum_{j<k} G_ell(x_j - x_k) via one structure-factor pass."""
        return self.energy_and_gradient(positions)[0]

    def pair_gradient(self, positions) -> np.ndarray:
        """Gradient of ``pair_energy`` with respect to every position."""
        return self.energy_and_gradient(positions)[1]


def madelung_z3(ell: float = 1.0) -> float:
    """Madelung-type constant of the cubic lattice ell*Z^3: M(ell) = M(1)/ell."""
    return PeriodicKernel(ell).madelung()
