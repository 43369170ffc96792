"""Construction of Lyapunov transformation matrices P.

A strict decay estimate for d/dt h = -C h in a modified norm <h, P h>
requires a Hermitian positive definite P with C* P + P C positive
definite.  P = I fails whenever C2 = Re part of C has a kernel; the
routines here build perturbations P = I + A with A supported on a few
entries coupling the kernel of C2 to coercive directions, following a
first-order (small-A) analysis of the lowest eigenvalues.

Each pattern is one function:

- :func:`ansatz_dimker1`: one-dimensional kernel, single coupling
  entry;
- :func:`ansatz_dimker2`: two-dimensional kernel, cases ``2A`` /
  ``2B1`` / ``2B2`` by the rank of the off-kernel coupling block of C1;
- :func:`ansatz_chain3`: three-dimensional kernel with C1 acting as a
  tridiagonal chain through the kernel, as in the one-dimensional BGK
  hierarchy;
- :func:`bgk_P`: the closed-form families used by the decay
  certificates in d = 1, 2, 3, with mode-scaled entries proportional
  to alpha / kappa.

The first three return P together with the final coupling amplitudes
(and the kernel rotation of case ``2B2``), verify positive
definiteness of C* P + P C before returning, and raise
:class:`AnsatzError` when the input violates the structural
assumptions of the pattern.  :func:`optimal_P` is the spectrally
optimal P, for comparison.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .hermite import _check_dim, _check_int
from .index import DEFAULT_TOL, _as_square, _check_pair

DEFECTIVE_COND = 1e8

_BGK_COUPLINGS = {
    # (row, col, ratio): entry is -1j * ratio * alpha / kappa
    1: ((0, 1, 1.0), (1, 2, math.sqrt(2.0)), (2, 3, math.sqrt(3.0))),
    2: ((0, 1, 1.0), (1, 5, 2.0), (2, 4, 1.0), (3, 6, math.sqrt(6.0))),
    3: ((0, 1, 1.0), (1, 7, math.sqrt(3.0)), (2, 5, 1.0), (3, 6, 1.0), (4, 10, 1.0)),
}


class AnsatzError(ValueError):
    """Structural assumption of an ansatz pattern is violated."""


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.conj().T)


@dataclass(frozen=True)
class _Frame:
    """Coordinates in which the ansatz patterns are written.

    The columns of the unitary ``T`` diagonalize C2 with its kernel
    first: T* C2 T = diag(c2) and c = T* C1 T.  ``kdim`` is dim ker C2,
    and ``scale`` is max(||C1||_2, 1), which equals max(||c||_2, 1) up to
    rounding, the reference of the patterns' thresholds.
    """

    T: np.ndarray
    c: np.ndarray
    c2: np.ndarray
    kdim: int
    scale: float

    @classmethod
    def of(cls, C1, C2, tol: float, kdim: int | None = None) -> "_Frame":
        """The frame of (C1, C2); a pattern passes the kernel dimension
        it needs, and gets at least one coercive coordinate beside it."""
        pair = _check_pair(C1, C2, tol)
        Q = pair.V
        c = Q.conj().T @ pair.C1 @ Q
        if kdim is not None:
            if pair.kdim != kdim:
                raise AnsatzError(f"pattern needs dim ker C2 = {kdim}, got {pair.kdim}")
            if len(c) <= kdim:
                raise AnsatzError("need at least one coercive coordinate")
        return cls(Q, c, pair.w, pair.kdim, max(pair.norm1, 1.0))

    @property
    def C(self) -> np.ndarray:
        return 1j * self.c + np.diag(self.c2).astype(complex)

    def permuted(self, perm) -> "_Frame":
        return replace(self, T=self.T[:, perm], c=self.c[np.ix_(perm, perm)], c2=self.c2[perm])


def _coupling(n: int, entries) -> np.ndarray:
    """Hermitian A with A[i, j] = lam and A[j, i] = conj(lam) per entry."""
    A = np.zeros((n, n), dtype=complex)
    for i, j, lam in entries:
        A[i, j] = lam
        A[j, i] = np.conj(lam)
    return A


def _kernel_slopes(C: np.ndarray, A: np.ndarray, kdim: int) -> np.ndarray:
    """Ascending eigenvalues of the kernel block of C*A + AC, kernel first."""
    F = C.conj().T @ A + A @ C
    return np.linalg.eigvalsh(_hermitian_part(F[:kdim, :kdim]))


def _shrink_r(C: np.ndarray, A: np.ndarray) -> float:
    """Largest r in (0, 1] with C*(I + rA) + (I + rA)C positive definite.

    Found by geometric search for a feasible radius followed by
    bisection biased toward larger r.  The slopes of the lowest
    eigenvalues at r = 0 must be positive for this to terminate.
    """
    n = C.shape[0]
    eye = np.eye(n, dtype=complex)
    thresh = 1e-13 * (1.0 + 2.0 * np.linalg.norm(C, 2) * (1.0 + np.linalg.norm(A, 2)))

    def feasible(r: float) -> bool:
        P = eye + r * A
        F = C.conj().T @ P + P @ C
        return np.linalg.eigvalsh(_hermitian_part(F))[0] > thresh

    r = 1.0
    fail = None
    for _ in range(80):
        if feasible(r):
            break
        fail = r
        r *= 0.5
    else:
        raise AnsatzError("no positive radius r makes C*P + PC definite")
    if fail is None:
        return 1.0
    lo, hi = r, fail
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _transform(frame: _Frame, entries, normalize: bool = True):
    """P = T (I + r A) T* from coupling entries (i, j, lam) in the frame.

    A is checked to have positive Kato slopes on the kernel, scaled to
    Frobenius norm 1/2 when ``normalize``, and r is the largest radius
    in (0, 1] keeping C*P + PC definite.  Returns (r, the final
    coupling values r lam, P).
    """
    n = frame.c.shape[0]
    C = frame.C
    if _kernel_slopes(C, _coupling(n, entries), frame.kdim)[0] <= 0:
        raise AnsatzError("slope matrix on ker C2 is not positive definite")
    if normalize:
        s = 0.5 / math.sqrt(2.0 * sum(abs(lam) ** 2 for _, _, lam in entries))
        entries = [(i, j, s * lam) for i, j, lam in entries]
    A = _coupling(n, entries)
    r = _shrink_r(C, A)
    P = frame.T @ (np.eye(n, dtype=complex) + r * A) @ frame.T.conj().T
    return r, [r * lam for _, _, lam in entries], _hermitian_part(P)


def _unit_phase(z: complex) -> complex:
    """exp(i (arg z - pi/2)); the phase that maximizes Im(conj(lam) z)."""
    return cmath.exp(1j * (cmath.phase(z) - 0.5 * math.pi))


def kato_slopes(C1, C2, A, tol: float = DEFAULT_TOL) -> np.ndarray:
    """First-order growth rates of the lowest eigenvalues under P = I + rA.

    The lowest eigenvalues of C*(I + rA) + (I + rA)C behave like
    r xi_j + o(r) where the xi_j are the eigenvalues of the kernel
    compression of C*A + AC.  Positivity of every slope is necessary
    and sufficient for definiteness at some small r > 0.

    Parameters
    ----------
    C1, C2 : array_like
        Generator parts, C = i C1 + C2.
    A : array_like
        Hermitian perturbation direction.
    tol : float
        Kernel detection threshold for C2.

    Returns
    -------
    ndarray
        The slopes xi_j, sorted ascending.
    """
    frame = _Frame.of(C1, C2, tol)
    A = _as_square(A, "A")
    if A.shape != frame.T.shape:
        raise ValueError("A must have the shape of C1")
    if np.linalg.norm(A - A.conj().T, 2) > 1e-10 * max(np.linalg.norm(A, 2), 1.0):
        raise ValueError("A must be Hermitian")
    T = frame.T
    return _kernel_slopes(frame.C, T.conj().T @ A @ T, frame.kdim)


def optimal_P(C, weights=None) -> np.ndarray:
    """Spectrally optimal P from the left eigenvectors of C.

    For diagonalizable C with eigenvector matrix V, the matrix
    P = V^{-*} diag(b) V^{-1} (b > 0 arbitrary) satisfies
    C* P + P C >= 2 mu P with mu = min Re spec(C), the best possible
    rate.  Nearly defective matrices are refused since P would be
    numerically meaningless.

    Parameters
    ----------
    C : array_like
        Square matrix.
    weights : array_like, optional
        Finite positive weights b, default all ones.

    Returns
    -------
    ndarray
        Hermitian positive definite P.
    """
    C = _as_square(C, "C")
    n = C.shape[0]
    if weights is None:
        b = np.ones(n)
    else:
        b = np.asarray(weights, dtype=float)
        if b.shape != (n,):
            raise ValueError("weights must match the size of C")
        bad = b[~(np.isfinite(b) & (b > 0))]
        if bad.size:
            raise ValueError(f"weights must be finite and positive, got {bad.tolist()}")
    w, V = np.linalg.eig(C)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > DEFECTIVE_COND:
        raise AnsatzError(
            f"eigenvector condition number {cond:.3e} exceeds {DEFECTIVE_COND:.0e}; "
            "matrix is too close to defective"
        )
    Vinv = np.linalg.inv(V)
    P = Vinv.conj().T @ np.diag(b) @ Vinv
    return _hermitian_part(P)


def ansatz_dimker1(C1, C2, tol: float = DEFAULT_TOL):
    """P = I + A for a one-dimensional kernel of C2.

    A couples the kernel coordinate to one coercive coordinate through
    a single entry lambda whose phase is chosen to make the kernel
    eigenvalue slope positive; |lambda| is then maximized by bisection
    subject to definiteness of C* P + P C.

    Returns
    -------
    (lambda, P) : complex and ndarray
        The final coupling value and the transformation matrix in the
        input coordinates.
    """
    frame = _Frame.of(C1, C2, tol, kdim=1)
    n = frame.c.shape[0]
    couplings = np.abs(frame.c[0, 1:])
    j = int(np.argmax(couplings)) + 1
    if couplings[j - 1] <= tol * frame.scale:
        raise AnsatzError("kernel coordinate decoupled; not hypocoercive in this pattern")
    perm = np.arange(n)
    perm[[1, j]] = perm[[j, 1]]
    frame = frame.permuted(perm)
    # a unit start of modulus 1/2, not normalized
    lam = 0.5 * _unit_phase(frame.c[0, 1])
    _, (lam,), P = _transform(frame, [(0, 1, lam)], normalize=False)
    return lam, P


def _two_pivots(B: np.ndarray):
    """First two column pivots of a pivoted QR of B.

    The column of largest norm, then, among the others, the column of
    largest norm after projecting out the first.
    """
    norms = np.linalg.norm(B, axis=0)
    j0 = int(np.argmax(norms))
    q = B[:, j0] / norms[j0]
    rest = np.linalg.norm(B - np.outer(q, q.conj() @ B), axis=0)
    rest[j0] = -1.0
    return j0, int(np.argmax(rest))


def _ansatz_2b1_lambdas(c: np.ndarray):
    """Coupling values for the rank-one pattern with a decoupled first row.

    Requires c[0,1] != 0 (kernel-internal coupling) and c[1,2] != 0.
    Places lambda1 at (0,1) and lambda2 at (1,2) with ordered slope
    levels Im(c01 conj(l1)) < Im(c12 conj(l2)); lambda1 shrinks until
    the second minor of the slope matrix is positive.
    """
    d1 = c[0, 1]
    d2 = c[1, 2]
    l2 = 2.0 / abs(d2) * _unit_phase(d2)
    delta = abs(c[0, 0] - c[1, 1])
    t = 1.0
    for _ in range(200):
        l1 = t / abs(d1) * _unit_phase(d1)
        im1 = t
        im2 = 2.0
        minor2 = 4.0 * im1 * (im2 - im1) - delta**2 * abs(l1) ** 2
        if 0 < im1 < im2 and minor2 > 0:
            return l1, l2
        t *= 0.5
    raise AnsatzError("could not order the slope levels in the rank-one pattern")


def ansatz_dimker2(C1, C2, tol: float = DEFAULT_TOL):
    """P = I + U A U* for a two-dimensional kernel of C2.

    The pattern splits on the rank of the block of C1 coupling the two
    kernel coordinates to the coercive ones:

    - rank 2 (case ``2A``): two couplings placed crosswise,
      amplitudes balanced so that the slope matrix determinant is a
      positive multiple of the non-degeneracy gap;
    - rank 1 with the first kernel row decoupled (case ``2B1``): one
      coupling inside the kernel, one out of it, slope levels ordered;
    - rank 1 otherwise (case ``2B2``): a kernel rotation U first
      concentrates the coupling in the second row, then 2B1 applies.

    Rank 0, or a rank-one pattern whose rotated kernel coupling
    vanishes, is not hypocoercive and raises :class:`AnsatzError`.

    Returns
    -------
    (case, parameters, U, P)
        Case label, dict of final coupling values, kernel rotation in
        input coordinates (None unless case 2B2), and the matrix P.
    """
    frame = _Frame.of(C1, C2, tol, kdim=2)
    n, c, scale = frame.c.shape[0], frame.c, frame.scale
    B = c[:2, 2:]
    sv = np.linalg.svd(B, compute_uv=False)
    rank = int(np.sum(sv > tol * scale)) if sv.size else 0

    if rank == 0:
        raise AnsatzError("kernel block decoupled; not hypocoercive in this pattern")

    if rank == 2:
        # move the first two pivot columns of the coupling window to
        # positions 2 and 3, the larger cross product b p in front
        perm = np.arange(n)
        for pos, src in zip((2, 3), _two_pivots(B)):
            cur = int(np.flatnonzero(perm == 2 + src)[0])
            perm[[pos, cur]] = perm[[cur, pos]]
        (a, b), (p, q) = c[0, perm[2:4]], c[1, perm[2:4]]
        if abs(b * p) < abs(a * q):
            perm[[2, 3]] = perm[[3, 2]]
            a, b, p, q = b, a, q, p
        frame = frame.permuted(perm)
        if abs(b * p - a * q) <= tol * scale**2:
            raise AnsatzError("coupling window is singular; case 2A degenerates")

        ell1 = abs(a * p)
        ell2 = abs(b * q)
        floor = 1e-6 * max(ell1, ell2, abs(b * p))
        ell1 = max(ell1, floor)
        ell2 = max(ell2, floor)
        C = frame.C
        for _ in range(100):
            entries = [(0, 3, -1j * ell1 * b), (1, 2, -1j * ell2 * p)]
            if _kernel_slopes(C, _coupling(n, entries), 2)[0] > 0:
                break
            # degenerate amplitude balance; shrink the smaller leg
            if ell1 <= ell2:
                ell1 *= 0.5
            else:
                ell2 *= 0.5
        else:
            raise AnsatzError("slope matrix could not be made definite in case 2A")
        r, (l1, l2), P = _transform(frame, entries)
        return "2A", {"lambda1": l1, "lambda2": l2, "r": r}, None, P

    # rank one: move the dominant coupling column to position 2
    jstar = 2 + int(np.argmax(np.linalg.norm(B, axis=0)))
    perm = np.arange(n)
    perm[[2, jstar]] = perm[[jstar, 2]]
    frame = frame.permuted(perm)

    a, p = frame.c[0, 2], frame.c[1, 2]
    case = "2B1"
    U_rot = None
    if abs(a) > tol * scale:
        case = "2B2"
        nrm = math.sqrt(abs(a) ** 2 + abs(p) ** 2)
        U = np.eye(n, dtype=complex)
        U[:2, :2] = [[np.conj(p) / nrm, a / nrm], [-np.conj(a) / nrm, p / nrm]]
        U_rot = frame.T @ U @ frame.T.conj().T
        # U acts inside the kernel, where T* C2 T stays diag(c2)
        frame = replace(frame, T=frame.T @ U, c=U.conj().T @ frame.c @ U)

    c = frame.c
    if abs(c[1, 2]) <= tol * scale:
        raise AnsatzError("no coupling out of the kernel after rotation")
    if abs(c[0, 1]) <= tol * scale:
        raise AnsatzError("rank-one pattern with vanishing kernel coupling; not hypocoercive")

    l1, l2 = _ansatz_2b1_lambdas(c)
    r, (l1, l2), P = _transform(frame, [(0, 1, l1), (1, 2, l2)])
    return case, {"lambda1": l1, "lambda2": l2, "r": r}, U_rot, P


def ansatz_chain3(C1, C2, tol: float = DEFAULT_TOL):
    """P = I + A for a three-dimensional kernel chained by C1.

    Requires C1 to act as a tridiagonal chain through the kernel
    coordinates with equal diagonal there: nonzero couplings (0,1),
    (1,2), (2,3) and nothing else out of the first three rows.  Three
    coupling amplitudes are placed on the chain with slope levels in
    ratio 1 : 2 : (>= 3), the third grown until the slope matrix
    determinant is positive.

    Returns
    -------
    (lambda1, lambda2, lambda3, P)
    """
    frame = _Frame.of(C1, C2, tol, kdim=3)
    n, c, scale = frame.c.shape[0], frame.c, frame.scale
    atol = 1e-8 * scale

    d1, d2, d3 = c[0, 1], c[1, 2], c[2, 3]
    if min(abs(d1), abs(d2), abs(d3)) <= tol * scale:
        raise AnsatzError("chain couplings (0,1), (1,2), (2,3) must all be nonzero")
    off = [abs(c[0, 2]), abs(c[0, 3]), abs(c[1, 3])]
    if n > 4:
        off += [np.abs(c[0, 4:]).max(), np.abs(c[1, 4:]).max(), np.abs(c[2, 4:]).max()]
    if max(off) > atol:
        raise AnsatzError("kernel rows must couple only along the chain")
    if max(abs(c[0, 0] - c[1, 1]), abs(c[1, 1] - c[2, 2])) > atol:
        raise AnsatzError("chain pattern needs equal diagonal on the kernel")

    im1, im2 = 1.0, 2.0
    l1 = im1 / abs(d1) * _unit_phase(d1)
    l2 = im2 / abs(d2) * _unit_phase(d2)
    X = abs(d2 * l1 - d1 * l2)
    im3 = im2 + max(im1, X**2 / (2.0 * im1))
    l3 = im3 / abs(d3) * _unit_phase(d3)

    _, (l1, l2, l3), P = _transform(frame, [(0, 1, l1), (1, 2, l2), (2, 3, l3)])
    return l1, l2, l3, P


def bgk_coupling(d: int, kappa: float, alpha: float, N: int | None = None) -> np.ndarray:
    """Perturbation direction A of the closed-form BGK ansatz, so that
    the transformation is P = I + A.

    Entries sit above the diagonal at fixed positions per dimension and
    equal -i * ratio * alpha / kappa; in two and three dimensions the
    positions refer to the energy basis ordering.
    """
    _check_dim(d)
    if not (math.isfinite(kappa) and kappa >= 1):
        raise ValueError(f"mode modulus must be finite and at least 1, got {kappa}")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"coupling amplitude must be finite and nonnegative, got {alpha}")
    couplings = _BGK_COUPLINGS[d]
    n0 = 1 + max(j for _, j, _ in couplings)
    if N is None:
        N = n0
    _check_int(N, "N", n0)
    return _coupling(N, [(i, j, -1j * ratio * alpha / kappa) for i, j, ratio in couplings])


def bgk_P(d: int, kappa: float, alpha: float, N: int | None = None) -> np.ndarray:
    """Closed-form transformation matrix of the BGK decay certificates.

    Parameters
    ----------
    d : int
        Velocity dimension.
    kappa : float
        Spatial mode modulus, at least 1.
    alpha : float
        Coupling amplitude.
    N : int, optional
        Matrix size, padded with the identity beyond the coupled block;
        defaults to the coupled size 4, 7 or 11, the smallest that holds
        the couplings.

    Returns
    -------
    ndarray
        Hermitian matrix I + A; positive definite for alpha below the
        dimension-dependent threshold.
    """
    A = bgk_coupling(d, kappa, alpha, N)
    return np.eye(A.shape[0], dtype=complex) + A
