"""Hypocoercivity index and structural non-degeneracy checks.

For a generator C = i C1 + C2 with C1 Hermitian and C2 Hermitian
positive semidefinite, the index is the smallest tau such that

    sum_{j=0}^{tau} C1^j C2 C1^j

is positive definite.  Finiteness of the index is equivalent to a
Kalman-type rank condition on {sqrt(C2), C1 sqrt(C2), ...}, to the
absence of C1-invariant subspaces inside ker C2, and to all eigenvalues
of C having a positive real part.  The routines here compute the index
by two independent routes, check the invariant-subspace conditions
directly, and test the spectral characterization.

Here and in :mod:`hypobgk.ansatz`, ker C2 is spanned by the eigenvectors
of C2 with eigenvalues at most tol * max(||C2||, 1), from one
eigendecomposition per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gap import VerificationFailure, complex_eigenvalues

DEFAULT_TOL = 1e-10


def _as_square(M, name: str) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"{name} must be a nonempty square matrix")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} must have finite entries")
    return A


@dataclass(frozen=True)
class _Pair:
    """A checked pair (C1, C2) with the kernel split of C2.

    ``V`` is unitary with V* C2 V = diag(w), ``w`` ascending and
    clipped at zero; its first ``kdim`` columns span ker C2, the
    eigenvalues at most tol * max(||C2||, 1).  ``norm1`` is ||C1||_2.
    """

    C1: np.ndarray
    C2: np.ndarray
    V: np.ndarray
    w: np.ndarray
    kdim: int
    norm1: float


def _check_pair(C1, C2, tol: float) -> _Pair:
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"rank tolerance must be finite and positive, got {tol}")
    C1 = _as_square(C1, "C1")
    C2 = _as_square(C2, "C2")
    if C1.shape != C2.shape:
        raise ValueError("C1 and C2 must have the same shape")
    norm1 = float(np.linalg.norm(C1, 2))
    if _defect(C1) > 1e-12 * max(norm1, 1.0):
        raise ValueError("C1 must be Hermitian")
    diag = np.diag(C2).real
    if np.any(C2 - np.diag(diag)):
        w, V = np.linalg.eigh(C2)
    else:
        # permuted, never rotated: structured examples keep their entries
        order = np.argsort(diag, kind="stable")
        w, V = diag[order], np.eye(len(diag), dtype=complex)[:, order]
    scale2 = max(np.abs(w).max(), 1.0)  # ||C2||_2 for a Hermitian C2
    if _defect(C2) > 1e-12 * scale2:
        raise ValueError("C2 must be Hermitian")
    if w.min() < -1e-10 * scale2:
        raise ValueError("C2 must be positive semidefinite")
    w = np.clip(w, 0.0, None)
    return _Pair(C1, C2, V, w, int(np.sum(w <= tol * scale2)), norm1)


def _defect(A: np.ndarray) -> float:
    """||A - A*||_2, with no SVD where A is exactly Hermitian."""
    D = A - A.conj().T
    return float(np.linalg.norm(D, 2)) if D.any() else 0.0


def _rank(M: np.ndarray, tol: float) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def _nullspace(M: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of M, whose norm is
    at most 1: singular values up to tol are zero.  A threshold relative
    to the largest singular value would read a matrix of pure rounding
    as full rank."""
    if M.shape[0] == 0:
        return np.eye(M.shape[1], dtype=complex)
    U, s, Vh = np.linalg.svd(M)
    return Vh[int(np.sum(s > tol)) :].conj().T


@dataclass(frozen=True)
class IndexReport:
    """Outcome of the index computation.

    Attributes
    ----------
    hypocoercive : bool
        Whether the index is finite.
    tau : int or None
        The index, or None when not hypocoercive.
    rank_profile : tuple of int
        Ranks of the growing Kalman-type family, one entry per order
        until full rank or stagnation.
    dim_ker_C2 : int
        Kernel dimension of the collision part.
    tol : float
        Kernel and rank threshold used.
    coercivity_constant : float or None
        Smallest eigenvalue of sum_{j<=tau} C1^j C2 C1^j when finite.
    """

    hypocoercive: bool
    tau: int | None
    rank_profile: tuple
    dim_ker_C2: int
    tol: float
    coercivity_constant: float | None = field(default=None)


def hypocoercivity_index(C1, C2, tol: float = DEFAULT_TOL) -> IndexReport:
    """Compute the hypocoercivity index of the pair (C1, C2).

    With R* an orthonormal basis of the range of C2, two independent
    routes are evaluated: ranks of the stacked family {R C1^j}_{j<=m},
    and progressive intersection of ker C2 with the null spaces
    ker(R C1^j).  Both run on C1 / ||C1||_2, which has the same index.
    They must agree; disagreement raises.  The coercivity constant is
    sigma_min(B)**2 for the stack B of sqrt(C2) C1^j, j <= tau, whose
    Gram matrix is the sum; a sigma_min(B) that is not above its
    rounding bound n eps ||B||_2 raises too, and a B that leaves the
    floating-point range raises OverflowError.

    Parameters
    ----------
    C1, C2 : array_like
        Hermitian part pair; C2 must be positive semidefinite.
    tol : float
        Kernel threshold of C2 relative to max(||C2||, 1), and relative
        singular value threshold for the rank decisions.

    Returns
    -------
    IndexReport
    """
    pair = _check_pair(C1, C2, tol)
    C1, C2 = pair.C1, pair.C2
    n = C1.shape[0]
    R = pair.V[:, pair.kdim :].conj().T
    # tau does not change under C1 -> c C1, and with ||C1||_2 = 1 the
    # powers of C1 neither vanish nor overflow against R
    S = C1 / pair.norm1 if pair.norm1 > 0.0 else C1

    # route one: ranks of the stacked family
    blocks = [R]
    ranks = []
    tau_rank = None
    last = None
    for j in range(n + 1):
        if j > 0:
            blocks.append(blocks[-1] @ S)
        r = _rank(np.vstack(blocks), tol)
        ranks.append(r)
        if r == n:
            tau_rank = j
            break
        if last is not None and r == last:
            break
        last = r

    # route two: intersection of ker C2 with the null spaces of R C1^j;
    # R has orthonormal rows and ||S||_2 = 1, so ||M Q||_2 <= 1
    Q = pair.V[:, : pair.kdim]
    M = R
    tau_null = None
    for j in range(n + 1):
        if j > 0:
            M = M @ S
            K = _nullspace(M @ Q, tol)
            if K.shape[1] == Q.shape[1]:
                break
            Q = Q @ K
        if Q.shape[1] == 0:
            tau_null = j
            break

    if tau_rank != tau_null:
        raise VerificationFailure(
            f"rank route gave tau={tau_rank}, nullspace route gave tau={tau_null}; "
            "the pair is too ill conditioned for the requested tolerance"
        )

    if tau_rank is None:
        return IndexReport(False, None, tuple(ranks), pair.kdim, tol, None)

    # sum_{j<=tau} C1^j C2 C1^j = B* B for the stack B of the blocks
    # diag(sqrt(w)) V* C1^j, since C1 is Hermitian.  The SVD finds
    # sigma_min(B) to within about n eps ||B||_2; an eigensolve of the
    # sum would lose its smallest eigenvalue to n eps ||B||_2**2
    stack = [np.sqrt(pair.w)[:, None] * pair.V.conj().T]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(tau_rank):
            stack.append(stack[-1] @ C1)
    B = np.vstack(stack)
    if not np.isfinite(B).all():
        raise OverflowError(
            f"the index-{tau_rank} family sqrt(C2) C1^j leaves the floating-point range"
        )
    s = np.linalg.svd(B, compute_uv=False)
    bound = n * np.finfo(float).eps * s[0]
    if not s[-1] > bound:
        raise VerificationFailure(
            f"the coercivity constant is lost to rounding: sigma_min {s[-1]:.3e} of "
            f"the index-{tau_rank} family is not above its rounding bound {bound:.3e}"
        )
    cmin = float(s[-1] ** 2)
    return IndexReport(True, int(tau_rank), tuple(ranks), pair.kdim, tol, cmin)


def is_hypocoercive_spectral(C1, C2, tol: float = DEFAULT_TOL) -> bool:
    """Spectral characterization: all eigenvalues of i C1 + C2 have
    real part above tol."""
    pair = _check_pair(C1, C2, tol)
    vals, _ = complex_eigenvalues(1j * pair.C1 + pair.C2)
    return bool(np.min(vals.real) > tol)


def _invariant_subspace_in_kernel(C1, K0, tol: float, scale: float) -> int:
    """Dimension of the largest C1-invariant subspace inside span(K0)."""
    # Residuals must be measured against the scale of C1, not against
    # their own largest singular value: once the iteration reaches an
    # exactly invariant subspace the residual matrix is numerically
    # zero, and a relative cutoff would read noise as full rank.
    W = K0
    while W.shape[1] > 0:
        n = W.shape[0]
        proj_out = np.eye(n, dtype=complex) - W @ W.conj().T
        B = proj_out @ (C1 @ W)
        _, s, Vh = np.linalg.svd(B)
        r = int(np.sum(s > tol * scale))
        K = Vh[r:].conj().T
        if K.shape[1] == W.shape[1]:
            return W.shape[1]
        W = W @ K
        if W.shape[1] > 0:
            # re-orthonormalize to keep the projector accurate
            W, _ = np.linalg.qr(W)
    return 0


def check_invariance_conditions(C1, C2, tol: float = DEFAULT_TOL) -> dict:
    """Invariant-subspace and eigenvector obstructions to hypocoercivity.

    Returns a dict with keys:

    - ``"B3"``: True when ker C2 contains no nontrivial C1-invariant
      subspace;
    - ``"B4"``: True when no eigenvector of C1 lies in ker C2: every
      eigenspace of C1 keeps its dimension under the projection onto
      the range of C2 (the sines of its angles to ker C2 exceed tol).

    Both are equivalent to a finite index; agreement with
    :func:`hypocoercivity_index` is exercised in the test suite rather
    than enforced here.
    """
    pair = _check_pair(C1, C2, tol)
    C1 = pair.C1
    if pair.kdim == 0:
        return {"B3": True, "B4": True}

    scale = max(pair.norm1, 1.0)
    b3 = _invariant_subspace_in_kernel(C1, pair.V[:, : pair.kdim], tol, scale) == 0

    R = pair.V[:, pair.kdim :].conj().T
    w, V = np.linalg.eigh(C1)
    b4 = True
    i = 0
    n = len(w)
    while i < n:
        j = i + 1
        while j < n and abs(w[j] - w[i]) <= 1e-8 * scale:
            j += 1
        s = np.linalg.svd(R @ V[:, i:j], compute_uv=False)
        if np.sum(s > tol) < j - i:
            b4 = False
            break
        i = j
    return {"B3": b3, "B4": b4}


def commutator_condition(C1, C2, K, tol: float = DEFAULT_TOL) -> bool:
    """Verify a given certificate matrix for the commutator criterion.

    Checks that K is skew-Hermitian and that C2 + K C1 - C1 K is
    positive definite.  This only verifies a candidate; it never
    searches for one.
    """
    pair = _check_pair(C1, C2, tol)
    C1, C2 = pair.C1, pair.C2
    K = _as_square(K, "K")
    scale = max(np.linalg.norm(K, 2), 1.0)
    if np.linalg.norm(K + K.conj().T, 2) > 1e-10 * scale:
        raise ValueError("K must be skew-Hermitian")
    M = C2 + K @ C1 - C1 @ K
    w = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    return bool(w.min() > tol)
