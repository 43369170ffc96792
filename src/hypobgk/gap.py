"""Numerically computed spectral gaps of the modal generators.

The decay certificates are lower bounds; the actual exponential rate of
a mode is the smallest real part over the spectrum of its generator
C_kappa = i kappa ell L1 + L2.  This module computes those spectra and
aggregates them into per-torus gap reports used to validate the
certificates.

In the tensor basis the similarity T = diag(i**m_1) splits C_kappa into
real blocks (:func:`hypobgk.operators.chain_blocks`): tridiagonal
chains, and one block in which the degree-two collision projector
couples the chains holding (2, 0, 0), (0, 2, 0) and (0, 0, 2).  A block
on which L2 is the identity is I + kappa ell K with K real
antisymmetric, so its real parts are exactly 1 and it needs no
eigensolve.  The few other blocks go to :func:`complex_eigenvalues`
without eigenvectors.  The energy basis differs from the tensor basis
by an orthogonal involution, so it has the same spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvals, solve_banded

from .operators import _check_size, chain_blocks, operator_pair

MAX_EIG_SIZE = 2000

#: relative backward error bound for the verified eigenpairs
_TOL = 1e-8


class EigenvalueFailure(RuntimeError):
    """Eigenvalue computation failed or exceeded the residual tolerance.

    The ``partial`` attribute carries whatever the solver produced, or
    None when it did not converge at all.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def _sample(n: int) -> np.ndarray:
    """Up to 10 evenly spaced positions among n eigenpairs."""
    return np.unique(np.linspace(0, n - 1, min(10, n)).astype(int))


def complex_eigenvalues(M, tol: float = _TOL, *, vectors: bool = True):
    """Eigenvalues and right eigenvectors of a general complex matrix.

    A sample of eigenpairs is validated through the backward error
    ||M v - w v|| / ||M||; failure raises :class:`EigenvalueFailure`.

    Parameters
    ----------
    M : array_like
        Square matrix of size at most ``MAX_EIG_SIZE``.
    tol : float
        Relative backward error bound for the sampled pairs.
    vectors : bool
        With False no eigenvectors are computed, and a real M goes to
        the real solver.  The sampled pairs and the pair with the
        smallest real part are then validated with eigenvectors from
        inverse iteration (banded solves when M is tridiagonal),
        relative to the largest column norm of M, a lower bound of
        ||M||_2.

    Returns
    -------
    (values, vectors) : ndarray, ndarray
        Unordered eigenvalues and matching unit eigenvector columns.
        With ``vectors=False`` the second entry is the worst relative
        backward error among the validated pairs instead.
    """
    M = np.asarray(M, dtype=complex if vectors or np.iscomplexobj(M) else float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    n = M.shape[0]
    if n > MAX_EIG_SIZE:
        raise ValueError(f"matrix size {n} exceeds limit {MAX_EIG_SIZE}")
    if not vectors:
        return _verified_eigenvalues(M, tol)
    try:
        vals, vecs = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise EigenvalueFailure(f"eigensolver did not converge: {exc}") from exc
    scale = np.linalg.norm(M, 2)
    if scale == 0.0:
        return vals, vecs
    worst = 0.0
    for j in _sample(n):
        v = vecs[:, j]
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise EigenvalueFailure("zero eigenvector returned", partial=(vals, vecs))
        err = np.linalg.norm(M @ v - vals[j] * v) / (scale * nv)
        worst = max(worst, err)
    if worst > tol:
        raise EigenvalueFailure(
            f"backward error {worst:.3e} exceeds {tol:.1e}", partial=(vals, vecs)
        )
    return vals, vecs


def _verified_eigenvalues(M: np.ndarray, tol: float):
    """Eigenvalues without eigenvectors, for :func:`complex_eigenvalues`."""
    if not np.isfinite(M).all():
        raise EigenvalueFailure("matrix has non-finite entries")
    try:
        vals = eigvals(M, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise EigenvalueFailure(f"eigensolver did not converge: {exc}") from exc
    scale = float(np.linalg.norm(M, axis=0).max(initial=0.0))
    if scale == 0.0:
        return vals, 0.0
    band = sum(np.count_nonzero(np.diagonal(M, k)) for k in (-1, 0, 1))
    tridiagonal = np.count_nonzero(M) == band
    x0 = np.random.default_rng(0).standard_normal(len(vals))
    worst = 0.0
    for p in np.union1d(_sample(len(vals)), [np.argmin(vals.real)]):
        err = _backward_error(M, tridiagonal, vals[p], x0, scale)
        if not err <= tol:
            raise EigenvalueFailure(f"backward error {err:.3e} exceeds {tol:.1e}", partial=vals)
        worst = max(worst, err)
    return vals, worst


def _backward_error(B: np.ndarray, tridiagonal: bool, lam: complex, x0, scale: float):
    """||B x - lam x|| / (scale ||x||) for x from two steps of inverse
    iteration at lam, with banded solves on a tridiagonal B."""
    n = len(B)
    if tridiagonal:
        ab = np.zeros((3, n), dtype=complex)
        ab[0, 1:] = np.diagonal(B, 1)
        ab[1] = np.diagonal(B)
        ab[2, :-1] = np.diagonal(B, -1)

        def apply(x):
            y = ab[1] * x
            y[1:] += ab[2, :-1] * x[:-1]
            y[:-1] += ab[0, 1:] * x[1:]
            return y

        def solve(sigma, x):
            shifted = ab.copy()
            shifted[1] -= sigma
            return solve_banded((1, 1), shifted, x, check_finite=False)

    else:
        apply = B.__matmul__

        def solve(sigma, x):
            return np.linalg.solve(B - sigma * np.eye(n), x)

    x = x0.astype(complex)
    for _ in range(2):
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                y = solve(lam, x)
        except np.linalg.LinAlgError:
            y = None
        if y is None or not np.isfinite(y).all():
            # lam is an eigenvalue to the last bit: step off it
            y = solve(lam + np.finfo(float).eps * scale, x)
        x = y / np.linalg.norm(y)
    return float(np.linalg.norm(apply(x) - lam * x) / scale)


def _split(d: int, N: int, L: float):
    """Blocks of the tensor-basis generators and the wavenumber scale;
    the dense operators are dropped once the blocks are read off."""
    pair = operator_pair(d, "tensor", N, L=L)
    return chain_blocks(pair), pair.ell


def _mode_gap(blocks, s: float):
    """Smallest real part over the spectrum of C_kappa, s = kappa ell,
    and the worst relative backward error among the verified pairs."""
    if s == 0:
        # the homogeneous mode relaxes at the collision rate on the
        # complement of the conserved moments
        return 1.0, 0.0
    gap, worst = math.inf, 0.0
    for blk in blocks:
        if blk.trivial:
            gap = min(gap, 1.0)
            continue
        vals, err = complex_eigenvalues(blk.matrix(s), vectors=False)
        gap = min(gap, float(vals.real.min()))
        worst = max(worst, err)
    return gap, worst


def _check_inputs(d: int, L: float, kappas, Ns) -> None:
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"torus length must be finite and positive, got {L}")
    if not kappas:
        raise ValueError("need at least one mode modulus")
    if not all(math.isfinite(k) and k >= 0 for k in kappas):
        raise ValueError("mode moduli must be finite and nonnegative")
    if not Ns:
        raise ValueError("need at least one truncation")
    for N in Ns:
        _check_size(d, "tensor", N)


@dataclass(frozen=True)
class GapReport:
    """Spectral gaps per mode modulus for one torus length.

    ``entries`` holds (kappa, N, gap) triples; ``gap`` is the overall
    minimum and ``argmin_kappa`` its location.  ``backward_error`` is
    the worst relative backward error among the verified eigenpairs.
    """

    d: int
    L: float
    entries: tuple = field(repr=False)
    gap: float
    argmin_kappa: float
    backward_error: float

    def rows(self):
        """Entries as plain tuples, for tabular output."""
        return [(k, n, g) for k, n, g in self.entries]


def spectral_gap(d: int, L: float, kappa_list, N: int) -> GapReport:
    """Smallest modal decay rates over a list of mode moduli.

    Parameters
    ----------
    d : int
        Velocity dimension.
    L : float
        Torus length, finite and positive.
    kappa_list : iterable of float
        Mode moduli, finite and nonnegative; 0 is handled analytically.
    N : int
        Hermite truncation.

    Returns
    -------
    GapReport
    """
    kappas = [float(k) for k in kappa_list]
    _check_inputs(d, L, kappas, [N])
    blocks, ell = _split(d, N, L)
    entries, worst = [], 0.0
    for kappa in kappas:
        g, err = _mode_gap(blocks, kappa * ell)
        entries.append((kappa, N, g))
        worst = max(worst, err)
    gaps = [g for _, _, g in entries]
    i = int(np.argmin(gaps))
    return GapReport(
        d=d,
        L=L,
        entries=tuple(entries),
        gap=gaps[i],
        argmin_kappa=entries[i][0],
        backward_error=worst,
    )


@dataclass(frozen=True)
class ConvergenceStudy:
    """Gap of one mode across truncations, for resolution checks.

    ``entries`` holds (N, gap) pairs in the order requested.  The
    ``nondecreasing`` flag records whether the profile grew monotonically
    with N; a False value signals that the truncated spectrum approached
    its limit from above somewhere along the sequence.
    ``backward_error`` is the worst relative backward error among the
    verified eigenpairs.
    """

    d: int
    L: float
    kappa: float
    entries: tuple
    nondecreasing: bool
    backward_error: float

    def rows(self):
        """Entries as plain tuples, for tabular output."""
        return [(n, g) for n, g in self.entries]


def convergence_study(d: int, L: float, kappa: float, N_list) -> ConvergenceStudy:
    """Gap of one mode across truncations, with a monotonicity flag."""
    kappa = float(kappa)
    Ns = [int(N) for N in N_list]
    _check_inputs(d, L, [kappa], Ns)
    out, worst = [], 0.0
    for N in Ns:
        blocks, ell = _split(d, N, L)
        g, err = _mode_gap(blocks, kappa * ell)
        out.append((N, g))
        worst = max(worst, err)
    gaps = [g for _, g in out]
    mono = all(b >= a for a, b in zip(gaps, gaps[1:]))
    return ConvergenceStudy(
        d=d,
        L=L,
        kappa=kappa,
        entries=tuple(out),
        nondecreasing=mono,
        backward_error=worst,
    )


if __name__ == "__main__":
    rep = spectral_gap(1, 2.0 * math.pi, [1, 2, 3, 4, 5], 200)
    for k, n, g in rep.rows():
        print(f"kappa={k:g} N={n} gap={g:.6f}")
    print("overall:", rep.gap, "at kappa =", rep.argmin_kappa)
    print("worst backward error:", rep.backward_error)
