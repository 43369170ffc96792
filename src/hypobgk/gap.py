"""Numerically computed spectral gaps of the modal generators.

The decay certificates are lower bounds; the actual exponential rate of
a mode is the smallest real part over the spectrum of its generator
C_kappa = i kappa ell L1 + L2.  This module computes those spectra and
aggregates them into per-torus gap reports used to validate the
certificates.

In the tensor basis C_kappa splits into blocks
(:func:`hypobgk.operators.chain_blocks`): one per chain of
multi-indices with m_2, ..., m_d fixed, except that the degree-two
collision projector couples the chains holding (2, 0, 0), (0, 2, 0)
and (0, 0, 2) into one block.  A block on which L2 is the identity has
real parts exactly 1 and needs no eigensolve.

Each other block is solved in the eigenbasis of its chains
(:meth:`hypobgk.operators.ChainBlock.eigenbasis`).  The Gauss-Hermite
rule of a chain's length diagonalizes its Jacobi matrix of v_1, and
I - L2 = W W^T projects onto the block's share of the conserved
moments, so the block is unitarily similar to

    diag(1 + i s x) - U U^T,    U = Q^T W,  s = kappa ell,

with x and U built once per truncation, for every kappa, and U of rank
at most d + 2.  This is the Gauss-Hermite discretization of the BGK
dispersion relation.  The rows of U whose squared norms sum to at most
eps**2 are dropped.  Since ||U||_2 <= 1 this perturbs the matrix by at
most 3 eps in the 2-norm, a backward error at the level of rounding,
and leaves each dropped row as the exact eigenvalue 1 + i s x_j, whose
real part is 1.  The tail weights of a 1D chain decay like
exp(-x**2 / 2), so its 500 rows shrink to 177 at N = 500 and its 2000
to 357 at N = 2000; the chains of 2D and 3D are short, and lose few or
no rows.

The reduced matrix goes to :func:`complex_eigenvalues` without
eigenvectors, together with U, which verifies its sampled pairs and the
pair with the smallest real part.  Its inverse iteration solves with
diag(1 + i s x) - sigma - U U^T by the Sherman-Morrison-Woodbury
formula, O(n r**2) for U of rank r instead of an O(n**3) LU.  The pair
with the smallest real part is verified once more against the block
itself: a lone chain is tridiagonal and solved by a tridiagonal LU with
partial pivoting (LAPACK's gttrf / gttrs scheme), the coupled block by
a dense solve.  Only numpy is needed.  The energy basis differs from
the tensor basis by an orthogonal involution, so it has the same
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from numpy.linalg import eigvals

from .operators import ChainBlock, _check_size, chain_blocks, operator_pair

MAX_EIG_SIZE = 2000

#: relative backward error bound for the verified eigenpairs
_TOL = 1e-8

_EPS = np.finfo(float).eps


class EigenvalueFailure(RuntimeError):
    """Eigenvalue computation failed or exceeded the residual tolerance.

    The ``partial`` attribute carries whatever the solver produced, or
    None when it did not converge at all.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class VerificationFailure(RuntimeError):
    """A computed result failed its independent check: an assembled
    dissipation matrix that is not 2 I outside its block, or two routes
    to the hypocoercivity index that disagree."""


def _sample(n: int) -> np.ndarray:
    """Up to 10 evenly spaced positions among n eigenpairs."""
    return np.unique(np.linspace(0, n - 1, min(10, n)).astype(int))


def complex_eigenvalues(M, tol: float = _TOL, *, vectors: bool = True, U=None):
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
        inverse iteration, relative to the largest column norm of M,
        a lower bound of ||M||_2.
    U : array_like, optional
        A real (n, r) factor that describes M as a diagonal matrix
        minus U U^T.  With ``vectors=False`` the inverse iteration then
        solves by the Sherman-Morrison-Woodbury formula in O(n r**2)
        instead of an LU of M.  Backward errors are still measured on
        M itself, so a U that does not describe M can only fail the
        check.  Unused with ``vectors=True``.

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
        op = _dense(M) if U is None else _low_rank(M, np.asarray(U, dtype=float))
        return _verified_eigenvalues(M, op, tol)
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


def _verified_eigenvalues(M: np.ndarray, op: _Operator, tol: float):
    """Eigenvalues without eigenvectors, for :func:`complex_eigenvalues`,
    verified by inverse iteration with ``op``, an operator for M."""
    if not np.isfinite(M).all():
        raise EigenvalueFailure("matrix has non-finite entries")
    try:
        vals = eigvals(M).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        raise EigenvalueFailure(f"eigensolver did not converge: {exc}") from exc
    if op.scale == 0.0:
        return vals, 0.0
    worst = 0.0
    for p in np.union1d(_sample(len(vals)), [np.argmin(vals.real)]):
        worst = max(worst, _verified(op, vals[p], tol, vals))
    return vals, worst


@dataclass(frozen=True)
class _Operator:
    """Size, product, shifted factorization and largest column norm (a
    lower bound of the 2-norm) of a matrix, for inverse iteration.

    ``factor(sigma)`` returns a solver for B - sigma I, which raises
    ``LinAlgError`` or returns non-finite values when B - sigma I is
    singular.
    """

    n: int
    apply: Callable
    factor: Callable
    scale: float


def _singular(x):
    raise np.linalg.LinAlgError("singular shifted matrix")


def _gttrf(dl: list, d: list, du: list):
    """LU factorization with partial pivoting of a tridiagonal matrix,
    in place on lists of Python complex numbers, as LAPACK's gttrf.

    ``dl``, ``d`` and ``du`` hold the diagonals below, on and above the
    diagonal.  Afterwards ``dl`` holds the multipliers, ``d`` and ``du``
    the first two diagonals of U, and the returned list ``du2`` its
    third; the returned ``swap[i]`` says whether rows i and i + 1 were
    interchanged.  Pivots are compared by |re| + |im|, which cannot
    overflow where the modulus could.
    """
    n = len(d)
    du2 = [0j] * max(n - 2, 0)
    swap = [False] * max(n - 1, 0)
    for i in range(n - 1):
        a, b = d[i], dl[i]
        if abs(a.real) + abs(a.imag) >= abs(b.real) + abs(b.imag):
            if a != 0:
                f = b / a
                dl[i] = f
                d[i + 1] -= f * du[i]
        else:
            f = a / b
            d[i], dl[i], swap[i] = b, f, True
            d[i + 1], du[i] = du[i] - f * d[i + 1], d[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -f * du[i + 1]
    return du2, swap


def _gttrs(dl: list, d: list, du: list, du2: list, swap: list, b: list) -> list:
    """Solves with the factorization of :func:`_gttrf`, as LAPACK's gttrs;
    the pivots must be nonzero."""
    n = len(d)
    for i in range(n - 1):
        if swap[i]:
            b[i], b[i + 1] = b[i + 1], b[i] - dl[i] * b[i + 1]
        else:
            b[i + 1] -= dl[i] * b[i]
    b[n - 1] /= d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i]
    return b


def _banded(ab: np.ndarray) -> _Operator:
    """A tridiagonal matrix held in the (3, n) form of
    :meth:`ChainBlock.bands`, solved by :func:`_gttrf` and :func:`_gttrs`."""

    def apply(x):
        y = ab[1] * x
        y[1:] += ab[2, :-1] * x[:-1]
        y[:-1] += ab[0, 1:] * x[1:]
        return y

    def factor(sigma):
        dl = ab[2, :-1].astype(complex).tolist()
        d = (ab[1] - sigma).astype(complex).tolist()
        du = ab[0, 1:].astype(complex).tolist()
        du2, swap = _gttrf(dl, d, du)
        if 0 in d:
            return _singular
        return lambda x: np.array(_gttrs(dl, d, du, du2, swap, x.astype(complex).tolist()))

    # column j of ab holds the entries of column j of the matrix
    scale = float(np.sqrt((np.abs(ab) ** 2).sum(axis=0)).max())
    return _Operator(ab.shape[1], apply, factor, scale)


def _dense(B: np.ndarray) -> _Operator:
    def factor(sigma):
        shifted = B.astype(complex)
        shifted.flat[:: len(B) + 1] -= sigma
        return partial(np.linalg.solve, shifted)

    return _Operator(len(B), B.__matmul__, factor, float(np.linalg.norm(B, axis=0).max()))


def _low_rank(M: np.ndarray, U: np.ndarray) -> _Operator:
    """M = D - U U^T with D diagonal, solved by the Sherman-Morrison-
    Woodbury formula

        (D - sigma - U U^T)^-1 = E + E U (I - U^T E U)^-1 U^T E,

    E = (D - sigma)^-1, with one r x r solve per right-hand side.  The
    product and the scale are those of the dense M.
    """
    D = np.diagonal(M) + np.einsum("ij,ij->i", U, U)

    def factor(sigma):
        delta = D - sigma
        if not delta.all():
            # sigma is an entry of D to the last bit
            return _singular
        V = U / delta[:, None]
        cap = np.eye(U.shape[1]) - U.T @ V

        def solve(x):
            y = x / delta
            return y + V @ np.linalg.solve(cap, U.T @ y)

        return solve

    return _Operator(len(M), M.__matmul__, factor, float(np.linalg.norm(M, axis=0).max()))


def _verified(op: _Operator, lam: complex, tol: float, vals=None) -> float:
    """The relative backward error of lam on op; above tol it raises
    :class:`EigenvalueFailure` carrying vals."""
    err = _backward_error(op, lam)
    if not err <= tol:
        raise EigenvalueFailure(f"backward error {err:.3e} exceeds {tol:.1e}", partial=vals)
    return err


def _backward_error(op: _Operator, lam: complex) -> float:
    """||B x - lam x|| / (scale ||x||) for x from two steps of inverse
    iteration at lam, from a fixed random start."""
    x = np.random.default_rng(0).standard_normal(op.n).astype(complex)
    solve = op.factor(lam)
    for _ in range(2):
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                y = solve(x)
        except np.linalg.LinAlgError:
            y = None
        if y is None or not np.isfinite(y).all():
            # lam is an eigenvalue to the last bit: step off it
            solve = op.factor(lam + _EPS * op.scale)
            y = solve(x)
        # near an eigenvalue y can be so large that its norm overflows
        y /= np.abs(y).max()
        x = y / np.linalg.norm(y)
    return float(np.linalg.norm(op.apply(x) - lam * x) / op.scale)


@dataclass(frozen=True)
class _Reduced:
    """A nontrivial block in the eigenbasis of its chains, deflated.

    ``keep`` holds the rows of :meth:`ChainBlock.eigenbasis` that are
    kept, ``x`` their nodes and ``U`` those rows of U, so that the
    reduced matrix is diag(1 + i s x) - U U^T.
    """

    block: ChainBlock
    keep: np.ndarray
    x: np.ndarray
    U: np.ndarray


def _reduce(block: ChainBlock) -> _Reduced:
    """Drops the rows of U whose squared norms sum to at most eps**2.

    With E the dropped rows and ||U||_2 <= 1, setting them to zero
    changes U U^T by at most 2 ||E|| + ||E||**2 <= 3 eps in the 2-norm:
    a backward perturbation at the level of rounding.  The perturbed
    matrix has the exact eigenvalue 1 + i s x_j for each dropped row,
    with real part 1, and the kept rows form the reduced block.
    """
    x, U = block.eigenbasis()
    norms = np.einsum("ij,ij->i", U, U)
    order = np.argsort(norms, kind="stable")
    dropped = order[np.cumsum(norms[order]) <= _EPS**2]
    keep = np.setdiff1d(np.arange(len(x)), dropped)
    return _Reduced(block, keep, x[keep], U[keep])


def _split(d: int, N: int, L: float):
    """The nontrivial blocks of the tensor-basis generators, reduced
    once for every kappa, and the wavenumber scale; the dense operators
    are dropped once the blocks are read off."""
    pair = operator_pair(d, "tensor", N, L=L)
    blocks, ell = chain_blocks(pair), pair.ell
    del pair
    return [_reduce(blk) for blk in blocks if not blk.trivial], ell


def _mode_gap(reduced, s: float):
    """Smallest real part over the spectrum of C_kappa, s = kappa ell,
    and the worst relative backward error among the verified pairs."""
    if s == 0:
        # the homogeneous mode relaxes at the collision rate on the
        # complement of the conserved moments
        return 1.0, 0.0
    # trivial blocks and deflated rows have real parts exactly 1, and
    # L2 <= I bounds every real part by 1
    gap, worst = 1.0, 0.0
    for r in reduced:
        M = np.diag(1.0 + 1j * s * r.x) - r.U @ r.U.T
        vals, err = complex_eigenvalues(M, vectors=False, U=r.U)
        p = np.argmin(vals.real)
        # the pair that sets the block's minimum, on the block itself
        blk = r.block
        op = _banded(blk.bands(s)) if blk.tridiagonal else _dense(blk.matrix(s))
        err = max(err, _verified(op, vals[p], _TOL))
        gap = min(gap, float(vals[p].real))
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
    reduced, ell = _split(d, N, L)
    entries, worst = [], 0.0
    for kappa in kappas:
        g, err = _mode_gap(reduced, kappa * ell)
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
        reduced, ell = _split(d, N, L)
        g, err = _mode_gap(reduced, kappa * ell)
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
