"""Numerically computed spectral gaps of the modal generators.

The decay certificates are lower bounds; the actual exponential rate of
a mode is the smallest real part over the spectrum of its generator
C_kappa = i kappa ell L1 + L2.  This module computes those spectra and
aggregates them into per-torus gap reports used to validate the
certificates.

In the tensor basis C_kappa splits into one block per chain of
multi-indices with m_2, ..., m_d fixed, except that the degree-two
collision projector couples the chains holding (2, 0, 0), (0, 2, 0)
and (0, 0, 2) into one block.  A block on which L2 is the identity has
real parts exactly 1, so only the other blocks, at most three, are
built (:func:`hypobgk.operators.chain_blocks`), and two of them that
are one matrix, as the 3D shear chains are when their lengths agree,
are reduced and solved once (:func:`_split`).

Each block is solved in the eigenbasis of its chains (:func:`_eigenbasis`).
The Gauss-Hermite rule of a chain's length diagonalizes its Jacobi
matrix of v_1, and I - L2 = W W^T projects onto the block's share of
the conserved moments, so the block is unitarily similar to

    diag(1 + i s x) - U U^T,    U = Q^T W,  s = kappa ell,

with x and U built once per truncation, for every kappa, and U of rank
at most d + 2.  This is the Gauss-Hermite discretization of the BGK
dispersion relation.  The Maxwellian is even in v, so the nodes of a
chain come in mirror pairs x_j' = -x_j, and each column of U (mass,
momentum, energy) is even or odd under j -> j', both to the last bit.
In the basis e = (d_j + d_j') / sqrt 2, o = i (d_j - d_j') / sqrt 2 of
each pair the matrix is therefore the real

    B - V V^T,    B = [[1, -s x_j], [s x_j, 1]] on (e, o) of each pair,

with B also 1 on a node x = 0 (a chain of odd length), and V carrying
sqrt 2 U_j, the even columns on e and the odd ones on o.  Its
eigenvalues come in conjugate pairs, as the dispersion relation's do,
and the real solver costs less than the complex one.  Mirror pairs
whose squared norms in U sum to at most eps**2 are dropped whole
(:func:`_reduce`), a backward error at the level of rounding.  The
tail weights of a 1D chain decay like exp(-x**2 / 2), so its 500 rows
shrink to 178 at N = 500 and its 2000 to 358 at N = 2000; the chains
of 2D and 3D are short, and lose few or no rows.

The real form goes to :func:`complex_eigenvalues` together with V;
it computes no eigenvectors, and verifies its sampled pairs and the
pair with the smallest real part by inverse iteration, all shifts sigma
at once from one fixed start.  The pair with the smallest real part is
verified once more on the block itself, without Q (:func:`_chains`).
Both checks solve with a base matrix plus a term of low rank, by one
Sherman-Morrison-Woodbury solve (:func:`_woodbury`): B - sigma - V V^T
with the 2 x 2 blocks of B, at the fixed rows where :func:`_reduce`
lays them, inverted in closed form, O(n r**2) per shift instead of an
O(n**3) LU; and T + W C W^T, with T tridiagonal on each chain and
solved by LU with partial pivoting (LAPACK's gttrf / gttrs scheme), and
C the collision coupling between chains.  Only numpy is needed.  The
energy basis differs from the tensor basis by an orthogonal involution,
so it has the same spectrum.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from numpy.linalg import eigvals

from .hermite import SQRT2PI, gauss_hermite, hermite_phi
from .operators import MAX_TRUNCATION, ChainBlock, _check_length, _check_size, chain_blocks

#: relative backward error bound for the verified eigenpairs
_TOL = 1e-8

_EPS = np.finfo(float).eps


class VerificationFailure(RuntimeError):
    """A computed result failed its independent check: an eigensolve
    that did not converge or whose backward error exceeds its bound, an
    assembled dissipation matrix that is not 2 I outside its block, two
    routes to the hypocoercivity index that disagree, or a coercivity
    constant lost to rounding."""


def _sample(n: int) -> np.ndarray:
    """Up to 10 evenly spaced positions among n eigenpairs, ascending
    and distinct: 0, ..., n - 1 for n < 10, and spaced (n - 1) / 9 >= 1
    apart otherwise."""
    return np.linspace(0, n - 1, min(10, n)).astype(int)


def complex_eigenvalues(M, *, U=None):
    """Verified eigenvalues of a general real or complex matrix.

    No eigenvectors are computed, and a real M goes to the real solver.
    A sample of up to 10 eigenvalues and the one with the smallest real
    part are verified with eigenvectors from inverse iteration, through
    the backward error ||M x - lam x|| / ||M||, with ||M|| taken as the
    largest column norm of M, a lower bound of ||M||_2; failure raises
    :class:`VerificationFailure`.

    Parameters
    ----------
    M : array_like
        Square matrix of size 1 to ``MAX_TRUNCATION``, with finite
        entries.
    U : array_like, optional
        A real (n, r) factor with M = D - U U^T, D block diagonal in
        2 x 2 blocks at rows (2k, 2k + 1) and a 1 x 1 last row for an
        odd n: inverse iteration then solves in O(n r**2)
        (:func:`_low_rank`).  Backward errors are still measured on M,
        so a U or a layout that does not describe M can only fail.

    Returns
    -------
    (values, backward_error) : ndarray, float
        Unordered complex eigenvalues and the worst relative backward
        error among the verified ones.
    """
    M = np.asarray(M, dtype=complex if np.iscomplexobj(M) else float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    n = M.shape[0]
    if n == 0:
        raise ValueError("matrix must not be empty")
    if n > MAX_TRUNCATION:
        raise ValueError(f"matrix size {n} exceeds limit {MAX_TRUNCATION}")
    if not np.isfinite(M).all():
        raise VerificationFailure("matrix has non-finite entries")
    try:
        vals = eigvals(M).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        raise VerificationFailure(f"eigensolver did not converge: {exc}") from exc
    op = _dense(M) if U is None else _low_rank(M, np.asarray(U, dtype=float))
    if op.scale == 0.0:
        return vals, 0.0
    picks = np.zeros(n, dtype=bool)
    picks[_sample(n)] = True
    picks[np.argmin(vals.real)] = True
    return vals, _verified(op, vals[picks])


@dataclass(frozen=True)
class _Operator:
    """Size, product, shifted solves and largest column norm (a lower
    bound of the 2-norm) of a matrix B, for inverse iteration on a stack
    of shifts: ``apply(X)`` multiplies each row of an (S, n) stack by B,
    and ``factor(sigmas)`` returns a solver of such a stack, row i with
    B - sigmas[i] I; a row whose shifted matrix is singular comes back
    non-finite."""

    n: int
    apply: Callable
    factor: Callable
    scale: float


def _rows(solves: list, X: np.ndarray) -> np.ndarray:
    """Row i of X solved by ``solves[i]``, one factorization per shift;
    where that raises for a singular matrix the row is nan."""
    Y = np.full(X.shape, np.nan, dtype=complex)
    for i, solve in enumerate(solves):
        with suppress(np.linalg.LinAlgError, ZeroDivisionError):
            Y[i] = solve(X[i])
    return Y


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
    a zero pivot, a singular matrix, raises ZeroDivisionError."""
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


def _woodbury(inverse: Callable, W: np.ndarray, C: np.ndarray) -> Callable:
    """The solver of an (S, n) stack, row i with A_s + W C W^T, A_s =
    A - sigma_i, by the Sherman-Morrison-Woodbury formula (Hager, SIAM
    Rev. 31 (1989) 221-239)

        (A_s + W C W^T)^-1 = A_s^-1 - A_s^-1 W (I + C W^T A_s^-1 W)^-1 C W^T A_s^-1.

    ``inverse`` solves with A_s on an (S, n, k) stack, and broadcasts an
    (n, k) array over the shifts.  The r x r capacitance matrices of all
    shifts go into one stacked solve; a singular one leaves its row nan.
    """
    G = inverse(W)
    cap = np.eye(len(C)) + C @ (W.T @ G)

    def solve(X):
        Y = inverse(X[..., None])
        Z = C @ (W.T @ Y)
        try:
            Z = np.linalg.solve(cap, Z)
        except np.linalg.LinAlgError:
            # a singular capacitance matrix fails the whole stack
            Z = _rows([partial(np.linalg.solve, c) for c in cap], Z)
        return (Y - G @ Z)[..., 0]

    return solve


def _chains(blk: ChainBlock, s: float) -> _Operator:
    """:meth:`ChainBlock.matrix` at s = kappa ell as T + W C W^T, in the
    block's order.  T is tridiagonal: 1 on the diagonal but for l2's
    diagonal on ``low``, and -+ s sqrt(m_1) beside it, which is 0
    between chains, so one LU of T - sigma (:func:`_gttrf`) per shift is
    the LUs of the chains.  C is l2 off its diagonal, which links chains
    only, at its nonzero rows, the hubs, at most one per chain, and W
    holds the unit columns at the hubs; :func:`_woodbury` adds C, with
    the chain LUs solving each column.
    """
    m1, C = blk.m1, blk.l2 - np.diag(np.diagonal(blk.l2))
    on = C.any(axis=1)
    hubs, C = blk.low[on], C[np.ix_(on, on)]
    # column j of ab holds column j of T: ab[0] above, ab[1] on, ab[2] below the diagonal
    w = s * np.sqrt(m1)
    ab = np.array([-w, np.ones_like(w), np.roll(w, -1)])
    ab[1, blk.low] = np.diagonal(blk.l2)
    col = (ab**2).sum(axis=0)
    col[hubs] += (C**2).sum(axis=0)
    W = np.equal.outer(np.arange(len(m1)), hubs).astype(float)

    def apply(X):
        Y = ab[1] * X
        Y[:, 1:] += ab[2, :-1] * X[:, :-1]
        Y[:, :-1] += ab[0, 1:] * X[:, 1:]
        Y[:, hubs] += X[:, hubs] @ C.T
        return Y

    def lu(sigma):
        dl, d, du = (ab[2, :-1] + 0j).tolist(), (ab[1] - sigma).tolist(), (ab[0, 1:] + 0j).tolist()
        du2, swap = _gttrf(dl, d, du)
        # an (n, k) array, one column at a time
        return lambda X: np.array([_gttrs(dl, d, du, du2, swap, x) for x in X.T.tolist()]).T

    def factor(sigmas):
        lus = [lu(sigma) for sigma in sigmas]
        return _woodbury(lambda X: _rows(lus, np.broadcast_to(X, (len(lus), *X.shape[-2:]))), W, C)

    return _Operator(len(m1), apply, factor, float(np.sqrt(col.max())))


def _dense(B: np.ndarray) -> _Operator:
    def solve(sigma, x):
        # shifted on demand: one n x n copy at a time, however many shifts
        shifted = B.astype(complex)
        shifted.flat[:: len(B) + 1] -= sigma
        return np.linalg.solve(shifted, x)

    def factor(sigmas):
        return partial(_rows, [partial(solve, sigma) for sigma in sigmas])

    return _Operator(len(B), lambda X: X @ B.T, factor, float(np.linalg.norm(B, axis=0).max()))


def _low_rank(M: np.ndarray, U: np.ndarray) -> _Operator:
    """M = D - U U^T, solved by :func:`_woodbury` with W = U and C = -I.
    D = M + U U^T is read, as :func:`_reduce` lays it out, at its 2 x 2
    blocks on rows (2k, 2k + 1), two neighbouring nodes 0 forming a
    diagonal one, and a 1 x 1 last row when n is odd.  (D - sigma)^-1
    is an (S, n) array on each of its three diagonals: each block
    [[p, q], [t, w]] is inverted in closed form, its determinant taken
    as (z - root) (z + root), z = sigma - (p + w) / 2 and root**2 =
    ((p - w) / 2)**2 + q t, so that it keeps its accuracy where sigma
    nears an eigenvalue of the block.  A sigma that is an eigenvalue of
    D to the last bit, such as 1 + i s x_j, makes its row of the solve
    non-finite, and :func:`_backward_errors` shifts off it.  The product
    and the scale are those of the dense M.
    """
    n = len(M)
    # the rows (even, odd) of the 2 x 2 blocks, and the 1 x 1 last row of an odd n
    ev, od, lone = slice(0, n - 1, 2), slice(1, n, 2), slice(n - n % 2, n)
    uu = np.einsum("ij,ij->i", U[:-1], U[1:])[::2]
    diag = np.diagonal(M) + np.einsum("ij,ij->i", U, U)
    q, t = np.diagonal(M, 1)[::2] + uu, np.diagonal(M, -1)[::2] + uu
    mid = (diag[ev] + diag[od]) / 2
    root = np.sqrt((((diag[ev] - diag[od]) / 2) ** 2 + q * t).astype(complex))

    def factor(sigmas):
        sigma = sigmas[:, None]
        a = diag - sigma
        z = sigma - mid
        det = (z - root) * (z + root)
        # (D - sigma)^-1 on, above and below the diagonal, one row per shift
        e = np.empty(a.shape, dtype=complex)
        e[:, ev], e[:, od], e[:, lone] = a[:, od] / det, a[:, ev] / det, 1.0 / a[:, lone]
        eu, el = -q / det, -t / det

        def inverse(Y):
            out = e[..., None] * Y
            out[:, ev] += eu[..., None] * Y[..., od, :]
            out[:, od] += el[..., None] * Y[..., ev, :]
            return out

        return _woodbury(inverse, U, -np.eye(U.shape[1]))

    return _Operator(n, lambda X: X @ M.T, factor, float(np.linalg.norm(M, axis=0).max()))


def _verified(op: _Operator, lams) -> float:
    """The worst relative backward error of the shifts lams on op; above
    _TOL it raises :class:`VerificationFailure`."""
    err = float(_backward_errors(op, lams).max())
    if not err <= _TOL:
        raise VerificationFailure(f"backward error {err:.3e} exceeds {_TOL:.1e}")
    return err


def _start(n: int) -> np.ndarray:
    """The start of inverse iteration in dimension n, shared by every
    verified pair: frac(j g) - 1/2 for j = 1, ..., n, g = (sqrt 5 - 1) / 2,
    a fixed deterministic vector spread over (-1/2, 1/2).  A backward
    error certifies its pair whatever the start, so none is drawn."""
    return (np.arange(1, n + 1) * 0.6180339887498949 % 1.0 - 0.5).astype(complex)


def _backward_errors(op: _Operator, lams) -> np.ndarray:
    """||B x - lam x|| / (scale ||x||) for each shift lam, with x from two
    steps of inverse iteration from :func:`_start`, all shifts as one
    stack.  The stack is factored once, at lam + eps scale: lam is often
    an eigenvalue to the last bit (1 + i s x_j itself), and any vector
    certifies lam through its residual, which is still measured at lam.
    A row whose iterate is not finite, as where lam + eps scale lands on
    the 1 of a node 0 to the last bit, is redone at lam + 2 eps scale."""
    lams = np.asarray(lams, dtype=complex)
    X = np.full((len(lams), op.n), np.nan, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in (1.0, 2.0):
            redo = ~np.isfinite(X).all(axis=1)
            if not redo.any():
                break
            solve = op.factor(lams[redo] + step * _EPS * op.scale)
            Z = np.tile(_start(op.n), (redo.sum(), 1))
            for _ in range(2):
                Y = solve(Z)
                # near an eigenvalue Y can be so large that its norm overflows
                Y /= np.abs(Y).max(axis=1, keepdims=True)
                Z = Y / np.linalg.norm(Y, axis=1, keepdims=True)
            X[redo] = Z
    return np.linalg.norm(op.apply(X) - lams[:, None] * X, axis=1) / op.scale


@dataclass(frozen=True)
class _Reduced:
    """A chain block in the real form of its chains' eigenbasis, deflated
    (:func:`_reduce`).

    Kept mirror pair k, x_j > 0 and x_j' = -x_j, is row 2k (its even
    vector e) and row 2k + 1 (its odd vector o) of the real form, and
    the kept nodes 0 follow, one row each, len(V) - 2 len(x) of them.
    ``x`` holds x_j for each pair, ``V`` the real factor and ``base``
    the part I - V V^T that is the same for every kappa.
    """

    block: ChainBlock
    x: np.ndarray
    V: np.ndarray
    base: np.ndarray = field(repr=False)

    def matrix(self, s: float) -> np.ndarray:
        """The real form B - V V^T at s = kappa ell: ``base`` with -s x_j
        at (e, o) and s x_j at (o, e) of each pair, where V V^T is 0."""
        M = self.base.copy()
        e = 2 * np.arange(len(self.x))
        M[e, e + 1] -= s * self.x
        M[e + 1, e] += s * self.x
        return M


def _eigenbasis(block: ChainBlock):
    """The block in the eigenbasis of its chains, for every kappa.

    Each chain's Jacobi matrix of v_1 is diagonalized by the
    Gauss-Hermite rule of its length: nodes x_j, and eigenvectors
    with components Q[m, j] = sqrt(w_j / sqrt(2 pi)) phi_m(x_j).
    I - L2 is the orthogonal projector W W^T onto the block's share
    of the conserved moments.  So with C the block of C_kappa before
    the phase T, Q^T C Q is

        diag(1 + i s x) - U U^T,    U = Q^T W,  s = kappa ell,

    a diagonal minus an update of rank at most d + 2.  W lives on
    the few ``low`` positions, so U needs phi_m at the nodes only
    for the m_1 found there.

    Returns
    -------
    (x, U) : ndarray, ndarray
        The nodes of all chains, concatenated, and U with one row
        per node; ||U||_2 <= 1.
    """
    # a projector's eigenvalues are 0 and 1
    vals, vecs = np.linalg.eigh(np.eye(len(block.low)) - block.l2)
    W = vecs[:, vals > 0.5]
    m1 = block.m1[block.low]
    chain = np.repeat(np.arange(len(block.chains)), block.chains)[block.low]
    xs, us = [], []
    for j, n in enumerate(block.chains):
        x, w = gauss_hermite(n)
        on = chain == j
        phi = hermite_phi(int(m1[on].max(initial=0)), x)[m1[on]]
        xs.append(x)
        us.append(np.sqrt(w / SQRT2PI)[:, None] * (phi.T @ W[on]))
    return np.concatenate(xs), np.vstack(us)


def _reduce(block: ChainBlock) -> _Reduced:
    """The real form B - V V^T of a block (see the module docstring),
    without the mirror pairs and nodes 0 whose squared norms in U sum to
    at most eps**2, dropped whole, the smallest first.

    Node n - 1 - j of a chain of n is the mirror x_j' = -x_j of node j,
    and each column of U is even or odd under j -> j'; both hold to the
    last bit and are checked.  With E the dropped rows of U and
    ||U||_2 <= 1, setting them to zero changes U U^T by at most
    2 ||E|| + ||E||**2 <= 3 eps in the 2-norm, a backward perturbation
    at the level of rounding.  The perturbed matrix has the exact
    eigenvalues 1 +- i s x_j for each dropped pair and 1 for a dropped
    node 0, with real part 1, and the rest forms the reduced block.
    """
    x, U = _eigenbasis(block)
    mirror = np.arange(len(x)) + np.repeat(block.chains, block.chains) - 1 - 2 * block.m1
    parity = (U[mirror] == U).all(axis=0) | (U[mirror] == -U).all(axis=0)
    if not (np.array_equal(x[mirror], -x) and parity.all()):
        raise VerificationFailure("the eigenbasis of a chain block is not mirror-symmetric")
    norms = np.einsum("ij,ij->i", U, U)
    units = np.flatnonzero(x >= 0)
    weight = norms[units] + np.where(x[units] > 0, norms[mirror[units]], 0.0)
    order = np.argsort(weight, kind="stable")
    kept = np.ones(len(units), dtype=bool)
    kept[order[np.cumsum(weight[order]) <= _EPS**2]] = False
    kept = units[kept]
    pairs, single = kept[x[kept] > 0], kept[x[kept] == 0]
    k = len(pairs)
    V = np.empty((2 * k + len(single), U.shape[1]))
    V[: 2 * k : 2] = (U[pairs] + U[mirror[pairs]]) / math.sqrt(2.0)
    V[1 : 2 * k : 2] = (U[pairs] - U[mirror[pairs]]) / math.sqrt(2.0)
    V[2 * k :] = U[single]
    return _Reduced(block, x[pairs], V, np.eye(len(V)) - V @ V.T)


def _split(d: int, N: int):
    """The distinct blocks of the tensor-basis generators on which L2 is
    not the identity, reduced once for every kappa; no operator of size
    N is assembled.  Blocks whose ``chains``, ``m1``, ``low`` and ``l2``
    are equal are one matrix, with one spectrum, so only the first of
    them in the order of :func:`chain_blocks` is kept: in 3D the shear
    chains with tails e_2 and e_3, whenever their lengths agree."""
    kept = []
    for blk in chain_blocks(d, N):
        key = (blk.chains, blk.m1, blk.low, blk.l2)
        if not any(all(map(np.array_equal, key, k)) for k, _ in kept):
            kept.append((key, blk))
    return [_reduce(blk) for _, blk in kept]


def _mode_gap(reduced, kappa: float, L: float):
    """Smallest real part over the spectrum of C_kappa on a torus of
    length L, and the worst relative backward error among the verified
    pairs."""
    s = kappa * (2.0 * math.pi / L)
    if s == 0:
        # the homogeneous mode relaxes at the collision rate on the
        # complement of the conserved moments
        return 1.0, 0.0
    # real parts of order 1 are resolved to about eps s x_max against the
    # imaginary parts, and a backward error relative to s x_max cannot
    # see them lost; long before s x_j or s sqrt(m_1) could overflow
    top = s * max(float(r.x.max(initial=0.0)) for r in reduced)
    if not _EPS * top <= _TOL:
        raise ValueError(
            f"mode modulus kappa {kappa!r} on torus length {L!r}: eps kappa ell x_max ="
            f" {_EPS * top:.1e} exceeds {_TOL:.0e}, so the real parts are lost to rounding"
        )
    # the chains outside the blocks and the deflated rows have real parts
    # exactly 1, and L2 <= I bounds every real part by 1
    gap, worst = 1.0, 0.0
    for r in reduced:
        vals, err = complex_eigenvalues(r.matrix(s), U=r.V)
        p = np.argmin(vals.real)
        # the pair that sets the block's minimum, on the block itself
        worst = max(worst, err, _verified(_chains(r.block, s), vals[p : p + 1]))
        gap = min(gap, float(vals[p].real))
    return gap, worst


def _check_inputs(d: int, L: float, kappas, Ns) -> None:
    _check_length(L)
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
    reduced = _split(d, N)
    entries, worst = [], 0.0
    for kappa in kappas:
        g, err = _mode_gap(reduced, kappa, L)
        entries.append((kappa, N, g))
        worst = max(worst, err)
    kappa, _, gap = entries[int(np.argmin([g for _, _, g in entries]))]
    return GapReport(
        d=d, L=L, entries=tuple(entries), gap=gap, argmin_kappa=kappa, backward_error=worst
    )


@dataclass(frozen=True)
class ConvergenceStudy:
    """Gap of one mode across truncations, for resolution checks.

    ``entries`` holds (N, gap) pairs in the order requested; a Galerkin
    truncation does not promise that they converge monotonically.
    ``backward_error`` is the worst relative backward error among the
    verified eigenpairs.
    """

    d: int
    L: float
    kappa: float
    entries: tuple
    backward_error: float

    def rows(self):
        """Entries as plain tuples, for tabular output."""
        return [(n, g) for n, g in self.entries]


def convergence_study(d: int, L: float, kappa: float, N_list) -> ConvergenceStudy:
    """Gap of one mode across truncations."""
    kappa = float(kappa)
    Ns = list(N_list)
    _check_inputs(d, L, [kappa], Ns)
    out, worst = [], 0.0
    for N in Ns:
        g, err = _mode_gap(_split(d, N), kappa, L)
        out.append((N, g))
        worst = max(worst, err)
    return ConvergenceStudy(d=d, L=L, kappa=kappa, entries=tuple(out), backward_error=worst)
