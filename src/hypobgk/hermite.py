"""Hermite velocity basis: indexing, evaluation, quadrature, basis changes.

The velocity basis in one dimension is

    g_m(v) = (2 pi m!)**(-1/2) H_m(v) exp(-v**2/2),

with H_m the probabilists' Hermite polynomials.  These functions are
orthonormal with respect to the inverse-Gaussian weight
sqrt(2 pi) exp(v**2/2) dv, and g_0 is the centered unit Gaussian.
Multivariate basis functions are tensor products indexed by multi-indices
m in N^d, flattened in a graded order (total degree first).

Two variants of the degree-two level are supported for d in {2, 3}: the
plain tensor products, and an "energy" recombination that rotates the
diagonal second-order functions so that a single basis function carries
the kinetic energy moment.  The rotation is the involutive orthogonal
matrix returned by :func:`basis_change_matrix`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

SQRT2PI = math.sqrt(2.0 * math.pi)


#: smallest truncation of each velocity dimension.  In 2D and 3D it
#: holds the whole degree-two level, on which the collision projector
#: acts.  In 1D that level ends at N = 3, ``sim._couplings`` needs N >= 4
#: for the entropy couplings of m = 0..3, and transport carries them to
#: m = 4, into the 1D dissipation block of size 5
MIN_N = {1: 5, 2: 6, 3: 10}

_VARIANTS = ("tensor", "energy")


def _check_dim(d: int) -> None:
    """Reject a dimension that is not an integer (a bool is not) or not in MIN_N."""
    _check_int(d, "dimension", min(MIN_N))
    if d not in MIN_N:
        raise ValueError(f"dimension must be one of {tuple(MIN_N)}, got {d!r}")


def _check_int(value, name: str, low: int) -> None:
    """Reject a count that is not an int or a numpy integer, is a bool, or is below low."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _check_variant(d: int, variant: str) -> None:
    _check_dim(d)
    if variant not in _VARIANTS:
        raise ValueError(f"unknown basis variant {variant!r}")


def lex_index(m, d: int | None = None) -> int:
    """Flat index of a multi-index in the graded ordering.

    Multi-indices are sorted by total degree.  Within one degree the 2D
    order is by increasing second component; the 3D order is by
    decreasing first component, then decreasing second component.

    Parameters
    ----------
    m : int or sequence of int
        Multi-index; a bare int is treated as one-dimensional.
    d : int, optional
        Expected dimension, checked against ``len(m)`` when given.

    Returns
    -------
    int
        Position in the flat ordering, starting at 0.
    """
    m = _components(m)
    if d is not None:
        _check_dim(d)
        if d != len(m):
            raise ValueError(f"multi-index {m} does not have dimension {d}")
    return _position(m)


def _components(m) -> tuple:
    """The multi-index m as a tuple of ints, each component checked to be
    a nonnegative integer; a bare int or 0-d array is one-dimensional,
    and a 0-d array, bare or as a component, is read as its scalar."""
    m = tuple(m) if np.ndim(m) else (m,)
    m = tuple(np.asarray(c)[()] if np.ndim(c) == 0 else c for c in m)
    for c in m:
        _check_int(c, "multi-index component", 0)
    _check_dim(len(m))
    return tuple(int(c) for c in m)


def _position(m):
    """:func:`lex_index` without its checks; components that are integer
    arrays of one shape give the positions of many multi-indices."""
    n = sum(m)
    if len(m) == 1:
        return n
    if len(m) == 2:
        return n * (n + 1) // 2 + m[1]
    offset = n * (n + 1) * (n + 2) // 6
    q = n - m[0]
    return offset + q * (q + 1) // 2 + (q - m[1])


def multi_index(i: int, d: int):
    """Inverse of :func:`lex_index`: the i-th multi-index in dimension d."""
    _check_int(i, "flat index", 0)
    _check_dim(d)
    if d == 1:
        return (i,)
    if d == 2:
        n = 0
        while (n + 1) * (n + 2) // 2 <= i:
            n += 1
        m2 = i - n * (n + 1) // 2
        return (n - m2, m2)
    n = 0
    while (n + 1) * (n + 2) * (n + 3) // 6 <= i:
        n += 1
    r = i - n * (n + 1) * (n + 2) // 6
    q = 0
    while (q + 1) * (q + 2) // 2 <= r:
        q += 1
    s = r - q * (q + 1) // 2
    m1 = n - q
    m2 = q - s
    return (m1, m2, n - m1 - m2)


def _degree_two(d: int) -> slice:
    """Flat positions of the degree-two level in dimension d: its
    d (d + 1) / 2 indices follow the 1 + d of degree 0 and 1."""
    return slice(1 + d, 1 + d + d * (d + 1) // 2)


@lru_cache(maxsize=64)
def _index_table(d: int, N: int):
    return tuple(multi_index(i, d) for i in range(N))


def hermite_phi(nmax: int, v):
    """Normalized probabilists' Hermite polynomials H_m(v)/sqrt(m!).

    Evaluated by the stable recurrence
    phi_{m+1} = (v phi_m - sqrt(m) phi_{m-1}) / sqrt(m+1).

    Parameters
    ----------
    nmax : int
        Highest degree.
    v : array_like
        Evaluation points.

    Returns
    -------
    ndarray
        Shape ``(nmax + 1,) + shape(v)``; row m holds phi_m(v).
    """
    _check_int(nmax, "nmax", 0)
    v = np.asarray(v, dtype=float)
    out = np.empty((nmax + 1,) + v.shape, dtype=float)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = v
    for m in range(1, nmax):
        out[m + 1] = (v * out[m] - math.sqrt(m) * out[m - 1]) / math.sqrt(m + 1)
    return out


def eval_basis(m, v, variant: str = "tensor", weighted: bool = True):
    """Evaluate one basis function at velocity points.

    Parameters
    ----------
    m : int or sequence of int
        Multi-index of the basis function.
    v : array_like
        Points; for d > 1 the last axis holds the velocity components.
    variant : str
        ``"tensor"`` or ``"energy"``.
    weighted : bool
        If True (default) include the Gaussian factor, i.e. return
        g_m(v).  If False return only the polynomial part g_m / g_0,
        which is better behaved for large arguments.

    Returns
    -------
    ndarray or float
        Values with the component axis consumed.
    """
    m = _components(m)
    d = len(m)
    _check_variant(d, variant)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if d == 1 and v.shape[-1] != 1:
        v = v[..., np.newaxis]
    if v.shape[-1] != d:
        raise ValueError(f"expected velocity components along last axis of size {d}")

    if variant == "energy" and d >= 2 and sum(m) == 2 and max(m) == 2:
        # Degree-two diagonal functions recombine among themselves; read the
        # mixing row off the orthogonal block of the degree-two level.
        start = _degree_two(d).start
        row = _energy_block(d)[lex_index(m) - start]
        block = [tuple(2 if j == a else 0 for j in range(d)) for a in range(d)]
        vals = sum(
            row[lex_index(b) - start] * eval_basis(b, v, "tensor", weighted) for b in block
        )
        return vals if vals.shape else float(vals)

    polys = [hermite_phi(c, v[..., j])[c] for j, c in enumerate(m)]
    out = np.ones(v.shape[:-1], dtype=float)
    for p in polys:
        out = out * p
    if weighted:
        out = out * np.exp(-0.5 * np.sum(v * v, axis=-1)) / SQRT2PI ** d
    return out if out.shape else float(out)


def _hermite_top(n: int, x: np.ndarray):
    """phi_n(x) and phi_{n-1}(x), both divided by 2**e, and the exponent e.

    Runs the recurrence of :func:`hermite_phi` keeping only the last two
    rows, and every 32 steps divides both by the power of two that
    brings the larger to [0.5, 1).  The rescaling is exact, so the
    ratio phi_n / phi_{n-1} is unaffected, and values beyond the
    floating-point range stay representable through e.
    """
    p0 = np.ones_like(x)
    p1 = x.copy()
    e = np.zeros(x.shape, dtype=int)
    for m in range(1, n):
        p0, p1 = p1, (x * p1 - math.sqrt(m) * p0) / math.sqrt(m + 1)
        if m % 32 == 0:
            _, k = np.frexp(np.maximum(np.abs(p0), np.abs(p1)))
            p0, p1, e = np.ldexp(p0, -k), np.ldexp(p1, -k), e + k
    return p1, p0, e


def gauss_hermite(n: int):
    """Nodes and weights for the weight exp(-v**2/2) on the real line.

    The nodes are the zeros of phi_n, the eigenvalues of the Jacobi
    matrix J of the recurrence.  J links even degrees to odd ones, so
    J**2 splits into its even and odd rows, and the odd block, of size
    n // 2, is a symmetric tridiagonal matrix whose eigenvalues are the
    squared positive nodes (Golub and Welsch, Math. Comp. 23, 1969).
    Its eigenvalues give the nodes to about machine precision in
    absolute terms, except near 0 where the square root halves the
    digits; one Newton step on phi_n (with phi_n' = sqrt(n) phi_{n-1})
    brings them to the accuracy of the recurrence, since Newton's error
    is quadratic in the error of its start.  The weights are the
    Christoffel numbers

        w_i = sqrt(2 pi) / (n phi_{n-1}(x_i)**2),

    which keep their relative accuracy down to the smallest tail
    weight, unlike squared eigenvector components (Townsend, Trogdon
    and Olver, IMA J. Numer. Anal. 36, 2016).  phi_{n-1} is carried
    from the Newton start to the polished node to first order, through
    the identity phi_{n-1}' = x phi_{n-1} - sqrt(n) phi_n, so one pass
    of the recurrence serves both.  Nodes and weights are then made
    exactly symmetric.  The weights sum to sqrt(2 pi); weights below
    the floating-point range are 0.0.  The rule is built once per n,
    and the arrays returned are read-only.

    Parameters
    ----------
    n : int
        Number of nodes.

    Returns
    -------
    tuple of ndarray
        ``(nodes, weights)``, nodes ascending and symmetric about 0.
    """
    _check_int(n, "number of nodes", 1)
    return _gauss_hermite(n)


@lru_cache(maxsize=64)
def _gauss_hermite(n: int):
    if n == 1:
        nodes, weights = np.zeros(1), np.array([SQRT2PI])
    else:
        # rows and columns 1, 3, 5, ... of J**2: (J**2)_ii = i + (i + 1)
        # for i < n - 1 and n - 1 for i = n - 1, and (J**2)_{i, i+2} =
        # sqrt((i + 1) (i + 2))
        i = np.arange(1.0, 2 * (n // 2), 2.0)
        diag = np.where(i < n - 1, 2.0 * i + 1.0, i)
        off = np.sqrt((i[:-1] + 1.0) * (i[:-1] + 2.0))
        square = np.diag(diag)
        square.flat[1 :: len(i) + 1] = square.flat[len(i) :: len(i) + 1] = off
        pos = np.sqrt(np.clip(np.linalg.eigvalsh(square), 0.0, None))
        nodes = np.concatenate([-pos[::-1], np.zeros(n % 2), pos])
        p, q, e = _hermite_top(n, nodes)
        step = -p / (math.sqrt(n) * q)
        q = q + (nodes * q - math.sqrt(n) * p) * step
        nodes = nodes + step
        weights = np.ldexp(SQRT2PI / (n * q * q), -2 * e)
        nodes, weights = 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _energy_block(d: int) -> np.ndarray:
    """Orthogonal involution acting on the degree-two level."""
    if d == 2:
        s = 1.0 / math.sqrt(2.0)
        return np.array(
            [
                [s, 0.0, s],
                [0.0, 1.0, 0.0],
                [s, 0.0, -s],
            ]
        )
    a = 1.0 / math.sqrt(3.0)
    b = (1.0 + a) / 2.0
    c = (1.0 - a) / 2.0
    B = np.eye(6)
    # rows/cols ordered (2,0,0),(1,1,0),(1,0,1),(0,2,0),(0,1,1),(0,0,2)
    B[0] = [a, 0.0, 0.0, a, 0.0, a]
    B[3] = [a, 0.0, 0.0, -b, 0.0, c]
    B[5] = [a, 0.0, 0.0, c, 0.0, -b]
    return B


def basis_change_matrix(d: int, N: int) -> np.ndarray:
    """Orthogonal matrix mapping tensor to energy coordinates.

    The matrix is symmetric and involutive; it differs from the identity
    only on the degree-two diagonal functions.  Coefficient vectors
    transform as ``h_energy = S @ h_tensor`` and operators as
    ``A_energy = S @ A_tensor @ S``.

    Parameters
    ----------
    d : int
        2 or 3.
    N : int
        Matrix size; must cover the full degree-two level.

    Returns
    -------
    ndarray
        Dense ``(N, N)`` orthogonal matrix.
    """
    _check_dim(d)
    if d not in (2, 3):
        raise ValueError("basis change is defined for d = 2 or 3")
    level = _degree_two(d)
    _check_int(N, "N", level.stop)
    S = np.eye(N)
    S[level, level] = _energy_block(d)
    return S
