"""Closed-form exponential decay certificates.

For each spatial mode modulus kappa, the transformed dissipation matrix

    D(kappa, alpha) = C_kappa* P + P C_kappa,      P = bgk_P(d, kappa, alpha),

differs from 2 I only on a leading block of size 5, 11 or 21 (for
d = 1, 2, 3).  Positivity of D is decided through an explicit chain of
principal minors of that block; the smallest minor in the chain yields,
through an arithmetic-geometric mean bound on the lowest eigenvalue, a
computable decay rate

    mu(alpha) = prefactor * delta_last(kappa=1, alpha) / (2 (1 + theta(alpha))),

valid for every kappa >= 1 because each minor factor is smallest at
kappa = 1 on the admissible range of alpha.  The certificate maximizes
mu over alpha in (0, alpha_plus), where alpha_plus is the positivity
threshold of the whole chain.

Both are polynomial roots, nothing is sampled on a grid.  Each factor
of the 2D and 3D chains is one table of coefficients in u = 1 /
kappa**2, alpha and ell.  At kappa = 1 it is a polynomial of degree at
most 5 in alpha; alpha_plus is the smallest positive root, with a sign
change, among these polynomials and their derivatives in u (in 1D a
closed form).  All of them are solved by one stacked eigensolve of
companion matrices, and each root is polished by Newton steps.  The
maximizer alpha_star is the root of the numerator of mu' in (0,
alpha_plus) with the largest mu, from one more companion matrix.  For a
grid of torus lengths (``certify_many``, the ``sweep-L`` curve) the
companion matrices of all lengths go through the same eigensolves.

One rounding rule holds for a number and for an array alike: an
integer power is the chain of products x * x * ... * x from the left,
and a product of polynomials sums its shifted products in a fixed order.
So each step is one correctly rounded IEEE product or sum, and nothing
goes through the C library's pow, numpy's power kernel or BLAS.

Minor conventions: the one-dimensional block is ordered so that the
natural chain runs from the lower-right corner, hence trailing minors;
the two- and three-dimensional chains use leading minors.

The verification sweep checks D - 2 mu P >= 0 on the first moduli in
the phased basis T = diag(i**|m|), where it is real and equals
G0 + G1 / kappa (:func:`_dissipation_terms`): one real eigensolve of the
leading block per modulus.  :func:`assemble_D_block` is the dense oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .ansatz import bgk_P
from .gap import VerificationFailure
from .hermite import _check_dim, _check_int
from .operators import _check_length, _phase, modal_generator, mode_moduli, operator_pair

R2 = math.sqrt(2.0)
R3 = math.sqrt(3.0)
R6 = math.sqrt(6.0)

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class MinorTable:
    """Principal minors of the dissipation block at one parameter point.

    ``values[j]`` is the (j+1)-th minor in the chain; ``convention``
    records whether the chain uses leading or trailing submatrices.
    ``p_values`` holds the named scalar factors appearing in the
    closed forms.
    """

    d: int
    kappa: float
    alpha: float
    ell: float
    values: tuple
    p_values: dict
    convention: str


def _minors_1d(kappa: float, alpha: float, ell: float = 1.0) -> MinorTable:
    """Trailing principal minors of the 5x5 block for d = 1."""
    k, a, l = _check_params(kappa, alpha, ell)
    with np.errstate(all="ignore"):
        la = l * a
        b = 1.0 - 3.0 * la
        d2 = 4.0 * b
        d3 = 8.0 * la * (b * b) - 6.0 * (a * a) / (k * k)
        d4 = 2.0 * la * d3
        d5 = (2.0 * la) * (2.0 * la) * d3
    return MinorTable(1, kappa, alpha, ell, (2.0, d2, d3, d4, d5), {}, "trailing")


def _check_params(kappa, alpha, ell):
    """The parameters as numpy floats: overflow and x / 0 do not raise."""
    if not (math.isfinite(kappa) and kappa >= 1):
        raise ValueError(f"mode modulus kappa must be finite and at least 1, got {kappa}")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"coupling amplitude alpha must be finite and nonnegative, got {alpha}")
    if not (math.isfinite(ell) and ell > 0):
        raise ValueError(f"wavenumber scale must be finite and positive, got {ell}")
    return np.array([kappa, alpha, ell], dtype=float)


def _powers(x, n):
    """``x**0, ..., x**(n - 1)`` on a new last axis, each the chain of
    products ``x * x * ... * x`` from the left."""
    x = np.asarray(x, dtype=float)
    return np.multiply.accumulate(np.stack([np.ones_like(x)] + [x] * (n - 1), -1), -1)


@dataclass(frozen=True)
class _Factor:
    """One factor of a 2D or 3D minor, as a table of coefficients.

    The factor is ``sum_{j,k} rows[j, k] u**j ell**(m + k - 2 j) alpha**k``
    with ``u = 1 / kappa**2``, that is ``ell**m F(u / ell**2, ell alpha)``:
    row 0 is the part free of kappa, rows 1 and 2 the coefficients of u
    and u**2.  This table is the one source of the factor: the minors,
    the kappa = 1 slices whose roots are the thresholds, the derivatives
    in u at u = 1 (the "tilde" factors) and the certified rates all read
    it.
    """

    m: int
    rows: np.ndarray

    def __call__(self, kappa, alpha, ell):
        ke = kappa * ell
        v = 1.0 / (ke * ke)
        x = ell * alpha
        value = 0.0
        for c0, c1, c2 in self.rows.T[::-1].tolist():
            value = value * x + (c0 + v * (c1 + v * c2))
        return _powers(ell, self.m + 1)[..., self.m] * value


def _factor(m, *rows):
    table = np.zeros((3, 6))
    for j, row in enumerate(rows):
        table[j, : len(row)] = row
    return _Factor(m, table)


_FACTORS = {
    2: {
        "d5": _factor(1, (4.0, -4.0), (0.0, -1.0)),
        "p6": _factor(1, (2.0, -54.0 / 11.0), (0.0, -2.0)),
        "p7": _factor(2, (22.0, -120.0, 162.0), (0.0, -34.0, 93.0), (0.0, 0.0, 12.0)),
        "p8": _factor(1, (4.0, -6.0, 2.0), (0.0, -1.0)),
        "p9": _factor(
            2,
            (44.0, -262.0, 411.0, -81.0),
            (0.0, -68.0, 198.0, -12.0),
            (0.0, 0.0, 24.0),
        ),
        "p11": _factor(
            2,
            (44.0, -358.0, 963.0, -909.0, 162.0),
            (0.0, -68.0, 294.0, -300.0, -72.0),
            (0.0, 0.0, 24.0),
        ),
    },
    3: {
        "p6": _factor(1, (4.0, -4.0), (0.0, -1.0)),
        "p8": _factor(1, (10.0 / 9.0 * (R2 - 1.0), (2.0 - 3.0 * R2) / 3.0), (0.0, -5.0 / 6.0)),
        "p10": _factor(
            1, (40.0 * (R2 - 1.0), -6.0 * (8.0 * R2 - 6.0), 9.0 * (R2 - 1.0)), (0.0, -30.0, 9.0)
        ),
        "p11": _factor(
            2,
            (480.0 * (R2 - 1.0), 472.0 - 816.0 * R2, 456.0 * R2 - 24.0, 9.0 - 54.0 * R2),
            (0.0, -(216.0 + 144.0 * R2), 672.0 - 72.0 * R2, 54.0 * R2 - 144.0),
            (0.0, 0.0, 108.0, -18.0),
        ),
        "p12": _factor(1, (8.0, -12.0, 4.0), (0.0, -2.0)),
        "p14": _factor(
            2,
            (
                3840.0 * R6 - 3840.0 * R3 + 7680.0 * R2 - 7680.0,
                4192.0 - 6528.0 * R6 + 1856.0 * R3 - 13056.0 * R2,
                11056.0 + 3424.0 * R6 + 6368.0 * R3 + 6864.0 * R2,
                # the cubic coefficient carries plus signs on the radicals:
                # the expanded determinant of the 14x14 submatrix pins it
                -(9348.0 + 336.0 * R6 + 5400.0 * R3 + 624.0 * R2),
                1440.0 - 180.0 * R6 + 828.0 * R3 - 324.0 * R2,
            ),
            (
                0.0,
                -1152.0 * R6 - 1728.0 * R3 - 2304.0 * R2 - 3456.0,
                -576.0 * R6 + 5952.0 * R3 - 1152.0 * R2 + 11760.0,
                360.0 * R6 - 1824.0 * R3 + 720.0 * R2 - 3396.0,
                -108.0 * R6 - 72.0 * R3 - 180.0 * R2 - 144.0,
            ),
            (0.0, 0.0, 864.0 * (R3 + 2.0), -144.0 * (R3 + 2.0)),
        ),
        "p16": _factor(
            2,
            (
                1920.0 * (R2 - 1.0), 928.0 - 3264.0 * R2, 1632.0 * R2 + 3104.0,
                -24.0 * R2 - 2412.0, 216.0 - 144.0 * R2, 27.0,
            ),
            (
                0.0, -576.0 * R2 - 864.0, 2976.0 - 288.0 * R2, 144.0 * R2 - 744.0,
                -36.0 * (R2 + 2.0),
            ),
            (0.0, 0.0, 432.0, -72.0),
        ),
        "p21": _factor(
            2,
            (
                1920.0 * (85.0 * R2 - 109.0), 464416.0 - 417216.0 * R2, 158880.0 * R2 + 38048.0,
                89448.0 * R2 - 353228.0, 95000.0 - 25248.0 * R2, 7707.0,
            ),
            (
                0.0, -14400.0 * R2 - 25056.0, 300768.0 - 130464.0 * R2, 75024.0 * R2 - 175272.0,
                -468.0 * R2 - 2664.0, 2928.0 - 1152.0 * R2,
            ),
            (0.0, 0.0, 6.0 * (4392.0 - 1728.0 * R2), -(4392.0 - 1728.0 * R2)),
        ),
    },
}

#: the last minor of the 2D and 3D chains, the one the certified rate
#: uses: const * ell * alpha**power * (product of the named factors)
_LAST_MINOR = {
    # determinant expansion pins the 2D prefactor at 32 (the chain ratio
    # d11/d10 must approach 2 as alpha -> 0)
    2: (32.0, 4, ("p8", "p11")),
    3: (
        256.0 * (R3 + 2.0) * (24.0 * R2 + 61.0) / (23121.0 * (R3 + 1.0) ** 2),
        5,
        ("p12", "p12", "p21"),
    ),
}


def _last_minor(d, k, a, l):
    const, power, names = _LAST_MINOR[d]
    value = const * l * _powers(a, power + 1)[..., power]
    for name in names:
        value = value * _FACTORS[d][name](k, a, l)
    return value


def _minors_2d(kappa: float, alpha: float, ell: float = 1.0) -> MinorTable:
    """Leading principal minors of the 11x11 block for d = 2."""
    k, a, l = _check_params(kappa, alpha, ell)
    with np.errstate(all="ignore"):
        p = {name: f(k, a, l) for name, f in _FACTORS[2].items()}
        lp, a4, lap = _powers(l, 4), _powers(a, 5)[4], _powers(l * a, 5)
        d1 = 2.0 * lap[1]
        d2 = 4.0 * lap[2]
        d3 = 8.0 * lap[3]
        d4 = 44.0 * lap[4]
        d5 = 22.0 * lp[3] * a4 * p.pop("d5")
        d6 = d5 * p["p6"] / l
        d7 = 2.0 * d5 * p["p7"] / (11.0 * lp[2])
        d8 = 8.0 * l * a4 * p["p7"] * p["p8"]
        d9 = 8.0 * l * a4 * p["p8"] * p["p9"]
        d10 = 2.0 * d9
        d11 = _last_minor(2, k, a, l)
    return MinorTable(
        2, kappa, alpha, ell, (d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11), p, "leading"
    )


def _minors_3d(kappa: float, alpha: float, ell: float = 1.0) -> MinorTable:
    """Leading principal minors of the 21x21 block for d = 3."""
    k, a, l = _check_params(kappa, alpha, ell)
    with np.errstate(all="ignore"):
        p = {name: f(k, a, l) for name, f in _FACTORS[3].items()}
        p6, p11, p12 = p["p6"], p["p11"], p["p12"]
        lp, a5, lap = _powers(l, 6), _powers(a, 6)[5], _powers(l * a, 5)
        w = R2 - 1.0
        d1 = 2.0 * lap[1]
        d2 = 4.0 * w * lap[2]
        d3 = 8.0 * w * lap[3]
        d4 = 16.0 * w * lap[4]
        d5 = (80.0 / 3.0) * w * lp[5] * a5
        d6 = (40.0 / 3.0) * w * lp[4] * a5 * p6
        d7 = (20.0 / 3.0) * w * lp[3] * a5 * (p6 * p6)
        d8 = 12.0 * lp[2] * a5 * (p6 * p6) * p["p8"]
        d9 = 2.0 * d8
        d10 = (4.0 / 3.0) * lp[2] * a5 * (p6 * p6) * p["p10"]
        d11 = (2.0 / 9.0) * l * a5 * (p6 * p6) * p11
        d12 = (2.0 / 9.0) * l * a5 * p6 * p11 * p12
        d13 = (2.0 / 9.0) * l * a5 * p11 * (p12 * p12)
        d14 = l * a5 * (p12 * p12) * p["p14"] / (9.0 * (1.0 + R3) ** 2)
        d15 = 2.0 * d14
        d16 = (8.0 / 9.0) * ((2.0 + R3) / (1.0 + R3) ** 2) * l * a5 * (p12 * p12) * p["p16"]
        d17 = 2.0 * d16
        d18 = 4.0 * d16
        d19 = 8.0 * d16
        d20 = 16.0 * d16
        d21 = _last_minor(3, k, a, l)
    return MinorTable(
        3,
        kappa,
        alpha,
        ell,
        (
            d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11,
            d12, d13, d14, d15, d16, d17, d18, d19, d20, d21,
        ),
        p,
        "leading",
    )


def assemble_D_block(d: int, kappa: float, alpha: float, ell: float = 1.0) -> np.ndarray:
    """The dissipation block C* P + P C, assembled from the operators.

    Builds the operators at a truncation with margin, forms
    C_kappa* P + P C_kappa densely with the closed-form P, verifies that
    it equals 2 I outside the leading block, and returns the block (size
    5, 11 or 21): the oracle of the minor chains and of the sweep.
    """
    _check_params(kappa, alpha, ell)
    spec = chain_spec(d)
    b = spec.block
    pair = operator_pair(d, spec.variant, spec.assembly_N, L=2.0 * math.pi / ell)
    C = modal_generator(pair, kappa)
    P = bgk_P(d, kappa, alpha, pair.N)
    F = C.conj().T @ P + P @ C
    tail = F.copy()
    tail[:b, :b] = 0.0
    tail[b:, b:] -= 2.0 * np.eye(len(F) - b)
    resid = np.abs(tail).max()
    if resid > 1e-10:
        raise VerificationFailure(
            f"dissipation matrix deviates from 2 I outside the block by {resid:.3e}"
        )
    return F[:b, :b]


def _dissipation_terms(d: int, L: float, alpha: float, mu: float):
    """Real symmetric G0, G1 with T^-1 (C* P + P C - 2 mu P) T = G0 + G1 / kappa
    at every modulus kappa, at the assembly truncation.

    T = diag(i**|m|) (:func:`_phase`) makes K = T^-1 (i ell L1) T and
    A = T^-1 P T - I at kappa = 1 real, and leaves L2 alone.  C = kappa K
    + L2 and P = I + A / kappa, so the kappa K terms cancel: G0 = 2 L2 +
    (X + X^T) - 2 mu I with X = A K, and G1 = (Y + Y^T) - 2 mu A with
    Y = L2 A, exactly symmetric as written.
    """
    spec = _CHAINS[d]
    pair = operator_pair(d, spec.variant, spec.assembly_N, L=L)
    t = _phase(d, pair.N)
    P = bgk_P(d, 1.0, alpha, pair.N)
    K, P = (t.conj()[:, None] * M * t for M in (1j * pair.ell * pair.L1, P))
    if K.imag.any() or P.imag.any():
        raise VerificationFailure("the phased operators are not real")
    K, A = K.real, P.real - np.eye(pair.N)
    X = A @ K
    Y = pair.L2 @ A
    G0 = 2.0 * pair.L2 + (X + X.T) - 2.0 * mu * np.eye(pair.N)
    G1 = (Y + Y.T) - 2.0 * mu * A
    return G0, G1


def _sweep(G0: np.ndarray, G1: np.ndarray, b: int, kappas) -> list:
    """``(kappa, min eig of G0 + G1 / kappa)`` per modulus, from the leading
    b x b block and the trailing diagonal of G0; raises VerificationFailure
    unless G0 and G1 vanish exactly elsewhere."""
    n = len(G0)
    floor = float(np.diagonal(G0)[b:].min(initial=np.inf))
    rest = np.stack([G0, G1])
    rest[:, :b, :b] = 0.0
    rest[0, range(b, n), range(b, n)] = 0.0
    if rest.any():
        raise VerificationFailure(
            f"the dissipation terms do not vanish outside the leading {b} x {b} block"
        )
    G0, G1 = G0[:b, :b], G1[:b, :b]
    return [(float(k), min(float(np.linalg.eigvalsh(G0 + G1 / k)[0]), floor)) for k in kappas]


# ---------------------------------------------------------------------------
# polynomial roots


def _polymul(A, B):
    """Products of the polynomials with ascending coefficients in the
    last axes of A and B: the shifted products A * B[..., j] summed in
    the order j = 0, 1, ..."""
    out = np.zeros(A.shape[:-1] + (A.shape[-1] + B.shape[-1] - 1,))
    for j in range(B.shape[-1]):
        out[..., j : j + A.shape[-1]] += A * B[..., j, None]
    return out


def _values(C, x):
    """Values and derivatives at x[..., i, :] of the polynomials with
    ascending coefficients C[..., i, :]."""
    p = np.zeros_like(x)
    dp = np.zeros_like(x)
    # in place: the same operations as dp = dp x + p, p = p x + c
    for k in range(C.shape[-1] - 1, -1, -1):
        c = C[..., k, None]
        dp *= x
        dp += p
        p *= x
        p += c
    return p, dp


def _roots(C, top):
    """Real positive roots of each polynomial, nan in the unused slots.

    ``C[..., :]`` holds the ascending coefficients of one polynomial in a
    variable scaled so that the roots of interest lie in (0, top] and are
    of order one; ``top`` is one number or one per polynomial.  Terms
    negligible on [0, top] at working precision are dropped, and the
    roots of every polynomial come from one stacked companion-matrix
    eigensolve.  A polynomial of lower degree than the stack is completed
    by eigenvalues -1, which the balancing of the eigensolver splits off
    exactly, so the roots of one polynomial do not depend on the others;
    one with a non-finite coefficient has no roots.  Each real positive
    eigenvalue is then polished by a Newton step on the full polynomial.
    """
    *shape, width = C.shape
    C = C.reshape(-1, width)
    rows = len(C)
    size = np.abs(C) * _powers(np.reshape(np.broadcast_to(top, shape), -1), width)
    live = size > _EPS * size.max(axis=1, keepdims=True)
    # a row that underflowed to zeros has no roots
    deg = np.where(live.any(axis=1), width - 1 - np.argmax(live[:, ::-1], axis=1), 0)
    n = max(int(deg.max(initial=0)), 1)
    active = np.arange(n) < deg[:, None]
    # the companion matrices, rows flattened: ones below the diagonal,
    # -1 on it past the degree, the coefficients in column deg - 1
    M = np.zeros((rows, n * n))
    M[:, n :: n + 1] = active[:, 1:]
    M[:, :: n + 1] = np.where(active, 0.0, -1.0)
    r, i = np.nonzero(active)
    M[r, i * n + deg[r] - 1] = -C[r, i] / C[r, deg[r]]
    finite = np.isfinite(M).all(axis=1)
    M[~finite] = 0.0
    z = np.linalg.eigvals(M.reshape(rows, n, n))
    real = (z.real > 0) & (np.abs(z.imag) <= 1e-6 * np.abs(z)) & finite[:, None]
    x = np.where(real, z.real, np.nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p, dp = _values(C, x)
        x = x - p / dp
    return np.where((0 < x) & (x < np.inf), x, np.nan).reshape(*shape, n)


def _sign_changes(C, top):
    """Roots in (0, top] at which each polynomial changes sign.

    The roots of :func:`_roots`, kept where the polynomial takes opposite
    signs halfway to the neighbouring roots.  Returns an array with one
    row per polynomial, sorted along the row, nan in the unused slots.
    """
    x = np.sort(_roots(C, top), axis=-1)
    # eigenvalues that polished onto one root count once
    close = np.diff(x, axis=-1) <= 1e-13 * x[..., 1:]
    x[..., 1:][close] = np.nan
    x = np.sort(x, axis=-1)
    n = x.shape[-1]
    edge = np.zeros(x.shape[:-1] + (1,))
    before = 0.5 * (np.concatenate([edge, x[..., :-1]], axis=-1) + x)
    after = np.concatenate([x[..., 1:], edge + np.nan], axis=-1)
    after = np.where(np.isnan(after), 2.0 * x, 0.5 * (x + after))
    with np.errstate(invalid="ignore", over="ignore"):
        p, _ = _values(C, np.concatenate([before, after], axis=-1))
    flips = np.sign(p[..., :n]) != np.sign(p[..., n:])
    return np.where(flips & (x <= top), x, np.nan)


# ---------------------------------------------------------------------------
# positivity thresholds


def _kappa1(d, l):
    """The factors of the 2D or 3D chain at kappa = 1, in y = alpha / scale.

    Returns ``(scale, G)`` for the wavenumber scales ``l`` (a number or an
    array): ``G[..., f, j, k]`` is the coefficient of ``u**j y**k`` of a
    positive multiple of factor f, so that ``G[..., f, :, :].sum(-2)`` is
    the factor at kappa = 1 and ``G[..., f, 1, :] + 2 G[..., f, 2, :]`` its
    derivative in u there.  The scale 4 ell / (4 ell**2 + 1) is the d5 (2D)
    and p6 (3D) threshold; it keeps every coefficient finite on tori of
    any size.
    """
    l = np.asarray(l, dtype=float)
    q = 4.0 * (l * l)
    scale, s, w = 4.0 * l / (q + 1.0), q / (q + 1.0), 4.0 / (q + 1.0)
    s, w = (_powers(v[..., None], n) for v, n in ((s, 6), (w, 3)))
    return scale, _TABLES[d] * w[..., _J] * s[..., _K_J]


_TABLES = {d: np.stack([f.rows for f in factors.values()]) for d, factors in _FACTORS.items()}
#: for entry (j, k) of a table: j and max(k - j, 0) (the tables vanish
#: where k < j)
_J = np.arange(3)[:, None]
_K_J = np.maximum(np.arange(6) - _J, 0)


def _thresholds(d: int, l) -> dict:
    """First sign change in alpha of each factor of the 2D or 3D chain.

    Key ``name`` is the factor at kappa = 1.  For a factor quadratic in
    u, key ``name + "t"`` is where its u**2 coefficient or its
    derivative in u at u = 1 changes sign: below both the factor is
    convex in u with its minimum over u in (0, 1] at u = 1, that is at
    kappa = 1.  A factor linear in u keeps a negative slope on the
    admissible range.  Every root comes from one stacked eigensolve, for
    one wavenumber scale ``l`` or an array of them (the values then are
    arrays of the shape of ``l``); roots beyond ten times the scale of
    :func:`_kappa1` count as none.
    """
    scale, G = _kappa1(d, l)
    names = list(_FACTORS[d])
    curved = np.flatnonzero(_TABLES[d][:, 2].any(axis=1))
    rows = np.zeros(np.shape(scale) + (len(names) + 2 * len(curved), 6))
    rows[..., : len(names), :] = G.sum(-2)
    # the slope and the u**2 coefficient, divided by alpha and alpha**2
    rows[..., len(names) :: 2, :5] = (G[..., curved, 1, :] + 2.0 * G[..., curved, 2, :])[..., 1:]
    rows[..., len(names) + 1 :: 2, :4] = G[..., curved, 2, 2:]
    roots = _sign_changes(rows, 10.0)
    first = scale[..., None] * np.fmin.reduce(roots, axis=-1, initial=np.inf)
    t = {name: first[..., i] for i, name in enumerate(names)}
    for i, c in enumerate(curved):
        t[names[c] + "t"] = first[..., len(names) + 2 * i : len(names) + 2 * i + 2].min(-1)
    return t


def _alpha_plus(d: int, l):
    """Amplitude threshold below which every minor of the chain is
    positive for all kappa >= 1, at one wavenumber scale or an array of
    them; 0 or nan where powers of l leave the floating-point range."""
    with np.errstate(all="ignore"):
        if d == 1:
            # the smaller root of 72 l**3 a**2 - (48 l**2 + 6) a + 8 l, in
            # the form 2 C / (B + sqrt(disc)) that does not cancel on large
            # tori
            l2 = l * l
            return 8.0 * l / (3.0 * (1.0 + 8.0 * l2 + np.sqrt(1.0 + 16.0 * l2)))
        # theta alpha < 1 keeps P positive definite
        t = _thresholds(d, l)
    return np.minimum.reduce([np.full(np.shape(l), 1.0 / _CHAINS[d].theta), *t.values()])


# ---------------------------------------------------------------------------
# certified rates


def _mu_1d(a, l):
    b, c = 1.0 - 3.0 * l * a, 1.0 - l * a
    d3 = 8.0 * l * a * (b * b) - 6.0 * (a * a)
    return d3 / (8.0 * (c * c) * (1.0 + a * _CHAINS[1].theta))


def _mu_chain(d, a, l):
    spec = _CHAINS[d]
    return spec.amgm * _last_minor(d, 1.0, a, l) / (2.0 * (1.0 + spec.theta * a))


@dataclass(frozen=True)
class ChainSpec:
    """What the certificate of velocity dimension d is built from; the
    one public name of each of these quantities is a field of
    ``chain_spec(d)``.

    Attributes
    ----------
    minors : callable
        ``minors(kappa, alpha, ell)``, the closed-form minor chain, as a
        :class:`MinorTable`.
    alpha_plus : callable
        ``alpha_plus(ell)``, the positivity threshold of the chain, for a
        number ell or elementwise for an array; in 1D the closed form
        8 ell / (3 (1 + 8 ell**2 + sqrt(1 + 16 ell**2))), where the third
        trailing minor at kappa = 1 vanishes.
    mu : callable
        ``mu(alpha, ell)``, the certified rate at kappa = 1.
    theta : float
        Energy-norm distortion slope of the transformation: the extreme
        eigenvalues of P at kappa = 1 are 1 +- theta * alpha.
    amgm : float or None
        Arithmetic-geometric mean prefactor (n / tr D)**n of the lowest
        eigenvalue bound lambda_min >= (n / tr D)**n det D, for d >= 2.
    block : int
        Size n of the leading block of D that differs from 2 I.
    variant : str
        Basis variant in which the certificate is written.
    assembly_N : int
        Truncation with margin at which D is assembled and verified.
    """

    minors: Callable
    alpha_plus: Callable
    mu: Callable
    theta: float
    amgm: float | None
    block: int
    variant: str
    assembly_N: int


_CHAINS = {
    d: ChainSpec(minors, partial(_alpha_plus, d), mu, theta, amgm, block, variant, assembly_N)
    for d, minors, mu, theta, amgm, block, variant, assembly_N in (
        (1, _minors_1d, _mu_1d, math.sqrt(3.0 + R6), None, 5, "tensor", 8),
        (2, _minors_2d, partial(_mu_chain, 2), R6, (10.0 / 14.0) ** 10, 11, "energy", 15),
        (3, _minors_3d, partial(_mu_chain, 3), 2.0, (20.0 / 32.0) ** 20, 21, "energy", 35),
    )
}


def chain_spec(d: int) -> ChainSpec:
    """The :class:`ChainSpec` of dimension d: the only public way to
    the minor chain, the threshold alpha_plus and the rate mu of d."""
    _check_dim(d)
    return _CHAINS[d]


def _rate_critical(d: int, a_plus, l):
    """``(scale, Q)``: the critical points of mu in (0, a_plus) are roots
    of the polynomial ``Q[i]`` in y = alpha / ``scale[i]`` (ascending
    coefficients), for the arrays ``a_plus`` and ``l`` of one value per
    torus.

    In 1D mu = N / D with N = d3 and D = 8 (1 - ell alpha)**2 (1 + theta
    alpha), so Q = N' D - N D'.  In 2D and 3D mu = K alpha**m M / (1 +
    theta alpha) with M the product of the factors of the last minor at
    kappa = 1, so Q = (m M + alpha M') (1 + theta alpha) - theta alpha M.
    """
    if d == 1:
        b, t = l * a_plus, _CHAINS[1].theta * a_plus
        one, b2, a2 = np.ones_like(b), b * b, a_plus * a_plus
        N = np.stack([0.0 * one, 8.0 * b, -48.0 * b2 - 6.0 * a2, 72.0 * (b2 * b)], -1)
        D = _polymul(np.stack([one, -2.0 * b, b2], -1), np.stack([one, t], -1))
        k = np.arange(1, 4)
        # the y**5 terms cancel exactly
        return a_plus, (_polymul(k * N[:, 1:], D) - _polymul(N, k * D[:, 1:]))[:, :-1]
    scale, G = _kappa1(d, l)
    _, m, names = _LAST_MINOR[d]
    index = list(_FACTORS[d])
    M = np.ones((len(l), 1))
    for name in names:
        M = _polymul(M, G[:, index.index(name)].sum(-2))
    k = np.arange(M.shape[1] + 1)
    t = _CHAINS[d].theta * scale[:, None]
    edge = np.zeros((len(M), 1))
    return scale, (m + k) * np.hstack([M, edge]) + t * (m + k - 2) * np.hstack([edge, M])


def _optimize(d: int, ell: np.ndarray):
    """alpha_plus, alpha_star and mu at each wavenumber scale of ``ell``,
    as lists of floats.

    alpha_star is the root of Q (see :func:`_rate_critical`) in (0,
    alpha_plus) with the largest mu, from one stacked eigensolve and
    polished by one more Newton step; nan when there is none.  The final
    mu is ``spec.mu`` on the array of alpha_star, nan or inf out of range.
    """
    spec = _CHAINS[d]
    with np.errstate(all="ignore"):
        a_plus = spec.alpha_plus(ell)
        scale, Q = _rate_critical(d, a_plus, ell)
        top = a_plus / scale
        ys = _roots(Q, top)
        inside = ys < top[:, None]
        mus = np.where(inside, spec.mu(scale[:, None] * ys, ell[:, None]), -np.inf)
        y = np.take_along_axis(ys, np.argmax(mus, axis=1)[:, None], 1)
        y = np.where(inside.any(axis=1)[:, None], y, np.nan)
        p, dp = _values(Q, y)
        a_star = scale * np.where(dp != 0.0, y - p / dp, y)[:, 0]
        mu = spec.mu(a_star, ell)
    return a_plus.tolist(), a_star.tolist(), mu.tolist()


@dataclass(frozen=True)
class DecayCertificate:
    """A certified exponential decay rate for one torus length.

    Attributes
    ----------
    d : int
        Velocity dimension.
    L, ell : float
        Torus length and wavenumber scale 2 pi / L.
    alpha_plus : float
        Positivity threshold of the minor chain.
    alpha_star : float
        Maximizing coupling amplitude.
    mu : float
        Certified modal decay rate: every mode satisfies
        <h, P h>(t) <= exp(-2 mu t) <h, P h>(0).
    lam : float
        Entropy decay rate 2 min(1, mu), covering the purely
        homogeneous mode as well.
    c_d, C_d : float
        Norm equivalence constants between the modified entropy and
        the plain squared norm.
    verification : tuple of (float, float)
        Pairs (kappa, min eig of C* P + P C - 2 mu P) over the first
        moduli; all must be nonnegative up to -1e-9.
    valid : bool
        Whether the verification sweep passed.
    failed_kappa : float or None
        First offending modulus if the sweep failed.
    """

    d: int
    L: float
    ell: float
    alpha_plus: float
    alpha_star: float
    mu: float
    lam: float
    c_d: float
    C_d: float
    verification: tuple = field(repr=False)
    valid: bool = True
    failed_kappa: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "L": self.L,
            "alpha_plus": self.alpha_plus,
            "alpha_star": self.alpha_star,
            "mu": self.mu,
            "lambda": self.lam,
            "c_d": self.c_d,
            "C_d": self.C_d,
            "verified": [{"kappa": k, "min_eig": m} for k, m in self.verification],
            "valid": self.valid,
            "failed_kappa": self.failed_kappa,
        }


def _first_moduli(d: int, count: int):
    """The ``count`` smallest mode moduli.  The box of sup-norm kmax
    holds every modulus up to kmax, but not every one beyond it."""
    kmax = 8 if d > 1 else count
    while True:
        mods = mode_moduli(d, kmax)
        if len(mods) >= count and mods[count - 1][0] <= kmax:
            return [m for m, _ in mods[:count]]
        kmax *= 2


def certify_many(d: int, Ls, n_verify: int = 0, alpha: float | None = None) -> list:
    """Evaluate the decay certificates for dimension d on a grid of torus
    lengths.

    Maximizes the closed-form rate mu over the admissible coupling
    amplitude (or evaluates at ``alpha`` when given), forms the norm
    equivalence constants, and verifies the matrix inequality
    C* P + P C >= 2 mu P on the first ``n_verify`` mode moduli at an
    assembly truncation with margin, from G0 + G1 / kappa (see
    :func:`_dissipation_terms`).  The thresholds alpha_plus, the
    maximizers alpha_star and the rates mu of all lengths come from one
    stacked computation; the value at each length does not depend on the
    other lengths of the grid.

    Raises ValueError for an ``n_verify`` that is not an integer of at
    least 0, and for the first length, in grid order, that is not
    finite and positive, or at which the certificate leaves the
    floating-point range, or for which ``alpha`` lies outside (0,
    alpha_plus).

    Returns
    -------
    list of DecayCertificate, one per length
    """
    spec = chain_spec(d)
    _check_int(n_verify, "n_verify", 0)
    Ls = np.asarray(Ls)
    if Ls.ndim != 1:
        raise ValueError("torus lengths must form a one-dimensional sequence")
    Ls = Ls.tolist()
    ells = [2.0 * math.pi / L if math.isfinite(L) and L > 0 else math.nan for L in Ls]
    certs = []
    for L, ell, a_plus, a_star, mu in zip(Ls, ells, *_optimize(d, np.array(ells))):
        _check_length(L)
        if not all(math.isfinite(v) and v > 0 for v in (a_plus, a_star, mu)):
            # the thresholds and rates hold powers of ell that leave the
            # floating-point range on very small and very large tori
            size = "small" if ell > 1.0 else "large"
            raise ValueError(
                f"torus length {L!r} is too {size}: powers of 2 pi / L leave the floating-point range"
            )
        if alpha is not None:
            if not 0.0 < alpha < a_plus:
                raise ValueError("coupling amplitude must lie in (0, %.6g)" % a_plus)
            a_star = float(alpha)
            mu = float(spec.mu(a_star, ell))
        theta = spec.theta * a_star
        checks = []
        if n_verify > 0:
            G0, G1 = _dissipation_terms(d, L, a_star, mu)
            checks = _sweep(G0, G1, spec.block, _first_moduli(d, n_verify))
        failed = next((kappa for kappa, m in checks if m < -1e-9), None)
        certs.append(
            DecayCertificate(
                d=d,
                L=L,
                ell=ell,
                alpha_plus=a_plus,
                alpha_star=a_star,
                mu=mu,
                lam=2.0 * min(1.0, mu),
                c_d=1.0 / (1.0 + theta),
                C_d=1.0 / (1.0 - theta),
                verification=tuple(checks),
                valid=failed is None,
                failed_kappa=failed,
            )
        )
    return certs


def certify(
    d: int, L: float = 2.0 * math.pi, n_verify: int = 50, alpha: float | None = None
) -> DecayCertificate:
    """Evaluate the decay certificate for dimension d and torus length L:
    :func:`certify_many` on the one length.

    Returns
    -------
    DecayCertificate
    """
    return certify_many(d, [L], n_verify, alpha)[0]


def mu_limits_1d(L_small: float = 1e-3) -> dict:
    """Small-torus behavior of the one-dimensional certificate.

    Returns the closed-form limits of the optimal rate and of the
    ratio alpha_star / L as L -> 0, together with their numerically
    maximized values at ``L_small`` for comparison.
    """
    r13 = math.sqrt(13.0)
    mu_limit = 3.0 * (4.0 - r13) * ((3.0 - r13) * (3.0 - r13)) / ((1.0 - r13) * (1.0 - r13))
    ratio_limit = (4.0 - r13) / (6.0 * math.pi)
    cert = certify(1, L_small, n_verify=0)
    return {
        "mu_limit": mu_limit,
        "alpha_over_L_limit": ratio_limit,
        "L_small": L_small,
        "mu_at_L_small": cert.mu,
        "alpha_over_L_at_L_small": cert.alpha_star / L_small,
    }
