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
mu over alpha in (0, alpha_plus), where alpha_plus is the closed-form
positivity threshold of the whole chain.

Minor conventions: the one-dimensional block is ordered so that the
natural chain runs from the lower-right corner, hence trailing minors;
the two- and three-dimensional chains use leading minors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ansatz import bgk_P
from .gap import VerificationFailure
from .hermite import DIMENSIONS
from .operators import modal_generator, mode_moduli, operator_pair

R2 = math.sqrt(2.0)
R3 = math.sqrt(3.0)
R6 = math.sqrt(6.0)


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


def minors_1d(kappa: float, alpha: float, ell: float = 1.0) -> MinorTable:
    """Trailing principal minors of the 5x5 block for d = 1."""
    _check_params(kappa, alpha, ell)
    la = ell * alpha
    d1 = 2.0
    d2 = 4.0 * (1.0 - 3.0 * la)
    d3 = 8.0 * la * (1.0 - 3.0 * la) ** 2 - 6.0 * alpha**2 / kappa**2
    d4 = 2.0 * la * d3
    d5 = (2.0 * la) ** 2 * d3
    return MinorTable(1, kappa, alpha, ell, (d1, d2, d3, d4, d5), {}, "trailing")


def _check_params(kappa, alpha, ell):
    if not (math.isfinite(kappa) and kappa >= 1):
        raise ValueError(f"mode modulus kappa must be finite and at least 1, got {kappa}")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"coupling amplitude alpha must be finite and nonnegative, got {alpha}")
    if not (math.isfinite(ell) and ell > 0):
        raise ValueError(f"wavenumber scale must be finite and positive, got {ell}")


def _p6_2d(k, a, l):
    return -(54.0 / 11.0) * l * l * a + 2.0 * l - 2.0 * a / k**2


def _p7_2d(k, a, l):
    p0 = 93.0 * l**2 * a**2 - 34.0 * l * a
    p1 = 12.0 * a**2
    p2 = 162.0 * l**4 * a**2 - 120.0 * l**3 * a + 22.0 * l**2
    return (p0 + p1 / k**2) / k**2 + p2


def _p8_2d(k, a, l):
    return 2.0 * l**3 * a**2 - 6.0 * l**2 * a + 4.0 * l - a / k**2


def _p9_2d(k, a, l):
    p0 = -12.0 * l**3 * a**3 + 198.0 * l**2 * a**2 - 68.0 * l * a
    p1 = 24.0 * a**2
    p2 = -81.0 * l**5 * a**3 + 411.0 * l**4 * a**2 - 262.0 * l**3 * a + 44.0 * l**2
    return (p0 + p1 / k**2) / k**2 + p2


def _p11_2d(k, a, l):
    p0 = -72.0 * l**4 * a**4 - 300.0 * l**3 * a**3 + 294.0 * l**2 * a**2 - 68.0 * l * a
    p1 = 24.0 * a**2
    p2 = (
        162.0 * l**6 * a**4
        - 909.0 * l**5 * a**3
        + 963.0 * l**4 * a**2
        - 358.0 * l**3 * a
        + 44.0 * l**2
    )
    return (p0 + p1 / k**2) / k**2 + p2


def _d11_2d(k, a, l):
    """Last minor of the 2D chain, the one the certified rate uses."""
    # determinant expansion pins this prefactor at 32 (the chain ratio
    # d11/d10 must approach 2 as alpha -> 0)
    return 32.0 * l * a**4 * _p8_2d(k, a, l) * _p11_2d(k, a, l)


def minors_2d(kappa: float, alpha: float, ell: float = 1.0) -> MinorTable:
    """Leading principal minors of the 11x11 block for d = 2."""
    _check_params(kappa, alpha, ell)
    k, a, l = kappa, alpha, ell
    la = l * a
    d1 = 2.0 * la
    d2 = 4.0 * la**2
    d3 = 8.0 * la**3
    d4 = 44.0 * la**4
    d5 = 22.0 * l**3 * a**4 * (4.0 * l - 4.0 * l**2 * a - a / k**2)
    p6 = _p6_2d(k, a, l)
    d6 = d5 * p6 / l
    p7 = _p7_2d(k, a, l)
    d7 = 2.0 * d5 * p7 / (11.0 * l**2)
    p8 = _p8_2d(k, a, l)
    d8 = 8.0 * l * a**4 * p7 * p8
    p9 = _p9_2d(k, a, l)
    d9 = 8.0 * l * a**4 * p8 * p9
    d10 = 2.0 * d9
    p11 = _p11_2d(k, a, l)
    d11 = _d11_2d(k, a, l)
    return MinorTable(
        2,
        kappa,
        alpha,
        ell,
        (d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11),
        {"p6": p6, "p7": p7, "p8": p8, "p9": p9, "p11": p11},
        "leading",
    )


def _p6_3d(k, a, l):
    return -4.0 * l**2 * a - a / k**2 + 4.0 * l


def _p8_3d(k, a, l):
    return ((2.0 - 3.0 * R2) / 3.0) * l**2 * a - (5.0 / 6.0) * a / k**2 + (10.0 / 9.0) * (
        R2 - 1.0
    ) * l


def _p10_3d(k, a, l):
    return (
        9.0 * ((R2 - 1.0) * l**2 + 1.0 / k**2) * l * a**2
        - 6.0 * ((8.0 * R2 - 6.0) * l**2 + 5.0 / k**2) * a
        + 40.0 * (R2 - 1.0) * l
    )


def _p11_3d_parts(a, l):
    p0 = (
        (54.0 * R2 - 144.0) * l**3 * a**3
        + (672.0 - 72.0 * R2) * l**2 * a**2
        - (216.0 + 144.0 * R2) * l * a
    )
    p1 = 18.0 * (6.0 - l * a) * a**2
    p2 = (
        (9.0 - 54.0 * R2) * l**3 * a**3
        + (456.0 * R2 - 24.0) * l**2 * a**2
        + (472.0 - 816.0 * R2) * l * a
        + 480.0 * (R2 - 1.0)
    )
    return p0, p1, p2


def _p11_3d(k, a, l):
    p0, p1, p2 = _p11_3d_parts(a, l)
    return (p0 + p1 / k**2) / k**2 + p2 * l**2


def _p12_3d(k, a, l):
    return 4.0 * l**3 * a**2 - 12.0 * l**2 * a + 8.0 * l - 2.0 * a / k**2


def _p14_3d_parts(a, l):
    p0 = (
        (-108.0 * R6 - 72.0 * R3 - 180.0 * R2 - 144.0) * l**4 * a**4
        + (360.0 * R6 - 1824.0 * R3 + 720.0 * R2 - 3396.0) * l**3 * a**3
        + (-576.0 * R6 + 5952.0 * R3 - 1152.0 * R2 + 11760.0) * l**2 * a**2
        + (-1152.0 * R6 - 1728.0 * R3 - 2304.0 * R2 - 3456.0) * l * a
    )
    p1 = 144.0 * (R3 + 2.0) * (6.0 - l * a) * a**2
    # the cubic coefficient carries plus signs on the radicals: the
    # expanded determinant of the 14x14 submatrix pins it at
    # -(9348 + 336 sqrt6 + 5400 sqrt3 + 624 sqrt2)
    p2 = (
        (1440.0 - 180.0 * R6 + 828.0 * R3 - 324.0 * R2) * l**4 * a**4
        - (9348.0 + 336.0 * R6 + 5400.0 * R3 + 624.0 * R2) * l**3 * a**3
        + (11056.0 + 3424.0 * R6 + 6368.0 * R3 + 6864.0 * R2) * l**2 * a**2
        + (4192.0 - 6528.0 * R6 + 1856.0 * R3 - 13056.0 * R2) * l * a
        + (3840.0 * R6 - 3840.0 * R3 + 7680.0 * R2 - 7680.0)
    )
    return p0, p1, p2


def _p14_3d(k, a, l):
    p0, p1, p2 = _p14_3d_parts(a, l)
    return (p0 + p1 / k**2) / k**2 + l**2 * p2


def _p16_3d_parts(a, l):
    p0 = (
        -36.0 * (R2 + 2.0) * l**4 * a**4
        + (144.0 * R2 - 744.0) * l**3 * a**3
        + (-288.0 * R2 + 2976.0) * l**2 * a**2
        + (-576.0 * R2 - 864.0) * l * a
    )
    p1 = 72.0 * (6.0 - a * l) * a**2
    p2 = (
        27.0 * l**5 * a**5
        + (-144.0 * R2 + 216.0) * l**4 * a**4
        + (-24.0 * R2 - 2412.0) * l**3 * a**3
        + (1632.0 * R2 + 3104.0) * l**2 * a**2
        + (-3264.0 * R2 + 928.0) * l * a
        + 1920.0 * (R2 - 1.0)
    )
    return p0, p1, p2


def _p16_3d(k, a, l):
    p0, p1, p2 = _p16_3d_parts(a, l)
    return (p0 + p1 / k**2) / k**2 + l**2 * p2


def _p21_3d_parts(a, l):
    p0 = (
        (-1152.0 * R2 + 2928.0) * l**5 * a**5
        + (-468.0 * R2 - 2664.0) * l**4 * a**4
        + (75024.0 * R2 - 175272.0) * l**3 * a**3
        + (-130464.0 * R2 + 300768.0) * l**2 * a**2
        + (-14400.0 * R2 - 25056.0) * l * a
    )
    p1 = (-1728.0 * R2 + 4392.0) * (6.0 - l * a) * a**2
    p2 = (
        7707.0 * l**5 * a**5
        + (-25248.0 * R2 + 95000.0) * l**4 * a**4
        + (89448.0 * R2 - 353228.0) * l**3 * a**3
        + (158880.0 * R2 + 38048.0) * l**2 * a**2
        + (-417216.0 * R2 + 464416.0) * l * a
        + 1920.0 * (85.0 * R2 - 109.0)
    )
    return p0, p1, p2


def _p21_3d(k, a, l):
    p0, p1, p2 = _p21_3d_parts(a, l)
    return (p0 + p1 / k**2) / k**2 + l**2 * p2


def _d21_3d(k, a, l):
    """Last minor of the 3D chain, the one the certified rate uses."""
    return (
        256.0
        * (R3 + 2.0)
        * (24.0 * R2 + 61.0)
        / (23121.0 * (R3 + 1.0) ** 2)
        * l
        * a**5
        * _p12_3d(k, a, l) ** 2
        * _p21_3d(k, a, l)
    )


def minors_3d(kappa: float, alpha: float, ell: float = 1.0) -> MinorTable:
    """Leading principal minors of the 21x21 block for d = 3."""
    _check_params(kappa, alpha, ell)
    k, a, l = kappa, alpha, ell
    la = l * a
    w = R2 - 1.0
    d1 = 2.0 * la
    d2 = 4.0 * w * la**2
    d3 = 8.0 * w * la**3
    d4 = 16.0 * w * la**4
    d5 = (80.0 / 3.0) * w * l**5 * a**5
    p6 = _p6_3d(k, a, l)
    d6 = (40.0 / 3.0) * w * l**4 * a**5 * p6
    d7 = (20.0 / 3.0) * w * l**3 * a**5 * p6**2
    p8 = _p8_3d(k, a, l)
    d8 = 12.0 * l**2 * a**5 * p6**2 * p8
    d9 = 2.0 * d8
    p10 = _p10_3d(k, a, l)
    d10 = (4.0 / 3.0) * l**2 * a**5 * p6**2 * p10
    p11 = _p11_3d(k, a, l)
    d11 = (2.0 / 9.0) * l * a**5 * p6**2 * p11
    p12 = _p12_3d(k, a, l)
    d12 = (2.0 / 9.0) * l * a**5 * p6 * p11 * p12
    d13 = (2.0 / 9.0) * l * a**5 * p11 * p12**2
    p14 = _p14_3d(k, a, l)
    d14 = l * a**5 * p12**2 * p14 / (9.0 * (1.0 + R3) ** 2)
    d15 = 2.0 * d14
    p16 = _p16_3d(k, a, l)
    d16 = (8.0 / 9.0) * ((2.0 + R3) / (1.0 + R3) ** 2) * l * a**5 * p12**2 * p16
    d17 = 2.0 * d16
    d18 = 4.0 * d16
    d19 = 8.0 * d16
    d20 = 16.0 * d16
    p21 = _p21_3d(k, a, l)
    d21 = _d21_3d(k, a, l)
    return MinorTable(
        3,
        kappa,
        alpha,
        ell,
        (
            d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11,
            d12, d13, d14, d15, d16, d17, d18, d19, d20, d21,
        ),
        {
            "p6": p6, "p8": p8, "p10": p10, "p11": p11, "p12": p12,
            "p14": p14, "p16": p16, "p21": p21,
        },
        "leading",
    )


def assemble_D_block(d: int, kappa: float, alpha: float, ell: float = 1.0) -> np.ndarray:
    """The dissipation block C* P + P C, assembled from the operators.

    Builds the operators at a truncation with margin, forms
    C_kappa* P + P C_kappa with the closed-form P, verifies that the
    result equals 2 I outside the leading block, and returns the block
    (size 5, 11 or 21).
    """
    _check_params(kappa, alpha, ell)
    N = chain_spec(d).assembly_N
    b = DIMENSIONS[d].block
    pair = operator_pair(d, DIMENSIONS[d].variant, N, L=2.0 * math.pi / ell)
    C = modal_generator(pair, kappa).C
    P = bgk_P(d, kappa, alpha, N)
    F = C.conj().T @ P + P @ C
    tail = F.copy()
    tail[:b, :b] = 0.0
    tail[b:, b:] -= 2.0 * np.eye(N - b)
    resid = np.abs(tail).max()
    if resid > 1e-10:
        raise VerificationFailure(
            f"dissipation matrix deviates from 2 I outside the block by {resid:.3e}"
        )
    return F[:b, :b]


# ---------------------------------------------------------------------------
# positivity thresholds


def _bisect_root(f, lo, hi, steps: int = 200) -> float:
    flo = f(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _smallest_positive_root(f, hi: float, n: int = 2001) -> float:
    """First zero of f on (0, hi], or inf when the sign never changes."""
    xs = np.linspace(0.0, hi, n)[1:]
    vals = np.asarray(f(xs), dtype=float)
    sign0 = vals[0] > 0
    flip = np.nonzero((vals > 0) != sign0)[0]
    if flip.size == 0:
        return math.inf
    i = int(flip[0])
    lo = xs[i - 1] if i > 0 else hi / (n - 1) * 1e-9
    return _bisect_root(f, lo, xs[i])


def _smaller_quad_root(A: float, B: float, C: float) -> float:
    """Smaller positive root of A x**2 - B x + C with A, B, C > 0."""
    disc = B * B - 4.0 * A * C
    if disc < 0:
        return math.inf
    return (B - math.sqrt(disc)) / (2.0 * A)


def alpha3_1d(L: float = 2.0 * math.pi) -> float:
    """Positivity threshold of the one-dimensional minor chain.

    The third trailing minor at kappa = 1 vanishes at this amplitude;
    below it the whole chain is positive.
    """
    if L <= 0:
        raise ValueError("torus length must be positive")
    l = 2.0 * math.pi / L
    return (1.0 + 8.0 * l**2 - math.sqrt(1.0 + 16.0 * l**2)) / (24.0 * l**3)


def _thresholds_2d(l: float) -> dict:
    hi = 10.0 * 4.0 * l / (4.0 * l**2 + 1.0)
    t = {}
    t["d5"] = 4.0 * l / (4.0 * l**2 + 1.0)
    t["p6"] = 22.0 * l / (54.0 * l**2 + 22.0)
    t["p7"] = _smaller_quad_root(
        162.0 * l**4 + 93.0 * l**2 + 12.0, 120.0 * l**3 + 34.0 * l, 22.0 * l**2
    )
    t["p7t"] = 34.0 * l / (93.0 * l**2 + 24.0)
    t["p8"] = _smaller_quad_root(2.0 * l**3, 6.0 * l**2 + 1.0, 4.0 * l)
    t["p9"] = _smallest_positive_root(lambda a: _p9_2d(1.0, a, l), hi)
    t["p9t"] = _smaller_quad_root(12.0 * l**3, 198.0 * l**2 + 48.0, 68.0 * l)
    t["p11"] = _smallest_positive_root(lambda a: _p11_2d(1.0, a, l), hi)
    t["p11t"] = _smallest_positive_root(
        lambda a: 72.0 * l**4 * a**3
        + 300.0 * l**3 * a**2
        - (294.0 * l**2 + 48.0) * a
        + 68.0 * l,
        hi,
    )
    return t


def alpha_plus_2d(ell: float = 1.0) -> float:
    """Amplitude threshold below which every minor in the 2D chain is
    positive for all kappa >= 1."""
    t = _thresholds_2d(ell)
    a_d6 = min(t["d5"], t["p6"])
    a_d7 = min(t["d5"], t["p7t"], t["p7"])
    a_d8 = min(t["d5"], a_d7, t["p8"])
    a_d9 = min(t["p9"], t["p9t"], t["p8"])
    a_d11 = min(t["p11"], t["p11t"], t["p8"])
    return min(1.0 / R6, t["d5"], a_d6, a_d7, a_d8, a_d9, a_d11)


def _thresholds_3d(l: float) -> dict:
    hi = 10.0 * 4.0 * l / (4.0 * l**2 + 1.0)
    cap = 6.0 / l
    t = {}
    t["p6"] = 4.0 * l / (4.0 * l**2 + 1.0)
    t["p8"] = 20.0 * (R2 - 1.0) * l / (3.0 * (5.0 + (6.0 * R2 - 4.0) * l**2))
    t["p10"] = _smaller_quad_root(
        9.0 * ((R2 - 1.0) * l**2 + 1.0) * l,
        6.0 * ((8.0 * R2 - 6.0) * l**2 + 5.0),
        40.0 * (R2 - 1.0) * l,
    )
    t["p11"] = _smallest_positive_root(lambda a: _p11_3d(1.0, a, l), hi)
    t["p12"] = _smaller_quad_root(4.0 * l**3, 12.0 * l**2 + 2.0, 8.0 * l)
    t["p14"] = _smallest_positive_root(lambda a: _p14_3d(1.0, a, l), hi)
    t["p16"] = _smallest_positive_root(lambda a: _p16_3d(1.0, a, l), hi)
    t["p21"] = _smallest_positive_root(lambda a: _p21_3d(1.0, a, l), hi)

    def tilde(parts) -> float:
        def g(a):
            p0, p1, _ = parts(a, l)
            return (p0 + 2.0 * p1) / a

        return min(cap, _smallest_positive_root(g, hi))

    t["p11t"] = tilde(_p11_3d_parts)
    t["p14t"] = tilde(_p14_3d_parts)
    t["p16t"] = tilde(_p16_3d_parts)
    t["p21t"] = tilde(_p21_3d_parts)
    return t


def alpha_plus_3d(ell: float = 1.0) -> float:
    """Amplitude threshold below which every minor in the 3D chain is
    positive for all kappa >= 1."""
    t = _thresholds_3d(ell)
    a_d10 = min(t["p6"], t["p10"])
    a_d11 = min(t["p11"], t["p11t"], t["p6"])
    a_d12 = min(t["p12"], a_d11)
    a_d13 = min(t["p11"], t["p12"])
    a_d14 = min(t["p12"], t["p14t"], t["p14"])
    a_d16 = min(t["p16"], t["p16t"], t["p12"])
    a_d21 = min(t["p21"], t["p21t"], t["p12"])
    return min(
        0.5, t["p6"], t["p8"], a_d10, a_d11, a_d12, a_d13, a_d14, a_d16, a_d21
    )


# ---------------------------------------------------------------------------
# certified rates


def _mu_1d(a, l):
    d3 = 8.0 * l * a * (1.0 - 3.0 * l * a) ** 2 - 6.0 * a**2
    return d3 / (8.0 * (1.0 - l * a) ** 2 * (1.0 + a * THETA[1]))


def _mu_2d(a, l):
    return AMGM[2] * _d11_2d(1.0, a, l) / (2.0 * (1.0 + THETA[2] * a))


def _mu_3d(a, l):
    return AMGM[3] * _d21_3d(1.0, a, l) / (2.0 * (1.0 + THETA[3] * a))


@dataclass(frozen=True)
class ChainSpec:
    """What the certificate of velocity dimension d is built from.

    Attributes
    ----------
    minors : callable
        ``minors(kappa, alpha, ell)``, the closed-form minor chain.
    alpha_plus : callable
        ``alpha_plus(ell)``, the positivity threshold of the chain.
    mu : callable
        ``mu(alpha, ell)``, the certified rate at kappa = 1.
    theta : float
        Energy-norm distortion slope of the transformation: the extreme
        eigenvalues of P at kappa = 1 are 1 +- theta * alpha.
    amgm : float or None
        Arithmetic-geometric mean prefactor (n / tr D)**n of the lowest
        eigenvalue bound lambda_min >= (n / tr D)**n det D, for d >= 2.
    assembly_N : int
        Truncation with margin at which D is assembled and verified.
    """

    minors: Callable
    alpha_plus: Callable
    mu: Callable
    theta: float
    amgm: float | None
    assembly_N: int


_CHAINS = {
    1: ChainSpec(
        minors_1d, lambda l: alpha3_1d(2.0 * math.pi / l), _mu_1d, math.sqrt(3.0 + R6), None, 8
    ),
    2: ChainSpec(minors_2d, alpha_plus_2d, _mu_2d, R6, (10.0 / 14.0) ** 10, 15),
    3: ChainSpec(minors_3d, alpha_plus_3d, _mu_3d, 2.0, (20.0 / 32.0) ** 20, 35),
}

#: ChainSpec.theta and ChainSpec.amgm by dimension
THETA = {d: c.theta for d, c in _CHAINS.items()}
AMGM = {d: c.amgm for d, c in _CHAINS.items() if c.amgm is not None}


def chain_spec(d: int) -> ChainSpec:
    """The :class:`ChainSpec` of dimension d."""
    if d not in _CHAINS:
        raise ValueError("dimension must be 1, 2 or 3")
    return _CHAINS[d]


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, iters: int = 90):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a < 1e-12:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _maximize_mu(d: int, ell: float):
    spec = chain_spec(d)
    f = spec.mu
    a_plus = spec.alpha_plus(ell)
    xs = np.linspace(0.0, a_plus, 402)[1:-1]
    vals = f(xs, ell)
    i = int(np.argmax(vals))
    lo = xs[i - 1] if i > 0 else 0.0
    hi = xs[i + 1] if i < len(xs) - 1 else a_plus
    a_star, mu = _golden_max(lambda a: f(a, ell), lo, hi)
    return a_plus, a_star, float(mu)


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
            "verified": [
                {"kappa": k, "min_eig": m} for k, m in self.verification
            ],
            "valid": self.valid,
            "failed_kappa": self.failed_kappa,
        }


def _first_moduli(d: int, count: int):
    kmax = 8 if d > 1 else count
    while True:
        mods = mode_moduli(d, kmax)
        if len(mods) >= count:
            return [m for m, _ in mods[:count]]
        kmax *= 2


def mu_value(d: int, alpha: float, ell: float = 1.0) -> float:
    """Closed-form certified rate at a given coupling amplitude."""
    return chain_spec(d).mu(alpha, ell)


def certify(
    d: int,
    L: float = 2.0 * math.pi,
    n_verify: int = 50,
    alpha: float | None = None,
) -> DecayCertificate:
    """Evaluate the decay certificate for dimension d and torus length L.

    Maximizes the closed-form rate mu over the admissible coupling
    amplitude (or evaluates at ``alpha`` when given), forms the norm
    equivalence constants, and verifies the matrix inequality
    C* P + P C >= 2 mu P on the first ``n_verify`` mode moduli at an
    assembly truncation with margin.

    Returns
    -------
    DecayCertificate
    """
    spec = chain_spec(d)
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"torus length must be finite and positive, got {L}")
    ell = 2.0 * math.pi / L
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            a_plus, a_star, mu = _maximize_mu(d, ell)
        except OverflowError:
            a_plus = a_star = mu = math.nan
    if not all(map(math.isfinite, (a_plus, a_star, mu))):
        # the thresholds and rates hold powers of ell that leave the
        # floating-point range on tiny tori
        raise ValueError(f"torus length {L!r} is too small: powers of 2 pi / L overflow")
    if alpha is not None:
        if not 0.0 < alpha < a_plus:
            raise ValueError(
                "coupling amplitude must lie in (0, %.6g)" % a_plus
            )
        a_star = float(alpha)
        mu = mu_value(d, a_star, ell)
    theta = spec.theta * a_star
    c_d = 1.0 / (1.0 + theta)
    C_d = 1.0 / (1.0 - theta)
    lam = 2.0 * min(1.0, mu)

    checks = []
    valid = True
    failed = None
    if n_verify > 0:
        N = spec.assembly_N
        pair = operator_pair(d, DIMENSIONS[d].variant, N, L=L)
    for kappa in _first_moduli(d, n_verify) if n_verify > 0 else []:
        C = modal_generator(pair, kappa).C
        P = bgk_P(d, kappa, a_star, N)
        F = C.conj().T @ P + P @ C - 2.0 * mu * P
        m = float(np.linalg.eigvalsh(0.5 * (F + F.conj().T)).min())
        checks.append((float(kappa), m))
        if m < -1e-9 and valid:
            valid = False
            failed = float(kappa)
    return DecayCertificate(
        d=d,
        L=L,
        ell=ell,
        alpha_plus=a_plus,
        alpha_star=a_star,
        mu=mu,
        lam=lam,
        c_d=c_d,
        C_d=C_d,
        verification=tuple(checks),
        valid=valid,
        failed_kappa=failed,
    )


def mu_limits_1d(L_small: float = 1e-3) -> dict:
    """Small-torus behavior of the one-dimensional certificate.

    Returns the closed-form limits of the optimal rate and of the
    ratio alpha_star / L as L -> 0, together with their numerically
    maximized values at ``L_small`` for comparison.
    """
    r13 = math.sqrt(13.0)
    mu_limit = 3.0 * (4.0 - r13) * (3.0 - r13) ** 2 / (1.0 - r13) ** 2
    ratio_limit = (4.0 - r13) / (6.0 * math.pi)
    ell = 2.0 * math.pi / L_small
    _, a_star, mu = _maximize_mu(1, ell)
    return {
        "mu_limit": mu_limit,
        "alpha_over_L_limit": ratio_limit,
        "L_small": L_small,
        "mu_at_L_small": mu,
        "alpha_over_L_at_L_small": a_star / L_small,
    }


def rational_monotone_check(p0, p1, p2, alpha_bar: float, n_grid: int = 2000) -> bool:
    """Sufficient condition for kappa = 1 minimality of a minor factor.

    For p(kappa, alpha) = (p0(alpha) + p1(alpha) / kappa**2) / kappa**2
    + p2(alpha), the factor is minimized over kappa >= 1 at kappa = 1
    for every alpha in [0, alpha_bar] provided p1 >= 0 and
    p0 + 2 p1 <= 0 there.  The coefficient sequences are ascending
    polynomial coefficients; the conditions are checked on a dense grid
    and at the interior critical points of p0 + 2 p1.

    Returns
    -------
    bool
    """
    from numpy.polynomial import polynomial as Pn

    if alpha_bar <= 0:
        raise ValueError("alpha_bar must be positive")
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    p1 = np.atleast_1d(np.asarray(p1, dtype=float))
    xs = np.linspace(0.0, alpha_bar, n_grid)
    tol = 1e-12 * max(1.0, np.abs(p0).max() + np.abs(p1).max())
    if np.min(Pn.polyval(xs, p1)) < -tol:
        return False
    m = max(len(p0), len(p1))
    comb = np.zeros(m)
    comb[: len(p0)] += p0
    comb[: len(p1)] += 2.0 * p1
    if np.max(Pn.polyval(xs, comb)) > tol:
        return False
    if len(comb) > 1:
        crit = Pn.polyroots(Pn.polyder(comb))
        for r in crit:
            if abs(r.imag) < 1e-10 and 0.0 <= r.real <= alpha_bar:
                if Pn.polyval(r.real, comb) > tol:
                    return False
    return True


if __name__ == "__main__":
    for d in (1, 2, 3):
        cert = certify(d)
        print(
            f"d={d}: alpha_plus={cert.alpha_plus:.10f} "
            f"alpha_star={cert.alpha_star:.10f} mu={cert.mu:.12g} valid={cert.valid}"
        )
