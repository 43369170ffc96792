"""Tests for the transformation-matrix constructions P = I + A."""

import math

import numpy as np
import pytest

from hypobgk import (
    AnsatzError,
    ansatz_chain3,
    ansatz_dimker1,
    ansatz_dimker2,
    bgk_P,
    is_hypocoercive_spectral,
    kato_slopes,
    operator_pair,
    optimal_P,
)
from hypobgk.ansatz import _two_pivots, bgk_coupling


def _min_eig_D(C1, C2, P):
    C = 1j * np.asarray(C1, dtype=complex) + np.asarray(C2, dtype=complex)
    D = C.conj().T @ P + P @ C
    return float(np.linalg.eigvalsh((D + D.conj().T) / 2).min())


def test_kato_slopes_model():
    pair = operator_pair(1, "tensor", 8)
    for kappa in (1.0, 2.0, 5.0):
        for alpha in (0.05, 0.15):
            A = bgk_coupling(1, kappa, alpha, 8)
            s = kato_slopes(kappa * pair.ell * pair.L1, pair.L2, A)
            assert s.shape == (3,)
            assert np.abs(s - 2.0 * pair.ell * alpha).max() < 1e-12


def test_kato_slopes_finite_difference():
    pair = operator_pair(1, "tensor", 8)
    C1 = pair.ell * pair.L1
    C2 = pair.L2
    A = bgk_coupling(1, 1.0, 0.15, 8)
    s = kato_slopes(C1, C2, A)
    r = 1e-4
    C = 1j * C1 + C2.astype(complex)
    P = np.eye(8) + r * A
    D = C.conj().T @ P + P @ C
    low = np.sort(np.linalg.eigvalsh((D + D.conj().T) / 2))[:3]
    fd = low / r
    assert np.abs(fd / np.sort(s) - 1.0).max() < 0.01


def test_kato_slopes_validation():
    pair = operator_pair(1, "tensor", 6)
    with pytest.raises(ValueError):
        kato_slopes(pair.ell * pair.L1, pair.L2, np.triu(np.ones((6, 6))))


def test_optimal_P_reaches_spectral_rate():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        C = M + (0.1 - np.linalg.eigvals(M).real.min()) * np.eye(n)
        mu = np.linalg.eigvals(C).real.min()
        P = optimal_P(C)
        assert np.linalg.eigvalsh(P).min() > 0
        D = C.conj().T @ P + P @ C - 2.0 * mu * P
        m = np.linalg.eigvalsh((D + D.conj().T) / 2).min() / np.linalg.norm(P, 2)
        assert m > -1e-10


def test_optimal_P_weights():
    C = np.diag([1.0, 2.0]) + 0j
    P = optimal_P(C, weights=[2.0, 3.0])
    assert np.abs(P - np.diag([2.0, 3.0])).max() < 1e-14
    with pytest.raises(ValueError):
        optimal_P(C, weights=[1.0, -1.0])


def test_optimal_P_refuses_defective():
    with pytest.raises(AnsatzError):
        optimal_P(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_dimker1_pattern():
    C2 = np.diag([0.0, 1.0, 1.0])
    C1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    lam, P = ansatz_dimker1(C1, C2)
    assert abs(lam.real) < 1e-12  # the coupling is placed on the imaginary axis
    assert np.linalg.eigvalsh(P).min() > 0
    assert _min_eig_D(C1, C2, P) > 0


def test_dimker2_full_rank_window():
    C2 = np.diag([0.0, 0.0, 1.0, 1.0])
    C1 = np.zeros((4, 4))
    C1[0, 2] = C1[2, 0] = 1.0
    C1[1, 3] = C1[3, 1] = 1.0
    case, params, U, P = ansatz_dimker2(C1, C2)
    assert case == "2A"
    assert U is None
    assert {"lambda1", "lambda2", "r"} <= set(params)
    assert np.linalg.eigvalsh(P).min() > 0
    assert _min_eig_D(C1, C2, P) > 1e-8


def test_two_pivots_of_the_window_match_pivoted_qr():
    from scipy.linalg import qr

    rng = np.random.default_rng(8)
    for _ in range(50):
        m = int(rng.integers(3, 9))
        B = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
        B *= rng.uniform(0.1, 10.0, m)
        _, piv = qr(B, mode="r", pivoting=True)
        assert _two_pivots(B) == tuple(piv[:2])


def test_dimker2_rank_one_adapted():
    # the first kernel coordinate couples only inside the kernel, the
    # second reaches the coercive block: no rotation is needed
    C2 = np.diag([0.0, 0.0, 1.0, 1.0])
    C1 = np.zeros((4, 4))
    C1[0, 1] = C1[1, 0] = 1.0
    C1[1, 2] = C1[2, 1] = 1.0
    case, params, U, P = ansatz_dimker2(C1, C2)
    assert case == "2B1"
    assert U is None
    assert np.linalg.eigvalsh(P).min() > 0
    assert _min_eig_D(C1, C2, P) > 1e-8


def test_dimker2_rank_one_rotated():
    # both kernel rows reach the coercive block but the window has rank
    # one; a kernel rotation concentrates the coupling first
    C2 = np.diag([0.0, 0.0, 1.0, 1.0])
    C1 = np.zeros((4, 4))
    C1[0, 1] = C1[1, 0] = 0.7
    C1[0, 2] = C1[2, 0] = 1.0
    C1[1, 2] = C1[2, 1] = 2.0
    case, params, U, P = ansatz_dimker2(C1, C2)
    assert case == "2B2"
    assert U is not None
    assert np.abs(U @ U.conj().T - np.eye(4)).max() < 1e-12
    assert np.linalg.eigvalsh(P).min() > 0
    assert _min_eig_D(C1, C2, P) > -1e-9


def test_dimker2_rejects_non_hypocoercive():
    C2 = np.diag([0.0, 0.0, 1.0, 1.0])
    decoupled = np.zeros((4, 4))
    decoupled[0, 1] = decoupled[1, 0] = 1.0
    with pytest.raises(AnsatzError):
        ansatz_dimker2(decoupled, C2)
    assert not is_hypocoercive_spectral(decoupled, C2)
    no_kernel_coupling = np.zeros((4, 4))
    no_kernel_coupling[1, 2] = no_kernel_coupling[2, 1] = 1.0
    with pytest.raises(AnsatzError):
        ansatz_dimker2(no_kernel_coupling, C2)
    assert not is_hypocoercive_spectral(no_kernel_coupling, C2)


def test_dimker2_wrong_kernel_size():
    with pytest.raises(AnsatzError):
        ansatz_dimker2(np.eye(3), np.diag([0.0, 1.0, 1.0]))


@pytest.mark.parametrize("pattern", [ansatz_dimker1, ansatz_dimker2, ansatz_chain3])
def test_patterns_need_a_coercive_coordinate(pattern):
    # a kernel that fills the whole space: C2 = 0, with as many
    # dimensions as the pattern's kernel
    kdim = {ansatz_dimker1: 1, ansatz_dimker2: 2, ansatz_chain3: 3}[pattern]
    zero = np.zeros((kdim, kdim))
    with pytest.raises(AnsatzError, match="need at least one coercive coordinate"):
        pattern(zero, zero)


def test_chain3_on_model_couplings():
    pair = operator_pair(1, "tensor", 6)
    C1 = pair.ell * pair.L1
    C2 = pair.L2
    l1, l2, l3, P = ansatz_chain3(C1, C2)
    # the chain amplitudes come out in the ratios 1 : sqrt 2 : sqrt 3
    assert abs(abs(l2) / abs(l1) - math.sqrt(2.0)) < 1e-12
    assert abs(abs(l3) / abs(l1) - math.sqrt(3.0)) < 1e-12
    assert np.linalg.eigvalsh(P).min() > 0
    assert _min_eig_D(C1, C2, P) > -1e-12


def test_bgk_P_eigenvalue_lists():
    kappa, alpha = 2.0, 0.12
    r = alpha / kappa

    P1 = bgk_P(1, kappa, alpha, 5)
    want1 = np.sort(
        [1.0, 1.0 + r * math.sqrt(3.0 + math.sqrt(6.0)), 1.0 - r * math.sqrt(3.0 + math.sqrt(6.0)),
         1.0 + r * math.sqrt(3.0 - math.sqrt(6.0)), 1.0 - r * math.sqrt(3.0 - math.sqrt(6.0))]
    )
    assert np.abs(np.sort(np.linalg.eigvalsh(P1)) - want1).max() < 1e-10

    P2 = bgk_P(2, kappa, alpha, 11)
    want2 = np.sort(
        [1.0] * 5
        + [1.0 + r, 1.0 - r]
        + [1.0 + math.sqrt(5.0) * r, 1.0 - math.sqrt(5.0) * r]
        + [1.0 + math.sqrt(6.0) * r, 1.0 - math.sqrt(6.0) * r]
    )
    assert np.abs(np.sort(np.linalg.eigvalsh(P2)) - want2).max() < 1e-10

    P3 = bgk_P(3, kappa, alpha, 21)
    want3 = np.sort([1.0] * 13 + [1.0 + r, 1.0 - r] * 3 + [1.0 + 2.0 * r, 1.0 - 2.0 * r])
    assert np.abs(np.sort(np.linalg.eigvalsh(P3)) - want3).max() < 1e-10


def test_bgk_P_default_size_and_wrapper():
    # the default size is the coupled block; larger sizes pad with the
    # identity, which only adds unit eigenvalues
    for d, n in ((1, 4), (2, 7), (3, 11)):
        P = bgk_P(d, 1.0, 0.1)
        assert P.shape == (n, n)
        assert np.abs(P - P.conj().T).max() < 1e-14
        big = bgk_P(d, 1.0, 0.1, n + 6)
        assert np.abs(big[:n, :n] - P).max() == 0.0
        assert np.abs(big[n:, n:] - np.eye(6)).max() == 0.0
        # bgk_P wraps the coupling direction: P = I + A
        assert np.array_equal(P, np.eye(n) + bgk_coupling(d, 1.0, 0.1))
    with pytest.raises(ValueError):
        bgk_P(1, 0.5, 0.1)
    with pytest.raises(ValueError):
        bgk_P(1, 1.0, 0.1, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", [bgk_coupling, bgk_P])
def test_bgk_transformations_reject_non_finite_parameters(fn, bad):
    # nan fails neither kappa < 1 nor alpha < 0, and inf passes both;
    # either way the matrix would be full of nan
    for d in (1, 2, 3):
        with pytest.raises(ValueError, match=f"mode modulus must be finite and at least 1, got {bad}"):
            fn(d, bad, 0.1)
        with pytest.raises(ValueError, match=f"coupling amplitude must be finite and nonnegative, got {bad}"):
            fn(d, 1.0, bad)


def test_bgk_coupling_scales_inversely_with_mode():
    A1 = bgk_coupling(1, 1.0, 0.1, 6)
    A2 = bgk_coupling(1, 2.0, 0.1, 6)
    assert np.abs(A1 - 2.0 * A2).max() < 1e-14
    assert np.abs(A1 - A1.conj().T).max() == 0.0
