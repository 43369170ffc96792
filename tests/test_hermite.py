"""Tests for the velocity basis: quadrature, orderings, evaluation."""

import math

import numpy as np
import pytest

from hypobgk import (
    basis_change_matrix,
    build_L1,
    eval_basis,
    gauss_hermite,
    lex_index,
    multi_index,
)
from hypobgk.certificate import chain_spec
from hypobgk.hermite import SQRT2PI, hermite_phi


def test_quadrature_normalization_and_symmetry():
    for n in (1, 5, 32, 64, 160, 1000):
        x, w = gauss_hermite(n)
        assert len(x) == len(w) == n
        # weights are positive and tiny in the far tail (about 2.5e-129
        # at n = 160); only from 389 nodes on do they fall below the
        # floating-point range and read 0.0
        assert np.all(w >= 0)
        if n <= 48:
            assert np.all(w > 0)
        assert abs(w.sum() - SQRT2PI) < 1e-12 * SQRT2PI
        # nodes come sorted and symmetric about the origin
        assert np.all(np.diff(x) > 0)
        worst = max(abs(x[i] + x[n - 1 - i]) for i in range(n))
        assert worst < 1e-13


def test_single_node_rule():
    x, w = gauss_hermite(1)
    assert abs(x[0]) < 1e-15
    assert abs(w[0] - SQRT2PI) < 1e-13


def _oracle_rule(n, starts, dps=40):
    """Zeros of phi_n polished from ``starts`` by Newton's method at dps
    digits, with their Christoffel weights sqrt(2 pi) / sum_k phi_k**2."""
    import mpmath as mp

    def phi(x):
        out = [mp.mpf(1), x]
        for m in range(1, n):
            out.append((x * out[m] - mp.sqrt(m) * out[m - 1]) / mp.sqrt(m + 1))
        return out

    with mp.workdps(dps):
        nodes, weights = [], []
        for x0 in starts:
            x = mp.mpf(float(x0))
            for _ in range(20):
                p = phi(x)
                step = p[n] / (mp.sqrt(n) * p[n - 1])
                x -= step
                if abs(step) <= mp.mpf(10) ** (5 - dps) * max(1, abs(x)):
                    break
            else:
                raise AssertionError(f"Newton's method did not converge from {x0}")
            nodes.append(x)
            weights.append(mp.sqrt(2 * mp.pi) / mp.fsum(v * v for v in phi(x)[:n]))
        return nodes, weights


@pytest.mark.parametrize("n", [64, 160])
def test_rule_matches_a_40_digit_oracle(n):
    # the nonnegative half, by symmetry; the polished zeros are distinct,
    # so they are all n // 2 + n % 2 of them
    x, w = gauss_hermite(n)
    half = slice(n // 2, None)
    nodes, weights = _oracle_rule(n, x[half])
    assert len(nodes) == n - n // 2
    assert all(b - a > 1e-3 for a, b in zip(nodes, nodes[1:])) and nodes[0] >= 0
    for xi, wi, xr, wr in zip(x[half], w[half], nodes, weights):
        assert abs(xi - float(xr)) <= 1e-14 * max(1.0, float(xr))
        assert abs(wi - float(wr)) <= 1e-13 * float(wr)


def test_rule_is_cached_and_read_only():
    x, w = gauss_hermite(50)
    assert gauss_hermite(50)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_orthonormality_under_quadrature():
    # 64 nodes integrate products up to degree 127 exactly, enough for
    # every pair with m, n <= 20
    x, w = gauss_hermite(64)
    phi = hermite_phi(20, x)
    G = np.array(
        [[np.sum(w * phi[m] * phi[n]) for n in range(21)] for m in range(21)]
    ) / SQRT2PI
    assert np.abs(G - np.eye(21)).max() < 1e-10


def test_recurrence_matches_evaluations():
    rng = np.random.default_rng(42)
    v = rng.uniform(-3.0, 3.0, size=12)
    phi = hermite_phi(7, v)
    for m in range(1, 6):
        # v phi_m = sqrt(m + 1) phi_{m+1} + sqrt(m) phi_{m-1}
        resid = v * phi[m] - math.sqrt(m + 1) * phi[m + 1] - math.sqrt(m) * phi[m - 1]
        assert np.abs(resid).max() < 1e-12


def test_flat_index_roundtrip():
    for d in (1, 2, 3):
        for i in range(400):
            m = multi_index(i, d)
            assert len(m) == d
            assert lex_index(m, d) == i
            assert lex_index(np.array(m, dtype=np.int64), np.int64(d)) == i
    # degrees are nondecreasing along the flat order
    for d in (2, 3):
        degs = [sum(multi_index(i, d)) for i in range(200)]
        assert all(b >= a for a, b in zip(degs, degs[1:]))


@pytest.mark.parametrize(
    "m,message",
    [
        # each was truncated to an integer before, and -0.5 to 0
        ((1.5, 1), "must be an integer, got 1.5"),
        ((1, -0.5), "must be an integer, got -0.5"),
        (2.7, "must be an integer, got 2.7"),
        ((True, 1), "must be an integer, got True"),
        ((np.float64(2.0),), "must be an integer, got 2.0"),
        # eval_basis failed inside hermite_phi before
        ((-1,), "must be at least 0, got -1"),
    ],
)
def test_multi_index_components_are_checked_by_name(m, message):
    with pytest.raises(ValueError, match=f"^multi-index component {message}$"):
        lex_index(m)
    with pytest.raises(ValueError, match=f"^multi-index component {message}$"):
        eval_basis(m, np.zeros(1 if np.isscalar(m) else len(m)))


@pytest.mark.parametrize(
    "m,message",
    [
        # a 0-d array was taken for a sequence and failed to iterate
        (np.array(3), None),
        (np.array(2, dtype=np.uint8), None),
        (np.array(2.0), "must be an integer, got 2.0"),
        (np.array(True), "must be an integer, got True"),
        # a 0-d array inside a sequence was refused as "got 1"
        ((np.array(1), 2), None),
        ((np.array(1.0), 2), "must be an integer, got 1.0"),
        ((np.array(True), 2), "must be an integer, got True"),
    ],
)
def test_zero_dimensional_multi_index_reads_as_its_scalar(m, message):
    plain, v = (int(m), 0.5) if np.ndim(m) == 0 else (tuple(map(int, m)), np.full(len(m), 0.5))
    if message is None:
        assert lex_index(m) == lex_index(plain)
        assert eval_basis(m, v) == eval_basis(plain, v)
        return
    with pytest.raises(ValueError, match=f"^multi-index component {message}$"):
        lex_index(m)
    with pytest.raises(ValueError, match=f"^multi-index component {message}$"):
        eval_basis(m, v)


def test_flat_index_validation():
    with pytest.raises(ValueError):
        lex_index((1, -1))
    with pytest.raises(ValueError):
        lex_index((1, 2), d=3)
    with pytest.raises(ValueError):
        lex_index((1, 2, 3, 4))
    with pytest.raises(ValueError):
        multi_index(-1, 2)


def test_eval_basis_low_orders():
    rng = np.random.default_rng(0)
    v = rng.uniform(-2.5, 2.5, size=9)
    g0 = np.exp(-0.5 * v * v) / SQRT2PI
    assert np.abs(eval_basis(0, v) - g0).max() < 1e-14
    assert np.abs(eval_basis(1, v) - v * g0).max() < 1e-13
    assert np.abs(eval_basis(2, v) - (v * v - 1.0) / math.sqrt(2.0) * g0).max() < 1e-13
    # unweighted variant strips the Gaussian factor
    assert np.abs(eval_basis(2, v, weighted=False) - (v * v - 1.0) / math.sqrt(2.0)).max() < 1e-12


def test_eval_basis_tensor_product():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2.0, 2.0, size=(7, 2))
    got = eval_basis((1, 2), pts)
    want = eval_basis(1, pts[:, 0]) * eval_basis(2, pts[:, 1]) * SQRT2PI ** 0  # d=1 factors
    # product of two weighted 1D factors carries the full 2D Gaussian
    want = eval_basis(1, pts[:, 0]) * eval_basis(2, pts[:, 1])
    assert np.abs(got - want).max() < 1e-13


def test_energy_variant_recombines_degree_two():
    # the energy variant mixes only the diagonal degree-2 functions;
    # every other function agrees with the tensor variant
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2.0, 2.0, size=(8, 2))
    for m in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)):
        a = eval_basis(m, pts, variant="energy")
        b = eval_basis(m, pts, variant="tensor")
        assert np.abs(a - b).max() < 1e-13
    S = basis_change_matrix(2, chain_spec(2).block)
    i20, i02 = lex_index((2, 0)), lex_index((0, 2))
    mixed = eval_basis((2, 0), pts, variant="energy")
    manual = S[i20, i20] * eval_basis((2, 0), pts) + S[i20, i02] * eval_basis((0, 2), pts)
    assert np.abs(mixed - manual).max() < 1e-13


@pytest.mark.parametrize("d", [2, 3])
def test_energy_functions_are_rows_of_the_basis_change(d):
    # each degree-two energy function is its row of the basis change
    # applied to the tensor functions, summed over the whole row in
    # index order
    pts = np.random.default_rng(d).uniform(-2.0, 2.0, size=(8, d))
    S = basis_change_matrix(d, 21)
    for i in range(1 + d, 1 + d + d * (d + 1) // 2):
        want = sum(S[i, j] * eval_basis(multi_index(j, d), pts) for j in range(21))
        assert np.array_equal(eval_basis(multi_index(i, d), pts, variant="energy"), want), i


@pytest.mark.parametrize("d,n", [(2, 66), (3, 120)])
def test_basis_change_matrix_involution(d, n):
    S = basis_change_matrix(d, n)
    eye = np.eye(n)
    assert np.abs(S - S.T).max() == 0.0
    assert np.abs(S @ S - eye).max() < 1e-14
    # rows outside the diagonal degree-2 block are untouched
    block = {lex_index(tuple(2 if j == a else 0 for j in range(d))) for a in range(d)}
    for i in range(n):
        if i not in block:
            assert np.abs(S[i] - eye[i]).max() == 0.0


def test_basis_spec():
    # a basis is a dimension, a variant and a size; unknown variants and
    # sizes below the complete degree-two level are rejected
    with pytest.raises(ValueError, match="variant"):
        build_L1(2, "fourier", 10)
    with pytest.raises(ValueError, match="variant"):
        eval_basis((1, 0), np.zeros((3, 2)), variant="fourier")
    with pytest.raises(ValueError, match="need N >= 10"):
        build_L1(3, "tensor", 0)
    # the two variants coincide in one dimension, so both names are legal
    assert np.array_equal(build_L1(1, "energy", 5), build_L1(1, "tensor", 5))
    assert eval_basis(2, 0.5, variant="energy") == eval_basis(2, 0.5)


def test_min_certificate_sizes():
    assert {d: chain_spec(d).block for d in (1, 2, 3)} == {1: 5, 2: 11, 3: 21}
