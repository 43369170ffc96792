"""Tests for operator assembly: transport, collision, modal generators."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from hypobgk import (
    alpha3_1d,
    basis_change_matrix,
    build_L1,
    build_L2,
    concentrated_initial_data,
    modal_generator,
    mode_moduli,
    multi_index,
    operator_pair,
)
from hypobgk.hermite import MIN_N
from hypobgk.operators import MAX_TRUNCATION


def test_transport_1d_structure():
    N = 10
    L1 = build_L1(1, "tensor", N)
    assert np.abs(L1 - L1.T).max() == 0.0
    for m in range(N - 1):
        assert abs(L1[m, m + 1] - math.sqrt(m + 1.0)) < 1e-15
    # only the first off-diagonal is populated
    mask = np.tri(N, k=-2, dtype=bool)
    assert np.abs(L1[mask]).max() == 0.0
    assert np.abs(np.diag(L1)).max() == 0.0


@pytest.mark.parametrize("d,variant", [(2, "tensor"), (2, "energy"), (3, "tensor"), (3, "energy")])
def test_transport_couples_adjacent_degrees(d, variant):
    N = 30
    L1 = build_L1(d, variant, N)
    assert np.abs(L1 - L1.T).max() == 0.0
    degs = np.array([sum(multi_index(i, d)) for i in range(N)])
    gap = np.abs(degs[:, None] - degs[None, :])
    assert np.abs(L1[gap != 1]).max() == 0.0


@pytest.mark.parametrize(
    "d,variant,kerdim",
    [(1, "tensor", 3), (2, "tensor", 4), (2, "energy", 4), (3, "tensor", 5), (3, "energy", 5)],
)
def test_collision_projector(d, variant, kerdim):
    N = 34
    L2 = build_L2(d, variant, N)
    assert np.abs(L2 - L2.T).max() == 0.0
    assert np.abs(L2 @ L2 - L2).max() < 1e-14
    w = np.linalg.eigvalsh(L2)
    assert int(np.sum(w < 1e-10)) == kerdim
    assert np.abs(np.where(w < 0.5, w, w - 1.0)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_energy_variant_is_orthogonal_conjugation(d):
    N = {2: 66, 3: 56}[d]
    S = basis_change_matrix(d, N)
    for build in (build_L1, build_L2):
        A = build(d, "tensor", N)
        B = build(d, "energy", N)
        assert np.abs(S @ A @ S - B).max() < 1e-13
    # a transport entry between degree two and three in the energy basis
    assert build_L1(2, "energy", 15)[3, 6] == pytest.approx(math.sqrt(1.5), abs=1e-15)
    # L1 rotates only the degree-two rows and columns; each entry of the
    # dense product has at most one nonzero term, so they agree exactly
    for n in (MIN_N[d], 84, 500):
        S = basis_change_matrix(d, n)
        assert np.array_equal(build_L1(d, "energy", n), S @ build_L1(d, "tensor", n) @ S)


def test_operator_pair_and_modal_generator():
    L = 4.0 * math.pi
    pair = operator_pair(1, "tensor", 12, L=L)
    assert abs(pair.ell - 2.0 * math.pi / L) < 1e-15
    C = 1j * 3.0 * pair.ell * pair.L1 + pair.L2
    assert np.abs(modal_generator(pair, 3.0) - C).max() < 1e-14
    assert np.abs(modal_generator(pair, 0.0) - pair.L2).max() == 0.0


@pytest.mark.parametrize("L", [math.nan, math.inf, 0.0, -1.0])
def test_torus_length_must_be_finite_and_positive(L):
    for build in (
        lambda: operator_pair(1, "tensor", 10, L=L),
        lambda: alpha3_1d(L),
        lambda: concentrated_initial_data(0.1, L=L),
    ):
        with pytest.raises(ValueError, match=f"torus length must be finite and positive, got {L}"):
            build()


def test_mode_moduli_1d():
    assert mode_moduli(1, 3) == [(1.0, 2), (2.0, 2), (3.0, 2)]


@pytest.mark.parametrize("d", [2, 3])
def test_mode_moduli_lattice_counts(d):
    kmax = 5
    got = mode_moduli(d, kmax)
    moduli = [m for m, _ in got]
    assert moduli == sorted(moduli)
    assert len(set(round(m, 9) for m in moduli)) == len(moduli)
    # multiplicities cover the punctured cube of integer modes exactly
    count = Counter()
    for k in itertools.product(range(-kmax, kmax + 1), repeat=d):
        if any(k):
            count[round(math.sqrt(sum(c * c for c in k)), 9)] += 1
    assert {round(m, 9): mult for m, mult in got} == dict(count)
    assert sum(mult for _, mult in got) == (2 * kmax + 1) ** d - 1


def test_mode_moduli_validation():
    with pytest.raises(ValueError):
        mode_moduli(1, 0)
    with pytest.raises(ValueError):
        mode_moduli(4, 3)


def test_truncation_guards():
    with pytest.raises(ValueError):
        build_L1(1, "tensor", MAX_TRUNCATION + 1)
    with pytest.raises(ValueError):
        build_L2(2, "energy", 0)
    with pytest.raises(ValueError):
        build_L1(2, "spherical", 10)
    with pytest.raises(ValueError):
        operator_pair(1, "tensor", 10, L=0.0)
