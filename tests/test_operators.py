"""Tests for operator assembly: transport, collision, modal generators."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from hypobgk import (
    alpha3_1d,
    basis_change_matrix,
    bgk_P,
    build_L1,
    build_L2,
    certify_many,
    concentrated_initial_data,
    convergence_study,
    modal_generator,
    mode_moduli,
    multi_index,
    operator_pair,
    run_trajectory,
    spectral_gap,
)
from hypobgk.ansatz import bgk_coupling
from hypobgk.hermite import MIN_N, gauss_hermite, hermite_phi
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


@pytest.mark.parametrize("N", [10.5, 20.5, 50.7, np.float64(50.0), 50.0])
def test_non_integral_truncations_are_rejected_by_name(N):
    # every entry point that takes a truncation rejects a float, even an
    # integral one, instead of indexing with it, rounding it down or
    # failing inside range()
    msg = f"truncation must be an integer, got {N}"
    with pytest.raises(ValueError, match=msg):
        spectral_gap(1, 2.0 * math.pi, [1.0], N)
    with pytest.raises(ValueError, match=msg):
        convergence_study(1, 2.0 * math.pi, 1.0, [40, N])
    with pytest.raises(ValueError, match=msg):
        operator_pair(1, "tensor", N)
    with pytest.raises(ValueError, match=msg):
        concentrated_initial_data(0.02, N=N)


def test_numpy_integer_truncations_are_accepted():
    N = np.int64(50)
    assert spectral_gap(1, 2.0 * math.pi, [1.0], N).gap == spectral_gap(1, 2.0 * math.pi, [1.0], 50).gap
    assert convergence_study(1, 2.0 * math.pi, 1.0, [N]).entries[0][0] == 50
    assert np.array_equal(operator_pair(1, "tensor", N).L1, operator_pair(1, "tensor", 50).L1)
    assert concentrated_initial_data(0.02, N=np.int32(20)).N == 20


def _state():
    return concentrated_initial_data(0.05, kmax=8)


# (call, name in the message, the value it rejects)
COUNTS = [
    (lambda: bgk_P(1, 1.0, 0.1, 4.5), "N", 4.5),
    (lambda: bgk_coupling(1, 1.0, 0.1, np.float64(8)), "N", 8.0),
    (lambda: concentrated_initial_data(0.02, kmax=10.5), "kmax", 10.5),
    (lambda: run_trajectory(_state(), 1.0, 3.5, 0.1), "n_samples", 3.5),
    (lambda: mode_moduli(1, 2.5), "kmax", 2.5),
    (lambda: gauss_hermite(4.5), "number of nodes", 4.5),
    (lambda: certify_many(1, [6.28], 2.5), "n_verify", 2.5),
    (lambda: hermite_phi(4.5, [0.1]), "nmax", 4.5),
    (lambda: basis_change_matrix(2, 10.5), "N", 10.5),
    # returned the multi-index (2.5,) before
    (lambda: multi_index(2.5, 1), "flat index", 2.5),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call,name,value", COUNTS)
def test_non_integral_counts_are_rejected_by_name(call, name, value):
    # a float where a count is expected is refused by name, instead of a
    # TypeError from inside numpy or range()
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
        call()


# (call, name in the message, its lower bound, the value it rejects)
BOUNDS = [
    (lambda: bgk_P(1, 1.0, 0.1, 3), "N", 4, 3),
    (lambda: concentrated_initial_data(0.02, kmax=0), "kmax", 1, 0),
    (lambda: run_trajectory(_state(), 1.0, 1, 0.1), "n_samples", 2, 1),
    (lambda: mode_moduli(1, 0), "kmax", 1, 0),
    (lambda: gauss_hermite(0), "number of nodes", 1, 0),
    # verified nothing, and reported valid = True, before
    (lambda: certify_many(1, [6.28], n_verify=-1), "n_verify", 0, -1),
    (lambda: hermite_phi(-1, [0.1]), "nmax", 0, -1),
    (lambda: basis_change_matrix(3, 9), "N", 10, 9),
    (lambda: multi_index(-1, 2), "flat index", 0, -1),
]


@pytest.mark.parametrize("call,name,low,value", BOUNDS)
def test_counts_below_their_bound_are_rejected_by_name(call, name, low, value):
    with pytest.raises(ValueError, match=f"^{name} must be at least {low}, got {value}$"):
        call()


def test_numpy_integer_counts_are_accepted():
    assert mode_moduli(2, np.int64(3)) == mode_moduli(2, 3)
    assert np.array_equal(gauss_hermite(np.int32(7))[0], gauss_hermite(7)[0])
    assert np.array_equal(bgk_P(2, 1.0, 0.1, np.int64(9)), bgk_P(2, 1.0, 0.1, 9))
    assert concentrated_initial_data(0.02, kmax=np.int16(6)).kmax == 6
    assert len(certify_many(1, [6.28], np.int64(2))[0].verification) == 2
