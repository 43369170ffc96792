"""Tests for the hypocoercivity index and its equivalent characterizations."""

import warnings

import numpy as np
import pytest

import hypobgk.index as index_module
from hypobgk import (
    VerificationFailure,
    check_invariance_conditions,
    hypocoercivity_index,
    is_hypocoercive_spectral,
    kato_slopes,
    modal_generator,
    operator_pair,
    optimal_P,
)
from hypobgk.ansatz import bgk_coupling
from hypobgk.certificate import chain_spec
from hypobgk.index import commutator_condition


@pytest.mark.parametrize(
    "d,variant,tau,kerdim",
    [(1, "tensor", 3, 3), (2, "energy", 2, 4), (3, "energy", 2, 5)],
)
def test_model_indices(d, variant, tau, kerdim):
    pair = operator_pair(d, variant, 20)
    rep = hypocoercivity_index(pair.ell * pair.L1, pair.L2)
    assert rep.hypocoercive
    assert rep.tau == tau
    assert rep.dim_ker_C2 == kerdim
    assert rep.tau <= rep.dim_ker_C2
    assert rep.rank_profile[-1] == 20
    assert rep.coercivity_constant is not None and rep.coercivity_constant > 0
    conds = check_invariance_conditions(pair.ell * pair.L1, pair.L2)
    assert conds == {"B3": True, "B4": True}


@pytest.mark.parametrize("d", [2, 3])
def test_tensor_and_energy_bases_give_the_same_index(d):
    # the bases are orthogonally similar; in the tensor basis the kernel
    # eigenvalues of C2 come out at rounding level instead of zero
    for N in (20, 4 * chain_spec(d).block):
        tensor, energy = (
            hypocoercivity_index(p.ell * p.L1, p.L2)
            for p in (operator_pair(d, v, N) for v in ("tensor", "energy"))
        )
        assert tensor.tau == energy.tau
        assert tensor.rank_profile == energy.rank_profile
        assert tensor.dim_ker_C2 == energy.dim_ker_C2 == d + 2


@pytest.mark.parametrize("c", [1e-12, 1e-3, 1e3, 1e12])
def test_index_does_not_depend_on_the_scale_of_C1(c):
    # both routes run on C1 / ||C1||_2; the ranks used to cross their
    # threshold at different orders on small and large tori
    for d, variant in ((1, "tensor"), (2, "energy"), (3, "energy")):
        pair = operator_pair(d, variant, 20)
        ref = hypocoercivity_index(pair.ell * pair.L1, pair.L2)
        try:
            rep = hypocoercivity_index(c * pair.ell * pair.L1, pair.L2)
        except VerificationFailure as exc:
            # the routes agreed, but the coercivity constant is lost to
            # rounding on this scale
            assert "lost to rounding: sigma_min" in str(exc)
            assert f"index-{ref.tau} family" in str(exc)
        else:
            assert (rep.tau, rep.rank_profile) == (ref.tau, ref.rank_profile)
            assert rep.coercivity_constant > 0.0
    C2 = np.diag([0.0, 0.0, 1.0])
    C1 = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.5]])
    assert not hypocoercivity_index(c * C1, C2).hypocoercive


def test_coercivity_constant_on_a_small_torus_matches_exact_arithmetic():
    # at L = 0.1 the sum has norm 2e15, and a dense eigensolve of it
    # gave 0.7497 for its smallest eigenvalue 0.7861; from the SVD of
    # the stacked family the error is about n eps ||B||_2 / sigma_min
    import mpmath as mp

    pair = operator_pair(1, "tensor", 20, L=0.1)
    C1, C2 = pair.ell * pair.L1, pair.L2
    rep = hypocoercivity_index(C1, C2)
    with mp.workdps(40):
        A, P = mp.zeros(20, 20), mp.eye(20)
        C1m, C2m = mp.matrix(C1.tolist()), mp.matrix(C2.tolist())
        for _ in range(rep.tau + 1):
            A += P * C2m * P.T
            P = P * C1m
        ref = float(min(mp.eigsy(A, eigvals_only=True)))
    assert abs(rep.coercivity_constant - ref) <= 1e-6 * ref


def test_spectral_check_uses_the_verified_values_path(monkeypatch):
    # no eigenvectors: inverse iteration verifies the pair with the
    # smallest real part, the one that decides the answer
    calls = []
    real = index_module.complex_eigenvalues

    def recording(M, *args, **kwargs):
        calls.append(len(M))
        return real(M, *args, **kwargs)

    def no_eigenvectors(*args, **kwargs):
        raise AssertionError("numpy.linalg.eig was called")

    monkeypatch.setattr(index_module, "complex_eigenvalues", recording)
    monkeypatch.setattr(np.linalg, "eig", no_eigenvectors)
    pair = operator_pair(1, "tensor", 8)
    assert is_hypocoercive_spectral(pair.ell * pair.L1, pair.L2)
    assert not is_hypocoercive_spectral(np.zeros((2, 2)), np.diag([1.0, 0.0]))
    assert calls == [8, 2]


def test_index_example_from_module_cli():
    # same instance the command line exercises: 2D energy basis, 15 modes
    pair = operator_pair(2, "energy", 15)
    assert hypocoercivity_index(pair.ell * pair.L1, pair.L2).tau == 2


def test_decoupled_block_is_not_hypocoercive():
    C1 = np.diag([1.0, 0.0])
    C2 = np.diag([1.0, 0.0])
    rep = hypocoercivity_index(C1, C2)
    assert not rep.hypocoercive
    assert rep.tau is None
    assert not is_hypocoercive_spectral(C1, C2)
    assert check_invariance_conditions(C1, C2) == {"B3": False, "B4": False}


def test_eigenvector_inside_kernel_is_detected():
    # (1, -1, 0) is an eigenvector of C1 lying in ker C2; both the
    # invariant-subspace and the eigenvector test must notice it even
    # though the residual of the candidate subspace is numerically zero
    C2 = np.diag([0.0, 0.0, 1.0])
    C1 = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.5]])
    assert check_invariance_conditions(C1, C2) == {"B3": False, "B4": False}
    assert not hypocoercivity_index(C1, C2).hypocoercive
    assert not is_hypocoercive_spectral(C1, C2)


def test_characterizations_agree_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        C1 = (A + A.conj().T) / 2
        k = int(rng.integers(1, n))
        B = rng.standard_normal((n, k))
        C2 = B @ B.T
        rep = hypocoercivity_index(C1, C2)
        conds = check_invariance_conditions(C1, C2)
        spectral = is_hypocoercive_spectral(C1, C2)
        assert rep.hypocoercive == spectral == conds["B3"] == conds["B4"]
        # C2 has rank k exactly; its kernel eigenvalues are rounding
        assert rep.dim_ker_C2 == n - k
        assert len(kato_slopes(C1, C2, np.zeros((n, n)))) == n - k
        if rep.hypocoercive:
            assert 1 <= rep.tau <= rep.dim_ker_C2
            # the constant is a raw smallest eigenvalue; ill-conditioned
            # draws can put a truly tiny value below machine zero
            assert rep.coercivity_constant > -1e-10


def test_zero_kernel_means_index_zero():
    C2 = np.eye(4)
    C1 = np.diag([1.0, 2.0, 3.0, 4.0])
    rep = hypocoercivity_index(C1, C2)
    assert rep.hypocoercive and rep.tau == 0
    assert rep.dim_ker_C2 == 0


def test_input_validation():
    with pytest.raises(ValueError):
        hypocoercivity_index(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(ValueError):
        hypocoercivity_index(np.eye(2), -np.eye(2))
    with pytest.raises(ValueError):
        hypocoercivity_index(np.eye(2), np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["C1", "C2"])
@pytest.mark.parametrize(
    "check",
    [hypocoercivity_index, is_hypocoercive_spectral, check_invariance_conditions, kato_slopes],
)
def test_non_finite_pairs_are_rejected_by_name(check, which, bad):
    # rejected before any decomposition: no RuntimeWarning, no LAPACK error
    pair = operator_pair(1, "tensor", 8)
    C = {"C1": pair.ell * pair.L1, "C2": pair.L2.copy()}
    C[which][2, 2] = bad
    args = (C["C1"], C["C2"]) + ((np.zeros((8, 8)),) if check is kato_slopes else ())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{which} must have finite entries$"):
            check(*args)


_PAIR8 = operator_pair(1, "tensor", 8)
_EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize(
    "check,args,msg",
    [
        (modal_generator, (_PAIR8, np.nan), "mode modulus kappa must be finite and nonnegative, got nan"),
        (modal_generator, (_PAIR8, np.inf), "mode modulus kappa must be finite and nonnegative, got inf"),
        (optimal_P, (np.array([[1.0, np.inf], [0.0, 2.0]]),), "C must have finite entries"),
        (optimal_P, (np.ones((2, 3)),), "C must be a nonempty square matrix"),
        (optimal_P, (_EMPTY,), "C must be a nonempty square matrix"),
        (kato_slopes, (_PAIR8.L1, _PAIR8.L2, np.full((8, 8), np.nan)), "A must have finite entries"),
        (kato_slopes, (_PAIR8.L1, _PAIR8.L2, np.zeros((8, 7))), "A must be a nonempty square matrix"),
        (kato_slopes, (_PAIR8.L1, _PAIR8.L2, np.zeros((6, 6))), "A must have the shape of C1"),
        (hypocoercivity_index, (_EMPTY, _EMPTY), "C1 must be a nonempty square matrix"),
        (is_hypocoercive_spectral, (_EMPTY, _EMPTY), "C1 must be a nonempty square matrix"),
        (check_invariance_conditions, (_EMPTY, _EMPTY), "C1 must be a nonempty square matrix"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_bad_matrix_inputs_are_rejected_by_name(check, args, msg):
    # rejected before numpy or LAPACK sees them: no nan result, no
    # LinAlgError, no broadcast or zero-size reduction error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{msg}$"):
            check(*args)


def test_commutator_condition_on_model():
    pair = operator_pair(1, "tensor", 8)
    C1 = pair.ell * pair.L1
    C2 = pair.L2
    K = 0.5j * bgk_coupling(1, 1.0, 0.1, 8)
    assert commutator_condition(C1, C2, K)
    # without any commutator help the collision part alone is singular
    assert not commutator_condition(C1, C2, np.zeros((8, 8)))
    with pytest.raises(ValueError):
        commutator_condition(C1, C2, np.eye(8))  # not skew-Hermitian
