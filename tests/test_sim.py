"""Tests for the modal simulation, entropy functional and envelopes."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

import hypobgk.sim as sim
from hypobgk import (
    ModalState,
    bgk_P,
    certify,
    concentrated_initial_data,
    decay_envelope,
    entropy,
    evolve,
    h_norm,
    l1_distance_1d,
    operator_pair,
    run_trajectory,
    t_init,
)
from hypobgk.certificate import chain_spec
from hypobgk.hermite import gauss_hermite, hermite_phi
from hypobgk.sim import L1Grid, _propagators

TWO_PI = 2.0 * math.pi


def _initial(eps=0.02, kmax=128, N=20):
    return concentrated_initial_data(eps, kmax=kmax, N=N)


def test_initial_entropy_matches_closed_form():
    for eps in (0.1, 0.05, 0.02):
        st = _initial(eps)
        exact = 3.0 / (2.0 * eps) - 1.0
        E0 = entropy(st, 0.0)
        tail = st.truncation_tail
        # the retained modes and the reported tail account for the
        # exact entropy of the bump, to rounding
        assert abs(E0 + tail - exact) < 1e-9 * exact
        assert E0 <= exact
        assert tail >= 0


def test_entropy_grows_as_concentration_sharpens():
    E = [entropy(_initial(eps, kmax=64), 0.0) for eps in (0.1, 0.05, 0.02)]
    assert E[0] < E[1] < E[2]
    # growth is quadratic in 1/eps at most
    assert E[2] < 3.0 / (2.0 * 0.02)


def test_entropy_reduces_to_parseval_norm():
    st = _initial()
    assert abs(entropy(st, 0.0) - h_norm(st) ** 2) < 1e-12 * max(1.0, h_norm(st) ** 2)


def test_entropy_norm_equivalence():
    # after some evolution the coefficients spread over the coupled
    # block, and the weighted entropy must stay between the equivalence
    # bounds
    st = evolve(_initial(0.05, kmax=32), 1.5)
    h2 = h_norm(st) ** 2
    for alpha in (0.05, 0.1):
        E = entropy(st, alpha)
        theta = chain_spec(1).theta
        assert h2 / (1.0 + theta * alpha) <= E <= h2 / (1.0 - theta * alpha)


def test_invalid_epsilon_rejected():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            concentrated_initial_data(bad)


def test_semigroup_property():
    st = _initial(0.05, kmax=24)
    one = evolve(st, 1.1)
    two = evolve(evolve(st, 0.4), 0.7)
    num = np.abs(one.coeffs - two.coeffs).max()
    den = np.abs(one.coeffs).max()
    assert num / den < 1e-9


def _signed_spectrum_entropy(st, t, alpha, gamma=0.0):
    """Oracle for entropy(evolve(st, t), alpha, gamma) on a 1D state:
    the full signed spectrum k in [-kmax, kmax] with h_{-k} =
    conj(h_k), each mode evolved by expm(-C_k t) with its own signed
    generator and weighted by (1 + k^2)^gamma P_k, P_k = conj(P_|k|)
    for k < 0."""
    pair = operator_pair(1, "tensor", st.N, L=st.L)
    total = 0.0
    for kap, h0 in zip(st.kappa, st.coeffs):
        signs = (1,) if kap == 0 else (1, -1)
        for s in signs:
            k = s * kap
            h = h0 if s > 0 else np.conj(h0)
            C = 1j * k * pair.ell * pair.L1 + pair.L2
            h = expm(-C * t) @ h
            P = np.eye(st.N) if kap == 0 else bgk_P(1, kap, alpha, st.N)
            q = float(np.real(np.vdot(h, (P if s > 0 else np.conj(P)) @ h)))
            total += (1.0 + k * k) ** gamma * q
    return total


@pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
def test_entropy_matches_signed_spectrum_oracle(t):
    cert = certify(1, TWO_PI, n_verify=0)
    st = _initial(0.05, kmax=24)
    later = evolve(st, t)
    E = entropy(later, cert.alpha_star)
    assert abs(E - _signed_spectrum_entropy(st, t, cert.alpha_star)) < 1e-12 * E
    # the P-weighted entropy is not the plain norm once the coupled
    # moments are populated
    assert abs(E - h_norm(later) ** 2) > 1e-6 * E
    # each stored mode decays at the certified rate in its own P norm
    P = np.stack(
        [np.eye(st.N) if k == 0 else bgk_P(1, k, cert.alpha_star, st.N) for k in st.kappa]
    )
    q0, qt = (np.einsum("ki,kij,kj->k", h.conj(), P, h).real for h in (st.coeffs, later.coeffs))
    assert np.all(qt <= np.exp(-2.0 * cert.mu * t) * q0 * (1.0 + 1e-12))
    # the (1 + kappa^2)^gamma weight of every mode
    Eg = entropy(later, cert.alpha_star, gamma=0.5)
    assert abs(Eg - _signed_spectrum_entropy(st, t, cert.alpha_star, gamma=0.5)) < 1e-12 * Eg
    assert Eg > 1.1 * E


def test_homogeneous_mode_is_conserved():
    st = _initial(0.05, kmax=8)
    vec = np.zeros(st.N, dtype=complex)
    vec[0] = 0.3  # mass component sits in the collision kernel
    st.coeffs[0] = vec
    out = evolve(st, 2.0)
    assert np.abs(out.coeffs[0] - vec).max() < 1e-12


def test_moments_of_initial_bump():
    st = _initial()
    # mass-only data: the mass moment h_0 carries the bump, and the
    # momentum h_1 and the temperature moment h_2 are zero
    assert st.coeffs.shape == (len(st.kappa), st.N)
    assert abs(abs(st.coeffs[1, 0]) - 0.9997420530610657) < 1e-9
    assert not st.coeffs[:, 1:].any()


def test_l1_distance_matches_quadrature_oracle():
    eps = 0.02
    st = _initial(eps)

    def bump_minus_one(x):
        y = x - 0.5
        w = (1.0 + math.cos(2.0 * math.pi * y / eps)) / eps if abs(y) < eps / 2 else 0.0
        return abs(w - 1.0)

    oracle, err = integrate.quad(
        bump_minus_one, 0.0, 1.0, points=[0.5 - eps / 2, 0.5, 0.5 + eps / 2], limit=200
    )
    assert err < 1e-6
    got = l1_distance_1d(st)
    # the modal reconstruction truncates the Fourier series at kmax,
    # which rings at the percent level for this concentration
    assert abs(got - oracle) < 0.01
    assert got <= 2.0 + 1e-9


@pytest.mark.parametrize("N", [5, 20, 31])
@pytest.mark.parametrize("kmax", [7, 33, 128])
def test_l1_grid_matches_full_grid_formula(N, kmax):
    # random complex states have no symmetry under x -> 1 - x or v -> -v,
    # so the half-grid evaluation must reproduce the full 512 x 160 grid
    rng = np.random.default_rng(100 * N + kmax)
    st = _initial(kmax=kmax, N=N)
    st.coeffs = rng.standard_normal(st.coeffs.shape) + 1j * rng.standard_normal(st.coeffs.shape)
    xs = (np.arange(512) + 0.5) / 512
    nodes, w = gauss_hermite(160)
    H = st.weights[:, None] * st.coeffs
    phi = hermite_phi(N - 1, nodes)
    full = np.mean(np.abs((np.exp(2j * math.pi * np.outer(xs, st.kappa)) @ H).real @ phi) @ w)
    full /= math.sqrt(2.0 * math.pi)
    got = L1Grid.build(kmax, N).distance(st)
    assert abs(got - full) < 1e-13 * full


def test_l1_initial_value_is_deterministic():
    assert abs(l1_distance_1d(_initial()) - 1.966686387350289) < 1e-9


def test_trajectory_l1_equals_reconstruction_of_each_state():
    # the grid is built once and reused; the values must be bit-identical
    # to a reconstruction on a grid built afresh for every state
    st = _initial(kmax=16)
    traj = run_trajectory(st, 1.5, 4, 0.0)
    cur, expected = st, []
    for _ in range(4):
        expected.append(L1Grid.build(st.kmax, st.N).distance(cur))
        cur = evolve(cur, 0.5)
    assert list(traj["l1"]) == expected


def test_trajectory_decay_and_envelope():
    cert = certify(1, TWO_PI, n_verify=0)
    st = _initial()
    E0 = entropy(st, cert.alpha_star)
    traj = run_trajectory(
        st, 10.0, 21, cert.alpha_star, C_d=cert.C_d, lam=cert.lam
    )
    assert set(traj) == {"t", "entropy", "h_norm", "l1", "envelope"}
    assert traj["t"][0] == 0.0 and traj["t"][-1] == 10.0
    # entropy decays monotonically and beats the certified envelope
    assert np.all(np.diff(traj["entropy"]) <= 1e-12)
    bound = E0 * np.exp(-cert.lam * traj["t"])
    assert np.all(traj["entropy"] <= bound * (1.0 + 1e-9))
    # right after release L1 exceeds the bound of 2, which holds only
    # for a nonnegative density: the linearized dynamics does not keep
    # M (1 + h) nonnegative.  Past that the curve obeys the envelope
    late = traj["t"] >= 2.0
    assert np.all(traj["l1"][late] <= traj["envelope"][late] + 1e-3)
    assert traj["l1"].max() < 2.2
    assert traj["envelope"][0] == np.sqrt(cert.C_d * E0)


@pytest.mark.parametrize("N", [20, 40])
def test_l1_stays_below_the_envelope_right_after_release(N):
    # L1 peaks above 2 within (0, 0.8): 2.38 at t = 0.15 for N = 20 and
    # 2.45 at t = 0.2 for N = 40.  The L2 envelope holds there too
    cert = certify(1, TWO_PI, n_verify=0)
    traj = run_trajectory(
        _initial(N=N), 0.8, 17, cert.alpha_star, C_d=cert.C_d, lam=cert.lam
    )
    assert traj["l1"].max() > 2.0
    assert np.all(traj["l1"] <= traj["envelope"])


def test_observed_rate_sits_between_certificate_and_gap():
    cert = certify(1, TWO_PI, n_verify=0)
    st = _initial()
    traj = run_trajectory(st, 40.0, 81, cert.alpha_star)
    m = (traj["t"] >= 10.0) & (traj["t"] <= 30.0)
    slope = -np.polyfit(traj["t"][m], np.log(traj["entropy"][m]), 1)[0]
    assert cert.lam <= slope <= 2.0 * 0.56


def test_envelope_and_crossover_time():
    assert t_init(1.0, 4.0, 1.0) == 0.0
    C_d, E0, lam = 1.2727262733819609, 73.98882645625422, 0.08362471269678472
    ti = t_init(C_d, E0, lam)
    assert ti > 0
    assert decay_envelope(ti, C_d, E0, lam) == np.sqrt(C_d * E0) * np.exp(-0.5 * lam * ti)
    assert decay_envelope(0.0, C_d, E0, lam) == np.sqrt(C_d * E0)
    beyond = decay_envelope(np.array([ti + 1.0, ti + 5.0]), C_d, E0, lam)
    assert beyond[0] < 2.0 and beyond[1] < beyond[0]
    # t_init is where the L2 bound reaches 2
    assert abs(math.sqrt(C_d * E0) * math.exp(-lam * ti / 2.0) - 2.0) < 1e-12


def test_state_helpers():
    st = _initial(0.05, kmax=8)
    assert st.ell == 1.0
    assert st.kappa[3] == 3.0
    assert list(st.weights[:3]) == [1.0, 2.0, 2.0]
    cp = evolve(st, 0.0)
    cp.coeffs[1] = np.zeros(st.N, dtype=complex)
    assert np.abs(st.coeffs[1]).max() > 0  # original untouched
    cp.t = 5.0
    assert st.t == 0.0


def test_run_trajectory_validation():
    st = _initial(0.05, kmax=8)
    with pytest.raises(ValueError):
        run_trajectory(st, 1.0, 1, 0.1)


@pytest.mark.parametrize("N", [5, 20, 80, 150])
@pytest.mark.parametrize("L", [1e-3, 0.1, TWO_PI, 1e4, 1e8])
def test_propagators_match_scipy_expm(N, L):
    # the real-form Pade path agrees with exp(-C dt) of the complex
    # generator entry by entry, to rounding relative to ||C dt||_1
    pair = operator_pair(1, "tensor", N, L=L)
    for dt in (0.01, 0.5, 5.0):
        E = _propagators(N, L, 128, dt)
        for k in (0, 1, 2, 7, 33, 128):
            C = (1j * k * pair.ell * pair.L1 + pair.L2) * dt
            tol = 10.0 * np.finfo(float).eps * max(1.0, np.abs(C).sum(axis=0).max())
            assert np.abs(E[k] - expm(-C)).max() <= tol, (k, dt)


def test_modal_state_reads_its_moduli_off_the_coefficients():
    st = concentrated_initial_data(0.05, kmax=33, N=31, L=0.37)
    assert [f.name for f in dataclasses.fields(ModalState)] == [
        "L", "coeffs", "t", "truncation_tail"
    ]
    assert (st.N, st.kmax) == (31, 33)
    assert np.array_equal(st.kappa, np.arange(34.0))
    assert np.array_equal(st.weights, np.r_[1.0, np.full(33, 2.0)])
    assert st.truncation_tail > 0.0
    later = evolve(evolve(st, 0.0), 0.3)
    assert (later.L, later.t, later.truncation_tail) == (0.37, 0.3, st.truncation_tail)


def test_cache_keys_tell_apart_every_state_and_parameter():
    # states that differ only in L, then only in N, then one state at two
    # time steps and couplings, evaluated in turn through the shared
    # caches; each result must equal, to the bit, one computed with the
    # caches emptied
    rng = np.random.default_rng(11)

    def state(N, L=TWO_PI):
        st = concentrated_initial_data(0.05, kmax=17, N=N, L=L)
        st.coeffs = rng.standard_normal(st.coeffs.shape) + 1j * rng.standard_normal(st.coeffs.shape)
        return st

    a = state(20)
    cases = [
        (a, 0.5, 0.05),
        (dataclasses.replace(a, L=0.37), 0.5, 0.05),
        (a, 0.5, 0.05),
        (state(31), 0.5, 0.05),
        (a, 0.25, 0.02),
    ]

    def run(st, dt, alpha):
        return evolve(st, dt).coeffs, entropy(st, alpha), l1_distance_1d(st)

    interleaved = [run(*case) for case in cases]
    for case, (coeffs, ent, l1) in zip(cases, interleaved):
        for cache in (sim._propagators, sim._transformations, sim._l1_grid):
            cache.cache_clear()
        want = run(*case)
        assert np.array_equal(coeffs, want[0]) and (ent, l1) == want[1:], case[1:]
