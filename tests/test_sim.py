"""Tests for the modal simulation, entropy functional and envelopes."""

import math

import numpy as np
import pytest
from scipy import integrate

from hypobgk import (
    ModalState,
    certify,
    concentrated_initial_data,
    decay_envelope,
    entropy,
    evolve,
    h_norm,
    l1_distance_1d,
    moments,
    run_trajectory,
    t_init,
)
from hypobgk.certificate import THETA
from hypobgk.sim import L1Grid

TWO_PI = 2.0 * math.pi


def _initial(eps=0.02, kmax=128, N=20):
    return concentrated_initial_data(eps, kmax=kmax, N=N)


def test_initial_entropy_matches_closed_form():
    for eps in (0.1, 0.05, 0.02):
        st = _initial(eps)
        exact = 3.0 / (2.0 * eps) - 1.0
        E0 = entropy(st, 0.0)
        tail = st.info["truncation_tail"]
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
        assert h2 / (1.0 + THETA[1] * alpha) <= E <= h2 / (1.0 - THETA[1] * alpha)


def test_invalid_epsilon_rejected():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            concentrated_initial_data(bad)


def test_semigroup_property():
    st = _initial(0.05, kmax=24)
    one = evolve(st, 1.1)
    two = evolve(evolve(st, 0.4), 0.7)
    num = max(np.abs(one.coeffs[k] - two.coeffs[k]).max() for k in one.coeffs)
    den = max(np.abs(one.coeffs[k]).max() for k in one.coeffs)
    assert num / den < 1e-9


def test_conjugate_mode_symmetry_is_preserved():
    st = evolve(_initial(0.05, kmax=24), 0.7)
    worst = max(
        np.abs(st.coeffs[k] - np.conj(st.coeffs[-k])).max()
        for k in st.coeffs
        if k > 0
    )
    assert worst < 1e-13


def test_homogeneous_mode_is_conserved():
    st = _initial(0.05, kmax=8)
    vec = np.zeros(st.N, dtype=complex)
    vec[0] = 0.3  # mass component sits in the collision kernel
    st.coeffs[0] = vec
    out = evolve(st, 2.0)
    assert np.abs(out.coeffs[0] - vec).max() < 1e-12


def test_moments_of_initial_bump():
    st = _initial()
    mom = moments(st)
    assert set(mom) == set(st.coeffs)
    assert abs(abs(mom[1]["sigma"]) - 0.9997420530610657) < 1e-9
    for k in (1, 2, 5):
        entry = mom[k]
        # mass-only data: no momentum, temperature defect equals the
        # density defect, and opposite modes are conjugate
        assert np.abs(np.asarray(entry["momentum"])).max() < 1e-13
        assert abs(entry["tau"] - entry["sigma"]) < 1e-13
        assert abs(mom[-k]["sigma"] - np.conj(entry["sigma"])) < 1e-13


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


def test_l1_initial_value_is_deterministic():
    assert abs(l1_distance_1d(_initial()) - 1.966686387350289) < 1e-9


def test_trajectory_l1_equals_reconstruction_of_each_state():
    # the grid is built once and reused; the values must be bit-identical
    # to a reconstruction on a grid built afresh for every state
    st = _initial(kmax=16)
    traj = run_trajectory(st, 1.5, 4, 0.0)
    keys = tuple(sorted(st.coeffs, key=int))
    cur, expected = st, []
    for _ in range(4):
        expected.append(L1Grid.build(keys, st.N).distance(cur))
        cur = evolve(cur, 0.5)
    assert list(traj["l1"]) == expected


def test_trajectory_decay_and_envelope():
    cert = certify(1, TWO_PI, n_verify=0)
    st = _initial()
    E0 = entropy(st, cert.alpha_star)
    traj = run_trajectory(
        st, 10.0, 21, cert.alpha_star, C_d=cert.C_d, lam=cert.lam, with_l1=True
    )
    assert set(traj) == {"t", "entropy", "h_norm", "l1", "envelope"}
    assert traj["t"][0] == 0.0 and traj["t"][-1] == 10.0
    # entropy decays monotonically and beats the certified envelope
    assert np.all(np.diff(traj["entropy"]) <= 1e-12)
    bound = E0 * np.exp(-cert.lam * traj["t"])
    assert np.all(traj["entropy"] <= bound * (1.0 + 1e-9))
    # right after release the truncated reconstruction rings a few
    # percent above the exact-solution bound of 2 while the filament
    # passes through the retained velocity modes; past that the curve
    # obeys the envelope
    late = traj["t"] >= 2.0
    assert np.all(traj["l1"][late] <= traj["envelope"][late] + 1e-3)
    assert traj["l1"].max() < 2.2
    assert traj["envelope"][0] == 2.0


def test_observed_rate_sits_between_certificate_and_gap():
    cert = certify(1, TWO_PI, n_verify=0)
    st = _initial()
    traj = run_trajectory(st, 40.0, 81, cert.alpha_star, with_l1=False)
    m = (traj["t"] >= 10.0) & (traj["t"] <= 30.0)
    slope = -np.polyfit(traj["t"][m], np.log(traj["entropy"][m]), 1)[0]
    assert cert.lam <= slope <= 2.0 * 0.56


def test_envelope_and_crossover_time():
    assert t_init(1.0, 4.0, 1.0) == 0.0
    C_d, E0, lam = 1.2727262733819609, 73.98882645625422, 0.08362471269678472
    ti = t_init(C_d, E0, lam)
    assert ti > 0
    assert decay_envelope(ti, C_d, E0, lam) == 2.0
    assert decay_envelope(0.0, C_d, E0, lam) == 2.0
    beyond = decay_envelope(np.array([ti + 1.0, ti + 5.0]), C_d, E0, lam)
    assert beyond[0] < 2.0 and beyond[1] < beyond[0]
    # the two-branch envelope crosses where the exponential reaches 2
    assert abs(math.sqrt(C_d * E0) * math.exp(-lam * ti / 2.0) - 2.0) < 1e-12


def test_state_helpers():
    st = _initial(0.05, kmax=8)
    assert st.d == 1 and st.ell == 1.0
    assert st.mode_modulus(3) == 3.0
    cp = st.copy()
    cp.coeffs[1] = np.zeros(st.N, dtype=complex)
    assert np.abs(st.coeffs[1]).max() > 0  # original untouched
    cp.t = 5.0
    assert st.t == 0.0


def test_run_trajectory_validation():
    st = _initial(0.05, kmax=8)
    with pytest.raises(ValueError):
        run_trajectory(st, 1.0, 1, 0.1)
