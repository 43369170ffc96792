"""Tests for the modal simulation, entropy functional and envelopes."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

import hypobgk.cli as cli
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
from hypobgk.operators import chain_blocks
from hypobgk.sim import _propagators
from oracles import degree_phase

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


@pytest.mark.parametrize(
    "N,alpha,gamma", [(20, "star", 0.0), (20, "star", 0.5), (20, 0.0, 0.0), (31, "star", 0.0)]
)
def test_coupling_entropy_matches_dense_transformations(N, alpha, gamma):
    # the three couplings of A_kappa give the quadratic form of the dense
    # P_kappa = I + A_kappa on states that populate every moment
    if alpha == "star":
        alpha = certify(1, TWO_PI, n_verify=0).alpha_star
    rng = np.random.default_rng(N)
    for _ in range(3):
        st = _initial(0.05, kmax=40, N=N)
        st.coeffs = rng.standard_normal(st.coeffs.shape) + 1j * rng.standard_normal(st.coeffs.shape)
        dense = 0.0
        for k, w, h in zip(st.kappa, st.weights, st.coeffs):
            P = np.eye(N) if k == 0 else bgk_P(1, k, alpha, N)
            dense += w * (1.0 + k * k) ** gamma * np.vdot(h, P @ h).real
        assert abs(entropy(st, alpha, gamma) - dense) <= 1e-14 * dense


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_are_rejected_by_name(bad):
    st = _initial(0.05, kmax=8)
    with pytest.raises(ValueError, match=f"time step must be finite and nonnegative, got {bad}"):
        evolve(st, bad)
    with pytest.raises(ValueError, match=f"torus length must be finite and positive, got {bad}"):
        evolve(dataclasses.replace(st, L=bad), 0.5)
    with pytest.raises(ValueError, match=f"finite tmax >= 0, got 3 and {bad}"):
        run_trajectory(st, bad, 3, 0.1)
    with pytest.raises(ValueError, match=f"coupling amplitude alpha must be finite, got {bad}"):
        entropy(st, bad)


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
    got = l1_distance_1d(st)
    assert abs(got - full) < 1e-13 * full


@pytest.mark.parametrize("N", [5, 20, 31])
def test_l1_row_blocks_give_the_bits_of_one_block(N, monkeypatch):
    rng = np.random.default_rng(N)
    st = _initial(kmax=33, N=N)
    st.coeffs = rng.standard_normal(st.coeffs.shape) + 1j * rng.standard_normal(st.coeffs.shape)
    blocked = l1_distance_1d(st)
    monkeypatch.setattr(sim, "_ROWS", sim._NX // 2)
    assert l1_distance_1d(st) == blocked


def test_l1_initial_value_is_deterministic():
    assert abs(l1_distance_1d(_initial()) - 1.966686387350289) < 1e-9


@pytest.mark.parametrize("tmax", [1.5, 0.0])
@pytest.mark.parametrize("N", [20, 31])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("coupled", [False, True])
def test_trajectory_is_its_states(coupled, gamma, N, tmax):
    # every sample must equal, to the bit, the per-state functions on the
    # states of repeated evolve, with the couplings and the L1 grid built
    # afresh for every state; the input state stays as it was
    alpha = certify(1, TWO_PI, n_verify=0).alpha_star if coupled else 0.0
    st = _initial(kmax=16, N=N)
    before = st.coeffs.copy()
    traj = run_trajectory(st, tmax, 4, alpha, gamma)
    assert np.array_equal(st.coeffs, before) and st.t == 0.0
    cur, want = st, {"entropy": [], "h_norm": [], "l1": []}
    for _ in range(4):
        sim._couplings.cache_clear()
        sim._l1_grid.cache_clear()
        want["entropy"].append(entropy(cur, alpha, gamma))
        want["h_norm"].append(h_norm(cur))
        want["l1"].append(l1_distance_1d(cur))
        cur = evolve(cur, float(traj["t"][1]))
    for key, values in want.items():
        assert list(traj[key]) == values, key


def test_trajectory_looks_up_its_constants_once():
    # the per-state functions of the first sample and step miss, and the
    # other 80 samples share one lookup; every sample looked them up again
    # before: 79 hits on the propagators and 80 on the couplings and on
    # the L1 grid
    alpha = certify(1, TWO_PI, n_verify=0).alpha_star
    caches = (sim._propagators, sim._couplings, sim._l1_grid)
    for cache in caches:
        cache.cache_clear()
    run_trajectory(_initial(), 40.0, 81, alpha)
    assert [cache.cache_info()[:2] for cache in caches] == [(1, 1)] * 3


def test_trajectory_decay_and_envelope():
    cert = certify(1, TWO_PI, n_verify=0)
    st = _initial()
    E0 = entropy(st, cert.alpha_star)
    traj = run_trajectory(st, 10.0, 21, cert.alpha_star)
    assert list(traj) == ["t", "entropy", "h_norm", "l1"]
    traj["envelope"] = decay_envelope(traj["t"], cert.C_d, E0, cert.lam)
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
    traj = run_trajectory(_initial(N=N), 0.8, 17, cert.alpha_star)
    envelope = decay_envelope(traj["t"], cert.C_d, traj["entropy"][0], cert.lam)
    assert traj["l1"].max() > 2.0
    assert np.all(traj["l1"] <= envelope)


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


@pytest.mark.filterwarnings("error")
def test_envelope_amplitude_where_C_d_E0_overflows():
    # C_d E0 = 1e400 overflows, sqrt(C_d E0) = 1e200 does not; at t = 1e4
    # the exponential underflows to 0, which inf * 0 turned into nan
    env = decay_envelope([0.0, 1e4], 1e200, 1e200, 1.0)
    assert env[0] == pytest.approx(1e200, rel=1e-15) and env[1] == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["C_d", "E0", "lam"])
def test_envelope_parameters_must_be_finite_and_positive(name, bad):
    # max(0, nan) is 0, so t_init returned 0.0 for a nan, and the
    # envelope took the square root of a negative C_d E0
    args = {"C_d": 1.27, "E0": 74.0, "lam": 0.084}
    args[name] = bad
    msg = f"^{name} must be finite and positive, got {bad}$"
    with pytest.raises(ValueError, match=msg):
        t_init(**args)
    with pytest.raises(ValueError, match=msg):
        decay_envelope(1.0, **args)


def test_state_helpers():
    st = _initial(0.05, kmax=8)
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
        for cache in (sim._propagators, sim._couplings, sim._l1_grid):
            cache.cache_clear()
        want = run(*case)
        assert np.array_equal(coeffs, want[0]) and (ent, l1) == want[1:], case[1:]


def _one_shot_propagators(N, L, kmax, dt):
    """Oracle for :func:`sim._propagators`: every mode in one ``_expm``
    call."""
    (blk,) = chain_blocks(1, N)
    B0 = blk.matrix(0.0)
    s = np.arange(kmax + 1, dtype=float) * (2.0 * math.pi / L)
    B = s[:, None, None] * (blk.matrix(1.0) - B0) + B0
    B *= -dt
    t = degree_phase(1, N)
    return sim._expm(B) * (t[:, None] * t.conj())


def _block_cases():
    """(N, kmax) at one block, a block and a mode, and across many
    blocks, for the block size b of each truncation."""
    cases = set()
    for N in (5, 20, 31, 160):
        b = max(1, sim._BLOCK_BYTES // (8 * N * N))
        cases.update((N, kmax) for kmax in (1, b - 1, b, b + 1, 128))
    return sorted(cases)


@pytest.mark.parametrize("N,kmax", _block_cases())
def test_blocked_propagators_equal_one_shot_evaluation(N, kmax):
    for L in (TWO_PI, 0.37):
        for dt in (0.5, 0.02):
            E = sim._propagators.__wrapped__(N, L, kmax, dt)
            assert np.array_equal(E, _one_shot_propagators(N, L, kmax, dt)), (L, dt)


def _heap_peak(fn, *args):
    """(result, tracemalloc peak in bytes) of one call."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_heap_peak_at_the_defaults(tmp_path):
    # 4.6 MB when the stacks of P_kappa and of the Pade temporaries were
    # dense over all 129 modes
    for cache in (sim._propagators, sim._couplings, sim._l1_grid):
        cache.cache_clear()
    code, peak = _heap_peak(cli.main, ["simulate", "--out", str(tmp_path / "s.csv")])
    assert code == 0 and peak < 2.5e6


def test_propagator_heap_peak_stays_near_its_output():
    # 59.4 MB for the 16.8 MB stack when all 41 modes were one block
    E, peak = _heap_peak(sim._propagators.__wrapped__, 160, TWO_PI, 40, 0.05)
    assert peak < 1.25 * E.nbytes


def test_l1_heap_peak_of_a_warm_call():
    # 0.70 MB with (256, 80) temporaries
    st = _initial()
    later = evolve(st, 0.5)
    l1_distance_1d(st)
    _, peak = _heap_peak(l1_distance_1d, later)
    assert peak < 0.4e6
