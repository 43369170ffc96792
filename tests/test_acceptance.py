"""Acceptance suite: the quantitative contract of the package.

Each criterion is asserted at its stated tolerance.  Where a criterion
names a reference value, the test computes that value itself from an
independent oracle: dense determinants of the assembled dissipation
block for the certificate thresholds and rates, and the untruncated
BGK dispersion relation for the 1D spectral gap.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

import hypobgk.cli as cli
from hypobgk import (
    alpha3_1d,
    assemble_D_block,
    basis_change_matrix,
    bgk_P,
    certify,
    concentrated_initial_data,
    convergence_study,
    decay_envelope,
    entropy,
    hypocoercivity_index,
    kato_slopes,
    lex_index,
    minors_1d,
    minors_2d,
    minors_3d,
    mode_moduli,
    mu_limits_1d,
    multi_index,
    operator_pair,
    run_trajectory,
    spectral_gap,
    t_init,
)
from hypobgk import evolve
from hypobgk.ansatz import bgk_coupling
from hypobgk.certificate import chain_spec
from hypobgk.hermite import SQRT2PI, gauss_hermite, hermite_phi

from oracles import dispersion_root

TWO_PI = 2.0 * math.pi

MINORS = {1: minors_1d, 2: minors_2d, 3: minors_3d}


# -- shared expensive artifacts, timed once ---------------------------------


@pytest.fixture(scope="module")
def cert2d():
    t0 = time.perf_counter()
    cert = certify(2, TWO_PI)
    return cert, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cert3d():
    t0 = time.perf_counter()
    cert = certify(3, TWO_PI)
    return cert, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gap_study():
    t0 = time.perf_counter()
    report = spectral_gap(1, TWO_PI, [1, 2, 3, 4, 5], 500)
    profile = convergence_study(1, TWO_PI, 1.0, [25, 50, 100, 200, 400, 500])
    return report, profile, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trajectory():
    t0 = time.perf_counter()
    cert = certify(1, TWO_PI, n_verify=0)
    state = concentrated_initial_data(0.02, kmax=128, N=20)
    E0 = entropy(state, cert.alpha_star)
    traj = run_trajectory(state, 40.0, 50, cert.alpha_star)
    traj["envelope"] = decay_envelope(traj["t"], cert.C_d, E0, cert.lam)
    return cert, E0, traj, time.perf_counter() - t0


# -- independent oracles ----------------------------------------------------


def _det_D(d, alpha):
    """det D(kappa = 1, alpha) at L = 2 pi, by dense LU."""
    return float(np.linalg.det(assemble_D_block(d, 1.0, alpha)).real)


def _det_threshold(d):
    """First alpha > 0 at which D(kappa = 1, alpha) stops being positive
    definite: bracketed by Sylvester's criterion on a grid, then
    located as the sign change of det D."""
    grid = np.linspace(0.0, 0.5, 501)[1:]
    first = next(
        i for i, a in enumerate(grid)
        if min(_brute_minors(d, 1.0, a, 1.0, "leading")) <= 0.0
    )
    assert first > 0
    return brentq(
        lambda a: _det_D(d, a), grid[first - 1], grid[first], xtol=1e-15
    )


def _det_rate(d, alpha_plus):
    """Maximum over (0, alpha_plus) of
    amgm det D(1, alpha) / (2 (1 + theta alpha)) of ``chain_spec(d)``."""
    spec = chain_spec(d)
    res = minimize_scalar(
        lambda a: -spec.amgm * _det_D(d, a) / (2.0 * (1.0 + spec.theta * a)),
        bounds=(0.0, alpha_plus),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return -res.fun


# -- criterion 1: hypocoercivity indices ------------------------------------


@pytest.mark.parametrize(
    "d,variant,tau", [(1, "tensor", 3), (2, "energy", 2), (3, "energy", 2)]
)
def test_criterion01_indices(d, variant, tau):
    t0 = time.perf_counter()
    pair = operator_pair(d, variant, 20)
    rep = hypocoercivity_index(pair.ell * pair.L1, pair.L2)
    elapsed = time.perf_counter() - t0
    assert rep.tau == tau
    assert elapsed < 1.0


# -- criterion 2: 1D certificate at L = 2 pi --------------------------------


def test_criterion02_1d_certificate():
    t0 = time.perf_counter()
    cert = certify(1, TWO_PI, n_verify=0)
    elapsed = time.perf_counter() - t0
    assert abs(cert.mu - 0.041812) < 1e-5
    assert abs(alpha3_1d(TWO_PI) - (9.0 - math.sqrt(17.0)) / 24.0) < 1e-12
    assert elapsed < 1.0


# -- criterion 3: small-torus limits ----------------------------------------


def test_criterion03_small_torus_limits():
    out = mu_limits_1d(L_small=1e-3)
    assert abs(out["mu_limit"] - 0.06391670961) < 1e-8
    assert abs(out["mu_at_L_small"] - out["mu_limit"]) < 1e-4
    assert abs(out["alpha_over_L_at_L_small"] - (4.0 - math.sqrt(13.0)) / (6.0 * math.pi)) < 1e-4


# -- criterion 4: 2D certificate at L = 2 pi --------------------------------


def test_criterion04_2d_certificate(cert2d):
    cert, elapsed = cert2d
    assert abs(cert.alpha_plus - 0.2102380141) < 1e-8
    assert abs(cert.alpha_star - 0.1453311384) < 1e-6
    assert cert.valid
    assert elapsed < 10.0


def test_criterion04_2d_rate_reference_decimal(cert2d):
    cert, _ = cert2d
    # oracle: the rate maximized with det D in place of the closed-form minor
    reference = _det_rate(2, cert.alpha_plus)
    assert abs(cert.mu / reference - 1.0) < 1e-9, (cert.mu, reference)


# -- criterion 5: 3D certificate at L = 2 pi --------------------------------


def test_criterion05_3d_certificate(cert3d):
    cert, elapsed = cert3d
    assert abs(cert.alpha_star - 0.1644256115) < 1e-6
    assert 2.0 * cert.mu >= 1.0 / 2820.0
    assert cert.valid
    assert elapsed < 30.0


def test_criterion05_3d_threshold_reference_decimal(cert3d):
    cert, _ = cert3d
    # oracle: the first alpha at which D(kappa = 1, alpha) is not positive definite
    reference = _det_threshold(3)
    assert abs(cert.alpha_plus - reference) < 1e-10, (cert.alpha_plus, reference)


def test_criterion05_3d_rate_reference_decimal(cert3d):
    cert, _ = cert3d
    # oracle: the rate maximized with det D in place of the closed-form minor
    reference = _det_rate(3, cert.alpha_plus)
    assert abs(cert.mu / reference - 1.0) < 1e-9, (cert.mu, reference)


# -- criterion 6: numerical gap, 1D -----------------------------------------


def test_criterion06_gap_value_and_argmin(gap_study):
    report, _, elapsed = gap_study
    kappa1 = dict((k, g) for k, _, g in report.rows())[1.0]
    assert abs(kappa1 - 0.558296) < 5e-4
    assert report.argmin_kappa == 1.0
    assert elapsed < 60.0


def test_criterion06_gap_profile_monotone(gap_study):
    _, profile, _ = gap_study
    # oracle: the untruncated gap, the root of the BGK dispersion relation.
    # A Galerkin truncation of the non-normal generator need not approach
    # it monotonically in value (the gap overshoots at N = 50), but its
    # distance to the limit must shrink as N grows.
    root = dispersion_root()
    dist = [abs(g - root) for _, g in profile.rows()]
    assert all(b <= a for a, b in zip(dist, dist[1:])), dist
    assert dist[-1] <= 1e-7, dist


# -- criterion 7: minor formulas against determinants -----------------------


def _brute_minors(d, kappa, alpha, ell, convention):
    D = assemble_D_block(d, kappa, alpha, ell)
    n = D.shape[0]
    out = []
    for j in range(1, n + 1):
        sub = D[n - j:, n - j:] if convention == "trailing" else D[:j, :j]
        out.append(float(np.linalg.det(sub).real))
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_criterion07_minor_oracle(d):
    rng = np.random.default_rng(700 + d)
    for _ in range(50):
        ell = float(rng.uniform(0.2, 5.0))
        kappa = float(rng.uniform(1.0, 10.0))
        alpha = float(rng.uniform(0.02, 0.98)) * chain_spec(d).alpha_plus(ell)
        table = MINORS[d](kappa, alpha, ell)
        brute = _brute_minors(d, kappa, alpha, ell, table.convention)
        for got, ref in zip(table.values, brute):
            scale = max(abs(got), abs(ref), 1e-30)
            assert abs(got - ref) / scale < 1e-9
        D = assemble_D_block(d, kappa, alpha, ell)
        if d == 1:
            assert abs(np.trace(D[2:, 2:]).real - 4.0 * (1.0 - ell * alpha)) < 1e-12
        else:
            assert abs(np.trace(D).real - {2: 14.0, 3: 32.0}[d]) < 1e-12


# -- criterion 8: matrix-inequality verification ----------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_criterion08_matrix_inequality_first_50_moduli(d):
    cert = certify(d, TWO_PI, n_verify=50)
    assert cert.valid
    assert len(cert.verification) == 50
    assert min(m for _, m in cert.verification) >= -1e-9


# -- criterion 9: P eigenvalue fixtures -------------------------------------


def _p_eigen_fixture(d, kappa, alpha):
    r = alpha / kappa
    if d == 1:
        vals = [1.0] + [
            1.0 + s * r * math.sqrt(3.0 + t * math.sqrt(6.0))
            for s in (1.0, -1.0)
            for t in (1.0, -1.0)
        ]
    elif d == 2:
        vals = [1.0] * 5 + [
            1.0 + s * c * r for s in (1.0, -1.0) for c in (1.0, math.sqrt(5.0), math.sqrt(6.0))
        ]
    else:
        vals = [1.0] * 13 + [1.0 + s * r for s in (1.0, -1.0)] * 3 + [
            1.0 + 2.0 * r, 1.0 - 2.0 * r
        ]
    return np.sort(np.array(vals))


@pytest.mark.parametrize("d,n", [(1, 5), (2, 11), (3, 21)])
def test_criterion09_transformation_eigenvalues(d, n):
    rng = np.random.default_rng(900 + d)
    for _ in range(10):
        kappa = float(rng.uniform(1.0, 10.0))
        alpha = float(rng.uniform(0.05, 0.95)) * chain_spec(d).alpha_plus(1.0)
        P = bgk_P(d, kappa, alpha, n)
        got = np.sort(np.linalg.eigvalsh(P))
        assert np.abs(got - _p_eigen_fixture(d, kappa, alpha)).max() < 1e-10


# -- criterion 10: Kato slopes ----------------------------------------------


def test_criterion10_kato_slopes():
    pair = operator_pair(1, "tensor", 8)
    alpha = 0.15
    A = bgk_coupling(1, 1.0, alpha, 8)
    slopes = kato_slopes(pair.ell * pair.L1, pair.L2, A)
    assert slopes.shape == (3,)
    assert np.abs(slopes - 2.0 * pair.ell * alpha).max() < 1e-12
    r = 1e-4
    C = 1j * pair.ell * pair.L1 + pair.L2.astype(complex)
    P = np.eye(8) + r * A
    D = C.conj().T @ P + P @ C
    fd = np.sort(np.linalg.eigvalsh((D + D.conj().T) / 2))[:3] / r
    assert np.abs(fd / np.sort(slopes) - 1.0).max() < 0.01


# -- criterion 11: simulation -----------------------------------------------


def test_criterion11_entropy_bound(trajectory):
    cert, E0, traj, _ = trajectory
    assert len(traj["t"]) == 50
    bound = E0 * np.exp(-cert.lam * traj["t"])
    assert np.all(traj["entropy"] <= bound * (1.0 + 1e-9))


def test_criterion11_l1_envelope_bound(trajectory):
    _, _, traj, _ = trajectory
    assert np.all(traj["l1"] <= traj["envelope"] + 1e-3)


def test_criterion11_plateau(trajectory):
    cert, E0, traj, _ = trajectory
    ti = t_init(cert.C_d, E0, cert.lam)
    t, l1 = traj["t"], traj["l1"]
    # oracle: the simulation itself, read on the two timescales of the
    # model.  Collisions relax the non-conserved moments at unit rate,
    # so within one mean free time (t < 1) the concentrated bump is not
    # yet mixed and L1 stays near its maximum.  Transport then mixes it
    # away before the envelope falls below 2 at t_init, a time that
    # belongs to the bound and not to the solution, so L1 has dropped
    # below 1.8 before 0.5 t_init.  L1 may exceed 2 early on, since the
    # linearized dynamics does not keep M (1 + h) nonnegative, so no
    # upper bound is assumed.
    assert np.count_nonzero(t < 1.0) >= 2
    assert np.all(l1[t < 1.0] >= 1.8), (t[t < 1.0], l1[t < 1.0])
    assert np.any(l1[t < 0.5 * ti] < 1.8), 0.5 * ti


def test_criterion11_runtime(trajectory):
    _, _, _, elapsed = trajectory
    assert elapsed < 120.0


# -- criterion 12: property spot checks -------------------------------------


def test_criterion12_properties(tmp_path):
    # flat-index bijections
    for d in (2, 3):
        assert all(lex_index(multi_index(i, d), d) == i for i in range(100))
    # basis-change involution
    S = basis_change_matrix(3, 56)
    assert np.abs(S @ S - np.eye(56)).max() < 1e-14
    # quadrature orthonormality
    x, w = gauss_hermite(32)
    phi = hermite_phi(11, x)
    G = np.array(
        [[np.sum(w * phi[m] * phi[n]) for n in range(12)] for m in range(12)]
    ) / SQRT2PI
    assert np.abs(G - np.eye(12)).max() < 1e-10
    # semigroup property of the evolution
    st = concentrated_initial_data(0.05, kmax=16, N=20)
    one = evolve(st, 1.0)
    two = evolve(evolve(st, 0.5), 0.5)
    num = np.abs(one.coeffs - two.coeffs).max()
    den = np.abs(one.coeffs).max()
    assert num / den < 1e-9
    # deterministic command-line artifacts
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["certificate", "--dim", "1", "--out", str(p1)]) == 0
    assert cli.main(["certificate", "--dim", "1", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
