"""Tests for the closed-form decay certificates and their minor chains."""

import dataclasses
import math

import numpy as np
import pytest

from hypobgk import (
    DecayCertificate,
    alpha3_1d,
    assemble_D_block,
    certify,
    certify_many,
    minors_1d,
    minors_2d,
    minors_3d,
    mode_moduli,
    mu_limits_1d,
)
from hypobgk.ansatz import bgk_coupling
from hypobgk.certificate import (
    _FACTORS,
    _LAST_MINOR,
    _first_moduli,
    _sign_changes,
    _thresholds,
    chain_spec,
)
from hypobgk.cli import build_parser
from oracles import alpha_plus_oracle, alpha_star_oracle, mu_oracle

TWO_PI = 2.0 * math.pi
MINORS = {1: minors_1d, 2: minors_2d, 3: minors_3d}
_SWEEP = build_parser().parse_args(["sweep-L"])
#: the torus lengths ``hypobgk sweep-L`` evaluates by default
SWEEP_LENGTHS = [float(L) for L in np.geomspace(_SWEEP.sweep_from, _SWEEP.sweep_to, _SWEEP.points)]


def _brute_minors(d, kappa, alpha, ell, convention):
    D = assemble_D_block(d, kappa, alpha, ell)
    n = D.shape[0]
    out = []
    for j in range(1, n + 1):
        sub = D[n - j:, n - j:] if convention == "trailing" else D[:j, :j]
        out.append(float(np.linalg.det(sub).real))
    return out


def test_minor_table_1d_hand_values():
    t = minors_1d(1.0, 0.1)
    assert t.convention == "trailing"
    want = (2.0, 2.8, 0.332, 0.0664, 0.01328)
    assert np.abs(np.array(t.values) - want).max() < 1e-14


def test_minor_tables_shape():
    t2 = minors_2d(1.3, 0.1, 0.8)
    t3 = minors_3d(1.3, 0.1, 0.8)
    assert t2.convention == t3.convention == "leading"
    assert len(t2.values) == 11 and len(t3.values) == 21
    assert {"p6", "p7", "p8", "p9", "p11"} == set(t2.p_values)
    assert {"p6", "p8", "p10", "p11", "p12", "p14", "p16", "p21"} == set(t3.p_values)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_minors_match_assembled_determinants(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(8):
        ell = float(rng.uniform(0.2, 5.0))
        kappa = float(rng.uniform(1.0, 10.0))
        alpha = float(rng.uniform(0.02, 0.98)) * chain_spec(d).alpha_plus(ell)
        table = MINORS[d](kappa, alpha, ell)
        brute = _brute_minors(d, kappa, alpha, ell, table.convention)
        for got, ref in zip(table.values, brute):
            scale = max(abs(got), abs(ref), 1e-30)
            assert abs(got - ref) / scale < 1e-9


def _mp_minor_error(d, j, points):
    """The largest relative distance, over (kappa, fraction of alpha_plus,
    ell), of the j-th leading minor of the closed form from the 50-digit
    mpmath determinant of the same minor of the float block."""
    import mpmath as mp

    worst = 0.0
    for kappa, frac, ell in points:
        alpha = frac * chain_spec(d).alpha_plus(ell)
        D = assemble_D_block(d, kappa, alpha, ell)[:j, :j]
        with mp.workdps(50):
            ref = mp.det(mp.matrix([[mp.mpc(complex(z)) for z in row] for row in D])).real
            got = MINORS[d](kappa, alpha, ell).values[j - 1]
            worst = max(worst, float(abs(mp.mpf(got) - ref) / abs(ref)))
    return worst


#: 2D: the prefactor 32 of the last minor d11; 3D: the cubic coefficient
#: of p14 in the kappa-free row, which d14 carries
_BY_EXPANSION = {
    2: (11, [(1.0, 0.6, 0.5), (1.7, 0.3, 1.0), (3.0, 0.9, 4.0)]),
    3: (14, [(1.0, 0.9, 2.0), (1.7, 0.6, 4.0), (3.0, 0.9, 4.0)]),
}


@pytest.mark.parametrize("d", [2, 3])
def test_coefficients_fixed_by_expansion_match_exact_determinants(monkeypatch, d):
    # the float block's minors agree with the closed form to about 1e-14;
    # either coefficient moved by 1e-9 relative moves them by more than
    # 1e-10 at these points, well past the bound
    j, points = _BY_EXPANSION[d]
    assert _mp_minor_error(d, j, points) <= 1e-12
    if d == 2:
        const, power, names = _LAST_MINOR[2]
        monkeypatch.setitem(_LAST_MINOR, 2, (const * (1.0 + 1e-9), power, names))
    else:
        p14 = _FACTORS[3]["p14"]
        rows = p14.rows.copy()
        rows[0, 3] *= 1.0 + 1e-9
        monkeypatch.setitem(_FACTORS[3], "p14", dataclasses.replace(p14, rows=rows))
    assert _mp_minor_error(d, j, points) > 1e-12


@pytest.mark.parametrize("d,trace", [(2, 14.0), (3, 32.0)])
def test_trace_identities(d, trace):
    rng = np.random.default_rng(20 + d)
    for _ in range(5):
        ell = float(rng.uniform(0.2, 5.0))
        kappa = float(rng.uniform(1.0, 10.0))
        alpha = float(rng.uniform(0.02, 0.9)) * chain_spec(d).alpha_plus(ell)
        D = assemble_D_block(d, kappa, alpha, ell)
        assert abs(np.trace(D).real - trace) < 1e-12
        assert abs(np.trace(D).imag) < 1e-12


def test_trace_identity_1d():
    # the 1D identity concerns the lower-right 3x3 block; the full
    # trace is 4 independently of the coupling
    rng = np.random.default_rng(21)
    for _ in range(5):
        ell = float(rng.uniform(0.2, 5.0))
        kappa = float(rng.uniform(1.0, 10.0))
        alpha = float(rng.uniform(0.02, 0.9)) * alpha3_1d(TWO_PI / ell)
        D = assemble_D_block(1, kappa, alpha, ell)
        assert abs(np.trace(D[2:, 2:]).real - 4.0 * (1.0 - ell * alpha)) < 1e-12
        assert abs(np.trace(D).real - 4.0) < 1e-12


def test_admissibility_threshold_1d_closed_form():
    want = (9.0 - math.sqrt(17.0)) / 24.0
    assert abs(alpha3_1d(TWO_PI) - want) < 1e-15


def test_admissibility_thresholds_multi_d():
    assert abs(chain_spec(2).alpha_plus(1.0) - 0.21023801412882542) < 1e-12
    assert abs(chain_spec(3).alpha_plus(1.0) - 0.21428787448140457) < 1e-12
    # the admissible amplitude is the smallest of all factor thresholds
    t2 = _thresholds(2, 1.0)
    assert abs(min(t2.values()) - chain_spec(2).alpha_plus(1.0)) < 1e-14
    t3 = _thresholds(3, 1.0)
    assert abs(min(t3.values()) - chain_spec(3).alpha_plus(1.0)) < 1e-14
    # a couple of individual thresholds, frozen
    assert abs(t3["p6"] - 0.8) < 1e-14
    assert abs(t3["p21"] - 0.214287874481405) < 1e-12
    assert abs(t2["p11"] - chain_spec(2).alpha_plus(1.0)) < 1e-14


@pytest.mark.parametrize("d", [1, 2, 3])
def test_minors_positive_inside_admissible_range(d):
    a_plus = chain_spec(d).alpha_plus(1.0)
    for frac in (0.1, 0.5, 0.9, 0.99):
        for kappa in (1.0, 2.0, 3.5):
            t = MINORS[d](kappa, frac * a_plus, 1.0)
            assert min(t.values) > 0
    # just beyond the threshold the chain loses positivity at kappa = 1
    t = MINORS[d](1.0, 1.02 * a_plus, 1.0)
    assert min(t.values) <= 0


def test_sign_changes_of_close_and_double_roots():
    # (y - r1)(y - r2)(y - 2) with r1, r2 inside one cell of a 2001-point
    # scan of (0, 1]: the scan sees no sign change, the roots do
    r1, r2 = 0.30011, 0.30027
    coeffs = np.polynomial.polynomial.polyfromroots([r1, r2, 2.0])
    xs = np.linspace(0.0, 1.0, 2001)[1:]
    assert len(set(np.sign(np.polynomial.polynomial.polyval(xs, coeffs)))) == 1
    roots = _sign_changes(coeffs[None, :], 1.0)[0]
    assert abs(np.nanmin(roots) - r1) < 1e-12
    assert np.sort(roots[~np.isnan(roots)]) == pytest.approx([r1, r2], rel=1e-12)
    # a double root is no sign change
    coeffs = np.polynomial.polynomial.polyfromroots([0.2, 0.2, 0.5])
    roots = _sign_changes(coeffs[None, :], 1.0)[0]
    assert roots[~np.isnan(roots)] == pytest.approx([0.5], rel=1e-12)


def _threshold_polynomials(d, l):
    """For each key of ``_thresholds(d, l)``, the kappa = 1 polynomials in
    alpha (ascending coefficients) whose first sign change it is."""
    out = {}
    for name, f in _FACTORS[d].items():
        j, k = np.ogrid[:3, :6]
        rows = f.rows * l ** (f.m + k - 2.0 * j)
        out[name] = [rows.sum(0)]
        if f.rows[2].any():
            out[name + "t"] = [(rows[1] + 2.0 * rows[2])[1:], rows[2][2:]]
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_thresholds_are_first_sign_changes(d):
    polyval = np.polynomial.polynomial.polyval
    for L in SWEEP_LENGTHS:
        l = TWO_PI / L
        t = _thresholds(d, l)
        polys = _threshold_polynomials(d, l)
        assert set(t) == set(polys)
        for key, ps in polys.items():
            r = t[key]
            top = r if math.isfinite(r) else 40.0 * l / (4.0 * l**2 + 1.0)
            grid = np.linspace(0.0, top, 10001)[1:-1]
            for p in ps:
                assert len(set(np.sign(polyval(grid, p)))) == 1, (L, key)
            if math.isfinite(r):
                assert any(
                    np.sign(polyval(r * (1.0 - 1e-9), p)) != np.sign(polyval(r * (1.0 + 1e-9), p))
                    for p in ps
                ), (L, key)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_optimal_amplitude_beats_a_fine_grid(d):
    spec = chain_spec(d)
    for L in SWEEP_LENGTHS:
        cert = certify(d, L, n_verify=0)
        grid = np.linspace(0.0, cert.alpha_plus, 10001)[1:-1]
        assert cert.mu >= spec.mu(grid, TWO_PI / L).max() * (1.0 - 1e-14), L


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [0.3, TWO_PI, 30.0])
def test_optimal_amplitude_is_the_critical_point(d, L):
    cert = certify(d, L, n_verify=0)
    ref = alpha_star_oracle(d, TWO_PI / L, cert.alpha_star)
    assert abs(cert.alpha_star - ref) <= 1e-12 * ref


@pytest.mark.parametrize("d", [1, 2, 3])
def test_thresholds_on_tori_of_every_decade(d):
    # 1e-30 <= L <= 1e8: no LinAlgError or ZeroDivisionError, no
    # cancellation to zero on large tori, every value a root to 1e-10
    for k in range(-30, 9):
        L = 10.0**k
        cert = certify(d, L, n_verify=0)
        ref = alpha_plus_oracle(d, TWO_PI / L)
        assert abs(cert.alpha_plus - ref) <= 1e-10 * ref, L
        assert 0.0 < cert.alpha_star < cert.alpha_plus and cert.mu > 0.0, L


def _values(certs):
    return [(c.alpha_plus, c.alpha_star, c.mu) for c in certs]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batching_cannot_change_a_length(d):
    # the companion matrices of one grid share eigensolves, and a stack
    # of lengths has more than one companion width once the extreme tori
    # join it: each length must still read bit for bit what it reads alone
    alone = [_values(certify_many(d, [L]))[0] for L in SWEEP_LENGTHS]
    assert _values(certify_many(d, SWEEP_LENGTHS)) == alone
    extremes = [1e-63, 1e33]
    grid = _values(certify_many(d, [extremes[0], *SWEEP_LENGTHS, extremes[1]]))
    assert grid[1:-1] == alone
    assert [grid[0], grid[-1]] == [_values(certify_many(d, [L]))[0] for L in extremes]
    assert _values([certify(d, L, n_verify=0) for L in extremes]) == [grid[0], grid[-1]]


def _ulps(x, ref):
    return abs(x - ref) / np.spacing(ref)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batched_thresholds_match_the_oracles(d):
    # one certify_many call over the whole default sweep grid and 13
    # small tori from 1e-4 to 1e-1, where mu and alpha_star are tiny.
    # The worst distances seen are 2 / 113 / 280 ulp for alpha_plus, 6 /
    # 33 / 173 for alpha_star and 4 / 15 / 21 for mu (d = 1 / 2 / 3): a
    # root inherits the rounding of its coefficients times its condition
    # number, mu only the rounding of its products
    Ls = SWEEP_LENGTHS + np.geomspace(1e-4, 1e-1, 13).tolist()
    for L, cert in zip(Ls, certify_many(d, Ls)):
        ell = TWO_PI / L
        assert _ulps(cert.alpha_plus, alpha_plus_oracle(d, ell)) <= 512, L
        assert _ulps(cert.alpha_star, alpha_star_oracle(d, ell, cert.alpha_star)) <= 256, L
        assert _ulps(cert.mu, mu_oracle(d, ell, cert.alpha_star)) <= 64, L
        assert cert.mu == chain_spec(d).mu(cert.alpha_star, ell), L


@pytest.mark.parametrize("d", [1, 2, 3])
def test_verified_moduli_are_the_smallest(d):
    # the box of sup-norm kmax holds every modulus up to kmax, but not
    # every one beyond it: 36 moduli in 2D once ended at 9.22, not 9.
    # The reference box holds all moduli up to 60, and 150 of them
    ref = mode_moduli(d, 150 if d == 1 else 60)
    for count in range(1, 151):
        assert _first_moduli(d, count) == [m for m, _ in ref[:count]], count


def test_1d_threshold_matches_the_oracle_down_to_tiny_tori():
    # every 5th of 4550 lengths from 1e-30 to 1e8, among them the tiny
    # tori where a discriminant formed as B**2 - 4 A C cancels; the
    # worst distance seen is 2 ulp
    Ls = np.geomspace(1e-30, 1e8, 4550)[::5]
    for L, cert in zip(Ls, certify_many(1, Ls.tolist())):
        assert _ulps(cert.alpha_plus, alpha_plus_oracle(1, TWO_PI / L)) <= 512, L


def test_batch_names_its_first_bad_length_in_grid_order():
    with pytest.raises(ValueError, match=r"^torus length 1e-70 is too small: "):
        certify_many(3, [1.0, 1e-70, math.inf, 1e75])
    with pytest.raises(ValueError, match=r"^torus length must be finite and positive, got inf$"):
        certify_many(3, [1.0, math.inf, 1e-70])
    with pytest.raises(ValueError, match=r"^torus length 1e\+75 is too large: "):
        certify_many(2, [1.0, 1e75, 0.0])
    assert certify_many(1, []) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", [1, 2, 3])
def test_certificate_out_of_range_fails_only_on_the_torus_length(d):
    for k in np.arange(-160.0, 160.0, 0.37):
        L = float(10.0**k)
        try:
            cert = certify(d, L, n_verify=0)
        except ValueError as exc:
            assert str(exc).startswith(f"torus length {L!r} is too "), (L, exc)
        else:
            assert 0.0 < cert.alpha_star < cert.alpha_plus and cert.mu > 0.0, L


def test_certificate_1d_values():
    cert = certify(1, TWO_PI, n_verify=5)
    assert abs(cert.mu - 0.04181235634839236) < 1e-12
    assert abs(cert.alpha_star - 0.09179394798877326) < 1e-9
    assert abs(cert.alpha_plus - (9.0 - math.sqrt(17.0)) / 24.0) < 1e-15
    assert cert.valid and cert.failed_kappa is None
    assert len(cert.verification) == 5
    assert min(v[1] for v in cert.verification) > -1e-9


def test_certificate_norm_equivalence_constants():
    for d in (1, 2, 3):
        cert = certify(d, TWO_PI, n_verify=0)
        theta = chain_spec(d).theta
        assert abs(cert.c_d - 1.0 / (1.0 + theta * cert.alpha_star)) < 1e-14
        assert abs(cert.C_d - 1.0 / (1.0 - theta * cert.alpha_star)) < 1e-14
        assert abs(cert.lam - 2.0 * min(1.0, cert.mu)) < 1e-15
        assert 0 < cert.alpha_star < cert.alpha_plus


def test_certificate_constants():
    assert chain_spec(1).theta == math.sqrt(3.0 + math.sqrt(6.0))
    assert chain_spec(2).theta == math.sqrt(6.0)
    assert chain_spec(3).theta == 2.0
    assert chain_spec(1).amgm is None
    assert chain_spec(2).amgm == (10.0 / 14.0) ** 10
    assert chain_spec(3).amgm == (20.0 / 32.0) ** 20


def test_mu_value_consistency():
    for d in (1, 2, 3):
        cert = certify(d, TWO_PI, n_verify=0)
        assert abs(chain_spec(d).mu(cert.alpha_star, 1.0) - cert.mu) < 1e-15
    # evaluating away from the maximizer gives a smaller rate
    cert = certify(2, TWO_PI, n_verify=0)
    assert chain_spec(2).mu(0.5 * cert.alpha_star, 1.0) < cert.mu


def test_certificate_alpha_override():
    cert = certify(1, TWO_PI, n_verify=0, alpha=0.05)
    assert cert.alpha_star == 0.05
    assert abs(cert.mu - chain_spec(1).mu(0.05, 1.0)) < 1e-15
    with pytest.raises(ValueError):
        certify(1, TWO_PI, alpha=0.5)
    with pytest.raises(ValueError):
        certify(1, TWO_PI, alpha=0.0)


def test_certificate_argument_validation():
    with pytest.raises(ValueError):
        certify(4)
    with pytest.raises(ValueError):
        certify(1, L=-1.0)


@pytest.mark.parametrize("L", [math.inf, math.nan])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_certificate_rejects_non_finite_length(d, L):
    with pytest.raises(ValueError, match="finite"):
        certify(d, L)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_certificate_rejects_overflowing_length(d):
    with pytest.raises(ValueError, match="too small"):
        certify(d, 1e-300, n_verify=0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_certificate_rejects_underflowing_length(d):
    # the rate underflows to zero: never a valid certificate of rate 0
    with pytest.raises(ValueError, match="torus length 1e[+]300 is too large"):
        certify(d, 1e300, n_verify=0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_minors_reject_non_finite_parameters(d, bad):
    with pytest.raises(ValueError, match="kappa"):
        MINORS[d](bad, 0.1)
    with pytest.raises(ValueError, match="alpha"):
        MINORS[d](1.0, bad)
    with pytest.raises(ValueError, match="wavenumber"):
        MINORS[d](1.0, 0.1, bad)


def test_chain_spec_dispatch():
    for d in (1, 2, 3):
        spec = chain_spec(d)
        assert spec.minors is MINORS[d]
        a, l = 0.01, 0.7
        minors = spec.minors(1.0, a, l).values
        if d == 1:
            assert spec.alpha_plus(l) == alpha3_1d(TWO_PI / l)
            # the third trailing minor sets the 1D rate
            want = minors[2] / (8.0 * (1.0 - l * a) ** 2)
        else:
            assert spec.alpha_plus(l) == min(1.0 / spec.theta, *_thresholds(d, l).values())
            want = spec.amgm * minors[-1] / 2.0
        mu = spec.mu(a, l)
        assert abs(mu - want / (1.0 + spec.theta * a)) <= 1e-14 * mu
    with pytest.raises(ValueError, match="dimension"):
        chain_spec(4)


def test_optimal_rate_decreases_with_torus_length():
    mus = [certify(1, L, n_verify=0).mu for L in (1.0, 2.0, 4.0, TWO_PI, 10.0, 20.0)]
    assert all(b < a for a, b in zip(mus, mus[1:]))


def test_small_torus_limits():
    out = mu_limits_1d()
    r13 = math.sqrt(13.0)
    assert abs(out["mu_limit"] - 3.0 * (4.0 - r13) * (3.0 - r13) ** 2 / (1.0 - r13) ** 2) < 1e-15
    assert abs(out["mu_limit"] - 0.06391670948406959) < 1e-15
    assert abs(out["alpha_over_L_limit"] - (4.0 - r13) / (6.0 * math.pi)) < 1e-15
    assert abs(out["mu_at_L_small"] - out["mu_limit"]) < 1e-4
    assert abs(out["alpha_over_L_at_L_small"] - out["alpha_over_L_limit"]) < 1e-4


@pytest.mark.parametrize(
    "L,reason",
    [
        (-1.0, "must be finite and positive"),
        (0.0, "must be finite and positive"),
        (math.nan, "must be finite and positive"),
        (math.inf, "must be finite and positive"),
        (1e-200, "is too small"),
    ],
)
def test_small_torus_limits_reject_bad_lengths(L, reason):
    # a negative torus gave a rate, nan and 1e-200 gave nan and 0 a
    # ZeroDivisionError
    with pytest.raises(ValueError, match=f"^torus length .*{reason}"):
        mu_limits_1d(L)


def test_minor_input_validation():
    with pytest.raises(ValueError):
        minors_1d(0.5, 0.1)
    with pytest.raises(ValueError):
        minors_2d(1.0, -0.1)
    with pytest.raises(ValueError):
        minors_3d(1.0, 0.1, 0.0)


def test_json_payload_shape():
    cert = certify(1, TWO_PI, n_verify=2)
    payload = cert.to_json_dict()
    assert set(payload) == {
        "d", "L", "alpha_plus", "alpha_star", "mu", "lambda",
        "c_d", "C_d", "valid", "failed_kappa", "verified",
    }
    assert payload["lambda"] == cert.lam
    assert len(payload["verified"]) == 2
    assert set(payload["verified"][0]) == {"kappa", "min_eig"}
    assert isinstance(cert, DecayCertificate)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_theta_is_the_spectral_radius_of_the_coupling_table(d):
    # chain_spec(d).theta is a literal, and ansatz._BGK_COUPLINGS the
    # table behind P = I + A: at kappa = alpha = 1 the extreme
    # eigenvalues of A are +-theta
    theta = chain_spec(d).theta
    eigs = np.linalg.eigvalsh(bgk_coupling(d, 1.0, 1.0))
    tol = 4.0 * np.finfo(float).eps * theta
    assert abs(eigs[-1] - theta) <= tol
    assert abs(eigs[0] + theta) <= tol
