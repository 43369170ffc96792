"""Reference values shared by the test modules, computed from
independent oracles rather than copied decimals."""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import wofz

from hypobgk import multi_index


def degree_phase(d, N):
    """The diagonal i**|m| of the phase T over the graded order of
    dimension d, from an exact table of the powers of i (1j**n is not
    exact)."""
    return np.array([1, 1j, -1, -1j])[[sum(multi_index(i, d)) % 4 for i in range(N)]]


def dispersion_root():
    """Real root in (0.5, 0.6) of the 1D BGK dispersion relation at
    kappa = 1, L = 2 pi (so k = kappa ell = 1).

    A real eigenvalue lambda < 1 of the generator C = i k v + I - Pi of
    dh/dt = -C h solves det(I_3 - G(lambda)) = 0, where Pi projects onto
    the collision invariants psi = (1, v, (v**2 - 1) / sqrt 2) and
    G_ij = E[psi_i psi_j / (i k (v - z))] over the unit Gaussian, with
    z = i (1 - lambda) / k.
    """
    k = 1.0
    # power-series coefficients of the collision invariants
    psi = [[1.0], [0.0, 1.0], [-1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0)]]
    gauss_moments = [1.0, 0.0, 1.0, 0.0]  # E[v**n]

    def det(lam):
        z = 1j * (1.0 - lam) / k
        # E[v**n / (v - z)] for Im z > 0, from the Faddeeva function and
        # E[v**(n+1) / (v - z)] = z E[v**n / (v - z)] + E[v**n]
        moments = [1j * math.sqrt(math.pi / 2.0) * wofz(z / math.sqrt(2.0))]
        for n in range(4):
            moments.append(z * moments[n] + gauss_moments[n])

        def mean_over(a, b):
            coeffs = np.polynomial.polynomial.polymul(a, b)
            return sum(c * moments[n] for n, c in enumerate(coeffs)) / (1j * k)

        G = np.array([[mean_over(a, b) for b in psi] for a in psi])
        # G_ij is real for i + j even and imaginary otherwise, so the
        # determinant is real
        return np.linalg.det(np.eye(3) - G).real

    return brentq(det, 0.5, 0.6, xtol=1e-15)


def alpha_plus_oracle(d, ell, dps=40):
    """alpha_plus of the d-dimensional certificate at wavenumber scale
    ell, from mpmath polynomial roots at ``dps`` digits.

    1D: the smaller root of the third trailing minor at kappa = 1,
    72 ell**3 a**2 - (48 ell**2 + 6) a + 8 ell.  2D and 3D: the smallest
    of 1 / theta and the smallest positive root of every kappa = 1
    factor, of its derivative in u = 1 / kappa**2 at u = 1 over alpha and
    of its u**2 coefficient over alpha**2, for the factors quadratic in u
    (all these roots are simple); roots beyond ten times
    4 ell / (4 ell**2 + 1) count as none.  The
    factor tables are the program's (the minors tests pin them against
    dense determinants); the roots are found here independently.
    """
    import mpmath as mp

    from hypobgk.certificate import _FACTORS, chain_spec

    with mp.workdps(dps):
        l = mp.mpf(ell)
        if d == 1:
            # B**2 - 4 A C = 576 l**2 + 36, written cancelled: its two
            # terms of size 2304 l**4 would cancel on tiny tori.  The
            # smaller root 2 C / (B + sqrt D) subtracts nothing
            B, C = 48 * l**2 + 6, 8 * l
            return float(2 * C / (B + mp.sqrt(576 * l**2 + 36)))
        scale = 4 * l / (4 * l**2 + 1)
        best = mp.mpf(1) / mp.mpf(chain_spec(d).theta)
        for f in _FACTORS[d].values():
            # coefficient of u**j alpha**k, then of u**j y**k with alpha = scale y
            c = [
                [mp.mpf(float(f.rows[j, k])) * l ** (f.m + k - 2 * j) * scale**k for k in range(6)]
                for j in range(3)
            ]
            polys = [[c[0][k] + c[1][k] + c[2][k] for k in range(6)]]
            if any(c[2]):
                polys.append([c[1][k] + 2 * c[2][k] for k in range(1, 6)])
                polys.append(c[2][2:])
            for p in polys:
                # drop the terms below the working precision on [0, 10]:
                # their roots lie far beyond 10 and slow the iteration
                size = [abs(x) * 10**k for k, x in enumerate(p)]
                while p and size[len(p) - 1] <= mp.mpf(10) ** (-dps) * max(size):
                    p = p[:-1]
                n = len(p) - 1
                if n < 1:
                    continue
                # eigenvalues of the companion matrix by mpmath's QR: the
                # Durand-Kerner iteration of mp.polyroots stalls on roots
                # 1e28 apart, as on large tori
                companion = mp.matrix(n, n)
                for i in range(n):
                    if i:
                        companion[i, i - 1] = 1
                    companion[i, n - 1] = -p[i] / p[n]
                roots = [companion[0, 0]] if n == 1 else mp.eig(companion, left=False, right=False)
                for z in roots:
                    if abs(mp.im(z)) <= mp.mpf(10) ** (5 - dps) * abs(z) and 0 < mp.re(z) <= 10:
                        best = min(best, scale * mp.re(z))
        return float(best)


def _mu(d, ell):
    """The certified rate mu(alpha) of dimension d at wavenumber scale
    ell, as an mpmath function at the current working precision: the 1D
    closed form, and in 2D and 3D the last minor at kappa = 1 from the
    program's ``_FACTORS`` and ``_LAST_MINOR`` tables, each factor summed
    term by term."""
    import mpmath as mp

    from hypobgk.certificate import _FACTORS, _LAST_MINOR, chain_spec

    spec = chain_spec(d)
    l, theta = mp.mpf(ell), mp.mpf(spec.theta)
    if d == 1:
        return lambda a: (8 * l * a * (1 - 3 * l * a) ** 2 - 6 * a**2) / (
            8 * (1 - l * a) ** 2 * (1 + theta * a)
        )
    const, power, names = _LAST_MINOR[d]

    def mu(a):
        value = mp.mpf(spec.amgm) * mp.mpf(const) * l * a**power / (2 * (1 + theta * a))
        for name in names:
            f = _FACTORS[d][name]
            value *= sum(
                mp.mpf(float(f.rows[j, k])) * l ** (f.m + k - 2 * j) * a**k
                for j in range(3)
                for k in range(6)
            )
        return value

    return mu


def mu_oracle(d, ell, alpha, dps=40):
    """The certified rate mu at the amplitude ``alpha`` and wavenumber
    scale ell, evaluated at ``dps`` digits."""
    import mpmath as mp

    with mp.workdps(dps):
        return float(_mu(d, ell)(mp.mpf(alpha)))


def alpha_star_oracle(d, ell, start, dps=40):
    """The critical point of the certified rate mu(alpha) nearest to
    ``start``: mpmath's findroot on the numerical derivative of mu at
    ``dps`` digits.  mu is evaluated directly, not through the
    polynomial whose root the program takes.  The root is sought in
    y = alpha / start, and the derivative divided by mu(start), so that
    findroot's absolute tolerance means the same on every torus: on
    small tori mu and alpha are tiny, and mu' in alpha lost it.
    """
    import mpmath as mp

    with mp.workdps(dps):
        mu = _mu(d, ell)
        a0 = mp.mpf(start)
        m0 = mu(a0)
        y = mp.findroot(lambda y: mp.diff(lambda t: mu(a0 * t), y) / m0, mp.mpf(1))
        return float(a0 * y)
