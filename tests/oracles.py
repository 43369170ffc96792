"""Reference values shared by the test modules, computed from
independent oracles rather than copied decimals."""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import wofz


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
