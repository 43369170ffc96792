"""Headline decay certificates in all three dimensions, then a torus sweep.

Evaluates the closed-form certificate at L = 2 pi for d = 1, 2, 3 and
prints the admissibility threshold, the optimal coupling amplitude, the
decay rate and the norm equivalence constants.  Then sweeps the torus
length in 1D to show that the certified exponential rate 2 mu degrades
monotonically as the torus grows.
"""

import math

import numpy as np

from hypobgk import certify, certify_many, mu_limits_1d

TWO_PI = 2.0 * math.pi


def headline():
    print("certificates at L = 2 pi")
    print(f"{'d':>2} {'alpha_plus':>12} {'alpha_star':>12} {'mu':>12} "
          f"{'2 mu':>12} {'c_d':>8} {'C_d':>8} {'valid':>6}")
    for d in (1, 2, 3):
        cert = certify(d, TWO_PI)
        print(f"{d:>2} {cert.alpha_plus:>12.8f} {cert.alpha_star:>12.8f} "
              f"{cert.mu:>12.3e} {cert.lam:>12.3e} {cert.c_d:>8.4f} "
              f"{cert.C_d:>8.4f} {str(cert.valid):>6}")


def torus_sweep():
    print()
    print("1D rate versus torus length")
    for cert in certify_many(1, np.geomspace(0.5, 16.0, 9), n_verify=10):
        print(f"  L = {cert.L:7.3f}   alpha_star = {cert.alpha_star:.6f}   "
              f"2 mu = {cert.lam:.6f}")
    out = mu_limits_1d()
    print(f"  L -> 0 limit of mu: {out['mu_limit']:.10f} "
          f"(at L = {out['L_small']:g}: {out['mu_at_L_small']:.10f})")


if __name__ == "__main__":
    headline()
    torus_sweep()
