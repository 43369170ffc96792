"""Certified rate against the numerically computed spectral gap.

The certificate is a lower bound: mu must sit below the true spectral
gap of every mode.  This script computes the gap from the Hermite-chain
blocks of each modal generator over the first few mode moduli and
reports the margin gap / mu for a few torus lengths, plus a truncation
study showing how the N = 25 gap is still far from converged while
N >= 200 has settled to six digits.
"""

import math

from hypobgk import certify, convergence_study, spectral_gap

KAPPAS = [1, 2, 3, 4, 5]


def compare(d, L, N):
    cert = certify(d, L, n_verify=0)
    rep = spectral_gap(d, L, KAPPAS, N)
    print(f"  d = {d}, L = {L:7.4f}:  mu = {cert.mu:.6f}   "
          f"gap = {rep.gap:.6f} (at kappa = {rep.argmin_kappa:g})   "
          f"margin x{rep.gap / cert.mu:.1f}")
    assert cert.mu < rep.gap


def truncation_study():
    print("\ngap(N) at kappa = 1, L = 2 pi")
    study = convergence_study(1, 2.0 * math.pi, 1.0, [25, 50, 100, 200, 400])
    for n, g in study.rows():
        print(f"  N = {n:>4}   gap = {g:.8f}")


if __name__ == "__main__":
    print("certified rate vs numerical gap (1D, N = 150)")
    for L in (math.pi, 2.0 * math.pi, 4.0 * math.pi):
        compare(1, L, 150)
    truncation_study()
