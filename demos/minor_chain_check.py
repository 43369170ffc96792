"""Spot check of the closed-form minor chains against dense determinants."""

import numpy as np

from hypobgk import assemble_D_block, chain_spec

rng = np.random.default_rng(7)
for d in (1, 2, 3):
    worst = 0.0
    for _ in range(20):
        kappa = rng.uniform(1.0, 8.0)
        alpha = rng.uniform(0.02, 0.19)
        ell = rng.uniform(0.5, 3.0)
        table = chain_spec(d).minors(kappa, alpha, ell)
        D = assemble_D_block(d, kappa, alpha, ell)
        n = D.shape[0]
        for j, val in enumerate(table.values, start=1):
            sub = D[n - j:, n - j:] if table.convention == "trailing" else D[:j, :j]
            ref = np.linalg.det(sub).real
            worst = max(worst, abs(val - ref) / max(abs(ref), 1e-30))
    print(f"d = {d} ({table.convention} minors, block {n}x{n}): "
          f"worst relative deviation {worst:.2e}")
