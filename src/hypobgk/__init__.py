"""Hypocoercivity certificates for linearized BGK equations on the torus.

The package assembles Hermite-spectral velocity discretizations of the
linearized BGK collision operator in one, two and three dimensions,
computes hypocoercivity indices, constructs Lyapunov transformation
matrices, evaluates closed-form exponential decay certificates, and
validates them against numerically computed spectral gaps and modal
simulations.
"""

from .hermite import (
    basis_change_matrix,
    eval_basis,
    gauss_hermite,
    lex_index,
    multi_index,
)
from .operators import (
    ChainBlock,
    OperatorPair,
    build_L1,
    build_L2,
    chain_blocks,
    modal_generator,
    mode_moduli,
    operator_pair,
)
from .index import (
    IndexReport,
    check_invariance_conditions,
    hypocoercivity_index,
    is_hypocoercive_spectral,
)
from .ansatz import (
    AnsatzError,
    ansatz_chain3,
    ansatz_dimker1,
    ansatz_dimker2,
    bgk_P,
    kato_slopes,
    optimal_P,
)
from .certificate import (
    DecayCertificate,
    MinorTable,
    assemble_D_block,
    certify,
    certify_many,
    chain_spec,
    mu_limits_1d,
)
from .gap import (
    ConvergenceStudy,
    GapReport,
    VerificationFailure,
    complex_eigenvalues,
    convergence_study,
    spectral_gap,
)
from .sim import (
    ModalState,
    concentrated_initial_data,
    decay_envelope,
    entropy,
    evolve,
    h_norm,
    l1_distance_1d,
    run_trajectory,
    t_init,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzError",
    "ChainBlock",
    "ConvergenceStudy",
    "DecayCertificate",
    "GapReport",
    "IndexReport",
    "MinorTable",
    "ModalState",
    "OperatorPair",
    "VerificationFailure",
    "ansatz_chain3",
    "ansatz_dimker1",
    "ansatz_dimker2",
    "assemble_D_block",
    "basis_change_matrix",
    "bgk_P",
    "build_L1",
    "build_L2",
    "certify",
    "certify_many",
    "chain_blocks",
    "chain_spec",
    "check_invariance_conditions",
    "complex_eigenvalues",
    "concentrated_initial_data",
    "convergence_study",
    "decay_envelope",
    "entropy",
    "eval_basis",
    "evolve",
    "gauss_hermite",
    "h_norm",
    "hypocoercivity_index",
    "is_hypocoercive_spectral",
    "kato_slopes",
    "l1_distance_1d",
    "lex_index",
    "modal_generator",
    "mode_moduli",
    "mu_limits_1d",
    "multi_index",
    "operator_pair",
    "optimal_P",
    "run_trajectory",
    "spectral_gap",
    "t_init",
]
