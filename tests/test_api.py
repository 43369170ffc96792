"""The public names of the package: one name per quantity."""

import importlib

import pytest

import hypobgk

PUBLIC = [
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


def test_all_holds_exactly_the_public_names():
    assert hypobgk.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(hypobgk, name) is not None, name


@pytest.mark.parametrize(
    "module,name",
    [
        ("hermite", "MIN_CERTIFICATE_SIZE"),
        ("hermite", "BasisSpec"),
        ("hermite", "recurrence_coeffs"),
        ("operators", "ModalGenerator"),
        ("ansatz", "PAnsatz"),
        ("certificate", "THETA"),
        ("certificate", "AMGM"),
        ("certificate", "alpha_plus_2d"),
        ("certificate", "alpha_plus_3d"),
        ("certificate", "mu_value"),
        ("certificate", "rational_monotone_check"),
        ("sim", "moments"),
        ("hermite", "DimensionSpec"),
        ("hermite", "DIMENSIONS"),
        ("gap", "EigenvalueFailure"),
        ("certificate", "alpha3_1d"),
        ("certificate", "minors_1d"),
        ("certificate", "minors_2d"),
        ("certificate", "minors_3d"),
    ],
)
def test_second_names_do_not_resolve(module, name):
    # each quantity has one name: the smallest truncation is
    # hermite.MIN_N[d]; the block size, basis variant, theta, amgm, minor
    # chain, alpha_plus and mu are fields of chain_spec(d); a failed check is a
    # VerificationFailure; and the two conditions of
    # rational_monotone_check are roots that certificate._thresholds
    # solves in closed form
    assert not hasattr(hypobgk, name)
    assert not hasattr(importlib.import_module(f"hypobgk.{module}"), name)
