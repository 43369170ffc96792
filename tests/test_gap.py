"""Tests for the dense eigensolver wrapper, the chain split of the modal
generators, its reduction to the Gauss-Hermite eigenbasis and the
spectral-gap reports."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import hypobgk.gap as gap
import hypobgk.operators as operators
from hypobgk import (
    VerificationFailure,
    certify,
    chain_blocks,
    complex_eigenvalues,
    convergence_study,
    modal_generator,
    mode_moduli,
    operator_pair,
    spectral_gap,
)
from hypobgk.hermite import MIN_N, _index_table
from hypobgk.operators import MAX_TRUNCATION

from oracles import degree_phase, dispersion_root

TWO_PI = 2.0 * math.pi

def test_reduces_to_hermitian_solver():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = (A + A.conj().T) / 2
        vals, err = complex_eigenvalues(M)
        assert np.abs(vals.imag).max() < 1e-10
        assert np.abs(np.sort(vals.real) - np.linalg.eigvalsh(M)).max() < 1e-10
        # the verified pairs are eigenpairs to the bound
        assert 0.0 < err < 1e-8


def test_eigensolver_guards():
    with pytest.raises(VerificationFailure, match="non-finite"):
        complex_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        complex_eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError):
        complex_eigenvalues(np.eye(2001))
    z = np.zeros((4, 4))
    vals, _ = complex_eigenvalues(z)
    assert np.abs(vals).max() == 0.0


def test_gap_report_1d():
    rep = spectral_gap(1, TWO_PI, [1, 2, 3, 4, 5], 150)
    assert rep.argmin_kappa == 1.0
    assert 0.55 < rep.gap < 0.57
    rows = rep.rows()
    assert len(rows) == 5
    assert all(n == 150 for _, n, _ in rows)
    gaps = [g for _, _, g in rows]
    assert min(gaps) == rep.gap
    assert all(g > -1e-9 for g in gaps)


def test_homogeneous_mode_rate_is_analytic():
    rep = spectral_gap(1, TWO_PI, [0], 40)
    assert rep.gap == 1.0


def test_gap_input_validation():
    with pytest.raises(ValueError):
        spectral_gap(1, TWO_PI, [], 40)
    with pytest.raises(ValueError):
        spectral_gap(1, TWO_PI, [-1.0], 40)


@pytest.mark.parametrize(
    "d,L,N",
    [
        (1, math.pi, 150),
        (1, TWO_PI, 150),
        (1, 4.0 * math.pi, 150),
        (2, TWO_PI, 44),
        (3, TWO_PI, 84),
    ],
)
def test_certified_rate_below_numerical_gap(d, L, N):
    cert = certify(d, L, n_verify=0)
    rep = spectral_gap(d, L, [1, 2, 3], N)
    assert cert.mu < rep.gap


def test_convergence_study_flags_non_monotone_profiles():
    up = convergence_study(1, TWO_PI, 1.0, [25, 50])
    assert [n for n, _ in up.rows()] == [25, 50]
    over = convergence_study(1, TWO_PI, 1.0, [25, 50, 100])
    gaps = [g for _, g in over.rows()]
    # the truncated gap overshoots at N = 50 and comes back down
    assert gaps[1] > gaps[2]


# -- the chain split against the dense generator ------------------------------


def _gap_cases(n=80, seed=20240603):
    """Random (d, variant, N, L, kappa), drawn once from a fixed seed."""
    rng = np.random.default_rng(seed)
    lengths = np.geomspace(0.1, 50.0, 100)
    cases = []
    for _ in range(n):
        d = int(rng.integers(1, 4))
        variant = "tensor" if d == 1 else str(rng.choice(["tensor", "energy"]))
        N = int(rng.integers(MIN_N[d], 121))
        L = float(rng.choice(lengths))
        kappa = float(rng.choice([m for m, _ in mode_moduli(d, 3)]))
        cases.append(
            pytest.param(d, variant, N, L, kappa, id=f"d{d}-{variant}-N{N}-L{L:.4g}-k{kappa:.4g}")
        )
    return cases


@pytest.mark.parametrize("d,variant,N,L,kappa", _gap_cases())
def test_chain_gap_matches_dense_eigensolve(d, variant, N, L, kappa):
    C = modal_generator(operator_pair(d, variant, N, L=L), kappa)
    dense = np.linalg.eig(C)[0].real.min()
    assert abs(spectral_gap(d, L, [kappa], N).gap - dense) <= 1e-12


@pytest.mark.parametrize(
    "d,N", [(1, 5), (1, 37), (1, 2000), (2, 6), (2, 23), (2, 2000), (3, 10), (3, 47), (3, 2000)]
)
def test_blocks_reproduce_the_phased_generator(d, N):
    # N = 37, 23 and 47 end inside a degree level.  The blocks equal the
    # phased generator on their rows and columns; every other row is the
    # identity plus the links -+ s sqrt(m_1) of its chain, and no entry
    # links it to a block
    pair = operator_pair(d, "tensor", N, L=3.0)
    kappa, s = 1.7, 1.7 * pair.ell
    phased = modal_generator(pair, kappa)
    del pair
    idx = _index_table(d, N)
    t = degree_phase(d, N)
    phased *= t.conj()[:, None]
    phased *= t
    assert not phased.imag.any()
    blocks = chain_blocks(d, N)
    assert len(blocks) == d
    full = np.zeros((N, N))
    for blk in blocks:
        full[np.ix_(blk.index, blk.index)] = blk.matrix(s)
    rest = np.ones(N, dtype=bool)
    rest[np.concatenate([blk.index for blk in blocks])] = False
    pos = {m: i for i, m in enumerate(idx)}
    for i in np.flatnonzero(rest):
        m = idx[i]
        full[i, i] = 1.0
        if (up := pos.get((m[0] + 1,) + m[1:])) is not None:
            full[i, up] = -s * math.sqrt(m[0] + 1)
        if m[0]:
            full[i, pos[(m[0] - 1,) + m[1:]]] = s * math.sqrt(m[0])
    assert np.array_equal(phased.real, full)
    # each block lays its chains end to end, each chain with all of its
    # members below N in the order m_1 = 0, 1, ...; one block couples
    # chains in d >= 2
    for blk in blocks:
        members = [idx[i] for i in blk.index]
        assert [m[0] for m in members] == blk.m1.tolist()
        for a, n in zip(np.cumsum((0,) + blk.chains[:-1]), blk.chains):
            tail = members[a][1:]
            assert [m[1:] for m in members[a : a + n]] == [tail] * n
            assert n == sum(m[1:] == tail for m in idx)
    assert sum(len(blk.chains) > 1 for blk in blocks) == (d > 1)


#: the tails m_2, ..., m_d of the chains of each block, in order
BLOCK_TAILS = {
    1: [[()]],
    2: [[(0,), (2,)], [(1,)]],
    3: [[(0, 0), (2, 0), (0, 2)], [(1, 0)], [(0, 1)]],
}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_chain_blocks_reject_truncations_out_of_range(d):
    with pytest.raises(ValueError, match=f"need N >= {MIN_N[d]}"):
        chain_blocks(d, MIN_N[d] - 1)
    with pytest.raises(ValueError, match="exceeds limit"):
        chain_blocks(d, MAX_TRUNCATION + 1)
    for N in (MIN_N[d], MAX_TRUNCATION):
        idx = _index_table(d, N)
        tails = [
            [idx[i][1:] for i in blk.index[blk.m1 == 0]] for blk in chain_blocks(d, N)
        ]
        assert tails == BLOCK_TAILS[d]


def test_eigenvalues_without_vectors_match_the_dense_solver():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 40):
        A = rng.standard_normal((n, n))
        T = np.diag(rng.standard_normal(n)) + np.diag(rng.standard_normal(n - 1), 1)
        T += np.diag(rng.standard_normal(n - 1), -1)
        for M in (A, T, A + 1j * rng.standard_normal((n, n))):
            vals, err = complex_eigenvalues(M)
            dense = np.linalg.eig(M)[0]
            assert 0.0 <= err <= 1e-12
            assert np.abs(vals[:, None] - dense[None, :]).min(axis=0).max() < 1e-10
    vals, err = complex_eigenvalues(np.zeros((3, 3)))
    assert not vals.any() and err == 0.0
    with pytest.raises(VerificationFailure, match="non-finite"):
        complex_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        complex_eigenvalues(np.ones((2, 3)))


def no_eigenvectors(*args, **kwargs):
    raise AssertionError("numpy.linalg.eig was called")


def test_gap_solves_each_nontrivial_block_once(monkeypatch):
    # d = 1 is a single chain, solved whole; eigenvectors are never
    # computed for a gap
    sizes = []
    real = gap.complex_eigenvalues

    def recording(M, *args, **kwargs):
        sizes.append(len(M))
        return real(M, *args, **kwargs)

    monkeypatch.setattr(gap, "complex_eigenvalues", recording)
    monkeypatch.setattr(np.linalg, "eig", no_eigenvectors)
    spectral_gap(1, TWO_PI, [1.0, 2.0], 10)
    assert sizes == [10, 10]
    # nor for the coupled block of d = 3, verified by a dense solve
    spectral_gap(3, TWO_PI, [1.0], 20)


def test_only_nontrivial_blocks_are_solved(monkeypatch):
    real = gap.eigvals
    sizes = []

    def counting(B, **kwargs):
        sizes.append(len(B))
        return real(B, **kwargs)

    monkeypatch.setattr(gap, "eigvals", counting)
    # the shear chains e_2 and e_3 of 3D are one matrix, solved once, at
    # N = 220 (9 rows each); at N = 222 they have 10 and 9 rows
    for N, solves, coupled in [(220, 2, 26), (222, 3, 27)]:
        sizes.clear()
        spectral_gap(3, TWO_PI, [1.0], N)
        assert len(chain_blocks(3, N)) == 3
        assert len(sizes) == solves and max(sizes) == coupled


@pytest.mark.parametrize("L", [0.37, TWO_PI, 25.07])
def test_equal_blocks_solved_once_give_the_gaps_of_every_block(L):
    # the gaps and backward errors of the distinct blocks are those of
    # every block of chain_blocks, to the last bit: at N = 84 and 220 the
    # shear chains are one matrix and one is dropped, at N = 37 and 222
    # they differ and all three blocks are solved
    kappas = [m for m, _ in mode_moduli(3, 5)]
    Ns = [37, 84, 220, 222]
    every = {}
    for N in Ns:
        reduced = [gap._reduce(blk) for blk in chain_blocks(3, N)]
        every[N] = [gap._mode_gap(reduced, kappa, L) for kappa in kappas]
        assert len(gap._split(3, N)) == (3 if N in (37, 222) else 2)
        rep = spectral_gap(3, L, kappas, N)
        assert rep.rows() == [(kappa, N, g) for kappa, (g, _) in zip(kappas, every[N])]
        assert rep.backward_error == max(err for _, err in every[N])
    for i, kappa in enumerate(kappas):
        study = convergence_study(3, L, kappa, Ns)
        assert study.rows() == [(N, every[N][i][0]) for N in Ns]
        assert study.backward_error == max(every[N][i][1] for N in Ns)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaps_assemble_operators_of_the_smallest_truncation_only(monkeypatch, d):
    # the blocks read the low-degree corner of L2 off the smallest
    # truncation; no operator of size N is assembled
    sizes = []
    real = operators.operator_pair

    def recording(d_, variant, N, *args, **kwargs):
        sizes.append(N)
        return real(d_, variant, N, *args, **kwargs)

    monkeypatch.setattr(operators, "operator_pair", recording)
    spectral_gap(d, TWO_PI, [1.0, 2.0], 200)
    convergence_study(d, 3.0, 1.0, [60, 200])
    assert sizes == [MIN_N[d]] * 3


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaps_read_the_index_table_of_the_smallest_truncation_only(monkeypatch, d):
    # the members of each chain come from the graded order, not from a
    # scan of the index table of N
    sizes = set()
    real = operators._index_table

    def recording(d_, N):
        sizes.add(N)
        return real(d_, N)

    monkeypatch.setattr(operators, "_index_table", recording)
    spectral_gap(d, TWO_PI, [1.0, 2.0], 200)
    convergence_study(d, 3.0, 1.0, [60, MAX_TRUNCATION])
    assert sizes == {MIN_N[d]}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gap_at_the_largest_truncation_allocates_less_than_one_square(d):
    # one N x N float64 array at N = 2000 is 30.5 MiB, and a dense
    # operator pair holds two of them
    tracemalloc.start()
    try:
        spectral_gap(d, TWO_PI, [1.0], MAX_TRUNCATION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_TRUNCATION**2 * 8


@pytest.mark.parametrize("sampled", [True, False])
@pytest.mark.parametrize("d,N", [(1, 150), (3, 84)])
def test_shifted_eigenvalue_fails_verification(monkeypatch, d, N, sampled):
    # moves the gap by 1e-6; a complex pair moves together, so that its
    # unshifted partner cannot set the gap instead.  In d = 3 the first
    # block solved is the coupled one.  At N = 150 the error is
    # 5.8e-8 relative to the largest column norm of C_kappa, but would
    # pass relative to its Frobenius norm.  Without the evenly spaced
    # sample, only the pair that sets the gap is checked.
    real = gap.eigvals

    def shifted(B, **kwargs):
        vals = real(B, **kwargs)
        vals[vals.real == vals.real.min()] += 1e-6
        return vals

    monkeypatch.setattr(gap, "eigvals", shifted)
    if not sampled:
        monkeypatch.setattr(gap, "_sample", lambda n: np.array([], dtype=int))
    with pytest.raises(VerificationFailure, match="backward error"):
        spectral_gap(d, TWO_PI, [1.0], N)


def test_reports_carry_the_worst_backward_error():
    rep = spectral_gap(3, TWO_PI, [0, 1, 2], 84)
    assert 0.0 < rep.backward_error <= 1e-8
    study = convergence_study(1, TWO_PI, 1.0, [25, 50])
    assert 0.0 < study.backward_error <= 1e-8
    # the homogeneous mode is analytic: no pair is verified
    assert spectral_gap(1, TWO_PI, [0], 40).backward_error == 0.0


@pytest.mark.parametrize("L", [math.inf, math.nan, 0.0])
def test_non_finite_or_nonpositive_length_rejected(L):
    with pytest.raises(ValueError, match="torus length"):
        spectral_gap(1, L, [1.0], 40)
    with pytest.raises(ValueError, match="torus length"):
        convergence_study(1, L, 1.0, [40])


def test_eigenvalue_sizes_out_of_range_are_rejected():
    # a 0 x 0 matrix has no gap and no backward error to report
    with pytest.raises(ValueError, match="matrix must not be empty"):
        complex_eigenvalues(np.zeros((0, 0)))
    # one limit for the truncations and the eigensolves; the broadcast
    # view allocates nothing
    with pytest.raises(ValueError, match=f"matrix size {MAX_TRUNCATION + 1} exceeds limit {MAX_TRUNCATION}"):
        complex_eigenvalues(np.broadcast_to(0.0, (MAX_TRUNCATION + 1,) * 2))


def test_non_finite_modulus_and_empty_truncations_rejected():
    for kappa in (math.inf, math.nan):
        with pytest.raises(ValueError, match="mode moduli"):
            spectral_gap(1, TWO_PI, [1.0, kappa], 40)
        with pytest.raises(ValueError, match="mode moduli"):
            convergence_study(1, TWO_PI, kappa, [40])
    with pytest.raises(ValueError, match="truncation"):
        convergence_study(1, TWO_PI, 1.0, [])


# -- the Gauss-Hermite eigenbasis and its deflation ---------------------------


def test_gap_at_the_largest_truncation_is_the_dispersion_root():
    rep = spectral_gap(1, TWO_PI, [1.0], MAX_TRUNCATION)
    assert abs(rep.gap - dispersion_root()) <= 1e-10
    assert 0.0 < rep.backward_error <= 1e-8


@pytest.mark.parametrize("N", [200, 300, 400, 500])
def test_deflated_gap_matches_dense_eigensolve(N):
    # at these sizes the chain's tail rows are deflated
    pair = operator_pair(1, "tensor", N)
    kappas = [1.0, 2.0, 3.0, 4.0, 5.0]
    rep = spectral_gap(1, TWO_PI, kappas, N)
    assert rep.argmin_kappa == 1.0
    for kappa, (_, _, g) in zip(kappas, rep.rows()):
        dense = np.linalg.eig(modal_generator(pair, kappa))[0].real.min()
        assert abs(g - dense) <= 1e-12, (kappa, g, dense)


def test_deflation_drops_at_most_eps_squared():
    (blk,) = chain_blocks(1, 500)
    x, U = gap._eigenbasis(blk)
    reduced = gap._reduce(blk)
    # the kept rows, read off the nodes of the kept pairs; a chain of
    # even length has no node 0
    kept = np.isin(np.abs(x), reduced.x)
    assert len(reduced.V) == 2 * len(reduced.x) == kept.sum() < 500 / 2
    assert (U[~kept] ** 2).sum() <= np.finfo(float).eps ** 2
    assert np.array_equal(reduced.x, x[kept & (x > 0)])
    # V is U on the kept rows in an orthonormal basis of each pair
    assert math.isclose((reduced.V**2).sum(), (U[kept] ** 2).sum(), rel_tol=1e-14)
    # mirror pairs go whole, and the smallest go first
    mirror = np.arange(len(x))[::-1]
    assert np.array_equal(kept, kept[mirror])
    pair_norms = (U**2).sum(axis=1) + (U[mirror] ** 2).sum(axis=1)
    assert pair_norms[kept].min() >= pair_norms[~kept].max()


@pytest.mark.parametrize("d,N", [(1, 40), (2, 60), (3, 84)])
def test_eigenbasis_form_is_similar_to_the_block(d, N):
    # diag(1 + i s x) - U U^T has the spectrum of the block, with U of
    # rank at most d + 2 in all and orthonormal columns
    s = 1.3
    ranks = 0
    for blk in chain_blocks(d, N):
        x, U = gap._eigenbasis(blk)
        ranks += U.shape[1]
        assert np.allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-13)
        reduced = np.linalg.eigvals(np.diag(1.0 + 1j * s * x) - U @ U.T)
        full = np.linalg.eigvals(blk.matrix(s))
        dist = np.abs(reduced[:, None] - full[None, :])
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) < 1e-12
    assert ranks == d + 2


# sizes with odd and even chains, so that nodes 0 occur
MIRROR_CASES = [(1, 40), (1, 41), (2, 60), (2, 61), (3, 84), (3, 85)]


@pytest.mark.parametrize("d,N", MIRROR_CASES)
def test_eigenbasis_is_mirror_symmetric_to_the_last_bit(d, N):
    # the real form rests on both: node n - 1 - j of a chain of n is
    # -x_j, and each column of U is even or odd under that mirror
    for blk in chain_blocks(d, N):
        x, U = gap._eigenbasis(blk)
        mirror, start = [], 0
        for n in blk.chains:
            mirror.extend(range(start + n - 1, start - 1, -1))
            start += n
        assert np.array_equal(x[mirror], -x)
        for u in U.T:
            assert np.array_equal(u[mirror], u) or np.array_equal(u[mirror], -u)


@pytest.mark.parametrize("d,N", MIRROR_CASES)
def test_real_form_is_similar_to_the_block(d, N):
    # nothing is deflated at these sizes, so the real form of the pairs
    # and nodes 0 has the block's whole spectrum
    s = 1.3
    nodes_0 = 0
    for blk in chain_blocks(d, N):
        r = gap._reduce(blk)
        nodes_0 += len(r.V) - 2 * len(r.x)
        M = r.matrix(s)
        assert M.dtype == float and len(M) == len(blk.index)
        reduced = np.linalg.eigvals(M)
        full = np.linalg.eigvals(blk.matrix(s))
        dist = np.abs(reduced[:, None] - full[None, :])
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) < 1e-12
    assert nodes_0 > 0 or N % 2 == 0


@pytest.mark.parametrize("d,N", [(1, 151), (3, 84)])
def test_wrong_real_form_fails_verification(monkeypatch, d, N):
    # a coupling [[1, s x], [s x, 1]] instead of [[1, -s x], [s x, 1]],
    # or V scaled by 1 + 1e-4, is caught on the block.  Flipping the sign
    # of every coupling gives the transpose of the real form, with the
    # same spectrum: it is the other choice of sign for o
    real = gap._Reduced.matrix
    expected = spectral_gap(d, TWO_PI, [1.0], N).gap

    def transposed(r, s):
        return real(r, s).T

    monkeypatch.setattr(gap._Reduced, "matrix", transposed)
    assert abs(spectral_gap(d, TWO_PI, [1.0], N).gap - expected) <= 1e-12

    def symmetric(r, s):
        M = real(r, s)
        e = 2 * np.arange(len(r.x))
        M[e, e + 1] *= -1.0
        return M

    monkeypatch.setattr(gap._Reduced, "matrix", symmetric)
    with pytest.raises(VerificationFailure, match="backward error"):
        spectral_gap(d, TWO_PI, [1.0], N)
    monkeypatch.setattr(gap._Reduced, "matrix", real)

    reduce = gap._reduce

    def scaled(block):
        r = reduce(block)
        return dataclasses.replace(r, V=r.V * (1.0 + 1e-4))

    monkeypatch.setattr(gap, "_reduce", scaled)
    with pytest.raises(VerificationFailure, match="backward error"):
        spectral_gap(d, TWO_PI, [1.0], N)


def test_asymmetric_eigenbasis_is_refused(monkeypatch):
    (blk,) = chain_blocks(1, 40)
    x, U = gap._eigenbasis(blk)
    U = U.copy()
    U[0, 1] *= 1.0 + 1e-15
    monkeypatch.setattr(gap, "_eigenbasis", lambda block: (x, U))
    with pytest.raises(VerificationFailure, match="mirror"):
        gap._reduce(blk)


@pytest.mark.parametrize("d,N", [(1, 150), (3, 84)])
def test_wrong_reduction_fails_verification_on_the_block(monkeypatch, d, N):
    # the reduced matrix's own pairs verify, so only the check of the
    # gap-setting pair against the block itself can see the error; in
    # d = 3 the first block reduced is the coupled one
    real = gap._reduce

    def wrong(block):
        r = real(block)
        # scales V V^T by 1 + 1e-4
        V = r.V * math.sqrt(1.0 + 1e-4)
        return dataclasses.replace(r, V=V, base=np.eye(len(V)) - V @ V.T)

    monkeypatch.setattr(gap, "_reduce", wrong)
    with pytest.raises(VerificationFailure, match="backward error"):
        spectral_gap(d, TWO_PI, [1.0], N)


def test_verification_survives_huge_inverse_iterates():
    # tridiagonal inverse iteration at some eigenvalues of a 1D chain
    # (N = 300, s = 5) grows to where the squared norm overflows
    (blk,) = chain_blocks(1, 300)
    op = gap._chains(blk, 5.0)
    assert (gap._backward_errors(op, np.linalg.eigvals(blk.matrix(5.0))) <= 1e-8).all()


# -- structured verification: Woodbury on the reduced matrix, and chain
# LUs plus a Woodbury term for the cross-chain coupling on the block


def dense_backward_error(M, lam):
    """The backward error of lam on M from two steps of inverse iteration
    with a dense solve, one shift alone, stepping off lam where it is an
    eigenvalue to the last bit: the reference for the stacked path."""
    n = len(M)
    scale = np.linalg.norm(M, axis=0).max()
    x, sigma = gap._start(n), lam
    for _ in range(2):
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                y = np.linalg.solve(M - sigma * np.eye(n), x)
        except np.linalg.LinAlgError:
            y = None
        if y is None or not np.isfinite(y).all():
            sigma = lam + np.finfo(float).eps * scale
            y = np.linalg.solve(M - sigma * np.eye(n), x)
        y /= np.abs(y).max()
        x = y / np.linalg.norm(y)
    return np.linalg.norm(M @ x - lam * x) / scale


def recording_checks(monkeypatch):
    """Patches the backward error check to record its operators and
    shifts."""
    seen = []
    real = gap._backward_errors

    def recording(op, lams):
        seen.append((op, np.asarray(lams, dtype=complex)))
        return real(op, lams)

    monkeypatch.setattr(gap, "_backward_errors", recording)
    return seen


def exact_hits(op, lams):
    """The shifts among lams at which a solve with op is not finite:
    eigenvalues to the last bit, or a singular capacitance matrix."""
    lams = np.asarray(lams, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        Y = op.factor(lams)(np.tile(gap._start(op.n), (len(lams), 1)))
    return lams[~np.isfinite(Y).all(axis=1)].tolist()


def test_gaps_raise_no_floating_point_warnings(monkeypatch):
    # eigvals often returns a diagonal entry 1 + i s x_j of a reduced
    # matrix, or an eigenvalue of a chain, to the last bit; inverse
    # iteration must verify such an exact hit without a RuntimeWarning
    seen = recording_checks(monkeypatch)
    kappas = [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d, N, Ns in ((1, 60, [40, 60, 100]), (2, 60, [20, 44, 60]), (3, 21, [21, 84])):
            rep = spectral_gap(d, TWO_PI, kappas, N)
            study = convergence_study(d, TWO_PI, 1.0, Ns)
            assert 0.0 < rep.backward_error <= 1e-8
            assert 0.0 < study.backward_error <= 1e-8
    assert any(exact_hits(op, lams) for op, lams in seen)


def check_like_dense_solves(reduced, s):
    """The stacked Woodbury solve on each reduced real form, and the
    chain operator on each block, give the backward errors of inverse
    iteration with a dense solve, one shift at a time."""
    for r in reduced:
        M = r.matrix(s)
        vals = np.linalg.eigvals(M)
        p = np.argmin(vals.real)
        picks = vals[sorted({p, *gap._sample(len(vals))})]
        B = r.block.matrix(s)
        checks = [(gap._low_rank(M, r.V), M, picks), (gap._chains(r.block, s), B, vals[p : p + 1])]
        for structured, A, lams in checks:
            e_s = gap._backward_errors(structured, lams)
            e_d = gap._backward_errors(gap._dense(A), lams)
            ref = np.array([dense_backward_error(A, lam) for lam in lams])
            assert (ref <= 1e-8).all()
            assert np.abs(e_s - ref).max() <= 1e-13, (s, e_s, ref)
            assert np.abs(e_d - ref).max() <= 1e-13, (s, e_d, ref)


@pytest.mark.parametrize("d,N", [(1, 150), (1, 151), (1, 500), (2, 60), (3, 84), (2, 2000)])
def test_structured_backward_errors_agree_with_dense_solves(d, N):
    # the reduced forms have 2 x 2 blocks and 1 x 1 rows at the nodes 0
    # (N = 151, and two in d = 2); the coupled blocks of d = 2 and 3 have
    # two and three chains, the one of 2D at N = 2000 has 124 rows
    # ell = 1 on the torus of length 2 pi
    reduced = gap._split(d, N)
    for s in (0.3, 1.0, 5.0):
        check_like_dense_solves(reduced, s)


def test_chain_operator_keeps_the_diagonal_of_l2_in_its_lu():
    # the case d2-energy-N91-L25.07-k2.828 of the dense eigensolve
    # comparison: the chain LUs carry l2's diagonal, and only the
    # off-diagonal coupling between chains goes into the Woodbury term
    reduced = gap._split(2, 91)
    check_like_dense_solves(reduced, 2.0 * math.sqrt(2.0) * (TWO_PI / 25.07))
    assert 0.0 < spectral_gap(2, 25.07, [2.0 * math.sqrt(2.0)], 91).backward_error <= 1e-8


@pytest.mark.parametrize("d,N", [(2, 60), (3, 84), (2, 2000)])
@pytest.mark.parametrize("mutation", ["sign", "drop"])
def test_wrong_cross_chain_coupling_fails_verification(monkeypatch, d, N, mutation):
    # the reduced matrix comes from the chains' eigenbasis, not from the
    # block check's C, l2 off its diagonal, so only the check on the
    # block can see a wrong C.  "sign": one entry of l2 between two
    # chains enters with the wrong sign; "drop": one link between two
    # chains is lost.  (A sign flipped on a whole row and column of l2
    # is the similarity that flips one chain, and leaves the spectrum
    # alone.)
    real = gap._chains

    def wrong(blk, s):
        l2 = blk.l2.copy()
        links = np.argwhere(np.triu(l2, 1))
        if len(links):
            p, q = links[0]
            l2[p, q] = -l2[p, q] if mutation == "sign" else 0.0
            l2[q, p] = l2[q, p] if mutation == "sign" else 0.0
        return real(dataclasses.replace(blk, l2=l2), s)

    monkeypatch.setattr(gap, "_chains", wrong)
    with pytest.raises(VerificationFailure, match="backward error"):
        spectral_gap(d, TWO_PI, [1.0, 2.0], N)


def test_coupled_block_check_allocates_less_than_one_square():
    # the 124 rows of the 2D coupled block at N = 2000 are checked
    # without an n x n array: the bands, C and a few (n, r) stacks
    # at s = kappa ell = 1
    (r,) = [r for r in gap._split(2, 2000) if len(r.block.chains) > 1]
    n = len(r.block.index)
    vals = np.linalg.eigvals(r.matrix(1.0))
    lam = vals[np.argmin(vals.real)]
    tracemalloc.start()
    try:
        err = gap._verified(gap._chains(r.block, 1.0), [lam])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err <= 1e-8
    assert peak < n * n * 16


def test_exact_hits_verify_in_a_stack_of_ordinary_shifts():
    # at the outermost kept node of a 1D chain V is so small that
    # 1 + i s x_j is an eigenvalue of the reduced matrix to the last bit;
    # it is one of D exactly, so its row of E is infinite.  In a stack
    # with ordinary shifts it gets the error of a dense solve, and every
    # other shift keeps its error to the last bit
    (r,) = gap._split(1, 60)
    s = 2.0
    M = r.matrix(s)
    op = gap._low_rank(M, r.V)
    vals = np.linalg.eigvals(M)
    # ordinary shifts: the eigenvalues farthest from D's, which lie on Re = 1
    ordinary = vals[np.argsort(vals.real)[:8]]
    hit = 1.0 + 1j * s * r.x.max()
    assert exact_hits(op, np.insert(ordinary, 3, hit)) == [hit]
    alone = gap._backward_errors(op, ordinary)
    mixed = gap._backward_errors(op, np.insert(ordinary, 3, hit))
    assert np.array_equal(np.delete(mixed, 3), alone)
    assert (mixed <= 1e-8).all()
    assert abs(mixed[3] - dense_backward_error(M, hit)) <= 1e-13
    # M = diag(1, 3, 5) as D = diag(2, 3, 5) minus U U^T: at sigma = 1
    # the capacitance matrix is exactly 0, a singular solve in the stack
    # whose row alone comes back nan, and the pair is still verified
    U = np.array([[1.0], [0.0], [0.0]])
    op = gap._low_rank(np.diag([1.0, 3.0, 5.0]), U)
    assert exact_hits(op, [1.0, 4.0]) == [1.0]
    errs = gap._backward_errors(op, [1.0, 4.0])
    assert errs[0] <= 1e-15
    assert errs[1] == gap._backward_errors(op, [4.0])[0]


def test_a_shift_that_lands_on_an_eigenvalue_is_redone():
    # M = diag(1, 3, 5) as D = diag(2, 3, 5) minus U U^T: lam + eps scale
    # is the eigenvalue 3 of D to the last bit, so the first solve is not
    # finite, and the second, at lam + 2 eps scale, verifies the pair
    op = gap._low_rank(np.diag([1.0, 3.0, 5.0]), np.array([[1.0], [0.0], [0.0]]))
    lam = 3.0 - gap._EPS * op.scale
    assert exact_hits(op, [lam + gap._EPS * op.scale]) == [3.0]
    assert gap._backward_errors(op, [lam, 4.0])[0] <= 2.0 * gap._EPS
    # here eigvals gives the eigenvalue 1 of the coupled block, whose two
    # nodes 0 have equal rows in V, as 1 - 3e-16, and the first shift
    # lands on the 1 of those nodes in D
    assert spectral_gap(3, 25.07, [math.sqrt(2.0)], 84).backward_error <= 1e-8


def test_low_rank_form_reads_its_pairs_at_fixed_rows():
    # M = D - U U^T with the 2 x 2 block of D at rows (1, 2), not at the
    # rows (0, 1) where the reduced forms lay their pairs: the structured
    # solve reads D as the identity, and the check fails rather than
    # accept the eigenvalues.  The same matrix, permuted so that the block
    # sits at (0, 1), verifies
    D = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -5.0], [0.0, 5.0, 1.0]])
    U = np.array([[0.6], [0.3], [0.2]])
    M = D - U @ U.T
    with pytest.raises(VerificationFailure, match="backward error"):
        complex_eigenvalues(M, U=U)
    perm = [1, 2, 0]
    vals, err = complex_eigenvalues(M[np.ix_(perm, perm)], U=U[perm])
    assert err <= 1e-8
    assert np.allclose(np.sort_complex(vals), np.sort_complex(np.linalg.eigvals(M)))


def test_tridiagonal_lu_solves_like_a_dense_solve():
    # small pivots force row interchanges; n = 1 and 2 have no third
    # diagonal, and a zero link splits the matrix in two
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 7, 40):
        dl, d, du = rng.standard_normal((3, n)) + 0j
        d[::2] *= 1e-3
        dl[n // 2] = du[n // 2] = 0.0
        B = np.diag(d) + np.diag(du[:-1], 1) + np.diag(dl[:-1], -1)
        lists = [dl[:-1].tolist(), d.tolist(), du[:-1].tolist()]
        factors = gap._gttrf(*lists)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = np.array(gap._gttrs(*lists, *factors, x.tolist()))
        ref = np.linalg.solve(B, x)
        assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()
    # a singular matrix, here a zero pivot, raises; in a stack of shifts
    # on a block it leaves its own row nan: at s = 0 the 1D chain of 5
    # is diag(0, 0, 0, 1, 1), singular at sigma = 1
    lists = [[0j], [1 + 0j, 0j], [0j]]
    with pytest.raises(ZeroDivisionError):
        gap._gttrs(*lists, *gap._gttrf(*lists), [1 + 0j, 1 + 0j])
    (blk,) = chain_blocks(1, 5)
    Y = gap._chains(blk, 0.0).factor(np.array([1.0, 0.5]))(np.ones((2, 5), dtype=complex))
    assert np.isnan(Y[0]).all() and np.array_equal(Y[1], [-2, -2, -2, 2, 2])
