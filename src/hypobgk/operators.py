"""Assembly of the Hermite-spectral transport and collision matrices.

For a spatial mode with wavenumber k, the coefficient dynamics are

    d/dt h = -C_kappa h,      C_kappa = i * kappa * (2 pi / L) * L1 + L2,

where L1 is the (real symmetric) matrix of multiplication by the first
velocity component, L2 the (real symmetric positive semidefinite) matrix
of the linearized BGK collision operator, and kappa = |k|.  Both are
assembled here for the graded Hermite bases of :mod:`hypobgk.hermite`
in the tensor and energy variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hermite import (
    MIN_N,
    SQRT2PI,
    _check_dim,
    _check_variant,
    _degree_two,
    _energy_block,
    _index_table,
    gauss_hermite,
    hermite_phi,
    lex_index,
)

MAX_TRUNCATION = 2000


def _check_size(d: int, variant: str, N: int) -> None:
    _check_variant(d, variant)
    if N > MAX_TRUNCATION:
        raise ValueError(f"truncation {N} exceeds limit {MAX_TRUNCATION}")
    if N < MIN_N[d]:
        raise ValueError(f"need N >= {MIN_N[d]} in dimension {d}, got {N}")


def _check_length(L: float) -> None:
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"torus length must be finite and positive, got {L}")


def build_L1(d: int, variant: str, N: int) -> np.ndarray:
    """Matrix of multiplication by v_1 in the chosen basis.

    Parameters
    ----------
    d : int
        Velocity dimension.
    variant : str
        ``"tensor"`` or ``"energy"``; for d = 1 they agree.
    N : int
        Truncation size (at most ``MAX_TRUNCATION``).

    Returns
    -------
    ndarray
        Real symmetric ``(N, N)`` matrix.  Entry (i, j) couples
        multi-indices differing by one unit in the first component and
        equals sqrt(max(m_1) ) for the pair; rows and columns follow the
        graded ordering.
    """
    _check_size(d, variant, N)
    idx = _index_table(d, N)
    pos = {m: i for i, m in enumerate(idx)}
    L1 = np.zeros((N, N))
    for j, m in enumerate(idx):
        up = tuple((m[0] + 1,) + m[1:])
        i = pos.get(up)
        if i is not None:
            w = math.sqrt(m[0] + 1.0)
            L1[i, j] = w
            L1[j, i] = w
    if variant == "energy" and d >= 2:
        # S @ L1 @ S with S = basis_change_matrix(d, N): S is the
        # identity off the degree-two level, and every entry of the
        # rotated rows and columns has at most one nonzero term, so
        # this equals the dense product to the last bit
        level = _degree_two(d)
        B = _energy_block(d)
        L1[level] = B @ L1[level]
        L1[:, level] = L1[:, level] @ B
    return L1


def _collision_projector_block(d: int) -> np.ndarray:
    """Complement of the energy direction on the degree-two diagonal level.

    In the tensor basis the conserved combination at degree two is the
    unit vector e proportional to (1, 1, ..., 1) over the d functions
    with a single component equal to 2; the collision operator acts as
    I - e e^T there.
    """
    level = _degree_two(d)
    e = np.zeros(level.stop - level.start)
    for a in range(d):
        mm = tuple(2 if j == a else 0 for j in range(d))
        e[lex_index(mm) - level.start] = 1.0
    e /= np.linalg.norm(e)
    return np.eye(len(e)) - np.outer(e, e)


def build_L2(d: int, variant: str, N: int) -> np.ndarray:
    """Matrix of the linearized BGK collision operator.

    The kernel consists of the mass, momentum and energy moments, so its
    dimension is d + 2.  In the tensor basis the operator is diagonal
    except on the degree-two level, where it is the projector
    complementary to the conserved energy combination; in the energy
    basis it is diagonal with exactly d + 2 zeros.

    Parameters
    ----------
    d, variant, N
        As in :func:`build_L1`.

    Returns
    -------
    ndarray
        Real symmetric positive semidefinite ``(N, N)`` matrix.
    """
    _check_size(d, variant, N)
    idx = _index_table(d, N)
    degrees = np.array([sum(m) for m in idx])
    level = _degree_two(d)
    if variant == "energy" or d == 1:
        diag = (degrees >= 2).astype(float)
        # one extra conserved direction, first in the degree-two level
        diag[level.start] = 0.0
        return np.diag(diag)
    L2 = np.diag((degrees >= 2).astype(float))
    L2[level, level] = _collision_projector_block(d)
    return L2


@dataclass(frozen=True)
class OperatorPair:
    """L1 and L2 for a fixed basis and torus length.

    Attributes
    ----------
    L1, L2 : ndarray
        The assembled matrices.
    d, variant, N : int, str, int
        Basis identification.
    L : float
        Torus side length.
    ell : float
        Wavenumber scale 2 pi / L.
    """

    L1: np.ndarray = field(repr=False)
    L2: np.ndarray = field(repr=False)
    d: int
    variant: str
    N: int
    L: float

    @property
    def ell(self) -> float:
        return 2.0 * math.pi / self.L


def operator_pair(d: int, variant: str, N: int, L: float = 2.0 * math.pi) -> OperatorPair:
    """Assemble both operator matrices for one basis and torus length."""
    _check_length(L)
    return OperatorPair(
        L1=build_L1(d, variant, N),
        L2=build_L2(d, variant, N),
        d=d,
        variant=variant,
        N=N,
        L=L,
    )


#: c_m in i**m = c_m i**(m % 2), indexed by m % 4
_SIGN = np.array([1.0, 1.0, -1.0, -1.0])


@dataclass(frozen=True)
class ChainBlock:
    """One diagonal block of T^-1 C_kappa T, T = diag(i**m_1), in the
    tensor basis.

    ``index`` holds the ascending flat positions of its multi-indices.
    ``chains`` holds, for each chain of the block, the local positions
    of its members in the order m_1 = 0, 1, 2, ...; multiplication by
    v_1 links consecutive members.  ``low`` holds the local positions at
    which L2 differs from the identity, and ``l2`` the restriction of L2
    to them, so no array of the block's size is kept.  L2 is diagonal
    within a chain, so the block is tridiagonal on each chain but for
    :attr:`coupling`, the collision coupling between chains.
    """

    index: np.ndarray
    chains: tuple = field(repr=False)
    low: np.ndarray = field(repr=False)
    l2: np.ndarray = field(repr=False)

    @property
    def trivial(self) -> bool:
        """L2 restricts to the identity: every real part is exactly 1."""
        return len(self.low) == 0

    def _m1(self) -> np.ndarray:
        m1 = np.empty(len(self.index), dtype=int)
        for chain in self.chains:
            m1[chain] = np.arange(len(chain))
        return m1

    def matrix(self, s: float) -> np.ndarray:
        """The real block l2 + s K of T^-1 C_kappa T, s = kappa ell.

        Entry (p, q) of T^-1 A T is i**(m_1q - m_1p) A_pq.  L2 only
        links indices whose m_1 have equal parity, so its entries become
        c_p c_q L2_pq with i**m = c_m i**(m % 2), c_m = +-1; i L1 links
        m_1 to m_1 + 1 with i sqrt(m_1 + 1), which becomes -sqrt(m_1 + 1)
        above the diagonal and +sqrt(m_1 + 1) below.  The block is
        therefore real, and equal to the phased generator to the last
        bit.
        """
        B = np.eye(len(self.index))
        c = _SIGN[self._m1()[self.low] % 4]
        B[np.ix_(self.low, self.low)] = c[:, None] * self.l2 * c
        for chain in self.chains:
            w = s * np.sqrt(np.arange(1.0, len(chain)))
            B[chain[:-1], chain[1:]] = -w
            B[chain[1:], chain[:-1]] = w
        return B

    @cached_property
    def coupling(self):
        """The off-diagonal part of c l2 c in :meth:`matrix`, which links
        different chains only: the local positions ``hubs`` of its
        nonzero rows and its restriction C there, empty for a lone chain."""
        c = _SIGN[self._m1()[self.low] % 4]
        P = c[:, None] * self.l2 * c
        np.fill_diagonal(P, 0.0)
        on = P.any(axis=1)
        return self.low[on], P[np.ix_(on, on)]

    def eigenbasis(self):
        """The block in the eigenbasis of its chains, for every kappa.

        Each chain's Jacobi matrix of v_1 is diagonalized by the
        Gauss-Hermite rule of its length: nodes x_j, and eigenvectors
        with components Q[m, j] = sqrt(w_j / sqrt(2 pi)) phi_m(x_j).
        I - L2 is the orthogonal projector W W^T onto the block's share
        of the conserved moments.  So with C the block of C_kappa before
        the phase T, Q^T C Q is

            diag(1 + i s x) - U U^T,    U = Q^T W,  s = kappa ell,

        a diagonal minus an update of rank at most d + 2.  W lives on
        the few ``low`` positions, so U needs phi_m at the nodes only
        for the m_1 found there.

        Returns
        -------
        (x, U) : ndarray, ndarray
            The nodes of all chains, concatenated, and U with one row
            per node; ||U||_2 <= 1.
        """
        # a projector's eigenvalues are 0 and 1
        vals, vecs = np.linalg.eigh(np.eye(len(self.low)) - self.l2)
        W = vecs[:, vals > 0.5]
        m1 = self._m1()[self.low]
        xs, us = [], []
        for chain in self.chains:
            x, w = gauss_hermite(len(chain))
            on = np.isin(self.low, chain)
            phi = hermite_phi(int(m1[on].max(initial=0)), x)[m1[on]]
            xs.append(x)
            us.append(np.sqrt(w / SQRT2PI)[:, None] * (phi.T @ W[on]))
        return np.concatenate(xs), np.vstack(us)


def chain_blocks(d: int, N: int) -> tuple:
    """Diagonal blocks of T^-1 C_kappa T in the tensor basis, the same
    for every kappa and torus length.

    Multiplication by v_1 only changes m_1, so L1 links each index to
    its neighbours in one chain with m_2, ..., m_d fixed.  The degree
    grows with m_1, so a chain holds m_1 = 0, 1, ..., n - 1 in flat
    order.  L2 is the identity beyond the degree-two level, which the
    smallest truncation holds; there it is diagonal except for the
    projector that couples the chains holding (2, 0, 0), (0, 2, 0) and
    (0, 0, 2).  The blocks are the chains, with those linked by L2
    merged.  They are read off the index table of N and the L2 of the
    smallest truncation, which is the low-degree corner of every L2, so
    no array of size N is assembled or kept.

    Parameters
    ----------
    d : int
        Velocity dimension.
    N : int
        Truncation size, from ``MIN_N[d]`` to
        ``MAX_TRUNCATION``.

    Returns
    -------
    tuple of ChainBlock
        Ordered by their first index.
    """
    _check_size(d, "tensor", N)
    idx = _index_table(d, N)
    chains: dict = {}
    for i, m in enumerate(idx):
        chains.setdefault(m[1:], []).append(i)
    L2 = operator_pair(d, "tensor", MIN_N[d]).L2
    parent = {tail: tail for tail in chains}

    def root(tail):
        while parent[tail] != tail:
            tail = parent[tail]
        return tail

    for p, q in zip(*np.nonzero(L2)):
        parent[root(idx[p][1:])] = root(idx[q][1:])
    groups: dict = {}
    for tail in chains:
        groups.setdefault(root(tail), []).append(chains[tail])
    low = np.flatnonzero((L2 != np.eye(len(L2))).any(axis=1))
    blocks = []
    for group in groups.values():
        index = np.sort(np.concatenate(group))
        mine = low[np.isin(low, index)]
        blocks.append(
            ChainBlock(
                index=index,
                chains=tuple(np.searchsorted(index, chain) for chain in group),
                low=np.searchsorted(index, mine),
                l2=L2[np.ix_(mine, mine)],
            )
        )
    return tuple(sorted(blocks, key=lambda blk: blk.index[0]))


def modal_generator(pair: OperatorPair, kappa: float) -> np.ndarray:
    """Generator C_kappa = i kappa (2 pi / L) L1 + L2 for modulus kappa."""
    if kappa < 0:
        raise ValueError("mode modulus must be nonnegative")
    return 1j * kappa * pair.ell * pair.L1 + pair.L2.astype(complex)


def mode_moduli(d: int, kmax: int):
    """Distinct moduli |k| of nonzero integer modes with multiplicities.

    Counts k in Z^d with 0 < max_i |k_i| <= kmax by the integer |k|**2,
    so equal moduli are collapsed exactly.

    Parameters
    ----------
    d : int
        Spatial dimension.
    kmax : int
        Sup-norm cutoff.

    Returns
    -------
    list of (float, int)
        Sorted ``(modulus, multiplicity)`` pairs.
    """
    _check_dim(d)
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    squares = np.arange(-kmax, kmax + 1) ** 2
    n2 = squares
    for _ in range(d - 1):
        n2 = np.add.outer(n2, squares)
    counts = np.bincount(n2.ravel())
    counts[0] = 0
    return [(math.sqrt(n), c) for n, c in enumerate(counts.tolist()) if c]
