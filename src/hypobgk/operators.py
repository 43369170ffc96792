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

import numpy as np

from .hermite import (
    MIN_N,
    _check_dim,
    _check_int,
    _check_variant,
    _degree_two,
    _energy_block,
    _index_table,
    _position,
)

MAX_TRUNCATION = 2000


def _check_size(d: int, variant: str, N: int) -> None:
    _check_variant(d, variant)
    # the smallest truncation depends on d, and its message says so
    _check_int(N, "truncation", 0)
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
    m = np.array(_index_table(d, N)).T
    # the flat position of m + e_1, past N where the table ends
    up = _position((m[0] + 1, *m[1:]))
    j = np.flatnonzero(up < N)
    L1 = np.zeros((N, N))
    L1[up[j], j] = L1[j, up[j]] = np.sqrt(m[0, j] + 1.0)
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
    # the first row of the energy basis change
    e = _energy_block(d)[0]
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
    level = _degree_two(d)
    # the graded order puts degrees 0 and 1 before the degree-two level
    diag = (np.arange(N) >= level.start).astype(float)
    if variant == "energy" or d == 1:
        # one extra conserved direction, first in the degree-two level
        diag[level.start] = 0.0
        return np.diag(diag)
    L2 = np.diag(diag)
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
    tensor basis, on which L2 is not the identity.

    The block lays its chains end to end: ``chains`` holds their
    lengths, and each chain holds m_1 = 0, 1, 2, ... in turn, the local
    ``m1``, so that multiplication by v_1 links consecutive members.
    ``index`` holds the flat positions of the members in that order.
    ``low`` holds the local positions at which L2 differs from the
    identity, and ``l2`` the restriction of L2 to them.  L2 is diagonal
    within a chain, so the block is tridiagonal but for the collision
    coupling between chains: ``coupling`` is C, the off-diagonal part of
    c l2 c in :meth:`matrix`, restricted to ``hubs``, the local
    positions of its nonzero rows; both are empty for a lone chain.
    """

    index: np.ndarray
    chains: tuple = field(repr=False)
    m1: np.ndarray = field(repr=False)
    low: np.ndarray = field(repr=False)
    l2: np.ndarray = field(repr=False)
    hubs: np.ndarray = field(repr=False)
    coupling: np.ndarray = field(repr=False)

    def matrix(self, s: float) -> np.ndarray:
        """The real block l2 + s K of T^-1 C_kappa T, s = kappa ell.

        Entry (p, q) of T^-1 A T is i**(m_1q - m_1p) A_pq.  L2 only
        links indices whose m_1 have equal parity, so its entries become
        c_p c_q L2_pq with i**m = c_m i**(m % 2), c_m = +-1: its diagonal
        and ``coupling``.  i L1 links m_1 to m_1 + 1 with
        i sqrt(m_1 + 1), which becomes -sqrt(m_1 + 1) above the diagonal
        and +sqrt(m_1 + 1) below.  The block is therefore real, and equal
        to the phased generator to the last bit.
        """
        B = np.eye(len(self.index))
        B[self.low, self.low] = np.diagonal(self.l2)
        B[np.ix_(self.hubs, self.hubs)] += self.coupling
        k = np.flatnonzero(self.m1)
        w = s * np.sqrt(self.m1[k])
        B[k - 1, k] = -w
        B[k, k - 1] = w
        return B


def chain_blocks(d: int, N: int) -> tuple:
    """The diagonal blocks of T^-1 C_kappa T in the tensor basis on
    which L2 is not the identity, the same for every kappa and torus
    length.

    Multiplication by v_1 only changes m_1, so L1 links each index to
    its neighbours in one chain with the tail m_2, ..., m_d fixed.  L2
    is the identity beyond the degree-two level, and diagonal but for
    the projector that couples the chains of (2, 0, 0), (0, 2, 0) and
    (0, 0, 2).  So the blocks are the one chain in 1D, the coupled
    chains m_2 = 0, 2 and the chain m_2 = 1 in 2D, and the coupled
    chains 00, 20, 02 and the chains 10, 01 in 3D; every other chain
    has real parts exactly 1.  The tails and L2 are read off the
    smallest truncation, whose L2 is the low-degree corner of every L2,
    and the members off the graded order: no array of size N is built.

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
    L2 = operator_pair(d, "tensor", MIN_N[d]).L2
    corner = _index_table(d, MIN_N[d])
    low = np.flatnonzero((L2 != np.eye(len(L2))).any(axis=1))
    # the tails of the chains through low, in the order of their first
    # members, each labelled by the first tail that L2 links it to
    label = {tail: i for i, tail in enumerate(dict.fromkeys(corner[p][1:] for p in low))}
    for p, q in zip(*np.nonzero(L2[np.ix_(low, low)])):
        a, b = sorted((label[corner[low[p]][1:]], label[corner[low[q]][1:]]))
        label = {tail: a if i == b else i for tail, i in label.items()}
    blocks = []
    for first in sorted(set(label.values())):
        members = [_position((np.arange(N),) + tail) for tail, i in label.items() if i == first]
        members = [at[at < N] for at in members]
        index = np.concatenate(members)
        m1 = np.concatenate([np.arange(len(at)) for at in members])
        mine = np.flatnonzero(np.isin(index, low))
        l2 = L2[np.ix_(index[mine], index[mine])]
        # the phased c l2 c off its diagonal, which links different chains only
        c = _SIGN[m1[mine] % 4]
        P = c[:, None] * l2 * c
        np.fill_diagonal(P, 0.0)
        on = P.any(axis=1)
        chains = tuple(len(at) for at in members)
        blocks.append(ChainBlock(index, chains, m1, mine, l2, mine[on], P[np.ix_(on, on)]))
    return tuple(blocks)


def modal_generator(pair: OperatorPair, kappa: float) -> np.ndarray:
    """Generator C_kappa = i kappa (2 pi / L) L1 + L2 for modulus kappa."""
    if not (math.isfinite(kappa) and kappa >= 0):
        raise ValueError(f"mode modulus kappa must be finite and nonnegative, got {kappa}")
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
    _check_int(kmax, "kmax", 1)
    squares = np.arange(-kmax, kmax + 1) ** 2
    n2 = squares
    for _ in range(d - 1):
        n2 = np.add.outer(n2, squares)
    counts = np.bincount(n2.ravel())
    counts[0] = 0
    return [(math.sqrt(n), c) for n, c in enumerate(counts.tolist()) if c]
