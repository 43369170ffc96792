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
    DIMENSIONS,
    _check_variant,
    _index_table,
    basis_change_matrix,
    lex_index,
)

MAX_TRUNCATION = 2000


def _check_size(d: int, variant: str, N: int) -> None:
    _check_variant(d, variant)
    if N > MAX_TRUNCATION:
        raise ValueError(f"truncation {N} exceeds limit {MAX_TRUNCATION}")
    min_N = DIMENSIONS[d].min_N
    if N < min_N:
        raise ValueError(f"need N >= {min_N} in dimension {d}, got {N}")


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
        S = basis_change_matrix(d, N)
        L1 = S @ L1 @ S
    return L1


def _collision_projector_block(d: int) -> np.ndarray:
    """Complement of the energy direction on the degree-two diagonal level.

    In the tensor basis the conserved combination at degree two is the
    unit vector e proportional to (1, 1, ..., 1) over the d functions
    with a single component equal to 2; the collision operator acts as
    I - e e^T there.
    """
    k = d * (d + 1) // 2
    e = np.zeros(k)
    lo = lex_index(tuple([2] + [0] * (d - 1)))
    for a in range(d):
        mm = tuple(2 if j == a else 0 for j in range(d))
        e[lex_index(mm) - lo] = 1.0
    e /= np.linalg.norm(e)
    return np.eye(k) - np.outer(e, e)


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
    if variant == "energy" or d == 1:
        diag = (degrees >= 2).astype(float)
        if d >= 2:
            # one extra conserved direction inside the degree-two level
            diag[lex_index(tuple([2] + [0] * (d - 1)))] = 0.0
        else:
            diag[2] = 0.0
        return np.diag(diag)
    L2 = np.diag((degrees >= 2).astype(float))
    lo = lex_index(tuple([2] + [0] * (d - 1)))
    k = d * (d + 1) // 2
    L2[lo : lo + k, lo : lo + k] = _collision_projector_block(d)
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
    if L <= 0:
        raise ValueError("torus length must be positive")
    return OperatorPair(
        L1=build_L1(d, variant, N),
        L2=build_L2(d, variant, N),
        d=d,
        variant=variant,
        N=N,
        L=L,
    )


@dataclass(frozen=True)
class ModalGenerator:
    """Evolution matrix -C of a single spatial mode, with its modulus."""

    kappa: float
    C: np.ndarray = field(repr=False)


#: c_m in i**m = c_m i**(m % 2), indexed by m % 4
_SIGN = np.array([1.0, 1.0, -1.0, -1.0])
#: i * i**(n % 2 - m % 2) for |n - m| = 1: -1 for even m, 1 for odd m;
#: indexed by m % 4
_L1_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])


@dataclass(frozen=True)
class ChainBlock:
    """One diagonal block of T^-1 C_kappa T, T = diag(i**m_1), in the
    tensor basis.

    ``index`` holds the ascending flat positions of its multi-indices;
    ``K`` and ``l2`` are the restrictions of T^-1 (i L1) T and
    T^-1 L2 T, both real.
    """

    index: np.ndarray
    K: np.ndarray = field(repr=False)
    l2: np.ndarray = field(repr=False)

    @property
    def trivial(self) -> bool:
        """L2 restricts to the identity: every real part is exactly 1."""
        return np.array_equal(self.l2, np.eye(len(self.index)))

    def matrix(self, s: float) -> np.ndarray:
        """The real block l2 + s K of T^-1 C_kappa T, s = kappa ell."""
        B = s * self.K
        B += self.l2
        return B


def chain_blocks(pair: OperatorPair) -> tuple:
    """Diagonal blocks of T^-1 C_kappa T, the same for every kappa.

    Multiplication by v_1 only changes m_1, so L1 links each index to
    its neighbours in one chain with m_2, ..., m_d fixed; L2 is diagonal
    except on the degree-two level, where it couples the chains holding
    (2, 0, 0), (0, 2, 0) and (0, 0, 2).  The blocks are the connected
    components of the nonzero pattern of L1 and L2, read off the
    assembled matrices, so a lone chain is tridiagonal.

    Entry (p, q) of T^-1 A T is i**(m_1q - m_1p) A_pq.  L2 only links
    indices whose m_1 have equal parity, so its entries become
    c_p c_q L2_pq, with i**m = c_m i**(m % 2) and c_m = +-1; i L1 links
    unequal parities, so its entries become c_p s_p c_q L1_pq with the
    sign s_p of :data:`_L1_SIGN`.  Every block is therefore real, and
    equal to the phased generator to the last bit.

    Parameters
    ----------
    pair : OperatorPair
        Operators in the tensor basis (any basis for d = 1).

    Returns
    -------
    tuple of ChainBlock
        Ordered by their first index.
    """
    if pair.d > 1 and pair.variant != "tensor":
        raise ValueError("the chain split needs the tensor basis")
    parent = list(range(pair.N))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, cols = np.nonzero((pair.L1 != 0) | (pair.L2 != 0))
    for i, j in zip(rows.tolist(), cols.tolist()):
        parent[root(i)] = root(j)
    members: dict = {}
    for i in range(pair.N):
        members.setdefault(root(i), []).append(i)
    m1 = np.array([m[0] % 4 for m in _index_table(pair.d, pair.N)])
    blocks = []
    for group in members.values():
        index = np.array(group)
        at = np.ix_(index, index)
        c = _SIGN[m1[index]]
        K = pair.L1[at]
        K *= (c * _L1_SIGN[m1[index]])[:, None]
        K *= c
        l2 = pair.L2[at]
        l2 *= c[:, None]
        l2 *= c
        blocks.append(ChainBlock(index=index, K=K, l2=l2))
    return tuple(blocks)


def modal_generator(pair: OperatorPair, kappa: float) -> ModalGenerator:
    """Generator C_kappa = i kappa (2 pi / L) L1 + L2 for modulus kappa."""
    if kappa < 0:
        raise ValueError("mode modulus must be nonnegative")
    C = 1j * kappa * pair.ell * pair.L1 + pair.L2.astype(complex)
    return ModalGenerator(kappa=float(kappa), C=C)


def mode_moduli(d: int, kmax: int):
    """Distinct moduli |k| of nonzero integer modes with multiplicities.

    Enumerates k in Z^d with 0 < max_i |k_i| <= kmax and groups by
    |k|.  Grouping keys on the integer |k|**2, so equal moduli are
    collapsed exactly.

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
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    counts: dict[int, int] = {}
    rng = range(-kmax, kmax + 1)
    if d == 1:
        grids = ((k,) for k in rng)
    elif d == 2:
        grids = ((k1, k2) for k1 in rng for k2 in rng)
    else:
        grids = ((k1, k2, k3) for k1 in rng for k2 in rng for k3 in rng)
    for k in grids:
        n2 = sum(c * c for c in k)
        if n2 > 0:
            counts[n2] = counts.get(n2, 0) + 1
    return [(math.sqrt(n2), counts[n2]) for n2 in sorted(counts)]


if __name__ == "__main__":
    pair = operator_pair(2, "energy", 15)
    print("L1[3, 6] =", pair.L1[3, 6], "expected", math.sqrt(1.5))
    print("ker L2 dim:", int(np.sum(np.abs(np.diag(pair.L2)) < 1e-12)))
