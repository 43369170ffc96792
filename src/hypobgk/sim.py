"""Modal simulation of the linearized dynamics and entropy diagnostics.

A state is a stack of Hermite coefficient vectors, one row per
wavenumber, evolved exactly by matrix exponentials of the modal
generators.  The entropy functional weights each mode with the
certified transformation matrix, so its decay at the certified rate
can be checked against the simulated trajectory, along with the L1
distance of the reconstructed density from equilibrium and its L2
envelope bound.  :class:`L1Grid` evaluates the
L1 distance on half its grid, by the symmetries x -> 1 - x and v -> -v.

The simulation is one-dimensional and stores the half spectrum: one
row per wavenumber kappa = 0, 1, ..., kmax, with weight 1 for kappa = 0
and 2 otherwise.  Real data has h_{-k} = conj(h_k), and C_{-k} =
conj(C_k) because L1 and L2 are real, so the conjugate modes carry no
information of their own.  The wavenumbers and weights follow from the
number of rows, so the propagators, the transformations P_kappa and the
L1 grid are cached by kmax, not by the list of moduli.

The propagators are computed in real arithmetic.  With T = diag(i**m),
T^-1 C_kappa T is real: in 1D it is the one block of
:func:`hypobgk.operators.chain_blocks`, built by
:meth:`hypobgk.operators.ChainBlock.matrix`.  Its exponential is taken
by the [13/13] Pade approximant with scaling and squaring (Higham, SIAM
J. Matrix Anal. Appl. 26 (2005) 1179-1193), and multiplying back by
the powers of i is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .ansatz import bgk_P
from .hermite import SQRT2PI, gauss_hermite, hermite_phi
from .operators import _check_length, _check_size, chain_blocks

#: points of the x grid and of the Gauss rule in v of the L1 distance
_NX, _NV = 512, 160


@dataclass
class ModalState:
    """The half spectrum of a one-dimensional state at one instant.

    Row kappa of ``coeffs`` holds the Hermite coefficients of the mode
    of wavenumber kappa = 0, 1, ..., kmax; the conjugate modes are
    implied by h_{-k} = conj(h_k).  The moduli, their weights and the
    truncation are read off the shape of ``coeffs``.

    Attributes
    ----------
    L : float
        Torus side length.
    coeffs : ndarray, shape (kmax + 1, N)
        Complex coefficient vectors of the modes kappa = 0, ..., kmax.
    t : float
        Current time.
    truncation_tail : float
        Squared norm of the initial data lost to the wavenumber cutoff.
    """

    L: float
    coeffs: np.ndarray = field(repr=False)
    t: float = 0.0
    truncation_tail: float = 0.0

    @property
    def N(self) -> int:
        """Truncation size."""
        return self.coeffs.shape[1]

    @property
    def kmax(self) -> int:
        """Largest stored wavenumber."""
        return self.coeffs.shape[0] - 1

    @property
    def kappa(self) -> np.ndarray:
        """Wavenumbers 0, 1, ..., kmax of the rows."""
        return np.arange(self.coeffs.shape[0], dtype=float)

    @property
    def weights(self) -> np.ndarray:
        """Weight of each row in quadratic functionals and in the
        reconstruction: 1 for kappa = 0, 2 for kappa and -kappa."""
        return np.where(self.kappa == 0, 1.0, 2.0)

    @property
    def ell(self) -> float:
        return 2.0 * math.pi / self.L


#: coefficients b_j = (26 - j)! / (j! (13 - j)!) of the numerator
#: p(A) = sum b_j A**j of the [13/13] Pade approximant p(A) / p(-A) of
#: exp(A); each is an integer that a double holds exactly
_PADE13 = [math.factorial(26 - j) / (math.factorial(j) * math.factorial(13 - j)) for j in range(14)]
#: the largest 1-norm at which its backward error stays below the unit
#: roundoff
_THETA13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) for a stack of real square matrices by scaling and
    squaring with the [13/13] Pade approximant, overwriting A.  Each
    matrix is scaled by a power of two to 1-norm at most theta_13 on its
    own: scaled and squared as often as the largest mode, a mode with a
    small norm loses accuracy in the squarings."""
    norm = np.abs(A).sum(axis=-2).max(axis=-1)
    s = np.maximum(0, np.ceil(np.log2(norm / _THETA13))).astype(int)
    A *= np.exp2(-s)[:, None, None]
    b, eye = _PADE13, np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    # the odd part U and the even part V of p(A)
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye
    )
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    # the powers are not needed past here; freeing them lowers the peak
    # memory of a simulation
    del A2, A4, A6
    P = V + U
    V -= U
    X = np.linalg.solve(V, P)
    for i in range(s.max(initial=0)):
        sq = s > i
        Y = X[sq]
        X[sq] = Y @ Y
    return X


@lru_cache(maxsize=8)
def _propagators(N: int, L: float, kmax: int, dt: float) -> np.ndarray:
    """The stack exp(-C_kappa dt) over kappa = 0, 1, ..., kmax.

    The exponential is taken of the real B_kappa = T^-1 C_kappa T, T =
    diag(i**m), which is the one chain block of the 1D generator, affine
    in s = kappa ell; exp(-C_kappa dt) = T exp(-B_kappa dt) T^-1
    multiplies entry (p, q) by i**(p - q), which is exact.
    """
    (blk,) = chain_blocks(1, N)
    B0 = blk.matrix(0.0)
    s = np.arange(kmax + 1, dtype=float) * (2.0 * math.pi / L)
    B = s[:, None, None] * (blk.matrix(1.0) - B0) + B0
    B *= -dt
    m = np.arange(N)
    E = _expm(B) * np.array([1, 1j, -1, -1j])[(m[:, None] - m) % 4]
    E.flags.writeable = False
    return E


def evolve(state: ModalState, dt: float) -> ModalState:
    """Advance every mode by dt with the exact modal propagators."""
    if dt < 0:
        raise ValueError("time step must be nonnegative")
    if dt == 0.0:
        return replace(state, coeffs=state.coeffs.copy())
    E = _propagators(state.N, state.L, state.kmax, float(dt))
    return replace(state, coeffs=(E @ state.coeffs[..., None])[..., 0], t=state.t + dt)


@lru_cache(maxsize=8)
def _transformations(kmax: int, alpha: float, N: int) -> np.ndarray:
    """The stack of P_kappa over kappa = 0, 1, ..., kmax; P = I for the
    homogeneous mode and for alpha = 0."""
    eye = np.eye(N, dtype=complex)
    P = np.stack([eye if k == 0 or alpha == 0 else bgk_P(1, k, alpha, N) for k in range(kmax + 1)])
    P.flags.writeable = False
    return P


def entropy(state: ModalState, alpha: float, gamma: float = 0.0) -> float:
    """Modified entropy sum_k w_k (1 + kappa^2)^gamma <h_k, P_kappa h_k>.

    The sum runs over the stored half spectrum, which is the full
    lattice sum: a conjugate mode h_{-k} = conj(h_k) evolves under
    conj(C_kappa) and is weighted by conj(P_kappa), so it contributes
    the same real value as h_k.  With alpha = 0 this reduces to the
    squared coefficient norm.  The homogeneous mode always uses P = I.
    """
    with np.errstate(over="ignore"):
        scale = (1.0 + state.kappa**2) ** gamma
    if not (math.isfinite(gamma) and np.isfinite(scale).all()):
        raise ValueError(f"entropy weights (1 + kappa^2)^gamma must be finite, got gamma = {gamma}")
    P = _transformations(state.kmax, alpha, state.N)
    h = state.coeffs
    q = (h.conj() * (P @ h[..., None])[..., 0]).sum(axis=1).real
    return float(np.sum(state.weights * scale * q))


def h_norm(state: ModalState) -> float:
    """Plain coefficient norm sqrt(sum_k w_k ||h_k||^2)."""
    return math.sqrt(float(state.weights @ (np.abs(state.coeffs) ** 2).sum(axis=1)))


@dataclass(frozen=True)
class L1Grid:
    """Reconstruction grid of :func:`l1_distance_1d`: 512 points in x
    and the 160-point Gauss rule in v, evaluated on half of each.

    x-mirror: x_{511-j} = 1 - x_j and exp(2 pi i kappa (1 - x)) =
    exp(-2 pi i kappa x) for integer kappa, so with A = cos @ Re H and
    B = sin @ Im H at the 256 points x < 1/2, Re h is A - B at x and
    A + B at 1 - x.  v-parity: phi_m(-v) = (-1)**m phi_m(v) and the
    Gauss rule is symmetric to the bit, so with the even- and odd-degree
    parts e and o at the 80 positive nodes, |h(v)| + |h(-v)| =
    |e + o| + |e - o| = 2 max(|e|, |o|).  Every state of a trajectory
    shares the grid; its phases are explicit, not from an FFT, so that
    every ``kmax`` is exact.
    """

    kmax: int
    cos_sin: np.ndarray = field(repr=False)
    phi_even: np.ndarray = field(repr=False)
    phi_odd: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, kmax: int, N: int) -> "L1Grid":
        """Grid for the wavenumbers 0, 1, ..., kmax and truncation N."""
        k = np.arange(kmax + 1, dtype=float)
        theta = 2.0 * math.pi * np.outer((np.arange(_NX // 2) + 0.5) / _NX, k)
        nodes, wts = gauss_hermite(_NV)
        phi = hermite_phi(N - 1, nodes[_NV // 2 :])
        cos_sin = np.stack((np.cos(theta), np.sin(theta)))
        grid = cls(kmax, cos_sin, phi[0::2], phi[1::2], wts[_NV // 2 :] * (2.0 / SQRT2PI))
        for a in (grid.cos_sin, grid.phi_even, grid.phi_odd, grid.weights):
            a.flags.writeable = False
        return grid

    def distance(self, state: ModalState) -> float:
        """:func:`l1_distance_1d` of a state with this grid's kmax and
        truncation.  With h_{-k} = conj(h_k), h(x) is the real part of the
        half-spectrum sum H weighted by the multiplicities 1 and 2."""
        H = state.weights[:, None] * state.coeffs
        A, B = self.cos_sin @ np.stack((H.real, H.imag))
        total = 0.0
        # one half at a time keeps the (256, 80) temporaries small
        for vals in (A - B, A + B):
            E = vals[:, 0::2] @ self.phi_even
            O = vals[:, 1::2] @ self.phi_odd
            total += (np.maximum(np.abs(E, out=E), np.abs(O, out=O), out=E) @ self.weights).sum()
        return float(total) / _NX


#: grids are shared by the samples of a trajectory
_l1_grid = lru_cache(maxsize=4)(L1Grid.build)


def l1_distance_1d(state: ModalState) -> float:
    """L1 distance of the reconstructed deviation from zero.

    Reconstructs h(x, v) on a uniform-by-Gauss grid and integrates
    |h| dv dx against the normalized torus measure.  The velocity
    integral uses the quadrature of the Gaussian weight, exact for the
    polynomial part of the basis.  The grid is built once per kmax and
    truncation, and reused.
    """
    return _l1_grid(state.kmax, state.N).distance(state)


def _hann_transform(u):
    """Fourier coefficients of the unit-mass raised-cosine bump."""
    u = np.asarray(u, dtype=float)
    denom = 1.0 - u * u
    safe = np.abs(denom) > 1e-8
    return np.where(safe, np.sinc(u) / np.where(safe, denom, 1.0), 0.5)


def _bump_square_norm(epsilon: float) -> float:
    """Squared norm 3 / (2 epsilon) - 1 of the untruncated deviation
    state of a raised-cosine bump of width epsilon in (0, 1]."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    norm = 3.0 / (2.0 * epsilon) - 1.0
    if math.isinf(norm):
        raise ValueError(f"epsilon {epsilon} is so small that 3 / (2 epsilon) overflows")
    return norm


def concentrated_initial_data(
    epsilon: float,
    kmax: int = 128,
    N: int = 20,
    L: float = 2.0 * math.pi,
) -> ModalState:
    """Deviation state for a raised-cosine density bump of width epsilon.

    The initial density is the unit-mass bump
    (1 + cos(2 pi (x - 1/2) / epsilon)) / epsilon supported on
    |x - 1/2| < epsilon / 2 (relative coordinates), multiplied by the
    Maxwellian.  Only the mass component of each mode is populated; the
    homogeneous mode is zero since the bump carries no excess mass.
    The squared norm of the untruncated state is
    :func:`_bump_square_norm`; the part lost to the wavenumber cutoff is
    recorded in ``truncation_tail``.
    """
    exact = _bump_square_norm(epsilon)
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    _check_size(1, "tensor", N)
    _check_length(L)
    kappa = np.arange(kmax + 1, dtype=float)
    chat = _hann_transform(kappa * epsilon)
    chat[0] = 0.0
    coeffs = np.zeros((kmax + 1, N), dtype=complex)
    coeffs[:, 0] = chat * np.exp(-1j * math.pi * kappa)
    state = ModalState(L, coeffs)
    state.truncation_tail = exact - math.fsum(state.weights * chat * chat)
    return state


def decay_envelope(t, C_d: float, E0: float, lam: float):
    """Pointwise L1 bound sqrt(C_d E0) exp(-lam t / 2): by Cauchy-Schwarz
    the L2 norm bounds the L1 distance even of a signed density, which the
    linearized flow can make of M (1 + h); the cap 2 holds only for f >= 0."""
    t = np.asarray(t, dtype=float)
    out = np.sqrt(C_d * E0) * np.exp(-0.5 * lam * t)
    return out if out.shape else float(out)


def t_init(C_d: float, E0: float, lam: float) -> float:
    """Time at which the envelope drops below 2."""
    if lam <= 0:
        raise ValueError("decay rate must be positive")
    if C_d * E0 <= 0:
        raise ValueError("C_d and E0 must be positive")
    return max(0.0, (math.log(C_d) + math.log(E0) - 2.0 * math.log(2.0)) / lam)


def run_trajectory(
    state: ModalState,
    tmax: float,
    n_samples: int,
    alpha: float,
    gamma: float = 0.0,
    C_d: float | None = None,
    lam: float | None = None,
):
    """Sample entropy, norm, L1 and envelope along the evolution.

    Returns a dict of aligned arrays with keys ``t``, ``entropy``,
    ``h_norm``, ``l1`` and ``envelope`` (when ``C_d`` and ``lam`` are
    given).
    """
    if n_samples < 2:
        raise ValueError("need at least two sample points")
    ts = np.linspace(0.0, tmax, n_samples)
    dt = float(ts[1] - ts[0])
    ent, nrm, l1 = np.empty((3, n_samples))
    cur = state
    for i in range(n_samples):
        ent[i] = entropy(cur, alpha, gamma)
        nrm[i] = h_norm(cur)
        l1[i] = l1_distance_1d(cur)
        if i < n_samples - 1:
            cur = evolve(cur, dt)
    out = {"t": ts, "entropy": ent, "h_norm": nrm, "l1": l1}
    if C_d is not None and lam is not None:
        out["envelope"] = decay_envelope(ts, C_d, ent[0], lam)
    return out
