"""Modal simulation of the linearized dynamics and entropy diagnostics.

A state is a stack of Hermite coefficient vectors, one row per
wavenumber, evolved exactly by matrix exponentials of the modal
generators.  The entropy functional weights each mode with the
certified transformation matrix, so its decay at the certified rate
can be checked against the simulated trajectory, along with the L1
distance of the reconstructed density from equilibrium and its L2
envelope bound.  :func:`l1_distance_1d` evaluates the L1 distance on
half its grid, by the symmetries x -> 1 - x and v -> -v.  A state
symmetric under (x, v) -> (1 - x, -v), with Re h = 0 at odd and Im h = 0
at even Hermite degrees, needs only half of that: every state of a
trajectory from :func:`concentrated_initial_data` is one, since its bump
is centred at x = 1/2, its Maxwellian is even in v, and the generator
is real in the phased basis below, so the propagators keep those zeros.

The simulation is one-dimensional and stores the half spectrum: one
row per wavenumber kappa = 0, 1, ..., kmax, with weight 1 for kappa = 0
and 2 otherwise.  Real data has h_{-k} = conj(h_k), and C_{-k} =
conj(C_k) because L1 and L2 are real, so the conjugate modes carry no
information of their own.  The wavenumbers and weights follow from the
number of rows, so the propagators, the couplings A_kappa = P_kappa - I
and the L1 grid are cached by kmax, not by the list of moduli.

The propagators are computed in real arithmetic.  With T = diag(i**m)
(:func:`hypobgk.operators._phase`), T^-1 C_kappa T is real: in 1D it
is the one block of :func:`hypobgk.operators.chain_blocks`, built by
:meth:`hypobgk.operators.ChainBlock.matrix`.  Its exponential is taken
by the [13/13] Pade approximant with scaling and squaring (Higham, SIAM
J. Matrix Anal. Appl. 26 (2005) 1179-1193), and multiplying back by
the powers of i is exact.

Each diagnostic and the propagation step is one private kernel that
writes into the work arrays it is given.  The public functions allocate
them per call; :func:`run_trajectory` looks up the propagators,
couplings and L1 grid and allocates the work arrays once per
trajectory, then runs the same kernels at every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .ansatz import bgk_coupling
from .hermite import SQRT2PI, _check_int, gauss_hermite, hermite_phi
from .operators import _check_length, _check_size, _phase, chain_blocks

#: points of the x grid and of the Gauss rule in v of the L1 distance,
#: the x points of one of its blocks, and the bytes of a (b, N, N) real
#: temporary of a block of :func:`_propagators`
_NX, _NV, _ROWS, _BLOCK_BYTES = 512, 160, 128, 1 << 16


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
    diag(t), t = _phase(1, N): the one chain block of the 1D generator,
    affine in s = kappa ell.  exp(-C_kappa dt) = T exp(-B_kappa dt) T^-1
    multiplies entry (p, q) by t_p conj(t_q), which is exact.  Blocks of b
    modes keep the temporaries of :func:`_expm` near ``_BLOCK_BYTES``;
    each mode is scaled on its own, so the bits are those of one block.
    """
    (blk,) = chain_blocks(1, N)
    B0 = blk.matrix(0.0)
    K = blk.matrix(1.0) - B0
    s = np.arange(kmax + 1, dtype=float) * (2.0 * math.pi / L)
    t = _phase(1, N)
    phase = t[:, None] * t.conj()
    E = np.empty((kmax + 1, N, N), dtype=complex)
    b = max(1, _BLOCK_BYTES // (8 * N * N))
    for lo in range(0, kmax + 1, b):
        B = s[lo : lo + b, None, None] * K + B0
        B *= -dt
        np.multiply(_expm(B), phase, out=E[lo : lo + b])
    E.flags.writeable = False
    return E


def _step(E: np.ndarray, h: np.ndarray, out: np.ndarray) -> None:
    """Write the rows E_kappa h_kappa of the propagated state to out."""
    np.matmul(E, h[..., None], out=out[..., None])


def evolve(state: ModalState, dt: float) -> ModalState:
    """Advance every mode by dt with the exact modal propagators."""
    if not (math.isfinite(dt) and dt >= 0):
        raise ValueError(f"time step must be finite and nonnegative, got {dt}")
    _check_length(state.L)
    if dt == 0.0:
        return replace(state, coeffs=state.coeffs.copy())
    E = _propagators(state.N, state.L, state.kmax, float(dt))
    out = np.empty(state.coeffs.shape, dtype=complex)
    _step(E, state.coeffs, out)
    return replace(state, coeffs=out, t=state.t + dt)


@lru_cache(maxsize=8)
def _couplings(kmax: int, alpha: float, N: int):
    """Rows i, columns j and values, shape (kmax + 1, len(i)), of the
    nonzeros of A_kappa = P_kappa - I above the diagonal, kappa = 0, ...,
    kmax; A = 0 for kappa = 0 and for alpha = 0.  The values -i r alpha /
    kappa come from the kappa = 1 table of :func:`bgk_coupling`."""
    A = bgk_coupling(1, 1.0, alpha, N) if alpha and kmax else np.zeros((N, N), dtype=complex)
    i, j = np.nonzero(np.triu(A))
    vals = np.zeros((kmax + 1, len(i)), dtype=complex)
    vals.imag[1:] = A[i, j].imag / np.arange(1.0, kmax + 1)[:, None]
    vals.flags.writeable = False
    return i, j, vals


def _entropy_weights(state: ModalState, alpha: float, gamma: float) -> np.ndarray:
    """The weights w_k (1 + kappa^2)^gamma of :func:`entropy`, after its
    checks of alpha and gamma."""
    if not math.isfinite(alpha):
        raise ValueError(f"coupling amplitude alpha must be finite, got {alpha}")
    with np.errstate(over="ignore"):
        scale = (1.0 + state.kappa**2) ** gamma
    if not (math.isfinite(gamma) and np.isfinite(scale).all()):
        raise ValueError(f"entropy weights (1 + kappa^2)^gamma must be finite, got gamma = {gamma}")
    return state.weights * scale


def _entropy(h, ws, table, sq, q, pairs, c) -> float:
    """sum_k ws_k <h_k, P_kappa h_k> over the rows h_k of h, with the
    coupling table (i, j, a) of :func:`_couplings`.  Work arrays: sq of
    shape (2, rows, N), q of shape (rows,), and the complex pairs of
    shape (2, rows, len(i)) and c of shape (rows,)."""
    i, j, a = table
    g, gj = pairs
    np.add(np.square(h.real, out=sq[0]), np.square(h.imag, out=sq[1]), out=sq[0])
    sq[0].sum(axis=1, out=q)
    # mode="raise" would copy into a buffer before writing to out
    np.conjugate(np.take(h, i, axis=1, out=g, mode="clip"), out=g)
    g *= a
    g *= np.take(h, j, axis=1, out=gj, mode="clip")
    g.sum(axis=1, out=c)
    q += np.multiply(c.real, 2.0, out=c.real)
    q *= ws
    return float(q.sum())


def entropy(state: ModalState, alpha: float, gamma: float = 0.0) -> float:
    """Modified entropy sum_k w_k (1 + kappa^2)^gamma <h_k, P_kappa h_k>.

    The sum runs over the stored half spectrum, which is the full
    lattice sum: a conjugate mode h_{-k} = conj(h_k) evolves under
    conj(C_kappa) and is weighted by conj(P_kappa), so it contributes
    the same real value as h_k.  <h, P h> = ||h||^2 + 2 Re sum_{i < j}
    conj(h_i) A_ij h_j over the couplings of A = P - I.  With alpha = 0
    this is the squared coefficient norm; kappa = 0 always uses P = I.
    """
    ws = _entropy_weights(state, alpha, gamma)
    table = _couplings(state.kmax, alpha, state.N)
    h = np.asarray(state.coeffs, dtype=complex)
    rows, N = h.shape
    sq, q, c = np.empty((2, rows, N)), np.empty(rows), np.empty(rows, dtype=complex)
    return _entropy(h, ws, table, sq, q, np.empty((2, rows, len(table[0])), dtype=complex), c)


def _h_norm(h, w, sq, q) -> float:
    """sqrt(sum_k w_k ||h_k||^2) over the rows h_k of h, with the work
    arrays sq of the shape of h and q of shape (rows,)."""
    np.square(np.abs(h, out=sq), out=sq)
    return math.sqrt(float(w @ sq.sum(axis=1, out=q)))


def h_norm(state: ModalState) -> float:
    """Plain coefficient norm sqrt(sum_k w_k ||h_k||^2)."""
    h = state.coeffs
    return _h_norm(h, state.weights, np.empty(h.shape), np.empty(len(h)))


@lru_cache(maxsize=4)
def _l1_grid(kmax: int, N: int):
    """The grid of :func:`l1_distance_1d` for the wavenumbers 0, 1, ...,
    kmax and truncation N: the stacked cos and sin of 2 pi kappa x at the
    256 points x < 1/2 times the multiplicities 1, 2, 2, ... of the
    wavenumbers, shape (2, 256, kmax + 1), the even- and odd-degree rows
    of phi_m at the 80 positive Gauss nodes, their weights, and the flat
    indices into the real view of a state, shape (2, kmax + 1, N), of its
    symmetric part [Re h_even, Im h_odd] and of its antisymmetric part
    [Re h_odd, Im h_even].  Doubling is exact, so the products carry the
    bits of products with doubled coefficients."""
    cos_sin = np.empty((2, _NX // 2, kmax + 1))
    theta = np.outer((np.arange(_NX // 2) + 0.5) / _NX, np.arange(kmax + 1.0), out=cos_sin[0])
    theta *= 2.0 * math.pi
    np.sin(theta, out=cos_sin[1])
    np.cos(theta, out=theta)
    cos_sin[..., 1:] *= 2.0
    nodes, wts = gauss_hermite(_NV)
    phi = hermite_phi(N - 1, nodes[_NV // 2 :])
    # Re h_m sits at column 2 m of the real view, Im h_m at 2 m + 1
    even, odd = np.arange(0, N, 2), np.arange(1, N, 2)
    cols = np.array([np.r_[2 * even, 2 * odd + 1], np.r_[2 * odd, 2 * even + 1]])
    parts = cols[:, None, :] + 2 * N * np.arange(kmax + 1)[:, None]
    grid = cos_sin, phi[0::2], phi[1::2], wts[_NV // 2 :] * (2.0 / SQRT2PI), parts
    for a in grid:
        a.flags.writeable = False
    return grid


def l1_distance_1d(state: ModalState) -> float:
    """L1 distance of the reconstructed deviation from zero.

    Reconstructs h(x, v) on 512 uniform points in x by the 160-point
    Gauss rule in v and integrates |h| dv dx against the normalized torus
    measure.  The velocity integral uses the quadrature of the Gaussian
    weight, exact for the polynomial part of the basis.  With h_{-k} =
    conj(h_k), h(x) is the real part of the half-spectrum sum H weighted
    by the multiplicities 1 and 2.

    Half of each grid is evaluated.  x-mirror: x_{511-j} = 1 - x_j and
    exp(2 pi i kappa (1 - x)) = exp(-2 pi i kappa x) for integer kappa,
    so with P = cos @ Re H and Q = sin @ Im H at the 256 points x < 1/2,
    the coefficients of h are P - Q at x and P + Q at 1 - x.  v-parity:
    phi_m(-v) = (-1)**m phi_m(v) and the Gauss rule is symmetric to the
    bit, so with the even- and odd-degree parts e and o at the 80
    positive nodes, |h(v)| + |h(-v)| = |e + o| + |e - o| = 2 max(|e|,
    |o|).

    Under (x, v) -> (1 - x, -v) the even-degree columns of P and the
    odd-degree columns of Q are symmetric, the other two antisymmetric.
    A state whose antisymmetric coefficients, Re H at odd and Im H at
    even degrees, are all zero is symmetric: h(1 - x, -v) = h(x, v), so
    the half x > 1/2 adds what the half x < 1/2 adds.  Its products are
    taken from the symmetric columns alone, on the half x < 1/2, and the
    sum is doubled; the zeros skipped would change no bit.  Every state
    of a trajectory from :func:`concentrated_initial_data`, and so of
    ``hypobgk simulate``, is symmetric.  Other states take the other two
    products and both halves.

    The grid is built once per kmax and truncation and shared by the
    states of a trajectory; its phases are explicit, not from an FFT, so
    that every kmax is exact.  The 256 x points run in blocks of
    ``_ROWS``: one block per half made ``hypobgk simulate`` at its
    defaults no faster and raised its peak RSS by about 0.3 MB (2-vCPU
    Xeon, OpenBLAS).
    """
    grid = _l1_grid(state.kmax, state.N)
    h = np.ascontiguousarray(state.coeffs, dtype=complex)
    return _l1(h, grid, np.empty((2, *h.shape)), _l1_work(state.N))


def _l1_work(N: int):
    """Work arrays of :func:`_l1` at truncation N: the products with cos
    and with sin at the 256 points x < 1/2, one block of ``_ROWS`` of
    the rows of h, its even- and odd-degree parts at the 80 positive
    nodes, and the sums over v."""
    return (
        np.empty((2, _NX // 2, N)),
        np.empty((_ROWS, N)),
        np.empty((2, _ROWS, _NV // 2)),
        np.empty(_NX // 2),
    )


def _l1(h, grid, stack, work, antisymmetric=None) -> float:
    """:func:`l1_distance_1d` of the C-contiguous complex rows h_k on the
    grid of :func:`_l1_grid`, with a real work array stack of shape (2,
    rows, N) and the arrays of :func:`_l1_work`.  The antisymmetric part
    is evaluated if ``antisymmetric`` is true, and by default if any of
    its coefficients is nonzero."""
    cos_sin, phi_even, phi_odd, weights, parts = grid
    (P, Q), vals, (E, O), row = work
    ne, no = len(phi_even), len(phi_odd)
    # mode="raise" would copy into a buffer before writing to out
    sym, anti = np.take(h.view(float), parts, out=stack, mode="clip")
    if antisymmetric is None:
        antisymmetric = anti.any()
    # P = cos @ Re H and Q = sin @ Im H, each with the even degrees first;
    # the coefficients of h are P - Q at x and P + Q at 1 - x, and for a
    # symmetric state P_odd and Q_even are zero
    np.matmul(cos_sin[0], sym[:, :ne], out=P[:, :ne])
    np.matmul(cos_sin[1], sym[:, ne:], out=Q[:, ne:])
    if antisymmetric:
        np.matmul(cos_sin[0], anti[:, :no], out=P[:, ne:])
        np.matmul(cos_sin[1], anti[:, no:], out=Q[:, :ne])
    total = 0.0
    for half in (np.subtract, np.add) if antisymmetric else (None,):
        for lo in range(0, _NX // 2, _ROWS):
            rows = slice(lo, lo + _ROWS)
            if half is None:
                even, odd = P[rows, :ne], Q[rows, ne:]
            else:
                even, odd = half(P[rows], Q[rows], out=vals)[:, :ne], vals[:, ne:]
            np.matmul(even, phi_even, out=E)
            np.matmul(odd, phi_odd, out=O)
            np.maximum(np.abs(E, out=E), np.abs(O, out=O), out=E)
            np.matmul(E, weights, out=row[rows])
        total += row.sum()
    if not antisymmetric:
        # the half x > 1/2 mirrors the half x < 1/2
        total *= 2.0
    return float(total) / _NX


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
    _check_int(kmax, "kmax", 1)
    _check_size(1, "tensor", N)
    _check_length(L)
    kappa = np.arange(kmax + 1, dtype=float)
    chat = _hann_transform(kappa * epsilon)
    chat[0] = 0.0
    coeffs = np.zeros((kmax + 1, N), dtype=complex)
    # the shift to x = 1/2 is exp(-i pi kappa) = (-1)**kappa, taken exactly
    # so that the state is symmetric under (x, v) -> (1 - x, -v) to the bit
    coeffs.real[:, 0] = chat
    coeffs.real[1::2, 0] *= -1.0
    state = ModalState(L, coeffs)
    state.truncation_tail = exact - math.fsum(state.weights * chat * chat)
    return state


def _check_envelope(C_d: float, E0: float, lam: float) -> None:
    for name, value in (("C_d", C_d), ("E0", E0), ("lam", lam)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


def decay_envelope(t, C_d: float, E0: float, lam: float):
    """Pointwise L1 bound sqrt(C_d E0) exp(-lam t / 2): by Cauchy-Schwarz
    the L2 norm bounds the L1 distance even of a signed density, which the
    linearized flow can make of M (1 + h); the cap 2 holds only for f >= 0."""
    _check_envelope(C_d, E0, lam)
    t = np.asarray(t, dtype=float)
    # the product may overflow where its square root does not
    amp = float(C_d) * float(E0)
    amp = math.sqrt(amp) if math.isfinite(amp) else math.sqrt(C_d) * math.sqrt(E0)
    out = amp * np.exp(-0.5 * lam * t)
    return out if out.shape else float(out)


def t_init(C_d: float, E0: float, lam: float) -> float:
    """Time at which the envelope drops below 2."""
    _check_envelope(C_d, E0, lam)
    return max(0.0, (math.log(C_d) + math.log(E0) - 2.0 * math.log(2.0)) / lam)


def run_trajectory(
    state: ModalState, tmax: float, n_samples: int, alpha: float, gamma: float = 0.0
):
    """Sample entropy, norm and L1 distance along the evolution.

    Returns a dict of aligned arrays with keys ``t``, ``entropy``,
    ``h_norm`` and ``l1``; :func:`decay_envelope` gives the L2 envelope
    at the times ``t`` from the initial entropy ``entropy[0]``.  The
    first sample and the first step are :func:`entropy`, :func:`h_norm`,
    :func:`l1_distance_1d` and :func:`evolve` of the input state, so
    alpha, gamma and L are checked by their own messages.  The other
    samples run the same kernels on the propagators, couplings and L1
    grid, looked up once, and on work arrays allocated once per
    trajectory, so each sample equals, bit for bit, those functions of
    the state that repeated :func:`evolve` reaches.  The input state is
    not modified.
    """
    _check_int(n_samples, "n_samples", 2)
    if not (math.isfinite(tmax) and tmax >= 0):
        raise ValueError(f"need n_samples >= 2 and a finite tmax >= 0, got {n_samples} and {tmax}")
    ts = np.linspace(0.0, tmax, n_samples)
    dt = float(ts[1] - ts[0])
    ent, nrm, l1 = np.empty((3, n_samples))
    ent[0], nrm[0], l1[0] = entropy(state, alpha, gamma), h_norm(state), l1_distance_1d(state)
    first = evolve(state, dt)
    rows, N = state.coeffs.shape
    E = _propagators(N, state.L, state.kmax, dt) if dt else None
    table = _couplings(state.kmax, alpha, N)
    grid = _l1_grid(state.kmax, N)
    ws, w = _entropy_weights(state, alpha, gamma), state.weights
    h, nxt = np.empty((2, rows, N), dtype=complex)
    h[...] = first.coeffs
    sq, q, c = np.empty((2, rows, N)), np.empty(rows), np.empty(rows, dtype=complex)
    pairs, l1_work = np.empty((2, rows, len(table[0])), dtype=complex), _l1_work(N)
    for n in range(1, n_samples):
        ent[n] = _entropy(h, ws, table, sq, q, pairs, c)
        nrm[n] = _h_norm(h, w, sq[0], q)
        l1[n] = _l1(h, grid, sq, l1_work)
        if E is not None and n < n_samples - 1:
            _step(E, h, nxt)
            h, nxt = nxt, h
    return {"t": ts, "entropy": ent, "h_norm": nrm, "l1": l1}
