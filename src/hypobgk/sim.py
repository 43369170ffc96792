"""Modal simulation of the linearized dynamics and entropy diagnostics.

A state is a collection of Hermite coefficient vectors, one per spatial
mode, evolved exactly by matrix exponentials of the modal generators.
The entropy functional weights each mode with the certified
transformation matrix, so its decay at the certified rate can be
checked against the simulated trajectory, along with the L1 distance of
the reconstructed density from equilibrium and its Csiszar-Kullback
style envelope bound.

One-dimensional states track signed wavenumbers so that spatial phases
(and hence L1 reconstruction) are exact; multi-dimensional states track
one representative per modulus with lattice multiplicities, which is
all the quadratic functionals need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import expm as _scipy_expm

from .ansatz import bgk_P
from .hermite import SQRT2PI, gauss_hermite, hermite_phi
from .operators import build_L1, build_L2

R2 = math.sqrt(2.0)


@dataclass
class ModalState:
    """Hermite coefficients per spatial mode at one instant.

    Attributes
    ----------
    d : int
        Velocity dimension.
    L : float
        Torus side length.
    variant : str
        Hermite basis variant of the coefficient vectors.
    N : int
        Truncation size.
    coeffs : dict
        Mode key -> complex coefficient vector.  Keys are signed
        integers for d = 1 and float moduli otherwise.
    weights : dict
        Mode key -> multiplicity weight used in quadratic functionals.
    t : float
        Current time.
    info : dict
        Free-form metadata (e.g. truncation tail of initial data).
    """

    d: int
    L: float
    variant: str
    N: int
    coeffs: dict = field(repr=False)
    weights: dict = field(repr=False)
    t: float = 0.0
    info: dict = field(default_factory=dict, repr=False)

    @property
    def ell(self) -> float:
        return 2.0 * math.pi / self.L

    def mode_modulus(self, key) -> float:
        return float(abs(key)) if self.d == 1 else float(key)

    def copy(self) -> "ModalState":
        return ModalState(
            d=self.d,
            L=self.L,
            variant=self.variant,
            N=self.N,
            coeffs={k: v.copy() for k, v in self.coeffs.items()},
            weights=dict(self.weights),
            t=self.t,
            info=dict(self.info),
        )


def moments(state: ModalState) -> dict:
    """Hydrodynamic moments (mass, momentum, temperature) per mode.

    Returns a dict mapping each mode key to a dict with entries
    ``sigma`` (mass), ``momentum`` (tuple of d components along the
    tracked directions) and ``tau`` (temperature).
    """
    d = state.d
    out = {}
    for key, h in state.coeffs.items():
        sigma = complex(h[0])
        if d == 1:
            mom = (complex(h[1]),)
            tau = R2 * complex(h[2]) + sigma
        elif d == 2:
            mom = (complex(h[1]), complex(h[2]))
            if state.variant == "energy":
                tau = 2.0 * complex(h[3]) + 2.0 * sigma
            else:
                tau = R2 * (complex(h[3]) + complex(h[5])) + 2.0 * sigma
        else:
            mom = (complex(h[1]), complex(h[2]), complex(h[3]))
            if state.variant == "energy":
                tau = math.sqrt(6.0) * complex(h[4]) + 3.0 * sigma
            else:
                tau = R2 * (complex(h[4]) + complex(h[7]) + complex(h[9])) + 3.0 * sigma
        out[key] = {"sigma": sigma, "momentum": mom, "tau": tau}
    return out


@lru_cache(maxsize=64)
def _operators(d: int, variant: str, N: int):
    return build_L1(d, variant, N), build_L2(d, variant, N)


def _expm_neg(C: np.ndarray, dt: float) -> np.ndarray:
    """exp(-C dt) through eigendecomposition, with a scaling-and-squaring
    fallback for ill-conditioned eigenbases."""
    vals, vecs = np.linalg.eig(C)
    cond = np.linalg.cond(vecs)
    if not np.isfinite(cond) or cond > 1e8:
        return _scipy_expm(-C * dt)
    return (vecs * np.exp(-vals * dt)) @ np.linalg.inv(vecs)


@lru_cache(maxsize=4096)
def _mode_propagator(d: int, variant: str, N: int, L: float, kappa, dt: float) -> np.ndarray:
    """exp(-C_kappa dt) for one basis, torus length and mode modulus."""
    L1, L2 = _operators(d, variant, N)
    C = 1j * kappa * (2.0 * math.pi / L) * L1 + L2.astype(complex)
    E = _expm_neg(C, dt)
    E.flags.writeable = False
    return E


def _propagator(state: ModalState, key, dt: float) -> np.ndarray:
    signed = state.d == 1
    E = _mode_propagator(
        state.d, state.variant, state.N, state.L, abs(key) if signed else key, dt
    )
    # L1 and L2 are real, so C_{-k} = conj(C_k)
    if signed and key < 0:
        return E.conj()
    return E


def evolve(state: ModalState, dt: float) -> ModalState:
    """Advance every mode by dt with the exact modal propagators."""
    if dt < 0:
        raise ValueError("time step must be nonnegative")
    new = state.copy()
    new.t = state.t + dt
    if dt == 0.0:
        return new
    for key in state.coeffs:
        E = _propagator(state, key, dt)
        new.coeffs[key] = E @ state.coeffs[key]
    return new


@lru_cache(maxsize=4096)
def _mode_P(d: int, kappa: float, alpha: float, N: int) -> np.ndarray:
    P = np.eye(N, dtype=complex) if kappa == 0 or alpha == 0 else bgk_P(d, kappa, alpha, N)
    P.flags.writeable = False
    return P


def entropy(state: ModalState, alpha: float, gamma: float = 0.0) -> float:
    """Modified entropy sum_k w_k (1 + kappa^2)^gamma <h_k, P_kappa h_k>.

    With alpha = 0 (or gamma = 0 and alpha = 0) this reduces to the
    squared coefficient norm.  The homogeneous mode always uses P = I.
    """
    total = 0.0
    for key, h in state.coeffs.items():
        kap = state.mode_modulus(key)
        P = _mode_P(state.d, kap, alpha, state.N)
        q = float(np.real(np.vdot(h, P @ h)))
        total += state.weights[key] * (1.0 + kap**2) ** gamma * q
    return total


def h_norm(state: ModalState) -> float:
    """Plain coefficient norm sqrt(sum_k w_k ||h_k||^2)."""
    return math.sqrt(
        sum(
            state.weights[k] * float(np.real(np.vdot(v, v)))
            for k, v in state.coeffs.items()
        )
    )


@dataclass(frozen=True)
class L1Grid:
    """Reconstruction grid of :func:`l1_distance_1d`.

    Holds the spatial phases of the tracked modes on the x grid, the
    Hermite table at the Gauss nodes and the normalized quadrature
    weights.  It depends only on the mode keys, the truncation and the
    grid sizes, so every state along one trajectory shares it.
    """

    keys: tuple
    phases: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, keys: tuple, N: int, nx: int = 512, nv: int = 160) -> "L1Grid":
        """Grid for modes ``keys`` and truncation N, with nx points in x
        and the nv-point Gauss rule in v."""
        ks = np.array([float(k) for k in keys])
        xs = (np.arange(nx) + 0.5) / nx
        nodes, wts = gauss_hermite(nv)
        grid = cls(
            keys=keys,
            phases=np.exp(2j * math.pi * np.outer(xs, ks)),
            phi=hermite_phi(N - 1, nodes),
            weights=wts / SQRT2PI,
        )
        for a in (grid.phases, grid.phi, grid.weights):
            a.flags.writeable = False
        return grid

    def distance(self, state: ModalState) -> float:
        """:func:`l1_distance_1d` of a state with this grid's modes and
        truncation."""
        H = np.array([state.coeffs[k] for k in self.keys])
        vals = (self.phases @ H) @ self.phi
        return float(np.mean(np.abs(vals) @ self.weights))


#: grids are shared by the samples of a trajectory
_l1_grid = lru_cache(maxsize=4)(L1Grid.build)


def l1_distance_1d(state: ModalState, nx: int = 512, nv: int = 160) -> float:
    """L1 distance of the reconstructed deviation from zero, d = 1.

    Reconstructs h(x, v) on a uniform-by-Gauss grid and integrates
    |h| dv dx against the normalized torus measure.  The velocity
    integral uses the quadrature of the Gaussian weight, exact for the
    polynomial part of the basis.  The grid is built once per set of
    modes, truncation and grid sizes, and reused.
    """
    if state.d != 1:
        raise ValueError("reconstruction is implemented for d = 1")
    keys = tuple(sorted(state.coeffs, key=int))
    return _l1_grid(keys, state.N, nx, nv).distance(state)


def _hann_transform(u):
    """Fourier coefficients of the unit-mass raised-cosine bump."""
    u = np.asarray(u, dtype=float)
    denom = 1.0 - u * u
    safe = np.abs(denom) > 1e-8
    out = np.where(safe, np.sinc(u) / np.where(safe, denom, 1.0), 0.5)
    return out


def concentrated_initial_data(
    epsilon: float,
    kmax: int = 128,
    N: int = 20,
    L: float = 2.0 * math.pi,
    x0: float = 0.5,
) -> ModalState:
    """Deviation state for a raised-cosine density bump of width epsilon.

    The initial density is the unit-mass bump
    (1 + cos(2 pi (x - x0) / epsilon)) / epsilon supported on
    |x - x0| < epsilon / 2 (relative coordinates), multiplied by the
    Maxwellian.  Only the mass component of each mode is populated; the
    homogeneous mode is zero since the bump carries no excess mass.
    The squared norm of the untruncated state is 3 / (2 epsilon) - 1;
    the part lost to the wavenumber cutoff is recorded in
    ``info["truncation_tail"]``.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    coeffs = {}
    weights = {}
    energy = 0.0
    for k in range(-kmax, kmax + 1):
        vec = np.zeros(N, dtype=complex)
        if k != 0:
            chat = float(_hann_transform(np.array([k * epsilon]))[0])
            vec[0] = chat * np.exp(-2j * math.pi * k * x0)
            energy += chat * chat
        coeffs[k] = vec
        weights[k] = 1.0
    exact = 3.0 / (2.0 * epsilon) - 1.0
    return ModalState(
        d=1,
        L=L,
        variant="tensor",
        N=N,
        coeffs=coeffs,
        weights=weights,
        t=0.0,
        info={"epsilon": epsilon, "truncation_tail": exact - energy, "x0": x0},
    )


def decay_envelope(t, C_d: float, E0: float, lam: float):
    """Pointwise L1 bound min(2, sqrt(C_d E0) exp(-lam t / 2))."""
    t = np.asarray(t, dtype=float)
    out = np.minimum(2.0, np.sqrt(C_d * E0) * np.exp(-0.5 * lam * t))
    return out if out.shape else float(out)


def t_init(C_d: float, E0: float, lam: float) -> float:
    """Time at which the envelope drops below the trivial bound 2."""
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
    with_l1: bool = True,
):
    """Sample entropy, norm, L1 and envelope along the evolution.

    Returns a dict of aligned arrays with keys ``t``, ``entropy``,
    ``h_norm``, ``l1`` and ``envelope`` (the last two only when
    requested and available).
    """
    if n_samples < 2:
        raise ValueError("need at least two sample points")
    ts = np.linspace(0.0, tmax, n_samples)
    dt = float(ts[1] - ts[0])
    ent = np.empty(n_samples)
    nrm = np.empty(n_samples)
    l1 = np.empty(n_samples) if with_l1 else None
    cur = state
    E0 = None
    for i in range(n_samples):
        ent[i] = entropy(cur, alpha, gamma)
        nrm[i] = h_norm(cur)
        if with_l1:
            l1[i] = l1_distance_1d(cur)
        if i == 0:
            E0 = ent[0]
        if i < n_samples - 1:
            cur = evolve(cur, dt)
    out = {"t": ts, "entropy": ent, "h_norm": nrm}
    if with_l1:
        out["l1"] = l1
    if C_d is not None and lam is not None and E0 is not None:
        out["envelope"] = decay_envelope(ts, C_d, E0, lam)
    return out


if __name__ == "__main__":
    state = concentrated_initial_data(0.05, kmax=64, N=20)
    print("E(0) =", entropy(state, 0.0), "exact", 3.0 / 0.1 - 1.0)
    print("l1(0) =", l1_distance_1d(state))
    later = evolve(state, 5.0)
    print("E(5) =", entropy(later, 0.0))
