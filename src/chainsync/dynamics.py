"""Gaussian states of the closed composite system and their exact
symplectic propagation.

Phase-space ordering is positions first, then momenta: r = (x_1..x_N,
p_1..p_N), and the canonical form J = [[0, I], [-I, 0]] is built in one
place so every module agrees.  With hbar = 1 the vacuum symplectic
eigenvalue is 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, UncertaintyViolation
from .lattice import (
    DEFAULT_STABILITY_TOL,
    NetworkConfig,
    QuadraticForm,
    chain_normal_modes,
)

# time rows per block of ``phasor_blocks``; the block's arrays set the
# peak memory of a series
_TIME_CHUNK = 256
# rows and columns per tile when a covariance is symmetrized or checked
_TILE = 256


def symplectic_form(n_modes: int) -> np.ndarray:
    """Canonical form J for n modes in positions-then-momenta ordering."""
    J = np.zeros((2 * n_modes, 2 * n_modes))
    J[:n_modes, n_modes:] = np.eye(n_modes)
    J[n_modes:, :n_modes] = -np.eye(n_modes)
    return J


def _mirror_tiles(n: int):
    """(rows, cols) slices of the tiles on and above the diagonal of an
    n x n matrix."""
    edges = range(0, n, _TILE)
    for i, lo in enumerate(edges):
        for c in edges[i:]:
            yield slice(lo, lo + _TILE), slice(c, c + _TILE)


def _mean_tile(a: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """Tile (rows, cols) of 0.5 * (a + a.T), entry for entry."""
    t = a[rows, cols] + a[cols, rows].T
    t *= 0.5
    return t


def _is_symmetrized(a: np.ndarray) -> bool:
    """Whether 0.5 * (a + a.T) equals ``a`` bit for bit, checked one tile
    pair at a time."""
    for rows, cols in _mirror_tiles(a.shape[0]):
        t = _mean_tile(a, rows, cols).view(np.uint64)
        if not (
            np.array_equal(t, a[rows, cols].view(np.uint64))
            and np.array_equal(t.T, a[cols, rows].view(np.uint64))
        ):
            return False
    return True


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a Gaussian state.

    ``cov`` uses the symmetrized convention sigma_ab =
    <{r_a, r_b}>/2 - <r_a><r_b>.  A covariance is stored as
    0.5 * (cov + cov.T); one that already equals that bit for bit is kept
    without a copy.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size) or mean.size % 2 != 0:
            raise ValueError("mean length 2N and cov shape (2N, 2N) required")
        if not _is_symmetrized(cov):
            cov = 0.5 * (cov + cov.T)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class SymplecticMap:
    """Linear phase-space propagator over a fixed time."""

    S: np.ndarray
    t: float


def uncertainty_defect(cov: np.ndarray) -> float:
    """Smallest eigenvalue of cov + (i/2) J; >= 0 for physical states."""
    n = cov.shape[0] // 2
    test = cov.astype(complex) + 0.5j * symplectic_form(n)
    return float(np.linalg.eigvalsh(test)[0].real)


def squeezed_vacuum_local(omega: float, r: float) -> np.ndarray:
    """Covariance of a position-squeezed vacuum of a local oscillator.

    r = 0 gives the bare vacuum diag(1/(2 omega), omega/2); positive r
    squeezes the position quadrature by e^(-2r).
    """
    if omega <= 0:
        raise ValueError(f"oscillator frequency must be positive, got {omega}")
    return np.diag([np.exp(-2.0 * r) / (2.0 * omega), omega * np.exp(2.0 * r) / 2.0])


def initial_composite_state(probe_means, probe_covs, cfg: NetworkConfig) -> GaussianState:
    """Product state: two local probe states and the chain vacuum.

    ``probe_means`` is ((x1, p1), (x2, p2)); ``probe_covs`` two 2x2
    covariances in local (x, p) ordering.  The chain starts with zero mean
    in its T = 0 state, sigma_xx = O diag(1/(2 Omega_j)) O^T and sigma_pp =
    O diag(Omega_j/2) O^T with O the chain's modes, uncorrelated in x-p.
    """
    covs = [np.asarray(c, dtype=float) for c in probe_covs]
    for i, c in enumerate(covs):
        if c.shape != (2, 2):
            raise ValueError("probe covariances must be 2x2")
        nu = float(np.sqrt(max(np.linalg.det(c), 0.0)))
        if nu < 0.5 - 1e-12:
            raise UncertaintyViolation(
                f"probe {i + 1} covariance has symplectic eigenvalue {nu:.12f} < 1/2"
            )
    N = cfg.M + 2
    mean = np.zeros(2 * N)
    (x1, p1), (x2, p2) = probe_means
    mean[0], mean[1] = x1, x2
    mean[N], mean[N + 1] = p1, p2
    cov = np.zeros((2 * N, 2 * N))
    for i, c in enumerate(covs):
        cov[i, i] = c[0, 0]
        cov[N + i, N + i] = c[1, 1]
        cov[i, N + i] = cov[N + i, i] = c[0, 1]
    omegas, O = chain_normal_modes(cfg)
    cov[2:N, 2:N] = (O / omegas) @ O.T / 2.0
    cov[N + 2 :, N + 2 :] = (O * omegas) @ O.T / 2.0
    # symmetrized in place, so GaussianState keeps it without a copy
    for rows, cols in _mirror_tiles(2 * N):
        t = _mean_tile(cov, rows, cols)
        cov[rows, cols] = t
        cov[cols, rows] = t.T
    return GaussianState(mean, cov)


def phasor_trig(nu, t, z):
    """cos(nu t), sin(nu t)/nu and nu sin(nu t) from the phasor z =
    exp(i nu t), broadcast over nu and t; the middle one has the analytic
    t limit at nu = 0."""
    moving = nu != 0
    sinc_ = np.where(moving, z.imag / np.where(moving, nu, 1.0), t)
    return z.real, sinc_, nu * z.imag


def mode_trig(nu, t):
    """``phasor_trig`` at times t, broadcast over nu and t."""
    return phasor_trig(nu, t, np.exp(1j * (nu * t)))


def uniform_step(times) -> float:
    """Step h of a uniform increasing grid; raises ValueError unless there
    are two or more samples and each sits on t0 + k h to 1e-6 h."""
    times = np.asarray(times, dtype=float)
    n = times.size
    h = float(times[-1] - times[0]) / (n - 1) if n > 1 else 0.0
    # the offsets are formed in place, as a scenario grid is long
    off = np.arange(n, dtype=float)
    off *= -h
    off += times
    off -= times[0]
    if not (h > 0 and np.abs(off, out=off).max(initial=0.0) <= 1e-6 * h):
        raise ValueError("times must be a uniform increasing grid of two or more samples")
    return h


def phasor_blocks(nu, times):
    """(slice, t, z) per block of at most _TIME_CHUNK times, with z =
    exp(i nu t) of shape (block, len(nu)).

    A block that lies on the uniform grid spanned by ``times`` is the
    cached exp(i nu k h) times the phasor of its first time, so the
    phase is re-anchored exactly at every block start; a block off
    that grid gets its phasors directly.
    """
    n = times.size
    h = (times[-1] - times[0]) / (n - 1) if n > 1 else 0.0
    steps = np.arange(min(n, _TIME_CHUNK)) * h
    W = np.exp(1j * (steps[:, None] * nu))
    # grid offsets within a few ulps of the largest time: the phase
    # error is then of the order of the rounding of nu * t itself
    tol = 4 * np.finfo(float).eps * np.max(np.abs(times), initial=0.0)
    for lo in range(0, n, _TIME_CHUNK):
        t = times[lo : lo + _TIME_CHUNK]
        m = t.size
        if np.all(np.abs(t - t[0] - steps[:m]) <= tol):
            z = W[:m] * np.exp(1j * (nu * t[0]))
        else:
            z = np.exp(1j * (t[:, None] * nu))
        yield slice(lo, lo + m), t, z


def spectrum(qf: QuadraticForm, stability_tol: float = DEFAULT_STABILITY_TOL, check: bool = True):
    """Normal modes ``(nu, O, min_eig)`` of V = O diag(nu^2) O^T from one
    ``eigh``.  With ``check``, min_eig <= ``stability_tol`` raises
    InstabilityError; otherwise negative eigenvalues become zero modes."""
    evals, O = np.linalg.eigh(qf.V)
    min_eig = float(evals[0])
    if check and min_eig <= stability_tol:
        raise InstabilityError(min_eig, stability_tol)
    return np.sqrt(np.clip(evals, 0.0, None)), O, min_eig


def propagator(
    qf: QuadraticForm, t: float, stability_tol: float = DEFAULT_STABILITY_TOL, check: bool = True
) -> SymplecticMap:
    """Exact phase-space propagator of H = p^T p / 2 + x^T V x / 2.

    Diagonalizes V once and rotates the per-mode solution back to the
    site basis; the result satisfies S J S^T = J to round-off.
    """
    nu, O, _ = spectrum(qf, stability_tol, check)
    cos_, sinc_, nusin = mode_trig(nu, t)
    N = qf.dim
    S = np.empty((2 * N, 2 * N))
    C = (O * cos_[None, :]) @ O.T
    S[:N, :N] = C
    S[N:, N:] = C
    S[:N, N:] = (O * sinc_[None, :]) @ O.T
    S[N:, :N] = -(O * nusin[None, :]) @ O.T
    return SymplecticMap(S, float(t))


def symplectic_defect(smap: SymplecticMap) -> float:
    """max |S J S^T - J|, the symplecticity residual."""
    n = smap.S.shape[0] // 2
    J = symplectic_form(n)
    return float(np.max(np.abs(smap.S @ J @ smap.S.T - J)))


def evolve(state: GaussianState, smap: SymplecticMap) -> GaussianState:
    """Push a Gaussian state through a symplectic map."""
    if smap.S.shape[0] != state.mean.size:
        raise ValueError("state and map dimensions differ")
    return GaussianState(smap.S @ state.mean, smap.S @ state.cov @ smap.S.T)


def reduce(state: GaussianState, modes) -> GaussianState:
    """Marginal state on a subset of modes (indices into 0..N-1)."""
    idx = list(modes)
    n = state.n_modes
    sel = np.array(idx + [n + i for i in idx])
    return GaussianState(state.mean[sel], state.cov[np.ix_(sel, sel)])


def mean_energy(state: GaussianState, qf: QuadraticForm) -> float:
    """<H> = kinetic + potential, from both moments."""
    n = state.n_modes
    mx, mp = state.mean[:n], state.mean[n:]
    sxx = state.cov[:n, :n]
    spp = state.cov[n:, n:]
    return float(
        0.5 * (mp @ mp + mx @ qf.V @ mx) + 0.5 * (np.trace(spp) + np.sum(qf.V * sxx))
    )
