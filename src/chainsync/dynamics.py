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

from .errors import UncertaintyViolation
from .lattice import NetworkConfig, QuadraticForm, chain_normal_modes, check_stability

# time rows per block of ``phasor_sum_blocks``: one exact start phasor and
# one slice of the cached table exp(i nu k h) per block
_TIME_CHUNK = 256
# on-grid blocks per product of ``phasor_sum_blocks``
_GROUP = 16
# anchored coefficient columns per product: _GROUP blocks of the four
# probe-mean columns.  A wider coef, such as the probe trajectories of a
# covariance basis, takes fewer blocks per product (one from 64 columns
# on), so its anchored copies never outgrow coef itself
_GROUP_COLUMNS = 64
# rows and columns per tile when a covariance is symmetrized or checked
_TILE = 256
# entries of the complex temporary in which a slice of modes of
# ``phasor_sum_blocks`` takes its anchored coefficients
_ANCHOR_ENTRIES = 1 << 14


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


def symmetrize(a: np.ndarray) -> np.ndarray:
    """``a`` overwritten with 0.5 * (a + a.T), one tile pair at a time, so
    a GaussianState keeps it without a copy; returns ``a``."""
    for rows, cols in _mirror_tiles(a.shape[0]):
        t = _mean_tile(a, rows, cols)
        a[rows, cols] = t
        a[cols, rows] = t.T
    return a


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


def squeezed_vacuum_local(omega: float, r: float) -> np.ndarray:
    """Covariance of a position-squeezed vacuum of a local oscillator.

    r = 0 gives the bare vacuum diag(1/(2 omega), omega/2); positive r
    squeezes the position quadrature by e^(-2r).
    """
    if omega <= 0:
        raise ValueError(f"oscillator frequency must be positive, got {omega}")
    return np.diag([np.exp(-2.0 * r) / (2.0 * omega), omega * np.exp(2.0 * r) / 2.0])


def _probe_covariances(probe_covs):
    """The two probe covariances as float arrays, checked: each must be a
    symmetric 2x2 (else ValueError), positive definite with symplectic
    eigenvalue sqrt(det) >= 1/2 (else UncertaintyViolation)."""
    covs = [np.asarray(c, dtype=float) for c in probe_covs]
    for i, c in enumerate(covs):
        if c.shape != (2, 2) or c[0, 1] != c[1, 0]:
            raise ValueError("probe covariances must be symmetric 2x2")
        # with c symmetric, c[0, 0] > 0 and det > 0 make it positive definite
        if c[0, 0] <= 0.0:
            raise UncertaintyViolation(f"probe {i + 1} covariance is not positive definite")
        nu = float(np.sqrt(max(np.linalg.det(c), 0.0)))
        if nu < 0.5 - 1e-12:
            raise UncertaintyViolation(
                f"probe {i + 1} covariance has symplectic eigenvalue {nu:.12f} < 1/2"
            )
    return covs


@dataclass(frozen=True)
class ProductState:
    """Two local probe states and the chain vacuum in the local basis B =
    diag(I_2, O_chain), site coordinates s = B l, without the dense
    covariance of ``initial_composite_state``.

    ``mean`` is in site coordinates (B leaves the probes alone and the
    chain is at rest).  ``network`` is the chain's NetworkConfig, from
    which ``chain_normal_modes`` gives O_chain when it is needed.  The
    covariance C = B^T Sigma0 B has diagonal blocks: ``var_x`` is the
    probes' x variances then 1/(2 Omega_j), ``var_p`` the probes' p
    variances then Omega_j / 2, and ``cov_xp`` the probes' x-p
    covariances then zeros.  So the state is O(N) vectors and a config.
    """

    mean: np.ndarray
    network: NetworkConfig
    var_x: np.ndarray
    var_p: np.ndarray
    cov_xp: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


def product_state(probe_means, probe_covs, network: NetworkConfig) -> ProductState:
    """Product state: two local probe states and the vacuum of the chain
    ``network``, in O(M) beyond the chain's frequencies.

    ``probe_means`` is ((x1, p1), (x2, p2)); ``probe_covs`` two symmetric
    2x2 covariances in local (x, p) ordering, each positive definite with
    symplectic eigenvalue sqrt(det) >= 1/2.  The chain starts with zero
    mean in its T = 0 state, uncorrelated in x-p.
    """
    covs = _probe_covariances(probe_covs)
    omegas, _ = chain_normal_modes(network, ())
    N = omegas.size + 2
    mean = np.zeros(2 * N)
    (x1, p1), (x2, p2) = probe_means
    mean[0], mean[1] = x1, x2
    mean[N], mean[N + 1] = p1, p2
    var_x, var_p, cov_xp = np.zeros(N), np.zeros(N), np.zeros(N)
    for i, c in enumerate(covs):
        var_x[i], var_p[i], cov_xp[i] = c[0, 0], c[1, 1], c[0, 1]
    var_x[2:] = 0.5 / omegas
    var_p[2:] = 0.5 * omegas
    return ProductState(mean, network, var_x, var_p, cov_xp)


def initial_composite_state(probe_means, probe_covs, cfg: NetworkConfig) -> GaussianState:
    """``product_state`` with its dense covariance in site coordinates:
    sigma_xx = O diag(1/(2 Omega_j)) O^T and sigma_pp = O diag(Omega_j/2)
    O^T on the chain, with O the modes of the chain ``cfg``."""
    state = product_state(probe_means, probe_covs, cfg)
    omegas, O = chain_normal_modes(cfg)
    N = state.n_modes
    cov = np.zeros((2 * N, 2 * N))
    for i in range(2):
        cov[i, i] = state.var_x[i]
        cov[N + i, N + i] = state.var_p[i]
        cov[i, N + i] = cov[N + i, i] = state.cov_xp[i]
    cov[2:N, 2:N] = (O / omegas) @ O.T / 2.0
    cov[N + 2 :, N + 2 :] = (O * omegas) @ O.T / 2.0
    return GaussianState(state.mean, symmetrize(cov))


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


def phasor_sum_blocks(nu, times, coef):
    """(slice, Re sum_j coef[j, c] exp(i nu_j t) at the slice's times) for
    each block of at most _TIME_CHUNK of ``times``, off-grid blocks first.

    A block on the uniform grid spanned by ``times`` has the phasors
    W o p_b, the cached table W = exp(i nu k h) scaled per mode by the
    exact phasor p_b of its first time, so the phase is re-anchored exactly
    at every block start.  They are never formed: (W o p_b) coef =
    W (p_b coef), so a group of blocks shares one real product
    [Re W, Im W] [Re; -Im] with their anchored coefficients side by side,
    which yields only the real parts.  Off-grid blocks take their phasors
    directly.
    """
    times, coef = np.asarray(times, dtype=float), np.asarray(coef)
    n = times.size
    h = (times[-1] - times[0]) / (n - 1) if n > 1 else 0.0
    steps = np.arange(min(n, _TIME_CHUNK)) * h
    # grid offsets within a few ulps of the largest time: the phase
    # error is then of the order of the rounding of nu * t itself
    tol = 4 * np.finfo(float).eps * np.max(np.abs(times), initial=0.0)
    blocks = [slice(lo, min(lo + _TIME_CHUNK, n)) for lo in range(0, n, _TIME_CHUNK)]
    offsets = (times[b] - times[b.start] - steps[: b.stop - b.start] for b in blocks)
    on_grid = [bool(np.all(np.abs(d) <= tol)) for d in offsets]
    W = np.exp(1j * (steps[:, None] * nu))
    W = np.concatenate([W.real, W.imag], axis=1)
    for block in (b for b, on in zip(blocks, on_grid) if not on):
        yield block, (np.exp(1j * (times[block, None] * nu)) @ coef).real
    grid = [b for b, on in zip(blocks, on_grid) if on]
    size = max(1, min(_GROUP, _GROUP_COLUMNS // max(1, coef.shape[1])))
    N, C = nu.size, coef.shape[1]
    # the anchored coefficients p_b coef of a group, as [Re; -Im]: one real
    # buffer for every group, written a slice of modes at a time
    buffer = np.empty(2 * N * min(size, len(grid)) * C)
    rows = max(1, _ANCHOR_ENTRIES // (size * max(C, 1)))
    for lo in range(0, len(grid), size):
        group = grid[lo : lo + size]
        phasors = np.exp(1j * (nu[:, None] * times[[b.start for b in group]]))
        anchored = buffer[: 2 * N * len(group) * C].reshape(2 * N, len(group), C)
        for r in range(0, N, rows):
            m = slice(r, min(r + rows, N))
            pc = phasors[m, :, None] * coef[m, None]
            anchored[m] = pc.real
            np.negative(pc.imag, out=anchored[N + m.start : N + m.stop])
        prod = W @ anchored.reshape(2 * N, -1)
        prod = prod.reshape(W.shape[0], len(group), -1)
        for i, block in enumerate(group):
            yield block, prod[: block.stop - block.start, i]


def phasor_sums(nu, times, coef):
    """Re sum_j coef[j, c] exp(i nu_j t): a float array (len(times), C),
    assembled from ``phasor_sum_blocks``."""
    out = np.empty((len(times), np.shape(coef)[1]))
    for block, sums in phasor_sum_blocks(nu, times, coef):
        out[block] = sums
    return out


def phase_map(rows, nu, z):
    """Rows of Q D, the map from normal coordinates (y, pi) at time 0 to
    site coordinates (x, p) at the times whose phasors exp(i nu t) are z:
    Q = diag(O, O), and D holds [[cos, sin/nu], [-nu sin, cos]] per mode.
    For k rows of O, the k x rows come first, then the k p rows: shape
    (..., 2k, 2N) for z of shape (..., N).  ``phase_map(O, nu, z)`` is Q D.
    """
    k, N = rows.shape
    out = np.empty(z.shape[:-1] + (2 * k, 2 * N))
    # written in place: ``propagator`` asks for all N rows and ``state_at``
    # for one tile of rows at a time, and temporaries would add to their peak
    np.multiply(z.real[..., None, :], rows, out=out[..., :k, :N])
    np.multiply((z.imag / nu)[..., None, :], rows, out=out[..., :k, N:])
    np.multiply(-(nu * z.imag)[..., None, :], rows, out=out[..., k:, :N])
    out[..., k:, N:] = out[..., :k, :N]
    return out


def propagator(qf: QuadraticForm, t: float) -> SymplecticMap:
    """Exact phase-space propagator of H = p^T p / 2 + x^T V x / 2 for a
    stable form (an unstable one raises InstabilityError).

    Diagonalizes V once with a dense ``eigh``, whatever the form records
    of its chain, so it stays an independent check of the engine, and
    rotates the per-mode solution back to the site basis; the result
    satisfies S J S^T = J to round-off.
    """
    bare = QuadraticForm(qf.V)
    check_stability(bare)
    nu, O = np.sqrt(bare.modes.values), bare.modes.dense
    D = phase_map(O, nu, np.exp(1j * (nu * t)))
    N = qf.dim
    return SymplecticMap(np.hstack([D[:, :N] @ O.T, D[:, N:] @ O.T]))


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
