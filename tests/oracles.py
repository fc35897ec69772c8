"""Reference solvers that the tests compare chainsync against, and the
checks that only tests apply to its results.

They share no code with the package's closed-form propagation, which is
what makes them independent cross-checks.  ``QuadraticForm`` is a form
given by its dense V and solved by one ``eigh`` (``DenseModes``): the
package's engine, stability check, propagator and energy take it as they
take an assembled ``lattice.ChainForm``, so a test can run the engine on
a dense spectrum or on a random stable form.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from chainsync import (
    GaussianState,
    Kernels,
    NetworkConfig,
    RayleighReport,
    StepTooLarge,
    chain_normal_modes,
    log_negativity,
    revival_time,
    symplectic_form,
    sync_series,
    system_eigenfrequencies,
    vn_entropy,
)
from chainsync.dynamics import uniform_step
from chainsync.lattice import _to_local


@dataclass(frozen=True)
class QuadraticForm:
    """A quadratic form given by its dense symmetric potential matrix V,
    the oracle the tests check the assembled forms against.

    An exactly symmetric float array is kept by reference, with no copy;
    any other is replaced by its symmetric part.  ``modes`` is one dense
    ``eigh`` (``DenseModes``).
    """

    V: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        object.__setattr__(self, "V", V if np.array_equal(V, V.T) else 0.5 * (V + V.T))

    @property
    def dim(self) -> int:
        return self.V.shape[0]

    @property
    def coupled_sites(self) -> list:
        """Rows 0 and 1 and every column their rows of V touch, ascending."""
        return np.flatnonzero(np.any(self.V[:2] != 0.0, axis=0)).tolist()

    @cached_property
    def modes(self):
        """Eigenvalues and eigenvectors of V, solved on first use and kept
        on the form: ``check_stability`` reads its lowest eigenvalue and
        every engine on the form its modes, so they share one solve."""
        return DenseModes(*np.linalg.eigh(self.V))


class DenseModes:
    """Eigenvalues ``values`` (ascending) and eigenvectors ``O`` of a form
    from one dense ``eigh``."""

    def __init__(self, values, O):
        self.values, self.dense = values, O

    def left(self, R):
        """R O for rows R (k x N) in site coordinates."""
        return np.asarray(R) @ self.dense

    def local_product(self, U, network: NetworkConfig):
        """B^T O U, B = diag(I_2, O_chain) the local basis of ``network``."""
        return _to_local(self.dense @ U, network)


def sine_mode_matrix(M: int) -> np.ndarray:
    """Dense orthogonal sine transform O_jk = sqrt(2/(M+1)) sin(pi j k / (M+1)),
    the homogeneous chain's modes."""
    j = np.arange(1, M + 1)
    return np.sqrt(2.0 / (M + 1)) * np.sin(np.pi * np.outer(j, j) / (M + 1))


def group_velocity_grid(omega0, g, samples=1_000_001) -> float:
    """Largest d Omega / d k = g sin k / Omega(k) of the chain band, sampled
    on a dense grid of k in (0, pi]."""
    k = np.linspace(0.0, np.pi, samples)[1:]
    return float(np.max(g * np.sin(k) / np.sqrt(omega0**2 + 4.0 * g * np.sin(k / 2) ** 2)))


def rk4_reference(
    state: GaussianState, qf: QuadraticForm, horizon: float, dt: float
) -> GaussianState:
    """Classical 4th-order integration of the moment equations.

    Independent cross-check for the exact propagator: the mean follows
    dr/dt = F r and the covariance the Lyapunov equation dsigma/dt =
    F sigma + sigma F^T with F = [[0, I], [-V, 0]].
    """
    N = qf.dim
    nu_max = float(np.sqrt(max(np.linalg.eigvalsh(qf.V)[-1], 0.0)))
    if nu_max > 0 and dt > (2.0 * np.pi / nu_max) / 20.0:
        raise StepTooLarge(
            f"dt={dt} too coarse for fastest mode (need <= "
            f"{(2.0 * np.pi / nu_max) / 20.0:.4g})"
        )
    F = np.zeros((2 * N, 2 * N))
    F[:N, N:] = np.eye(N)
    F[N:, :N] = -qf.V

    def rhs(m, s):
        return F @ m, F @ s + s @ F.T

    m = state.mean.copy()
    s = state.cov.copy()
    n_steps = int(round(horizon / dt))
    for _ in range(n_steps):
        k1m, k1s = rhs(m, s)
        k2m, k2s = rhs(m + 0.5 * dt * k1m, s + 0.5 * dt * k1s)
        k3m, k3s = rhs(m + 0.5 * dt * k2m, s + 0.5 * dt * k2s)
        k4m, k4s = rhs(m + dt * k3m, s + dt * k3s)
        m = m + (dt / 6.0) * (k1m + 2 * k2m + 2 * k3m + k4m)
        s = s + (dt / 6.0) * (k1s + 2 * k2s + 2 * k3s + k4s)
    return GaussianState(m, s)


def uncertainty_defect(cov: np.ndarray) -> float:
    """Smallest eigenvalue of cov + (i/2) J; >= 0 for physical states."""
    n = cov.shape[0] // 2
    test = cov.astype(complex) + 0.5j * symplectic_form(n)
    return float(np.linalg.eigvalsh(test)[0].real)


def symplectic_defect(smap) -> float:
    """max |S J S^T - J|, the symplecticity residual of a SymplecticMap."""
    n = smap.S.shape[0] // 2
    J = symplectic_form(n)
    return float(np.max(np.abs(smap.S @ J @ smap.S.T - J)))


def correlation_loop(covs):
    """(E, MI, S1, S2, S12) of each two-mode covariance from one
    ``eigvals`` call per 4x4 and 2x2 matrix.

    The per-sample reference for the closed-form invariants of
    ``correlation_report``.
    """
    rows = []
    for c in np.asarray(covs, dtype=float):
        s1 = vn_entropy(c[np.ix_([0, 2], [0, 2])])
        s2 = vn_entropy(c[np.ix_([1, 3], [1, 3])])
        s12 = vn_entropy(c)
        rows.append((log_negativity(c), s1 + s2 - s12, s1, s2, s12))
    return tuple(np.array(rows).reshape(-1, 5).T)


def pearson_windows(times, f, g, w, step, d):
    """(starts, values) of the two-pass Pearson correlation of f[i : i + w + 1]
    against g[i + d : i + d + w + 1] for i = 0, step, 2 step, ..., keeping
    the windows that lie inside the data; NaN where either window's
    variance is below 1e-30.

    The per-window reference for ``sync_series``, in the same arithmetic
    and order, so the two agree bit for bit.
    """
    starts, values = [], []
    i = 0
    while i + w < len(times):
        j = i + d
        if j >= 0 and j + w < len(g):
            x, y = f[i : i + w + 1], g[j : j + w + 1]
            dx, dy = x - x.mean(), y - y.mean()
            if float(dx @ dx) / x.size < 1e-30 or float(dy @ dy) / y.size < 1e-30:
                c = math.nan
            else:
                c = float(dx @ dy / math.sqrt((dx @ dx) * (dy @ dy)))
            starts.append(times[i])
            values.append(c)
        i += step
    return np.array(starts), np.array(values)


def scan_delayed_sync(times, f, g, window, stride, delays, band=None):
    """Grid scan over delays, maximizing |C|; ties break toward zero delay.

    Returns ``(best_delay, best_abs_c, best_series)``.  With ``band =
    (t0, t1)`` only windows starting inside the band are scored.  The
    maximum over delays is biased toward 1, so it is a test check, not a
    run measure.
    """
    best = None
    for delay in sorted(np.asarray(delays, dtype=float), key=lambda d: (abs(d), d)):
        series = sync_series(times, f, g, window, stride, delay)
        vals = series.in_band(*band) if band is not None else series.values
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            continue
        score = float(np.max(np.abs(vals)))
        if best is None or score > best[1]:
            best = (delay, score, series)
    if best is None:
        raise ValueError("no scorable windows in the delay scan")
    return best


def dominant_frequency(times, f, window=None) -> float:
    """Oscillation frequency from the mean zero-crossing spacing.

    Crossing times are linearly interpolated; the frequency is pi over the
    mean half-period.  The window should span at least a few periods; a
    signal with fewer than two sign changes in it raises ValueError.
    """
    times = np.asarray(times, dtype=float)
    f = np.asarray(f, dtype=float)
    if window is not None:
        t0, t1 = window
        mask = (times >= t0) & (times <= t1)
        times, f = times[mask], f[mask]
    s = np.sign(f)
    flips = np.nonzero(s[:-1] * s[1:] < 0)[0]
    if flips.size < 2:
        raise ValueError("signal does not change sign often enough in the window")
    tc = times[flips] - f[flips] * (times[flips + 1] - times[flips]) / (
        f[flips + 1] - f[flips]
    )
    return float(np.pi / np.mean(np.diff(tc)))


def direct_phasor_sums(nu, times, coef):
    """Re sum_j coef[j, c] exp(i nu_j t) of ``phasor_sums``, from one
    ``np.cos`` and one ``np.sin`` per (time, mode) pair."""
    phase = np.outer(times, nu)
    coef = np.asarray(coef, dtype=complex)
    return np.cos(phase) @ coef.real - np.sin(phase) @ coef.imag


def dense_covariance_series(qf, state, times):
    """Probe covariances (len(times), 4, 4) in (x1, x2, p1, p2) ordering
    from the dense product B Sigma0 B^T: Sigma0 the initial covariance in
    the normal coordinates of its own ``eigh`` of V, and B the probe rows of
    the map from those coordinates at time 0 to site coordinates at t, from
    one cos and one sin per time and mode."""
    ev, O = np.linalg.eigh(qf.V)
    nu = np.sqrt(ev)
    N = nu.size
    Q = np.zeros((2 * N, 2 * N))
    Q[:N, :N] = Q[N:, N:] = O
    sigma0 = Q.T @ state.cov @ Q
    rows = O[:2]
    times = np.asarray(times, dtype=float)
    out = np.empty((times.size, 4, 4))
    for lo in range(0, times.size, 256):
        t = times[lo : lo + 256, None, None]
        c, s = np.cos(nu * t), np.sin(nu * t)
        B = np.concatenate(
            [np.concatenate([rows * c, rows * (s / nu)], 2),
             np.concatenate([rows * (-nu * s), rows * c], 2)], 1
        )
        blk = B @ sigma0 @ np.swapaxes(B, 1, 2)
        out[lo : lo + 256] = 0.5 * (blk + np.swapaxes(blk, 1, 2))
    return out


def basis_residual(nu, O, state, U, rows=256):
    """Exact check of a covariance basis Q = diag(U, U) for the engine of a
    ``ProductState`` with spectrum ``nu`` and modes ``O``: returns
    (||Delta - Q H Q^T||_F, 2 N^{3/2} eps ||Sigma0||_F), H = Q^T Delta Q,
    and the basis holds when the first is at most the second.

    Both norms are invariant under the orthogonal B = diag(I_2, O_chain)
    and O, so they are taken one tile of ``rows`` rows at a time in the
    state's local basis, where its covariance C is diagonal, against the
    ground state (W^T sqrt(g))(W^T sqrt(g))^T, W^T = B^T O; the x-p block
    counts twice.  The bound is the round-off of Delta: C is exact to one
    rounding per entry, and W^T and the ground state are each one product
    of N-term sums, taken to be off by about gamma_N tr(Sigma) <=
    N^{3/2} eps ||Sigma||_F (the trace of a positive matrix is at most
    sqrt(N) times its Frobenius norm).  O(N^3)."""
    N = nu.size
    Wt = np.empty_like(O)
    Wt[:2] = O[:2]
    Wt[2:] = chain_normal_modes(state.network)[1].T @ O[2:]
    WU = Wt @ U
    resid = norm = 0.0
    for S, g, w in ((state.var_x, 0.5 / nu, 1), (state.cov_xp, None, 2),
                    (state.var_p, 0.5 * nu, 1)):
        h = (WU.T * S) @ WU - (0.0 if g is None else (U.T * g) @ U)
        G = None if g is None else Wt * np.sqrt(g)
        for lo in range(0, N, rows):
            tile = slice(lo, lo + rows)
            T = np.eye(S[tile].size, N, lo) * S[tile, None]
            R = T - (WU[tile] @ h) @ WU.T
            if G is not None:
                R -= G[tile] @ G.T
            resid += w * np.einsum("ij,ij->", R, R)
            norm += w * np.einsum("ij,ij->", T, T)
    return math.sqrt(resid), 2.0 * N**1.5 * np.finfo(float).eps * math.sqrt(norm)


def cosine_kernels(c1, c2, chain_freqs, times):
    """(gamma1, gamma2, eta) of ``damping_kernels`` from one ``np.cos`` per
    (time, chain mode) pair."""
    cosm = np.cos(np.outer(times, chain_freqs))
    inv2 = 1.0 / np.asarray(chain_freqs) ** 2
    return cosm @ (c1**2 * inv2), cosm @ (c2**2 * inv2), cosm @ (c1 * c2 * inv2)


def integrated_kernel(times: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of a sampled kernel."""
    dt = times[1] - times[0]
    out = np.empty_like(kernel)
    out[0] = 0.0
    np.cumsum(0.5 * dt * (kernel[1:] + kernel[:-1]), out=out[1:])
    return out


def markov_plateau(times, kernel, t_lo, t_hi, freq=0.0) -> float:
    """Mean over the grid points in [t_lo, t_hi] of the trapezoid integral
    of kernel(s) cos(freq s)."""
    times = np.asarray(times, dtype=float)
    weighted = np.asarray(kernel, dtype=float) * np.cos(freq * times)
    integral = integrated_kernel(times, weighted)
    mask = (times >= t_lo) & (times <= t_hi)
    if not np.any(mask):
        raise ValueError(f"plateau window [{t_lo}, {t_hi}] contains no samples")
    return float(integral[mask].mean())


def probe_stiffness(probes) -> np.ndarray:
    """2x2 stiffness of the bare probe pair in the (x1, x2) basis."""
    return np.array(
        [
            [probes.omega1**2 + probes.lam, -probes.lam],
            [-probes.lam, probes.omega2**2 + probes.lam],
        ]
    )


def rayleigh_reduction(A, G) -> RayleighReport:
    """Rayleigh's reduction of the damping matrix G against the stiffness A
    by a 2x2 eigensolve.

    The eigenvectors of A, smaller eigenvalue first, are signed so that the
    larger-magnitude component of each is positive, and G' = M^T G M in
    that basis.  A diagonal gap above half the bigger rate predicts
    synchronization; ||[A, G]||_F is the full 2x2 commutator.
    """
    A = np.asarray(A, dtype=float)
    G = np.asarray(G, dtype=float)
    _, vecs = np.linalg.eigh(A)
    for k in range(2):
        if vecs[np.argmax(np.abs(vecs[:, k])), k] < 0:
            vecs[:, k] = -vecs[:, k]
    Gp = vecs.T @ G @ vecs
    d1, d2 = float(Gp[0, 0]), float(Gp[1, 1])
    big = max(abs(d1), abs(d2))
    gap = abs(d1 - d2)
    return RayleighReport(
        Gp=Gp,
        gap=gap,
        tau_S=1.0 / big if big > 0 else math.inf,
        ratio=d1 / d2 if d2 != 0 else math.inf * (1.0 if d1 >= 0 else -1.0),
        predicts_sync=bool(big > 0 and gap > 0.5 * big),
        commutator_norm=float(np.linalg.norm(A @ G - G @ A)),
    )


def _plateau_window(cfg, probes):
    """(t_lo, t_hi, f) of ``chain_rayleigh_report``: the window [min(10,
    tau_r / 4), tau_r / 2] and the mean system frequency."""
    tau_r = revival_time(cfg)
    freq = 0.5 * sum(system_eigenfrequencies(probes.omega1, probes.omega2, probes.lam))
    return min(10.0, 0.25 * tau_r), 0.5 * tau_r, freq


def _site_couplings(cfg, probes):
    """Chain frequencies and the site couplings K [O[site_m - 1]; sign2
    O[site_n - 1]] of the chain's modes O."""
    omegas, O = chain_normal_modes(cfg)
    C = probes.K * np.array([O[probes.site_m - 1], probes.sign2 * O[probes.site_n - 1]])
    return omegas, C


def site_damping_matrix(cfg, probes) -> np.ndarray:
    """The plateau damping matrix of ``chain_rayleigh_report`` in the site
    basis (x1, x2), C diag(P(Omega) / Omega^2) C^T, from the closed-form
    plateau P of the mean over [t_lo, t_hi] of int_0^t cos(Omega s)
    cos(f s) ds."""
    t_lo, t_hi, freq = _plateau_window(cfg, probes)
    omegas, (c1, c2) = _site_couplings(cfg, probes)
    sigma, delta = 0.5 * (t_hi + t_lo), 0.5 * (t_hi - t_lo)
    a = np.stack([omegas - freq, omegas + freq])
    P = 0.5 * sigma * np.sum(np.sinc(a * (sigma / np.pi)) * np.sinc(a * (delta / np.pi)), axis=0)
    w = P / omegas**2
    g11, g12, g22 = (c1 * w) @ c1, (c1 * w) @ c2, (c2 * w) @ c2
    return np.array([[g11, g12], [g12, g22]])


def grid_rayleigh_report(cfg, probes, dt=None):
    """``chain_rayleigh_report`` with each plateau sampled on a time grid
    of step ``dt`` (default min(0.05, T_min / 50), T_min the fastest chain
    period) and reduced by ``rayleigh_reduction``."""
    t_lo, t_hi, freq = _plateau_window(cfg, probes)
    omegas, (c1, c2) = _site_couplings(cfg, probes)
    if dt is None:
        dt = min(0.05, (2.0 * np.pi / omegas.max()) / 50.0)
    times = np.arange(0.0, t_hi + dt, dt)
    g1, g2, eta = (
        markov_plateau(times, k, t_lo, t_hi, freq) for k in cosine_kernels(c1, c2, omegas, times)
    )
    G = np.array([[g1, eta], [eta, g2]])
    return rayleigh_reduction(probe_stiffness(probes), G)


def history_sum_gqle_means(
    kernels: Kernels,
    Lambda1: float,
    Lambda2: float,
    q0,
    qdot0,
    horizon: float,
    dt: float,
):
    """``solve_gqle_means`` by re-summing the whole sampled history at
    each Heun half-step, O(n^2) in the number of steps.

    The same trapezoid weights and Heun stepper as the package's per-mode
    recursion, with the convolution and the forcing read off the sampled
    kernels instead of the spectral weights, so the grid must be uniform
    with step ``dt``, start at t = 0 and cover the horizon.
    """
    if dt > (2.0 * np.pi / Lambda2) / 20.0:
        raise StepTooLarge(
            f"dt={dt} does not resolve the fast probe mode (need <= "
            f"{(2.0 * np.pi / Lambda2) / 20.0:.4g})"
        )
    if abs(uniform_step(kernels.times) - dt) > 1e-12 * max(1.0, dt):
        raise ValueError("kernel grid step must equal the integration step")
    if kernels.times[0] != 0.0:
        raise ValueError("kernel grid must start at t = 0")
    n = int(round(horizon / dt))
    if kernels.times.size < n + 1:
        raise ValueError("kernel grid does not cover the integration horizon")

    g1 = np.ascontiguousarray(kernels.gamma1[: n + 1])
    g2 = np.ascontiguousarray(kernels.gamma2[: n + 1])
    et = np.ascontiguousarray(kernels.eta[: n + 1])
    r1, r2, re = g1[::-1].copy(), g2[::-1].copy(), et[::-1].copy()
    L = n + 1

    w1 = Lambda1**2 - kernels.gamma1_0
    w2 = Lambda2**2 - kernels.gamma2_0
    e0 = kernels.eta_0

    q = np.empty((n + 1, 2))
    u = np.empty((n + 1, 2))
    q[0] = np.asarray(q0, dtype=float)
    u[0] = np.asarray(qdot0, dtype=float)

    def accel(i, qi, u1h, u2h):
        # trapezoid end-weights folded in by subtracting half the endpoints
        if i == 0:
            I1 = I2 = 0.0
        else:
            k1 = r1[L - 1 - i :]
            k2 = r2[L - 1 - i :]
            ke = re[L - 1 - i :]
            I1 = dt * (
                k1 @ u1h + ke @ u2h
                - 0.5 * (g1[i] * u1h[0] + g1[0] * u1h[i] + et[i] * u2h[0] + et[0] * u2h[i])
            )
            I2 = dt * (
                k2 @ u2h + ke @ u1h
                - 0.5 * (g2[i] * u2h[0] + g2[0] * u2h[i] + et[i] * u1h[0] + et[0] * u1h[i])
            )
        a1 = -w1 * qi[0] + e0 * qi[1] - I1 - g1[i] * q[0, 0] - et[i] * q[0, 1]
        a2 = -w2 * qi[1] + e0 * qi[0] - I2 - g2[i] * q[0, 1] - et[i] * q[0, 0]
        return np.array([a1, a2])

    for i in range(n):
        a_n = accel(i, q[i], u[: i + 1, 0], u[: i + 1, 1])
        q_pred = q[i] + dt * u[i]
        u_pred = u[i] + dt * a_n
        u[i + 1] = u_pred  # provisional, used inside the corrector convolution
        a_pred = accel(i + 1, q_pred, u[: i + 2, 0], u[: i + 2, 1])
        q[i + 1] = q[i] + 0.5 * dt * (u[i] + u_pred)
        u[i + 1] = u[i] + 0.5 * dt * (a_n + a_pred)

    times = np.arange(n + 1) * dt
    return times, q, u


def sweep_csv_text(rows) -> str:
    """sweep.csv as one f-string per row, from (site, starts, values)
    triples in site order."""
    lines = ["site,t,c\n"]
    for site, starts, values in rows:
        lines += [f"{site:d},{t:.11e},{c:.11e}\n" for t, c in zip(starts, values)]
    return "".join(lines)
