"""Reference solvers that the tests compare chainsync against.

They share no code with the package's closed-form propagation, which is
what makes them independent cross-checks.
"""

import numpy as np

from chainsync import (
    GaussianState,
    Kernels,
    QuadraticForm,
    StepTooLarge,
    chain_normal_modes,
    log_negativity,
    rayleigh_reduction,
    revival_time,
    system_eigenfrequencies,
    vn_entropy,
)
from chainsync.dynamics import uniform_step
from chainsync.modes import probe_stiffness


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


def grid_rayleigh_report(cfg, probes, dt=None):
    """``chain_rayleigh_report`` at its default window and frequency, with
    each plateau sampled on a time grid of step ``dt`` (default
    min(0.05, T_min / 50), T_min the fastest chain period)."""
    tau_r = revival_time(cfg)
    t_lo, t_hi = min(10.0, 0.25 * tau_r), 0.5 * tau_r
    freq = 0.5 * sum(system_eigenfrequencies(probes.omega1, probes.omega2, probes.lam))
    omegas, O = chain_normal_modes(cfg)
    if dt is None:
        dt = min(0.05, (2.0 * np.pi / omegas.max()) / 50.0)
    c1 = probes.K * O[probes.site_m - 1]
    c2 = probes.sign2 * probes.K * O[probes.site_n - 1]
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
