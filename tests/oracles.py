"""Reference solvers that the tests compare chainsync against.

They share no code with the package's closed-form propagation, which is
what makes them independent cross-checks.
"""

import numpy as np

from chainsync import (
    GaussianState,
    QuadraticForm,
    StepTooLarge,
    chain_normal_modes,
    log_negativity,
    rayleigh_reduction,
    revival_time,
    system_eigenfrequencies,
    vn_entropy,
)
from chainsync.modes import probe_stiffness


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
