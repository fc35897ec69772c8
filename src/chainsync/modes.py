"""Probe normal modes, chain memory kernels, and the Rayleigh damping
predictor.

The probe pair has normal coordinates q1 = cos(theta) x1 + sin(theta) x2,
q2 = -sin(theta) x1 + cos(theta) x2 with tan(2 theta) = 2 lambda /
(omega2^2 - omega1^2).  Eliminating the chain turns the probe dynamics into
a pair of integro-differential equations whose memory kernels are finite
cosine sums over the chain band; ``solve_gqle_means`` integrates them for
the mean values.  ``rayleigh_reduction`` implements the time-local
reduction: diagonalize the stiffness, transform the damping matrix, drop
its off-diagonal part, and predict synchronization from the gap between
the two surviving damping rates.  ``chain_rayleigh_report`` takes that
damping matrix from the kernels' Markovian plateau in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import phasor_blocks, uniform_step
from .errors import StepTooLarge, ZeroModeError
from .lattice import NetworkConfig, ProbePair, chain_normal_modes, revival_time


def system_mode_angle(omega1: float, omega2: float, lam: float) -> float:
    """Mixing angle of the probe normal modes.

    Branch: theta -> 0 as lam -> 0 with omega2 > omega1, theta = pi/4 for
    identical probes with lam > 0, and theta -> pi/2 in the lam = 0,
    omega2 < omega1 corner.  The degenerate case lam = 0, omega1 = omega2
    (any angle diagonalizes) returns 0; see ``angle_is_degenerate``.
    """
    if angle_is_degenerate(omega1, omega2, lam):
        return 0.0
    return 0.5 * math.atan2(2.0 * lam, omega2**2 - omega1**2)


def angle_is_degenerate(omega1: float, omega2: float, lam: float) -> bool:
    return lam == 0.0 and omega1 == omega2


def system_eigenfrequencies(omega1: float, omega2: float, lam: float):
    """Normal-mode frequencies (Lambda1, Lambda2) with Lambda1 <= Lambda2."""
    half_sum = 0.5 * (omega1**2 + omega2**2)
    half_split = 0.5 * math.sqrt(4.0 * lam**2 + (omega1**2 - omega2**2) ** 2)
    L1 = math.sqrt(lam + half_sum - half_split)
    L2 = math.sqrt(lam + half_sum + half_split)
    return L1, L2


def mode_rotation(theta: float) -> np.ndarray:
    """2x2 rotation taking (x1, x2) to (q1, q2)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def _site_couplings(network: NetworkConfig | int, probes: ProbePair):
    """Chain frequencies and the probes' site couplings C = K [O[site_m - 1];
    sign2 O[site_n - 1]] (2 x M) from the chain's modes O."""
    omegas, O = chain_normal_modes(network, (probes.site_m, probes.site_n))
    return omegas, probes.K * O * np.array([[1.0], [probes.sign2]])


@dataclass(frozen=True)
class SystemModes:
    """Probe normal-mode data: angle, frequencies, chain couplings."""

    theta: float
    Lambda1: float
    Lambda2: float
    c1: np.ndarray
    c2: np.ndarray
    degenerate_angle: bool = False


def system_modes(probes: ProbePair, network: NetworkConfig | int) -> SystemModes:
    """Assemble the full normal-mode description for a probe pair: the
    per-mode couplings (c1, c2) of the probe normal modes to the chain
    modes are the site couplings rotated by theta.  An int ``network`` is
    the homogeneous chain of that many sites."""
    degenerate = angle_is_degenerate(probes.omega1, probes.omega2, probes.lam)
    theta = system_mode_angle(probes.omega1, probes.omega2, probes.lam)
    L1, L2 = system_eigenfrequencies(probes.omega1, probes.omega2, probes.lam)
    c1, c2 = mode_rotation(theta) @ _site_couplings(network, probes)[1]
    return SystemModes(theta, L1, L2, c1, c2, degenerate)


@dataclass(frozen=True)
class Kernels:
    """Memory kernels sampled on a uniform grid.

    gamma1/gamma2 damp each probe normal mode locally; eta carries the
    cross friction transmitted along the chain and is symmetric under
    swapping the two modes.  The t = 0 values renormalize the stiffness in
    the Langevin equation and are recorded separately.
    """

    times: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    eta: np.ndarray
    gamma1_0: float
    gamma2_0: float
    eta_0: float

    @property
    def dt(self) -> float:
        """Grid step; raises ValueError on a non-uniform grid."""
        return uniform_step(self.times)


def damping_kernels(
    modes: SystemModes, chain_freqs: np.ndarray, times: np.ndarray
) -> Kernels:
    """Sample gamma_1, gamma_2, eta on ``times``.

    gamma_s(t) = sum_j c_s(j)^2 / Omega_j^2 cos(Omega_j t), eta likewise
    with c1 c2; the cosines are the real parts of the phasors that
    ``dynamics.phasor_blocks`` yields.  Requires all chain frequencies
    strictly positive.
    """
    omegas = np.asarray(chain_freqs, dtype=float)
    if np.any(omegas <= 0.0):
        raise ZeroModeError("damping kernels need strictly positive chain frequencies")
    times = np.asarray(times, dtype=float)
    inv2 = 1.0 / omegas**2
    w1 = modes.c1**2 * inv2
    w2 = modes.c2**2 * inv2
    wx = modes.c1 * modes.c2 * inv2
    g1 = np.empty_like(times)
    g2 = np.empty_like(times)
    et = np.empty_like(times)
    for block, _, z in phasor_blocks(omegas, times):
        cosm = np.ascontiguousarray(z.real)
        g1[block] = cosm @ w1
        g2[block] = cosm @ w2
        et[block] = cosm @ wx
    return Kernels(times, g1, g2, et, float(w1.sum()), float(w2.sum()), float(wx.sum()))


@dataclass(frozen=True)
class RayleighReport:
    """Reduced damping matrix in the stiffness eigenbasis and the derived
    synchronization prediction."""

    Gp: np.ndarray
    gap: float
    tau_S: float
    ratio: float
    predicts_sync: bool
    commutator_norm: float


def rayleigh_reduction(
    A: np.ndarray, G: np.ndarray, sync_threshold: float = 0.5
) -> RayleighReport:
    """Transform the damping matrix G into the eigenbasis of the stiffness
    A and report the diagonal gap.

    The reduction drops the off-diagonal of G' = M^-1 G M, valid when
    ||[G, A]|| is small against the self-dampings.  A gap between G'_11
    and G'_22 larger than ``sync_threshold`` times the bigger rate
    predicts transient synchronization, on the time scale tau_S set by
    the inverse of the larger damping.
    """
    A = np.asarray(A, dtype=float)
    G = np.asarray(G, dtype=float)
    _, vecs = np.linalg.eigh(A)
    # fix eigenvector signs for a deterministic report
    for k in range(2):
        if vecs[np.argmax(np.abs(vecs[:, k])), k] < 0:
            vecs[:, k] = -vecs[:, k]
    Gp = vecs.T @ G @ vecs
    d1, d2 = float(Gp[0, 0]), float(Gp[1, 1])
    big = max(abs(d1), abs(d2))
    gap = abs(d1 - d2)
    tau_S = 1.0 / big if big > 0 else math.inf
    ratio = d1 / d2 if d2 != 0 else math.inf * (1.0 if d1 >= 0 else -1.0)
    comm = A @ G - G @ A
    return RayleighReport(
        Gp=Gp,
        gap=gap,
        tau_S=tau_S,
        ratio=ratio,
        predicts_sync=bool(big > 0 and gap > sync_threshold * big),
        commutator_norm=float(np.linalg.norm(comm)),
    )


def ohmic_gap_ratio(theta: float) -> float:
    """Damping-rate ratio (1 + sin 2 theta) / (1 - sin 2 theta) of the two
    probe modes dissipating into a common Ohmic environment.  Infinite at
    theta = pi/4 (one mode fully decoupled from the bath)."""
    s = math.sin(2.0 * theta)
    if 1.0 - s <= 0.0:
        return math.inf
    return (1.0 + s) / (1.0 - s)


def probe_stiffness(probes: ProbePair) -> np.ndarray:
    """2x2 stiffness of the bare probe pair in the (x1, x2) basis."""
    return np.array(
        [
            [probes.omega1**2 + probes.lam, -probes.lam],
            [-probes.lam, probes.omega2**2 + probes.lam],
        ]
    )


def chain_rayleigh_report(
    cfg: NetworkConfig,
    probes: ProbePair,
    sync_threshold: float = 0.5,
    t_lo: float | None = None,
    t_hi: float | None = None,
    eval_freq: float | None = None,
) -> RayleighReport:
    """Rayleigh prediction for a probe pair plugged into the chain.

    The time-local damping matrix is the Markovian plateau of the
    site-basis kernels K_ab(s) = sum_j C_aj C_bj cos(Omega_j s) / Omega_j^2,
    C = K [O[site_m - 1]; sign2 O[site_n - 1]] with O the chain's modes:
    the mean over [t_lo, t_hi] of int_0^t K_ab(s) cos(f s) ds at the mean
    system frequency f (a modeling choice: the finite chain only admits a
    constant-damping description during the pre-echo transient, and the
    gapped band makes the static friction vanish).  Per mode it is exact:

        G = C diag(P(Omega_j) / Omega_j^2) C^T,
        P(Omega) = sigma/2 sum_{a = Omega -+ f} sinc(a sigma) sinc(a delta),

    sigma = (t_hi + t_lo)/2, delta = (t_hi - t_lo)/2, sinc x = sin x / x;
    the dt -> 0 limit of averaging a trapezoid integral of the sampled
    kernel over the grid points in the window.
    """
    tau_r = revival_time(cfg)
    if t_lo is None:
        t_lo = min(10.0, 0.25 * tau_r)
    if t_hi is None:
        t_hi = 0.5 * tau_r
    if not 0.0 <= t_lo <= t_hi:
        raise ValueError(f"plateau window [{t_lo}, {t_hi}] needs 0 <= t_lo <= t_hi")
    if eval_freq is None:
        L1, L2 = system_eigenfrequencies(probes.omega1, probes.omega2, probes.lam)
        eval_freq = 0.5 * (L1 + L2)
    omegas, (c1, c2) = _site_couplings(cfg, probes)
    sigma, delta = 0.5 * (t_hi + t_lo), 0.5 * (t_hi - t_lo)
    a = np.stack([omegas - eval_freq, omegas + eval_freq])
    P = 0.5 * sigma * np.sum(np.sinc(a * (sigma / np.pi)) * np.sinc(a * (delta / np.pi)), axis=0)
    w = P / omegas**2
    g11, g12, g22 = (c1 * w) @ c1, (c1 * w) @ c2, (c2 * w) @ c2
    G = np.array([[g11, g12], [g12, g22]])
    return rayleigh_reduction(probe_stiffness(probes), G, sync_threshold)


@dataclass(frozen=True)
class ResonantModes:
    """Chain mode indices (1-based) closest to the two probe frequencies,
    with in-band flags; a probe frequency outside the chain band has no
    resonance."""

    k_minus: int
    k_plus: int
    minus_in_band: bool
    plus_in_band: bool


def resonant_mode_indices(
    Lambda1: float, Lambda2: float, chain_freqs: np.ndarray
) -> ResonantModes:
    omegas = np.asarray(chain_freqs, dtype=float)
    if np.any(np.diff(omegas) < 0):
        raise ValueError("chain frequencies must be sorted ascending")
    lo, hi = float(omegas[0]), float(omegas[-1])

    def locate(lam):
        k = int(np.argmin(np.abs(omegas - lam))) + 1
        return k, bool(lo <= lam <= hi)

    k_minus, ok_minus = locate(Lambda1)
    k_plus, ok_plus = locate(Lambda2)
    return ResonantModes(k_minus, k_plus, ok_minus, ok_plus)


def solve_gqle_means(
    kernels: Kernels,
    Lambda1: float,
    Lambda2: float,
    q0,
    qdot0,
    horizon: float,
    dt: float,
):
    """Integrate the mean-value Langevin equations for the probe normal
    modes against a vacuum chain.

        qdd_s + [Lambda_s^2 - gamma_s(0)] q_s - eta(0) q_sbar
              + int_0^t [gamma_s(t-t') qd_s(t') + eta(t-t') qd_sbar(t')] dt'
              = -gamma_s(t) q_s(0) - eta(t) q_sbar(0)

    The convolution uses the trapezoidal rule on the shared kernel grid,
    which must be uniform with step ``dt``, and the stepper is Heun's method, so the scheme converges at second
    order in dt.  Returns (times, q, qdot) with q of shape (n+1, 2).
    """
    if dt > (2.0 * np.pi / Lambda2) / 20.0:
        raise StepTooLarge(
            f"dt={dt} does not resolve the fast probe mode (need <= "
            f"{(2.0 * np.pi / Lambda2) / 20.0:.4g})"
        )
    if abs(kernels.dt - dt) > 1e-12 * max(1.0, dt):
        raise ValueError("kernel grid step must equal the integration step")
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
