"""Probe normal modes, chain memory kernels, and the Rayleigh damping
predictor.

The probe pair has normal coordinates q1 = cos(theta) x1 + sin(theta) x2,
q2 = -sin(theta) x1 + cos(theta) x2 with tan(2 theta) = 2 lambda /
(omega2^2 - omega1^2).  Eliminating the chain turns the probe dynamics into
a pair of integro-differential equations whose memory kernels are finite
cosine sums over the chain band; ``solve_gqle_means`` integrates them for
the mean values.  Because each kernel is exactly sum_j w_j cos(Omega_j t),
its history sum over n steps is Re sum_j w_j A_j with per-mode phasor
accumulators A_j <- exp(i Omega_j h) A_j + u, so the solve costs O(n M)
rather than O(n^2).  ``chain_rayleigh_report`` implements Rayleigh's
time-local reduction: it takes the damping matrix from the kernels'
Markovian plateau in closed form, directly in the probe normal-mode basis
(the stiffness eigenbasis), drops its off-diagonal part, and predicts
synchronization from the gap between the two surviving damping rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import phasor_sums
from .errors import StepTooLarge, ZeroModeError
from .lattice import NetworkConfig, ProbePair, chain_normal_modes, revival_time


def _rotation_angle(a11: float, a22: float, a12: float) -> float:
    """Angle theta whose ``mode_rotation`` R makes R A R^T diagonal for the
    symmetric A = [[a11, a12], [a12, a22]], smaller eigenvalue first: 0.5
    atan2(-2 a12, a22 - a11), and 0 for a multiple of the identity."""
    if a12 == 0.0 and a11 == a22:
        return 0.0
    return 0.5 * math.atan2(-2.0 * a12, a22 - a11)


def system_mode_angle(omega1: float, omega2: float, lam: float) -> float:
    """Mixing angle of the probe normal modes.

    Branch: theta -> 0 as lam -> 0 with omega2 > omega1, theta = pi/4 for
    identical probes with lam > 0, and theta -> pi/2 in the lam = 0,
    omega2 < omega1 corner.  The degenerate case lam = 0, omega1 = omega2
    (any angle diagonalizes) returns 0.
    """
    return _rotation_angle(omega1**2, omega2**2, -lam)


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


@dataclass(frozen=True)
class SystemModes:
    """Probe normal-mode data: angle, frequencies, chain couplings."""

    theta: float
    Lambda1: float
    Lambda2: float
    c1: np.ndarray
    c2: np.ndarray


def system_modes(probes: ProbePair, network) -> SystemModes:
    """Assemble the full normal-mode description for a probe pair on a
    ``network``: a NetworkConfig, its ``chain_normal_modes`` or, for the
    homogeneous chain of that many sites, an int.  The per-mode couplings
    (c1, c2) of the probe normal modes to the chain modes are the site
    couplings K [O[site_m - 1]; sign2 O[site_n - 1]] of the chain's modes
    O, rotated by theta."""
    theta = system_mode_angle(probes.omega1, probes.omega2, probes.lam)
    L1, L2 = system_eigenfrequencies(probes.omega1, probes.omega2, probes.lam)
    _, O = chain_normal_modes(network, (probes.site_m, probes.site_n))
    c1, c2 = mode_rotation(theta) @ (probes.K * O * np.array([[1.0], [probes.sign2]]))
    return SystemModes(theta, L1, L2, c1, c2)


@dataclass(frozen=True)
class Kernels:
    """Memory kernels sampled on ``times``, with the spectral data they
    are sums over.

    gamma1/gamma2 damp each probe normal mode locally; eta carries the
    cross friction transmitted along the chain and is symmetric under
    swapping the two modes.  Row s of ``weights`` holds the weights of
    kernel s over ``chain_freqs``: c1^2 / Omega^2, c2^2 / Omega^2 and
    c1 c2 / Omega^2.  The t = 0 values, their sums, renormalize the
    stiffness in the Langevin equation.
    """

    times: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    eta: np.ndarray
    chain_freqs: np.ndarray
    weights: np.ndarray

    @property
    def gamma1_0(self) -> float:
        return float(self.weights[0].sum())

    @property
    def gamma2_0(self) -> float:
        return float(self.weights[1].sum())

    @property
    def eta_0(self) -> float:
        return float(self.weights[2].sum())


def damping_kernels(
    modes: SystemModes, chain_freqs: np.ndarray, times: np.ndarray
) -> Kernels:
    """Sample gamma_1, gamma_2, eta on ``times``.

    gamma_s(t) = sum_j c_s(j)^2 / Omega_j^2 cos(Omega_j t), eta likewise
    with c1 c2: the three weight rows are the coefficients of one
    ``dynamics.phasor_sums``.  Requires all chain frequencies strictly
    positive.
    """
    omegas = np.asarray(chain_freqs, dtype=float)
    if np.any(omegas <= 0.0):
        raise ZeroModeError("damping kernels need strictly positive chain frequencies")
    times = np.asarray(times, dtype=float)
    weights = np.stack([modes.c1**2, modes.c2**2, modes.c1 * modes.c2]) * (1.0 / omegas**2)
    return Kernels(times, *phasor_sums(omegas, times, weights.T).T, omegas, weights)


@dataclass(frozen=True)
class RayleighReport:
    """Reduced damping matrix in the probe normal-mode basis (q1, q2) and
    the derived synchronization prediction."""

    Gp: np.ndarray
    gap: float
    tau_S: float
    ratio: float
    predicts_sync: bool
    commutator_norm: float


def ohmic_gap_ratio(theta: float) -> float:
    """Damping-rate ratio (1 + sin 2 theta) / (1 - sin 2 theta) of the two
    probe modes dissipating into a common Ohmic environment.  Infinite at
    theta = pi/4 (one mode fully decoupled from the bath)."""
    s = math.sin(2.0 * theta)
    if 1.0 - s <= 0.0:
        return math.inf
    return (1.0 + s) / (1.0 - s)


# a damping gap above this fraction of the larger rate predicts synchronization
_SYNC_GAP_FRACTION = 0.5


def chain_rayleigh_report(cfg: NetworkConfig, modes: SystemModes, chain_freqs) -> RayleighReport:
    """Rayleigh prediction for a probe pair with normal modes ``modes``
    plugged into the chain ``cfg`` of frequencies ``chain_freqs``.

    The time-local damping matrix is the Markovian plateau of the
    normal-mode kernels K_st(s) = sum_j c_s(j) c_t(j) cos(Omega_j s) /
    Omega_j^2 of ``damping_kernels``: the mean over [t_lo, t_hi] =
    [min(10, tau_r / 4), tau_r / 2], tau_r the revival time, of
    int_0^t K_st(s) cos(f s) ds at the mean system frequency f =
    (Lambda1 + Lambda2) / 2 (a modeling choice: the finite chain only
    admits a constant-damping description during the pre-echo transient,
    and the gapped band makes the static friction vanish).  Per mode it is
    exact:

        G' = [c1; c2] diag(P(Omega_j) / Omega_j^2) [c1; c2]^T,
        P(Omega) = sigma/2 sum_{a = Omega -+ f} sinc(a sigma) sinc(a delta),

    sigma = (t_hi + t_lo)/2, delta = (t_hi - t_lo)/2, sinc x = sin x / x;
    the dt -> 0 limit of averaging a trapezoid integral of the sampled
    kernel over the grid points in the window.

    G' = R G R^T is the site-basis damping matrix G rotated into the
    eigenbasis of the probe stiffness A, R A R^T = diag(Lambda1^2,
    Lambda2^2).  The reduction drops G'_12, valid when ||[A, G]|| =
    sqrt(2) (Lambda2^2 - Lambda1^2) |G'_12| (Frobenius, which the rotation
    leaves unchanged) is small against the self-dampings.  A gap between
    G'_11 and G'_22 larger than half the bigger rate predicts transient
    synchronization, on the time scale tau_S set by the inverse of the
    larger damping.
    """
    tau_r = revival_time(cfg)
    t_lo, t_hi = min(10.0, 0.25 * tau_r), 0.5 * tau_r
    f = 0.5 * (modes.Lambda1 + modes.Lambda2)
    sigma, delta = 0.5 * (t_hi + t_lo), 0.5 * (t_hi - t_lo)
    a = np.stack([chain_freqs - f, chain_freqs + f])
    P = 0.5 * sigma * np.sum(np.sinc(a * (sigma / np.pi)) * np.sinc(a * (delta / np.pi)), axis=0)
    w = P / chain_freqs**2
    cw1, cw2 = modes.c1 * w, modes.c2 * w
    g11, g12, g22 = float(cw1 @ modes.c1), float(cw1 @ modes.c2), float(cw2 @ modes.c2)
    big = max(abs(g11), abs(g22))
    gap = abs(g11 - g22)
    return RayleighReport(
        Gp=np.array([[g11, g12], [g12, g22]]),
        gap=gap,
        tau_S=1.0 / big if big > 0 else math.inf,
        ratio=g11 / g22 if g22 != 0 else math.inf * (1.0 if g11 >= 0 else -1.0),
        predicts_sync=bool(big > 0 and gap > _SYNC_GAP_FRACTION * big),
        commutator_norm=math.sqrt(2.0) * (modes.Lambda2**2 - modes.Lambda1**2) * abs(g12),
    )


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

    The convolution uses the trapezoidal rule with step ``dt`` and the
    stepper is Heun's method, so the scheme converges at second order in
    dt.  Only the kernels' spectral data are read (``chain_freqs`` and
    ``weights``), never their samples, so the grid they were sampled on
    does not matter.

    The history sums are exact per-mode recursions: with Z_j =
    exp(i Omega_j dt), A_j(i) = sum_{k <= i} Z_j^(i-k) u_k obeys A(i) =
    Z A(i-1) + u_i, and sum_k gamma(t_i - t_k) u_k = Re sum_j w_j A_j(i)
    for the kernel's weights w.  Starting the accumulator at A(0) =
    u_0 / 2 + q(0) / dt folds the trapezoid's half weight at t' = 0 and the
    forcing into the same sum.  Both channels share one (2, M)
    accumulator, and the predictor and corrector of a step share the
    product Z A(i), differing only in the newest term.  A step costs one
    complex multiply and one product with the weights, O(M), so the solve
    is O(n M) instead of the O(n^2) re-sum of a sampled history.  Returns
    (times, q, qdot) with q of shape (n+1, 2).
    """
    if dt > (2.0 * np.pi / Lambda2) / 20.0:
        raise StepTooLarge(
            f"dt={dt} does not resolve the fast probe mode (need <= "
            f"{(2.0 * np.pi / Lambda2) / 20.0:.4g})"
        )
    n = int(round(horizon / dt))
    (q1, q2), (u1, u2) = (np.asarray(v, dtype=float).tolist() for v in (q0, qdot0))
    hh = 0.5 * dt
    g10, g20, e0 = kernels.gamma1_0, kernels.gamma2_0, kernels.eta_0
    # half weight of the newest velocity in the trapezoid
    s1, s2, sx = hh * g10, hh * g20, hh * e0
    w1 = Lambda1**2 - g10
    w2 = Lambda2**2 - g20

    omegas = kernels.chain_freqs
    M = omegas.size
    C = dt * kernels.weights
    # Re(a c) = [Re a, Im a] . [c, 0] for real c: the history sums of both
    # channels are one real (4M) @ (4M, 2) product with the float view of A
    W = np.array([[C[0], C[2]], [C[2], C[1]]], dtype=complex)
    W = np.ascontiguousarray(W.view(float).transpose(0, 2, 1).reshape(4 * M, 2))
    # one phasor row per channel: same-shape operands multiply fastest
    Z = np.tile(np.exp(1j * (dt * omegas)), (2, 1))
    A = np.empty((2, M), dtype=complex)
    A[0], A[1] = 0.5 * u1 + q1 / dt, 0.5 * u2 + q2 / dt
    A_flat = A.reshape(-1).view(float)
    u_new = np.empty((2, 1), dtype=complex)

    # at t = 0 the memory integral vanishes and the forcing is its t = 0 value
    a1 = -w1 * q1 + e0 * q2 - g10 * q1 - e0 * q2
    a2 = -w2 * q2 + e0 * q1 - g20 * q2 - e0 * q1
    q = np.empty((n + 1, 2))
    u = np.empty((n + 1, 2))
    q[0], u[0] = (q1, q2), (u1, u2)
    # memoryviews write the arrays from Python floats, without per-element
    # numpy scalars
    qv, uv = memoryview(q.reshape(-1)), memoryview(u.reshape(-1))
    for j in range(2, 2 * n + 2, 2):
        qp1, qp2 = q1 + dt * u1, q2 + dt * u2
        up1, up2 = u1 + dt * a1, u2 + dt * a2
        A *= Z
        p1, p2 = np.dot(A_flat, W).tolist()
        b1 = -w1 * qp1 + e0 * qp2 - p1 - s1 * up1 - sx * up2
        b2 = -w2 * qp2 + e0 * qp1 - p2 - s2 * up2 - sx * up1
        q1 += hh * (u1 + up1)
        q2 += hh * (u2 + up2)
        u1 += hh * (a1 + b1)
        u2 += hh * (a2 + b2)
        u_new[0, 0], u_new[1, 0] = u1, u2
        A += u_new
        a1 = -w1 * q1 + e0 * q2 - p1 - s1 * u1 - sx * u2
        a2 = -w2 * q2 + e0 * q1 - p2 - s2 * u2 - sx * u1
        qv[j], qv[j + 1], uv[j], uv[j + 1] = q1, q2, u1, u2

    times = np.arange(n + 1) * dt
    return times, q, u
