"""Reference solvers that the tests compare chainsync against.

They share no code with the package's closed-form propagation, which is
what makes them independent cross-checks.
"""

import numpy as np

from chainsync import (
    GaussianState,
    QuadraticForm,
    StepTooLarge,
    log_negativity,
    vn_entropy,
)


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
