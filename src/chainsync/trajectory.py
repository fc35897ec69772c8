"""Exact trajectory evaluation in the normal-mode picture.

Stepping the full 2N x 2N covariance through a symplectic map costs
O(N^3) per output sample, which is wasteful when only the two probe modes
are observed.  This engine diagonalizes the potential once with
``dynamics.spectrum``, which also checks stability and leaves the smallest
eigenvalue on the engine as ``min_eigenvalue``.  It rotates the initial
moments into normal coordinates and then evaluates probe means and
probe-block covariances at arbitrary times directly.

Per-sample cost.  Times are taken in blocks by ``dynamics.phasor_blocks``,
the iterator that also serves the memory kernels of
``modes.damping_kernels``.  Each block's phasors z = exp(i nu t) come from
one complex multiply per mode and sample: on a uniform grid a block is
the cached exp(i nu k h) rotated by the exactly computed phasor of its
first time, so no cos or sin is evaluated per sample and the phase error
does not accumulate across blocks.  Means of k modes are then one complex
(block x N) @ (N x 2k) product, O(N k) per sample.  Covariances read cos,
sin/nu and nu sin off the same phasors (``dynamics.phasor_trig``, the kernel that
``dynamics.propagator`` also uses) and keep the O(N^2) per-sample
B Sigma0 B^T product, which dominates them.  Results equal repeated
application of propagator maps to round-off; tests cover the
equivalence, including off-grid times and zero modes.
"""

from __future__ import annotations

import numpy as np

from .dynamics import GaussianState, mode_trig, phasor_blocks, phasor_trig, spectrum
from .lattice import DEFAULT_STABILITY_TOL, QuadraticForm


class NormalModeTrajectory:
    """Closed-system trajectory of a Gaussian state under a stable
    quadratic form."""

    def __init__(
        self,
        qf: QuadraticForm,
        state: GaussianState,
        stability_tol: float = DEFAULT_STABILITY_TOL,
        check: bool = True,
    ):
        if state.n_modes != qf.dim:
            raise ValueError("state and potential dimensions differ")
        self.qf = qf
        self.nu, self.O, self.min_eigenvalue = spectrum(qf, stability_tol, check)
        O = self.O
        N = qf.dim
        self._y0 = O.T @ state.mean[:N]
        self._pi0 = O.T @ state.mean[N:]
        sxx = state.cov[:N, :N]
        sxp = state.cov[:N, N:]
        spp = state.cov[N:, N:]
        self._Syy = O.T @ sxx @ O
        self._Syp = O.T @ sxp @ O
        self._Spp = O.T @ spp @ O

    @property
    def n_modes(self) -> int:
        return self.nu.size

    def mean_series(self, times, modes=(0, 1)):
        """Means of selected modes: arrays (X, P), each (len(times), k)."""
        times = np.asarray(times, dtype=float)
        rows = self.O[list(modes), :]
        k = rows.shape[0]
        nu, y0, pi0 = self.nu, self._y0, self._pi0
        # x = Re(z a) and p = Re(z i nu a) with a = y0 - i pi0 / nu; a
        # zero mode keeps its exact limit x = y0 + pi0 t, p = pi0
        moving = nu != 0
        a = y0 - 1j * pi0 / np.where(moving, nu, 1.0)
        a[~moving] = y0[~moving]
        coef = np.concatenate([rows.T * a[:, None], rows.T * (pi0 + 1j * nu * y0)[:, None]], 1)
        drift = rows[:, ~moving] @ pi0[~moving]
        X = np.empty((times.size, k))
        P = np.empty_like(X)
        for block, t, z in phasor_blocks(self.nu, times):
            out = (z @ coef).real
            X[block] = out[:, :k] + t[:, None] * drift
            P[block] = out[:, k:]
        return X, P

    def covariance_series(self, times, modes=(0, 1)):
        """Covariance of selected modes at each time: (len(times), 2k, 2k)
        in (x..., p...) ordering."""
        times = np.asarray(times, dtype=float)
        rows = self.O[list(modes), :]
        k = rows.shape[0]
        N = self.n_modes
        Sigma0 = np.block([[self._Syy, self._Syp], [self._Syp.T, self._Spp]])
        out = np.empty((times.size, 2 * k, 2 * k))
        for block, t, z in phasor_blocks(self.nu, times):
            cos_, sinc_, nusin = phasor_trig(self.nu, t[:, None], z)
            B = np.empty((t.size, 2 * k, 2 * N))
            B[:, :k, :N] = cos_[:, None, :] * rows[None, :, :]
            B[:, :k, N:] = sinc_[:, None, :] * rows[None, :, :]
            B[:, k:, :N] = -nusin[:, None, :] * rows[None, :, :]
            B[:, k:, N:] = cos_[:, None, :] * rows[None, :, :]
            flat = B.reshape(-1, 2 * N)
            M1 = (flat @ Sigma0).reshape(B.shape)
            blk = np.einsum("tia,tja->tij", M1, B)
            out[block] = 0.5 * (blk + np.swapaxes(blk, 1, 2))
        return out

    def state_at(self, t: float) -> GaussianState:
        """Full composite Gaussian state at time t (O(N^3); use sparingly)."""
        c, d, e_ = mode_trig(self.nu, float(t))
        e = -e_
        y = c * self._y0 + d * self._pi0
        pi = e * self._y0 + c * self._pi0
        Syy, Syp, Spp = self._Syy, self._Syp, self._Spp

        def scaled(A, left, right):
            return left[:, None] * A * right[None, :]

        Syy_t = (
            scaled(Syy, c, c) + scaled(Syp, c, d) + scaled(Syp.T, d, c) + scaled(Spp, d, d)
        )
        Syp_t = (
            scaled(Syy, c, e) + scaled(Syp, c, c) + scaled(Syp.T, d, e) + scaled(Spp, d, c)
        )
        Spp_t = (
            scaled(Syy, e, e) + scaled(Syp, e, c) + scaled(Syp.T, c, e) + scaled(Spp, c, c)
        )
        O = self.O
        N = self.n_modes
        mean = np.concatenate([O @ y, O @ pi])
        cov = np.empty((2 * N, 2 * N))
        cov[:N, :N] = O @ Syy_t @ O.T
        cov[:N, N:] = O @ Syp_t @ O.T
        cov[N:, :N] = cov[:N, N:].T
        cov[N:, N:] = O @ Spp_t @ O.T
        return GaussianState(mean, cov)
