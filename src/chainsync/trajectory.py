"""Exact trajectory evaluation in the normal-mode picture.

Stepping the full 2N x 2N covariance through a symplectic map costs
O(N^3) per output sample, which is wasteful when only the two probe modes
are observed.  This engine diagonalizes the potential once with
``dynamics.spectrum``, which also checks stability and leaves the smallest
eigenvalue on the engine as ``min_eigenvalue``.  It rotates the initial
moments into normal coordinates and then evaluates probe means and
probe-block covariances at arbitrary times directly.

Per-sample cost.  Times are taken in blocks: on a uniform grid a block's
phasors z = exp(i nu t) are the cached exp(i nu k h) rotated by the
exactly computed phasor of its first time, so no cos or sin is evaluated
per sample and the phase error does not accumulate across blocks.  Means
of the two probes are ``dynamics.phasor_sums``, as are the memory kernels
of ``modes.damping_kernels``: the rotation moves onto the (N x 4)
coefficients, so a group of blocks is one real (block x 2N) @ (2N x
group*4) product, O(N) per sample, and z is never formed.  Covariances
take the two probe rows B of ``dynamics.phase_map``, the map from normal
to site coordinates that ``dynamics.propagator`` and ``state_at`` also
use, at the phasors of ``dynamics.phasor_blocks``, and keep the O(N^2)
per-sample B Sigma0 B^T product, which dominates them.  Results equal
repeated application of propagator maps to round-off; tests cover the
equivalence, including off-grid times.
Like ``dynamics.propagator``, the engine accepts stable forms only, so
every normal frequency is positive.
"""

from __future__ import annotations

import numpy as np

from .dynamics import (
    GaussianState, SymplecticMap, evolve, phase_map, phasor_blocks, phasor_sums, spectrum
)
from .lattice import QuadraticForm


class NormalModeTrajectory:
    """Closed-system trajectory of a Gaussian state under a stable
    quadratic form."""

    def __init__(self, qf: QuadraticForm, state: GaussianState):
        if state.n_modes != qf.dim:
            raise ValueError("state and potential dimensions differ")
        self.nu, self.O, self.min_eigenvalue = spectrum(qf)
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

    def mean_series(self, times):
        """Means of the two probes: arrays (X, P), each (len(times), 2)."""
        rows = self.O[:2]
        nu, y0, pi0 = self.nu, self._y0, self._pi0
        # x = Re(z a) and p = Re(z i nu a) with a = y0 - i pi0 / nu
        a = y0 - 1j * pi0 / nu
        coef = np.concatenate([rows.T * a[:, None], rows.T * (pi0 + 1j * nu * y0)[:, None]], 1)
        out = phasor_sums(nu, times, coef)
        return out[:, :2], out[:, 2:]

    def _normal_cov(self) -> np.ndarray:
        """Initial covariance of the normal coordinates (y, pi), 2N x 2N."""
        return np.block([[self._Syy, self._Syp], [self._Syp.T, self._Spp]])

    def covariance_series(self, times):
        """Covariance of the two probes at each time: (len(times), 4, 4) in
        (x1, x2, p1, p2) ordering."""
        times = np.asarray(times, dtype=float)
        rows = self.O[:2]
        Sigma0 = self._normal_cov()
        out = np.empty((times.size, 4, 4))
        for block, z in phasor_blocks(self.nu, times):
            B = phase_map(rows, self.nu, z)
            M1 = (B.reshape(-1, Sigma0.shape[0]) @ Sigma0).reshape(B.shape)
            blk = np.einsum("tia,tja->tij", M1, B)
            out[block] = 0.5 * (blk + np.swapaxes(blk, 1, 2))
        return out

    def state_at(self, t: float) -> GaussianState:
        """Full composite Gaussian state at time t: the normal-coordinate
        initial state pushed through the full map ``phase_map``, at the cost
        of two dense (2N)^3 products."""
        nu = self.nu
        normal = GaussianState(np.concatenate([self._y0, self._pi0]), self._normal_cov())
        return evolve(normal, SymplecticMap(phase_map(self.O, nu, np.exp(1j * (nu * float(t))))))
