"""Exact trajectory evaluation in the normal-mode picture.

Stepping the full 2N x 2N covariance through a symplectic map costs
O(N^3) per output sample, which is wasteful when only the two probe modes
are observed.  This engine diagonalizes the potential once with
``dynamics.spectrum``, which also checks stability and leaves the smallest
eigenvalue on the engine as ``min_eigenvalue``.  It rotates the initial
mean into normal coordinates and then evaluates probe means and
probe-block covariances at arbitrary times directly.

Per-sample cost.  Times are taken in blocks: on a uniform grid a block's
phasors z = exp(i nu t) are the cached exp(i nu k h) rotated by the
exactly computed phasor of its first time, so no cos or sin is evaluated
per sample and the phase error does not accumulate across blocks.  Probe
trajectories are ``dynamics.phasor_sum_blocks`` (``phasor_sums`` in array
form), as are the memory kernels of ``modes.damping_kernels``: the
rotation moves onto the (N x C) coefficients, so a group of blocks is
one real matrix product, O(N C) per sample, and z is never formed.
Means are the trajectory of the initial mean.  Covariances split the
initial covariance Sigma0 into the coupled ground state Sigma_g, which
is stationary, and the part Delta = Sigma0 - Sigma_g that moves.  For a
product of local probe states and the chain vacuum, Delta is numerically
low-rank, and a deterministic resolvent basis Q with Delta = Q H Q^T to
round-off is built once per engine, on the first covariance read.  H
and the check of the residual are formed in the initial state's local
basis B (site coordinates s = B l), where its covariance C = B^T Sigma0 B
is given, through W^T U with W^T = B^T O: O(N^2 r) plus the two
symmetric rank-N updates of the ground state (W^T sqrt(g))(W^T sqrt(g))^T.
A ``dynamics.ProductState`` has B = diag(I_2, O_chain) and a diagonal C,
so Sigma0 is never formed, and W^T costs one chain-sized product; a
``GaussianState`` has B = I, C = Sigma0 and W^T = O.  A reader of means
alone never touches B or C.
The covariances are then the constant probe block of Sigma_g plus
V H V^T, with V the probe trajectories of Q's 2r columns, O(N r) per
sample.  Any other state takes the whole space as its basis (Q = I,
H = Delta) through the same formula.  ``state_at`` uses the same split
with the full map ``dynamics.phase_map``.  Results equal repeated
application of propagator maps to round-off; tests cover the
equivalence, including off-grid times and mixed states.
Like ``dynamics.propagator``, the engine accepts stable forms only, so
every normal frequency is positive.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .dynamics import (
    GaussianState, ProductState, phase_map, phasor_sum_blocks, phasor_sums, spectrum, symmetrize
)
from .lattice import QuadraticForm

# shifts s^2 of the resolvent basis.  Delta's x and p blocks are
# differences of V^{-1/2} and V^{1/2} at two forms that differ on the probe
# rows (Delta's own sites); the Stieltjes integral over s of
# (V + s^2)^{-1} turns each into a continuum of resolvent vectors
# (V + s^2)^{-1} e_site, which a geometric grid of shifts samples with an
# error falling by a fixed factor per shift (Beckermann, Kressner &
# Schweitzer, SIAM J. Matrix Anal. Appl. 39 (2018) 539).  On the presets,
# whose (nu_max / nu_min)^2 is about 31, 16 shifts reach round-off
# (12 leave 2e-11 of Sigma0); 32 cover a spectrum whose spread in
# ln(nu^2) is about twice as wide before the check below forces the whole
# space.
_SHIFTS = 32
# the grid runs two decades past the spectrum at both ends; beyond it the
# resolvent is its series in s^2 / nu^2 or nu^2 / s^2, whose leading terms
# the end shifts and the bare site vectors already span
_SHIFT_MARGIN = 100.0
# singular values of the column-normalized block kept relative to the
# largest: the columns are unit vectors, so a direction below about
# eps * sqrt(columns) ~ 2e-15 is their cancellation to round-off and
# carries no part of Delta; 1e-14 keeps a few ulps above that
_BASIS_CUT = 1e-14
# rows per tile of the residual check and of ``state_at``, so no second
# N x N (or 2N x 2N) array is formed
_ROWS = 256


class NormalModeTrajectory:
    """Closed-system trajectory of a Gaussian state under a stable
    quadratic form.

    ``state`` is a ``GaussianState`` or a ``dynamics.ProductState``.  Its
    mean is read when the engine is built.  The state itself, with its
    covariance C and, for a ProductState, its chain modes B, is kept by
    reference until the first covariance read (``covariance_series``,
    ``covariance_basis`` or ``state_at``), which reads it once and
    releases it; it must not change in place before then."""

    def __init__(self, qf: QuadraticForm, state: GaussianState | ProductState):
        if state.n_modes != qf.dim:
            raise ValueError("state and potential dimensions differ")
        self.nu, self.O, self.min_eigenvalue = spectrum(qf)
        N = qf.dim
        # the probes and the sites the form couples them to
        self._sites = np.flatnonzero(np.any(qf.V[:2] != 0.0, axis=0))
        self._y0 = self.O.T @ state.mean[:N]
        self._pi0 = self.O.T @ state.mean[N:]
        # read on the first covariance read only, by ``_moving_part``
        self._state = state

    @property
    def n_modes(self) -> int:
        return self.nu.size

    def _probe_coef(self, Y, P):
        """Coefficients of ``phasor_sums`` for the probe trajectories
        (x1, x2, p1, p2) started at each column of the normal-coordinate
        moments (Y; P): (N, 4 * columns), grouped by probe coordinate."""
        rows, nu = self.O[:2].T[:, :, None], self.nu[:, None]
        # x = Re(z a) and p = Re(z (pi + i nu y)) with a = y - i pi / nu
        a = Y - 1j * P / nu
        coef = np.concatenate([rows * a[:, None], rows * (P + 1j * nu * Y)[:, None]], 1)
        return coef.reshape(nu.size, -1)

    def mean_series(self, times):
        """Means of the two probes: arrays (X, P), each (len(times), 2)."""
        out = phasor_sums(self.nu, times, self._probe_coef(self._y0[:, None], self._pi0[:, None]))
        return out[:, :2], out[:, 2:]

    def _resolvent_basis(self) -> np.ndarray:
        """Orthonormal U (N x r) spanning the normal-coordinate site
        vectors O[sites]^T and diag(1 / (nu^2 + s^2)) O[sites]^T at the
        _SHIFTS shifts, from one thin SVD."""
        nu2 = self.nu**2
        R = self.O[self._sites].T
        shifts = np.geomspace(nu2.min() / _SHIFT_MARGIN, _SHIFT_MARGIN * nu2.max(), _SHIFTS)
        A = np.concatenate([R, *(R / (nu2 + s)[:, None] for s in shifts)], 1)
        A /= np.linalg.norm(A, axis=0)
        U, sv, _ = np.linalg.svd(A, full_matrices=False)
        return U[:, sv > _BASIS_CUT * sv[0]]

    @staticmethod
    def _ground_block(A, g) -> np.ndarray:
        """A diag(g) A^T as G G^T with G = A diag(sqrt(g)): numpy takes an
        array times its own transpose as one symmetric rank-N update, half
        the work of (A g) A^T.  For A = O and g = 1/2nu or nu/2 it is the x
        or p block of the coupled ground state Sigma_g in site coordinates;
        for A = W^T = B^T O it is that block in the local basis B."""
        G = A * np.sqrt(g)
        return G @ G.T

    def _local_moments(self):
        """(W^T, blocks): W^T = B^T O for the initial state's local basis
        B, and the x, x-p and p blocks of its covariance C = B^T Sigma0 B,
        a diagonal block given as its diagonal.  A ``ProductState`` has
        B = diag(I_2, O_chain) and diagonal blocks, and W^T costs one
        (N - 2)^2 by (N - 2) x N product; a ``GaussianState`` has B = I, so
        W^T is O itself and C is Sigma0."""
        state, O = self._state, self.O
        N = O.shape[0]
        if isinstance(state, GaussianState):
            cov = state.cov
            return O, [cov[:N, :N], cov[:N, N:], cov[N:, N:]]
        Wt = np.empty_like(O)
        Wt[:2] = O[:2]
        np.matmul(state.chain_modes.T, O[2:], out=Wt[2:])
        return Wt, [state.var_x, state.cov_xp, state.var_p]

    @cached_property
    def _moving_part(self):
        """(U, H, basis) with Delta = Q H Q^T for Q = diag(U, U): U the
        resolvent basis where it reproduces Delta to round-off, and
        ``basis`` its dimension 2r; otherwise U is the identity, H = Delta
        and ``basis`` is ``"full"``.  H and the residual are formed in the
        initial state's local basis B through W^T U, W^T = B^T O, so Sigma0
        is neither formed nor rotated.  The state is read here once and
        released."""
        nu = self.nu
        N = nu.size
        Wt, C = self._local_moments()
        self._state = None
        blocks = list(zip(C, (0.5 / nu, None, 0.5 * nu)))

        def project(U):
            WU = Wt @ U
            return WU, [
                ((WU.T @ S if S.ndim == 2 else WU.T * S) @ WU)
                - (0.0 if g is None else (U.T * g) @ U)
                for S, g in blocks
            ]

        U = self._resolvent_basis()
        WU, H = project(U)
        # ||Delta - Q H Q^T||_F and ||Sigma0||_F, both invariant under the
        # orthogonal B and O, one tile of rows at a time in the basis B (the
        # x-p block counts twice)
        resid = norm = 0.0
        for (S, g), h, w in zip(blocks, H, (1, 2, 1)):
            Sg = None if g is None else self._ground_block(Wt, g)
            for lo in range(0, N, _ROWS):
                rows = slice(lo, lo + _ROWS)
                # C's rows; a diagonal block's tile is formed from its diagonal
                T = S[rows] if S.ndim == 2 else np.eye(S[rows].size, N, lo) * S[rows, None]
                R = T - (WU[rows] @ h) @ WU.T
                if Sg is not None:
                    R -= Sg[rows]
                resid += w * np.einsum("ij,ij->", R, R)
                norm += w * np.einsum("ij,ij->", T, T)
        # C is exact to one rounding per entry, and ||C||_F = ||Sigma0||_F.
        # The round-off sits in the ground state G G^T, G = W^T diag(sqrt(g)):
        # W^T = B^T O and G G^T are each one product of N-term sums, the two
        # products that formed Sigma0's chain blocks and Sigma_g in site
        # coordinates.  Each is taken to be off by about gamma_N tr(Sigma) <=
        # N^{3/2} eps ||Sigma||_F in Frobenius norm (the trace of a positive
        # matrix is at most sqrt(N) times its Frobenius norm).  The chain
        # vacuum is near Sigma_g, so Delta is only known to
        # 2 N^{3/2} eps ||Sigma0||_F; a smaller residual is below that noise.
        # On the presets at M = 60 to 1000 it is 0.17-0.63 N eps ||Sigma0||_F
        # in the product basis and 0.18-0.51 in site coordinates (B = I).
        basis = 2 * U.shape[1]
        if np.sqrt(resid) > 2.0 * N**1.5 * np.finfo(float).eps * np.sqrt(norm):
            U, basis = np.eye(N), "full"
            _, H = project(U)
        return U, np.block([[H[0], H[1]], [H[1].T, H[2]]]), basis

    @property
    def covariance_basis(self):
        """Dimension 2r of the basis Q of the moving part, or ``"full"``
        when the resolvent basis does not reproduce it and Q is the whole
        space."""
        return self._moving_part[2]

    def covariance_series(self, times):
        """Covariance of the two probes at each time: (len(times), 4, 4) in
        (x1, x2, p1, p2) ordering.  It is the probe block of the stationary
        ground state plus V H V^T, with V the probe trajectories of the
        2r columns of the moving part's basis Q = diag(U, U), evaluated one
        block of times at a time.  On the whole-space basis this costs
        O(N^2) per sample, like the dense product B Sigma0 B^T."""
        times = np.asarray(times, dtype=float)
        U, H, _ = self._moving_part
        rows, nu = self.O[:2], self.nu
        out = np.zeros((times.size, 4, 4))
        out[:, :2, :2] = (rows / (2.0 * nu)) @ rows.T
        out[:, 2:, 2:] = (rows * (0.5 * nu)) @ rows.T
        Z = np.zeros_like(U)
        coef = self._probe_coef(np.hstack([U, Z]), np.hstack([Z, U]))
        for block, sums in phasor_sum_blocks(nu, times, coef):
            V = sums.reshape(sums.shape[0], 4, H.shape[0])
            blk = np.einsum("tia,tja->tij", V @ H, V)
            out[block] += 0.5 * (blk + np.swapaxes(blk, 1, 2))
        return out

    def state_at(self, t: float) -> GaussianState:
        """Full composite Gaussian state at time t: the ground state in site
        coordinates, O diag(1/2nu) O^T and O diag(nu/2) O^T, plus P H P^T
        with P = ``phase_map(O, nu, z)`` Q, built one tile of rows at a time.
        The ground state's two N x N products set the O(N^3) cost."""
        nu, O = self.nu, self.O
        N = nu.size
        U, H, _ = self._moving_part
        z = np.exp(1j * (nu * float(t)))
        m0 = np.concatenate([self._y0, self._pi0])
        mean = np.empty(2 * N)
        P = np.empty((2 * N, 2 * U.shape[1]))
        for lo in range(0, N, _ROWS):
            D = phase_map(O[lo : lo + _ROWS], nu, z)
            idx = np.r_[lo : lo + D.shape[0] // 2, N + lo : N + lo + D.shape[0] // 2]
            mean[idx] = D @ m0
            P[idx] = np.hstack([D[:, :N] @ U, D[:, N:] @ U])
        cov = np.zeros((2 * N, 2 * N))
        for part, g in ((slice(0, N), 0.5 / nu), (slice(N, 2 * N), 0.5 * nu)):
            cov[part, part] = self._ground_block(O, g)
        PH = P @ H
        for lo in range(0, 2 * N, _ROWS):
            cov[lo : lo + _ROWS] += PH[lo : lo + _ROWS] @ P.T
        return GaussianState(mean, symmetrize(cov))
