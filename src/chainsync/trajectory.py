"""Exact trajectory evaluation in the normal-mode picture.

Stepping the full 2N x 2N covariance through a symplectic map costs
O(N^3) per output sample, which is wasteful when only the two probe modes
are observed.  This engine reads the normal modes of the potential from
``qf.modes``, the form's one eigensolve, after ``lattice.check_stability``
has read the smallest eigenvalue off the same solve (an unstable form
raises there); the engine keeps it as ``min_eigenvalue``.  For a form
from ``lattice.assemble_full_potential`` that solve is O(N^2)
(``lattice.CompositeModes``), no entry of V is read (the form names the
sites it couples the probes to, ``qf.coupled_sites``), and the modes O
are read only as products: the rows of O at those sites, the initial
mean in normal coordinates, and B^T O U for the covariance basis below.
No N x N array of modes is formed unless ``state_at`` or the whole-space
basis asks for O itself.  The engine then evaluates probe means and
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
``dynamics.ProductState`` (local probe states times the chain vacuum)
Delta moves only through the probe rows, so it lies on the resolvent
vectors (V + s^2)^{-1} e_site; a basis Q of them is built on the first
covariance read and kept while a convergence test of its shift grid,
the midpoint leak, passes, in O(N r k).  H in Delta = Q H Q^T is formed
in the state's local basis B = diag(I_2, O_chain) (site coordinates
s = B l), where its covariance C = B^T Sigma0 B is diagonal, from
B^T O U, which the composite modes give as W U in O(N^2 r), so Sigma0 is
never formed.  A grid whose leak fails is refined once, by its
geometric midpoints, before the engine takes the whole space.  A
``GaussianState`` is arbitrary and always takes the whole space (Q = I),
at O(N^3) once and O(N^2) per sample.  A reader of means alone never
touches B or C.
The covariances are then the constant probe block of Sigma_g plus
V H V^T, with V the probe trajectories of Q's 2r columns, O(N r) per
sample.  ``state_at`` uses the same split with the full map
``dynamics.phase_map``.  Results equal repeated application of
propagator maps to round-off; tests cover the equivalence, including
off-grid times and mixed states.
Like ``dynamics.propagator``, the engine accepts stable forms only, so
every normal frequency is positive.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .dynamics import (
    GaussianState, ProductState, phase_map, phasor_sum_blocks, phasor_sums, symmetrize
)
from .lattice import ChainForm, QuadraticForm, check_stability

# shifts s^2 of the resolvent basis.  Delta's x and p blocks are
# differences of V^{-1/2} and V^{1/2} at two forms that differ on the probe
# rows (Delta's own sites); the Stieltjes integral over s of
# (V + s^2)^{-1} turns each into a continuum of resolvent vectors
# (V + s^2)^{-1} e_site, which a geometric grid of shifts samples with an
# error falling by a fixed factor per shift (Beckermann, Kressner &
# Schweitzer, SIAM J. Matrix Anal. Appl. 39 (2018) 539).  On the presets,
# whose (nu_max / nu_min)^2 is about 31, 16 to 18 shifts reproduce Delta
# to round-off.  With 32, _LEAK_GAIN keeps the basis for omega0 down to
# 0.05 at M = 60 and M = 2000 and down to 0.1 at M = 300 (g = 1.2, spreads
# of about 850, 1,800 and 475).  Below that the grid is refined once to
# its 63 shifts and geometric midpoints, whose leak reads at most 0.02
# N^2 eps for omega0 down to 0.002 at M = 60, 300 and 2000 (bases of 52 to
# 94 columns); only a refined grid that still leaks takes the whole space.
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
# the resolvent basis is kept while its midpoint leak is at most
# _LEAK_GAIN N^2 eps.  The leak is the largest distance from span(U) of a
# unit resolvent column at the geometric midpoint of two neighbouring
# shifts, where the continuum above is farthest from the grid, so it is a
# convergence test of the grid, in O(N r k).  What it has to stand for is
# the exact residual ||Delta - Q H Q^T||_F against Delta's own round-off,
# 2 N^{3/2} eps ||Sigma0||_F (``tests/oracles.py``).  On the presets at
# M = 20 to 2000 and 6 to 32 shifts that residual is at most about
# 2e-2 leak N^{-1/2} ||Sigma0||_F: per unit of leak it falls as N^{-1/2}
# while the round-off grows as N^{3/2}, so the leak at the bound grows as
# N^2.  Every basis the exact check rejected had a leak of at least
# 127 N^2 eps (fig3, M = 2000, 12 shifts); at 32 shifts the presets read
# 0.06-0.36 N^2 eps for M <= 6 and 8e-5 N^2 eps at M = 2000.  The gain 10
# keeps an order of magnitude from both.
_LEAK_GAIN = 10.0
# rows per tile of ``state_at``, so no second 2N x 2N array is formed
_ROWS = 256


class NormalModeTrajectory:
    """Closed-system trajectory of a Gaussian state under a stable
    quadratic form.

    ``state`` is a ``GaussianState`` or a ``dynamics.ProductState``.  Its
    mean is read when the engine is built, and its covariance C on the
    first covariance read (``covariance_series``, ``covariance_basis`` or
    ``state_at``); it is kept by reference and must not change in place.
    A ProductState is O(N) vectors and its network's config, so the chain
    modes of its basis B exist only during that first read."""

    def __init__(self, qf: ChainForm | QuadraticForm, state: GaussianState | ProductState):
        if state.n_modes != qf.dim:
            raise ValueError("state and potential dimensions differ")
        self.min_eigenvalue, self._modes = check_stability(qf), qf.modes
        self.nu = np.sqrt(self._modes.values)
        N = qf.dim
        # the rows of O at the probes and the sites the form couples them
        # to, and the initial mean in normal coordinates, from one product
        sites = qf.coupled_sites
        R = np.zeros((len(sites) + 2, N))
        R[np.arange(len(sites)), sites] = 1.0
        R[-2:] = state.mean.reshape(2, N)
        rows = self._modes.left(R)
        self._site_rows, self._y0, self._pi0 = rows[:-2], rows[-2], rows[-1]
        self._state = state

    @property
    def O(self) -> np.ndarray:
        """The normal modes in site coordinates, V = O diag(nu^2) O^T: an
        N x N array formed on first use, which only ``state_at`` and the
        whole-space basis read."""
        return self._modes.dense

    @property
    def n_modes(self) -> int:
        return self.nu.size

    def _probe_coef(self, Y, P):
        """Coefficients of ``phasor_sums`` for the probe trajectories
        (x1, x2, p1, p2) started at each column of the normal-coordinate
        moments (Y; P): (N, 4 * columns), grouped by probe coordinate."""
        rows, nu = self._site_rows[:2].T[:, :, None], self.nu[:, None]
        # x = Re(z a) and p = Re(z (pi + i nu y)) with a = y - i pi / nu
        a = Y - 1j * P / nu
        coef = np.concatenate([rows * a[:, None], rows * (P + 1j * nu * Y)[:, None]], 1)
        return coef.reshape(nu.size, -1)

    def mean_series(self, times):
        """Means of the two probes: arrays (X, P), each (len(times), 2)."""
        out = phasor_sums(self.nu, times, self._probe_coef(self._y0[:, None], self._pi0[:, None]))
        return out[:, :2], out[:, 2:]

    def _resolvent_basis(self, refined: bool = False):
        """(U, leak): orthonormal U (N x r) spanning the normal-coordinate
        site vectors O[sites]^T and diag(1 / (nu^2 + s^2)) O[sites]^T at
        the _SHIFTS shifts, or with ``refined`` at those and their
        geometric midpoints, from one thin SVD, and the midpoint leak, the
        largest norm of (I - U U^T) a over the unit resolvent columns a at
        the geometric midpoints of the shifts, in O(N r k)."""
        nu2 = self.nu**2
        R = self._site_rows.T
        count = 2 * _SHIFTS - 1 if refined else _SHIFTS
        shifts = np.geomspace(nu2.min() / _SHIFT_MARGIN, _SHIFT_MARGIN * nu2.max(), count)
        A = np.concatenate([R, *(R / (nu2 + s)[:, None] for s in shifts)], 1)
        A /= np.linalg.norm(A, axis=0)
        U, sv, _ = np.linalg.svd(A, full_matrices=False)
        U = U[:, sv > _BASIS_CUT * sv[0]]
        mid = np.concatenate([R / (nu2 + s)[:, None] for s in np.sqrt(shifts[:-1] * shifts[1:])], 1)
        mid /= np.linalg.norm(mid, axis=0)
        return U, float(np.linalg.norm(mid - U @ (U.T @ mid), axis=0).max())

    @staticmethod
    def _ground_block(A, g) -> np.ndarray:
        """A diag(g) A^T as G G^T with G = A diag(sqrt(g)): numpy takes an
        array times its own transpose as one symmetric rank-N update, half
        the work of (A g) A^T.  For A = O and g = 1/2nu or nu/2 it is the x
        or p block of the coupled ground state Sigma_g in site
        coordinates."""
        G = A * np.sqrt(g)
        return G @ G.T

    @cached_property
    def _moving_part(self):
        """(U, H, basis, leak) with Delta = Q H Q^T for Q = diag(U, U).

        A ``ProductState`` keeps the resolvent basis U (``basis`` = 2r)
        while its midpoint ``leak`` is at most _LEAK_GAIN N^2 eps, trying
        the refined grid of 2 _SHIFTS - 1 shifts before it takes the whole
        space (U = I, ``basis`` = ``"full"``); H comes from B^T O U, which
        an assembled form's modes give without forming O, in O(N^2 r).
        A ``GaussianState`` always takes the whole space, with a nan
        ``leak``: the leak does not depend on the state, and only the
        product structure puts Delta on the resolvent vectors."""
        nu, state = self.nu, self._state
        N = nu.size
        if isinstance(state, GaussianState):
            U, leak, full, Y = np.eye(N), np.nan, True, self.O
            C = [state.cov[:N, :N], state.cov[:N, N:], state.cov[N:, N:]]
        else:
            bound = _LEAK_GAIN * N**2 * np.finfo(float).eps
            U, leak = self._resolvent_basis()
            if leak > bound:
                U, leak = self._resolvent_basis(refined=True)
            full = leak > bound
            if full:
                U = np.eye(N)
            Y = self._modes.local_product(U, state.network)
            C = [state.var_x, state.cov_xp, state.var_p]
        H = [
            ((Y.T @ S if S.ndim == 2 else Y.T * S) @ Y) - (0.0 if g is None else (U.T * g) @ U)
            for S, g in zip(C, (0.5 / nu, None, 0.5 * nu))
        ]
        basis = "full" if full else 2 * U.shape[1]
        return U, np.block([[H[0], H[1]], [H[1].T, H[2]]]), basis, leak

    @property
    def covariance_basis(self):
        """Dimension 2r of the basis Q of the moving part, or ``"full"``
        when Q is the whole space: always for a ``GaussianState``, and for
        a ``ProductState`` whose midpoint leak exceeds _LEAK_GAIN N^2 eps."""
        return self._moving_part[2]

    @property
    def covariance_leak(self) -> float:
        """Midpoint leak of the resolvent basis (see _LEAK_GAIN): how close
        the first covariance read came to the whole-space fallback; nan
        for a ``GaussianState``, which tries no resolvent basis."""
        return self._moving_part[3]

    def covariance_series(self, times):
        """Covariance of the two probes at each time: (len(times), 4, 4) in
        (x1, x2, p1, p2) ordering.  It is the probe block of the stationary
        ground state plus V H V^T, with V the probe trajectories of the
        2r columns of the moving part's basis Q = diag(U, U), evaluated one
        block of times at a time.  On the whole-space basis this costs
        O(N^2) per sample, like the dense product B Sigma0 B^T."""
        times = np.asarray(times, dtype=float)
        U, H = self._moving_part[:2]
        rows, nu = self._site_rows[:2], self.nu
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
        On a resolvent basis P is 2N x 2r and the ground state's two N x N
        products set the O(N^3) cost; on the whole space (every
        ``GaussianState``) P is 2N x 2N and P H P^T costs several times more."""
        nu, O = self.nu, self.O
        N = nu.size
        U, H = self._moving_part[:2]
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
