"""Quadratic Hamiltonian of two probe oscillators plugged into a finite
harmonic chain.

The composite system is H = 1/2 p^T p + 1/2 x^T V x with unit masses.
Mode ordering everywhere: probe 1, probe 2, then chain sites 1..M.  The
chain has fixed (Dirichlet) ends, so a homogeneous chain with on-site
frequency Omega_0 and stiffness g has the exact dispersion

    Omega_j^2 = Omega_0^2 + 4 g sin^2(pi j / (2 (M + 1))),   j = 1..M,

diagonalized by the orthogonal sine transform.

``assemble_full_potential`` returns a ``ChainForm``, the network and the
probes alone, the package's one kind of form: its modes come from the
chain's closed-form modes, and its dense V is formed only when an oracle
reads it.  A form given by a dense V and solved by one ``eigh`` is a test
oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InstabilityError, ZeroModeError

DEFAULT_STABILITY_TOL = 1e-10
# chain frequencies at or below this count as zero modes
_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class NetworkConfig:
    """Finite harmonic network acting as the environment.

    The default is the homogeneous chain with fixed ends.  An explicit
    ``coupling_matrix`` A (symmetric, zero diagonal, non-negative) replaces
    the chain with the free-floating network
    H_couple = 1/2 sum_{j<k} A_jk (X_j - X_k)^2.
    """

    M: int
    omega0: float
    g: float
    coupling_matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.M, self.omega0, self.g))) or self.M % 1:
            raise ValueError(f"M, omega0 and g must be finite and M whole, got {self}")
        object.__setattr__(self, "M", int(self.M))
        if self.M < 2:
            raise ValueError(f"need at least two chain sites, got M={self.M}")
        if self.omega0 < 0:
            raise ValueError(f"omega0 must be non-negative, got {self.omega0}")
        if self.g <= 0:
            raise ValueError(f"chain stiffness g must be positive, got {self.g}")
        A = self.coupling_matrix
        if A is not None:
            A = np.asarray(A, dtype=float)
            if A.shape != (self.M, self.M):
                raise ValueError(f"coupling_matrix must be {self.M}x{self.M}")
            if not np.allclose(A, A.T):
                raise ValueError("coupling_matrix must be symmetric")
            if np.any(np.diag(A) != 0.0):
                raise ValueError("coupling_matrix diagonal must be zero")
            if np.any(A < 0.0):
                raise ValueError("coupling_matrix entries must be non-negative")
            object.__setattr__(self, "coupling_matrix", A)

    @cached_property
    def _eigenmodes(self):
        """(omegas, O) of a custom network from one ``eigh``, formed on
        first use and kept for the config's lifetime; O is read-only."""
        evals, O = np.linalg.eigh(build_chain_potential(self))
        if np.any(evals < -_ZERO_TOL):
            raise ZeroModeError("custom network potential is not positive semidefinite")
        O.setflags(write=False)
        return np.sqrt(np.clip(evals, 0.0, None)), O


@dataclass(frozen=True)
class ProbePair:
    """The two detuned oscillators and how they attach to the network.

    Frequencies are in units of omega1 (so omega1 = 1 by convention),
    couplings lambda and K in units of omega1^2.  ``sign2 = -1`` flips the
    second probe's coupling term from attractive to repulsive.
    """

    omega2: float
    lam: float
    K: float
    site_m: int
    site_n: int
    omega1: float = 1.0
    sign2: int = 1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.omega1, self.omega2, self.lam, self.K))):
            raise ValueError(f"probe parameters must be finite, got {self}")
        if self.omega1 <= 0 or self.omega2 <= 0:
            raise ValueError("probe frequencies must be positive")
        if self.lam < 0:
            raise ValueError(f"lambda must be non-negative, got {self.lam}")
        if self.sign2 not in (1, -1):
            raise ValueError(f"sign2 must be +1 or -1, got {self.sign2}")
        # a whole-number site of any type indexes as an int; ``validate_sites``
        # rejects the rest
        for name, site in (("site_m", self.site_m), ("site_n", self.site_n)):
            object.__setattr__(self, name, int(site) if site % 1 == 0 else site)

    def validate_sites(self, M: int):
        for name, site in (("site_m", self.site_m), ("site_n", self.site_n)):
            if site % 1 != 0 or not 1 <= site <= M:
                raise ValueError(f"{name}={site} is not a whole number in [1, {M}]")


@dataclass(frozen=True)
class ChainForm:
    """The composite form of ``network`` with ``probes`` plugged in, held
    as those two alone, its one source of truth.

    Its potential V is (M+2) x (M+2); probes occupy rows 0 and 1, and
    chain site s (1-based) is row s + 1.  ``modes`` come from the chain's
    closed-form modes (``CompositeModes``) in O(N^2), and no entry of V is
    read on the run path: the dense V is formed on first use, only for
    the oracles (``dynamics.propagator``, ``dynamics.mean_energy``) and
    the tests.
    """

    network: NetworkConfig
    probes: ProbePair

    @property
    def dim(self) -> int:
        return self.network.M + 2

    @property
    def coupled_sites(self) -> list:
        """Rows 0 and 1 and, for K != 0, the rows of the plug sites."""
        p = self.probes
        return sorted({0, 1, 1 + p.site_m, 1 + p.site_n} if p.K != 0 else {0, 1})

    @cached_property
    def modes(self):
        """The form's normal modes, solved on first use and kept on the
        form, so ``check_stability`` and every engine share one solve."""
        return CompositeModes(self.network, self.probes)

    @cached_property
    def V(self) -> np.ndarray:
        """The dense potential matrix, formed on first use."""
        p = self.probes
        V = np.zeros((self.dim, self.dim))
        V[:2, :2] = [[p.omega1**2 + p.lam, -p.lam], [-p.lam, p.omega2**2 + p.lam]]
        V[2:, 2:] = build_chain_potential(self.network)
        V[[0, 1], [1 + p.site_m, 1 + p.site_n]] += (p.K, p.sign2 * p.K)
        V[2:, :2] = V[:2, 2:].T
        return V


def build_chain_potential(cfg: NetworkConfig) -> np.ndarray:
    """Potential matrix of the environment network alone (M x M)."""
    if cfg.coupling_matrix is not None:
        A = cfg.coupling_matrix
        V = np.diag(cfg.omega0**2 + A.sum(axis=1)) - A
        return 0.5 * (V + V.T)
    V, i = np.zeros((cfg.M, cfg.M)), np.arange(cfg.M)
    V[i, i] = cfg.omega0**2 + 2.0 * cfg.g
    V[i[:-1], i[1:]] = V[i[1:], i[:-1]] = -cfg.g
    return V


def chain_dispersion(cfg: NetworkConfig) -> np.ndarray:
    """Exact chain eigenfrequencies Omega_j, ascending (j = 1..M)."""
    if cfg.coupling_matrix is not None:
        raise ValueError("analytic dispersion only exists for the homogeneous chain")
    j = np.arange(1, cfg.M + 1)
    return np.sqrt(cfg.omega0**2 + 4.0 * cfg.g * np.sin(np.pi * j / (2 * (cfg.M + 1))) ** 2)


def chain_normal_modes(cfg: NetworkConfig | int, sites=None):
    """Chain frequencies and the orthogonal matrix of mode vectors.

    Returns ``(omegas, O)`` with ``V_chain = O diag(omegas^2) O^T`` and
    columns ordered by ascending frequency.  With ``sites`` (whole numbers,
    1-based), O holds only the rows of those sites, so ``sites=()`` gives
    the frequencies alone.  The homogeneous chain has the sine modes O_kj =
    sqrt(2/(M+1)) sin(pi k j / (M+1)), O(M) per row; a custom network
    takes its rows from one ``eigh``, kept on its config.  A bare site
    count M stands for the homogeneous chain, whose modes do not depend on
    Omega_0 or g, and ``omegas`` is then None: it serves the benchmark
    harness in ``perfbench/``, which passes ``spec.network.M``.
    """
    bare = not isinstance(cfg, NetworkConfig)
    M = int(cfg) if bare else cfg.M
    j = np.arange(1, M + 1)
    rows = j if sites is None else np.asarray(sites)
    if np.any((rows < 1) | (rows > M) | (rows % 1 != 0)):
        raise ValueError(f"chain sites {rows.tolist()} are not whole numbers in [1, {M}]")
    if bare or cfg.coupling_matrix is None:
        O = np.sqrt(2.0 / (M + 1)) * np.sin(np.pi * np.outer(rows, j) / (M + 1))
        if bare:
            return None, O
        omegas = chain_dispersion(cfg)
    else:
        omegas, O = cfg._eigenmodes
        O = O if sites is None else O[rows.astype(int) - 1]
    if np.any(omegas <= _ZERO_TOL):
        raise ZeroModeError(
            f"chain has a zero-frequency mode (min Omega = {omegas.min():.3e})"
        )
    return omegas, O


def max_group_velocity(cfg: NetworkConfig) -> float:
    """Largest group velocity d Omega / d k of the chain band.

    Used to estimate signal travel times: the first boundary echo returns
    near t = 2 M / v_g and edge-to-edge cross-talk starts near M / v_g.
    With Omega^2 = a + b sin^2(k/2), a = Omega_0^2 and b = 4 g, the exact
    maximum is v^2 = 4 g^2 / ((1 + sqrt(a/(a+b))) (a + sqrt(a^2+ab) + b)),
    which is g at Omega_0 = 0.
    """
    a, b = cfg.omega0**2, 4.0 * cfg.g
    v2 = 4.0 * cfg.g**2 / ((1.0 + np.sqrt(a / (a + b))) * (a + np.sqrt(a * a + a * b) + b))
    return float(np.sqrt(v2))


def revival_time(cfg: NetworkConfig) -> float:
    """Nominal boundary-echo time 2 M (units of 1/omega1)."""
    return 2.0 * cfg.M


def assemble_full_potential(cfg: NetworkConfig, probes: ProbePair) -> ChainForm:
    """The composite form of probes + network with bilinear plugging
    terms, as its parameters; no N x N array is formed.

    The probe-chain coupling K x X enters without a counter-term, so large
    K can destabilize the composite form; see ``check_stability``.
    """
    probes.validate_sites(cfg.M)
    return ChainForm(cfg, probes)


def check_stability(qf: ChainForm) -> float:
    """Smallest eigenvalue of V, read off the form's modes ``qf.modes``
    (kept on the form, so the check and every engine on it share one
    solve); raises InstabilityError unless it is above
    DEFAULT_STABILITY_TOL, which separates genuine zero modes from
    round-off, so a nan eigenvalue raises too.  Any object with ``modes``
    is checked the same way, as the tests' dense oracle form is."""
    min_eig = float(qf.modes.values[0])
    if not min_eig > DEFAULT_STABILITY_TOL:
        raise InstabilityError(min_eig, DEFAULT_STABILITY_TOL)
    return min_eig


# entries per chunk of a secular solve or a Cauchy product, so that a
# chunk's temporaries stay in cache
_CHUNK = 1 << 17
# passes of a root iteration, of which the rational steps below take about 4;
# a root still live after them raises
_PASSES = 60
_EPS = np.finfo(float).eps


def _chunks(n: int, width: int):
    """Slices of range(n) with at most _CHUNK / width entries each."""
    step = max(1, _CHUNK // max(width, 1))
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def _secular_roots(alpha, z2, d):
    """Roots of F(x) = x - alpha + sum_j z2_j / (d_j - x) for d strictly
    ascending and z2 > 0: one below d_0, one in each gap and one above
    d_-1.  Each root is returned as base + tau, base its nearer pole, so
    that x - d_j = (base - d_j) + tau keeps its relative accuracy.

    A chunk of roots is solved at once.  The first pass evaluates F at
    the midpoint of each root's bracket, which picks the nearer pole.
    Each pass then models F by the two poles around the root (the fixed
    weight method of Li, LAPACK Working Note 89, 1994): the nearer pole
    with its own weight, the other with the weight that matches F's
    derivative, and a constant that matches its value; the model's root is
    one quadratic in the step from the iterate.  An edge root's outer pole
    is placed at twice its Weyl bound, min(alpha, d_0) - |z| or max(alpha,
    d_-1) + |z|, and stands for F's linear term.  A root is done once the
    step and the Newton step F / F' are both below 1e-9 of tau (the steps
    converge quadratically), once F is zero to its rounding error, or once
    its bracket is a few ulps wide.  A step that leaves the bracket the
    signs of F have left, or stays put short of the root, bisects it; a
    root still live after ``_PASSES`` raises LinAlgError."""
    n = d.size
    if n == 0:
        return np.array([float(alpha)]), np.zeros(1)
    span = math.sqrt(float(z2.sum()))
    outer = 2.0 * (d[0] - min(alpha, d[0]) + span), 2.0 * (max(alpha, d[-1]) + span - d[-1])
    base, tau = np.empty(n + 1), np.empty(n + 1)
    # each pass writes its d - d[org] rows into this one buffer
    buf = np.empty(min(n + 1, max(1, _CHUNK // n)) * n)
    for chunk in _chunks(n + 1, n):
        k = np.arange(chunk.start, chunk.stop)
        org, upper = np.clip(k - 1, 0, n - 1), np.minimum(k, n - 1)
        left = np.where(k > 0, d[org], d[0] - outer[0])
        right = np.where(k < n, d[upper], d[-1] + outer[1])
        z2l, z2r, inner = z2[org], z2[upper], (k > 0) & (k < n)
        # brackets relative to the origin d[org]
        lo = np.where(k == 0, -0.5 * outer[0], 0.0)
        hi = np.where(k == 0, 0.0, np.where(k == n, 0.5 * outer[1], right - left))
        t = 0.5 * (lo + hi)
        live = np.ones(k.size, bool)
        last = np.zeros(k.size)  # F of the last pass
        for first in [True] + [False] * (_PASSES - 1):
            a = np.flatnonzero(live)
            if a.size == 0:
                break
            ta = t[a]
            inv = np.subtract(d, d[org[a], None], out=buf[: a.size * n].reshape(a.size, n))
            inv -= ta[:, None]
            np.reciprocal(inv, out=inv)
            psi = inv @ z2
            inv *= inv
            dF = 1.0 + inv @ z2
            F = (d[org[a]] - alpha) + ta + psi
            if first:
                # a root above its gap's midpoint takes the upper pole
                up = inner[a] & (F < 0)
                gap = (right - left)[a]
                org[a] += up
                ta = np.where(up, ta - gap, ta)
                lo[a] = np.where(up, -gap, lo[a])
                hi[a] = np.where(up, 0.0, hi[a])
            lo[a] = np.where(F < 0, ta, lo[a])
            hi[a] = np.where(F > 0, ta, hi[a])
            o = org[a]
            # the iterate's distances to the poles around the root, and the
            # model c + s / (dl - eta) + S / (dr - eta) in the step eta
            dl, dr = (left[a] - d[o]) - ta, (right[a] - d[o]) - ta
            near_l = o != k[a]
            s = np.where(near_l, z2l[a], (dF - z2r[a] / (dr * dr)) * dl * dl)
            S = np.where(near_l, (dF - z2l[a] / (dl * dl)) * dr * dr, z2r[a])
            c = F - s / dl - S / dr
            # its root solves c eta^2 - b eta + q = 0, whose b and q do not
            # cancel as eta -> 0: 2 q / (b + r) = (b - r) / (2 c), each taken
            # where it does not cancel (a zero denominator bisects)
            b, q = F * (dl + dr) - dl * dr * dF, F * dl * dr
            r = np.sqrt(np.abs(b * b - 4.0 * c * q))
            den = np.where(b > 0.0, b + r, 2.0 * c)
            eta = np.where(b > 0.0, 2.0 * q, b - r) / np.where(den == 0.0, np.nan, den)
            step = ta + eta
            stays = np.abs(eta) <= 1e-9 * np.abs(ta)
            done = stays & (np.abs(F) <= 1e-9 * np.abs(ta) * dF)
            # where a root stalls (its step stays, or F keeps its sign and falls
            # less than tenfold), F may be zero to its rounding error, 8 eps
            # times the sum of its terms' magnitudes (as in LAPACK's dlaed4)
            p, last[a] = F * last[a], F
            flat, w = F == 0.0, np.flatnonzero(~done & (stays | (p > 0.0) & (p < 10.0 * F * F)))
            if w.size:
                size = np.sqrt(inv[w]) @ z2 + np.abs(d[o[w]] - alpha) + np.abs(ta[w])
                flat[w] = np.abs(F[w]) <= 8.0 * _EPS * size
            # a last step may round past the bracket end it converged to
            step = np.where(done, np.clip(step, lo[a], hi[a]), step)
            bad = ~done & (stays | ~((step > lo[a]) & (step < hi[a])))
            step[bad] = 0.5 * (lo[a] + hi[a])[bad]
            t[a] = np.where(flat, ta, step)
            live[a] = ~done & ~flat & (hi[a] - lo[a] > 4.0 * _EPS * np.abs(step))
        if live.any():
            raise np.linalg.LinAlgError(f"secular roots did not converge in {_PASSES} passes")
        base[chunk], tau[chunk] = d[org], t
    return base, tau


class Arrowhead:
    """Eigenpairs of the symmetric arrowhead A = [[alpha, z^T], [z,
    diag(d)]], d ascending, in O(n^2) without forming an eigenvector
    matrix.

    Poles closer than the deflation tolerance tol = 8 eps ||A|| are first
    turned (Givens) so that one of them carries their border, and a pole
    whose border is at most tol is an eigenpair (d_j, e_j) as it stands.
    The other eigenvalues are the roots x of the secular equation
    (``_secular_roots``), with eigenvectors [1; zh / (x - d)] normalized,
    where zh is the border recomputed from the roots (Gu & Eisenstat,
    SIAM J. Matrix Anal. Appl. 16 (1995) 172), so the computed vectors
    are orthogonal to working accuracy.  ``values`` are ascending, and
    Q, the matrix of eigenvectors in that order, is applied by ``rmul``
    and ``mul`` a chunk of Cauchy entries at a time.
    """

    def __init__(self, alpha, z, d):
        z, d = np.asarray(z, dtype=float), np.asarray(d, dtype=float)
        # solved in units of a power of two near the largest entry, as
        # LAPACK's dstedc scales, so no norm or square overflows; every step
        # is homogeneous, so only ``values`` carry the unit back
        unit = math.frexp(max(abs(alpha), *(np.abs(v).max(initial=0.0) for v in (z, d))))[1]
        alpha, z, d = math.ldexp(alpha, -unit), np.ldexp(z, -unit), np.ldexp(d, -unit)
        tol = 8.0 * _EPS * max(abs(alpha), np.abs(d).max(initial=0.0), np.linalg.norm(z))
        # (a, c, s): coordinate a + 1 keeps the border r of a and a + 1
        self._turns = []
        for j in np.flatnonzero(np.diff(d) <= tol):
            r = math.hypot(z[j], z[j + 1])
            if r > 0.0:
                self._turns.append((j + 1, z[j + 1] / r, z[j] / r))
                z[j], z[j + 1] = 0.0, r
        live = np.abs(z) > tol
        self._live, self._dead = np.flatnonzero(live) + 1, np.flatnonzero(~live) + 1
        self._d = d[live]
        self._base, self._tau = _secular_roots(alpha, z[live] ** 2, self._d)
        zh = np.empty(self._d.size)
        # two temporaries per row, ratio and gaps, of one entry per root each
        for rows in _chunks(zh.size, 2 * (zh.size + 1)):
            zh[rows] = self._recomputed_border(rows)
        self._zh = np.copysign(zh, z[live])
        self._scale = np.empty(self._tau.size)
        for roots in _chunks(self._tau.size, zh.size):
            C = self._cauchy(roots)
            C *= C
            self._scale[roots] = 1.0 / np.sqrt(1.0 + C @ (self._zh * self._zh))
        values = np.concatenate([self._base + self._tau, d[self._dead - 1]])
        order = np.argsort(values, kind="stable")
        self.values = np.ldexp(values[order], unit)
        cols = np.empty_like(order)
        cols[order] = np.arange(order.size)
        self._root_cols, self._dead_cols = cols[: self._tau.size], cols[self._tau.size :]

    def _cauchy(self, roots):
        """1 / (x_l - d_j) for the roots l in the slice ``roots`` and every
        live pole j."""
        C = self._base[roots, None] - self._d
        C += self._tau[roots, None]
        return np.reciprocal(C, out=C)

    def _recomputed_border(self, rows):
        """|zh_j| for the live poles j in the slice ``rows``: zh_j^2 =
        -prod_l (x_l - d_j) / prod_(i != j) (d_i - d_j), as the product of
        the ratios (x_(i+1) - d_j) / (d_i - d_j), i != j, below 1 for i < j
        and above 1 for i > j, times -(x_0 - d_j) (x_(j+1) - d_j)."""
        d, r = self._d, np.arange(rows.stop - rows.start)
        j = r + rows.start
        ratio = self._base[1:] - d[j, None]
        ratio += self._tau[1:]
        ends = -ratio[r, j] * ((self._base[0] - d[j]) + self._tau[0])
        gaps = d - d[j, None]
        gaps[r, j] = ratio[r, j]
        ratio /= gaps
        return np.sqrt(ends * np.prod(ratio, axis=1))

    def _turn(self, A, forward: bool):
        """The Givens turns applied to the columns of A (``forward``: a row
        vector in A's coordinates to the turned ones) or, undone in
        reverse order, to its rows (coefficients in the turned coordinates
        back to A's); in place."""
        if forward:
            for a, c, s in self._turns:
                A[:, a], A[:, a + 1] = c * A[:, a] - s * A[:, a + 1], s * A[:, a] + c * A[:, a + 1]
        else:
            for a, c, s in reversed(self._turns):
                A[a], A[a + 1] = c * A[a] + s * A[a + 1], c * A[a + 1] - s * A[a]

    def rmul(self, R):
        """R Q for rows R (k x (n + 1)) in A's coordinates."""
        R = np.array(R, dtype=float, ndmin=2)
        self._turn(R, True)
        out = np.empty(R.shape)
        out[:, self._dead_cols] = R[:, self._dead]
        head, Rz = R[:, :1], R[:, self._live] * self._zh
        for roots in _chunks(self._tau.size, self._d.size):
            out[:, self._root_cols[roots]] = (head + Rz @ self._cauchy(roots).T) * self._scale[roots]
        return out

    def mul(self, X):
        """Q X for X ((n + 1) x c), rows in the order of ``values``."""
        X = np.asarray(X, dtype=float)
        Xr = X[self._root_cols] * self._scale[:, None]
        Y = np.empty(X.shape)
        Y[0] = Xr.sum(axis=0)
        Y[self._dead] = X[self._dead_cols]
        for poles in _chunks(self._d.size, self._tau.size):
            C = self._d[poles, None] - self._base
            C -= self._tau
            np.negative(np.reciprocal(C, out=C), out=C)
            Y[self._live[poles]] = self._zh[poles, None] * (C @ Xr)
        self._turn(Y, False)
        return Y


def _to_local(Y, network: NetworkConfig):
    """B^T Y for B = diag(I_2, O_chain) of ``network``; in place."""
    Y[2:] = chain_normal_modes(network)[1].T @ Y[2:]
    return Y


class CompositeModes:
    """Normal modes of an assembled form from the chain's closed-form
    modes and two nested arrowheads, in O(N^2).

    In the local basis B = diag(I_2, O_chain), B^T V B is diag(Omega^2)
    with a border row for each probe.  Probe 1 bordering diag(Omega^2) is
    one arrowhead; probe 2 bordering its eigenvalues, with its border
    turned into that arrowhead's eigenvectors, is the second.  The
    eigenvectors W of B^T V B (O = B W) are never formed on the run path:
    ``left`` gives rows R O and ``local_product`` B^T O U = W U from
    chunked Cauchy products, O(N^2) per row or column.  ``dense`` forms
    O on first use, in O(N^3)."""

    def __init__(self, network: NetworkConfig, probes: ProbePair):
        p, self.network = probes, network
        omegas, rows = chain_normal_modes(network, (p.site_m, p.site_n))
        self._inner = Arrowhead(p.omega1**2 + p.lam, p.K * rows[0], omegas**2)
        border = np.concatenate([[-p.lam], p.sign2 * p.K * rows[1]])
        self._outer = Arrowhead(p.omega2**2 + p.lam, self._inner.rmul(border)[0], self._inner.values)
        self.values = self._outer.values

    def _rows(self, R):
        """R W for rows R (k x N) in the local basis."""
        inner = self._inner.rmul(np.delete(R, 1, axis=1))
        return self._outer.rmul(np.column_stack([R[:, 1], inner]))

    def _product(self, U):
        """W U for U (N x c)."""
        Y = self._outer.mul(U)
        Z = self._inner.mul(Y[1:])
        return np.concatenate([Z[:1], Y[:1], Z[1:]])

    def left(self, R):
        R = np.array(R, dtype=float, ndmin=2)
        # R B: only the chain sites R touches take their rows of O_chain
        sites = np.flatnonzero(np.any(R[:, 2:] != 0.0, axis=0))
        local = np.zeros(R.shape)
        local[:, :2] = R[:, :2]
        if sites.size:
            local[:, 2:] = R[:, 2 + sites] @ chain_normal_modes(self.network, sites + 1)[1]
        return self._rows(local)

    def local_product(self, U, network: NetworkConfig):
        same = network is self.network or (
            network.coupling_matrix is None
            and self.network.coupling_matrix is None
            and network.M == self.network.M
        )
        return self._product(U) if same else _to_local(self.dense @ U, network)

    @cached_property
    def dense(self):
        """O = B W, formed on first use."""
        O = self._product(np.eye(self.values.size))
        O[2:] = chain_normal_modes(self.network)[1] @ O[2:]
        return O
