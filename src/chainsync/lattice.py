"""Quadratic Hamiltonian of two probe oscillators plugged into a finite
harmonic chain.

The composite system is H = 1/2 p^T p + 1/2 x^T V x with unit masses.
Mode ordering everywhere: probe 1, probe 2, then chain sites 1..M.  The
chain has fixed (Dirichlet) ends, so a homogeneous chain with on-site
frequency Omega_0 and stiffness g has the exact dispersion

    Omega_j^2 = Omega_0^2 + 4 g sin^2(pi j / (2 (M + 1))),   j = 1..M,

diagonalized by the orthogonal sine transform.
"""

from __future__ import annotations

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
        if self.omega1 <= 0 or self.omega2 <= 0:
            raise ValueError("probe frequencies must be positive")
        if self.lam < 0:
            raise ValueError(f"lambda must be non-negative, got {self.lam}")
        if self.sign2 not in (1, -1):
            raise ValueError(f"sign2 must be +1 or -1, got {self.sign2}")

    def validate_sites(self, M: int):
        for name, site in (("site_m", self.site_m), ("site_n", self.site_n)):
            if site % 1 != 0 or not 1 <= site <= M:
                raise ValueError(f"{name}={site} is not a whole number in [1, {M}]")


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric potential matrix of the composite system.

    ``V`` is (M+2) x (M+2); probes occupy rows 0 and 1, and chain site s
    (1-based) is row s + 1.  An exactly symmetric float array is kept by
    reference, with no copy; any other is replaced by its symmetric part.
    """

    V: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        object.__setattr__(self, "V", V if np.array_equal(V, V.T) else 0.5 * (V + V.T))

    @property
    def dim(self) -> int:
        return self.V.shape[0]


def build_chain_potential(cfg: NetworkConfig) -> np.ndarray:
    """Potential matrix of the environment network alone (M x M)."""
    V = np.zeros((cfg.M, cfg.M))
    _write_chain_potential(V, cfg)
    return V


def _write_chain_potential(out: np.ndarray, cfg: NetworkConfig) -> None:
    """Write the chain's potential into the zeroed M x M array ``out``, the
    homogeneous chain with no M x M temporary: its freed block is a heap
    hole the composite N x N arrays cannot reuse (32 MB at M = 2000)."""
    if cfg.coupling_matrix is not None:
        A = cfg.coupling_matrix
        V = np.diag(cfg.omega0**2 + A.sum(axis=1)) - A
        out[...] = 0.5 * (V + V.T)
        return
    i = np.arange(cfg.M)
    out[i, i] = cfg.omega0**2 + 2.0 * cfg.g
    out[i[:-1], i[1:]] = out[i[1:], i[:-1]] = -cfg.g


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


def assemble_full_potential(cfg: NetworkConfig, probes: ProbePair) -> QuadraticForm:
    """Potential matrix of probes + network with bilinear plugging terms.

    The probe-chain coupling K x X enters without a counter-term, so large
    K can destabilize the composite form; see ``check_stability``.
    """
    probes.validate_sites(cfg.M)
    N = cfg.M + 2
    V = np.zeros((N, N))
    V[0, 0] = probes.omega1**2 + probes.lam
    V[1, 1] = probes.omega2**2 + probes.lam
    V[0, 1] = V[1, 0] = -probes.lam
    _write_chain_potential(V[2:, 2:], cfg)
    im = 1 + probes.site_m
    in_ = 1 + probes.site_n
    V[0, im] += probes.K
    V[im, 0] += probes.K
    V[1, in_] += probes.sign2 * probes.K
    V[in_, 1] += probes.sign2 * probes.K
    return QuadraticForm(V)


def check_stability(qf: QuadraticForm) -> float:
    """Smallest eigenvalue of V; raises InstabilityError when <=
    DEFAULT_STABILITY_TOL.

    The tolerance separates genuine zero modes from round-off: the form is
    accepted for dynamics only if its spectrum clears it.
    """
    min_eig = float(np.linalg.eigvalsh(qf.V)[0])
    if min_eig <= DEFAULT_STABILITY_TOL:
        raise InstabilityError(min_eig, DEFAULT_STABILITY_TOL)
    return min_eig
