"""Synchronization and quantum-correlation measures.

Synchronization is quantified by a windowed Pearson correlation of two
sampled signals (+1 locked in phase, -1 in antiphase), optionally with a
relative delay.  Quantum correlations of the probe pair come from the
symplectic spectrum of Gaussian covariance matrices: von Neumann entropy,
mutual information, and logarithmic negativity via partial transposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import symplectic_form
from .errors import DegenerateWindow, NoCrossings, NonPhysical

MIN_WINDOW_SAMPLES = 8
_VAR_FLOOR = 1e-30


def pearson(f, g, times=None, window=None) -> float:
    """Pearson correlation of two signals over a window.

    With ``times`` and ``window = (t0, t1)`` the arrays are sliced to the
    window first; otherwise they are used whole.  Raises DegenerateWindow
    when either signal is (numerically) constant.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise ValueError("signals must share the sample grid")
    if window is not None:
        if times is None:
            raise ValueError("window selection needs the time grid")
        t0, t1 = window
        mask = (np.asarray(times) >= t0) & (np.asarray(times) <= t1)
        f, g = f[mask], g[mask]
    if f.size < MIN_WINDOW_SAMPLES:
        raise ValueError(f"window holds {f.size} samples, need >= {MIN_WINDOW_SAMPLES}")
    df = f - f.mean()
    dg = g - g.mean()
    vf = float(df @ df) / f.size
    vg = float(dg @ dg) / g.size
    if vf < _VAR_FLOOR or vg < _VAR_FLOOR:
        raise DegenerateWindow("constant signal in window")
    return float(df @ dg / math.sqrt((df @ df) * (dg @ dg)))


@dataclass(frozen=True)
class SyncSeries:
    """Windowed synchronization indicator over a trajectory pair.

    ``values[i]`` is the Pearson correlation over [times[i], times[i] +
    window], NaN where a window was degenerate (see ``defined``).
    """

    times: np.ndarray
    values: np.ndarray
    window: float
    stride: float
    delay: float = 0.0

    @property
    def defined(self) -> np.ndarray:
        return np.isfinite(self.values)

    def in_band(self, t0: float, t1: float) -> np.ndarray:
        """Values of windows starting inside [t0, t1]."""
        mask = (self.times >= t0) & (self.times <= t1)
        return self.values[mask]


def sync_series(times, f, g, window, stride, delay: float = 0.0) -> SyncSeries:
    """Sliding-window Pearson correlation of f(t) against g(t + delay).

    ``times`` must be a uniform grid and the delay a multiple of its
    step; windows that would run past the data are dropped, and
    degenerate windows are stored as NaN rather than aborting the series.
    """
    times = np.asarray(times, dtype=float)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if not (times.size == f.size == g.size):
        raise ValueError("times, f, g must have equal length")
    n = times.size
    dt = float(times[-1] - times[0]) / (n - 1) if n > 1 else 0.0
    # windows are counted in samples, so every time must sit on t0 + k dt;
    # the offsets are formed in place, as a scenario grid is long
    off = np.arange(n, dtype=float)
    off *= -dt
    off += times
    off -= times[0]
    if not (dt > 0 and np.abs(off, out=off).max(initial=0.0) <= 1e-6 * dt):
        raise ValueError("times must be a uniform increasing grid of two or more samples")
    d = int(round(delay / dt))
    if abs(delay - d * dt) > 1e-9 * max(dt, abs(delay)):
        raise ValueError(f"delay {delay} is not a multiple of the sample step {dt}")
    w = int(round(window / dt))
    if w + 1 < MIN_WINDOW_SAMPLES:
        raise ValueError(f"window {window} holds fewer than {MIN_WINDOW_SAMPLES} samples")
    step = max(1, int(round(stride / dt)))
    starts, values = [], []
    i = 0
    while i + w < times.size:
        j = i + d
        if j >= 0 and j + w < g.size:
            try:
                c = pearson(f[i : i + w + 1], g[j : j + w + 1])
            except DegenerateWindow:
                c = math.nan
            starts.append(times[i])
            values.append(c)
        i += step
    return SyncSeries(np.array(starts), np.array(values), window, stride, delay)


def scan_delayed_sync(times, f, g, window, stride, delays, band=None):
    """Grid scan over delays, maximizing |C|; ties break toward zero delay.

    Returns ``(best_delay, best_abs_c, best_series)``.  With ``band =
    (t0, t1)`` only windows starting inside the band are scored.
    """
    best = None
    for delay in sorted(np.asarray(delays, dtype=float), key=lambda d: (abs(d), d)):
        series = sync_series(times, f, g, window, stride, delay)
        vals = series.in_band(*band) if band is not None else series.values
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            continue
        score = float(np.max(np.abs(vals)))
        if best is None or score > best[1]:
            best = (delay, score, series)
    if best is None:
        raise ValueError("no scorable windows in the delay scan")
    return best


def dominant_frequency(times, f, window=None) -> float:
    """Oscillation frequency from the mean zero-crossing spacing.

    Crossing times are linearly interpolated; the frequency is pi over the
    mean half-period.  The window should span at least a few periods.
    """
    times = np.asarray(times, dtype=float)
    f = np.asarray(f, dtype=float)
    if window is not None:
        t0, t1 = window
        mask = (times >= t0) & (times <= t1)
        times, f = times[mask], f[mask]
    s = np.sign(f)
    flips = np.nonzero(s[:-1] * s[1:] < 0)[0]
    if flips.size < 2:
        raise NoCrossings("signal does not change sign often enough in the window")
    tc = times[flips] - f[flips] * (times[flips + 1] - times[flips]) / (
        f[flips + 1] - f[flips]
    )
    return float(np.pi / np.mean(np.diff(tc)))


def symplectic_spectrum(cov, validate: bool = True) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, ascending.

    Physical states have every eigenvalue >= 1/2; ``validate`` enforces
    this with a 1e-6 slack.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    ev = np.linalg.eigvals(symplectic_form(n) @ cov)
    nus = np.sort(np.abs(ev))[::2]
    if validate:
        _check_vacuum_floor(nus)
    return nus


def _check_vacuum_floor(nus) -> None:
    if np.any(nus < 0.5 - 1e-6):
        raise NonPhysical(
            f"symplectic eigenvalue {nus.min():.9f} below the vacuum floor 1/2"
        )


def _nu_entropy(nus) -> np.ndarray:
    """Entropy (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2) of each
    symplectic eigenvalue; one below the vacuum floor 1/2 (1e-6 slack)
    raises NonPhysical."""
    nus = np.asarray(nus, dtype=float)
    _check_vacuum_floor(nus)
    plus = nus + 0.5
    minus = np.clip(nus - 0.5, 0.0, None)
    safe = np.where(minus > 0, minus, 1.0)  # (nu - 1/2) ln(nu - 1/2) -> 0 at nu = 1/2
    return plus * np.log(plus) - minus * np.log(safe)


def vn_entropy(cov) -> float:
    """Von Neumann entropy of a Gaussian state from its covariance."""
    return float(np.sum(_nu_entropy(symplectic_spectrum(cov, validate=False))))


def mutual_information(cov) -> float:
    """Mutual information S_1 + S_2 - S_12 of a two-mode covariance."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise ValueError("mutual information expects a two-mode (4x4) covariance")
    S1 = vn_entropy(cov[np.ix_([0, 2], [0, 2])])
    S2 = vn_entropy(cov[np.ix_([1, 3], [1, 3])])
    return S1 + S2 - vn_entropy(cov)


def log_negativity(cov) -> float:
    """Logarithmic negativity of a two-mode covariance.

    Partial transposition flips the sign of the second momentum; the
    entanglement is E = max(0, -ln 2 nu_min) with nu_min the smallest
    symplectic eigenvalue of the transformed covariance (vacuum at 1/2).
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise ValueError("log negativity expects a two-mode (4x4) covariance")
    P = np.diag([1.0, 1.0, 1.0, -1.0])
    nus = symplectic_spectrum(P @ cov @ P, validate=False)
    return float(max(0.0, -math.log(2.0 * nus[0])))


@dataclass(frozen=True)
class CorrelationReport:
    """Time series of the probe pair's quantum correlations."""

    times: np.ndarray
    E: np.ndarray
    MI: np.ndarray
    S1: np.ndarray
    S2: np.ndarray
    S12: np.ndarray


def _two_mode_spectrum(covs, delta, det):
    """Symplectic eigenvalues (nu_plus, nu_minus) of two-mode covariances
    (T, 4, 4) with invariants ``delta`` = nu_plus^2 + nu_minus^2 and
    ``det`` = det sigma.

    The gap nu_plus^2 - nu_minus^2 is sqrt(tr K^2) for the traceless part
    K = (J sigma)^2 + delta/2 of (J sigma)^2, whose eigenvalues are
    -nu_plus^2 and -nu_minus^2 (each twice).  The textbook
    sqrt(delta^2 - 4 det) loses half the digits where nu_plus ~ nu_minus,
    as at a pure state, and x ln x at nu = 1/2 would amplify that into
    the entropies.  nu_minus = sqrt(det) / nu_plus avoids the cancellation
    of (delta - gap) / 2.
    """
    Js = np.concatenate([covs[:, 2:], -covs[:, :2]], axis=1)  # J @ sigma
    K = Js @ Js
    K[:, range(4), range(4)] += 0.5 * delta[:, None]
    gap = np.sqrt(np.clip(np.einsum("tij,tji->t", K, K), 0.0, None))
    nu_plus = np.sqrt(np.clip(0.5 * (delta + gap), 0.0, None))
    return nu_plus, np.sqrt(np.clip(det, 0.0, None)) / nu_plus


def correlation_report(times, covs) -> CorrelationReport:
    """Entanglement, mutual information, and entropies along a trajectory
    of two-mode covariances (shape (T, 4, 4)).

    Vectorized over time with the closed-form two-mode invariants of
    Serafini, Illuminati & De Siena, J. Phys. B 37, L21 (2004): with A, B
    the local (x, p) blocks and C their correlation block, delta = det A +
    det B + 2 det C for the state and det A + det B - 2 det C for its
    partial transpose.
    """
    times = np.asarray(times, dtype=float)
    covs = np.asarray(covs, dtype=float)
    det_a = covs[:, 0, 0] * covs[:, 2, 2] - covs[:, 0, 2] * covs[:, 2, 0]
    det_b = covs[:, 1, 1] * covs[:, 3, 3] - covs[:, 1, 3] * covs[:, 3, 1]
    det_c = covs[:, 0, 1] * covs[:, 2, 3] - covs[:, 0, 3] * covs[:, 2, 1]
    det = np.linalg.det(covs)
    S1 = _nu_entropy(np.sqrt(np.clip(det_a, 0.0, None)))
    S2 = _nu_entropy(np.sqrt(np.clip(det_b, 0.0, None)))
    nu_plus, nu_minus = _two_mode_spectrum(covs, det_a + det_b + 2 * det_c, det)
    S12 = _nu_entropy(nu_plus) + _nu_entropy(nu_minus)
    flip = np.array([1.0, 1.0, 1.0, -1.0])  # partial transpose: p2 -> -p2
    _, nu_pt = _two_mode_spectrum(covs * np.outer(flip, flip), det_a + det_b - 2 * det_c, det)
    E = np.maximum(0.0, -np.log(2.0 * nu_pt))
    return CorrelationReport(times, E, S1 + S2 - S12, S1, S2, S12)
