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

from .dynamics import symplectic_form, uniform_step
from .errors import NonPhysical

MIN_WINDOW_SAMPLES = 8
_VAR_FLOOR = 1e-30
# Round-off moves a pure state's symplectic eigenvalues off 1/2 by up to
# 7e-15 unsqueezed (fig6 at t = 0, r = 0 and M = 300 to 5000, from the
# orthogonal composite modes of ``lattice.CompositeModes``; a dense eigh's
# modes, orthogonal only to about N eps, moved them by 1.5e-13 at M =
# 3000), plus up to 2.4 eps max|sigma_ij|^2 from the cancellation in the
# determinants once a squeezed axis has turned (free probes, |r| <= 5.5).
# An eigenvalue within the slack _NU_SLACK + _NU_SLACK_GAIN eps
# max|sigma_ij|^2 of 1/2 reads as 1/2.
# The nearest true departure on the presets, 2.7e-13 (appB_sweep's joint
# state at t = 0.2), is above its slack of 1.0e-13.  E moves by at most
# twice the slack, an entropy by at most slack (1 + ln(1 / slack)).
_NU_SLACK = 1e-13
_NU_SLACK_GAIN = 4.0


@dataclass(frozen=True)
class SyncSeries:
    """Windowed synchronization indicator over a trajectory pair.

    ``values[i]`` is the Pearson correlation over the window starting at
    ``times[i]``, NaN where that window was degenerate.
    """

    times: np.ndarray
    values: np.ndarray

    def in_band(self, t0: float, t1: float) -> np.ndarray:
        """Values of windows starting inside [t0, t1]."""
        mask = (self.times >= t0) & (self.times <= t1)
        return self.values[mask]


def window_samples(window, stride, delay, dt):
    """(window, stride, delay) of a sync series in samples of step ``dt``.

    The window must hold at least MIN_WINDOW_SAMPLES samples, the window
    and the stride must be whole multiples of ``dt`` and the delay a
    multiple of it, each to 1e-9 relative; otherwise ValueError.
    """
    ratios = (window / dt, stride / dt, delay / dt)
    if not all(map(math.isfinite, ratios)):
        raise ValueError(f"window {window}, stride {stride} and delay {delay} "
                         f"must be finite numbers of samples of step {dt}")
    w, step, d = map(round, ratios)
    if w + 1 < MIN_WINDOW_SAMPLES:
        raise ValueError(f"window {window} holds fewer than {MIN_WINDOW_SAMPLES} samples "
                         f"of step {dt}")
    if abs(window - w * dt) > 1e-9 * window:
        raise ValueError(f"window {window} is not a whole multiple of the sample step {dt}")
    if step < 1 or abs(stride - step * dt) > 1e-9 * stride:
        raise ValueError(f"stride {stride} is not a whole multiple of the sample step {dt}")
    if abs(delay - d * dt) > 1e-9 * max(dt, abs(delay)):
        raise ValueError(f"delay {delay} is not a multiple of the sample step {dt}")
    return w, step, d


def window_starts(n, w, step, d) -> range:
    """Sync window starts i over n samples: every ``step``-th sample from 0
    whose window [i, i + w] and partner [i + d, i + d + w] lie in [0, n)."""
    first = -(-max(0, -d) // step) * step
    return range(first, n - w - max(0, d), step)


def sync_series(times, f, g, window, stride, delay: float = 0.0) -> SyncSeries:
    """Sliding-window Pearson correlation of f(t) against g(t + delay).

    ``times`` must be a uniform grid of step dt that ``window_samples``
    accepts.  Windows start every stride / dt samples from times[0];
    those whose f or delayed g samples would run past the data are
    dropped.  Each window of n samples is the two-pass Pearson
    sum(df dg) / sqrt(sum(df^2) sum(dg^2)) of the deviations df, dg from
    the window means; a window where sum(df^2) / n or sum(dg^2) / n is
    below 1e-30 (a constant signal) is stored as NaN.
    """
    times = np.asarray(times, dtype=float)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if not (times.size == f.size == g.size):
        raise ValueError("times, f, g must have equal length")
    # windows are counted in samples, so every time must sit on t0 + k dt
    w, step, d = window_samples(window, stride, delay, uniform_step(times))
    n = w + 1
    starts, values = [], []
    for i in window_starts(times.size, w, step, d):
        j = i + d
        df = f[i : i + n] - f[i : i + n].mean()
        dg = g[j : j + n] - g[j : j + n].mean()
        sff, sgg = float(df @ df), float(dg @ dg)
        starts.append(times[i])
        degenerate = sff / n < _VAR_FLOOR or sgg / n < _VAR_FLOOR
        values.append(math.nan if degenerate else float(df @ dg / math.sqrt(sff * sgg)))
    return SyncSeries(np.array(starts), np.array(values))


def symplectic_spectrum(cov) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, ascending.

    Physical states have every eigenvalue >= 1/2; this is not checked here
    (``vn_entropy`` checks it), so a partial transpose can be read too.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    ev = np.linalg.eigvals(symplectic_form(n) @ cov)
    return np.sort(np.abs(ev))[::2]


def _nu_slack(covs) -> np.ndarray:
    """The round-off slack about 1/2 of each covariance in ``covs``."""
    peak = np.abs(covs).max(axis=(-2, -1))
    return _NU_SLACK + _NU_SLACK_GAIN * np.finfo(float).eps * peak * peak


def _nu_entropy(nus, slack) -> np.ndarray:
    """Entropy (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2) of each
    symplectic eigenvalue; one below the vacuum floor 1/2 (1e-6 slack)
    raises NonPhysical, and one below 1/2 + ``slack`` is read as 1/2,
    whose entropy is exactly 0."""
    nus = np.asarray(nus, dtype=float)
    if np.any(nus < 0.5 - 1e-6):
        raise NonPhysical(f"symplectic eigenvalue {nus.min():.9f} below the vacuum floor 1/2")
    nus = np.where(nus < 0.5 + slack, 0.5, nus)
    plus = nus + 0.5
    minus = nus - 0.5
    safe = np.where(minus > 0, minus, 1.0)  # (nu - 1/2) ln(nu - 1/2) -> 0 at nu = 1/2
    return plus * np.log(plus) - minus * np.log(safe)


def _negativity(nu_min, slack):
    """-ln 2 nu_min for the smallest symplectic eigenvalue of a partial
    transpose, read as 0 from 1/2 - ``slack`` up."""
    return np.where(nu_min < 0.5 - slack, -np.log(2.0 * nu_min), 0.0)


def vn_entropy(cov) -> float:
    """Von Neumann entropy of a Gaussian state from its covariance."""
    return float(np.sum(_nu_entropy(symplectic_spectrum(cov), _nu_slack(cov))))


def mutual_information(cov) -> float:
    """Mutual information S_1 + S_2 - S_12 of a two-mode covariance, read
    as 0 where round-off makes it negative (subadditivity)."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise ValueError("mutual information expects a two-mode (4x4) covariance")
    S1 = vn_entropy(cov[np.ix_([0, 2], [0, 2])])
    S2 = vn_entropy(cov[np.ix_([1, 3], [1, 3])])
    return max(0.0, S1 + S2 - vn_entropy(cov))


def log_negativity(cov) -> float:
    """Logarithmic negativity of a two-mode covariance.

    Partial transposition flips the sign of the second momentum; the
    entanglement is E = -ln 2 nu_min with nu_min the smallest symplectic
    eigenvalue of the transformed covariance (vacuum at 1/2), read as 0
    from nu_min = 1/2 - slack up (``_nu_slack``).
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise ValueError("log negativity expects a two-mode (4x4) covariance")
    P = np.diag([1.0, 1.0, 1.0, -1.0])
    nus = symplectic_spectrum(P @ cov @ P)
    return float(_negativity(nus[0], _nu_slack(cov)))


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
    slack = _nu_slack(covs)
    S1 = _nu_entropy(np.sqrt(np.clip(det_a, 0.0, None)), slack)
    S2 = _nu_entropy(np.sqrt(np.clip(det_b, 0.0, None)), slack)
    nu_plus, nu_minus = _two_mode_spectrum(covs, det_a + det_b + 2 * det_c, det)
    S12 = _nu_entropy(nu_plus, slack) + _nu_entropy(nu_minus, slack)
    flip = np.array([1.0, 1.0, 1.0, -1.0])  # partial transpose: p2 -> -p2
    _, nu_pt = _two_mode_spectrum(covs * np.outer(flip, flip), det_a + det_b - 2 * det_c, det)
    E = _negativity(nu_pt, slack)
    # subadditivity: S12 <= S1 + S2, so a negative MI is round-off
    return CorrelationReport(times, E, np.maximum(0.0, S1 + S2 - S12), S1, S2, S12)
