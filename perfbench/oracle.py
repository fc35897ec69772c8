"""Correctness checks against the S-matrix path.

The reference for means and probe covariances at a time t is
``reduce(evolve(state0, propagator(qf, t)), (0, 1))``: one dense
propagator per checkpoint, sharing no per-sample code with the trajectory
engine.  Synchronization values are recomputed with a plain Pearson
formula from reference signals.  Every check returns a list of misses
(empty when the outputs are correct) and runs outside the timed region.

Tolerances are set from what an exact but re-ordered computation may
shift: vectorized trig moves means by about 3e-13 of their amplitude and
closed-form symplectic invariants move E by about 1e-8, while the CSVs
round to 12 significant digits (5e-12).  A wrong formula moves these
numbers by 1e-3 or more.
"""

from __future__ import annotations

import math

import numpy as np

from chainsync import (
    NormalModeTrajectory,
    assemble_full_potential,
    evolve,
    log_negativity,
    mean_energy,
    mutual_information,
    propagator,
    reduce,
    resolve_spec,
    system_modes,
)
from chainsync.modes import mode_rotation

from engine_setup import build_engine, initial_state

MEAN_RTOL = 1e-8  # means and variances, relative to the column's peak |value|
QUANTUM_ATOL = 1e-6  # E and MI, in nats
SYNC_ATOL = 1e-6  # Pearson C
GQLE_RTOL = 0.01  # criterion 9e: GQLE vs exact means, relative to peak amplitude
ENERGY_RTOL = 1e-9  # criterion 9b: relative energy drift


def _load(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _peaks(columns) -> np.ndarray:
    """Peak |value| of each column, 1 for an all-zero column (zero-mean
    states keep zero means)."""
    peak = np.max(np.abs(columns), axis=0)
    return np.where(peak > 0, peak, 1.0)


def pearson_ref(f, g) -> float:
    """Pearson correlation, NaN for a constant signal."""
    df = f - f.mean()
    dg = g - g.mean()
    den = math.sqrt(float(df @ df) * float(dg @ dg))
    return float(df @ dg) / den if den > 0 else math.nan


def _close(got, want, tol) -> bool:
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return abs(got - want) <= tol


def probe_state(qf, state0, t):
    """Two-probe Gaussian state at time t along the S-matrix path."""
    return reduce(evolve(state0, propagator(qf, t)), (0, 1))


def probe_positions(qf, state0, t0, dt, steps) -> np.ndarray:
    """(x1, x2) at t0 + k dt for k = 0..steps: one propagator to t0, then
    repeated application of the one-step map to the mean."""
    S0 = propagator(qf, t0).S
    step = propagator(qf, dt).S
    mean = S0 @ state0.mean
    out = np.empty((steps + 1, 2))
    out[0] = mean[:2]
    for k in range(1, steps + 1):
        mean = step @ mean
        out[k] = mean[:2]
    return out


def n_windows(spec, dt) -> int:
    """Number of sync windows ``sync_series`` forms on a grid of step dt."""
    n = int(round(spec.run.horizon / dt))
    w = int(round(spec.measure.window / dt))
    step = max(1, int(round(spec.measure.stride / dt)))
    return len(range(0, n + 1 - w, step))


def check_run_dir(spec, out, cov_indices, sync_row, energy=False) -> list:
    """Check a scenario's CSVs at the given covariance-grid checkpoints,
    plus one sync.csv row against Pearson of the written signals.  With
    ``energy``, also check the energy drift up to the first checkpoint
    via one ``state_at`` call."""
    misses = []
    means = _load(out / "means.csv")
    variances = _load(out / "variances.csv")
    quantum = _load(out / "quantum.csv") if spec.run.write_quantum else None
    sync = _load(out / "sync.csv")
    qf = assemble_full_potential(spec.network, spec.probes)
    state0 = initial_state(spec)
    R = mode_rotation(system_modes(spec.probes, spec.network.M).theta)
    mean_scale = _peaks(means[:, 1:])
    var_scale = _peaks(variances[:, 1:])
    dt, dt_cov = spec.run.dt, spec.run.dt_cov

    for k in cov_indices:
        t = k * dt_cov
        i = int(round(t / dt))
        if abs(means[i, 0] - t) > 1e-9 or abs(variances[k, 0] - t) > 1e-9:
            misses.append(f"t={t}: time column does not match the sample grid")
            continue
        ref = probe_state(qf, state0, t)
        x, p = ref.mean[:2], ref.mean[2:]
        want = np.concatenate([x, p, R @ x])
        for col, name in enumerate(("x1", "x2", "p1", "p2", "q1", "q2")):
            err = abs(means[i, 1 + col] - want[col]) / mean_scale[col]
            if not err <= MEAN_RTOL:
                misses.append(f"t={t}: {name} off by {err:.2e} of its amplitude")
        for col, name in enumerate(("var_x1", "var_x2")):
            err = abs(variances[k, 1 + col] - ref.cov[col, col]) / var_scale[col]
            if not err <= MEAN_RTOL:
                misses.append(f"t={t}: {name} off by {err:.2e} of its peak")
        if quantum is not None:
            for col, name, want_q in (
                (1, "E", log_negativity(ref.cov)),
                (2, "MI", mutual_information(ref.cov)),
            ):
                got = quantum[k, col]
                if not _close(got, want_q, QUANTUM_ATOL):
                    misses.append(f"t={t}: {name}={got:.12g}, reference {want_q:.12g}")

    if energy:
        t = cov_indices[0] * dt_cov
        e0 = mean_energy(state0, qf)
        e_t = mean_energy(NormalModeTrajectory(qf, state0).state_at(t), qf)
        drift = abs(e_t - e0) / abs(e0)
        if not drift <= ENERGY_RTOL:
            misses.append(f"t={t}: relative energy drift {drift:.2e}")

    t0, c_means, c_vars = sync[sync_row]
    w = int(round(spec.measure.window / dt))
    i0 = int(round(t0 / dt))
    want = pearson_ref(means[i0 : i0 + w + 1, 1], means[i0 : i0 + w + 1, 2])
    if not _close(c_means, want, SYNC_ATOL):
        misses.append(f"sync t={t0}: c_means={c_means:.12g}, reference {want:.12g}")
    wc = int(round(spec.measure.window / dt_cov))
    k0 = int(round(t0 / dt_cov))
    want = pearson_ref(variances[k0 : k0 + wc + 1, 1], variances[k0 : k0 + wc + 1, 2])
    if not _close(c_vars, want, SYNC_ATOL):
        misses.append(f"sync t={t0}: c_vars={c_vars:.12g}, reference {want:.12g}")
    return misses


def sweep_rows(out) -> dict:
    """sweep.csv (t, C) rows grouped by site."""
    rows = _load(out / "sweep.csv")
    return {int(s): rows[rows[:, 0] == s, 1:] for s in np.unique(rows[:, 0])}


def sweep_status(out) -> dict:
    """Per-site status lines of sweep_record.txt ("ok" or the error)."""
    status = {}
    for line in (out / "sweep_record.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key.startswith("site_"):
            status[int(key[5:])] = value
    return status


def check_sweep_site(spec, site, rows, row) -> list:
    """Check one site's window count and one seeded window's C against
    S-matrix means."""
    site_spec = resolve_spec(spec.preset, {**spec.flat(), "site_n": site})
    dt = site_spec.run.dt
    expected = n_windows(site_spec, dt)
    if rows.shape[0] != expected:
        return [f"site {site}: {rows.shape[0]} windows, expected {expected}"]
    t0, c = rows[row]
    qf = assemble_full_potential(site_spec.network, site_spec.probes)
    w = int(round(site_spec.measure.window / dt))
    x = probe_positions(qf, initial_state(site_spec), t0, dt, w)
    want = pearson_ref(x[:, 0], x[:, 1])
    if not _close(c, want, SYNC_ATOL):
        return [f"site {site} t={t0}: C={c:.12g}, reference {want:.12g}"]
    return []


def check_gqle(times, q) -> list:
    """Criterion 9e: GQLE normal-mode means within 1% of the exact ones."""
    spec, _, _, engine = build_engine("fig2_dissipation", {})
    X, _ = engine.mean_series(times)
    q_exact = X @ mode_rotation(system_modes(spec.probes, spec.network.M).theta).T
    misses = []
    for s in (0, 1):
        err = float(np.max(np.abs(q[:, s] - q_exact[:, s])) / np.max(np.abs(q_exact[:, s])))
        if not err <= GQLE_RTOL:
            misses.append(f"q{s + 1}: GQLE off by {err:.2e} of its amplitude")
    return misses

