"""Scenario presets, config parsing, and reproducible runs.

A scenario is resolved from a preset plus key overrides, simulated
exactly, and written out as CSV trajectories plus flat-text summaries.
Re-running an identical config produces byte-identical CSV bodies: all
numbers are serialized with 12 significant digits and there is no hidden
state (no clock, no RNG).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ChainSyncError, ConfigError, ParseError, RangeError, UnknownKey
from .lattice import (
    DEFAULT_STABILITY_TOL,
    NetworkConfig,
    ProbePair,
    assemble_full_potential,
    max_group_velocity,
    revival_time,
)
from .measures import (
    CorrelationReport,
    SyncSeries,
    correlation_report,
    sync_series,
    window_samples,
    window_starts,
)
from .modes import (
    RayleighReport,
    SystemModes,
    chain_rayleigh_report,
    mode_rotation,
    ohmic_gap_ratio,
    system_modes,
)
from .dynamics import product_state, squeezed_vacuum_local
from .trajectory import NormalModeTrajectory

SECTIONS = ("network", "probes", "initial", "measure", "run")

# ceiling on horizon / dt and horizon / dt_cov, about 16 times the 60,000 mean
# samples of the longest preset; a run's arrays grow linearly with it
MAX_SAMPLES = 1_000_000
# ceiling on M: a run forms no dense (M + 2)^2 array (the potential V is formed
# only by the oracles) and solves its modes in O(M^2) from the chain's
# closed-form modes, so time, not memory, sets it.  fig5 with its default
# horizon on a 2-vCPU box (run_scenario wall time, peak ru_maxrss):
#     M = 3000: 0.6-0.7 s, 72 MiB;  M = 5000: 1.2-1.5 s, 97 MiB;  M = 10,000: 4.4-5.1 s, 168 MiB
MAX_SITES = 10_000
# squeezing spreads a probe's variances over e^(-2r) .. e^(2r); a symplectic
# eigenvalue read off them is off its vacuum value 1/2 by up to 2.4 eps
# max|sigma_ij|^2 ~ eps e^(4r) (measures reads 4 times that as 1/2); the
# vacuum-floor check allows 1e-6, so |r| <= ln(1e-6 / eps) / 4, about 5.56
MAX_SQUEEZE = math.log(1e-6 / np.finfo(float).eps) / 4
# a Pearson window multiplies two sums of squares of n <= MAX_SAMPLES + 1
# deviations, each at most twice the amplitude A of the signal:
# (4 n A^2)^2 stays below the largest double for A up to this, about 5.8e73
MAX_AMPLITUDE = math.sqrt(math.sqrt(np.finfo(float).max) / (MAX_SAMPLES + 1)) / 2


def _parse_float(text):
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}")


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}")


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_str(text):
    return text.strip()


# key -> (section, default); a key's type is its default's type, and
# "custom" is these defaults verbatim
KEY_SPECS = {
    "M": ("network", 300),
    "omega0": ("network", 0.4),
    "g": ("network", 1.2),
    "omega1": ("probes", 1.0),
    "omega2": ("probes", 1.1),
    "lambda": ("probes", 0.5),
    "K": ("probes", 0.2),
    "site_m": ("probes", 1),
    "site_n": ("probes", 1),
    "sign2": ("probes", 1),
    "x1": ("initial", 0.14),
    "x2": ("initial", 1.4),
    "p1": ("initial", 0.0),
    "p2": ("initial", 0.0),
    "r1": ("initial", 0.0),
    "r2": ("initial", 0.0),
    "squeeze_axis": ("initial", "position"),
    "window": ("measure", 20.0),
    "stride": ("measure", 2.0),
    "delay": ("measure", 0.0),
    "horizon": ("run", 600.0),
    "dt": ("run", 0.02),
    "dt_cov": ("run", 0.2),
    "write_quantum": ("run", True),
    "sweep_start": ("run", 1),
    "sweep_stop": ("run", 0),  # 0 means "last chain site"
    "sweep_step": ("run", 1),
    "out": ("run", "out"),
}

DEFAULTS = {key: default for key, (_, default) in KEY_SPECS.items()}

_PARSERS = {int: _parse_int, float: _parse_float, bool: _parse_bool, str: _parse_str}

# config key -> field of its section's dataclass, where the two differ
_FIELDS = {"lambda": "lam"}

PRESETS = {
    "fig2_dissipation": {"horizon": 1200.0},
    "fig3_common_node": {"lambda": 0.0, "K": 0.8, "x1": 1.4, "x2": 1.4},
    "fig4_edges": {"lambda": 0.0, "K": 0.2, "site_n": 300, "x1": 1.4, "x2": 1.4, "horizon": 700.0},
    "fig5_entanglement_common": {
        "omega2": 1.2, "lambda": 0.0, "K": 0.8,
        "x1": 0.0, "x2": 0.0, "r1": 2.0, "r2": 2.0,
    },
    "fig6_mi_edges": {
        "omega2": 1.2, "lambda": 0.0, "K": 0.2, "site_n": 300,
        "x1": 0.0, "x2": 0.0, "r1": 2.0, "r2": 2.0, "horizon": 900.0,
    },
    "appB_sweep": {"K": 0.06},
    "custom": {},
}


@dataclass(frozen=True)
class InitialConditions:
    x1: float
    x2: float
    p1: float
    p2: float
    r1: float
    r2: float
    squeeze_axis: str = "position"


@dataclass(frozen=True)
class MeasureConfig:
    window: float
    stride: float
    delay: float = 0.0


@dataclass(frozen=True)
class RunConfig:
    horizon: float
    dt: float
    dt_cov: float
    write_quantum: bool
    sweep_start: int
    sweep_stop: int
    sweep_step: int
    out: str


@dataclass(frozen=True)
class ScenarioSpec:
    preset: str
    network: NetworkConfig
    probes: ProbePair
    initial: InitialConditions
    measure: MeasureConfig
    run: RunConfig

    def flat(self) -> dict:
        """All resolved keys as one flat mapping (config echo order)."""
        return {
            key: getattr(getattr(self, section), _FIELDS.get(key, key))
            for key, (section, _) in KEY_SPECS.items()
        }


def _section_fields(values: dict, section: str) -> dict:
    """Keyword arguments of one section's dataclass from resolved keys."""
    return {
        _FIELDS.get(key, key): values[key]
        for key, (key_section, _) in KEY_SPECS.items()
        if key_section == section
    }


def parse_setting(key: str, value: str, lineno: int | None = None):
    """Parsed value of one ``key = value`` setting.

    ``preset`` yields the preset name.  An unknown preset raises
    RangeError, an unknown key UnknownKey and a malformed value ParseError;
    with ``lineno`` the message names the config line.
    """
    where = "" if lineno is None else f"line {lineno}: "
    if key == "preset":
        if value not in PRESETS:
            raise RangeError(
                f"{where}unknown preset {value!r} (choose from {', '.join(sorted(PRESETS))})"
            )
        return value
    if key not in KEY_SPECS:
        raise UnknownKey(f"{where}unknown key {key!r}")
    try:
        return _PARSERS[type(KEY_SPECS[key][1])](value)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


def read_config(text: str):
    """Parse config text into (preset, overrides) without resolving.

    Line-oriented ``key = value`` with ``[section]`` headers and ``#``
    comments; keys given before any header are looked up globally.
    """
    overrides: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, f"malformed section header {raw.strip()!r}")
            name = line[1:-1].strip()
            if name not in SECTIONS:
                raise ParseError(lineno, f"unknown section [{name}]")
            section = name
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if section is not None and key in KEY_SPECS and KEY_SPECS[key][0] != section:
            raise UnknownKey(
                f"line {lineno}: key {key!r} belongs to [{KEY_SPECS[key][0]}], not [{section}]"
            )
        overrides[key] = parse_setting(key, value.strip(), lineno)
    return overrides.pop("preset", None), overrides


def resolve_spec(preset: str | None, overrides: dict | None = None) -> ScenarioSpec:
    """Apply preset defaults, then overrides, then validate everything."""
    preset = preset or "custom"
    if preset not in PRESETS:
        raise RangeError(f"unknown preset {preset!r}")
    values = dict(DEFAULTS)
    values.update(PRESETS[preset])
    for key, val in (overrides or {}).items():
        if key not in KEY_SPECS:
            raise UnknownKey(f"unknown key {key!r}")
        values[key] = val
    for key, val in values.items():
        if isinstance(val, float) and not math.isfinite(val):
            raise RangeError(f"{key} must be finite, got {val}")
    if values["M"] > MAX_SITES:
        raise RangeError(f"M={values['M']} exceeds {MAX_SITES} chain sites")

    try:
        network = NetworkConfig(**_section_fields(values, "network"))
        probes = ProbePair(**_section_fields(values, "probes"))
        probes.validate_sites(network.M)
    except ValueError as exc:
        raise RangeError(str(exc))
    for key in ("horizon", "dt", "dt_cov", "window", "stride"):
        if values[key] <= 0:
            raise RangeError(f"{key} must be positive, got {values[key]}")
    w1, w2, w0, lam, g, K = (values[k] for k in ("omega1", "omega2", "omega0", "lambda", "g", "K"))
    if K < 0:
        raise RangeError(f"K must be non-negative, got {K}")
    window, stride, delay = values["window"], values["stride"], values["delay"]
    # Gershgorin bound nu_bar on the fastest normal frequency; the variances
    # carry 2 nu.  A probe's 2x2 principal minor of V already shows a form
    # with K^2 >= (omega^2 + lambda)(omega0^2 + 2g) unstable, and that is
    # left to the stability check.
    nu_bar2 = max(max(w1 * w1, w2 * w2) + 2 * lam + K, w0 * w0 + 4 * g + 2 * K)
    if not math.isfinite(2 * nu_bar2):  # entries of V + V^T would overflow
        raise RangeError("omega1, omega2, omega0, lambda, g or K too large: V overflows")
    nu_bar = math.sqrt(nu_bar2)
    for key in ("r1", "r2"):
        if abs(values[key]) > MAX_SQUEEZE:
            raise RangeError(f"|{key}| = {abs(values[key])} exceeds {MAX_SQUEEZE:.6g}")
    # energy bounds the means' amplitude by m sqrt(max(1, lambda_max) / lambda_min), m
    # the norm of the initial means (the chain starts at rest); nu_bar2 bounds
    # lambda_max, and the stability check keeps lambda_min above DEFAULT_STABILITY_TOL
    m = math.hypot(values["x1"], values["x2"], values["p1"], values["p2"])
    m_max = MAX_AMPLITUDE * math.sqrt(DEFAULT_STABILITY_TOL / max(1.0, nu_bar2))
    if m > m_max:
        raise RangeError(f"initial means (x1, x2, p1, p2) have norm {m:.6g} > {m_max:.6g}")
    can_be_stable = K * K < (min(w1 * w1, w2 * w2) + lam) * (w0 * w0 + 2 * g)
    for key, limit in (("dt", math.pi / nu_bar), ("dt_cov", math.pi / (2 * nu_bar))):
        if can_be_stable and values[key] > limit:
            raise RangeError(f"{key}={values[key]} aliases the fastest mode (limit {limit:.6g})")
        if values["horizon"] / values[key] > MAX_SAMPLES:
            raise RangeError(
                f"horizon/{key} = {values['horizon'] / values[key]:.6g} exceeds "
                f"{MAX_SAMPLES} samples"
            )
        try:
            w, step, d = window_samples(window, stride, delay, values[key])
        except ValueError as exc:
            raise RangeError(f"{exc} ({key})") from None
        if not window_starts(round(values["horizon"] / values[key]) + 1, w, step, d):
            raise RangeError(f"delay {delay} and window {window} leave no window "
                             f"inside the horizon {values['horizon']} ({key})")
    if values["squeeze_axis"] not in ("position", "momentum"):
        raise RangeError(
            f"squeeze_axis must be 'position' or 'momentum', got {values['squeeze_axis']!r}"
        )
    out = values["out"]
    # config.txt echoes out verbatim: it must read back as the same text
    if (
        not isinstance(out, str)
        or out != out.strip()
        or "#" in out
        or len(out.splitlines()) != 1  # also rejects ""
    ):
        raise RangeError(
            f"out must be non-empty text without '#', line breaks or surrounding blanks, "
            f"got {out!r}"
        )
    M = network.M
    if values["sweep_stop"] == 0:
        values["sweep_stop"] = M
    if not (1 <= values["sweep_start"] <= values["sweep_stop"] <= M):
        raise RangeError(
            f"sweep range [{values['sweep_start']}, {values['sweep_stop']}] "
            f"invalid for M={M}"
        )
    if values["sweep_step"] < 1:
        raise RangeError(f"sweep_step must be >= 1, got {values['sweep_step']}")

    return ScenarioSpec(
        preset,
        network,
        probes,
        InitialConditions(**_section_fields(values, "initial")),
        MeasureConfig(**_section_fields(values, "measure")),
        RunConfig(**_section_fields(values, "run")),
    )


def format_config(spec: ScenarioSpec) -> str:
    """Resolved scenario as config text; parses back to the same spec."""
    flat = spec.flat()
    lines = [f"preset = {spec.preset}"]
    for section in SECTIONS:
        lines.append("")
        lines.append(f"[{section}]")
        for key, (key_section, _) in KEY_SPECS.items():
            if key_section == section:
                lines.append(f"{key} = {flat[key]}")
    return "\n".join(lines) + "\n"


_CSV_BLOCK_ROWS = 4096


def _fmt(x: float) -> str:
    return f"{x:.11e}"


@dataclass
class SimulationData:
    """In-memory trajectory bundle that ``simulate`` returns."""

    times: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    cov_times: np.ndarray
    var_x1: np.ndarray
    var_x2: np.ndarray
    sync_means: SyncSeries
    sync_vars: SyncSeries
    quantum: CorrelationReport | None
    rayleigh: RayleighReport
    min_eigenvalue: float
    modes: SystemModes
    covariance_basis: int | str
    covariance_leak: float


@dataclass
class RunRecord:
    """What a scenario run produced: files on disk plus summary metrics."""

    files: list
    summary: dict


def _initial_state(spec: ScenarioSpec):
    """The initial ``ProductState``: O(N) vectors and the network's
    config, with no dense covariance and no chain modes.  It does not
    depend on the probes' sites, so a sweep builds it once."""
    ini = spec.initial
    sign = 1.0 if ini.squeeze_axis == "position" else -1.0
    probe_covs = (
        squeezed_vacuum_local(spec.probes.omega1, sign * ini.r1),
        squeezed_vacuum_local(spec.probes.omega2, sign * ini.r2),
    )
    return product_state(((ini.x1, ini.p1), (ini.x2, ini.p2)), probe_covs, spec.network)


def _site_means(spec: ScenarioSpec, state):
    """The engine of one plugging of the probes, started in ``state`` (it
    diagonalizes), its mean grid, the means (X, P) and their sync series."""
    engine = NormalModeTrajectory(assemble_full_potential(spec.network, spec.probes), state)
    times = np.arange(int(round(spec.run.horizon / spec.run.dt)) + 1) * spec.run.dt
    X, P = engine.mean_series(times)
    meas = spec.measure
    sm = sync_series(times, X[:, 0], X[:, 1], meas.window, meas.stride, meas.delay)
    return engine, times, X, P, sm


def simulate(spec: ScenarioSpec) -> SimulationData:
    """Run the scenario in memory (no files)."""
    modes = system_modes(spec.probes, spec.network)
    engine, times, X, P, sm = _site_means(spec, _initial_state(spec))
    Q = X @ mode_rotation(modes.theta).T

    n_cov = int(round(spec.run.horizon / spec.run.dt_cov))
    cov_times = np.arange(n_cov + 1) * spec.run.dt_cov
    covs = engine.covariance_series(cov_times)

    meas = spec.measure
    sv = sync_series(
        cov_times, covs[:, 0, 0], covs[:, 1, 1], meas.window, meas.stride, meas.delay
    )
    quantum = correlation_report(cov_times, covs) if spec.run.write_quantum else None
    rayleigh = chain_rayleigh_report(spec.network, modes)
    return SimulationData(
        times=times,
        x1=X[:, 0], x2=X[:, 1], p1=P[:, 0], p2=P[:, 1],
        q1=Q[:, 0], q2=Q[:, 1],
        cov_times=cov_times,
        var_x1=covs[:, 0, 0], var_x2=covs[:, 1, 1],
        sync_means=sm, sync_vars=sv,
        quantum=quantum, rayleigh=rayleigh,
        min_eigenvalue=engine.min_eigenvalue,
        modes=modes,
        covariance_basis=engine.covariance_basis,
        covariance_leak=engine.covariance_leak,
    )


def _plateau_band(spec: ScenarioSpec):
    tau_r = revival_time(spec.network)
    hi = min(0.9 * tau_r, spec.run.horizon)
    return spec.run.horizon / 3.0, hi


def _nanmedian(values) -> float:
    """Median of the finite entries of a float array (nan if none): the
    middle sorted value, or half the sum of the middle two, as np.median
    takes it; np.median would import numpy.ma into every run."""
    values = np.sort(values[np.isfinite(values)])
    n = values.size
    return float(0.5 * (values[(n - 1) // 2] + values[n // 2])) if n else math.nan


def summarize(spec: ScenarioSpec, data: SimulationData) -> dict:
    """Deterministic headline metrics for the run record."""
    lo, hi = _plateau_band(spec)
    # variance window k pairs with mean window k (``run_scenario``)
    c_means, c_vars = data.sync_means.values, data.sync_vars.values
    n = min(c_means.size, c_vars.size)
    summary = {
        "revival_time": revival_time(spec.network),
        "cross_talk_time": revival_time(spec.network) / 2.0,
        "max_group_velocity": max_group_velocity(spec.network),
        "min_eigenvalue": data.min_eigenvalue,
        "covariance_basis": data.covariance_basis,
        # a round-off-level norm, printed at the two digits it carries
        "covariance_leak": f"{data.covariance_leak:.1e}",
        "plateau_band_lo": lo,
        "plateau_band_hi": hi,
        "c_means_plateau": _nanmedian(data.sync_means.in_band(lo, hi)),
        "c_vars_plateau": _nanmedian(data.sync_vars.in_band(lo, hi)),
        "degenerate_windows": int(np.isnan(c_means).sum() + np.isnan(c_vars[:n]).sum()),
        "unmatched_var_windows": c_means.size - n,
        # trailing variance windows with no mean window: not in sync.csv
        "dropped_var_windows": c_vars.size - n,
    }
    modes = data.modes
    summary["theta"] = modes.theta
    summary["Lambda1"] = modes.Lambda1
    summary["Lambda2"] = modes.Lambda2
    summary["ohmic_gap_ratio"] = ohmic_gap_ratio(modes.theta)
    if data.quantum is not None:
        band = (data.quantum.times >= lo) & (data.quantum.times <= hi)
        summary["E_plateau"] = _nanmedian(data.quantum.E[band])
        summary["MI_plateau"] = _nanmedian(data.quantum.MI[band])
    ray = data.rayleigh
    summary["rayleigh_gap"] = ray.gap
    summary["rayleigh_tau_S"] = ray.tau_S
    summary["rayleigh_ratio"] = ray.ratio
    summary["rayleigh_predicts_sync"] = ray.predicts_sync
    summary["rayleigh_commutator_norm"] = ray.commutator_norm
    return summary


def _write_csv(path: Path, header: str, columns) -> None:
    """Write equal-length columns as CSV rows: integer columns with
    ``%d``, all others as ``.11e``.

    Each block of rows is formatted by one ``%`` operation, which prints
    exactly what ``_fmt`` prints per value (nan, inf and -0.0 included);
    blocks bound the size of the text held in memory.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.11e" for c in columns) + "\n"
    table = np.column_stack(columns)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, table.shape[0], _CSV_BLOCK_ROWS):
            block = table[lo : lo + _CSV_BLOCK_ROWS]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def _record_text(fields) -> str:
    """``key = value`` lines: floats as ``.11e`` (inf and nan included),
    anything else by ``str``."""
    return "".join(f"{k} = {_fmt(v) if isinstance(v, float) else v}\n" for k, v in fields)


def _write_outputs(spec, out_dir, files, record_name, fields, summary) -> RunRecord:
    """Write config.txt, then ``files``, then the record file, into the
    output directory.

    ``files`` holds (name, content) pairs, content being text or the
    (header, columns) of a CSV.  The record starts with version,
    config_hash and preset, followed by ``fields``.  A failure while
    writing removes every file written before re-raising.
    """
    # hashlib loads OpenSSL, a few ms of every start-up that only writing needs
    import hashlib

    from . import __version__

    out = Path(out_dir if out_dir is not None else spec.run.out)
    config_text = format_config(spec)
    config_hash = hashlib.sha256(config_text.encode()).hexdigest()
    header = [("version", __version__), ("config_hash", config_hash), ("preset", spec.preset)]
    record = _record_text([*header, *fields])
    out.mkdir(parents=True, exist_ok=True)
    written: list = []
    try:
        for name, content in [("config.txt", config_text), *files, (record_name, record)]:
            path = out / name
            written.append(path)
            if isinstance(content, str):
                path.write_text(content)
            else:
                _write_csv(path, *content)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return RunRecord([str(p) for p in written], summary)


def run_scenario(spec: ScenarioSpec, out_dir=None) -> RunRecord:
    """Simulate and write the full artifact set into the output directory.

    Files: config.txt (resolved echo), means.csv, variances.csv, sync.csv,
    quantum.csv (optional), rayleigh.txt, record.txt.  A failure while
    writing removes the partial files before re-raising.
    """
    data = simulate(spec)
    summary = summarize(spec, data)
    # window k starts at k * stride on both grids (resolve_spec makes the
    # stride and delay whole multiples of dt and dt_cov); windows past the
    # end of the variance grid stay NaN
    sm, sv = data.sync_means, data.sync_vars
    c_vars = np.full(sm.values.size, math.nan)
    n = min(sm.values.size, sv.values.size)
    c_vars[:n] = sv.values[:n]
    files = [
        ("means.csv", ("t,x1,x2,p1,p2,q1,q2",
                       (data.times, data.x1, data.x2, data.p1, data.p2, data.q1, data.q2))),
        ("variances.csv", ("t,var_x1,var_x2", (data.cov_times, data.var_x1, data.var_x2))),
        ("sync.csv", ("t,c_means,c_vars", (sm.times, sm.values, c_vars))),
    ]
    if data.quantum is not None:
        rep = data.quantum
        files.append(
            ("quantum.csv", ("t,E,MI,S1,S2,S12", (rep.times, rep.E, rep.MI, rep.S1, rep.S2, rep.S12)))
        )
    ray = data.rayleigh
    files.append(("rayleigh.txt", _record_text([
        *((f"Gp_{i + 1}{j + 1}", ray.Gp[i, j]) for i in range(2) for j in range(2)),
        ("gap", ray.gap), ("tau_S", ray.tau_S), ("ratio", ray.ratio),
        ("predicts_sync", ray.predicts_sync), ("commutator_norm", ray.commutator_norm),
        ("revival_time", summary["revival_time"]),
    ])))
    names = ["config.txt", *(name for name, _ in files), "record.txt"]
    fields = [*((k, str(v)) for k, v in spec.flat().items()), *summary.items(),
              ("files", ",".join(names))]
    return _write_outputs(spec, out_dir, files, "record.txt", fields, summary)


def _sweep_one(spec: ScenarioSpec, state, site: int):
    """One sweep site: ("ok", the sync series of its means), or its
    ChainSyncError (an unstable form, say) as (status, None)."""
    try:
        sm = _site_means(replace(spec, probes=replace(spec.probes, site_n=site)), state)[-1]
    except ChainSyncError as exc:
        return f"{type(exc).__name__}: {exc}", None
    return "ok", sm


def sweep_plug_site(spec: ScenarioSpec, sites=None, workers: int = 1, out_dir=None) -> RunRecord:
    """Sweep the second probe's plugging site over distinct whole
    ``sites``, one after another from one initial state, and write the
    (site, t, C) grid.  A site's ChainSyncError is recorded in
    sweep_record.txt and the site skipped; other errors propagate.
    ``workers`` must be 1; the record keeps its ``workers = 1`` line.
    """
    if workers != 1:
        raise RangeError(f"workers must be 1 (sweeps run in one process), got {workers}")
    if spec.preset not in ("appB_sweep", "custom"):
        raise ConfigError(
            f"plug-site sweeps expect the appB_sweep or custom preset, got {spec.preset!r}"
        )
    if sites is None:
        sites = range(spec.run.sweep_start, spec.run.sweep_stop + 1, spec.run.sweep_step)
    sites = list(sites)
    for s in sites:
        if not float(s).is_integer():
            raise RangeError(f"sweep site {s} is not a whole number")
        if not 1 <= s <= spec.network.M:
            raise RangeError(f"sweep site {s} outside chain range [1, {spec.network.M}]")
    sites = [int(s) for s in sites]
    if len(set(sites)) != len(sites):
        raise RangeError(f"sweep sites repeat: {sites}")

    state = _initial_state(spec)
    results = {site: _sweep_one(spec, state, site) for site in sites}
    ok = [(site, sm) for site, (_, sm) in sorted(results.items()) if sm is not None]
    columns = (
        np.repeat(np.array([site for site, _ in ok], dtype=int), [sm.times.size for _, sm in ok]),
        np.concatenate([np.empty(0), *(sm.times for _, sm in ok)]),
        np.concatenate([np.empty(0), *(sm.values for _, sm in ok)]),
    )
    fields = [("workers", workers), *((f"site_{site}", results[site][0]) for site in sites)]
    summary = {"sites": len(sites), "failed_sites": len(sites) - len(ok)}
    return _write_outputs(
        spec, out_dir, [("sweep.csv", ("site,t,c", columns))], "sweep_record.txt", fields, summary
    )
