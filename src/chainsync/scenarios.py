"""Scenario presets, config parsing, and reproducible runs.

A scenario is resolved from a preset plus key overrides, simulated
exactly, and written out as CSV trajectories plus flat-text summaries.
Re-running an identical config produces byte-identical CSV bodies: all
numbers are serialized with 12 significant digits and there is no hidden
state (no clock, no RNG).
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, RangeError, UnknownKey
from .lattice import (
    NetworkConfig,
    ProbePair,
    assemble_full_potential,
    max_group_velocity,
    revival_time,
)
from .measures import (
    MIN_WINDOW_SAMPLES,
    CorrelationReport,
    SyncSeries,
    correlation_report,
    sync_series,
)
from .modes import (
    RayleighReport,
    SystemModes,
    chain_rayleigh_report,
    mode_rotation,
    ohmic_gap_ratio,
    system_modes,
)
from .dynamics import initial_composite_state, squeezed_vacuum_local
from .trajectory import NormalModeTrajectory

SECTIONS = ("network", "probes", "initial", "measure", "run")


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


# key -> (section, parser)
KEY_SPECS = {
    "M": ("network", _parse_int),
    "omega0": ("network", _parse_float),
    "g": ("network", _parse_float),
    "omega1": ("probes", _parse_float),
    "omega2": ("probes", _parse_float),
    "lambda": ("probes", _parse_float),
    "K": ("probes", _parse_float),
    "site_m": ("probes", _parse_int),
    "site_n": ("probes", _parse_int),
    "sign2": ("probes", _parse_int),
    "x1": ("initial", _parse_float),
    "x2": ("initial", _parse_float),
    "p1": ("initial", _parse_float),
    "p2": ("initial", _parse_float),
    "r1": ("initial", _parse_float),
    "r2": ("initial", _parse_float),
    "squeeze_axis": ("initial", _parse_str),
    "window": ("measure", _parse_float),
    "stride": ("measure", _parse_float),
    "delay": ("measure", _parse_float),
    "horizon": ("run", _parse_float),
    "dt": ("run", _parse_float),
    "dt_cov": ("run", _parse_float),
    "write_quantum": ("run", _parse_bool),
    "sweep_start": ("run", _parse_int),
    "sweep_stop": ("run", _parse_int),
    "sweep_step": ("run", _parse_int),
    "out": ("run", _parse_str),
}

# shared chain and defaults; "custom" is this set verbatim
DEFAULTS = {
    "M": 300,
    "omega0": 0.4,
    "g": 1.2,
    "omega1": 1.0,
    "omega2": 1.1,
    "lambda": 0.5,
    "K": 0.2,
    "site_m": 1,
    "site_n": 1,
    "sign2": 1,
    "x1": 0.14,
    "x2": 1.4,
    "p1": 0.0,
    "p2": 0.0,
    "r1": 0.0,
    "r2": 0.0,
    "squeeze_axis": "position",
    "window": 20.0,
    "stride": 2.0,
    "delay": 0.0,
    "horizon": 600.0,
    "dt": 0.02,
    "dt_cov": 0.2,
    "write_quantum": True,
    "sweep_start": 1,
    "sweep_stop": 0,  # 0 means "last chain site"
    "sweep_step": 1,
    "out": "out",
}

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
            key: getattr(getattr(self, section), "lam" if key == "lambda" else key)
            for key, (section, _) in KEY_SPECS.items()
        }


def read_config(text: str):
    """Parse config text into (preset, overrides) without resolving.

    Line-oriented ``key = value`` with ``[section]`` headers and ``#``
    comments; keys given before any header are looked up globally.
    """
    preset = None
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
        value = value.strip()
        if key == "preset":
            if value not in PRESETS:
                raise RangeError(
                    f"line {lineno}: unknown preset {value!r} "
                    f"(choose from {', '.join(sorted(PRESETS))})"
                )
            preset = value
            continue
        if key not in KEY_SPECS:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")
        key_section, parser = KEY_SPECS[key]
        if section is not None and section != key_section:
            raise UnknownKey(
                f"line {lineno}: key {key!r} belongs to [{key_section}], not [{section}]"
            )
        try:
            overrides[key] = parser(value)
        except ValueError as exc:
            raise ParseError(lineno, str(exc))
    return preset, overrides


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

    try:
        network = NetworkConfig(M=values["M"], omega0=values["omega0"], g=values["g"])
        probes = ProbePair(
            omega1=values["omega1"],
            omega2=values["omega2"],
            lam=values["lambda"],
            K=values["K"],
            site_m=values["site_m"],
            site_n=values["site_n"],
            sign2=values["sign2"],
        )
        probes.validate_sites(network.M)
    except ValueError as exc:
        raise RangeError(str(exc))
    for key in ("horizon", "dt", "dt_cov", "window", "stride"):
        if values[key] <= 0:
            raise RangeError(f"{key} must be positive, got {values[key]}")
    if values["K"] < 0:
        raise RangeError(f"K must be non-negative, got {values['K']}")
    # the sampling rules sync_series applies to the mean and variance grids
    window, stride, delay = values["window"], values["stride"], values["delay"]
    if values["horizon"] < window:
        raise RangeError(f"horizon {values['horizon']} is shorter than the window {window}")
    for key in ("dt", "dt_cov"):
        step = values[key]
        if round(window / step) + 1 < MIN_WINDOW_SAMPLES:
            raise RangeError(
                f"window {window} holds fewer than {MIN_WINDOW_SAMPLES} samples "
                f"at {key}={step}"
            )
        n_steps = round(stride / step)
        if n_steps < 1 or abs(stride - n_steps * step) > 1e-9 * stride:
            raise RangeError(f"stride {stride} is not a whole multiple of {key}={step}")
        if abs(delay - round(delay / step) * step) > 1e-9 * abs(delay):
            raise RangeError(f"delay {delay} is not a multiple of {key}={step}")
    if values["squeeze_axis"] not in ("position", "momentum"):
        raise RangeError(f"squeeze_axis must be 'position' or 'momentum'")
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

    initial = InitialConditions(
        values["x1"], values["x2"], values["p1"], values["p2"],
        values["r1"], values["r2"], values["squeeze_axis"],
    )
    measure = MeasureConfig(values["window"], values["stride"], values["delay"])
    run = RunConfig(
        values["horizon"], values["dt"], values["dt_cov"], values["write_quantum"],
        values["sweep_start"], values["sweep_stop"], values["sweep_step"], values["out"],
    )
    return ScenarioSpec(preset, network, probes, initial, measure, run)


def parse_config(text: str) -> ScenarioSpec:
    """Parse config text into a fully resolved scenario."""
    preset, overrides = read_config(text)
    return resolve_spec(preset, overrides)


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
    """In-memory trajectory bundle behind a RunRecord."""

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
    covariances: np.ndarray
    sync_means: SyncSeries
    sync_vars: SyncSeries
    quantum: CorrelationReport | None
    rayleigh: RayleighReport
    min_eigenvalue: float
    modes: SystemModes


@dataclass
class RunRecord:
    """What a scenario run produced: files on disk plus summary metrics."""

    spec: ScenarioSpec
    files: list
    summary: dict
    version: str
    config_hash: str
    data: SimulationData = field(default=None, repr=False)


def _prepare(spec: ScenarioSpec):
    """The trajectory engine of a scenario and its mean-sample grid.

    The initial state is not returned: its dense 2N x 2N covariance is
    freed once the engine has rotated it into normal coordinates.
    """
    cfg, probes, ini = spec.network, spec.probes, spec.initial
    qf = assemble_full_potential(cfg, probes)
    sign = 1.0 if ini.squeeze_axis == "position" else -1.0
    probe_covs = (
        squeezed_vacuum_local(probes.omega1, sign * ini.r1),
        squeezed_vacuum_local(probes.omega2, sign * ini.r2),
    )
    state = initial_composite_state(((ini.x1, ini.p1), (ini.x2, ini.p2)), probe_covs, cfg)
    engine = NormalModeTrajectory(qf, state)
    n = int(round(spec.run.horizon / spec.run.dt))
    return engine, np.arange(n + 1) * spec.run.dt


def simulate(spec: ScenarioSpec) -> SimulationData:
    """Run the scenario in memory (no files)."""
    cfg, probes = spec.network, spec.probes
    engine, times = _prepare(spec)
    X, P = engine.mean_series(times)
    modes = system_modes(probes, cfg)
    R = mode_rotation(modes.theta)
    Q = X @ R.T

    n_cov = int(round(spec.run.horizon / spec.run.dt_cov))
    cov_times = np.arange(n_cov + 1) * spec.run.dt_cov
    covs = engine.covariance_series(cov_times)

    meas = spec.measure
    sm = sync_series(times, X[:, 0], X[:, 1], meas.window, meas.stride, meas.delay)
    sv = sync_series(
        cov_times, covs[:, 0, 0], covs[:, 1, 1], meas.window, meas.stride, meas.delay
    )
    quantum = correlation_report(cov_times, covs) if spec.run.write_quantum else None
    rayleigh = chain_rayleigh_report(cfg, probes)
    return SimulationData(
        times=times,
        x1=X[:, 0], x2=X[:, 1], p1=P[:, 0], p2=P[:, 1],
        q1=Q[:, 0], q2=Q[:, 1],
        cov_times=cov_times,
        var_x1=covs[:, 0, 0], var_x2=covs[:, 1, 1],
        covariances=covs,
        sync_means=sm, sync_vars=sv,
        quantum=quantum, rayleigh=rayleigh,
        min_eigenvalue=engine.min_eigenvalue,
        modes=modes,
    )


def _plateau_band(spec: ScenarioSpec):
    tau_r = revival_time(spec.network)
    hi = min(0.9 * tau_r, spec.run.horizon)
    return spec.run.horizon / 3.0, hi


def _nanmedian(values) -> float:
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values)]
    return float(np.median(values)) if values.size else math.nan


def summarize(spec: ScenarioSpec, data: SimulationData) -> dict:
    """Deterministic headline metrics for the run record."""
    lo, hi = _plateau_band(spec)
    summary = {
        "revival_time": revival_time(spec.network),
        "cross_talk_time": revival_time(spec.network) / 2.0,
        "max_group_velocity": max_group_velocity(spec.network),
        "min_eigenvalue": data.min_eigenvalue,
        "plateau_band_lo": lo,
        "plateau_band_hi": hi,
        "c_means_plateau": _nanmedian(data.sync_means.in_band(lo, hi)),
        "c_vars_plateau": _nanmedian(data.sync_vars.in_band(lo, hi)),
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
    """Write equal-length columns as ``.11e`` CSV rows.

    Each block of rows is formatted by one ``%`` operation, which prints
    exactly what ``_fmt`` prints per value (nan, inf and -0.0 included);
    blocks bound the size of the text held in memory.
    """
    table = np.column_stack(columns)
    row = ",".join(["%.11e"] * table.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, table.shape[0], _CSV_BLOCK_ROWS):
            block = table[lo : lo + _CSV_BLOCK_ROWS]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def _matched_series(primary: SyncSeries, other: SyncSeries):
    """Values of ``other`` aligned on ``primary`` window starts (NaN when
    a start has no counterpart, e.g. incommensurate grids)."""
    lookup = {round(t, 9): v for t, v in zip(other.times, other.values)}
    return np.array([lookup.get(round(t, 9), math.nan) for t in primary.times])


def run_scenario(spec: ScenarioSpec, out_dir=None) -> RunRecord:
    """Simulate and write the full artifact set into the output directory.

    Files: config.txt (resolved echo), means.csv, variances.csv, sync.csv,
    quantum.csv (optional), rayleigh.txt, record.txt.  A failure while
    writing removes the partial files before re-raising.
    """
    from . import __version__

    out = Path(out_dir if out_dir is not None else spec.run.out)
    data = simulate(spec)
    summary = summarize(spec, data)
    config_text = format_config(spec)
    config_hash = hashlib.sha256(config_text.encode()).hexdigest()

    out.mkdir(parents=True, exist_ok=True)
    written: list = []

    def target(name: str) -> Path:
        path = out / name
        written.append(path)
        return path

    try:
        target("config.txt").write_text(config_text)
        _write_csv(
            target("means.csv"),
            "t,x1,x2,p1,p2,q1,q2",
            (data.times, data.x1, data.x2, data.p1, data.p2, data.q1, data.q2),
        )
        _write_csv(
            target("variances.csv"),
            "t,var_x1,var_x2",
            (data.cov_times, data.var_x1, data.var_x2),
        )
        _write_csv(
            target("sync.csv"),
            "t,c_means,c_vars",
            (
                data.sync_means.times,
                data.sync_means.values,
                _matched_series(data.sync_means, data.sync_vars),
            ),
        )
        if data.quantum is not None:
            rep = data.quantum
            _write_csv(
                target("quantum.csv"),
                "t,E,MI,S1,S2,S12",
                (rep.times, rep.E, rep.MI, rep.S1, rep.S2, rep.S12),
            )
        ray = data.rayleigh
        ray_lines = [
            f"Gp_11 = {_fmt(ray.Gp[0, 0])}",
            f"Gp_12 = {_fmt(ray.Gp[0, 1])}",
            f"Gp_21 = {_fmt(ray.Gp[1, 0])}",
            f"Gp_22 = {_fmt(ray.Gp[1, 1])}",
            f"gap = {_fmt(ray.gap)}",
            f"tau_S = {_fmt(ray.tau_S) if math.isfinite(ray.tau_S) else 'inf'}",
            f"ratio = {_fmt(ray.ratio) if math.isfinite(ray.ratio) else 'inf'}",
            f"predicts_sync = {ray.predicts_sync}",
            f"commutator_norm = {_fmt(ray.commutator_norm)}",
            f"revival_time = {_fmt(summary['revival_time'])}",
        ]
        target("rayleigh.txt").write_text("\n".join(ray_lines) + "\n")

        record_lines = [f"version = {__version__}", f"config_hash = {config_hash}",
                        f"preset = {spec.preset}"]
        for key, val in spec.flat().items():
            record_lines.append(f"{key} = {val}")
        for key, val in summary.items():
            if isinstance(val, float):
                record_lines.append(f"{key} = {_fmt(val) if math.isfinite(val) else val}")
            else:
                record_lines.append(f"{key} = {val}")
        record_lines.append("files = " + ",".join(p.name for p in written) + ",record.txt")
        target("record.txt").write_text("\n".join(record_lines) + "\n")
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise

    return RunRecord(
        spec=spec,
        files=[str(p) for p in written],
        summary=summary,
        version=__version__,
        config_hash=config_hash,
        data=data,
    )


def _sweep_one(args):
    """Single sweep point: returns (site, starts, values) or (site, error)."""
    flat, preset, site = args
    params = dict(flat)
    params["site_n"] = site
    try:
        spec = resolve_spec(preset, params)
        engine, times = _prepare(spec)
        X, _ = engine.mean_series(times)
        ss = sync_series(
            times, X[:, 0], X[:, 1],
            spec.measure.window, spec.measure.stride, spec.measure.delay,
        )
        return site, ss.times, ss.values
    except Exception as exc:  # per-site failures are recorded, not fatal
        return site, f"{type(exc).__name__}: {exc}"


def sweep_plug_site(spec: ScenarioSpec, sites=None, workers: int = 1, out_dir=None) -> RunRecord:
    """Sweep the second probe's plugging site and write the (site, t, C)
    grid.

    Sites that fail (for example an unstable configuration) are recorded
    in sweep_record.txt and skipped; the grid is byte-identical for any
    worker count.
    """
    from . import __version__

    if spec.preset not in ("appB_sweep", "custom"):
        raise ConfigError(
            f"plug-site sweeps expect the appB_sweep or custom preset, got {spec.preset!r}"
        )
    if sites is None:
        sites = range(spec.run.sweep_start, spec.run.sweep_stop + 1, spec.run.sweep_step)
    sites = [int(s) for s in sites]
    for s in sites:
        if not 1 <= s <= spec.network.M:
            raise RangeError(f"sweep site {s} outside chain range [1, {spec.network.M}]")

    flat = spec.flat()
    jobs = [(flat, spec.preset, s) for s in sites]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(job) for job in jobs]
    results.sort(key=lambda r: r[0])

    out = Path(out_dir if out_dir is not None else spec.run.out)
    out.mkdir(parents=True, exist_ok=True)
    config_text = format_config(spec)
    config_hash = hashlib.sha256(config_text.encode()).hexdigest()
    written: list = []
    statuses: dict = {}
    try:
        path = out / "sweep.csv"
        written.append(path)
        with open(path, "w", newline="") as fh:
            fh.write("site,t,c\n")
            for result in results:
                if len(result) == 2:
                    statuses[result[0]] = result[1]
                    continue
                site, starts, values = result
                statuses[site] = "ok"
                for t, c in zip(starts, values):
                    fh.write(f"{site:d},{_fmt(t)},{_fmt(c)}\n")
        cfg_path = out / "config.txt"
        written.append(cfg_path)
        cfg_path.write_text(config_text)
        rec_path = out / "sweep_record.txt"
        written.append(rec_path)
        rec_lines = [f"version = {__version__}", f"config_hash = {config_hash}",
                     f"preset = {spec.preset}", f"workers = {workers}"]
        for site in sites:
            rec_lines.append(f"site_{site} = {statuses.get(site, 'missing')}")
        rec_path.write_text("\n".join(rec_lines) + "\n")
    except BaseException:
        for p in written:
            p.unlink(missing_ok=True)
        raise

    n_failed = sum(1 for v in statuses.values() if v != "ok")
    summary = {"sites": len(sites), "failed_sites": n_failed}
    return RunRecord(
        spec=spec,
        files=[str(p) for p in written],
        summary=summary,
        version=__version__,
        config_hash=config_hash,
    )
