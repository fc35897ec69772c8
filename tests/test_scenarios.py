import dataclasses
import hashlib
import math
import os
import re

import numpy as np
import pytest

from chainsync import (
    PRESETS,
    InstabilityError,
    NetworkConfig,
    ParseError,
    RangeError,
    UncertaintyViolation,
    UnknownKey,
    assemble_full_potential,
    check_stability,
    format_config,
    initial_composite_state,
    resolve_spec,
    run_scenario,
    simulate,
    sweep_plug_site,
    sync_series,
)
from chainsync import dynamics, lattice, modes, scenarios, trajectory
from chainsync.cli import main
from chainsync.errors import ConfigError
from chainsync.scenarios import MAX_SAMPLES, MAX_SITES, read_config

from oracles import scan_delayed_sync, sweep_csv_text

SMALL = {"M": 24, "horizon": 60.0, "site_n": 1}


def test_preset_fig2_parameters():
    spec = resolve_spec(*read_config("preset = fig2_dissipation\n"))
    assert spec.network.M == 300
    assert spec.network.omega0 == 0.4
    assert spec.network.g == 1.2
    assert spec.probes.omega2 == 1.1
    assert spec.probes.lam == 0.5
    assert spec.probes.K == 0.2
    assert (spec.probes.site_m, spec.probes.site_n) == (1, 1)
    assert (spec.initial.x1, spec.initial.x2) == (0.14, 1.4)
    assert (spec.initial.p1, spec.initial.p2) == (0.0, 0.0)
    assert spec.run.horizon == 1200.0


def test_preset_table():
    fig4 = resolve_spec("fig4_edges")
    assert (fig4.probes.site_m, fig4.probes.site_n) == (1, 300)
    assert fig4.probes.lam == 0.0 and fig4.probes.K == 0.2
    assert (fig4.initial.x1, fig4.initial.x2) == (1.4, 1.4)
    fig5 = resolve_spec("fig5_entanglement_common")
    assert fig5.probes.omega2 == 1.2 and fig5.probes.K == 0.8
    assert (fig5.initial.r1, fig5.initial.r2) == (2.0, 2.0)
    fig6 = resolve_spec("fig6_mi_edges")
    assert fig6.probes.K == 0.2 and fig6.probes.site_n == 300
    appb = resolve_spec("appB_sweep")
    assert appb.probes.K == 0.06 and appb.probes.lam == 0.5
    assert appb.run.sweep_stop == 300


def test_override_on_preset():
    spec = resolve_spec(*read_config("preset = fig3_common_node\nK = 0.1\n"))
    assert spec.probes.K == 0.1
    assert spec.probes.lam == 0.0  # preset value kept


def test_sectioned_config_with_comments():
    text = """
# a scenario
preset = fig2_dissipation

[network]
M = 40          # downscaled
omega0 = 0.4

[run]
horizon = 80.0
"""
    spec = resolve_spec(*read_config(text))
    assert spec.network.M == 40
    assert spec.run.horizon == 80.0
    assert spec.probes.lam == 0.5


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        resolve_spec(*read_config("preset = fig2_dissipation\nK 3\n"))
    assert err.value.lineno == 2
    with pytest.raises(ParseError) as err:
        resolve_spec(*read_config("[chain]\n"))
    assert err.value.lineno == 1
    with pytest.raises(ParseError):
        resolve_spec(*read_config("M = twelve\n"))


def test_unknown_keys_are_errors():
    with pytest.raises(UnknownKey):
        resolve_spec(*read_config("coupling = 3\n"))
    with pytest.raises(UnknownKey):
        resolve_spec(*read_config("[network]\nK = 0.2\n"))  # K lives in [probes]
    with pytest.raises(UnknownKey):
        resolve_spec("custom", {"nope": 1})


def test_range_errors():
    with pytest.raises(RangeError):
        resolve_spec(*read_config("site_m = 0\n"))
    with pytest.raises(RangeError):
        resolve_spec(*read_config("site_n = 301\n"))
    with pytest.raises(RangeError):
        resolve_spec(*read_config("M = 1\n"))
    with pytest.raises(RangeError):
        resolve_spec(*read_config("dt = 0\n"))
    with pytest.raises(RangeError):
        resolve_spec(*read_config("sign2 = 3\n"))
    with pytest.raises(RangeError):
        resolve_spec(*read_config("preset = fig7\n"))
    with pytest.raises(RangeError):
        resolve_spec("custom", {"sweep_start": 10, "sweep_stop": 5})
    with pytest.raises(RangeError):
        resolve_spec("custom", {"squeeze_axis": "diagonal"})
    # windows shorter than sync_series accepts, on either sample grid
    with pytest.raises(RangeError):
        resolve_spec(*read_config("window = 1.0\n"))
    with pytest.raises(RangeError):
        resolve_spec(*read_config("dt = 5\n"))
    # a stride off the dt_cov grid would leave c_vars unmatched (NaN)
    with pytest.raises(RangeError):
        resolve_spec(*read_config("dt_cov = 0.3\n"))
    # a delay off either sample grid (sync_series would raise ValueError)
    with pytest.raises(RangeError):
        resolve_spec(*read_config("delay = 0.03\n"))
    with pytest.raises(RangeError):
        resolve_spec(*read_config("delay = 0.1\n"))
    assert resolve_spec(*read_config("delay = -0.4\n")).measure.delay == -0.4
    # no whole window fits: header-only sync.csv and NaN plateaus
    with pytest.raises(RangeError):
        resolve_spec(*read_config("horizon = 15\n"))
    assert resolve_spec(*read_config("horizon = 20\n")).run.horizon == 20.0


def test_non_finite_values_are_range_errors():
    for key in ("window", "dt", "K", "g", "omega0", "lambda", "horizon", "x1", "delay", "r2"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(RangeError, match="finite"):
                resolve_spec("custom", {"M": 20, "horizon": 60.0, key: bad})


def _nu_max(spec):
    V = assemble_full_potential(spec.network, spec.probes).V
    return math.sqrt(np.linalg.eigvalsh(V)[-1])


def test_steps_beyond_the_fastest_mode_are_rejected():
    # dt above pi/nu_max aliases the means, dt_cov above pi/(2 nu_max) the
    # variances; the bound is checked without diagonalizing V
    with pytest.raises(RangeError, match="aliases"):
        resolve_spec("custom", {"dt": 2.0})
    with pytest.raises(RangeError, match="aliases"):
        resolve_spec("custom", {"dt_cov": 1.0})
    rng = np.random.default_rng(11)
    specs = [resolve_spec(p, {"M": 40, "site_n": 40 if "edges" in p else 1}) for p in PRESETS]
    while len(specs) < len(PRESETS) + 12:
        w1, w2 = rng.uniform(0.2, 3.0, 2)
        values = {
            "M": int(rng.integers(2, 40)), "omega0": rng.uniform(0.0, 2.0),
            "g": rng.uniform(0.1, 3.0), "omega1": w1, "omega2": w2,
            "lambda": rng.uniform(0.0, 1.0), "K": rng.uniform(0.0, 1.5),
            "dt": 0.001, "dt_cov": 0.001, "window": 0.1, "stride": 0.01,
        }
        values["site_n"] = int(rng.integers(1, values["M"] + 1))
        spec = resolve_spec("custom", values)
        try:
            check_stability(assemble_full_potential(spec.network, spec.probes))
        except InstabilityError:
            continue
        specs.append(spec)
    for spec in specs:
        flat = spec.flat()
        nu_max = _nu_max(spec)
        for key, limit in (("dt", math.pi / nu_max), ("dt_cov", math.pi / (2 * nu_max))):
            with pytest.raises(RangeError, match="aliases"):
                resolve_spec(spec.preset, dict(flat, **{key: 1.0001 * limit}))



def test_chain_sizes_above_the_ceiling_are_range_errors():
    assert resolve_spec("custom", {"M": MAX_SITES}).network.M == MAX_SITES
    for M in (MAX_SITES + 1, 1_000_000):
        with pytest.raises(RangeError, match=f"M={M} exceeds {MAX_SITES}"):
            resolve_spec("custom", {"M": M})


def test_sample_counts_above_the_ceiling_are_range_errors():
    for name in PRESETS:
        spec = resolve_spec(name)
        for step in (spec.run.dt, spec.run.dt_cov):
            assert spec.run.horizon / step <= MAX_SAMPLES
    for key in ("dt", "dt_cov"):
        with pytest.raises(RangeError, match=f"horizon/{key}"):
            resolve_spec("custom", {key: 600.0 / (1.01 * MAX_SAMPLES)})
    with pytest.raises(RangeError, match="exceeds"):
        resolve_spec("custom", {"horizon": 1e9})


@pytest.mark.parametrize(
    "out", ["runs/a#1", "", " runs", "runs ", "runs\n/a", "a\rb", "\r", "a\u2028b", "\t"]
)
def test_out_that_the_config_echo_cannot_carry_is_a_range_error(out):
    with pytest.raises(RangeError, match="out must be"):
        resolve_spec("custom", {"out": out})


def test_out_with_inner_blanks_and_equals_signs_round_trips():
    spec = resolve_spec("custom", {"out": "my runs/a=b [1]"})
    assert resolve_spec(*read_config(format_config(spec))) == spec

def test_c_vars_matches_variance_windows_by_start(tmp_path):
    for delay in (-2.0, 0.6, 4.0):
        for horizon in (219.9, 219.3, 201.0):
            spec = resolve_spec("fig2_dissipation", dict(
                SMALL, horizon=horizon, delay=delay, write_quantum=False
            ))
            run_scenario(spec, out_dir=tmp_path)
            data, meas = simulate(spec), spec.measure
            ref = sync_series(data.cov_times, data.var_x1, data.var_x2,
                              meas.window, meas.stride, meas.delay)
            rows = (tmp_path / "sync.csv").read_text().splitlines()[1:]
            assert len(rows) == data.sync_means.times.size > 0
            for row in rows:
                t, _, c_vars = row.split(",")
                hit = np.flatnonzero(np.isclose(ref.times, float(t), rtol=0, atol=1e-9))
                expected = ref.values[hit[0]] if hit.size else math.nan
                assert c_vars == f"{expected:.11e}", (delay, horizon, t)


def test_sweep_csv_matches_per_row_oracle(tmp_path):
    # K = 1.0 leaves the shared site 1 and site 2 unstable, the others stable
    spec = resolve_spec("appB_sweep", {"M": 24, "horizon": 40.0, "K": 1.0})
    record = sweep_plug_site(spec, sites=[5, 1, 3], out_dir=tmp_path / "some")
    assert record.summary == {"sites": 3, "failed_sites": 1}
    rows = []
    for site in (3, 5):
        ss = simulate(resolve_spec("appB_sweep", dict(spec.flat(), site_n=site))).sync_means
        rows.append((site, ss.times, ss.values))
    assert (tmp_path / "some" / "sweep.csv").read_text() == sweep_csv_text(rows)
    status = (tmp_path / "some" / "sweep_record.txt").read_text().splitlines()[4:]
    assert status[0] == "site_5 = ok" and status[2] == "site_3 = ok"
    assert status[1].startswith("site_1 = InstabilityError")

    failed = resolve_spec("appB_sweep", {"M": 24, "horizon": 40.0, "K": 50.0})
    record = sweep_plug_site(failed, sites=[2, 3], out_dir=tmp_path / "none")
    assert record.summary["failed_sites"] == 2
    assert (tmp_path / "none" / "sweep.csv").read_text() == sweep_csv_text([])


def test_config_roundtrip():
    spec = resolve_spec(
        "fig5_entanglement_common", {"M": 30, "site_n": 1, "horizon": 10.0, "window": 2.0}
    )
    assert resolve_spec(*read_config(format_config(spec))) == spec


def test_run_scenario_writes_artifacts(tmp_path):
    spec = resolve_spec("fig2_dissipation", SMALL)
    record = run_scenario(spec, out_dir=tmp_path)
    names = {p.split("/")[-1] for p in record.files}
    assert names == {
        "config.txt", "means.csv", "variances.csv", "sync.csv",
        "quantum.csv", "rayleigh.txt", "record.txt",
    }
    for path in record.files:
        assert os.path.getsize(path) > 0
    header = (tmp_path / "means.csv").read_text().splitlines()[0]
    assert header == "t,x1,x2,p1,p2,q1,q2"
    assert (tmp_path / "variances.csv").read_text().splitlines()[0] == "t,var_x1,var_x2"
    assert (tmp_path / "sync.csv").read_text().splitlines()[0] == "t,c_means,c_vars"
    assert (tmp_path / "quantum.csv").read_text().splitlines()[0] == "t,E,MI,S1,S2,S12"
    record_text = (tmp_path / "record.txt").read_text()
    assert "revival_time = 4.80000000000e+01" in record_text
    config_hash = hashlib.sha256(format_config(spec).encode()).hexdigest()
    assert f"config_hash = {config_hash}" in record_text
    # the dimension of the covariance basis, deterministic
    assert re.search(r"^covariance_basis = \d+$", record_text, re.M)
    # the echoed config parses back to the same spec
    assert resolve_spec(*read_config((tmp_path / "config.txt").read_text())) == spec


def test_rerun_is_byte_identical(tmp_path):
    spec = resolve_spec("fig2_dissipation", SMALL)
    run_scenario(spec, out_dir=tmp_path / "a")
    run_scenario(spec, out_dir=tmp_path / "b")
    for name in ("means.csv", "variances.csv", "sync.csv", "quantum.csv", "record.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_record_shows_how_close_the_basis_came_to_the_whole_space(tmp_path, monkeypatch):
    spec = resolve_spec("fig2_dissipation", SMALL)
    N = spec.network.M + 2
    cut = trajectory._LEAK_GAIN * N**2 * np.finfo(float).eps

    def basis_and_leak(out):
        run_scenario(spec, out_dir=out)
        text = (out / "record.txt").read_text()
        basis = re.search(r"^covariance_basis = (\S+)$", text, re.M).group(1)
        return basis, float(re.search(r"^covariance_leak = (\S+)$", text, re.M).group(1))

    basis, leak = basis_and_leak(tmp_path / "a")
    assert basis.isdigit() and 0.0 < leak <= cut
    # two shifts leave the grid far from converged: the leak says so, and
    # the run takes the whole space
    monkeypatch.setattr(trajectory, "_SHIFTS", 2)
    basis, leak = basis_and_leak(tmp_path / "b")
    assert basis == "full" and leak > cut


def test_quantum_csv_optional(tmp_path):
    spec = resolve_spec("fig2_dissipation", dict(SMALL, write_quantum=False))
    record = run_scenario(spec, out_dir=tmp_path)
    assert not (tmp_path / "quantum.csv").exists()
    assert "E_plateau" not in record.summary


def test_decoupled_probes_oscillating_sync():
    # K = 0: no dissipation channel, the windowed correlation never settles
    spec = resolve_spec("custom", {"M": 24, "K": 0.0, "horizon": 200.0})
    data = simulate(spec)
    values = data.sync_means.values[np.isfinite(data.sync_means.values)]
    signs = np.sign(values)
    assert np.sum(signs[1:] != signs[:-1]) >= 2
    assert np.max(np.abs(values)) < 0.9  # never locks
    # no dissipation channel: the probe oscillation does not decay
    early = np.sqrt(np.mean(data.x1[data.times < 20.0] ** 2))
    late = np.sqrt(np.mean(data.x1[data.times > 180.0] ** 2))
    assert late > 0.5 * early


def test_squeezed_scenario_sync_on_variances():
    spec = resolve_spec(
        "fig5_entanglement_common", {"M": 24, "site_n": 1, "horizon": 60.0}
    )
    data = simulate(spec)
    # zero-mean squeezed vacuum: mean-based windows are all degenerate
    assert not np.any(np.isfinite(data.sync_means.values))
    assert np.all(np.isfinite(data.sync_vars.values))
    assert data.quantum is not None
    assert np.all(data.quantum.E >= 0.0)
    assert np.all(data.quantum.MI >= 0.0)


def test_record_counts_degenerate_and_unmatched_windows(tmp_path):
    # zero-mean squeezed vacuum: every c_means window is degenerate, every
    # variance window is not, and the two grids pair up window for window
    spec = resolve_spec("fig5_entanglement_common", {"M": 24, "horizon": 60.0})
    record = run_scenario(spec, out_dir=tmp_path / "a")
    rows = np.loadtxt(tmp_path / "a" / "sync.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == 21 and np.all(np.isnan(rows[:, 1])) and np.all(np.isfinite(rows[:, 2]))
    assert record.summary["degenerate_windows"] == 21
    assert record.summary["unmatched_var_windows"] == 0
    assert record.summary["dropped_var_windows"] == 0
    text = (tmp_path / "a" / "record.txt").read_text()
    assert (
        "\ndegenerate_windows = 21\nunmatched_var_windows = 0\ndropped_var_windows = 0\n" in text
    )
    # a coarse mean grid ends at 62.0 and the variance grid at 61.5, so the
    # last mean window has no variance window: its c_vars is NaN, not degenerate
    spec = resolve_spec(
        "fig5_entanglement_common", {"M": 24, "horizon": 61.6, "dt": 1.0, "dt_cov": 0.5}
    )
    record = run_scenario(spec, out_dir=tmp_path / "b")
    rows = np.loadtxt(tmp_path / "b" / "sync.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == 22 and np.isnan(rows[-1, 2])
    assert record.summary["degenerate_windows"] == 22
    assert record.summary["unmatched_var_windows"] == 1
    assert record.summary["dropped_var_windows"] == 0


def test_record_counts_dropped_variance_windows(tmp_path):
    # the variance grid rounds up to 62.0 while the mean grid ends at 61.9,
    # so the last of 22 variance windows has no mean window and no row in
    # sync.csv
    spec = resolve_spec("fig5_entanglement_common", {"M": 24, "horizon": 61.9})
    record = run_scenario(spec, out_dir=tmp_path)
    rows = np.loadtxt(tmp_path / "sync.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == 21 and np.all(np.isfinite(rows[:, 2]))
    assert record.summary["unmatched_var_windows"] == 0
    assert record.summary["dropped_var_windows"] == 1
    text = (tmp_path / "record.txt").read_text()
    assert "\nunmatched_var_windows = 0\ndropped_var_windows = 1\n" in text


def test_a_bad_probe_covariance_fails_the_run_path_as_the_dense_state(monkeypatch):
    bad = np.diag([0.1, 0.1])
    spec = resolve_spec("custom", SMALL)
    with pytest.raises(UncertaintyViolation) as dense:
        initial_composite_state(((0.0, 0.0), (0.0, 0.0)), (bad, bad), spec.network)
    monkeypatch.setattr(scenarios, "squeezed_vacuum_local", lambda omega, r: bad)
    with pytest.raises(UncertaintyViolation) as run:
        simulate(spec)
    assert str(run.value) == str(dense.value)


def test_momentum_squeeze_axis_flag():
    short = {"M": 12, "horizon": 5.0, "window": 2.0, "r1": 1.0, "r2": 1.0}
    pos = simulate(resolve_spec("custom", short))
    mom = simulate(resolve_spec("custom", dict(short, squeeze_axis="momentum")))
    assert pos.var_x1[0] == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-12)
    assert mom.var_x1[0] == pytest.approx(math.exp(2.0) / 2.0, rel=1e-12)


def test_asymmetric_edges_delayed_synchronization():
    # asymmetric initial kicks leave the zero-delay correlation low in the
    # cross-talk band; scanning the delay over one beat period restores it
    spec = resolve_spec(
        "fig4_edges",
        {"x1": 2.0, "x2": 2.0, "p1": 0.0, "p2": 10.0, "window": 60.0, "write_quantum": False},
    )
    data = simulate(spec)
    band = (320.0, 520.0)
    plain = data.sync_means.in_band(*band)
    plain = plain[np.isfinite(plain)]
    assert np.max(np.abs(plain)) < 0.5
    beat = 2 * np.pi / (spec.probes.omega2 - spec.probes.omega1)
    delays = np.arange(-np.floor(beat), np.floor(beat) + 1e-9, 2.0)
    _, best_c, _ = scan_delayed_sync(data.times, data.x1, data.x2, 60.0, 2.0, delays, band=band)
    assert best_c > 0.9


def test_sweep_single_site_matches_run(tmp_path):
    spec = resolve_spec("appB_sweep", {"M": 24, "horizon": 40.0, "site_n": 5})
    record = sweep_plug_site(spec, sites=[5], out_dir=tmp_path)
    assert record.summary == {"sites": 1, "failed_sites": 0}
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "site,t,c"
    data = simulate(spec)
    expected = data.sync_means
    assert len(rows) - 1 == expected.times.size
    got_c = np.array([float(r.split(",")[2]) for r in rows[1:]])
    assert np.allclose(got_c, expected.values, rtol=1e-12)


def test_sweep_rows_equal_simulate_bit_for_bit(tmp_path):
    # every site of one sweep, from the shared initial state, against a
    # scenario run of that site on its own
    spec = resolve_spec("appB_sweep", {"M": 24, "horizon": 40.0})
    sweep_plug_site(spec, sites=range(3, 9), out_dir=tmp_path)
    state = scenarios._initial_state(spec)
    rows = []
    for site in range(3, 9):
        ss = simulate(resolve_spec("appB_sweep", dict(spec.flat(), site_n=site))).sync_means
        status, got = scenarios._sweep_one(spec, state, site)
        assert status == "ok"
        assert got.times.tobytes() == ss.times.tobytes()
        assert got.values.tobytes() == ss.values.tobytes()
        rows.append((site, ss.times, ss.values))
    assert (tmp_path / "sweep.csv").read_text() == sweep_csv_text(rows)


def test_a_sweep_builds_the_chain_and_initial_state_once(tmp_path, monkeypatch):
    # one initial state, and sweep sites read means only: nothing asks for
    # the chain's whole M x M mode matrix, only for rows or (with no sites)
    # the frequencies
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append((fn.__name__, args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(scenarios, "product_state", counted(scenarios.product_state))
    chain_normal_modes = counted(lattice.chain_normal_modes)
    for module in (lattice, dynamics, modes, trajectory, scenarios):
        if hasattr(module, "chain_normal_modes"):
            monkeypatch.setattr(module, "chain_normal_modes", chain_normal_modes)

    def no_resolve(*args, **kwargs):
        raise AssertionError("a sweep site resolved the spec again")

    spec = resolve_spec("appB_sweep", {"M": 24, "horizon": 40.0})
    monkeypatch.setattr(scenarios, "resolve_spec", no_resolve)
    for sites in ([4], range(1, 25, 3)):
        calls.clear()
        record = sweep_plug_site(spec, sites=sites, out_dir=tmp_path)
        assert record.summary["failed_sites"] == 0
        assert [name for name, _, _ in calls].count("product_state") == 1
        whole = [
            args for name, args, kwargs in calls
            if name == "chain_normal_modes" and len(args) < 2 and "sites" not in kwargs
        ]
        assert whole == []


def test_a_program_error_inside_a_site_propagates(tmp_path, monkeypatch):
    # only a ChainSyncError is a site's status; anything else is a bug
    real = scenarios.assemble_full_potential

    def broken(network, probes):
        if probes.site_n == 5:
            raise ZeroDivisionError("site 5")
        return real(network, probes)

    monkeypatch.setattr(scenarios, "assemble_full_potential", broken)
    spec = resolve_spec("appB_sweep", {"M": 24, "horizon": 40.0})
    with pytest.raises(ZeroDivisionError, match="site 5"):
        sweep_plug_site(spec, sites=[3, 5, 7], out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sites, message", [
    ([3.7], "sweep site 3.7 is not a whole number"),
    ([2, float("nan")], "sweep site nan is not a whole number"),
    ([5, 5], r"sweep sites repeat: \[5, 5\]"),
    ([3, 4.0, 4], r"sweep sites repeat: \[3, 4, 4\]"),
])
def test_sweep_rejects_fractional_and_repeated_sites(tmp_path, sites, message):
    spec = resolve_spec("appB_sweep", {"M": 20, "horizon": 40.0})
    with pytest.raises(RangeError, match=message):
        sweep_plug_site(spec, sites=sites, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [2, 0])
def test_sweep_runs_in_one_process_only(tmp_path, workers):
    spec = resolve_spec("appB_sweep", {"M": 20, "horizon": 40.0})
    with pytest.raises(RangeError, match="sweeps run in one process"):
        sweep_plug_site(spec, sites=[3], workers=workers, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()
    sweep_plug_site(spec, sites=[3], workers=1, out_dir=tmp_path / "out")
    assert "workers = 1\nsite_3 = ok\n" in (tmp_path / "out" / "sweep_record.txt").read_text()


def test_sweep_records_failures_and_continues(tmp_path):
    # K far beyond the stability bound: every site fails, the sweep still completes
    spec = resolve_spec("appB_sweep", {"M": 24, "horizon": 40.0, "K": 50.0})
    record = sweep_plug_site(spec, sites=[2, 3], out_dir=tmp_path)
    assert record.summary["failed_sites"] == 2
    body = (tmp_path / "sweep_record.txt").read_text()
    assert "site_2 = InstabilityError" in body
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows == ["site,t,c"]


def test_sweep_requires_sweepable_preset():
    spec = resolve_spec("fig3_common_node", {"M": 24})
    with pytest.raises(ConfigError):
        sweep_plug_site(spec, sites=[1])
    with pytest.raises(RangeError):
        sweep_plug_site(resolve_spec("appB_sweep", {"M": 24}), sites=[30])


def test_one_diagonalization_per_run_and_site(tmp_path, monkeypatch):
    # the composite form is solved from the chain's closed-form modes, so
    # no N x N eigh or eigvalsh runs on a run, a sweep or a validation
    calls, shapes = [], []

    def counting(fn):
        def counted(a, *args, **kwargs):
            calls.append(fn.__name__)
            shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)

        return counted

    eigvalsh = np.linalg.eigvalsh
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    spec = resolve_spec("fig2_dissipation", SMALL)
    data = simulate(spec)
    assert calls == []
    qf = assemble_full_potential(spec.network, spec.probes)
    assert data.min_eigenvalue == pytest.approx(eigvalsh(qf.V)[0], rel=1e-12)
    assert check_stability(qf) == pytest.approx(data.min_eigenvalue, rel=1e-12)

    sweep = resolve_spec("appB_sweep", {"M": 24, "horizon": 40.0})
    sweep_plug_site(sweep, sites=[3, 4, 5], out_dir=tmp_path)
    assert main(["validate", "--set", "preset=fig2_dissipation", "--set", "M=24"]) == 0
    assert calls == []

    # a custom network: one eigh of its chain, for the initial state and
    # the probe modes, and none of the composite form
    rng = np.random.default_rng(4)
    A = np.triu(rng.uniform(0.0, 1.5, size=(12, 12)) * (rng.random((12, 12)) < 0.5), 1)
    spec = resolve_spec("custom", {"M": 12, "horizon": 60.0, "site_n": 7})
    network = NetworkConfig(M=12, omega0=0.4, g=1.2, coupling_matrix=A + A.T)
    simulate(dataclasses.replace(spec, network=network))
    assert calls == ["eigh"] and shapes == [(12, 12)]
    # a second run of the same network reuses its chain's modes
    calls.clear()
    simulate(dataclasses.replace(spec, network=network))
    assert calls == []


def test_csv_writer_matches_per_value_formatter(tmp_path):
    from chainsync.scenarios import _write_csv

    def per_value(path, header, columns):
        # the writer's reference: one f-string per value
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            for row in zip(*columns):
                fh.write(",".join(f"{x:.11e}" for x in row) + "\n")

    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300, -1e-300, 5e-324]
    rng = np.random.default_rng(4)
    for rows in (1, 4096, 4097):
        table = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(rows, 3))
        table.flat[: min(table.size, len(special))] = special[: table.size]
        columns = (np.arange(rows) * 0.02, *table.T)
        _write_csv(tmp_path / "block.csv", "t,a,b,c", columns)
        per_value(tmp_path / "ref.csv", "t,a,b,c", columns)
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
