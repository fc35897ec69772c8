"""Property tests: the config echo round trip, fuzzes of
``validate --set KEY=TEXT`` and ``run --set ...``, the composite modes and
the stability check of random assembled forms, and the trajectory engine
on random stable quadratic forms."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from chainsync import (
    GaussianState,
    InstabilityError,
    NetworkConfig,
    NormalModeTrajectory,
    ProbePair,
    QuadraticForm,
    assemble_full_potential,
    check_stability,
    evolve,
    format_config,
    mean_energy,
    propagator,
    reduce,
    resolve_spec,
    squeezed_vacuum_local,
)
from chainsync.cli import main
from chainsync.errors import ConfigError, RangeError
from chainsync.lattice import DEFAULT_STABILITY_TOL
from chainsync.scenarios import KEY_SPECS, PRESETS, read_config

from oracles import symplectic_defect

FAST = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def configs(draw):
    """(preset, overrides) that resolve once ``out`` is a plain word; ``out``
    itself is any text."""
    M = draw(st.integers(2, 64))
    dt = draw(st.sampled_from([0.01, 0.02, 0.05]))
    dt_cov = dt * draw(st.integers(1, 4))
    stride = dt_cov * draw(st.integers(1, 5))
    positive = st.floats(0.05, 3.0)
    overrides = {
        "M": M,
        "omega0": draw(st.floats(0.0, 2.0)),
        "g": draw(positive),
        "omega1": draw(positive),
        "omega2": draw(positive),
        "lambda": draw(st.floats(0.0, 1.0)),
        "K": draw(st.floats(0.0, 1.0)),
        "site_m": draw(st.integers(1, M)),
        "site_n": draw(st.integers(1, M)),
        "sign2": draw(st.sampled_from([1, -1])),
        "x1": draw(st.floats(-5.0, 5.0)),
        "p2": draw(st.floats(-5.0, 5.0)),
        "r1": draw(st.floats(-2.0, 2.0)),
        "squeeze_axis": draw(st.sampled_from(["position", "momentum"])),
        "dt": dt,
        "dt_cov": dt_cov,
        "stride": stride,
        "window": stride * draw(st.integers(4, 20)),
        "delay": dt_cov * draw(st.integers(-50, 50)),
        "horizon": draw(st.floats(50.0, 500.0)),
        "write_quantum": draw(st.booleans()),
        "sweep_start": 1,
        "sweep_stop": draw(st.integers(0, M)),
        "out": draw(st.text(max_size=12)),
    }
    preset = draw(st.sampled_from(sorted(PRESETS)))
    try:
        resolve_spec(preset, dict(overrides, out="out"))
    except ConfigError:
        assume(False)
    return preset, overrides


def _echoed_out(out):
    """``out`` as read back from its config line, or None if unreadable."""
    try:
        return read_config(f"out = {out}\n")[1].get("out")
    except ConfigError:
        return None


@FAST
@given(configs())
def test_config_echo_round_trips(config):
    preset, overrides = config
    try:
        spec = resolve_spec(preset, overrides)
    except RangeError:
        # only an out that is empty or that its config line cannot carry
        out = overrides["out"]
        assert out == "" or _echoed_out(out) != out
        return
    assert resolve_spec(*read_config(format_config(spec))) == spec


_TEXT = st.one_of(
    st.text(max_size=12),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "1.7e308", "-0.0", "0", "true", "momentum"]),
)


def _chain_size(key, text):
    try:
        return int(text) if key.strip() == "M" else 0
    except ValueError:
        return 0


# M is kept to at most 64: validate assembles the (M + 2)^2 potential, so a
# huge M would only measure the allocator; such values are left untested
@FAST
@given(st.one_of(st.sampled_from(sorted(KEY_SPECS)), st.text(max_size=8)), _TEXT)
def test_validate_set_fuzz_exits_with_a_documented_code(key, text):
    assume(_chain_size(key, text) <= 64)
    argv = ["validate", "--set", "M=20", "--set", "horizon=60", f"--set={key}={text}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3)


_NOT_FINITE = ("nan", "inf", "-inf", "1e400", "x", "")


def _mostly(valid, *bad):
    """``valid`` nine times in ten; otherwise a non-finite or malformed
    number or one of the ``bad`` texts."""
    bad = st.sampled_from([*bad, *_NOT_FINITE])
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else valid)


def _floats(lo, hi, *bad):
    return _mostly(st.floats(lo, hi).map(repr), *bad)


# each value is legal nine times in ten and otherwise non-finite, malformed
# or out of range; K reaches past the stability bound (exit 3).  M <= 8 and
# horizon <= 40 keep a run at a few thousand samples of at most ten modes.
_RUN_SETTINGS = {
    "omega0": _floats(0.0, 2.0, "-0.5"),
    "g": _floats(0.0, 3.0, "-1"),
    "omega2": _floats(0.1, 2.0, "0", "-1"),
    "lambda": _floats(0.0, 2.0, "-0.1"),
    "K": _floats(0.0, 5.0, "-0.5", "1e200"),
    "site_m": _mostly(st.integers(1, 2).map(str), "0", "9", "1.5"),
    "site_n": _mostly(st.integers(1, 2).map(str), "-1", "99", "2.0"),
    "sign2": _mostly(st.sampled_from(["1", "-1"]), "0", "2"),
    "x1": _floats(-5.0, 5.0, "1e200"),
    "p2": _floats(-5.0, 5.0, "1e200"),
    "r1": _floats(-3.0, 3.0, "8", "400"),
    "squeeze_axis": _mostly(st.sampled_from(["position", "momentum"]), "diagonal"),
    "dt": _mostly(st.sampled_from(["0.005", "0.01", "0.02", "0.04"]), "0", "-0.02", "0.9", "1e-9"),
    "dt_cov": _mostly(st.sampled_from(["0.05", "0.1", "0.2"]), "0", "0.3", "0.45"),
    "window": _mostly(st.sampled_from(["4.0", "10.0", "20.0"]), "0.1", "-4", "100"),
    "stride": _mostly(st.sampled_from(["0.4", "2.0"]), "0", "0.03", "-2"),
    "delay": _mostly(st.sampled_from(["0.0", "0.4", "-0.4"]), "0.03", "1e9"),
    "write_quantum": _mostly(st.sampled_from(["true", "false"]), "maybe"),
    "bogus": st.just("1"),
}


@FAST
@given(
    st.sampled_from(sorted(PRESETS)),
    _mostly(st.integers(2, 8).map(str), "1", "-3", "2.5"),
    _floats(20.0, 40.0, "5", "-1"),
    st.fixed_dictionaries({}, optional=_RUN_SETTINGS),
)
# a chain whose lowest mode has Omega ~ 1e-150 (exit 3, like validate)
@example("custom", "4", "40.0", {"omega0": "0.0", "g": "1e-300"})
def test_run_set_fuzz_exits_with_a_documented_code(preset, M, horizon, settings_):
    sets = {"preset": preset, "M": M, "horizon": horizon, **settings_}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = ["run", *(f"--set={k}={v}" for k, v in sets.items()), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3)
        if code != 0:
            assert not out.exists() or list(out.iterdir()) == []


@st.composite
def assembled_forms(draw):
    """Keyword arguments of ``assembled``: a chain of at most 64 sites and
    two probes on any of its sites, K up to 1.5 (often unstable)."""
    M = draw(st.integers(2, 64))
    positive = st.floats(0.05, 3.0)
    return {
        "M": M, "omega0": draw(st.floats(0.0, 2.0)), "g": draw(positive),
        "omega1": draw(positive), "omega2": draw(positive),
        "lam": draw(st.floats(0.0, 1.0)), "K": draw(st.floats(0.0, 1.5)),
        "site_m": draw(st.integers(1, M)), "site_n": draw(st.integers(1, M)),
        "sign2": draw(st.sampled_from([1, -1])),
    }


def assembled(M, omega0, g, **probes):
    return assemble_full_potential(NetworkConfig(M, omega0, g), ProbePair(**probes))


@FAST
@given(assembled_forms())
# fig5 with K = 1.1: the lowest root sits far below a pole with a tiny border
@example({"M": 100, "omega0": 0.4, "g": 1.2, "omega1": 1.0, "omega2": 1.2, "lam": 0.0,
          "K": 1.1, "site_m": 1, "site_n": 96, "sign2": 1})
# weak coupling: roots within a few ulps of their poles
@example({"M": 31, "omega0": 0.0025307050635829382, "g": 0.47527085752291953,
          "omega1": 0.18619985863220054, "omega2": 3.0416397939701008,
          "lam": 1.5592429629386233e-06, "K": 0.0006970915510164051, "site_m": 16,
          "site_n": 26, "sign2": 1})
# a chain of nearly equal frequencies (g ~ 1e-9): roots a few
# ulps from clustered poles, where F stalls at its rounding error
@example({"M": 38, "omega0": 0.044515271606897916, "g": 1.658321551956398e-09,
          "omega1": 0.11033821093538952, "omega2": 0.023103221794292743, "lam": 0.0,
          "K": 0.13937026431343086, "site_m": 36, "site_n": 12, "sign2": 1})
# no coupling and a repulsive second probe, both on one site: -lambda and
# sign2 K are -0.0, and no plug site is coupled
@example({"M": 12, "omega0": 0.4, "g": 1.2, "omega1": 1.0, "omega2": 1.1, "lam": 0.0,
          "K": 0.0, "site_m": 5, "site_n": 5, "sign2": -1})
def test_assembled_forms_match_eigvalsh_and_check_stability_by_it(params):
    qf = assembled(**params)
    # the engine's coupled sites, read off the probes, are those V couples
    assert qf.coupled_sites == QuadraticForm(qf.V).coupled_sites
    ev = np.linalg.eigvalsh(qf.V)
    top = np.max(np.abs(ev))
    assert np.max(np.abs(qf.modes.values - ev)) <= 1e-12 * top
    assume(abs(ev[0] - DEFAULT_STABILITY_TOL) > 1e-12 * top)
    try:
        check_stability(qf)
        unstable = False
    except InstabilityError:
        unstable = True
    assert unstable == (ev[0] <= DEFAULT_STABILITY_TOL)


@st.composite
def stable_forms(draw, n):
    """V = Q diag(ev) Q^T with eigenvalues ev in [0.05, 4] and Q the
    orthogonal factor of a random matrix."""
    ev = draw(st.lists(st.floats(0.05, 4.0), min_size=n, max_size=n))
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
    Q, _ = np.linalg.qr(np.reshape(entries, (n, n)))
    return QuadraticForm((Q * ev) @ Q.T)


@st.composite
def engine_cases(draw):
    """(qf, state, t): a random stable form, a physical state made of
    local squeezed thermal states pushed through a second random form's
    propagator, and a time t <= 50."""
    n = draw(st.integers(2, 8))
    qf = draw(stable_forms(n))
    mixer = draw(stable_forms(n))
    covs = [
        (2 * draw(st.floats(0.0, 2.0)) + 1)
        * squeezed_vacuum_local(draw(st.floats(0.2, 2.0)), draw(st.floats(-1.0, 1.0)))
        for _ in range(n)
    ]
    cov = np.zeros((2 * n, 2 * n))
    for i, c in enumerate(covs):
        cov[np.ix_([i, n + i], [i, n + i])] = c
    mean = draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * n, max_size=2 * n))
    state = evolve(GaussianState(mean, cov), propagator(mixer, draw(st.floats(0.0, 50.0))))
    return qf, state, draw(st.floats(0.0, 50.0))


def _largest(state):
    return max(np.max(np.abs(state.mean)), np.max(np.abs(state.cov)))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(engine_cases())
def test_engine_matches_the_propagator_on_random_stable_forms(case):
    qf, state, t = case
    smap = propagator(qf, t)
    assert symplectic_defect(smap) <= 1e-10
    ref = evolve(state, smap)
    part = reduce(ref, (0, 1))
    engine = NormalModeTrajectory(qf, state)
    X, P = engine.mean_series(np.array([t]))
    cov = engine.covariance_series(np.array([t]))[0]
    tol = 1e-9 * _largest(part)
    assert np.max(np.abs(np.concatenate([X[0], P[0]]) - part.mean)) <= tol
    assert np.max(np.abs(cov - part.cov)) <= tol
    full = engine.state_at(t)
    tol = 1e-9 * _largest(ref)
    assert np.max(np.abs(full.mean - ref.mean)) <= tol
    assert np.max(np.abs(full.cov - ref.cov)) <= tol
    energy = mean_energy(state, qf)
    assert abs(mean_energy(ref, qf) - energy) <= 1e-9 * energy
