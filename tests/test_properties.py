"""Property tests: the config echo round trip, a fuzz of
``validate --set KEY=TEXT``, and the trajectory engine on random stable
quadratic forms."""

import contextlib
import io

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from chainsync import (
    GaussianState,
    NormalModeTrajectory,
    QuadraticForm,
    evolve,
    format_config,
    mean_energy,
    parse_config,
    propagator,
    reduce,
    resolve_spec,
    squeezed_vacuum_local,
    symplectic_defect,
)
from chainsync.cli import main
from chainsync.errors import ConfigError, RangeError
from chainsync.scenarios import KEY_SPECS, PRESETS, read_config

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
    assert parse_config(format_config(spec)) == spec


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
    """(qf, state, t, modes): a random stable form, a physical state made of
    local squeezed thermal states pushed through a second random form's
    propagator, a time t <= 50 and a subset of modes."""
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
    t = draw(st.floats(0.0, 50.0))
    modes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return qf, state, t, modes


def _largest(state):
    return max(np.max(np.abs(state.mean)), np.max(np.abs(state.cov)))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(engine_cases())
def test_engine_matches_the_propagator_on_random_stable_forms(case):
    qf, state, t, modes = case
    smap = propagator(qf, t)
    assert symplectic_defect(smap) <= 1e-10
    ref = evolve(state, smap)
    part = reduce(ref, modes)
    engine = NormalModeTrajectory(qf, state)
    X, P = engine.mean_series(np.array([t]), modes)
    cov = engine.covariance_series(np.array([t]), modes)[0]
    tol = 1e-9 * _largest(part)
    assert np.max(np.abs(np.concatenate([X[0], P[0]]) - part.mean)) <= tol
    assert np.max(np.abs(cov - part.cov)) <= tol
    full = engine.state_at(t)
    tol = 1e-9 * _largest(ref)
    assert np.max(np.abs(full.mean - ref.mean)) <= tol
    assert np.max(np.abs(full.cov - ref.cov)) <= tol
    energy = mean_energy(state, qf)
    assert abs(mean_energy(ref, qf) - energy) <= 1e-9 * energy
