"""Property tests of config handling: the config echo round trip and a
fuzz of ``validate --set KEY=TEXT``."""

import contextlib
import io

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from chainsync import format_config, parse_config, resolve_spec
from chainsync.cli import main
from chainsync.errors import ConfigError
from chainsync.scenarios import KEY_SPECS, PRESETS

FAST = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# echo-safe text: no comment mark, no line break, no surrounding blanks
_WORD = st.text(st.characters(codec="ascii", categories=["L", "N"], include_characters="_-./"),
                min_size=1, max_size=12)


@st.composite
def specs(draw):
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
        "out": draw(_WORD),
    }
    try:
        return resolve_spec(draw(st.sampled_from(sorted(PRESETS))), overrides)
    except ConfigError:
        assume(False)


@FAST
@given(specs())
def test_config_echo_round_trips(spec):
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
