import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainsync import (
    NetworkConfig,
    NonPhysical,
    ProbePair,
    assemble_full_potential,
    correlation_report,
    evolve,
    initial_composite_state,
    log_negativity,
    mutual_information,
    propagator,
    reduce,
    squeezed_vacuum_local,
    symplectic_spectrum,
    sync_series,
    vn_entropy,
)
from chainsync.measures import (
    _nu_entropy,
    _nu_slack,
    _two_mode_spectrum,
    window_samples,
    window_starts,
)
from chainsync.scenarios import _initial_state, _site_means, resolve_spec, simulate
from chainsync.trajectory import NormalModeTrajectory

from oracles import correlation_loop, dominant_frequency, pearson_windows, scan_delayed_sync


def tms_covariance(r):
    """Two-mode squeezed vacuum in (x1, x2, p1, p2) ordering."""
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    cov = 0.5 * np.diag([ch, ch, ch, ch])
    cov[0, 1] = cov[1, 0] = 0.5 * sh
    cov[2, 3] = cov[3, 2] = -0.5 * sh
    return cov


def simulate_covariances(spec, times):
    """Probe covariances of a scenario run at ``times``, from the run's
    own engine."""
    engine = _site_means(spec, _initial_state(spec))[0]
    return engine.covariance_series(np.asarray(times, dtype=float))


def squeezed_product(r1, r2, w1=1.0, w2=1.2):
    """Two local squeezed vacua in (x1, x2, p1, p2) ordering."""
    return np.diag(
        [np.exp(-2 * r1) / (2 * w1), np.exp(-2 * r2) / (2 * w2),
         w1 * np.exp(2 * r1) / 2, w2 * np.exp(2 * r2) / 2]
    )


def random_symplectic(rng, r_max=1.5):
    """Bloch-Messiah product O1 diag(e^-r, e^r) O2 of two passive (unitary)
    maps and a squeezer, in (x1, x2, p1, p2) ordering."""

    def passive():
        U, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        return np.block([[U.real, -U.imag], [U.imag, U.real]])

    r = rng.uniform(-r_max, r_max, size=2)
    return passive() @ np.diag(np.exp(np.concatenate([-r, r]))) @ passive()


def entropy_formula(nu):
    return (nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5) if nu > 0.5 else 0.0


def one_window(t, f, g):
    """The sync_series value of the one window spanning the whole grid."""
    (c,) = sync_series(t, f, g, window=t[-1] - t[0], stride=t[-1] - t[0]).values
    return c


def test_pearson_perfect_correlation():
    t = np.arange(200) * 0.05
    f = np.exp(-0.1 * t) * np.cos(1.3 * t)
    assert one_window(t, f, f) == pytest.approx(1.0, abs=1e-12)
    assert one_window(t, f, -f) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_affine_invariance_and_bounds():
    rng = np.random.default_rng(2)
    t = np.arange(400) * 0.05
    for _ in range(20):
        f = np.cos(rng.uniform(0.5, 2) * t + rng.uniform(0, 6))
        g = np.cos(rng.uniform(0.5, 2) * t + rng.uniform(0, 6))
        c = one_window(t, f, g)
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
        a, b = float(rng.uniform(0.1, 5)), float(rng.uniform(-3, 3))
        assert one_window(t, a * f + b, g) == pytest.approx(c, abs=1e-10)
        assert one_window(t, -a * f + b, g) == pytest.approx(-c, abs=1e-10)
        assert np.all(np.abs(sync_series(t, f, g, window=5.0, stride=1.0).values) <= 1.0 + 1e-12)


def test_pearson_orthogonal_over_full_periods():
    dt = 2 * np.pi / 1000
    t = np.arange(4001) * dt  # four full periods
    assert abs(one_window(t, np.sin(t), np.cos(t))) < 1e-6


def test_pearson_window_selection_and_guards():
    t = np.arange(101) * 0.1
    f = np.cos(t)
    g = np.sin(t)
    with pytest.raises(ValueError, match="fewer than 8 samples"):
        one_window(t[:5], f[:5], g[:5])
    assert math.isnan(one_window(t[:20], np.ones(20), g[:20]))
    assert math.isnan(one_window(t[:20], f[:20], np.full(20, -3.0)))


@pytest.fixture(scope="module")
def sync_signals():
    """(times, f, g) of the fig2 means, the fig2 position variances and
    the means of one appB_sweep plug site, at full scale."""
    fig2 = simulate(resolve_spec("fig2_dissipation", {"write_quantum": False}))
    site = simulate(resolve_spec("appB_sweep", {"site_n": 43, "write_quantum": False}))
    return {
        "fig2 means": (fig2.times, fig2.x1, fig2.x2),
        "fig2 variances": (fig2.cov_times, fig2.var_x1, fig2.var_x2),
        "appB site 43 means": (site.times, site.x1, site.x2),
    }


@pytest.mark.parametrize("delay", [0.0, 3.0, -1.2])
@pytest.mark.parametrize("name", ["fig2 means", "fig2 variances", "appB site 43 means"])
def test_sync_series_matches_the_two_pass_reference_bit_for_bit(sync_signals, name, delay):
    times, f, g = sync_signals[name]
    ss = sync_series(times, f, g, 20.0, 2.0, delay)
    starts, values = pearson_windows(times, f, g, *window_samples(20.0, 2.0, delay, times[1]))
    assert ss.values.size > 250
    assert ss.times.tobytes() == starts.tobytes()
    assert ss.values.tobytes() == values.tobytes()


def test_sync_series_identical_damped_cosines():
    t = np.arange(0, 100, 0.02)
    f = np.exp(-0.01 * t) * np.cos(1.1 * t)
    window = 20.0
    ss = sync_series(t, f, 0.7 * f, window=window, stride=2.0)
    assert np.all(np.isfinite(ss.values))
    assert np.allclose(ss.values, 1.0, atol=1e-10)
    # windows that would overrun the data are dropped
    assert ss.times[-1] + window <= t[-1] + 1e-9


def test_sync_series_degenerate_windows_flagged():
    t = np.arange(0, 40, 0.05)
    f = np.where(t < 20, np.cos(t), 1.0)
    ss = sync_series(t, f, np.cos(1.2 * t), window=10.0, stride=5.0)
    assert not np.all(np.isfinite(ss.values))
    assert np.any(np.isfinite(ss.values))


def test_sync_series_delay_alignment():
    t = np.arange(0, 60, 0.01)
    f = np.cos(1.3 * t)
    phi = 0.5
    g = np.cos(1.3 * (t - phi))  # g lags f by phi
    # comparing f(t) with g(t + phi) realigns them
    ss = sync_series(t, f, g, window=15.0, stride=5.0, delay=phi)
    assert np.allclose(ss.values, 1.0, atol=1e-9)
    with pytest.raises(ValueError):
        sync_series(t, f, g, window=15.0, stride=5.0, delay=0.005)


def test_sync_series_rejects_non_uniform_grid():
    t = np.concatenate([np.arange(0, 10, 0.1), 10 + np.arange(0, 40, 0.5)])
    f = np.cos(1.1 * t)
    with pytest.raises(ValueError):
        sync_series(t, f, f, window=10.0, stride=1.0)
    with pytest.raises(ValueError):
        sync_series(t[:1], f[:1], f[:1], window=10.0, stride=1.0)
    # a scenario-length grid, built as the scenarios build it, is uniform
    t = np.arange(60_001) * 0.02
    ss = sync_series(t, np.cos(1.1 * t), np.cos(1.1 * t), window=20.0, stride=2.0)
    assert ss.values.size == 591 and np.allclose(ss.values, 1.0)


def test_sync_series_rejects_stride_off_grid():
    # a stride between two grid multiples used to be rounded silently,
    # spacing the windows 2 samples apart while SyncSeries.stride read 2.5
    t = np.arange(0.0, 100.0, 1.0)
    f = np.cos(1.1 * t)
    with pytest.raises(ValueError, match="stride"):
        sync_series(t, f, f, 10.0, 2.5)
    with pytest.raises(ValueError, match="stride"):
        sync_series(t, f, f, 10.0, 0.4)
    assert np.allclose(np.diff(sync_series(t, f, f, 10.0, 3.0).times), 3.0)


def test_window_samples_rules():
    assert window_samples(20.0, 2.0, -0.4, 0.2) == (100, 10, -2)
    # the delay tolerance scales with the step, so round-off around zero passes
    assert window_samples(20.0, 2.0, 1.8e-15, 0.1) == (200, 20, 0)
    # 0.7 / 0.1 and 0.3 / 0.1 are whole multiples up to round-off
    assert window_samples(0.7, 0.3, 0.0, 0.1) == (7, 3, 0)
    # a window between two grid multiples used to be rounded silently
    with pytest.raises(ValueError, match="window 20.03 is not a whole multiple"):
        window_samples(20.03, 2.0, 0.0, 0.02)
    for args in ((1.0, 2.0, 0.0, 0.2), (20.0, 2.1, 0.0, 0.2), (20.0, 2.0, 0.03, 0.02),
                 (20.0, 1e-3, 0.0, 0.02), (20.0, 1.7e308, 0.0, 0.02), (math.nan, 2.0, 0.0, 0.2)):
        with pytest.raises(ValueError):
            window_samples(*args)


def test_scan_delayed_sync_recovers_shift():
    t = np.arange(0, 120, 0.01)
    shift = 0.8
    f = np.exp(-0.01 * t) * np.cos(1.1 * t)
    g = np.exp(-0.01 * t) * np.cos(1.1 * (t - shift))
    delays = np.arange(-2.0, 2.0 + 1e-9, 0.1)
    best_delay, best_c, _ = scan_delayed_sync(t, f, g, 20.0, 5.0, delays)
    assert best_c > 0.99
    assert abs(best_delay - shift) <= 0.1 + 1e-9


def test_dominant_frequency():
    t = np.arange(0, 200, 0.01)
    assert dominant_frequency(t, np.cos(0.4 * t)) == pytest.approx(0.4, abs=0.01)
    assert dominant_frequency(t, np.sin(1.7 * t + 0.3), window=(50, 150)) == pytest.approx(
        1.7, abs=0.01
    )
    with pytest.raises(ValueError):
        dominant_frequency(t, np.cos(0.4 * t) + 5.0)


def test_symplectic_spectrum_basics():
    assert np.allclose(symplectic_spectrum(0.5 * np.eye(6)), 0.5, atol=1e-12)
    thermal = np.diag([2.5, 1.5, 2.5, 1.5])  # n=2 and n=1 modes
    assert np.allclose(np.sort(symplectic_spectrum(thermal)), [1.5, 2.5], atol=1e-12)
    assert np.allclose(symplectic_spectrum(tms_covariance(1.0)), 0.5, atol=1e-10)
    # below the vacuum floor the raw value is returned
    assert symplectic_spectrum(np.diag([0.1, 0.1]))[0] == pytest.approx(0.1)


def test_vn_entropy_values():
    assert vn_entropy(0.5 * np.eye(4)) == pytest.approx(0.0, abs=1e-12)
    assert vn_entropy(np.diag([1.0, 1.0])) == pytest.approx(0.9547712524422, rel=1e-10)
    # an eigenvalue inside the vacuum-floor slack is read as 1/2
    assert vn_entropy(np.diag([0.5 - 1e-9, 0.5 - 1e-9])) == 0.0
    # and so is one within the 1e-13 round-off slack above it
    assert vn_entropy(np.diag([0.5 + 9e-14, 0.5 + 9e-14])) == 0.0
    assert vn_entropy(np.diag([0.5 + 2e-13, 0.5 + 2e-13])) > 0.0
    # a squeezed covariance widens the slack by 4 eps max|sigma_ij|^2, to
    # 1.1e-7 for a squeezed vacuum with entries up to e^10 / 2 (r = 5)
    sq = np.diag([math.exp(-10.0) / 2, math.exp(10.0) / 2])
    assert vn_entropy(sq * (1.0 + 2e-8)) == 0.0
    assert vn_entropy(sq * (1.0 + 4e-7)) > 0.0
    # additivity on product covariances
    rng = np.random.default_rng(9)
    for _ in range(10):
        n1, n2 = rng.uniform(0.5, 3.0, size=2)
        s1 = np.diag([n1, n1])
        s2 = np.diag([n2, n2])
        prod = np.zeros((4, 4))
        prod[np.ix_([0, 2], [0, 2])] = s1
        prod[np.ix_([1, 3], [1, 3])] = s2
        assert vn_entropy(prod) == pytest.approx(vn_entropy(s1) + vn_entropy(s2), abs=1e-9)


def test_mutual_information():
    vac = 0.5 * np.eye(4)
    assert mutual_information(vac) == pytest.approx(0.0, abs=1e-10)
    r = 1.0
    nu = math.cosh(2 * r) / 2
    expected = 2 * entropy_formula(nu)
    assert mutual_information(tms_covariance(r)) == pytest.approx(expected, rel=1e-10)
    with pytest.raises(ValueError):
        mutual_information(np.eye(6))


def test_log_negativity_two_mode_squeezed():
    assert log_negativity(0.5 * np.eye(4)) == pytest.approx(0.0, abs=1e-12)
    for r in (0.5, 1.0, 2.0):
        assert log_negativity(tms_covariance(r)) == pytest.approx(2 * r, abs=1e-8)
    # brute-force check of the partially transposed spectrum
    r = 1.0
    P = np.diag([1.0, 1.0, 1.0, -1.0])
    nus = symplectic_spectrum(P @ tms_covariance(r) @ P)
    assert nus[0] == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-10)
    # separable thermal product state has no entanglement
    assert log_negativity(np.diag([1.5, 2.5, 1.5, 2.5])) == 0.0


def test_correlation_report_consistency():
    covs = np.array([0.5 * np.eye(4), tms_covariance(0.7)])
    rep = correlation_report(np.array([0.0, 1.0]), covs)
    assert rep.E[0] == 0.0 and rep.MI[0] == pytest.approx(0.0, abs=1e-10)
    assert rep.E[1] == pytest.approx(1.4, abs=1e-8)
    assert rep.MI[1] == pytest.approx(rep.S1[1] + rep.S2[1] - rep.S12[1], abs=1e-12)
    assert rep.S12[1] == pytest.approx(0.0, abs=1e-9)  # globally pure
    # subadditivity
    assert rep.S12[1] <= rep.S1[1] + rep.S2[1] + 1e-9


def test_pure_state_complementarity():
    # entropy of the probe pair equals entropy of the chain remainder
    cfg = NetworkConfig(M=6, omega0=0.5, g=1.0)
    probes = ProbePair(omega2=1.2, lam=0.0, K=0.45, site_m=1, site_n=1)
    qf = assemble_full_potential(cfg, probes)
    state = initial_composite_state(
        ((0.3, 0.0), (0.9, 0.0)),
        (squeezed_vacuum_local(1.0, 1.0), squeezed_vacuum_local(1.2, 1.0)),
        cfg,
    )
    evolved = evolve(state, propagator(qf, 9.0))
    s_probes = vn_entropy(reduce(evolved, (0, 1)).cov)
    s_chain = vn_entropy(reduce(evolved, range(2, 8)).cov)
    assert s_probes > 0.05
    assert s_probes == pytest.approx(s_chain, abs=1e-6)


CLOSED_FORM_TOL = 1e-10


def assert_matches_loop(covs):
    rep = correlation_report(np.arange(len(covs)), covs)
    for name, ref in zip(("E", "MI", "S1", "S2", "S12"), correlation_loop(covs)):
        err = np.max(np.abs(getattr(rep, name) - ref))
        assert err <= CLOSED_FORM_TOL, (name, err)


def test_correlation_report_pure_states_match_loop():
    # every symplectic eigenvalue is exactly 1/2, where x ln x has an
    # infinite slope and a lost digit in nu shows up many times over
    pure = [0.5 * np.eye(4)]
    pure += [tms_covariance(r) for r in (0.05, 0.3, 1.0, 1.5, 2.0)]
    pure += [squeezed_product(r1, r2) for r1, r2 in ((0.5, 0.0), (2.0, 2.0), (2.0, -1.0))]
    covs = np.array(pure)
    assert_matches_loop(covs)
    rep = correlation_report(np.arange(len(covs)), covs)
    assert np.max(np.abs(rep.S12)) <= CLOSED_FORM_TOL


def test_correlation_report_random_states_match_loop():
    rng = np.random.default_rng(17)
    covs = []
    for _ in range(60):
        S = random_symplectic(rng)
        thermal = np.repeat(rng.uniform(0.5, 3.0, size=2), 2)[[0, 2, 1, 3]]
        covs.append(S @ np.diag(thermal) @ S.T)
    assert_matches_loop(np.array(covs))


def test_correlation_report_fig5_series_matches_loop():
    cfg = NetworkConfig(M=30, omega0=0.4, g=1.2)
    probes = ProbePair(omega2=1.2, lam=0.0, K=0.8, site_m=1, site_n=1)
    state = initial_composite_state(
        ((0.0, 0.0), (0.0, 0.0)),
        (squeezed_vacuum_local(1.0, 2.0), squeezed_vacuum_local(1.2, 2.0)),
        cfg,
    )
    engine = NormalModeTrajectory(assemble_full_potential(cfg, probes), state)
    covs = engine.covariance_series(np.arange(301) * 0.2)
    assert_matches_loop(covs)
    assert np.max(correlation_report(np.arange(301), covs).E) > 0.1


def test_fig6_entropies_and_mutual_information_are_never_negative():
    # separable probes at the far edge: without the clamps 80 MI rows read
    # down to -5.6e-14 and S1 down to -2.0e-14
    rep = simulate(resolve_spec("fig6_mi_edges", {"M": 60, "site_n": 60})).quantum
    for name in ("MI", "S1", "S2", "S12"):
        assert np.min(getattr(rep, name)) >= 0.0, name
    # product states of rotated squeezed thermal modes, whose MI is 0:
    # unclamped, S1 + S2 - S12 reads -8.9e-16 on the second of them
    rng = np.random.default_rng(1)
    for _ in range(20):
        cov = np.zeros((4, 4))
        for i in (0, 1):
            r, th, n = rng.uniform(-1.5, 1.5), rng.uniform(0.0, np.pi), rng.uniform(0.5, 2.0)
            S = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]) @ np.diag(
                [np.exp(-r), np.exp(r)]
            )
            cov[np.ix_([i, i + 2], [i, i + 2])] = n * S @ S.T
        assert mutual_information(cov) >= 0.0


# the product state at t = 0 carries no correlation; round-off used to put
# E = 1.1e-13, 5.4e-14 and 8.4e-14 and MI = 1.6e-14 into these rows
@pytest.mark.parametrize("preset, overrides", [
    ("fig6_mi_edges", {"M": 60, "horizon": 200.0, "site_n": 60}),
    ("fig6_mi_edges", {}),
    ("fig5_entanglement_common", {"M": 2000, "horizon": 60.0}),
    ("fig5_entanglement_common", {}),
])
def test_product_state_rows_read_no_correlation(preset, overrides):
    rep = simulate(resolve_spec(preset, overrides)).quantum
    assert [rep.E[0], rep.MI[0], rep.S1[0], rep.S2[0], rep.S12[0]] == [0.0] * 5


# squeezing beyond the presets' |r| = 2: round-off of about eps
# max|sigma_ij|^2 used to put E(0) = 2.9e-13 (r = 2.5) to 1.2e-10 (r = 5.5)
# on fig6 and MI(0) = 9.6e-13 (r = 3) to 2.0e-11 (r = 5.5) on fig5
@pytest.mark.parametrize("preset, site_n, r", [
    *(("fig6_mi_edges", 60, r) for r in (2.5, 3.0, 4.0, 5.5)),
    *(("fig5_entanglement_common", 1, r) for r in (3.0, 4.0, 5.5)),
])
def test_squeezed_product_state_rows_read_no_correlation(preset, site_n, r):
    overrides = {"M": 60, "horizon": 20.0, "site_n": site_n, "r1": r, "r2": r}
    rep = simulate(resolve_spec(preset, overrides)).quantum
    assert [rep.E[0], rep.MI[0], rep.S1[0], rep.S2[0], rep.S12[0]] == [0.0] * 5


def test_the_slack_keeps_the_nearest_true_departure():
    # appB_sweep's joint nu_minus departs from the vacuum by 2.7e-13 at
    # t = 0.2 (one dt_cov), above its slack of 1.0e-13, and adds its
    # entropy to S12
    spec = resolve_spec("appB_sweep", {"M": 60, "horizon": 20.0})
    covs = simulate_covariances(spec, [0.2])
    d = [covs[:, 0, 0] * covs[:, 2, 2] - covs[:, 0, 2] ** 2,
         covs[:, 1, 1] * covs[:, 3, 3] - covs[:, 1, 3] ** 2,
         covs[:, 0, 1] * covs[:, 2, 3] - covs[:, 0, 3] * covs[:, 2, 1]]
    nu_plus, nu_minus = _two_mode_spectrum(covs, d[0] + d[1] + 2 * d[2], np.linalg.det(covs))
    slack = _nu_slack(covs)
    assert 2.6e-13 < nu_minus[0] - 0.5 < 2.8e-13 and slack[0] < 1.01e-13
    assert _nu_entropy(nu_minus, slack)[0] > 0.0
    rep = correlation_report([0.2], covs)
    assert rep.S12[0] == (_nu_entropy(nu_plus, slack) + _nu_entropy(nu_minus, slack))[0]


@given(st.integers(0, 120), st.integers(0, 40), st.integers(1, 15), st.integers(-60, 60))
def test_window_starts_match_brute_force(n, w, step, d):
    brute = [i for i in range(0, n, step) if i + w < n and 0 <= i + d and i + d + w < n]
    assert list(window_starts(n, w, step, d)) == brute


def test_correlation_report_rejects_subvacuum():
    covs = np.array([0.5 * np.eye(4), 0.3 * np.eye(4)])
    with pytest.raises(NonPhysical):
        correlation_report(np.arange(2), covs)
    # a physical pair whose joint state is not
    joint = tms_covariance(1.0)
    joint[0, 1] = joint[1, 0] = 0.5 * np.cosh(2.0)
    with pytest.raises(NonPhysical):
        correlation_report(np.arange(1), joint[None])
