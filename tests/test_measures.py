import math

import numpy as np
import pytest

from chainsync import (
    DegenerateWindow,
    NetworkConfig,
    NoCrossings,
    NonPhysical,
    ProbePair,
    assemble_full_potential,
    correlation_report,
    dominant_frequency,
    evolve,
    initial_composite_state,
    log_negativity,
    mutual_information,
    pearson,
    propagator,
    reduce,
    scan_delayed_sync,
    squeezed_vacuum_local,
    symplectic_spectrum,
    sync_series,
    vn_entropy,
)
from chainsync.trajectory import NormalModeTrajectory

from oracles import correlation_loop


def tms_covariance(r):
    """Two-mode squeezed vacuum in (x1, x2, p1, p2) ordering."""
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    cov = 0.5 * np.diag([ch, ch, ch, ch])
    cov[0, 1] = cov[1, 0] = 0.5 * sh
    cov[2, 3] = cov[3, 2] = -0.5 * sh
    return cov


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


def test_pearson_perfect_correlation():
    t = np.linspace(0, 10, 200)
    f = np.exp(-0.1 * t) * np.cos(1.3 * t)
    assert pearson(f, f) == pytest.approx(1.0, abs=1e-12)
    assert pearson(f, -f) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_affine_invariance_and_bounds():
    rng = np.random.default_rng(2)
    t = np.linspace(0, 20, 400)
    for _ in range(20):
        f = np.cos(rng.uniform(0.5, 2) * t + rng.uniform(0, 6))
        g = np.cos(rng.uniform(0.5, 2) * t + rng.uniform(0, 6))
        c = pearson(f, g)
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
        a, b = float(rng.uniform(0.1, 5)), float(rng.uniform(-3, 3))
        assert pearson(a * f + b, g) == pytest.approx(c, abs=1e-10)
        assert pearson(-a * f + b, g) == pytest.approx(-c, abs=1e-10)


def test_pearson_orthogonal_over_full_periods():
    dt = 2 * np.pi / 1000
    t = np.arange(0, 4 * 2 * np.pi + dt / 2, dt)
    assert abs(pearson(np.sin(t), np.cos(t))) < 1e-6


def test_pearson_window_selection_and_guards():
    t = np.linspace(0, 10, 101)
    f = np.cos(t)
    g = np.sin(t)
    c_full = pearson(f[:51], g[:51])
    assert pearson(f, g, times=t, window=(0.0, 5.0)) == pytest.approx(c_full, rel=1e-12)
    with pytest.raises(ValueError):
        pearson(f, g, window=(0.0, 5.0))  # window without grid
    with pytest.raises(ValueError):
        pearson(f[:5], g[:5])  # too few samples
    with pytest.raises(DegenerateWindow):
        pearson(np.ones(20), g[:20])


def test_sync_series_identical_damped_cosines():
    t = np.arange(0, 100, 0.02)
    f = np.exp(-0.01 * t) * np.cos(1.1 * t)
    ss = sync_series(t, f, 0.7 * f, window=20.0, stride=2.0)
    assert np.all(ss.defined)
    assert np.allclose(ss.values, 1.0, atol=1e-10)
    # windows that would overrun the data are dropped
    assert ss.times[-1] + ss.window <= t[-1] + 1e-9


def test_sync_series_degenerate_windows_flagged():
    t = np.arange(0, 40, 0.05)
    f = np.where(t < 20, np.cos(t), 1.0)
    ss = sync_series(t, f, np.cos(1.2 * t), window=10.0, stride=5.0)
    assert not np.all(ss.defined)
    assert np.any(ss.defined)


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
    with pytest.raises(NoCrossings):
        dominant_frequency(t, np.cos(0.4 * t) + 5.0)


def test_symplectic_spectrum_basics():
    assert np.allclose(symplectic_spectrum(0.5 * np.eye(6)), 0.5, atol=1e-12)
    thermal = np.diag([2.5, 1.5, 2.5, 1.5])  # n=2 and n=1 modes
    assert np.allclose(np.sort(symplectic_spectrum(thermal)), [1.5, 2.5], atol=1e-12)
    assert np.allclose(symplectic_spectrum(tms_covariance(1.0)), 0.5, atol=1e-10)
    with pytest.raises(NonPhysical):
        symplectic_spectrum(np.diag([0.1, 0.1]))
    # opting out of validation returns the raw value
    assert symplectic_spectrum(np.diag([0.1, 0.1]), validate=False)[0] == pytest.approx(0.1)


def test_vn_entropy_values():
    assert vn_entropy(0.5 * np.eye(4)) == pytest.approx(0.0, abs=1e-12)
    assert vn_entropy(np.diag([1.0, 1.0])) == pytest.approx(0.9547712524422, rel=1e-10)
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
    nus = symplectic_spectrum(P @ tms_covariance(r) @ P, validate=False)
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


def test_correlation_report_rejects_subvacuum():
    covs = np.array([0.5 * np.eye(4), 0.3 * np.eye(4)])
    with pytest.raises(NonPhysical):
        correlation_report(np.arange(2), covs)
    # a physical pair whose joint state is not
    joint = tms_covariance(1.0)
    joint[0, 1] = joint[1, 0] = 0.5 * np.cosh(2.0)
    with pytest.raises(NonPhysical):
        correlation_report(np.arange(1), joint[None])
