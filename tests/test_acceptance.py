"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s or check captured output).  The preset scenarios run at
full scale (M = 300); property checks use downscaled systems where the
tolerance statement allows it."""

import math
import time

import numpy as np
import pytest

from chainsync import (
    GaussianState,
    NetworkConfig,
    ProbePair,
    QuadraticForm,
    assemble_full_potential,
    chain_normal_modes,
    chain_rayleigh_report,
    damping_kernels,
    evolve,
    initial_composite_state,
    log_negativity,
    max_group_velocity,
    mean_energy,
    mutual_information,
    propagator,
    reduce,
    resolve_spec,
    simulate,
    solve_gqle_means,
    squeezed_vacuum_local,
    sweep_plug_site,
    symplectic_spectrum,
    sync_series,
    system_mode_angle,
    system_modes,
    ohmic_gap_ratio,
    vn_entropy,
)
from chainsync.modes import mode_rotation
from chainsync.scenarios import _initial_state, _site_means
from chainsync.trajectory import NormalModeTrajectory

from oracles import dominant_frequency, rk4_reference, symplectic_defect, uncertainty_defect


def report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


@pytest.fixture(scope="module")
def fig2():
    t0 = time.perf_counter()
    data = simulate(resolve_spec("fig2_dissipation", {"write_quantum": False}))
    return data, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fig3_strong():
    return simulate(resolve_spec("fig3_common_node", {"write_quantum": False}))


@pytest.fixture(scope="module")
def fig3_weak():
    return simulate(
        resolve_spec("fig3_common_node", {"K": 0.1, "window": 60.0, "write_quantum": False})
    )


FIG4 = resolve_spec("fig4_edges", {"window": 60.0, "write_quantum": False})
FIG5 = resolve_spec("fig5_entanglement_common")


@pytest.fixture(scope="module")
def fig4():
    return simulate(FIG4)


@pytest.fixture(scope="module")
def fig5():
    return simulate(FIG5)


@pytest.fixture(scope="module")
def fig6():
    return simulate(resolve_spec("fig6_mi_edges"))


def test_criterion_1_antisync_by_dissipation(fig2):
    data, elapsed = fig2
    ss = data.sync_means
    early = ss.in_band(100.0, 550.0)
    early = early[np.isfinite(early)]
    mean_early = float(early.mean())
    ok_early = mean_early <= -0.9

    post = [(t, v) for t, v in zip(ss.times, ss.values)
            if 600.0 <= t <= 900.0 and np.isfinite(v)]
    departures = [(t, v) for t, v in post if v >= -0.8]
    ok_departure = len(departures) > 0

    ok_restored = False
    if ok_departure:
        t_dep = departures[0][0]
        later = [v for t, v in zip(ss.times, ss.values)
                 if t_dep < t < 1200.0 and np.isfinite(v)]
        ok_restored = bool(later) and max(abs(v) for v in later) >= 0.8

    ok_time = elapsed < 30.0
    ok = ok_early and ok_departure and ok_restored and ok_time
    report(
        1,
        "anti-synchronization by dissipation",
        ok,
        f"mean C[100,550]={mean_early:.3f}, departure={'yes' if ok_departure else 'no'}, "
        f"restored={'yes' if ok_restored else 'no'}, runtime={elapsed:.1f}s",
    )
    assert ok_early and ok_departure and ok_restored and ok_time


def test_criterion_2_repulsive_sign_flip():
    data = simulate(
        resolve_spec("fig2_dissipation", {"sign2": -1, "horizon": 600.0, "write_quantum": False})
    )
    vals = data.sync_means.in_band(100.0, 550.0)
    vals = vals[np.isfinite(vals)]
    mean_c = float(vals.mean())
    ok = mean_c >= 0.9
    report(2, "sign flip turns anti-sync into sync", ok, f"mean C[100,550]={mean_c:.3f}")
    assert ok


def test_criterion_3_rayleigh_predictor(fig3_weak):
    theta = system_mode_angle(1.0, 1.1, 0.5)
    ratio = ohmic_gap_ratio(theta)
    ok_ratio = ratio >= 50.0

    cfg = NetworkConfig(M=300, omega0=0.4, g=1.2)
    modes = system_modes(ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=1, site_n=1), cfg)
    fig2_ray = chain_rayleigh_report(cfg, modes, chain_normal_modes(cfg)[0])
    ok_predict = fig2_ray.predicts_sync

    weak = fig3_weak
    ok_weak_gap = not weak.rayleigh.predicts_sync
    vals = weak.sync_means.in_band(100.0, 550.0)
    vals = vals[np.isfinite(vals)]
    max_c = float(np.max(np.abs(vals)))
    ok_weak_sim = max_c < 0.5

    ok = ok_ratio and ok_predict and ok_weak_gap and ok_weak_sim
    report(
        3,
        "Rayleigh gap predictor",
        ok,
        f"ohmic ratio={ratio:.1f}, fig2 predicts={ok_predict}, "
        f"weak gap below threshold={ok_weak_gap}, weak max|C|={max_c:.3f}",
    )
    assert ok


def test_criterion_4_common_node_strong_coupling(fig3_strong, fig3_weak):
    strong = fig3_strong
    vals = strong.sync_means.in_band(200.0, 550.0)
    vals = vals[np.isfinite(vals)]
    min_c = float(vals.min())
    ok_sync = min_c >= 0.9

    f1 = dominant_frequency(strong.times, strong.x1, (300.0, 500.0))
    ok_freq = abs(f1 - 0.40) <= 0.05

    weak = fig3_weak
    w1 = dominant_frequency(weak.times, weak.x1, (300.0, 500.0))
    w2 = dominant_frequency(weak.times, weak.x2, (300.0, 500.0))
    ok_detuned = abs(w1 - w2) >= 0.05

    ok = ok_sync and ok_freq and ok_detuned
    report(
        4,
        "strong-coupling common-node locking",
        ok,
        f"min C[200,550]={min_c:.3f}, f(x1)={f1:.3f}, weak freqs=({w1:.3f}, {w2:.3f})",
    )
    assert ok


def test_criterion_5_cross_talk_sync(fig4):
    data = fig4
    window = FIG4.measure.window
    early = data.sync_means.in_band(50.0, 250.0)
    early = early[np.isfinite(early)]
    max_early = float(np.max(np.abs(early)))
    ok_early = max_early < 0.5

    mask = (data.sync_means.times >= 320.0) & (data.sync_means.times <= 580.0 - window)
    band_vals = data.sync_means.values[mask]
    good = np.abs(band_vals) >= 0.9
    run, best = 0, 0
    for flag in good:
        run = run + 1 if flag else 0
        best = max(best, run)
    ok_band = best >= 3

    seg_mask = (data.times >= 320.0) & (data.times <= 580.0)
    seg = np.abs(data.x1[seg_mask])
    peaks = (seg[1:-1] > seg[:-2]) & (seg[1:-1] > seg[2:])
    pk = seg[1:-1][peaks]
    minima = sum(
        1 for j in range(1, len(pk) - 1) if pk[j] < pk[j - 1] and pk[j] < pk[j + 1]
    )
    ok_beat = minima >= 2

    ok = ok_early and ok_band and ok_beat
    report(
        5,
        "cross-talk synchronization at the edges",
        ok,
        f"max|C|[50,250]={max_early:.3f}, longest locked run={best} windows, "
        f"envelope minima={minima}",
    )
    assert ok


def test_criterion_6_entanglement_at_common_node(fig5):
    data = fig5
    rep = data.quantum
    band = (rep.times >= 300.0) & (rep.times <= 550.0)
    E = rep.E[band]
    MI = rep.MI[band]
    mean_e = float(E.mean())
    ok_positive = mean_e > 0.0
    variability = float(E.std() / E.mean()) if mean_e > 0 else math.inf
    ok_plateau = variability < 0.2
    ok_mi = bool(np.all(MI > 0.0))

    window = FIG5.measure.window
    var_band = data.sync_vars.in_band(300.0, 550.0 - window)
    var_band = var_band[np.isfinite(var_band)]
    min_var_c = float(var_band.min())
    ok_var_sync = min_var_c >= 0.9

    ok = ok_positive and ok_plateau and ok_mi and ok_var_sync
    report(
        6,
        "entanglement generation at a common node",
        ok,
        f"E mean={mean_e:.4f}, E std/mean={variability:.3f} (<0.2 required), "
        f"MI>0={ok_mi}, min var-C={min_var_c:.4f}",
    )
    assert ok_positive and ok_mi and ok_var_sync
    assert ok_plateau, (
        f"E std/mean over [300,550] is {variability:.3f}: the exact dynamics keeps "
        f"breathing at twice the below-band mode frequency, so the raw series never "
        f"settles to within 20% (its running mean is flat to ~1%)"
    )


def test_criterion_7_no_entanglement_between_edges(fig6):
    data = fig6
    rep = data.quantum
    max_e = float(rep.E.max())
    ok_no_e = max_e <= 1e-9
    early = rep.MI[rep.times < 250.0]
    max_early = float(early.max())
    ok_early = max_early < 1e-3
    ct = rep.MI[(rep.times >= 300.0) & (rep.times <= 600.0)]
    max_ct = float(ct.max())
    ok_rise = max_ct > 1e-2

    ok = ok_no_e and ok_early and ok_rise
    report(
        7,
        "no entanglement between the edges",
        ok,
        f"max E={max_e:.2e}, MI early={max_early:.2e}, MI cross-talk={max_ct:.2e}",
    )
    assert ok


def test_criterion_8_plug_site_independence(tmp_path):
    M = 60
    spec = resolve_spec(
        "appB_sweep",
        {"M": M, "horizon": 120.0, "window": 10.0, "stride": 2.0,
         "sweep_start": 10, "sweep_stop": 50, "write_quantum": False},
    )
    record = sweep_plug_site(spec, out_dir=tmp_path)
    assert record.summary["failed_sites"] == 0

    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    per_site: dict = {}
    for row in rows:
        site_s, t_s, c_s = row.split(",")
        per_site.setdefault(int(site_s), {})[round(float(t_s), 9)] = float(c_s)

    vg = max_group_velocity(spec.network)
    cutoff = min(min(2 * m, 2 * (M - m)) / vg for m in per_site)
    starts = sorted(t for t in next(iter(per_site.values())) if t + 10.0 < cutoff)
    assert len(starts) >= 3
    spreads = []
    for t in starts:
        vals = np.array([per_site[m][t] for m in sorted(per_site)])
        spreads.append(float(vals.max() - vals.min()))
    max_spread = max(spreads)
    ok = max_spread <= 0.1
    report(
        8,
        "early-time independence of the plug site",
        ok,
        f"sites 10..50, {len(starts)} pre-cross-talk windows, max spread={max_spread:.4f}",
    )
    assert ok


def test_criterion_9a_symplecticity(fig2):
    cfg = NetworkConfig(M=300, omega0=0.4, g=1.2)
    qf = assemble_full_potential(cfg, ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=1, site_n=1))
    worst = symplectic_defect(propagator(qf, 0.02))
    rng = np.random.default_rng(17)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        B = rng.normal(size=(n, n))
        form = QuadraticForm(B @ B.T + 0.1 * np.eye(n))
        worst = max(worst, symplectic_defect(propagator(form, float(rng.uniform(0.1, 5.0)))))
    ok = worst <= 1e-10
    report("9a", "symplecticity of every propagator", ok, f"max defect={worst:.2e}")
    assert ok


def test_criterion_9b_energy_conservation():
    spec = resolve_spec("fig2_dissipation")
    qf = assemble_full_potential(spec.network, spec.probes)
    state = initial_composite_state(
        ((0.14, 0.0), (1.4, 0.0)),
        (squeezed_vacuum_local(1.0, 0.0), squeezed_vacuum_local(1.1, 0.0)),
        spec.network,
    )
    engine = NormalModeTrajectory(qf, state)
    e0 = mean_energy(state, qf)
    drift = max(
        abs(mean_energy(engine.state_at(t), qf) - e0) / e0
        for t in (1.0, 10.0, 100.0, 300.0, 600.0, 900.0, 1200.0)
    )
    ok = drift <= 1e-9
    report("9b", "energy conservation along the exact trajectory", ok, f"max rel drift={drift:.2e}")
    assert ok


def test_criterion_9c_uncertainty_preservation(fig2, fig5):
    worst = math.inf
    fig2_spec = resolve_spec("fig2_dissipation", {"write_quantum": False})
    for spec, data in ((fig2_spec, fig2[0]), (FIG5, fig5)):
        # the probe covariances simulate() evolved, from the same engine on the same times
        covs = _site_means(spec, _initial_state(spec)[1])[0].covariance_series(data.cov_times)
        for cov in covs[:: max(1, covs.shape[0] // 40)]:
            worst = min(worst, uncertainty_defect(cov))
    ok = worst >= -1e-9
    report("9c", "uncertainty preservation of evolved states", ok, f"min defect={worst:.2e}")
    assert ok


def test_criterion_9d_exact_vs_rk4():
    cfg = NetworkConfig(M=12, omega0=0.4, g=1.2)
    qf = assemble_full_potential(cfg, ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=1, site_n=1))
    state = initial_composite_state(
        ((0.14, 0.0), (1.4, 0.0)),
        (squeezed_vacuum_local(1.0, 0.3), squeezed_vacuum_local(1.1, 0.0)),
        cfg,
    )
    exact = evolve(state, propagator(qf, 50.0))
    approx = rk4_reference(state, qf, 50.0, 0.01)
    err_mean = float(np.max(np.abs(approx.mean - exact.mean)) / np.max(np.abs(exact.mean)))
    err_cov = float(np.max(np.abs(approx.cov - exact.cov)) / np.max(np.abs(exact.cov)))
    err = max(err_mean, err_cov)
    ok = err <= 1e-6
    report("9d", "exact propagation vs RK4 oracle", ok, f"max rel err={err:.2e}")
    assert ok


def test_criterion_9e_gqle_vs_exact():
    spec = resolve_spec("fig2_dissipation")
    modes = system_modes(spec.probes, spec.network)
    omegas, _ = chain_normal_modes(spec.network)
    horizon, dt = 200.0, 0.008
    grid = np.arange(0.0, horizon + 3 * dt, dt)
    kernels = damping_kernels(modes, omegas, grid)
    R = mode_rotation(modes.theta)
    x0 = np.array([0.14, 1.4])
    times, q, _ = solve_gqle_means(
        kernels, modes.Lambda1, modes.Lambda2, R @ x0, (0.0, 0.0), horizon, dt
    )
    qf = assemble_full_potential(spec.network, spec.probes)
    state = initial_composite_state(
        ((0.14, 0.0), (1.4, 0.0)),
        (squeezed_vacuum_local(1.0, 0.0), squeezed_vacuum_local(1.1, 0.0)),
        spec.network,
    )
    X, _ = NormalModeTrajectory(qf, state).mean_series(times)
    q_exact = X @ R.T
    errs = [
        float(np.max(np.abs(q[:, s] - q_exact[:, s])) / np.max(np.abs(q_exact[:, s])))
        for s in (0, 1)
    ]
    ok = max(errs) <= 0.01
    report(
        "9e",
        "Langevin means vs exact propagation before the revival",
        ok,
        f"rel amplitude errors q1={errs[0]:.2e}, q2={errs[1]:.2e}",
    )
    assert ok


def test_criterion_9f_pearson_properties():
    rng = np.random.default_rng(23)
    t = np.arange(800) * 0.05

    def pearson(f, g):  # the one sync window spanning the grid
        return sync_series(t, f, g, window=t[-1], stride=t[-1]).values[0]

    worst = 0.0
    ok_affine = True
    for _ in range(25):
        f = np.cos(rng.uniform(0.3, 2.0) * t + rng.uniform(0, 6)) + 0.2 * rng.normal(size=t.size)
        g = np.cos(rng.uniform(0.3, 2.0) * t + rng.uniform(0, 6))
        c = pearson(f, g)
        worst = max(worst, abs(c))
        a, b = float(rng.uniform(0.2, 4.0)), float(rng.uniform(-2, 2))
        ok_affine &= abs(pearson(a * f + b, g) - c) < 1e-9
        ok_affine &= abs(pearson(-a * f + b, g) + c) < 1e-9
    ok = worst <= 1.0 + 1e-12 and ok_affine
    report("9f", "Pearson bounds and affine invariance", ok, f"max |C|={worst:.6f}")
    assert ok


def test_criterion_9g_two_mode_squeezed_negativity():
    errs = []
    for r in (0.5, 1.0, 2.0):
        ch, sh = np.cosh(2 * r), np.sinh(2 * r)
        cov = 0.5 * np.diag([ch, ch, ch, ch])
        cov[0, 1] = cov[1, 0] = 0.5 * sh
        cov[2, 3] = cov[3, 2] = -0.5 * sh
        errs.append(abs(log_negativity(cov) - 2 * r))
    ok = max(errs) <= 1e-8
    report("9g", "two-mode squeezed log-negativity E = 2r", ok, f"max err={max(errs):.2e}")
    assert ok


def test_criterion_9h_entropy_additivity_and_complementarity():
    rng = np.random.default_rng(31)
    add_err = 0.0
    for _ in range(10):
        n1, n2 = rng.uniform(0.5, 3.0, size=2)
        s1, s2 = np.diag([n1, n1]), np.diag([n2, n2])
        prod = np.zeros((4, 4))
        prod[np.ix_([0, 2], [0, 2])] = s1
        prod[np.ix_([1, 3], [1, 3])] = s2
        add_err = max(add_err, abs(vn_entropy(prod) - vn_entropy(s1) - vn_entropy(s2)))

    cfg = NetworkConfig(M=8, omega0=0.5, g=1.0)
    qf = assemble_full_potential(cfg, ProbePair(omega2=1.2, lam=0.0, K=0.5, site_m=1, site_n=1))
    state = initial_composite_state(
        ((0.3, 0.0), (0.9, 0.0)),
        (squeezed_vacuum_local(1.0, 1.0), squeezed_vacuum_local(1.2, 1.0)),
        cfg,
    )
    evolved = evolve(state, propagator(qf, 11.0))
    s_pair = vn_entropy(reduce(evolved, (0, 1)).cov)
    s_rest = vn_entropy(reduce(evolved, range(2, 10)).cov)
    comp_err = abs(s_pair - s_rest)
    ok = add_err <= 1e-9 and comp_err <= 1e-6
    report(
        "9h",
        "entropy additivity and pure-state complementarity",
        ok,
        f"additivity err={add_err:.2e}, complementarity err={comp_err:.2e}",
    )
    assert ok
