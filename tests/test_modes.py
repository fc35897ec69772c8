import math

import numpy as np
import pytest

from chainsync import (
    NetworkConfig,
    ProbePair,
    StepTooLarge,
    ZeroModeError,
    chain_normal_modes,
    chain_rayleigh_report,
    damping_kernels,
    initial_composite_state,
    ohmic_gap_ratio,
    solve_gqle_means,
    squeezed_vacuum_local,
    system_eigenfrequencies,
    system_mode_angle,
    system_modes,
)
from chainsync.dynamics import _TIME_CHUNK
from chainsync.lattice import assemble_full_potential, build_chain_potential
from chainsync.modes import SystemModes, mode_rotation
from chainsync.scenarios import DEFAULTS, PRESETS, resolve_spec
from chainsync.trajectory import NormalModeTrajectory

from oracles import (
    cosine_kernels,
    grid_rayleigh_report,
    history_sum_gqle_means,
    probe_stiffness,
    rayleigh_reduction,
    site_damping_matrix,
)

FIG2 = dict(omega1=1.0, omega2=1.1, lam=0.5)


def rotated_couplings(theta, K, site_m, site_n, M, sign2=1):
    """(c1, c2): the site couplings K [O[m-1]; sign2 O[n-1]] of the chain's
    modes O, rotated into the probe normal modes."""
    _, O = chain_normal_modes(NetworkConfig(M=M, omega0=0.4, g=1.2), (site_m, site_n))
    return mode_rotation(theta) @ (K * np.array([O[0], sign2 * O[1]]))


def rayleigh_report(cfg, probes):
    """``chain_rayleigh_report`` of a probe pair on the network ``cfg``."""
    return chain_rayleigh_report(cfg, system_modes(probes, cfg))


def random_network(M, seed):
    rng = np.random.default_rng(seed)
    A = np.triu(rng.uniform(0.0, 1.5, size=(M, M)) * (rng.random((M, M)) < 0.5), 1)
    return A + A.T


def test_angle_limits():
    assert system_mode_angle(1.0, 1.1, 0.0) == 0.0
    assert system_mode_angle(1.0, 1.0, 0.7) == pytest.approx(math.pi / 4, abs=1e-15)
    # lam -> 0 with omega2 < omega1 lands on the swapped branch
    assert system_mode_angle(1.1, 1.0, 0.0) == pytest.approx(math.pi / 2, abs=1e-15)


def test_angle_degenerate_case():
    assert system_mode_angle(1.0, 1.0, 0.0) == 0.0


def test_angle_fig2_value():
    theta = system_mode_angle(**FIG2)
    assert theta == pytest.approx(0.5 * math.atan2(1.0, 0.21), rel=1e-15)
    assert theta == pytest.approx(0.6819, abs=5e-4)
    # oracle: eigenvector of the 2x2 probe block
    A = probe_stiffness(ProbePair(omega2=1.1, lam=0.5, K=0.0, site_m=1, site_n=1))
    _, vecs = np.linalg.eigh(A)
    v = vecs[:, 0] * np.sign(vecs[0, 0])
    assert theta == pytest.approx(math.atan2(v[1], v[0]), rel=1e-12)


def test_eigenfrequencies():
    assert system_eigenfrequencies(1.0, 1.3, 0.0) == pytest.approx((1.0, 1.3))
    assert system_eigenfrequencies(1.3, 1.0, 0.0) == pytest.approx((1.0, 1.3))
    L1, L2 = system_eigenfrequencies(1.0, 1.0, 0.5)
    assert (L1, L2) == pytest.approx((1.0, math.sqrt(2.0)), rel=1e-12)
    L1, L2 = system_eigenfrequencies(**FIG2)
    assert L1**2 == pytest.approx(1.094, abs=1e-3)
    assert L2**2 == pytest.approx(2.116, abs=1e-3)
    # oracle: 2x2 eigensolve
    A = probe_stiffness(ProbePair(omega2=1.1, lam=0.5, K=0.0, site_m=1, site_n=1))
    evals = np.linalg.eigvalsh(A)
    assert np.allclose([L1**2, L2**2], evals, rtol=1e-12)


def test_rotation_diagonalizes_probe_block_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        w1, w2 = rng.uniform(0.3, 2.0, size=2)
        lam = rng.uniform(0.0, 1.5)
        theta = system_mode_angle(w1, w2, lam)
        L1, L2 = system_eigenfrequencies(w1, w2, lam)
        assert L1**2 + L2**2 == pytest.approx(w1**2 + w2**2 + 2 * lam, rel=1e-12)
        A = probe_stiffness(ProbePair(omega1=w1, omega2=w2, lam=lam, K=0.0, site_m=1, site_n=1))
        R = mode_rotation(theta)
        Ad = R @ A @ R.T
        assert abs(Ad[0, 1]) < 1e-12 * np.linalg.norm(A)
        assert np.allclose(np.diag(Ad), [L1**2, L2**2], rtol=1e-10)


def test_coupling_coefficients_limits():
    c1, c2 = rotated_couplings(0.3, 0.0, 1, 4, 12)
    assert np.all(c1 == 0.0) and np.all(c2 == 0.0)
    M, K = 10, 0.4
    c1, c2 = rotated_couplings(0.0, K, 1, 7, M)
    j = np.arange(1, M + 1)
    pref = math.sqrt(2.0 * K**2 / (M + 1))
    assert np.allclose(c1, pref * np.sin(np.pi * j / (M + 1)), rtol=1e-14)
    assert np.allclose(c2, pref * np.sin(np.pi * j * 7 / (M + 1)), rtol=1e-14)
    # equal plugging sites at theta = pi/4 decouple the second mode
    c1, c2 = rotated_couplings(math.pi / 4, K, 3, 3, M)
    assert np.allclose(c2, 0.0, atol=1e-16)
    assert np.allclose(c1, math.sqrt(2.0) * pref * np.sin(np.pi * j * 3 / (M + 1)), rtol=1e-12)


def test_system_modes_rotate_the_site_couplings():
    cfg = NetworkConfig(M=14, omega0=0.4, g=1.2)
    for sign2 in (1, -1):
        probes = ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=3, site_n=11, sign2=sign2)
        modes = system_modes(probes, cfg)
        c1, c2 = rotated_couplings(modes.theta, 0.2, 3, 11, cfg.M, sign2)
        assert np.array_equal(modes.c1, c1) and np.array_equal(modes.c2, c2)
        # a bare site count is the same homogeneous chain
        bare = system_modes(probes, cfg.M)
        assert np.array_equal(bare.c1, c1) and np.array_equal(bare.c2, c2)
    with pytest.raises(ValueError):
        system_modes(ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=3, site_n=15), cfg)


def test_opposite_edges_cross_kernel_vanishes():
    M = 64
    omegas, _ = chain_normal_modes(NetworkConfig(M=M, omega0=0.4, g=1.2))
    c1, c2 = rotated_couplings(0.0, 0.2, 1, M, M)
    modes = SystemModes(0.0, 1.0, 1.1, c1, c2)
    t_ct = M / 0.92  # first cross-talk arrival at the band velocity
    times = np.arange(0.0, t_ct, 0.02)
    kern = damping_kernels(modes, omegas, times)
    assert kern.gamma1_0 > 0
    assert abs(kern.eta_0) < 1e-8 * kern.gamma1_0
    pre = times < 0.45 * t_ct
    assert np.max(np.abs(kern.eta[pre])) < 1e-8 * kern.gamma1_0


def test_single_mode_kernel_is_exact_cosine():
    modes = SystemModes(0.0, 1.0, 1.1, np.array([0.3]), np.array([0.1]))
    times = np.linspace(0.0, 20.0, 400)
    kern = damping_kernels(modes, np.array([0.8]), times)
    assert np.allclose(kern.gamma1, (0.09 / 0.64) * np.cos(0.8 * times), rtol=1e-12)
    assert np.allclose(kern.eta, (0.03 / 0.64) * np.cos(0.8 * times), rtol=1e-12)
    assert kern.gamma1_0 == pytest.approx(0.09 / 0.64, rel=1e-14)


def test_kernel_zero_values_match_direct_sums():
    cfg = NetworkConfig(M=300, omega0=0.4, g=1.2)
    omegas, _ = chain_normal_modes(cfg)
    probes = ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=1, site_n=1)
    modes = system_modes(probes, cfg)
    kern = damping_kernels(modes, omegas, np.arange(0.0, 5.0, 0.1))
    # direct-summation oracle
    g1 = float(np.sum(modes.c1**2 / omegas**2))
    et = float(np.sum(modes.c1 * modes.c2 / omegas**2))
    assert kern.gamma1_0 == pytest.approx(g1, rel=1e-12)
    assert kern.gamma1_0 > 0
    assert kern.eta_0 == pytest.approx(et, rel=1e-12)
    # common node: eta(0)/gamma1(0) = cos(2 theta) / (1 + sin(2 theta))
    th = modes.theta
    assert kern.eta_0 / kern.gamma1_0 == pytest.approx(
        math.cos(2 * th) / (1 + math.sin(2 * th)), rel=1e-10
    )


def test_common_site_theta_pi4_kills_gamma2():
    cfg = NetworkConfig(M=16, omega0=0.5, g=1.0)
    omegas, _ = chain_normal_modes(cfg)
    modes = system_modes(ProbePair(omega1=1.0, omega2=1.0, lam=0.4, K=0.3, site_m=4, site_n=4), cfg)
    assert modes.theta == pytest.approx(math.pi / 4)
    kern = damping_kernels(modes, omegas, np.linspace(0, 10, 100))
    assert np.allclose(kern.gamma2, 0.0, atol=1e-18)


def test_kernel_symmetry_under_mode_swap():
    omegas, _ = chain_normal_modes(NetworkConfig(M=12, omega0=0.4, g=1.2))
    c1, c2 = rotated_couplings(0.4, 0.3, 2, 9, 12)
    times = np.linspace(0, 15, 150)
    k12 = damping_kernels(SystemModes(0.4, 1.0, 1.2, c1, c2), omegas, times)
    k21 = damping_kernels(SystemModes(0.4, 1.0, 1.2, c2, c1), omegas, times)
    assert np.array_equal(k12.eta, k21.eta)


@pytest.mark.parametrize("sign2", [1, -1])
def test_custom_network_kernels_at_zero_are_the_inverse_potential(sign2):
    # gamma(0) = sum_j c c^T / Omega_j^2 = K^2 R(theta) [(V_c^-1)_ab] R(theta)^T
    M, (m, n) = 12, (3, 7)
    cfg = NetworkConfig(M=M, omega0=0.4, g=1.2, coupling_matrix=random_network(M, 4))
    probes = ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=m, site_n=n, sign2=sign2)
    modes = system_modes(probes, cfg)
    omegas, _ = chain_normal_modes(cfg)
    kern = damping_kernels(modes, omegas, np.linspace(0.0, 5.0, 11))
    Vi = np.linalg.inv(build_chain_potential(cfg))
    S = np.diag([1.0, sign2])
    R = mode_rotation(modes.theta)
    G0 = probes.K**2 * R @ S @ Vi[np.ix_([m - 1, n - 1], [m - 1, n - 1])] @ S @ R.T
    got = np.array([[kern.gamma1_0, kern.eta_0], [kern.eta_0, kern.gamma2_0]])
    assert np.max(np.abs(got - G0)) <= 1e-12 * np.max(np.abs(G0))
    assert kern.gamma1[0] == pytest.approx(kern.gamma1_0, rel=1e-12)


def test_kernels_are_invariant_under_network_relabelling():
    M, sites = 12, (3, 7)
    A = random_network(M, 4)
    perm = np.random.default_rng(9).permutation(M)
    new_site = np.argsort(perm) + 1  # old site s sits at new_site[s - 1]
    times = np.linspace(0.0, 30.0, 301)
    kernels = []
    for C, (m, n) in ((A, sites), (A[np.ix_(perm, perm)], new_site[[s - 1 for s in sites]])):
        cfg = NetworkConfig(M=M, omega0=0.4, g=1.2, coupling_matrix=C)
        probes = ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=int(m), site_n=int(n))
        omegas, _ = chain_normal_modes(cfg)
        kernels.append(damping_kernels(system_modes(probes, cfg), omegas, times))
    for name in ("gamma1", "gamma2", "eta"):
        a, b = getattr(kernels[0], name), getattr(kernels[1], name)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


@pytest.mark.parametrize("grid", ["non_uniform", "one_off_grid", "not_a_block_multiple"])
def test_kernels_match_direct_cosine_sums(grid):
    cfg = NetworkConfig(M=40, omega0=0.4, g=1.2)
    omegas, _ = chain_normal_modes(cfg)
    modes = system_modes(ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=3, site_n=17), cfg)
    if grid == "non_uniform":
        times = np.sort(np.random.default_rng(5).uniform(0.0, 300.0, size=700))
    elif grid == "one_off_grid":
        times = np.arange(800) * 0.05
        times[300] += 0.013
    else:
        times = np.arange(3 * _TIME_CHUNK + 41) * 0.3 + 7.0
    kern = damping_kernels(modes, omegas, times)
    refs = cosine_kernels(modes.c1, modes.c2, omegas, times)
    for got, ref in zip((kern.gamma1, kern.gamma2, kern.eta), refs):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_kernel_rejects_zero_modes():
    modes = SystemModes(0.0, 1.0, 1.1, np.array([0.1, 0.1]), np.array([0.1, 0.1]))
    with pytest.raises(ZeroModeError):
        damping_kernels(modes, np.array([0.0, 1.0]), np.linspace(0, 1, 20))


def test_rayleigh_uniform_damping_no_gap():
    A = probe_stiffness(ProbePair(omega2=1.1, lam=0.5, K=0.0, site_m=1, site_n=1))
    rep = rayleigh_reduction(A, 0.03 * np.eye(2))
    assert rep.gap == pytest.approx(0.0, abs=1e-15)
    assert not rep.predicts_sync
    assert rep.ratio == pytest.approx(1.0, rel=1e-12)
    assert abs(rep.Gp[0, 1]) < 1e-15


def test_rayleigh_commuting_pair_diagonalizes():
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = rng.uniform(0.5, 2.0, size=2)
        A = np.diag(w**2)
        G = np.diag(rng.uniform(0.01, 0.1, size=2))
        rep = rayleigh_reduction(A, G)
        assert abs(rep.Gp[0, 1]) <= 1e-12 * np.linalg.norm(G)
        assert rep.commutator_norm < 1e-12


def test_rayleigh_common_bath_ratio():
    # damping acting on x1 + x2 only: ratio (1 + sin 2t)/(1 - sin 2t)
    pp = ProbePair(omega2=1.1, lam=0.5, K=0.0, site_m=1, site_n=1)
    theta = system_mode_angle(1.0, 1.1, 0.5)
    gamma = 0.02
    G = gamma * np.ones((2, 2))
    rep = rayleigh_reduction(probe_stiffness(pp), G)
    expected = (1 + math.sin(2 * theta)) / (1 - math.sin(2 * theta))
    assert rep.ratio == pytest.approx(expected, rel=1e-10)
    assert rep.ratio == pytest.approx(92.7, abs=0.5)
    assert rep.gap == pytest.approx(2 * gamma * math.sin(2 * theta), rel=1e-10)
    assert rep.predicts_sync
    assert rep.tau_S == pytest.approx(1.0 / (gamma * (1 + math.sin(2 * theta))), rel=1e-10)


def test_rayleigh_identical_probes_decoupled_mode():
    pp = ProbePair(omega1=1.0, omega2=1.0, lam=0.4, K=0.0, site_m=1, site_n=1)
    rep = rayleigh_reduction(probe_stiffness(pp), 0.05 * np.ones((2, 2)))
    assert rep.Gp[1, 1] == pytest.approx(0.0, abs=1e-15)
    # the protected mode's damping is zero up to round-off, so the ratio blows up
    assert math.isinf(rep.ratio) or rep.ratio > 1e15


def test_ohmic_gap_ratio():
    assert ohmic_gap_ratio(0.0) == 1.0
    assert math.isinf(ohmic_gap_ratio(math.pi / 4))
    theta = system_mode_angle(**FIG2)
    s = math.sin(2 * theta)
    assert ohmic_gap_ratio(theta) == pytest.approx((1 + s) / (1 - s), rel=1e-12)
    assert ohmic_gap_ratio(theta) > 50


def test_chain_rayleigh_report_fig2():
    cfg = NetworkConfig(M=300, omega0=0.4, g=1.2)
    rep = rayleigh_report(cfg, ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=1, site_n=1))
    assert rep.predicts_sync
    theta = system_mode_angle(**FIG2)
    assert rep.ratio == pytest.approx(ohmic_gap_ratio(theta), rel=0.05)
    assert 5.0 < rep.tau_S < 100.0
    # weak detuned probes on a common node, no direct coupling: no gap
    weak = rayleigh_report(cfg, ProbePair(omega2=1.1, lam=0.0, K=0.1, site_m=1, site_n=1))
    assert weak.gap == pytest.approx(0.0, abs=1e-12)
    assert not weak.predicts_sync


def test_markov_plateau_requires_samples():
    cfg = NetworkConfig(M=20, omega0=0.4, g=1.2)
    with pytest.raises(ValueError):
        rayleigh_report(cfg, ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=1, site_n=0))


def _rayleigh_cases():
    """(cfg, probes): the 7 presets at M = 60 (the edge presets' far probe
    on the last site), then random pairs on both sides of theta = pi/4 and
    at theta = pi/2 (lam = 0 with omega2 < omega1)."""
    for name in sorted(PRESETS):
        edge = PRESETS[name].get("site_n") == DEFAULTS["M"]
        spec = resolve_spec(name, {"M": 60, **({"site_n": 60} if edge else {})})
        yield spec.network, spec.probes
    rng = np.random.default_rng(12)
    for k in range(60):
        M = (20, 60)[k % 2]
        yield NetworkConfig(M=M, omega0=0.4, g=1.2), ProbePair(
            omega2=rng.uniform(0.6, 1.5),
            lam=0.0 if k % 5 == 0 else rng.uniform(0.0, 0.6),
            K=rng.uniform(0.05, 0.5),
            site_m=int(rng.integers(1, M + 1)),
            site_n=int(rng.integers(1, M + 1)),
            sign2=(1, -1)[k % 3 == 0],
        )


def test_rayleigh_report_matches_the_site_basis_reduction():
    thetas = []
    for cfg, probes in _rayleigh_cases():
        rep = rayleigh_report(cfg, probes)
        ref = rayleigh_reduction(probe_stiffness(probes), site_damping_matrix(cfg, probes))
        scale = np.max(np.abs(ref.Gp))
        assert abs(rep.Gp[0, 0] - ref.Gp[0, 0]) <= 1e-13 * scale
        assert abs(rep.Gp[1, 1] - ref.Gp[1, 1]) <= 1e-13 * scale
        assert abs(abs(rep.Gp[0, 1]) - abs(ref.Gp[0, 1])) <= 1e-13 * scale
        assert rep.Gp[1, 0] == rep.Gp[0, 1]
        assert rep.predicts_sync == ref.predicts_sync
        assert rep.commutator_norm == pytest.approx(ref.commutator_norm, rel=1e-12)
        # Gp is in the (q1, q2) basis of means.csv; the oracle's sign rule
        # flips q2 where theta > pi/4
        theta = system_mode_angle(probes.omega1, probes.omega2, probes.lam)
        flip = -1.0 if theta > math.pi / 4 else 1.0
        assert np.sign(rep.Gp[0, 1]) == flip * np.sign(ref.Gp[0, 1]) != 0
        thetas.append(theta)
    thetas = np.array(thetas)
    assert np.any(thetas < math.pi / 4) and np.any(thetas > math.pi / 4)
    assert np.any(thetas == math.pi / 2)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_rayleigh_plateau_is_the_grid_limit(name):
    # M = 60, with the edge presets' far probe moved to the last site
    edge = PRESETS[name].get("site_n") == DEFAULTS["M"]
    spec = resolve_spec(name, {"M": 60, **({"site_n": 60} if edge else {})})
    rep = rayleigh_report(spec.network, spec.probes)
    scale = np.max(np.abs(rep.Gp))

    def grid_error(dt=None):
        ref = grid_rayleigh_report(spec.network, spec.probes, dt)
        assert ref.predicts_sync == rep.predicts_sync
        return np.max(np.abs(rep.Gp - ref.Gp))

    assert grid_error() <= 5e-5 * scale
    # first order in the grid step: a 4x finer grid is >= 3x closer (from
    # half the default step, past the coarse grid's second-order term)
    assert grid_error(0.025 / 4) <= grid_error(0.025) / 3.0


def test_rayleigh_report_is_invariant_under_network_relabelling():
    M, sites = 12, (3, 7)
    rng = np.random.default_rng(4)
    A = np.triu(rng.uniform(0.0, 1.5, size=(M, M)) * (rng.random((M, M)) < 0.5), 1)
    A = A + A.T
    perm = rng.permutation(M)
    new_site = np.argsort(perm) + 1  # old site s sits at new_site[s - 1]
    reports = []
    for C, (m, n) in ((A, sites), (A[np.ix_(perm, perm)], new_site[[s - 1 for s in sites]])):
        cfg = NetworkConfig(M=M, omega0=0.4, g=1.2, coupling_matrix=C)
        probes = ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=int(m), site_n=int(n))
        reports.append(rayleigh_report(cfg, probes))
    scale = np.max(np.abs(reports[0].Gp))
    assert np.max(np.abs(reports[0].Gp - reports[1].Gp)) <= 1e-12 * scale
    assert reports[0].predicts_sync == reports[1].predicts_sync


def test_gqle_decoupled_probes_are_free_cosines():
    L1, L2 = 1.0, 1.4
    dt = 0.005
    times = np.arange(0.0, 20.0 + 3 * dt, dt)
    zero = np.zeros_like(times)
    kern_zero = damping_kernels(
        SystemModes(0.0, L1, L2, np.array([0.0]), np.array([0.0])), np.array([1.0]), times
    )
    assert np.array_equal(kern_zero.gamma1, zero)
    t, q, u = solve_gqle_means(kern_zero, L1, L2, (0.7, -0.2), (0.0, 0.0), 20.0, dt)
    assert np.max(np.abs(q[:, 0] - 0.7 * np.cos(L1 * t))) < 1e-3
    assert np.max(np.abs(q[:, 1] + 0.2 * np.cos(L2 * t))) < 1e-3


def _assert_same_solve(kern, reference, *args):
    for got, want in zip(solve_gqle_means(kern, *args), solve_gqle_means(reference, *args)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_gqle_step_guard_and_grid_checks():
    modes = SystemModes(0.0, 1.0, 1.4, np.array([0.1]), np.array([0.1]))
    kern = damping_kernels(modes, np.array([1.0]), np.arange(0.0, 5.0, 0.5))
    with pytest.raises(StepTooLarge):
        solve_gqle_means(kern, 1.0, 1.4, (1, 0), (0, 0), 4.0, 0.5)
    # a grid shorter than the horizon, or with another step, solves exactly
    # as one sampled on the integration grid: only the spectral data are read
    fine = damping_kernels(modes, np.array([1.0]), np.arange(0.0, 1.0, 0.01))
    for horizon, dt in ((4.0, 0.01), (0.5, 0.02)):
        on_grid = damping_kernels(modes, np.array([1.0]), np.arange(int(horizon / dt) + 1) * dt)
        _assert_same_solve(fine, on_grid, 1.0, 1.4, (1, 0), (0, 0), horizon, dt)


def test_gqle_ignores_the_kernel_sampling_grid():
    cfg = NetworkConfig(M=8, omega0=0.7, g=1.0)
    probes = ProbePair(omega2=1.1, lam=0.5, K=0.25, site_m=1, site_n=1)
    modes = system_modes(probes, cfg)
    omegas, _ = chain_normal_modes(cfg)
    args = (modes.Lambda1, modes.Lambda2, (0.1, 1.4), (0, 0), 10.0, 0.01)
    on_grid = damping_kernels(modes, omegas, np.arange(1001) * 0.01)
    # one step of 0.01, then steps of 0.02: t1 - t0 equals dt, the grid is not uniform
    skewed = np.concatenate([[0.0], 0.01 + 0.02 * np.arange(1001)])
    _assert_same_solve(damping_kernels(modes, omegas, skewed), on_grid, *args)
    # the long arange grid of the criterion-9e run
    dt, horizon = 0.008, 200.0
    grid = np.arange(0.0, horizon + 3 * dt, dt)
    assert grid.size > 25_001
    kern = damping_kernels(modes, omegas, grid)
    times, q, _ = solve_gqle_means(
        kern, modes.Lambda1, modes.Lambda2, (0.1, 1.4), (0, 0), 2.0, dt
    )
    assert times.size == 251 and np.all(np.isfinite(q))


def _gqle_vs_exact_error(dt, horizon=30.0):
    cfg = NetworkConfig(M=8, omega0=0.7, g=1.0)
    probes = ProbePair(omega2=1.1, lam=0.5, K=0.25, site_m=1, site_n=1)
    modes = system_modes(probes, cfg)
    omegas, _ = chain_normal_modes(cfg)
    tgrid = np.arange(0.0, horizon + 3 * dt, dt)
    kern = damping_kernels(modes, omegas, tgrid)
    R = mode_rotation(modes.theta)
    x0 = np.array([0.14, 1.4])
    times, q, _ = solve_gqle_means(kern, modes.Lambda1, modes.Lambda2, R @ x0, (0, 0), horizon, dt)
    qf = assemble_full_potential(cfg, probes)
    state = initial_composite_state(
        ((x0[0], 0.0), (x0[1], 0.0)),
        (squeezed_vacuum_local(1.0, 0.0), squeezed_vacuum_local(1.1, 0.0)),
        cfg,
    )
    X, _ = NormalModeTrajectory(qf, state).mean_series(times)
    q_exact = X @ R.T
    return np.max(np.abs(q - q_exact)) / np.max(np.abs(q_exact))


def test_gqle_matches_exact_dynamics():
    assert _gqle_vs_exact_error(0.005) < 5e-3


def test_gqle_second_order_convergence():
    e1 = _gqle_vs_exact_error(0.02)
    e2 = _gqle_vs_exact_error(0.01)
    assert 3.0 < e1 / e2 < 5.0


def _assert_matches_history_sum(kern, L1, L2, q0, qdot0, horizon, dt):
    times, q, u = solve_gqle_means(kern, L1, L2, q0, qdot0, horizon, dt)
    t_ref, q_ref, u_ref = history_sum_gqle_means(kern, L1, L2, q0, qdot0, horizon, dt)
    assert np.array_equal(times, t_ref)
    assert q.shape == q_ref.shape == u.shape == (times.size, 2)
    assert np.max(np.abs(q - q_ref)) <= 1e-10 * np.max(np.abs(q_ref))
    assert np.max(np.abs(u - u_ref)) <= 1e-10 * np.max(np.abs(u_ref))


def _m8_kernels(grid):
    cfg = NetworkConfig(M=8, omega0=0.7, g=1.0)
    probes = ProbePair(omega2=1.1, lam=0.5, K=0.25, site_m=1, site_n=1)
    modes = system_modes(probes, cfg)
    omegas, _ = chain_normal_modes(cfg)
    return modes, damping_kernels(modes, omegas, grid)


def test_gqle_recursion_matches_history_sum_on_the_m8_case():
    dt, horizon = 0.01, 30.0
    modes, kern = _m8_kernels(np.arange(0.0, horizon + 3 * dt, dt))
    q0 = mode_rotation(modes.theta) @ np.array([0.14, 1.4])
    _assert_matches_history_sum(kern, modes.Lambda1, modes.Lambda2, q0, (0, 0), horizon, dt)


def test_gqle_recursion_matches_history_sum_on_fig2():
    spec = resolve_spec("fig2_dissipation")
    modes = system_modes(spec.probes, spec.network)
    omegas, _ = chain_normal_modes(spec.network)
    dt, horizon = 0.008, 20.0
    kern = damping_kernels(modes, omegas, np.arange(0.0, horizon + 3 * dt, dt))
    q0 = mode_rotation(modes.theta) @ np.array([0.14, 1.4])
    _assert_matches_history_sum(kern, modes.Lambda1, modes.Lambda2, q0, (0, 0), horizon, dt)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gqle_recursion_matches_history_sum_on_random_couplings(seed):
    rng = np.random.default_rng(seed)
    M = 12
    omegas = np.sort(rng.uniform(0.3, 2.5, M))
    modes = SystemModes(0.3, 0.9, 1.3, 0.2 * rng.standard_normal(M), 0.2 * rng.standard_normal(M))
    dt, horizon = 0.01, 15.0
    kern = damping_kernels(modes, omegas, np.arange(0.0, horizon + dt / 2, dt))
    _assert_matches_history_sum(
        kern, 0.9, 1.3, rng.standard_normal(2), rng.standard_normal(2), horizon, dt
    )


def test_gqle_recursion_matches_history_sum_without_couplings():
    zero = np.zeros(3)
    modes = SystemModes(0.0, 1.0, 1.4, zero, zero)
    dt, horizon = 0.005, 10.0
    kern = damping_kernels(modes, np.array([0.5, 1.0, 2.0]), np.arange(0.0, horizon + dt / 2, dt))
    assert not np.any(kern.weights)
    _assert_matches_history_sum(kern, 1.0, 1.4, (0.7, -0.2), (0.3, 0.1), horizon, dt)


@pytest.mark.parametrize("start", [0.0, 0.3])
def test_gqle_recursion_reads_a_kernel_grid_longer_than_the_horizon(start):
    # wherever the kernel grid starts, the solve is the one from t = 0
    dt, horizon = 0.01, 5.0
    modes, kern = _m8_kernels(start + np.arange(4 * int(horizon / dt)) * dt)
    _, at_zero = _m8_kernels(np.arange(int(horizon / dt) + 1) * dt)
    args = (modes.Lambda1, modes.Lambda2, (0.1, 1.4), (0.2, -0.1), horizon, dt)
    _assert_matches_history_sum(at_zero, *args)
    _assert_same_solve(kern, at_zero, *args)


def test_gqle_recursion_is_deterministic():
    dt, horizon = 0.01, 10.0
    modes, kern = _m8_kernels(np.arange(0.0, horizon + 3 * dt, dt))
    args = (modes.Lambda1, modes.Lambda2, (0.1, 1.4), (0.3, 0.0), horizon, dt)
    _assert_same_solve(kern, kern, *args)


def test_kernels_keep_their_spectral_data():
    modes, kern = _m8_kernels(np.linspace(0.0, 5.0, 51))
    omegas, _ = chain_normal_modes(NetworkConfig(M=8, omega0=0.7, g=1.0))
    assert np.array_equal(kern.chain_freqs, omegas)
    inv2 = 1.0 / omegas**2
    expected = [modes.c1**2 * inv2, modes.c2**2 * inv2, modes.c1 * modes.c2 * inv2]
    for row, w, zero in zip(
        kern.weights, expected, (kern.gamma1_0, kern.gamma2_0, kern.eta_0)
    ):
        assert np.array_equal(row, w)
        assert zero == float(w.sum())
    assert np.allclose([kern.gamma1[0], kern.gamma2[0], kern.eta[0]], kern.weights.sum(axis=1),
                       rtol=1e-14, atol=0)
