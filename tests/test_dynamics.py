import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from chainsync import (
    GaussianState,
    InstabilityError,
    NetworkConfig,
    ProbePair,
    StepTooLarge,
    UncertaintyViolation,
    assemble_full_potential,
    evolve,
    initial_composite_state,
    mean_energy,
    propagator,
    reduce,
    squeezed_vacuum_local,
    symplectic_form,
    symplectic_spectrum,
)
from chainsync import cli, scenarios, trajectory
from chainsync.dynamics import phase_map, product_state
from chainsync.lattice import chain_normal_modes
from chainsync.scenarios import (
    PRESETS, _initial_state, _site_means, resolve_spec, simulate, sweep_plug_site
)
from chainsync.trajectory import NormalModeTrajectory

from oracles import (
    QuadraticForm, basis_residual, dense_covariance_series, direct_phasor_sums, rk4_reference,
    symplectic_defect, uncertainty_defect,
)


def small_system(M=10, K=0.2, lam=0.5, omega2=1.1, r=(0.0, 0.0), x0=(0.14, 1.4)):
    cfg = NetworkConfig(M=M, omega0=0.4, g=1.2)
    probes = ProbePair(omega2=omega2, lam=lam, K=K, site_m=1, site_n=1)
    qf = assemble_full_potential(cfg, probes)
    state = initial_composite_state(
        ((x0[0], 0.0), (x0[1], 0.0)),
        (squeezed_vacuum_local(1.0, r[0]), squeezed_vacuum_local(omega2, r[1])),
        cfg,
    )
    return cfg, qf, state


def test_symplectic_form_properties():
    J = symplectic_form(3)
    assert np.array_equal(J.T, -J)
    assert np.array_equal(J @ J, -np.eye(6))


def test_squeezed_vacuum_values():
    vac = squeezed_vacuum_local(0.8, 0.0)
    assert np.allclose(vac, np.diag([1 / 1.6, 0.4]))
    assert symplectic_spectrum(vac)[0] == pytest.approx(0.5, abs=1e-12)
    sq = squeezed_vacuum_local(1.0, 2.0)
    assert sq[0, 0] == pytest.approx(np.exp(-4.0) / 2.0, rel=1e-12)
    assert sq[0, 0] == pytest.approx(0.00916, abs=1e-5)
    for r in (-1.0, 0.0, 0.5, 2.0):
        assert np.linalg.det(squeezed_vacuum_local(1.3, r)) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        squeezed_vacuum_local(0.0, 1.0)


def chain_vacuum(cfg):
    """Chain block (2M x 2M, positions then momenta) of the initial state."""
    vac = (squeezed_vacuum_local(1.0, 0.0), squeezed_vacuum_local(1.1, 0.0))
    state = initial_composite_state(((0.0, 0.0), (0.0, 0.0)), vac, cfg)
    return reduce(state, range(2, cfg.M + 2)).cov


def test_chain_ground_state_decoupled_limit():
    cfg = NetworkConfig(M=4, omega0=0.7, g=1e-9)
    cov = chain_vacuum(cfg)
    assert np.allclose(cov[:4, :4], np.eye(4) / 1.4, atol=1e-8)
    assert np.allclose(cov[4:, 4:], 0.35 * np.eye(4), atol=1e-8)
    assert np.allclose(cov[:4, 4:], 0.0)


def test_chain_ground_state_is_the_ground_state():
    # the T=0 state satisfies sigma_pp = V sigma_xx with sigma_xp = 0 and is pure
    cfg = NetworkConfig(M=7, omega0=0.5, g=1.1)
    cov = chain_vacuum(cfg)
    M = cfg.M
    from chainsync.lattice import build_chain_potential

    V = build_chain_potential(cfg)
    assert np.allclose(V @ cov[:M, :M], cov[M:, M:], atol=1e-12)
    nus = symplectic_spectrum(cov)
    assert np.allclose(nus, 0.5, atol=1e-10)


def test_chain_ground_state_two_sites_bruteforce():
    cfg = NetworkConfig(M=2, omega0=0.9, g=0.6)
    cov = chain_vacuum(cfg)
    # brute-force two-mode diagonalization with explicit 2x2 rotation
    from chainsync.lattice import build_chain_potential

    V = build_chain_potential(cfg)
    w, O = np.linalg.eigh(V)
    sxx = O @ np.diag(0.5 / np.sqrt(w)) @ O.T
    spp = O @ np.diag(0.5 * np.sqrt(w)) @ O.T
    assert np.allclose(cov[:2, :2], sxx, atol=1e-12)
    assert np.allclose(cov[2:, 2:], spp, atol=1e-12)


def test_initial_composite_state_layout():
    cfg = NetworkConfig(M=3, omega0=0.6, g=1.0)
    state = initial_composite_state(
        ((0.14, 0.25), (1.4, -0.5)),
        (squeezed_vacuum_local(1.0, 0.0), squeezed_vacuum_local(1.1, 0.0)),
        cfg,
    )
    N = 5
    mean = np.zeros(2 * N)
    mean[0], mean[1], mean[N], mean[N + 1] = 0.14, 1.4, 0.25, -0.5
    assert np.array_equal(state.mean, mean)
    assert state.cov[0, 0] == pytest.approx(0.5)
    assert state.cov[N + 1, N + 1] == pytest.approx(1.1 / 2)
    # probe marginal reproduces the inputs
    probe = reduce(state, (0, 1))
    assert np.allclose(probe.cov, np.diag([0.5, 1 / 2.2, 0.5, 0.55]), atol=1e-12)



def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _symmetrization_cases():
    rng = np.random.default_rng(5)
    cases = []
    for n in (2, 10, 600):  # 600 spans several tiles, the last one partial
        c = rng.standard_normal((n, n))
        sym = c + c.T
        cases += [c, sym]
        for i, j in ((3 % n, n - 1), (n - 1, 3 % n)):  # one ulp off, either side
            nearly = sym.copy()
            nearly[i, j] = np.nextafter(nearly[i, j], np.inf)
            cases.append(nearly)
    # signed zeros, overflow of the sum, NaN: each on its own
    for x, y in ((0.0, -0.0), (-0.0, -0.0), (1.7e308, 1.7e308), (np.nan, np.nan)):
        c = np.array([[1.0, x, 2.0, 0.5], [y, 1.0, 0.5, 2.0], [2.0, 0.5, 3.0, 0.1], [0.5, 2.0, 0.1, 3.0]])
        cases.append(c)
    return cases


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("c", _symmetrization_cases())
def test_gaussian_state_covariance_is_the_symmetrized_input_bitwise(c):
    before = c.copy()
    expected = 0.5 * (c + c.T)
    state = GaussianState(np.zeros(c.shape[0]), c)
    assert np.array_equal(_bits(state.cov), _bits(expected))
    assert np.array_equal(_bits(c), _bits(before))


def test_gaussian_state_keeps_an_exactly_symmetric_covariance():
    c = np.random.default_rng(6).standard_normal((600, 600))
    sym = c + c.T
    assert GaussianState(np.zeros(600), sym).cov is sym
    assert GaussianState(np.zeros(600), c).cov is not c


def preset_system(preset, M):
    """(spec, probe covariances, initial state) of a preset on M sites, its
    second probe at the preset's site clipped to the chain."""
    site_n = min(PRESETS[preset].get("site_n", 1), M)
    spec = resolve_spec(preset, {"M": M, "site_n": site_n})
    ini, probes = spec.initial, spec.probes
    sign = 1.0 if ini.squeeze_axis == "position" else -1.0
    probe_covs = (
        squeezed_vacuum_local(probes.omega1, sign * ini.r1),
        squeezed_vacuum_local(probes.omega2, sign * ini.r2),
    )
    state = initial_composite_state(
        ((ini.x1, ini.p1), (ini.x2, ini.p2)), probe_covs, spec.network
    )
    return spec, probe_covs, state


def _assembled_covariance(probe_covs, cfg):
    """The initial covariance as assembled, before symmetrization."""
    N = cfg.M + 2
    cov = np.zeros((2 * N, 2 * N))
    for i, c in enumerate(probe_covs):
        cov[i, i] = c[0, 0]
        cov[N + i, N + i] = c[1, 1]
        cov[i, N + i] = cov[N + i, i] = c[0, 1]
    omegas, O = chain_normal_modes(cfg)
    cov[2:N, 2:N] = (O / omegas) @ O.T / 2.0
    cov[N + 2 :, N + 2 :] = (O * omegas) @ O.T / 2.0
    return cov


@pytest.mark.parametrize(
    "preset, M", [(name, 60) for name in sorted(PRESETS)] + [("fig5_entanglement_common", 200)]
)
def test_initial_state_is_the_symmetrized_assembly_bitwise(preset, M):
    spec, probe_covs, state = preset_system(preset, M)
    raw = _assembled_covariance(probe_covs, spec.network)
    assert not np.array_equal(raw, raw.T)
    assert np.array_equal(_bits(state.cov), _bits(0.5 * (raw + raw.T)))

def test_vacuum_product_state_is_stationary_when_decoupled():
    cfg = NetworkConfig(M=5, omega0=0.6, g=1.0)
    probes = ProbePair(omega2=1.3, lam=0.0, K=0.0, site_m=1, site_n=1)
    qf = assemble_full_potential(cfg, probes)
    state = initial_composite_state(
        ((0.0, 0.0), (0.0, 0.0)),
        (squeezed_vacuum_local(1.0, 0.0), squeezed_vacuum_local(1.3, 0.0)),
        cfg,
    )
    out = evolve(state, propagator(qf, 17.3))
    assert np.allclose(out.mean, 0.0, atol=1e-14)
    assert np.allclose(out.cov, state.cov, atol=1e-10)
    assert np.allclose(symplectic_spectrum(out.cov), 0.5, atol=1e-10)


# the dense site-basis state and the run path's chain-basis product state
BUILDERS = {
    "site": lambda covs, cfg: initial_composite_state(((0.0, 0.0), (0.0, 0.0)), covs, cfg),
    "product": lambda covs, cfg: product_state(((0.0, 0.0), (0.0, 0.0)), covs, cfg),
}


def test_initial_state_rejects_subvacuum_covariance():
    cfg = NetworkConfig(M=3, omega0=0.6, g=1.0)
    for builder in BUILDERS.values():
        with pytest.raises(UncertaintyViolation):
            builder((np.diag([0.1, 0.1]), squeezed_vacuum_local(1.1, 0.0)), cfg)


# det alone passes both: -I has nu = 1, and the asymmetric block has det 26
# while the symmetric one written from c[0, 1] has det -24
@pytest.mark.parametrize("c, error", [
    (-np.eye(2), UncertaintyViolation),
    (np.array([[1.0, 5.0], [-5.0, 1.0]]), ValueError),
])
def test_initial_state_rejects_unphysical_covariance_with_a_valid_det(c, error):
    # both builders raise the same error with the same message
    cfg = NetworkConfig(M=3, omega0=0.6, g=1.0)
    for covs in ((c, squeezed_vacuum_local(1.1, 0.0)), (squeezed_vacuum_local(1.0, 0.0), c)):
        messages = set()
        for builder in BUILDERS.values():
            with pytest.raises(error, match="probe") as info:
                builder(covs, cfg)
            messages.add((type(info.value), str(info.value)))
        assert len(messages) == 1


def test_product_state_is_the_composite_state_in_the_chain_basis():
    cfg = NetworkConfig(M=9, omega0=0.6, g=1.0)
    means = ((0.14, 0.25), (1.4, -0.5))
    covs = (squeezed_vacuum_local(1.0, 0.7), np.array([[0.8, 0.3], [0.3, 0.6]]))
    state = product_state(means, covs, cfg)
    dense = initial_composite_state(means, covs, cfg)
    N = cfg.M + 2
    B = np.eye(N)
    B[2:, 2:] = chain_normal_modes(cfg)[1]
    assert state.network is cfg and state.n_modes == N
    assert np.array_equal(state.mean, dense.mean)
    for (rows, cols), diag in (((0, 0), state.var_x), ((0, 1), state.cov_xp), ((1, 1), state.var_p)):
        block = dense.cov[rows * N : (rows + 1) * N, cols * N : (cols + 1) * N]
        assert np.allclose(B @ np.diag(diag) @ B.T, block, rtol=0.0, atol=1e-15)


def test_propagator_identity_and_quarter_period():
    qf = QuadraticForm(np.array([[1.0]]))
    assert np.allclose(propagator(qf, 0.0).S, np.eye(2), atol=1e-15)
    S = propagator(qf, np.pi / 2).S
    assert np.allclose(S, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


def test_propagator_rejects_unstable_form():
    with pytest.raises(InstabilityError):
        propagator(QuadraticForm(np.array([[0.01, 1.0], [1.0, 0.16]])), 1.0)


def test_propagator_symplectic_and_composition_random():
    rng = np.random.default_rng(5)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        B = rng.normal(size=(n, n))
        qf = QuadraticForm(B @ B.T + 0.1 * np.eye(n))
        t1, t2 = rng.uniform(0.1, 3.0, size=2)
        s1, s2, s12 = propagator(qf, t1), propagator(qf, t2), propagator(qf, t1 + t2)
        assert symplectic_defect(s1) <= 1e-10
        assert np.max(np.abs(s1.S @ s2.S - s12.S)) <= 1e-10


def test_phase_map_rows_and_times_bit_for_bit():
    modes = small_system(M=9)[1].modes
    nu, O = np.sqrt(modes.values), modes.dense
    N = nu.size
    z = np.exp(1j * (np.linspace(0.0, 40.0, 7)[:, None] * nu))
    full = phase_map(O, nu, z)
    assert full.shape == (7, 2 * N, 2 * N)
    for zt, St in zip(z, full):
        assert np.array_equal(phase_map(O, nu, zt), St)
    assert np.array_equal(phase_map(O[:2], nu, z), full[:, [0, 1, N, N + 1]])
    assert np.array_equal(phase_map(O, nu, np.ones(N, dtype=complex)), np.kron(np.eye(2), O))


def test_evolve_identity_and_dimension_guard():
    cfg, qf, state = small_system(M=4)
    same = evolve(state, propagator(qf, 0.0))
    assert np.allclose(same.mean, state.mean, atol=1e-15)
    assert np.allclose(same.cov, state.cov, atol=1e-15)
    with pytest.raises(ValueError):
        evolve(state, propagator(QuadraticForm(np.eye(2)), 1.0))


def test_energy_purity_uncertainty_over_long_run():
    cfg, qf, state = small_system(M=16, r=(0.7, -0.3))
    smap = propagator(qf, 0.5)
    e0 = mean_energy(state, qf)
    nus0 = symplectic_spectrum(state.cov)
    s = state
    for _ in range(400):
        s = evolve(s, smap)
    assert mean_energy(s, qf) == pytest.approx(e0, rel=1e-9)
    nus = symplectic_spectrum(s.cov)
    assert np.allclose(np.sort(nus), np.sort(nus0), rtol=1e-8)  # global purity conserved
    assert uncertainty_defect(s.cov) > -1e-9


def test_trajectory_engine_matches_evolve():
    cfg, qf, state = small_system(M=12, r=(0.4, 0.0))
    eng = NormalModeTrajectory(qf, state)
    smap = propagator(qf, 7.3)
    ref = evolve(state, smap)
    direct = eng.state_at(7.3)
    assert np.allclose(direct.mean, ref.mean, atol=1e-12)
    assert np.allclose(direct.cov, ref.cov, atol=1e-12)
    X, P = eng.mean_series(np.array([7.3]))
    assert np.allclose(np.concatenate([X[0], P[0]]), ref.mean[[0, 1, qf.dim, qf.dim + 1]])
    covs = eng.covariance_series(np.array([7.3]))
    idx = np.array([0, 1, qf.dim, qf.dim + 1])
    assert np.allclose(covs[0], ref.cov[np.ix_(idx, idx)], atol=1e-12)


def test_rk4_free_oscillator_hundred_periods():
    # one mode at frequency 2 pi: 100 periods at dt = 1e-3
    qf = QuadraticForm(np.array([[4.0 * np.pi**2]]))
    state = GaussianState(np.array([1.0, 0.0]), 0.5 * np.eye(2))
    out = rk4_reference(state, qf, 100.0, 1e-3)
    assert out.mean[0] == pytest.approx(1.0, abs=1e-8)
    assert out.mean[1] == pytest.approx(0.0, abs=1e-7)


def test_rk4_matches_exact_propagator():
    cfg, qf, state = small_system(M=10)
    exact = evolve(state, propagator(qf, 50.0))
    approx = rk4_reference(state, qf, 50.0, 0.01)
    scale = np.max(np.abs(exact.cov))
    assert np.max(np.abs(approx.mean - exact.mean)) < 1e-6
    assert np.max(np.abs(approx.cov - exact.cov)) / scale < 1e-6


def test_rk4_fourth_order_convergence():
    cfg, qf, state = small_system(M=4)
    exact = evolve(state, propagator(qf, 5.0))

    def err(dt):
        out = rk4_reference(state, qf, 5.0, dt)
        return np.max(np.abs(out.mean - exact.mean))

    assert 10.0 < err(0.02) / err(0.01) < 22.0


def test_rk4_step_guard():
    cfg, qf, state = small_system(M=4)
    with pytest.raises(StepTooLarge):
        rk4_reference(state, qf, 1.0, 0.5)


def test_reduce_identity_and_marginals():
    cfg, qf, state = small_system(M=6, r=(1.0, 0.0))
    full = reduce(state, range(state.n_modes))
    assert np.array_equal(full.cov, state.cov)
    probe = reduce(state, (0, 1))
    assert probe.n_modes == 2
    assert symplectic_spectrum(probe.cov)[0] == pytest.approx(0.5, abs=1e-10)
    # after evolving with coupling on, the probe pair is mixed
    evolved = evolve(state, propagator(qf, 12.0))
    nus = symplectic_spectrum(reduce(evolved, (0, 1)).cov)
    assert nus[0] > 0.5 + 1e-3


def s_matrix_probe_moments(qf, state, times):
    """Probe means (X, P) and covariances from the S-matrix path, one
    propagator per time."""
    X, P, covs = [], [], []
    for t in times:
        probe = reduce(evolve(state, propagator(qf, t)), (0, 1))
        X.append(probe.mean[:2])
        P.append(probe.mean[2:])
        covs.append(probe.cov)
    return np.array(X), np.array(P), np.array(covs)


def assert_engine_matches_s_matrix(qf, state, times):
    eng = NormalModeTrajectory(qf, state)
    X, P = eng.mean_series(times)
    covs = eng.covariance_series(times)
    X_ref, P_ref, covs_ref = s_matrix_probe_moments(qf, state, times)
    assert np.max(np.abs(X - X_ref)) <= 1e-10
    assert np.max(np.abs(P - P_ref)) <= 1e-10
    assert np.max(np.abs(covs - covs_ref)) <= 1e-10


def test_engine_non_uniform_grid():
    cfg, qf, state = small_system(M=12, r=(0.4, -0.2))
    rng = np.random.default_rng(11)
    times = np.sort(rng.uniform(0.0, 150.0, size=300))
    assert_engine_matches_s_matrix(qf, state, times)
    # uniform blocks around a single off-grid time
    times = np.arange(600) * 0.05
    times[300] += 0.013
    assert_engine_matches_s_matrix(qf, state, times)


def test_engine_grid_not_a_multiple_of_the_block():
    from chainsync.dynamics import _TIME_CHUNK

    cfg, qf, state = small_system(M=12, r=(0.4, 0.0))
    times = np.arange(2 * _TIME_CHUNK + 37) * 0.3 + 5.0
    assert_engine_matches_s_matrix(qf, state, times)


@pytest.mark.parametrize(
    "preset, M", [(name, 60) for name in sorted(PRESETS)] + [("fig2_dissipation", 300)]
)
def test_covariance_series_matches_the_dense_product(preset, M):
    spec, _, state = preset_system(preset, M)
    qf = assemble_full_potential(spec.network, spec.probes)
    n = int(round(spec.run.horizon / spec.run.dt_cov))
    times = np.arange(n + 1) * spec.run.dt_cov
    got = NormalModeTrajectory(qf, state).covariance_series(times)
    ref = dense_covariance_series(qf, state, times)
    peak = max(np.max(np.abs(ref[:, i, i])) for i in range(4))
    assert np.max(np.abs(got - ref)) <= 1e-12 * peak


@pytest.mark.parametrize("preset", ["fig2_dissipation", "fig4_edges"])
def test_product_states_take_the_resolvent_basis(preset):
    # falling back to the whole space would stay exact but cost the dense
    # O(N^2) per sample, which only this test sees
    spec, _, _ = preset_system(preset, 300)
    engine = NormalModeTrajectory(
        assemble_full_potential(spec.network, spec.probes), _initial_state(spec)
    )
    basis = engine.covariance_basis
    assert isinstance(basis, int) and basis <= 100


def test_a_means_only_engine_holds_no_covariance_block():
    # the spectrum holds O (N^2 doubles) and its eigh a copy of V; a
    # normal-coordinate covariance block would add N^2 more each
    spec, _, state = preset_system("fig2_dissipation", 400)
    qf = assemble_full_potential(spec.network, spec.probes)
    N = qf.dim
    tracemalloc.start()
    try:
        X, _ = NormalModeTrajectory(qf, state).mean_series(np.arange(101) * spec.run.dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(X))
    assert peak <= 3 * N * N * 8, peak / (8 * N * N)


def assert_product_path_matches_site_path(spec, probe_covs):
    """Engines of a spec's initial state in the chain basis (the run path's
    ProductState, on its resolvent basis) and in site coordinates (the
    dense state, which always takes the whole space) agree; returns the
    ProductState's covariance basis."""
    ini = spec.initial
    means = ((ini.x1, ini.p1), (ini.x2, ini.p2))
    qf = assemble_full_potential(spec.network, spec.probes)
    product = NormalModeTrajectory(
        qf, product_state(means, probe_covs, spec.network)
    )
    site = NormalModeTrajectory(qf, initial_composite_state(means, probe_covs, spec.network))
    n = int(round(spec.run.horizon / spec.run.dt_cov))
    times = np.arange(n + 1) * spec.run.dt_cov
    got, ref = product.covariance_series(times), site.covariance_series(times)
    assert site.covariance_basis == "full"
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    for t in (0.0, 37.3):
        got, ref = product.state_at(t), site.state_at(t)
        assert np.max(np.abs(got.cov - ref.cov)) <= 1e-14 * np.max(np.abs(ref.cov))
        assert np.max(np.abs(got.mean - ref.mean)) <= 1e-14 * np.max(np.abs(ref.mean))
    return product.covariance_basis


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_product_path_matches_site_path(preset):
    spec, probe_covs, _ = preset_system(preset, 60)
    assert isinstance(assert_product_path_matches_site_path(spec, probe_covs), int)


def test_product_path_matches_site_path_on_a_custom_network():
    rng = np.random.default_rng(11)
    A = np.triu(rng.uniform(0.0, 1.5, size=(60, 60)) * (rng.random((60, 60)) < 0.1), 1)
    spec, probe_covs, _ = preset_system("fig5_entanglement_common", 60)
    network = NetworkConfig(M=60, omega0=0.4, g=1.2, coupling_matrix=A + A.T)
    spec = dataclasses.replace(spec, network=network)
    assert_product_path_matches_site_path(spec, probe_covs)


def test_product_path_matches_site_path_on_the_whole_space(monkeypatch):
    # two shifts leave the resolvent basis far from round-off, so the
    # product path takes the whole space as the basis of the moving part,
    # as the dense path always does
    monkeypatch.setattr(trajectory, "_SHIFTS", 2)
    spec, probe_covs, _ = preset_system("fig2_dissipation", 60)
    assert assert_product_path_matches_site_path(spec, probe_covs) == "full"


def test_the_run_path_holds_no_dense_initial_covariance():
    # set-up and first covariance read of fig5: the spectrum holds O and
    # its eigh works on a copy of V next to the chain's modes; the first
    # covariance read holds O, W^T, G and one ground-state block, plus
    # tiles of _ROWS rows (0.64 N^2 each at this N).  The dense Sigma0
    # alone would add 4 N^2 doubles (8.9 N^2 in all when it was formed).
    spec = resolve_spec("fig5_entanglement_common", {"M": 400})
    N = spec.network.M + 2
    tracemalloc.start()
    try:
        engine = _site_means(spec, _initial_state(spec))[0]
        covs = engine.covariance_series(np.arange(101) * spec.run.dt_cov)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(covs))
    ratio = peak / (8 * N * N)
    assert ratio <= 7.0, f"peak {ratio:.2f} N^2 doubles"


def test_the_first_covariance_read_holds_no_ground_state_block():
    # after set-up, the basis of the moving part forms no N x N array:
    # B^T O U takes the chain's modes a block of rows at a time, and the
    # resolvent block and its SVD read 1.6 N^2 doubles at this N; the
    # O(N^3) residual check held the chain's modes, W^T and a ground-state
    # block (4.4 N^2).  The series that follows holds O(N r) coefficient
    # arrays only, which at this N read 2.9 N^2 on their own.
    spec = resolve_spec("fig5_entanglement_common", {"M": 400})
    N = spec.network.M + 2
    engine = _site_means(spec, _initial_state(spec))[0]
    tracemalloc.start()
    try:
        basis = engine.covariance_basis
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(basis, int)
    ratio = peak / (8 * N * N)
    assert ratio <= 3.0, f"peak {ratio:.2f} N^2 doubles"


def test_the_first_covariance_series_stores_its_anchored_coefficients_once():
    # the probe trajectories of the basis's 2r columns are N x 8r complex
    # coefficients; a group of time blocks anchors them once, as one real
    # [Re; -Im] buffer for every group (2.9 N^2 in all at this N), where
    # the complex product, its negated imaginary part and their
    # concatenation were held at once (3.6 N^2)
    spec = resolve_spec("fig5_entanglement_common", {"M": 400})
    N = spec.network.M + 2
    engine = _site_means(spec, _initial_state(spec))[0]
    assert isinstance(engine.covariance_basis, int)
    tracemalloc.start()
    try:
        covs = engine.covariance_series(np.arange(101) * spec.run.dt_cov)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(covs))
    ratio = peak / (8 * N * N)
    assert ratio <= 3.2, f"peak {ratio:.2f} N^2 doubles"


@pytest.mark.parametrize("M", [20, 60, 300])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_the_midpoint_leak_accepts_only_bases_the_exact_residual_accepts(preset, M, monkeypatch):
    # fewer shifts stand in for a wider spectrum; 14, 15 and 17 shifts
    # reach the exact check's bound on fig3 at M = 20 to 60
    spec, _, _ = preset_system(preset, M)
    state = _initial_state(spec)
    engine = NormalModeTrajectory(assemble_full_potential(spec.network, spec.probes), state)
    for shifts in (6, 8, 10, 12, 14, 15, 16, 17, 20, 32):
        monkeypatch.setattr(trajectory, "_SHIFTS", shifts)
        trial = copy.copy(engine)
        kept = isinstance(trial.covariance_basis, int)
        if kept:
            # the basis the engine kept, on the grid or on its refinement
            resid, bound = basis_residual(engine.nu, engine.O, state, trial._moving_part[0])
            assert resid <= bound, f"{shifts} shifts: residual {resid / bound:.3g} x bound"
        assert kept or shifts < 32


@pytest.mark.parametrize("path", ["validate", "site_means", "simulate", "sweep"])
def test_the_composite_eigensolve_holds_no_chain_mode_matrix(path, monkeypatch, tmp_path):
    # set-up, means, covariances and a sweep at M = 2000 run no N x N
    # eigensolve and form no N x N array: not the potential V, which only
    # an oracle forms, nor the chain's M x M modes or the composite modes
    # O (each N^2 doubles), as the secular solves work a chunk of roots
    # at a time
    overrides = {"M": 2000, "horizon": 40.0}
    spec = resolve_spec("fig5_entanglement_common", overrides)
    N = spec.network.M + 2
    shapes, forms = [], []

    def spy(fn):
        def spied(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)

        return spied

    def assemble(network, probes):
        forms.append(assemble_full_potential(network, probes))
        return forms[-1]

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
    for module in (cli, scenarios):
        monkeypatch.setattr(module, "assemble_full_potential", assemble)
    tracemalloc.start()
    try:
        if path == "validate":
            sets = [f"--set={k}={v}" for k, v in {"preset": spec.preset, **overrides}.items()]
            assert cli.main(["validate", *sets]) == 0
        elif path == "site_means":
            assert np.all(np.isfinite(_site_means(spec, _initial_state(spec))[2]))
        elif path == "simulate":
            assert np.all(np.isfinite(simulate(spec).var_x1))
        else:
            sweep_plug_site(resolve_spec("appB_sweep", overrides), sites=[1, 2], out_dir=tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert shapes == []
    assert len(forms) == (2 if path == "sweep" else 1)
    assert all("V" not in vars(qf) for qf in forms)
    ratio = peak / (8 * N * N)
    assert ratio <= 0.75, f"peak {ratio:.2f} N^2 doubles"


def test_a_mixed_state_takes_the_whole_space_and_stays_exact():
    # local squeezed thermal states pushed through a second form's
    # propagator, as in the random-form property test, on a chain of 60
    cfg, qf, _ = small_system(M=60)
    N = qf.dim
    rng = np.random.default_rng(7)
    cov = np.zeros((2 * N, 2 * N))
    for i in range(N):
        local = (2 * rng.uniform(0.0, 2.0) + 1) * squeezed_vacuum_local(
            rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0)
        )
        cov[np.ix_([i, N + i], [i, N + i])] = local
    Q, _ = np.linalg.qr(rng.normal(size=(N, N)))
    mixer = QuadraticForm((Q * rng.uniform(0.05, 4.0, size=N)) @ Q.T)
    state = evolve(GaussianState(rng.uniform(-3.0, 3.0, size=2 * N), cov), propagator(mixer, 9.0))
    engine = NormalModeTrajectory(qf, state)
    assert engine.covariance_basis == "full"
    times = np.array([0.0, 3.7, 41.0])
    covs = engine.covariance_series(times)
    _, _, covs_ref = s_matrix_probe_moments(qf, state, times)
    assert np.max(np.abs(covs - covs_ref)) <= 1e-10 * np.max(np.abs(covs_ref))
    full, ref = engine.state_at(41.0), evolve(state, propagator(qf, 41.0))
    assert np.max(np.abs(full.cov - ref.cov)) <= 1e-10 * np.max(np.abs(ref.cov))
    assert np.max(np.abs(full.mean - ref.mean)) <= 1e-10 * np.max(np.abs(ref.mean))


def _phasor_sum_grid(name):
    """Times of a named grid: the sample counts 0, 1 and 2; a uniform grid
    over more than one product group ending in a partial block; that grid
    with one time off it inside the first group; a non-uniform grid; and a
    uniform grid starting at t0 != 0."""
    from chainsync.dynamics import _GROUP, _TIME_CHUNK

    long = np.arange(_GROUP * _TIME_CHUNK + 3 * _TIME_CHUNK + 37) * 0.01
    off = long.copy()
    off[1000] += 0.0037
    return {
        "empty": np.empty(0),
        "one": np.array([2.5]),
        "two": np.array([0.0, 0.7]),
        "long": long,
        "one_off_grid": off,
        "non_uniform": np.sort(np.random.default_rng(8).uniform(0.0, 60.0, size=900)),
        "shifted": long[:3000] + 7.3,
    }[name]


@pytest.mark.parametrize("kind", ["real", "complex", "wide"])
@pytest.mark.parametrize(
    "grid", ["empty", "one", "two", "long", "one_off_grid", "non_uniform", "shifted"]
)
def test_phasor_sums_match_direct_exp_sums(grid, kind):
    from chainsync.dynamics import phasor_sums

    times = _phasor_sum_grid(grid)
    rng = np.random.default_rng(3)
    nu = rng.uniform(0.3, 3.0, size=30)
    # a wide coef takes one block per product
    coef = rng.normal(size=(30, 70 if kind == "wide" else 3))
    if kind != "real":
        coef = coef + 1j * rng.normal(size=coef.shape)
    got = phasor_sums(nu, times, coef)
    ref = direct_phasor_sums(nu, times, coef)
    assert got.shape == ref.shape == (times.size, coef.shape[1]) and got.dtype == float
    if times.size:
        peak = np.max(np.abs(ref), axis=0)
        assert np.all(np.max(np.abs(got - ref), axis=0) <= 1e-13 * peak)
