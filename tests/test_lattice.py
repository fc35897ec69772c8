import tracemalloc

import numpy as np
import pytest

from chainsync import (
    InstabilityError,
    NetworkConfig,
    NormalModeTrajectory,
    ProbePair,
    QuadraticForm,
    ZeroModeError,
    assemble_full_potential,
    build_chain_potential,
    chain_dispersion,
    chain_normal_modes,
    check_stability,
    initial_composite_state,
    max_group_velocity,
    revival_time,
    squeezed_vacuum_local,
    system_modes,
)
from chainsync.dynamics import product_state

from oracles import group_velocity_grid, sine_mode_matrix


def dispersion_oracle(M, omega0, g):
    # independent evaluation of the fixed-end chain band
    j = np.arange(1, M + 1)
    return np.sqrt(omega0**2 + 4.0 * g * np.sin(np.pi * j / (2 * (M + 1))) ** 2)


def test_two_site_chain():
    V = build_chain_potential(NetworkConfig(M=2, omega0=0.0, g=1.0))
    assert np.array_equal(V, [[2.0, -1.0], [-1.0, 2.0]])
    assert np.allclose(np.linalg.eigvalsh(V), [1.0, 3.0])


def test_weak_stiffness_limit():
    cfg = NetworkConfig(M=6, omega0=2.0, g=1e-12)
    evals = np.linalg.eigvalsh(build_chain_potential(cfg))
    assert np.allclose(evals, 4.0, atol=1e-10)


def test_dispersion_matches_eigensolve_full_scale():
    cfg = NetworkConfig(M=300, omega0=0.4, g=1.2)
    disp = chain_dispersion(cfg)
    eig = np.sqrt(np.linalg.eigvalsh(build_chain_potential(cfg)))
    assert np.max(np.abs(np.sort(disp) - eig) / eig) < 1e-10
    assert disp.min() == pytest.approx(0.4002, abs=1e-3)
    assert disp.max() == pytest.approx(2.227, abs=1e-3)


def test_dispersion_matches_eigensolve_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        M = int(rng.integers(2, 65))
        omega0 = float(rng.uniform(0.0, 2.0))
        g = float(rng.uniform(0.1, 3.0))
        cfg = NetworkConfig(M=M, omega0=omega0, g=g)
        disp = np.sort(chain_dispersion(cfg))
        eig = np.sqrt(np.clip(np.linalg.eigvalsh(build_chain_potential(cfg)), 0, None))
        assert np.allclose(disp, eig, rtol=1e-10, atol=1e-12)
        assert np.allclose(disp, dispersion_oracle(M, omega0, g), rtol=1e-12)


def test_sine_modes_diagonalize_chain():
    cfg = NetworkConfig(M=17, omega0=0.3, g=0.9)
    omegas, O = chain_normal_modes(cfg)
    V = build_chain_potential(cfg)
    assert np.allclose(O @ O.T, np.eye(17), atol=1e-12)
    assert np.allclose(O.T @ V @ O, np.diag(omegas**2), atol=1e-10)


def test_assemble_decoupled_is_block_diagonal():
    cfg = NetworkConfig(M=5, omega0=0.5, g=1.0)
    probes = ProbePair(omega2=1.3, lam=0.0, K=0.0, site_m=2, site_n=4)
    qf = assemble_full_potential(cfg, probes)
    assert np.allclose(qf.V[:2, :2], np.diag([1.0, 1.69]), rtol=1e-14)
    assert np.allclose(qf.V[:2, 2:], 0.0)
    # spectrum is the union of probe and chain spectra
    expected = np.sort(np.concatenate([[1.0, 1.69], np.linalg.eigvalsh(qf.V[2:, 2:])]))
    assert np.allclose(np.linalg.eigvalsh(qf.V), expected, atol=1e-12)


def test_assemble_k0_spectrum_union_with_coupling():
    cfg = NetworkConfig(M=8, omega0=0.4, g=1.2)
    probes = ProbePair(omega2=1.1, lam=0.5, K=0.0, site_m=1, site_n=1)
    qf = assemble_full_potential(cfg, probes)
    probe_eigs = np.linalg.eigvalsh(qf.V[:2, :2])
    chain_eigs = np.linalg.eigvalsh(qf.V[2:, 2:])
    expected = np.sort(np.concatenate([probe_eigs, chain_eigs]))
    assert np.allclose(np.linalg.eigvalsh(qf.V), expected, atol=1e-10)


def test_assemble_common_node_bilinear():
    # H_I = K (x1 + x2) X_1 when both probes plug into site 1
    cfg = NetworkConfig(M=4, omega0=0.7, g=1.0)
    K = 0.3
    qf = assemble_full_potential(cfg, ProbePair(omega2=1.1, lam=0.2, K=K, site_m=1, site_n=1))
    x = np.array([0.5, -1.2, 0.8, 0.0, 0.0, 0.0])
    energy = 0.5 * x @ qf.V @ x
    x1, x2, X1 = x[0], x[1], x[2]
    manual = (
        0.5 * (1.0 * x1**2 + 1.1**2 * x2**2)
        + 0.1 * (x1 - x2) ** 2
        + K * (x1 + x2) * X1
        + 0.5 * x[2:] @ build_chain_potential(cfg) @ x[2:]
    )
    assert energy == pytest.approx(manual, rel=1e-12)


def test_assemble_sign_flip_and_sites():
    cfg = NetworkConfig(M=6, omega0=0.4, g=1.2)
    qf = assemble_full_potential(
        cfg, ProbePair(omega2=1.1, lam=0.0, K=0.25, site_m=2, site_n=5, sign2=-1)
    )
    # chain site s is row s + 1
    assert qf.V[0, 1 + 2] == 0.25
    assert qf.V[1, 1 + 5] == -0.25
    assert np.count_nonzero(qf.V[:2, 2:]) == 2


def test_assemble_exact_symmetry_and_probe_permutation():
    cfg = NetworkConfig(M=9, omega0=0.6, g=0.8)
    pp = ProbePair(omega1=1.0, omega2=1.4, lam=0.3, K=0.2, site_m=3, site_n=7)
    qf = assemble_full_potential(cfg, pp)
    assert np.array_equal(qf.V, qf.V.T)
    swapped = ProbePair(omega1=1.4, omega2=1.0, lam=0.3, K=0.2, site_m=7, site_n=3)
    qf2 = assemble_full_potential(cfg, swapped)
    P = np.eye(qf.dim)
    P[[0, 1]] = P[[1, 0]]
    assert np.allclose(P @ qf.V @ P.T, qf2.V, atol=1e-14)


def test_fig2_assembly_is_stable():
    cfg = NetworkConfig(M=300, omega0=0.4, g=1.2)
    qf = assemble_full_potential(cfg, ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=1, site_n=1))
    assert qf.dim == 302
    min_eig = check_stability(qf)
    assert min_eig > 0
    # cross-check against a plain eigensolve
    assert min_eig == pytest.approx(np.linalg.eigvalsh(qf.V)[0], rel=1e-12)


def test_strong_coupling_still_stable():
    cfg = NetworkConfig(M=300, omega0=0.4, g=1.2)
    qf = assemble_full_potential(cfg, ProbePair(omega2=1.1, lam=0.0, K=0.8, site_m=1, site_n=1))
    assert check_stability(qf) > 0


def test_check_stability_identity():
    assert check_stability(QuadraticForm(np.eye(4))) == pytest.approx(1.0)


def test_instability_raised_for_overcritical_coupling():
    # 2x2 block with omega^2 Omega0^2 - K^2 < 0 is unbounded below
    V = np.array([[0.01, 1.0], [1.0, 0.16]])
    assert np.linalg.det(V) < 0
    with pytest.raises(InstabilityError) as err:
        check_stability(QuadraticForm(V))
    assert err.value.min_eigenvalue < 0


def test_custom_coupling_matrix_hook():
    M = 5
    A = np.zeros((M, M))
    for j in range(M - 1):
        A[j, j + 1] = A[j + 1, j] = 0.7
    cfg = NetworkConfig(M=M, omega0=0.9, g=1.0, coupling_matrix=A)
    V = build_chain_potential(cfg)
    assert np.allclose(V, V.T)
    # row sums of the coupling part vanish (free-floating network)
    assert np.allclose((V - np.diag(np.full(M, 0.81))).sum(axis=1), 0.0, atol=1e-12)
    omegas, O = chain_normal_modes(cfg)
    assert np.allclose(O.T @ V @ O, np.diag(omegas**2), atol=1e-10)
    with pytest.raises(ValueError):
        chain_dispersion(cfg)


def test_custom_network_zero_mode_detected():
    M = 4
    A = np.zeros((M, M))
    for j in range(M - 1):
        A[j, j + 1] = A[j + 1, j] = 1.0
    cfg = NetworkConfig(M=M, omega0=0.0, g=1.0, coupling_matrix=A)
    with pytest.raises(ZeroModeError):
        chain_normal_modes(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(M=1, omega0=0.4, g=1.2)
    with pytest.raises(ValueError):
        NetworkConfig(M=4, omega0=-0.1, g=1.2)
    with pytest.raises(ValueError):
        NetworkConfig(M=4, omega0=0.4, g=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(M=3, omega0=0.4, g=1.0, coupling_matrix=np.ones((3, 3)))
    with pytest.raises(ValueError):
        ProbePair(omega2=1.1, lam=-0.1, K=0.2, site_m=1, site_n=1)
    with pytest.raises(ValueError):
        ProbePair(omega2=1.1, lam=0.0, K=0.2, site_m=1, site_n=1, sign2=2)
    with pytest.raises(ValueError):
        ProbePair(omega2=1.1, lam=0.0, K=0.2, site_m=0, site_n=1).validate_sites(5)


def test_revival_and_group_velocity():
    cfg = NetworkConfig(M=300, omega0=0.4, g=1.2)
    assert revival_time(cfg) == 600.0
    # with no on-site pinning the band velocity is sqrt(g)
    free = NetworkConfig(M=50, omega0=0.0, g=2.25)
    assert max_group_velocity(free) == 1.5


@pytest.mark.parametrize(
    "omega0, g", [(0.4, 1.2), (2.0, 0.5), (0.0, 1.0), (0.0, 2.25), (1e-3, 3.0), (5.0, 0.01)]
)
def test_group_velocity_closed_form_matches_dense_grid(omega0, g):
    v = max_group_velocity(NetworkConfig(M=10, omega0=omega0, g=g))
    # the old 4096-point grid read 4.8e-8 low at (2.0, 0.5)
    assert v == pytest.approx(group_velocity_grid(omega0, g), rel=1e-10)


def test_sine_mode_rows_match_the_dense_transform():
    for M in (2, 7, 60, 301):
        cfg = NetworkConfig(M=M, omega0=0.4, g=1.2)
        ref = sine_mode_matrix(M)
        _, O = chain_normal_modes(cfg)
        assert np.array_equal(O, ref)
        sites = [1, M, (M + 1) // 2, 1]
        omegas, rows = chain_normal_modes(cfg, sites)
        assert np.array_equal(rows, ref[np.array(sites) - 1])
        assert np.array_equal(omegas, chain_dispersion(cfg))
        # a bare site count is the same chain, without frequencies
        none, bare = chain_normal_modes(M, sites)
        assert none is None and np.array_equal(bare, rows)


def test_custom_network_rows_are_rows_of_one_eigh():
    M = 12
    rng = np.random.default_rng(4)
    A = np.triu(rng.uniform(0.0, 1.5, size=(M, M)) * (rng.random((M, M)) < 0.5), 1)
    cfg = NetworkConfig(M=M, omega0=0.4, g=1.2, coupling_matrix=A + A.T)
    omegas, O = chain_normal_modes(cfg)
    rows_omegas, rows = chain_normal_modes(cfg, (3, 7))
    assert np.array_equal(rows, O[[2, 6]])
    assert np.array_equal(rows_omegas, omegas)


def test_chain_mode_rows_reject_sites_off_the_chain():
    cfg = NetworkConfig(M=6, omega0=0.4, g=1.2)
    A = np.ones((6, 6)) - np.eye(6)
    custom = NetworkConfig(M=6, omega0=0.4, g=1.2, coupling_matrix=A)
    for net in (cfg, custom, 6):
        for sites in ((0, 3), (1, 7)):
            with pytest.raises(ValueError):
                chain_normal_modes(net, sites)


def test_chain_mode_rows_reject_fractional_sites():
    # a site of 2.7 once read site 2's row
    cfg = NetworkConfig(M=6, omega0=0.4, g=1.2)
    A = np.ones((6, 6)) - np.eye(6)
    custom = NetworkConfig(M=6, omega0=0.4, g=1.2, coupling_matrix=A)
    for net in (cfg, custom, 6):
        for sites in ((2.7,), (1, 2.5), (np.nan,)):
            with pytest.raises(ValueError, match="whole numbers"):
                chain_normal_modes(net, sites)
        # whole numbers of any type pick the same rows
        assert np.array_equal(chain_normal_modes(net, (2.0, 5))[1], chain_normal_modes(net, (2, 5))[1])


def test_validate_sites_rejects_fractional_sites():
    probes = ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=1, site_n=2.5)
    with pytest.raises(ValueError, match=r"site_n=2.5 is not a whole number in \[1, 6\]"):
        probes.validate_sites(6)
    # assembly validates first, so no numpy IndexError escapes
    with pytest.raises(ValueError, match="whole number"):
        assemble_full_potential(NetworkConfig(M=6, omega0=0.4, g=1.2), probes)
    # a whole-number site of any type indexes as an int, through the engine
    net = NetworkConfig(M=6, omega0=0.4, g=1.2)
    vac = (squeezed_vacuum_local(1.0, 0.0), squeezed_vacuum_local(1.1, 0.0))
    for site in (1.0, np.int64(3)):
        probes = ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=site, site_n=6)
        probes.validate_sites(6)
        assert type(probes.site_m) is int and probes.site_m == site
        qf = assemble_full_potential(net, probes)
        engine = NormalModeTrajectory(qf, product_state(((0.1, 0.0), (1.0, 0.0)), vac, net))
        assert qf.coupled_sites == [0, 1, 1 + int(site), 7]
        assert np.all(np.isfinite(engine.mean_series(np.arange(3.0))[0]))


def test_a_mode_pair_is_no_chain_input():
    cfg = NetworkConfig(M=6, omega0=0.4, g=1.2)
    pair = chain_normal_modes(cfg)
    vac = (squeezed_vacuum_local(1.0, 0.0), squeezed_vacuum_local(1.1, 0.0))
    probes = ProbePair(omega2=1.1, lam=0.5, K=0.2, site_m=1, site_n=3)
    for call in (
        lambda: chain_normal_modes(pair, (1, 3)),
        lambda: system_modes(probes, pair),
        lambda: product_state(((0.0, 0.0), (0.0, 0.0)), vac, pair),
        lambda: initial_composite_state(((0.0, 0.0), (0.0, 0.0)), vac, pair),
    ):
        with pytest.raises(TypeError):
            call()


def test_a_custom_network_is_diagonalized_once_per_config(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    M = 12
    rng = np.random.default_rng(4)
    A = np.triu(rng.uniform(0.0, 1.5, size=(M, M)) * (rng.random((M, M)) < 0.5), 1)
    cfg = NetworkConfig(M=M, omega0=0.4, g=1.2, coupling_matrix=A + A.T)
    assert calls == []  # built on first use, not with the config
    omegas, O = chain_normal_modes(cfg)
    again, O_again = chain_normal_modes(cfg)
    rows_omegas, _ = chain_normal_modes(cfg, (3, 7))
    assert calls == [(M, M)]
    assert O_again is O and again is omegas and rows_omegas is omegas
    # the kept modes cannot be changed through what was returned
    assert not O.flags.writeable
    # an equal but separate config diagonalizes its own chain
    chain_normal_modes(NetworkConfig(M=M, omega0=0.4, g=1.2, coupling_matrix=A + A.T))
    assert calls == [(M, M)] * 2


def test_assembly_allocates_no_n_by_n_array():
    # the assembled form is its network and probes; V is formed only when
    # an oracle reads it, so assembly allocates no N x N array (1.3 MB here)
    cfg = NetworkConfig(M=400, omega0=0.4, g=1.2)
    probes = ProbePair(omega2=1.2, lam=0.0, K=0.8, site_m=1, site_n=1)
    tracemalloc.start()
    try:
        qf = assemble_full_potential(cfg, probes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "V" not in vars(qf)
    assert peak < 64 * 1024, f"peak {peak} bytes"
    assert np.array_equal(qf.V, qf.V.T) and qf.V.shape == (qf.dim, qf.dim)


def test_quadratic_form_keeps_a_symmetric_matrix_and_symmetrizes_any_other():
    S = np.array([[2.0, -1.0], [-1.0, 3.0]])
    assert QuadraticForm(S).V is S
    V = QuadraticForm([[1, 2], [0, 1]]).V
    assert V.dtype == float and np.array_equal(V, [[1.0, 1.0], [1.0, 1.0]])
