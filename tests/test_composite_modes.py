"""The composite modes of an assembled form (two nested secular solves on
the chain's closed-form modes) against one dense ``eigh`` of V."""

import dataclasses
import warnings

import numpy as np
import pytest

from chainsync import (
    InstabilityError,
    NetworkConfig,
    NormalModeTrajectory,
    assemble_full_potential,
    build_chain_potential,
    check_stability,
    resolve_spec,
    simulate,
)
from chainsync import lattice
from chainsync.lattice import Arrowhead, CompositeModes
from chainsync.scenarios import PRESETS, _initial_state

from oracles import QuadraticForm, basis_residual


def ring(M):
    """Coupling matrix of a ring of M sites, whose modes come in pairs of
    equal frequency."""
    A = np.zeros((M, M))
    i = np.arange(M)
    A[i, (i + 1) % M] = A[(i + 1) % M, i] = 1.0
    return A


def assert_modes_match_eigh(qf):
    """Spectrum, dense modes and probe rows of ``qf.modes`` against eigh."""
    modes = qf.modes
    assert isinstance(modes, CompositeModes)
    ev, O = np.linalg.eigh(qf.V)
    top = np.max(np.abs(ev))
    assert np.max(np.abs(modes.values - ev)) <= 1e-12 * top
    D = modes.dense
    N = qf.dim
    assert np.max(np.abs(D.T @ D - np.eye(N))) <= 1e-12
    assert np.max(np.abs(qf.V @ D - D * modes.values)) <= 1e-12 * top
    # the probe rows, through functions of the spectrum that do not
    # depend on how a degenerate eigenspace is split
    rows = modes.left(np.eye(2, N))
    for f in (np.ones_like(ev), 1.0 / np.sqrt(np.abs(ev)), ev, np.cos(7.3 * np.sqrt(np.abs(ev)))):
        got, ref = (rows * f) @ rows.T, (O[:2] * f) @ O[:2].T
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(f))


def assert_engine_matches_the_eigh_engine(spec, horizon=120.0):
    """Means and covariances of the run path's engine against the engine
    of the bare form (one eigh), to 1e-10 of their peak."""
    qf = assemble_full_potential(spec.network, spec.probes)
    state = _initial_state(spec)
    fast, slow = NormalModeTrajectory(qf, state), NormalModeTrajectory(QuadraticForm(qf.V), state)
    times = np.arange(int(horizon / 0.2) + 1) * 0.2
    for got, ref in zip(fast.mean_series(times), slow.mean_series(times)):
        assert np.max(np.abs(got - ref)) <= 1e-10 * max(np.max(np.abs(ref)), 1e-300)
    got, ref = fast.covariance_series(times), slow.covariance_series(times)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert fast.min_eigenvalue == pytest.approx(slow.min_eigenvalue, rel=1e-12)


STRUCTURED = {
    # sin(pi 30 j / 60) = 0 for every even j: probe 1's border has zeros
    "zero_border": ("custom", {"M": 59, "site_m": 30, "site_n": 12}),
    "zero_border_both": ("custom", {"M": 59, "site_m": 30, "site_n": 30, "lambda": 0.0}),
    "common_node": ("fig3_common_node", {"M": 40, "K": 0.4, "site_m": 17, "site_n": 17}),
    "lambda_zero": ("custom", {"M": 40, "lambda": 0.0, "site_m": 5, "site_n": 9}),
    "repulsive": ("custom", {"M": 40, "lambda": 0.5, "sign2": -1, "site_m": 3, "site_n": 31}),
    "identical_probes": ("custom", {"M": 40, "omega2": 1.0, "lambda": 0.0, "site_n": 1}),
    # the lowest root far below a pole whose border is tiny: the model step
    # must neither stall short of the root nor cancel (a solver that did
    # left 2.1e-2 and 1.1e-6 of the top eigenvalue on the first two and
    # divided by zero on the last two)
    "tiny_border": ("fig5_entanglement_common", {"M": 150, "K": 1.1, "site_n": 130}),
    "tiny_border_near": ("fig5_entanglement_common", {"M": 100, "K": 1.1, "site_n": 96}),
    "tiny_border_136": ("fig5_entanglement_common", {"M": 300, "K": 1.1, "site_n": 136}),
    "tiny_border_181": ("fig5_entanglement_common", {"M": 300, "K": 1.1, "site_n": 181}),
}


@pytest.mark.parametrize("case", sorted(STRUCTURED))
def test_structured_forms_match_eigh(case):
    preset, overrides = STRUCTURED[case]
    spec = resolve_spec(preset, {"horizon": 120.0, **overrides})
    assert_modes_match_eigh(assemble_full_potential(spec.network, spec.probes))
    assert_engine_matches_the_eigh_engine(spec)


@pytest.mark.parametrize("sites", [(1, 1), (1, 7), (4, 15)])
def test_a_ring_with_degenerate_frequencies_matches_eigh(sites):
    network = NetworkConfig(M=24, omega0=0.4, g=1.2, coupling_matrix=ring(24))
    assert np.sum(np.diff(np.linalg.eigvalsh(build_chain_potential(network))) < 1e-12) >= 10
    spec = resolve_spec("custom", {"M": 24, "site_m": sites[0], "site_n": sites[1],
                                   "horizon": 120.0})
    spec = dataclasses.replace(spec, network=network)
    assert_modes_match_eigh(assemble_full_potential(network, spec.probes))
    assert_engine_matches_the_eigh_engine(spec)


def test_a_state_on_another_network_object_takes_its_own_chain_basis():
    # W U is B^T O U only in the form's own chain basis; a product state on
    # an equal custom network of its own has a basis of its own
    A = np.triu(np.random.default_rng(11).uniform(0.0, 1.5, size=(30, 30)), 1)
    network = NetworkConfig(M=30, omega0=0.4, g=1.2, coupling_matrix=A + A.T)
    spec = resolve_spec("custom", {"M": 30, "site_n": 9})
    spec = dataclasses.replace(spec, network=network)
    other = dataclasses.replace(spec, network=dataclasses.replace(network))
    qf = assemble_full_potential(network, spec.probes)
    times = np.arange(301) * 0.2
    ref = NormalModeTrajectory(qf, _initial_state(spec)).covariance_series(times)
    got = NormalModeTrajectory(qf, _initial_state(other)).covariance_series(times)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_an_unstable_form_raises_with_the_eigvalsh_minimum():
    spec = resolve_spec("fig2_dissipation", {"M": 40})
    probes = dataclasses.replace(spec.probes, K=2.0, site_n=9)
    qf = assemble_full_potential(spec.network, probes)
    expected = np.linalg.eigvalsh(qf.V)
    assert expected[0] < 0
    with pytest.raises(InstabilityError) as err:
        check_stability(qf)
    assert abs(err.value.min_eigenvalue - expected[0]) <= 1e-12 * np.max(np.abs(expected))
    with pytest.raises(InstabilityError):
        NormalModeTrajectory(qf, _initial_state(spec))


@pytest.mark.parametrize("M", [2, 40])
@pytest.mark.parametrize("K", [1e100, 1e200, 1e300])
def test_a_huge_coupling_reads_unstable_without_a_warning(K, M):
    # the border's norm overflowed to inf from K ~ 1e155 on, so every
    # border was deflated and the form read decoupled and stable
    spec = resolve_spec("fig5_entanglement_common", {"M": M})
    qf = assemble_full_potential(spec.network, dataclasses.replace(spec.probes, K=K))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError) as err:
            check_stability(qf)
    ev = np.linalg.eigvalsh(qf.V)
    assert err.value.min_eigenvalue < 0
    assert abs(err.value.min_eigenvalue - ev[0]) <= 1e-12 * np.max(np.abs(ev))


@pytest.mark.parametrize("K", [1.1, 1.5])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_the_stability_check_reads_the_modes_and_matches_eigvalsh(preset, K):
    # check_stability reads the lowest eigenvalue of the form's modes: on
    # every plug site, stable or not (K = 1.1 leaves some of them unstable,
    # K = 1.5 all), it agrees with eigvalsh
    spec = resolve_spec(preset, {"M": 40, "K": K, "site_n": 1})
    unstable = 0
    for site in range(1, 41):
        qf = assemble_full_potential(spec.network, dataclasses.replace(spec.probes, site_n=site))
        ev = np.linalg.eigvalsh(qf.V)
        try:
            got = check_stability(qf)
        except InstabilityError as err:
            got, unstable = err.min_eigenvalue, unstable + 1
        assert got == qf.modes.values[0]
        assert abs(got - ev[0]) <= 1e-12 * ev[-1]
    assert 0 < unstable <= 40 and (unstable < 40) == (K == 1.1)


def test_an_arrowhead_deflates_zero_borders_and_equal_poles(monkeypatch):
    d = np.array([0.5, 1.0, 1.0, 1.0, 2.0, 3.0])
    z = np.array([0.3, 0.2, 0.0, 0.4, 1e-17, 0.1])
    A = np.diag(np.concatenate([[1.7], d]))
    A[0, 1:] = A[1:, 0] = z
    head = Arrowhead(1.7, z, d)
    # the turns leave one of the three equal poles with the border, and
    # the poles of a border below the tolerance are eigenpairs as they stand
    assert head._dead.tolist() == [2, 3, 5]
    assert np.max(np.abs(head.values - np.linalg.eigvalsh(A))) <= 1e-14
    Q = head.mul(np.eye(7))
    assert np.max(np.abs(Q.T @ Q - np.eye(7))) <= 1e-14
    assert np.max(np.abs(A @ Q - Q * head.values)) <= 1e-14
    assert np.max(np.abs(head.rmul(np.eye(7)) - Q)) <= 1e-15
    # a border tiny beside the others but far above the tolerance keeps its
    # pole live, and the edge root far below that pole is still found
    d = np.array([0.13, 0.16, 0.5, 1.0, 2.0, 3.0])
    z = np.array([3e-9, 0.3, 0.5, 0.4, 0.6, 0.5])
    A = np.diag(np.concatenate([[1.44], d]))
    A[0, 1:] = A[1:, 0] = z
    head = Arrowhead(1.44, z, d)
    assert head._dead.size == 0
    assert np.max(np.abs(head.values - np.linalg.eigvalsh(A))) <= 1e-14
    Q = head.mul(np.eye(7))
    assert np.max(np.abs(A @ Q - Q * head.values)) <= 1e-14
    # a root still live after the last pass raises, never returns
    monkeypatch.setattr(lattice, "_PASSES", 2)
    with pytest.raises(np.linalg.LinAlgError):
        Arrowhead(1.44, z, d)


def test_an_arrowhead_with_clustered_poles_keeps_its_vectors_orthogonal():
    # roots squeezed between poles 1e-7 apart: vectors from the given
    # border lose orthogonality to about 1e-5, from the recomputed one not
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = np.sort(np.concatenate([1 + 1e-7 * rng.random(20), 3 * rng.random(20)]))
        z = rng.normal(size=40) * 10.0 ** rng.uniform(-6, 0, size=40)
        Q = Arrowhead(1.5, z, d).mul(np.eye(41))
        assert np.max(np.abs(Q.T @ Q - np.eye(41))) <= 1e-14


@pytest.mark.parametrize("M", [300, 2000])
def test_the_spectrum_of_a_long_chain_matches_eigh(M):
    spec = resolve_spec("fig5_entanglement_common", {"M": M})
    qf = assemble_full_potential(spec.network, spec.probes)
    ev = np.linalg.eigvalsh(qf.V)
    assert np.max(np.abs(qf.modes.values - ev)) <= 1e-12 * ev[-1]
    if M == 2000:
        # the dense O that state_at reads
        O = qf.modes.dense
        assert np.max(np.abs(O.T @ O - np.eye(qf.dim))) <= 1e-12


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_the_presets_at_full_scale_match_the_eigh_engine(preset):
    site_n = PRESETS[preset].get("site_n", 1)
    spec = resolve_spec(preset, {"M": 300, "site_n": site_n})
    assert_engine_matches_the_eigh_engine(spec, horizon=200.0)


@pytest.mark.parametrize("omega0", [0.05, 0.02])
def test_the_refined_grid_keeps_a_resolvent_basis(omega0):
    # 32 shifts leak 21 and 127 N^2 eps here; their midpoints bring the
    # leak to 1e-3 N^2 eps, and the exact residual passes
    spec = resolve_spec("fig2_dissipation", {"omega0": omega0})
    state = _initial_state(spec)
    engine = NormalModeTrajectory(assemble_full_potential(spec.network, spec.probes), state)
    assert isinstance(engine.covariance_basis, int) and engine.covariance_basis <= 100
    resid, bound = basis_residual(engine.nu, engine.O, state, engine._moving_part[0])
    assert resid <= bound


def test_a_pure_state_of_a_long_chain_reads_no_correlation_at_t0():
    # round-off in the modes once moved the vacuum's symplectic
    # eigenvalues past the measures' slack at M = 3000 (E(0) = 3e-13)
    M = 3000
    spec = resolve_spec("fig6_mi_edges", {"M": M, "site_n": M, "r1": 0.0, "r2": 0.0,
                                          "horizon": 20.0})
    data = simulate(spec)
    assert data.quantum.E[0] == 0.0 and data.quantum.MI[0] == 0.0
