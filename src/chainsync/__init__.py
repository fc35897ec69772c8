"""chainsync: exact Gaussian-state simulator for the synchronization of
two detuned oscillators plugged into a finite harmonic chain."""

__version__ = "0.1.0"

from .dynamics import (
    GaussianState,
    SymplecticMap,
    evolve,
    initial_composite_state,
    mean_energy,
    propagator,
    reduce,
    squeezed_vacuum_local,
    symplectic_form,
)
from .errors import (
    ChainSyncError,
    ConfigError,
    InstabilityError,
    NonPhysical,
    ParseError,
    RangeError,
    StepTooLarge,
    UncertaintyViolation,
    UnknownKey,
    ZeroModeError,
)
from .lattice import (
    NetworkConfig,
    ProbePair,
    QuadraticForm,
    assemble_full_potential,
    build_chain_potential,
    chain_dispersion,
    chain_normal_modes,
    check_stability,
    max_group_velocity,
    revival_time,
)
from .measures import (
    CorrelationReport,
    SyncSeries,
    correlation_report,
    log_negativity,
    mutual_information,
    symplectic_spectrum,
    sync_series,
    vn_entropy,
)
from .modes import (
    Kernels,
    RayleighReport,
    SystemModes,
    chain_rayleigh_report,
    damping_kernels,
    ohmic_gap_ratio,
    solve_gqle_means,
    system_eigenfrequencies,
    system_mode_angle,
    system_modes,
)
from .scenarios import (
    PRESETS,
    RunRecord,
    ScenarioSpec,
    format_config,
    resolve_spec,
    run_scenario,
    simulate,
    sweep_plug_site,
)
from .trajectory import NormalModeTrajectory
