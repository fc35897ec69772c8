"""Set-up path from a resolved spec to a ready NormalModeTrajectory.

Run as a script, it is the fresh-interpreter probe behind ``setup_s``:

    python3 perfbench/engine_setup.py SRC_DIR PRESET OVERRIDES_JSON

It imports chainsync from SRC_DIR, resolves the spec, assembles the
potential, checks stability, builds the initial state and diagonalizes,
then prints ``ready`` and exits.  The parent process times it from spawn
to that line.
"""

import json
import sys


def initial_state(spec):
    """The scenario's initial product state, from public chainsync calls
    only (the probe covariances follow ``scenarios.simulate``)."""
    from chainsync import initial_composite_state, squeezed_vacuum_local

    sign = 1.0 if spec.initial.squeeze_axis == "position" else -1.0
    probe_covs = (
        squeezed_vacuum_local(spec.probes.omega1, sign * spec.initial.r1),
        squeezed_vacuum_local(spec.probes.omega2, sign * spec.initial.r2),
    )
    means = ((spec.initial.x1, spec.initial.p1), (spec.initial.x2, spec.initial.p2))
    return initial_composite_state(means, probe_covs, spec.network)


def build_engine(preset, overrides):
    """Return (spec, quadratic form, initial state, engine) for one spec."""
    from chainsync import (
        NormalModeTrajectory,
        assemble_full_potential,
        check_stability,
        resolve_spec,
    )

    spec = resolve_spec(preset, overrides)
    qf = assemble_full_potential(spec.network, spec.probes)
    check_stability(qf)
    state = initial_state(spec)
    return spec, qf, state, NormalModeTrajectory(qf, state)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    build_engine(sys.argv[2], json.loads(sys.argv[3]))
    print("ready", flush=True)
