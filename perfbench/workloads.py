"""The four benchmark workloads.

Each workload drives chainsync through a public entry point.  ``run`` is
the timed iteration and returns its raw result; ``collect`` turns that into
one ``Op`` per operation (a scenario run, a sweep site or a GQLE solve)
with a digest of the operation's outputs; ``check`` compares the last
iteration's outputs with the references in ``oracle``.  The seed chooses
only the sweep site offset and the checkpoints; chainsync receives only
the generated inputs.  README.md records why each workload was chosen.

Entry points are looked up on the module at call time, so that the traced
run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass

import numpy as np

import chainsync
from chainsync import cli
from chainsync.modes import mode_rotation

import oracle


@dataclass
class Op:
    key: str
    ok: bool
    digest: str = ""
    note: str = ""


def _csv_digest(out) -> str:
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class _ScenarioRun:
    """One full scenario run with every artifact written."""

    op_keys = ["run"]
    checkpoints = 1
    check_energy = False

    def __init__(self, rng):
        self.spec = chainsync.resolve_spec(self.preset, self.overrides)
        self.setup_spec = (self.preset, self.overrides)
        n_cov = int(round(self.spec.run.horizon / self.spec.run.dt_cov))
        self.cov_indices = sorted(
            int(k) for k in rng.choice(n_cov + 1, self.checkpoints, replace=False)
        )
        self.sync_row = int(rng.integers(oracle.n_windows(self.spec, self.spec.run.dt)))

    def collect(self, out, result):
        return [Op("run", True, _csv_digest(out))]

    def check(self, out, result):
        return {
            "run": oracle.check_run_dir(
                self.spec, out, self.cov_indices, self.sync_row, self.check_energy
            )
        }


class Fig2Full(_ScenarioRun):
    name = "fig2_full"
    preset, overrides = "fig2_dissipation", {}
    checkpoints = 4

    def run(self, out):
        argv = ["run", "--set", f"preset={self.preset}", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def collect(self, out, rc):
        return [Op("run", rc == 0, _csv_digest(out), f"exit code {rc}")]


class LargeChain(_ScenarioRun):
    name = "large_chain"
    preset, overrides = "fig5_entanglement_common", {"M": 2000, "horizon": 60.0}
    check_energy = True

    def run(self, out):
        return chainsync.run_scenario(self.spec, out)


class SweepAppB:
    name = "sweep_appB"
    preset = "appB_sweep"
    sites_per_sweep = 8

    def __init__(self, rng):
        self.spec = chainsync.resolve_spec(self.preset)
        gap = self.spec.network.M // self.sites_per_sweep
        offset = 1 + int(rng.integers(gap))
        self.sites = [offset + k * gap for k in range(self.sites_per_sweep)]
        self.setup_spec = (self.preset, {"site_n": self.sites[0]})
        self.op_keys = [f"site {s}" for s in self.sites]
        n_rows = oracle.n_windows(self.spec, self.spec.run.dt)
        self.rows = {s: int(rng.integers(n_rows)) for s in self.sites}

    def run(self, out):
        return chainsync.sweep_plug_site(self.spec, sites=self.sites, workers=1, out_dir=out)

    def collect(self, out, record):
        lines = (out / "sweep.csv").read_text().splitlines()[1:]
        status = oracle.sweep_status(out)
        ops = []
        for site, key in zip(self.sites, self.op_keys):
            body = "\n".join(line for line in lines if line.startswith(f"{site},"))
            state = status.get(site, "missing")
            ops.append(Op(key, state == "ok", hashlib.sha256(body.encode()).hexdigest(), state))
        return ops

    def check(self, out, record):
        by_site = oracle.sweep_rows(out)
        return {
            key: oracle.check_sweep_site(self.spec, site, by_site[site], self.rows[site])
            if site in by_site else [f"site {site}: no rows in sweep.csv"]
            for site, key in zip(self.sites, self.op_keys)
        }


class GqleFig2:
    name = "gqle_fig2"
    preset = "fig2_dissipation"
    horizon, dt = 200.0, 0.008
    op_keys = ["solve"]

    def __init__(self, rng):
        self.setup_spec = (self.preset, {})

    def run(self, out):
        spec = chainsync.resolve_spec(self.preset)
        modes = chainsync.system_modes(spec.probes, spec.network.M)
        omegas, _ = chainsync.chain_normal_modes(spec.network)
        grid = np.arange(0.0, self.horizon + 3 * self.dt, self.dt)
        kernels = chainsync.damping_kernels(modes, omegas, grid)
        q0 = mode_rotation(modes.theta) @ np.array([spec.initial.x1, spec.initial.x2])
        times, q, _ = chainsync.solve_gqle_means(
            kernels, modes.Lambda1, modes.Lambda2, q0, (0.0, 0.0), self.horizon, self.dt
        )
        return times, q

    def collect(self, out, result):
        _, q = result
        return [Op("solve", bool(np.all(np.isfinite(q))), hashlib.sha256(q.tobytes()).hexdigest())]

    def check(self, out, result):
        return {"solve": oracle.check_gqle(*result)}


WORKLOADS = {w.name: w for w in (Fig2Full, SweepAppB, LargeChain, GqleFig2)}
