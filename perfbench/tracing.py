"""In-memory spans around chainsync's public functions, for the traced run.

``Tracer.install`` replaces each function in ``SPANS`` with a wrapper in
every chainsync module that holds it (and the method on its class), and
wraps ``numpy.linalg.eigh``/``eigvalsh`` to count dense diagonalizations.
Functions not listed are not wrapped: their time counts toward the self
time of the nearest wrapped caller.  A span's self time is its duration
minus the time its child spans cover.  ``uninstall`` restores the
originals, so untraced iterations and the correctness checks run the
unmodified package.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) -> the per-layer metric that collects the span's self time
SPANS = {
    ("cli", "main"): "cli.self_s",
    ("lattice", "assemble_full_potential"): "lattice.assemble_s",
    ("lattice", "check_stability"): "lattice.check_stability_s",
    ("dynamics", "initial_composite_state"): "dynamics.initial_state_s",
    ("trajectory", "NormalModeTrajectory.__init__"): "trajectory.engine_init_s",
    ("trajectory", "NormalModeTrajectory.mean_series"): "trajectory.mean_series_s",
    ("trajectory", "NormalModeTrajectory.covariance_series"): "trajectory.cov_series_s",
    ("measures", "sync_series"): "measures.sync_s",
    ("measures", "correlation_report"): "measures.quantum_s",
    ("modes", "chain_rayleigh_report"): "modes.rayleigh_s",
    ("modes", "damping_kernels"): "modes.kernels_s",
    ("modes", "solve_gqle_means"): "modes.volterra_s",
    ("scenarios", "summarize"): "scenarios.summarize_s",
    # run_scenario and sweep_plug_site minus their children is the writing
    ("scenarios", "run_scenario"): "scenarios.write_s",
    ("scenarios", "sweep_plug_site"): "scenarios.write_s",
    ("scenarios", "simulate"): "scenarios.glue_s",
    # the per-site worker of sweep_plug_site; its span also gives sweep_site_s
    ("scenarios", "_sweep_one"): "scenarios.glue_s",
}
SWEEP_SITE = "scenarios._sweep_one"
COUNT_METRICS = (
    "linalg.eig_calls",
    "trajectory.mean_mode_samples",
    "trajectory.cov_samples",
    "measures.sync_windows",
    "measures.degenerate_windows",
    "measures.quantum_samples",
    "modes.volterra_steps",
    "scenarios.bytes_written",  # added by the harness from the output directory
)


def _count_initial(tracer, args, result):
    tracer.initial_cov_mb = max(tracer.initial_cov_mb, result.cov.nbytes / 1e6)


def _count_means(tracer, args, result):
    engine, (X, _) = args[0], result
    tracer.counts["trajectory.mean_mode_samples"] += X.shape[0] * engine.n_modes


def _count_covs(tracer, args, result):
    tracer.counts["trajectory.cov_samples"] += result.shape[0]


def _count_sync(tracer, args, result):
    tracer.counts["measures.sync_windows"] += result.values.size
    tracer.counts["measures.degenerate_windows"] += int(np.count_nonzero(np.isnan(result.values)))


def _count_quantum(tracer, args, result):
    tracer.counts["measures.quantum_samples"] += result.times.size


def _count_volterra(tracer, args, result):
    tracer.counts["modes.volterra_steps"] += result[0].size - 1


COUNTERS = {
    "dynamics.initial_composite_state": _count_initial,
    "trajectory.NormalModeTrajectory.mean_series": _count_means,
    "trajectory.NormalModeTrajectory.covariance_series": _count_covs,
    "measures.sync_series": _count_sync,
    "measures.correlation_report": _count_quantum,
    "modes.solve_gqle_means": _count_volterra,
}


class Span:
    __slots__ = ("name", "parent", "iteration", "start", "end", "child")

    def __init__(self, name, parent, iteration):
        self.name, self.parent, self.iteration = name, parent, iteration
        self.child = 0.0
        self.start = time.perf_counter()


class Tracer:
    def __init__(self):
        self.spans = []
        self.iterations = 0
        self.counts = defaultdict(float)
        self.initial_cov_mb = 0.0
        self._stack = []
        self._saved = []

    def _enter(self, name):
        span = Span(name, self._stack[-1] if self._stack else None, self.iterations)
        self._stack.append(span)
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.spans.append(span)

    @contextlib.contextmanager
    def iteration(self):
        """Root span of one traced iteration."""
        self.iterations += 1
        span = self._enter("iteration")
        try:
            yield
        finally:
            self._exit(span)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def _count_eig(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts["linalg.eig_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, key, value):
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def install(self):
        homes = [m for n, m in sys.modules.items() if n.partition(".")[0] == "chainsync"]
        for module, attr in SPANS:
            mod = importlib.import_module(f"chainsync.{module}")
            cls, _, key = attr.rpartition(".")
            wrapped = self._wrap(f"{module}.{attr}", vars(getattr(mod, cls) if cls else mod)[key])
            if cls:
                self._patch(getattr(mod, cls), key, wrapped)
                continue
            original = getattr(mod, key)
            for home in homes:
                for name, value in list(vars(home).items()):
                    if value is original:
                        self._patch(home, name, wrapped)
        for key in ("eigh", "eigvalsh"):
            self._patch(np.linalg, key, self._count_eig(getattr(np.linalg, key)))

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def layer_metrics(self) -> dict:
        """Per-iteration means of per-layer self times and counts."""
        n = max(self.iterations, 1)
        out = dict.fromkeys([*SPANS.values(), *COUNT_METRICS], 0.0)
        metric_of = {f"{m}.{a}": metric for (m, a), metric in SPANS.items()}
        site_time, sites = 0.0, 0
        for span in self.spans:
            if span.name in metric_of:
                out[metric_of[span.name]] += (span.end - span.start - span.child) / n
            if span.name == SWEEP_SITE:
                site_time += span.end - span.start
                sites += 1
        for key, value in self.counts.items():
            out[key] = value / n
        out["dynamics.initial_cov_mb"] = self.initial_cov_mb
        out["scenarios.sweep_site_s"] = site_time / sites if sites else 0.0
        samples = out["trajectory.mean_mode_samples"]
        out["trajectory.mean_ns_per_mode_sample"] = (
            out["trajectory.mean_series_s"] * 1e9 / samples if samples else 0.0
        )
        return out

    def dump(self, path, header: dict):
        """Write the spans, with ``header`` fields, as JSON."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        spans = [
            {
                "id": ids[id(s)],
                "parent": ids[id(s.parent)] if s.parent is not None else None,
                "iteration": s.iteration,
                "name": s.name,
                "start_s": s.start - t0,
                "end_s": s.end - t0,
                "self_s": s.end - s.start - s.child,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps({**header, "spans": spans}, indent=1) + "\n")
