"""Measurement loop, failure accounting and result printing.

Imported by run.py after the BLAS thread count is fixed and chainsync's
source directory is on the path.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 5  # fresh interpreters per run; setup_s is their median
MIN_ITERATIONS = 2  # the determinism check needs two


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        return None


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "chainsync").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
    }


def fresh_setup(root, setup_spec) -> float:
    """Seconds from spawning an interpreter to its ready engine."""
    preset, overrides = setup_spec
    cmd = [sys.executable, str(HERE / "engine_setup.py"), str(root / "src"), preset,
           json.dumps(overrides)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def warm_up():
    """First LAPACK call pays a one-off start-up; pay it before timing."""
    a = np.random.default_rng(0).normal(size=(300, 300))
    np.linalg.eigh(a + a.T)
    np.linalg.eigvalsh(a + a.T)


class Loop:
    """Timed iterations; with a tracer, untraced and traced alternate."""

    def __init__(self, workload, tmp, seconds, tracer=None):
        self.walls = {False: [], True: []}
        self.iterations = []  # list of Op lists
        self.last_out = None
        self.last_result = None
        start = time.perf_counter()
        while len(self.iterations) < MIN_ITERATIONS or (
            time.perf_counter() - start + statistics.median(self.walls[False] + self.walls[True])
            <= seconds
        ):
            n = len(self.iterations)
            self._iterate(workload, tmp / f"iter{n}", tracer if n % 2 == 1 else None)

    def _iterate(self, workload, out, tracer):
        out.mkdir()
        self.last_result = None
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = workload.run(out)
                else:
                    with tracer.iteration():
                        result = workload.run(out)
            finally:
                wall = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            ops = workload.collect(out, result)
        except Exception as exc:  # the program failed; count it and go on
            traceback.print_exc()
            result = None
            ops = [Op(key, False, note=f"{type(exc).__name__}: {exc}") for key in workload.op_keys]
        self.walls[tracer is not None].append(wall)
        if tracer is not None:
            tracer.counts["scenarios.bytes_written"] += sum(
                p.stat().st_size for p in out.rglob("*") if p.is_file()
            )
        self.iterations.append(ops)
        if self.last_out is not None:
            shutil.rmtree(self.last_out)
        self.last_out, self.last_result = out, result


def failures(loop, workload) -> list:
    """(iteration, op key, reason) of every failed operation."""
    failed = {}
    reference = {}
    for i, ops in enumerate(loop.iterations):
        for op in ops:
            if not op.ok:
                failed.setdefault((i, op.key), op.note or "failed")
            elif reference.setdefault(op.key, op.digest) != op.digest:
                failed.setdefault((i, op.key), "outputs differ from an earlier iteration")
    last = len(loop.iterations) - 1
    if loop.last_result is not None:
        try:
            checked = workload.check(loop.last_out, loop.last_result)
        except Exception as exc:  # unreadable outputs miss every check
            traceback.print_exc()
            miss = f"check raised {type(exc).__name__}: {exc}"
            checked = {key: [miss] for key in workload.op_keys}
        for key, misses in checked.items():
            if misses:
                failed.setdefault((last, key), "; ".join(misses))
    return [(i, key, why) for (i, key), why in sorted(failed.items())]


def run_benchmark(args, root) -> int:
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    contract = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    reported = [m["name"] for m in contract["per_layer" if args.trace else "end_to_end"]]
    env = environment(root, args)
    print("env " + json.dumps(env), flush=True)

    workload = WORKLOADS[args.workload](np.random.default_rng(args.seed))
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    tracer = Tracer() if args.trace else None
    try:
        setups = [] if args.trace else [
            fresh_setup(root, workload.setup_spec) for _ in range(SETUP_STARTS)
        ]
        warm_up()
        loop = Loop(workload, tmp, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        failed = failures(loop, workload)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(ops) for ops in loop.iterations)
    for i, key, why in failed:
        print(f"FAILED iteration {i} {key}: {why}", file=sys.stderr)
    untraced, traced = loop.walls[False], loop.walls[True]
    if args.trace:
        values = tracer.layer_metrics()
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        trace_path = work / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"env": env, "metrics": values})
        print(f"{args.workload}: untraced wall {statistics.median(untraced):.4f} s "
              f"(n={len(untraced)}), traced wall {statistics.median(traced):.4f} s "
              f"(n={len(traced)})")
    else:
        values = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"{args.workload}: wall_s median of {len(untraced)} iterations "
              f"{[round(w, 4) for w in untraced]}, setup_s median of {len(setups)} fresh "
              f"starts {[round(s, 4) for s in setups]}")
    for name in reported:
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    print(f"  failed_frac = {len(failed) / attempted:.6g} ratio "
          f"({len(failed)}/{attempted} operations)")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in reported},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failed else 1
