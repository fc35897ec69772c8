"""chainsync benchmark: one workload per invocation.

    python3 perfbench/run.py --workload fig2_full --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; chainsync is imported from the
checkout's ``src/``, never from an installed copy.  Workloads, metrics and
the reasons for them are in README.md next to this file.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json: set-up in
fresh interpreters, then untraced iterations for about ``--seconds``.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics.  Either way the outputs are checked afterwards, and the
last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 when every operation succeeded
and passed its checks, 1 when any failed, 2 when the benchmark cannot run.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "chainsync" / "__init__.py", ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        print(f"cannot run: {', '.join(map(str, missing))} not found", file=sys.stderr)
        return 2
    # one BLAS thread per available core, fixed before numpy loads OpenBLAS
    threads = str(len(os.sched_getaffinity(0)))
    os.environ["OPENBLAS_NUM_THREADS"] = threads
    os.environ["OMP_NUM_THREADS"] = threads
    sys.path.insert(0, str(SRC))
    import chainsync

    if not Path(chainsync.__file__).resolve().is_relative_to(SRC):
        print(f"cannot run: chainsync imported from {chainsync.__file__}", file=sys.stderr)
        return 2
    from harness import run_benchmark

    return run_benchmark(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
