"""Golden artifact set of chainsync, and a comparison of two such sets.

    PYTHONPATH=src python tests/golden.py write DIR
    python tests/golden.py compare A B

``write`` runs each of the 7 presets at M = 60 and horizon 200 (the
second probe at site 60 on the edge presets), fig4_edges once more with
a delay of 30 (a whole multiple of dt and dt_cov), fig2 at full scale,
the appB plug-site sweep at M = 40 over sites 1, 4, ..., 40, once as
preset and once at K = 1.1, where sites 1, 4 and 7 are unstable and
fail, fig5 at M = 150 with K = 1.1 and the second probe at site 130
(horizon 200), whose lowest mode sits far below a chain pole with a tiny
border, and the custom preset on a seeded random coupling_matrix network
of 12 sites (horizon 60, second probe at site 7), each into its own
folder of DIR.  chainsync is imported from the path, so the same script
writes the set of any checkout.

``compare`` lists every file that is in one set only or differs between
the two.  For a CSV it gives each changed column with the number of
changed values and the largest change, in units of the last printed
digit of the column's peak |value|: the artifacts print 12 significant
digits, so for a peak of order 10^e that unit is 10^(e - 11).  For a
``key = value`` text file it lists each changed key with both values.
It exits 0 when the sets are identical and 1 when they differ.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

RUN_M = 60
RUN_HORIZON = 200.0
RUN_DELAY = 30.0
SWEEP_M = 40
SWEEP_STEP = 3
SWEEP_UNSTABLE_K = 1.1
TINY_BORDER = {"M": 150, "K": 1.1, "site_n": 130}
CUSTOM_M = 12
CUSTOM_SEED = 4


def write(out) -> None:
    """Write the golden set into the folder ``out``."""
    from chainsync import NetworkConfig, resolve_spec, run_scenario, sweep_plug_site
    from chainsync.scenarios import PRESETS

    out = Path(out)
    for preset in sorted(PRESETS):
        site_n = min(PRESETS[preset].get("site_n", 1), RUN_M)
        spec = resolve_spec(preset, {"M": RUN_M, "horizon": RUN_HORIZON, "site_n": site_n})
        run_scenario(spec, out_dir=out / preset)
    spec = resolve_spec("fig4_edges", {"M": RUN_M, "horizon": RUN_HORIZON, "site_n": RUN_M,
                                       "delay": RUN_DELAY})
    run_scenario(spec, out_dir=out / "fig4_edges_delayed")
    run_scenario(resolve_spec("fig2_dissipation"), out_dir=out / "fig2_full")
    spec = resolve_spec("appB_sweep", {"M": SWEEP_M, "sweep_step": SWEEP_STEP})
    sweep_plug_site(spec, out_dir=out / "appB_sweep_sites")
    spec = resolve_spec("appB_sweep", {"M": SWEEP_M, "sweep_step": SWEEP_STEP,
                                       "K": SWEEP_UNSTABLE_K})
    sweep_plug_site(spec, out_dir=out / "appB_sweep_failing_sites")
    spec = resolve_spec("fig5_entanglement_common", {**TINY_BORDER, "horizon": RUN_HORIZON})
    run_scenario(spec, out_dir=out / "fig5_tiny_border")
    rng = np.random.default_rng(CUSTOM_SEED)
    A = np.triu(rng.uniform(0.0, 1.5, size=(CUSTOM_M, CUSTOM_M))
                * (rng.random((CUSTOM_M, CUSTOM_M)) < 0.5), 1)
    network = NetworkConfig(M=CUSTOM_M, omega0=0.4, g=1.2, coupling_matrix=A + A.T)
    spec = resolve_spec("custom", {"M": CUSTOM_M, "horizon": 60.0, "site_n": 7})
    run_scenario(replace(spec, network=network), out_dir=out / "custom_network")


def _csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def csv_changes(path_a, path_b) -> dict:
    """{column: (changed values, largest change in units of the last
    printed digit of the column's peak)} for two CSVs with the same
    header and row count; NaN against a number counts as an infinite
    change.  Raises ValueError when the headers or row counts differ."""
    head_a, a = _csv(path_a)
    head_b, b = _csv(path_b)
    if head_a != head_b or a.shape != b.shape:
        raise ValueError(f"header or row count differs: {head_a} {a.shape}, {head_b} {b.shape}")
    changes = {}
    for name, ca, cb in zip(head_a, a.T, b.T):
        nan_a, nan_b = np.isnan(ca), np.isnan(cb)
        changed = (nan_a != nan_b) | (~nan_a & ~nan_b & (ca != cb))
        if not changed.any():
            continue
        finite = np.abs(np.concatenate([ca[np.isfinite(ca)], cb[np.isfinite(cb)]]))
        peak = finite.max(initial=0.0)
        unit = 10.0 ** (math.floor(math.log10(peak)) - 11) if peak > 0 else 1.0
        delta = np.where(nan_a | nan_b, math.inf, np.abs(ca - cb))[changed]
        changes[name] = (int(changed.sum()), float(delta.max() / unit))
    return changes


def _fields(path) -> dict:
    return dict(line.split(" = ", 1) for line in Path(path).read_text().splitlines() if " = " in line)


def compare(a, b) -> list:
    """Report lines for every file that is in one of the sets ``a`` and
    ``b`` only or differs between them; empty when they are identical."""
    a, b = Path(a), Path(b)
    names = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()})
    lines = []
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            lines.append(f"{name}: only in {a if pa.is_file() else b}")
            continue
        if pa.read_bytes() == pb.read_bytes():
            continue
        lines.append(f"{name}: differs")
        if name.suffix == ".csv":
            try:
                changes = csv_changes(pa, pb)
            except ValueError as exc:
                lines.append(f"  {exc}")
                continue
            lines += [f"  {col}: {n} values, at most {units:.3g} units" for col, (n, units) in changes.items()]
        else:
            fa, fb = _fields(pa), _fields(pb)
            lines += [
                f"  {key}: {fa.get(key)} -> {fb.get(key)}"
                for key in sorted(fa.keys() | fb.keys())
                if fa.get(key) != fb.get(key)
            ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("write").add_argument("dir")
    cmp = sub.add_parser("compare")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.dir)
        return 0
    lines = compare(args.a, args.b)
    print("\n".join(lines) if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
