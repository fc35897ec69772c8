import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden import compare, csv_changes

SRC = Path(__file__).resolve().parents[1] / "src"
# fig2 at M = 60 and the appB sweep at M = 40 into the folder argv[1]
WRITE = """
import sys
from chainsync import resolve_spec, run_scenario, sweep_plug_site
run_scenario(resolve_spec("fig2_dissipation", {"M": 60}), out_dir=sys.argv[1] + "/fig2")
spec = resolve_spec("appB_sweep", {"M": 40, "sweep_step": 3})
sweep_plug_site(spec, out_dir=sys.argv[1] + "/appB_sweep")
"""

MEANS = "t,x1\n0.00000000000e+00,1.00000000000e+00\n2.00000000000e-02,2.50000000000e+00\n"


def _golden_set(root, means=MEANS, record="preset = custom\nc_means_plateau = nan\n"):
    (root / "run").mkdir(parents=True)
    (root / "run" / "means.csv").write_text(means)
    (root / "run" / "record.txt").write_text(record)
    return root


def test_compare_reports_nothing_for_identical_sets(tmp_path):
    assert compare(_golden_set(tmp_path / "a"), _golden_set(tmp_path / "b")) == []


def test_compare_counts_a_one_digit_change_as_one_unit(tmp_path):
    a = _golden_set(tmp_path / "a")
    b = _golden_set(
        tmp_path / "b",
        MEANS.replace("2.50000000000e+00", "2.50000000001e+00"),
        "preset = custom\nc_means_plateau = 1.0\n",
    )
    changes = csv_changes(a / "run" / "means.csv", b / "run" / "means.csv")
    assert changes == {"x1": (1, pytest.approx(1.0, rel=1e-6))}
    assert compare(a, b) == [
        "run/means.csv: differs",
        "  x1: 1 values, at most 1 units",
        "run/record.txt: differs",
        "  c_means_plateau: nan -> 1.0",
    ]
    (b / "run" / "record.txt").unlink()
    assert compare(a, b)[-1] == f"run/record.txt: only in {a}"


def test_csvs_agree_across_blas_thread_counts(tmp_path):
    # byte identity holds for one numpy/BLAS build, kernel and thread count;
    # across thread counts a CSV value moves by at most 2 units of the last
    # printed digit
    sets = [tmp_path / threads for threads in ("1", "2")]
    for out in sets:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=out.name, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", WRITE, str(out)], env=env, check=True)
    names = [sorted(p.relative_to(out) for p in out.rglob("*.csv")) for out in sets]
    assert names[0] and names[0] == names[1]
    for name in names[0]:
        changes = csv_changes(sets[0] / name, sets[1] / name)
        assert all(units <= 2 for _, units in changes.values()), (name, changes)
