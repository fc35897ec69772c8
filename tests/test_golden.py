import pytest

from golden import compare, csv_changes

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
