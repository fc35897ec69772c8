import pytest

from chainsync import scenarios
from chainsync.cli import main


def test_run_and_validate_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("preset = fig2_dissipation\nM = 24\nhorizon = 40.0\nsite_n = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "revival_time" in captured
    assert (out / "means.csv").exists()
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "min eigenvalue" in capsys.readouterr().out


def test_set_overrides(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--set", "preset=fig3_common_node",
            "--set", "M=24",
            "--set", "horizon=30.0",
            "--set", "K=0.1",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "K = 0.1" in (out / "config.txt").read_text()


def test_config_error_exit_code(capsys):
    assert main(["validate", "--set", "site_m=0"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["validate", "--set", "bogus=1"]) == 2
    assert main(["run", "--set", "preset=nope"]) == 2
    assert main(["run", "--set", "M"]) == 2
    capsys.readouterr()
    assert main(["validate", "--set", "M=twelve"]) == 2
    assert capsys.readouterr().err == "config error: not an integer: 'twelve'\n"
    assert main(["validate", "--set", "write_quantum=maybe"]) == 2
    small = ["run", "--set", "M=20", "--set", "horizon=60"]
    assert main([*small, "--set", "window=1.0"]) == 2
    assert main([*small, "--set", "dt_cov=0.3"]) == 2
    assert main([*small, "--set", "delay=0.03"]) == 2
    assert main(["run", "--set", "M=20", "--set", "horizon=15"]) == 2


def test_non_finite_values_exit_2(tmp_path, capsys):
    small = ["--set", "M=20", "--set", "horizon=60"]
    for item in ("window=nan", "dt=nan", "K=inf", "g=inf", "omega0=nan", "lambda=nan"):
        for command in ("validate", "run"):
            out = tmp_path / f"{command}-{item}"
            argv = [command, *small, "--set", item] + (["--out", str(out)] if command == "run" else [])
            assert main(argv) == 2, (command, item)
            assert not out.exists()
    assert main(["validate", "--set", "horizon=nan"]) == 2
    out = tmp_path / "x1"
    assert main(["run", *small, "--set", "x1=inf", "--out", str(out)]) == 2
    assert not out.exists()
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_failed_write_leaves_no_files(tmp_path, monkeypatch, capsys, command):
    def full_disk(path, header, columns):
        path.write_text(header + "\n")  # a partial file
        raise OSError(28, "No space left on device")

    # the second file written is a CSV: means.csv in a run, sweep.csv in a sweep
    monkeypatch.setattr(scenarios, "_write_csv", full_disk)
    out = tmp_path / "out"
    argv = [command, "--set", "preset=appB_sweep", "--set", "M=20", "--set", "horizon=40",
            "--set", "sweep_stop=2", "--out", str(out)]
    assert main(argv) == 4
    assert "No space left" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_instability_exit_code(tmp_path, capsys):
    code = main(["validate", "--set", "M=24", "--set", "K=50.0"])
    assert code == 3
    assert "unstable" in capsys.readouterr().err
    # run raises from the trajectory engine's own stability check
    out = tmp_path / "out"
    assert main(["run", "--set", "M=24", "--set", "K=50.0", "--out", str(out)]) == 3
    assert "unstable" in capsys.readouterr().err
    assert not out.exists()


def test_io_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["run", "--config", str(missing)]) == 4


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in (
        "fig2_dissipation", "fig3_common_node", "fig4_edges",
        "fig5_entanglement_common", "fig6_mi_edges", "appB_sweep", "custom",
    ):
        assert name in out
    # the full key list is documented
    for key in ("M", "omega0", "g", "lambda", "K", "site_m", "window", "horizon", "dt"):
        assert f" {key} = " in out


def test_sweep_cli(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--set", "preset=appB_sweep",
            "--set", "M=24",
            "--set", "horizon=30.0",
            "--set", "sweep_start=3",
            "--set", "sweep_stop=5",
            "--out", str(out),
            "--workers", "2",
        ]
    )
    assert code == 0
    assert "swept 3 sites" in capsys.readouterr().out
    assert (out / "sweep.csv").exists()


# validate resolves the spec exactly as run does, but allocates no sample grid
@pytest.mark.parametrize("items", [("dt=1e-9", "dt_cov=1e-9"), ("horizon=1e9",)])
def test_sample_counts_above_the_ceiling_exit_2(items, capsys):
    argv = ["validate", "--set", "M=20", "--set", "horizon=60"]
    for item in items:
        argv += ["--set", item]
    assert main(argv) == 2
    assert "exceeds" in capsys.readouterr().err


def test_out_that_the_config_echo_cannot_carry_exits_2(capsys):
    assert main(["validate", "--set", "M=20", "--set", "out=runs/a#1"]) == 2
    assert "out must be" in capsys.readouterr().err
