import json

import pytest

from impilot.cli import main, _parse_grid
from impilot.harness import CSV_HEADER


def test_parse_grid_forms():
    assert _parse_grid("0:2:6") == (0.0, 2.0, 4.0, 6.0)
    assert _parse_grid("4,8,12") == (4.0, 8.0, 12.0)
    assert _parse_grid("15") == (15.0,)


def test_boundary_subcommand(tmp_path):
    out = tmp_path / "res"
    assert main(["boundary", "--gamma-grid", "3:1:5", "--out", str(out)]) == 0
    lines = (out / "boundary.csv").read_text().strip().split("\n")
    assert lines[0] == "gamma,boundary_rad,width_rad"
    assert len(lines) == 4


def test_fsc_subcommand(tmp_path):
    out = tmp_path / "res"
    assert main(["fsc", "--trials", "20", "--out", str(out)]) == 0
    lines = (out / "fsc_trials.csv").read_text().strip().split("\n")
    assert lines[0] == "trial,true_start,detected_start,success"
    assert len(lines) == 21


def test_ber_subcommand_with_config_file(tmp_path):
    config = {
        "geometry": {"blocks_per_frame": 5},
        "trials": 1,
        "min_bit_errors": 0,
        "ebn0_db": [10.0],
        "master_seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "res"
    code = main(
        [
            "ber",
            "--config",
            str(cfg_path),
            "--snr-db",
            "8:4:12",
            "--scheme",
            "classical_ls",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "ber_classical_ls.csv").read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # two grid points


def test_iter_hist_subcommand(tmp_path):
    config = {
        "geometry": {"blocks_per_frame": 5},
        "trials": 1,
        "min_bit_errors": 0,
        "ebn0_db": [12.0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "res"
    assert main(["iter-hist", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "iter_hist.csv").exists()


def test_gamma_sweep_subcommand(tmp_path):
    config = {
        "geometry": {"blocks_per_frame": 4},
        "trials": 1,
        "min_bit_errors": 0,
        "ebn0_db": [12.0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "res"
    code = main(
        [
            "gamma-sweep",
            "--config",
            str(cfg_path),
            "--gamma-grid",
            "2,4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "gamma_sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3


@pytest.mark.parametrize(
    "argv,message",
    [
        (["ber", "--workers", "0", "--trials", "1"], "workers"),
        (["ber", "--workers", "-2", "--trials", "1"], "workers"),
        (["ber", "--snr-db", "nan", "--trials", "1"], "ebn0_db"),
        (["fsc", "--trials", "-1"], "trials"),
        (["fsc", "--trials", "0"], "trials"),
        (["ber", "--config", "{tmp}/bad.json"], "invalid config value: trials"),
        (["boundary", "--gamma-grid", "nan"], "gamma"),
        (["boundary", "--gamma-grid", "inf"], "gamma"),
    ],
)
def test_invalid_arguments_exit_2_without_output(argv, message, tmp_path, capsys):
    # a count typed as a float in a config file
    (tmp_path / "bad.json").write_text(json.dumps({"trials": 2.5}))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    out = tmp_path / "res"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()
