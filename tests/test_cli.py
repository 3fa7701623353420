import argparse
import json
import tracemalloc

import pytest

from impilot import cli, fsc
from impilot.cli import main, _parse_grid
from impilot.harness import CSV_HEADER


def test_parse_grid_forms():
    assert _parse_grid("0:2:6") == (0.0, 2.0, 4.0, 6.0)
    assert _parse_grid("4,8,12") == (4.0, 8.0, 12.0)
    assert _parse_grid("15") == (15.0,)
    assert len(_parse_grid("0:1:9999")) == 10000


def test_fsc_writes_one_chunk_of_trials_at_a_time(tmp_path, monkeypatch):
    # Chunks of 7 round trips: the command asks for 7, 7 and 6, all from one
    # generator, and writes the bytes of one 20-trial call.
    assert main(["fsc", "--trials", "20", "--out", str(tmp_path / "whole")]) == 0
    whole = (tmp_path / "whole" / "fsc_trials.csv").read_bytes()
    asked = []

    def recording(geometry, trials, *args):
        asked.append(trials)
        return run(geometry, trials, *args)

    run = cli.run_fsc_trials
    monkeypatch.setattr(cli, "run_fsc_trials", recording)
    monkeypatch.setattr(fsc, "_CHUNK_SAMPLES", 7 * 64)
    assert main(["fsc", "--trials", "20", "--out", str(tmp_path / "chunks")]) == 0
    assert asked == [7, 7, 6]
    assert (tmp_path / "chunks" / "fsc_trials.csv").read_bytes() == whole


def test_failed_fsc_run_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "res"
    out.mkdir()
    (out / "fsc_trials.csv").write_text("an earlier run\n")
    run = cli.run_fsc_trials

    def failing(geometry, trials, *args):
        if failing.calls:
            raise fsc.SpectralNullError("channel frequency response has a spectral null")
        failing.calls += 1
        return run(geometry, trials, *args)

    failing.calls = 0
    monkeypatch.setattr(cli, "run_fsc_trials", failing)
    monkeypatch.setattr(fsc, "_CHUNK_SAMPLES", 7 * 64)
    assert main(["fsc", "--trials", "20", "--out", str(out)]) == 2
    assert "spectral null" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["fsc_trials.csv"]
    assert (out / "fsc_trials.csv").read_text() == "an earlier run\n"


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
        (["ber", "--snr-db", "4000", "--trials", "1"], "ebn0_db"),
        (["ber", "--config", "{tmp}/gamma_bool.json"], "invalid config value: gamma"),
        (["ber", "--config", "{tmp}/ebn0_bool.json"], "ebn0_db"),
        (["ber", "--config", "{tmp}/ebn0_low.json"], "ebn0_db"),
        (["ber", "--config", "{tmp}/distortion.json"], "distortion_level_db"),
        (["ber", "--config", "{tmp}/path_gain.json"], "path_gain"),
        (["ber", "--config", "{tmp}/imbalance.json"], "path_gain and amplitude_imbalance"),
        (["ber", "--config", "{tmp}/gamma_high.json"], "gamma"),
        (
            ["ber", "--config", "{tmp}/list.json", "--snr-db", "10", "--trials", "1"],
            "config must be a mapping",
        ),
        (["ber", "--config", "{tmp}/huge_block.json"], "min(batch_frames, trials)"),
        (["ber", "--config", "{tmp}/huge_order.json", "--scheme", "classical_ls"], "data_order"),
        (["ber", "--config", "{tmp}/huge_pilot_order.json"], "pilot_order"),
        (["fsc", "--block-length", "400000000", "--trials", "1"], "block_length"),
        # numpy's own message named no option
        (["fsc", "--seed", "-1"], "seed"),
    ],
)
def test_invalid_arguments_exit_2_without_output(argv, message, tmp_path, capsys):
    bad_configs = {
        # a count typed as a float
        "bad": {"trials": 2.5},
        # bools in float fields, and finite extremes that failed mid-run
        "gamma_bool": {"gamma": True},
        "ebn0_bool": {"ebn0_db": [True]},
        "ebn0_low": {"ebn0_db": [-4000.0]},
        "distortion": {"distortion_level_db": 4000.0},
        "path_gain": {"path_gain": 1e200},
        "imbalance": {"amplitude_imbalance": 1e200},
        "gamma_high": {"gamma": 1e300},
        "list": [1, 2],
        # sizes that would not fit in memory
        "huge_block": {"geometry": {"block_length": 2**40, "subblocks": 4, "blocks_per_frame": 1}},
        "huge_order": {"data_order": 2**40},
        "huge_pilot_order": {"pilot_order": 2**40},
    }
    for name, config in bad_configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    out = tmp_path / "res"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "grid,message",
    [
        ("0:0.0000001:1e9", "more than 10000 points"),
        ("-1e308:1e-300:1e308", "more than 10000 points"),
        ("0:inf:4", "finite"),
        ("nan:1:4", "finite"),
        ("0:1:inf", "finite"),
    ],
)
def test_grid_bounds_rejected_before_building(grid, message, tmp_path, capsys):
    # the grid is refused from its bounds alone, so no large tuple is built
    tracemalloc.start()
    try:
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            _parse_grid(grid)
        with pytest.raises(SystemExit) as exit_info:
            main(["ber", f"--snr-db={grid}", "--trials", "1", "--out", str(tmp_path / "res")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert peak < 1_000_000
    assert not (tmp_path / "res").exists()
