"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracing import WRAPPED, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_run_prints_every_metric_with_its_unit(workload, trace):
    done = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", trace, "--small")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") for line in lines)
    assert any(line.startswith("failed_frac = 0 ") for line in lines)


def test_wrappers_leave_impilot_unpatched():
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in WRAPPED
    }
    tracer = Tracer()
    with tracer:
        for (module, attr), fn in originals.items():
            assert getattr(importlib.import_module(module), attr) is not fn
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn


@pytest.mark.parametrize("workload", ["turbo_paper", "baselines"])
def test_traced_and_untraced_csv_bytes_are_identical(workload, tmp_path):
    plain = workloads.run_pass(workload, 11, True, tmp_path)
    tracer = Tracer(metrics.TRACE_SUMMARIES)
    with tracer:
        traced = workloads.run_pass(workload, 11, True, tmp_path)
    assert [j.text for j in plain.jobs] == [j.text for j in traced.jobs]
    assert all(j.text for j in plain.jobs)
    spans = tracer.arrays()
    roots = spans["parent"] < 0
    # Self times partition the top-level spans exactly.
    assert spans["self"].sum() == pytest.approx(spans["duration"][roots].sum())
    assert (spans["self"] >= -1e-9).all()


def test_band_rejects_a_broken_receiver():
    reference = json.loads((HERE / "reference.json").read_text())
    rate = reference["rates"]["turbo_paper"]["proposed_turbo@8"]
    bits = 50 * 100 * workloads.bits_per_block("proposed_turbo")
    assert workloads.within_band(round(rate["p"] * bits), bits, "proposed_turbo", rate)
    assert not workloads.within_band(bits // 2, bits, "proposed_turbo", rate)


def _turbo_paper_pass(master_seed, ber_scale):
    """A fake full turbo_paper pass whose 14 dB error count is ``ber_scale``
    times the reference rate.  At 14 dB a pass sees about 190 errors."""
    reference = json.loads((HERE / "reference.json").read_text())
    ber = ber_scale * reference["rates"]["turbo_paper"]["proposed_turbo@14"]["p"]
    frames = workloads.FULL_FRAMES["turbo_paper"]
    lines = [workloads.CSV_HEADER,
             f"14,4,proposed_turbo,{ber},{ber},{ber},0.1,0,0,0,1,{frames},{master_seed},x"]
    job = workloads.Job("proposed_turbo", master_seed=master_seed, cap=frames,
                        text="\n".join(lines) + "\n")
    return workloads.Pass(master_seed, jobs=[job]), reference


def test_pooled_band_catches_what_one_pass_lets_through():
    passes = []
    for seed in range(8):
        one_pass, reference = _turbo_paper_pass(seed, 2.0)
        passes.append(one_pass)
        assert workloads.check_job("turbo_paper", one_pass.jobs[0], reference) == []
    found = workloads.check_pooled("turbo_paper", passes, reference)
    assert set(found) == {"proposed_turbo"}
    fair = [_turbo_paper_pass(seed, 1.0)[0] for seed in range(8)]
    assert workloads.check_pooled("turbo_paper", fair, reference) == {}


def test_boundary_check_tolerates_rounding_only():
    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference["canary"]["cli_sweep"]["boundary"]
    lines = expected.splitlines()
    gamma, bound, width = lines[1].split(",")
    nudged = f"{gamma},{float(bound) * (1 + 1e-9):.12g},{width}"
    moved = f"{gamma},{float(bound) * (1 + 1e-3):.12g},{width}"
    for row, ok in ((nudged, True), (moved, False)):
        job = workloads.Job("boundary", text="\n".join([lines[0], row, *lines[2:]]) + "\n")
        assert (workloads.check_job("cli_sweep", job, reference) == []) is ok


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "turbo_paper", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
