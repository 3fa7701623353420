"""What one pass of each benchmark workload runs, and how its output is checked.

Every workload is closed loop: a pass starts when the previous one returns.
A pass is the workload's job list; a job is one ``run_experiment`` call or
one ``impilot`` command line run through ``impilot.cli.main``.  All jobs use
the paper geometry (64-sample blocks, 8 subblocks, 1 pilot per subblock, 100
blocks per frame).  The workload seed reaches the program only as
``master_seed`` (``--seed`` on the command line).
"""

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from impilot import cli, harness
from impilot.harness import CSV_HEADER, SystemConfig
from impilot.im_codec import select_indices

WORKLOADS = ("turbo_paper", "turbo_stress", "baselines", "cli_sweep")

PAPER_SNR_DB = (8.0, 14.0)
STRESS_SNR_DB = (0.0, 4.0)
BASELINE_SCHEMES = ("lower_bound_perfect_pattern", "classical_ls", "classical_mmse")

# Frames per SNR point of a full pass, all in one batch, so a job hands whole
# batches to the harness and never one frame per call.  25 is the default
# batch size.  turbo_stress frames cost about twice as much and vary more,
# so its passes are shorter and a run holds more of them.
FULL_FRAMES = {"turbo_paper": 25, "turbo_stress": 10, "baselines": 25}
# Frames per point of the canary pass (and of the self-test size).
SMALL_FRAMES = 5

CLI_SNR_GRID = "0:2:16"
CLI_SMALL_SNR_GRID = "0:8:16"
CLI_WORKERS = 2
# The ber step keeps the default error target (100 bit errors) and caps each
# point at two batches of 10 frames (batch size set through --config), so
# points up to about 12 dB stop after one batch and the rest run to the cap.
CLI_BATCH_FRAMES = 10
CLI_FRAME_CAP = 20
CLI_SMALL_FRAME_CAP = 10
FSC_TRIALS = 20000
FSC_SMALL_TRIALS = 200
FSC_HEADER = "trial,true_start,detected_start,success"
BOUNDARY_HEADER = "gamma,boundary_rad,width_rad"
BOUNDARY_RTOL = 1e-7
# c12 recovers at least 99 % of noiseless start positions.
FSC_MAX_MISS_FRAC = 0.01

CANARY_SEED = 20210623
# Half-width of the error-count band, in standard deviations of the count
# (binomial, widened by the dispersion measured for the reference).
BAND_Z = 7.0


def pass_seed(workload: str, seed: int, index: int) -> int:
    """master_seed of pass ``index`` of a run with workload seed ``seed``."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def api_configs(workload: str, master_seed: int, frames: int) -> list:
    """The run_experiment configs of one pass of an API workload."""
    common = dict(
        trials=frames,
        batch_frames=frames,
        min_bit_errors=0,
        master_seed=master_seed,
    )
    if workload == "turbo_paper":
        return [SystemConfig(scheme="proposed_turbo", ebn0_db=PAPER_SNR_DB, **common)]
    if workload == "turbo_stress":
        return [
            SystemConfig(
                scheme="proposed_turbo",
                ebn0_db=STRESS_SNR_DB,
                max_iterations=8,
                dnp_mode="refresh",
                **common,
            )
        ]
    if workload == "baselines":
        return [
            SystemConfig(scheme=s, ebn0_db=PAPER_SNR_DB, **common)
            for s in BASELINE_SCHEMES
        ]
    raise ValueError(f"{workload!r} is not an API workload")


def iteration_budget(workload: str) -> int:
    return 8 if workload == "turbo_stress" else 4


def prepare(workload: str) -> None:
    """Build the workload's configs and alphabets and warm the index tables,
    as a fresh process must before its first frame."""
    if workload == "cli_sweep":
        configs = [SystemConfig()]
    else:
        configs = api_configs(workload, CANARY_SEED, SMALL_FRAMES)
    for config in configs:
        config.alphabets()
        for snr in config.ebn0_db:
            config.noise_variance_for(snr)
        g = config.geometry
        bits = g.index_bits_per_subblock
        select_indices((0,) * bits, g.subblock_length, g.pilots_per_subblock)


@dataclass
class Job:
    """One job's output: the CSV it wrote and what its rows must satisfy."""

    name: str
    master_seed: int = 0
    cap: int = 0  # frame cap per SNR point; round trips for fsc
    min_bit_errors: int = 0  # error target that may stop a point early
    text: str = ""
    seconds: float = 0.0
    error: str = ""

    @property
    def simulates_frames(self) -> bool:
        return self.name not in ("fsc", "boundary")


@dataclass
class Pass:
    master_seed: int
    jobs: list = field(default_factory=list)
    frames: int = 0
    frame_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def frames_per_s(self) -> float:
        return self.frames / self.frame_seconds if self.frame_seconds else 0.0


def run_pass(workload: str, master_seed: int, small: bool, out_dir: Path, workers: int = CLI_WORKERS) -> Pass:
    """Run one pass and collect each job's CSV.  A job that raises is kept
    with its error message; the pass goes on with the next job."""
    out_dir.mkdir(parents=True, exist_ok=True)
    result = Pass(master_seed)
    start = perf_counter()
    if workload == "cli_sweep":
        _cli_pass(result, small, out_dir, workers)
    else:
        frames = SMALL_FRAMES if small else FULL_FRAMES[workload]
        for config in api_configs(workload, master_seed, frames):
            job = Job(config.scheme, master_seed=master_seed, cap=config.trials)
            path = out_dir / f"{config.scheme}.csv"
            t0 = perf_counter()
            try:
                # Looked up on the module at call time, so tracing can wrap it.
                experiment = harness.run_experiment(config)
                job.seconds = perf_counter() - t0
                harness.write_csv(experiment, path)
                job.text = path.read_text(encoding="utf-8")
            except Exception as err:  # one failed job must not stop the pass
                job.error = f"{type(err).__name__}: {err}"
            result.jobs.append(job)
    result.wall_seconds = perf_counter() - start
    for job in result.jobs:
        if job.simulates_frames and not job.error:
            result.frame_seconds += job.seconds
            result.frames += sum(int(row["trials"]) for row in csv_rows(job.text, CSV_HEADER) or [])
    return result


def _cli_pass(result: Pass, small: bool, out_dir: Path, workers: int) -> None:
    seed = str(result.master_seed)
    cap = CLI_SMALL_FRAME_CAP if small else CLI_FRAME_CAP
    grid = CLI_SMALL_SNR_GRID if small else CLI_SNR_GRID
    fsc_trials = FSC_SMALL_TRIALS if small else FSC_TRIALS
    config_path = out_dir / "cli_config.json"
    config_path.write_text(json.dumps({"batch_frames": CLI_BATCH_FRAMES}), encoding="utf-8")
    commands = (
        (
            Job("ber", master_seed=result.master_seed, cap=cap,
                min_bit_errors=SystemConfig().min_bit_errors),
            ["ber", "--config", str(config_path), "--snr-db", grid, "--workers", str(workers),
             "--trials", str(cap), "--seed", seed],
            "ber_proposed_turbo.csv",
        ),
        (Job("fsc", master_seed=result.master_seed, cap=fsc_trials),
         ["fsc", "--trials", str(fsc_trials), "--seed", seed], "fsc_trials.csv"),
        (Job("boundary"), ["boundary"], "boundary.csv"),
    )
    for job, argv, filename in commands:
        path = out_dir / filename
        path.unlink(missing_ok=True)
        t0 = perf_counter()
        try:
            # The command prints the path it wrote; keep stdout for the report.
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", str(out_dir)])
            job.seconds = perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"impilot {argv[0]} exited with {code}")
            job.text = path.read_text(encoding="utf-8")
        except Exception as err:  # one failed job must not stop the pass
            job.error = f"{type(err).__name__}: {err}"
        result.jobs.append(job)


def csv_rows(text: str, header: str):
    """Rows of a CSV as dicts, or None if its header is not ``header``."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None
    return list(csv.DictReader(lines))


# Output checks ---------------------------------------------------------------


def check_job(workload: str, job: Job, reference: dict) -> list:
    """Problems found in one job's output; empty when it is correct."""
    if job.error:
        return [job.error]
    if job.name == "boundary":
        return _check_boundary(job, reference["canary"]["cli_sweep"]["boundary"])
    try:
        if job.name == "fsc":
            return _check_fsc(job)
        return _check_ber_csv(workload, job, reference)
    except (ValueError, TypeError) as err:
        return [f"{job.name}: unparsable CSV ({err})"]


def _check_boundary(job: Job, expected: str) -> list:
    """The boundary table must match the reference: byte for byte, or, when
    a change reorders floating-point work, value for value within
    BOUNDARY_RTOL."""
    if job.text == expected:
        return []
    rows = csv_rows(job.text, BOUNDARY_HEADER)
    want = csv_rows(expected, BOUNDARY_HEADER)
    if rows is None or len(rows) != len(want):
        return ["boundary table differs from the reference in shape"]
    for row, ref in zip(rows, want):
        for key in BOUNDARY_HEADER.split(","):
            if not math.isclose(float(row[key]), float(ref[key]), rel_tol=BOUNDARY_RTOL):
                return [f"boundary table {key} at gamma {ref['gamma']}: {row[key]} != {ref[key]}"]
    return []


def _check_fsc(job: Job) -> list:
    rows = csv_rows(job.text, FSC_HEADER)
    if rows is None:
        return ["fsc CSV header differs"]
    trials = job.cap
    if len(rows) != trials:
        return [f"fsc CSV has {len(rows)} rows, expected {trials}"]
    problems = []
    misses = 0
    for row in rows:
        hit = int(row["true_start"]) == int(row["detected_start"])
        if int(row["success"]) != hit:
            problems.append(f"fsc trial {row['trial']}: success flag disagrees")
            break
        misses += not hit
    if misses > FSC_MAX_MISS_FRAC * trials:
        problems.append(f"fsc missed {misses} of {trials} start positions")
    return problems


def fsc_hit_rate(job: Job) -> float:
    rows = csv_rows(job.text, FSC_HEADER) or []
    return sum(int(r["success"]) for r in rows) / len(rows) if rows else 0.0


def row_key(row: dict) -> str:
    return f"{row['scheme']}@{float(row['snr_db']):g}"


def bits_per_block(scheme: str) -> int:
    """Index plus symbol bits the harness scores per block of ``scheme``."""
    config = SystemConfig(scheme=scheme)
    g = config.geometry
    bits_per_symbol = config.data_order.bit_length() - 1
    if scheme.startswith("classical"):
        return (g.block_length - g.preamble_length) * bits_per_symbol
    return g.index_bits_per_block + g.data_per_block * bits_per_symbol


def row_errors(row: dict) -> tuple:
    """(bit errors, bits) of a CSV row, recovered from ber_overall."""
    blocks = int(row["trials"]) * SystemConfig().geometry.blocks_per_frame
    bits = blocks * bits_per_block(row["scheme"])
    return round(float(row["ber_overall"]) * bits), bits


def within_band(errors: int, bits: int, scheme: str, rate: dict) -> bool:
    """Error count inside the reference band: BAND_Z standard deviations of
    a binomial count widened by the measured dispersion, plus one block's
    worth of bits for a single wholly-wrong block."""
    p = rate["p"]
    sd = math.sqrt(rate["dispersion"] * bits * p * (1.0 - p))
    return abs(errors - bits * p) <= BAND_Z * sd + bits_per_block(scheme)


def _check_ber_csv(workload: str, job: Job, reference: dict) -> list:
    rows = csv_rows(job.text, CSV_HEADER)
    if rows is None:
        return [f"{job.name}: CSV header differs from CSV_HEADER"]
    if not rows:
        return [f"{job.name}: CSV has no rows"]
    problems = []
    rates = reference["rates"][workload]
    for row in rows:
        where = f"{job.name} row {row_key(row)}"
        if None in row or None in row.values():
            problems.append(f"{where}: wrong number of fields")
            continue
        bers = [float(row[k]) for k in ("ber_index", "ber_symbol", "ber_overall")]
        if row["scheme"].startswith("classical"):
            bers = bers[1:]  # classical receivers carry no index bits
        if not all(0.0 <= b <= 1.0 for b in bers):
            problems.append(f"{where}: BER outside [0, 1]")
        if not math.isfinite(float(row["mse"])):
            problems.append(f"{where}: MSE not finite")
        if int(row["seed"]) != job.master_seed:
            problems.append(f"{where}: seed column {row['seed']} != {job.master_seed}")
        frames = int(row["trials"])
        rate = rates.get(row_key(row))
        if rate is None:
            problems.append(f"{where}: no reference rate")
            continue
        errors, bits = row_errors(row)
        if job.min_bit_errors:
            stopped_early = frames < job.cap and errors >= job.min_bit_errors
            if not (frames == job.cap or stopped_early):
                problems.append(f"{where}: {frames} frames neither reach the cap nor the error target")
        elif frames != job.cap:
            problems.append(f"{where}: {frames} frames, frame cap is {job.cap}")
        if not within_band(errors, bits, row["scheme"], rate):
            problems.append(
                f"{where}: {errors} bit errors in {bits} bits, reference rate {rate['p']:.3g}"
            )
    return problems


def check_pooled(workload: str, passes: list, reference: dict) -> dict:
    """Problems of each job name when its error counts, summed per point over
    all ``passes``, leave the reference band.  The band's relative width
    narrows with the square root of the pooled bits, so this catches a loss
    of receiver quality that one pass's band lets through."""
    pooled = {}
    for one_pass in passes:
        for job in one_pass.jobs:
            if job.error or not job.simulates_frames:
                continue
            for row in csv_rows(job.text, CSV_HEADER) or []:
                try:
                    key = row_key(row)
                    errors, bits = row_errors(row)
                except (ValueError, TypeError):
                    continue  # the pass's own check has reported this row
                totals = pooled.setdefault((job.name, row["scheme"], key), [0, 0])
                totals[0] += errors
                totals[1] += bits
    rates = reference["rates"][workload]
    found = {}
    for (name, scheme, key), (errors, bits) in sorted(pooled.items()):
        rate = rates.get(key)
        if rate is not None and not within_band(errors, bits, scheme, rate):
            found.setdefault(name, []).append(
                f"{key} pooled over {len(passes)} passes: {errors} bit errors in "
                f"{bits} bits, reference rate {rate['p']:.3g}"
            )
    return found


def check_canary(workload: str, canary: Pass, reference: dict, out_dir: Path) -> dict:
    """Problems of each canary job, the pass at the fixed seed: its CSV must
    equal the reference bytes, or, when a change moved the random draws, its
    counts must lie inside the band.  For cli_sweep the ber CSV written with
    two workers must also equal the one written with one (the determinism
    contract)."""
    expected = reference["canary"][workload]
    found = {}
    for job in canary.jobs:
        if job.error or job.text == expected.get(job.name):
            found[job.name] = [job.error] if job.error else []
            continue
        found[job.name] = check_job(workload, job, reference)
        if workload == "cli_sweep" and job.name == "ber":
            single = run_pass(workload, canary.master_seed, True, out_dir, workers=1)
            if single.jobs[0].text != job.text:
                found[job.name].append(f"ber CSV at {CLI_WORKERS} workers differs from 1 worker")
    return found
