"""impilot benchmark: one workload, closed loop, for a fixed number of seconds.

    python3 perfbench/run.py --workload turbo_paper --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation.  With ``--trace 1`` it runs each seed's pass untraced and
then traced, and reports the per-layer metrics.  Every job's output is
checked against ``perfbench/reference.json``.  The report goes to stdout; its
last line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
# Fresh-process set-up probes: a few before the first pass and a few after
# each pass, so a slow phase of the machine does not move them all at once.
SETUP_PROBES_PER_ROUND = 2


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true", help="small passes, for the self-tests"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure_setup(workload: str) -> list:
    """Seconds a fresh process takes to import impilot, build the workload's
    configs and alphabets, and warm the index tables; one value per probe."""
    samples = []
    for _ in range(SETUP_PROBES_PER_ROUND):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
        )
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
    }


def run(args) -> int:
    import metrics
    import workloads
    from tracing import Tracer

    # Set-up is reported only by untraced runs, so traced runs skip the probes.
    setup = [] if args.trace else measure_setup(args.workload)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    out_dir = OUT / args.workload
    workloads.prepare(args.workload)

    problems = []
    failed_jobs = set()
    attempted = 0

    def fail(label, job_name, found):
        if found:
            failed_jobs.add((label, job_name))
            problems.extend(f"{label} {job_name}: {p}" for p in found)

    def checked(one_pass, label):
        nonlocal attempted
        for job in one_pass.jobs:
            attempted += 1
            fail(label, job.name, workloads.check_job(args.workload, job, reference))
        return one_pass

    # The canary at the fixed seed also warms caches before timing starts.
    canary = workloads.run_pass(args.workload, workloads.CANARY_SEED, True, out_dir)
    attempted += len(canary.jobs)
    found = workloads.check_canary(args.workload, canary, reference, out_dir)
    for job_name, job_problems in found.items():
        fail("canary", job_name, job_problems)

    untraced, traced = [], []
    tracer = Tracer(metrics.TRACE_SUMMARIES) if args.trace else None

    def timed_pass(seed, with_trace):
        if not with_trace:
            one_pass = workloads.run_pass(args.workload, seed, args.small, out_dir)
            untraced.append(checked(one_pass, f"pass {seed}"))
            return
        tracer.run_id = len(traced)
        with tracer:
            one_pass = workloads.run_pass(args.workload, seed, args.small, out_dir)
        traced.append(checked(one_pass, f"traced pass {seed}"))
        for plain, with_spans in zip(untraced[-1].jobs, one_pass.jobs):
            if plain.text != with_spans.text:
                fail(f"traced pass {seed}", plain.name, ["CSV differs from the untraced pass"])

    deadline = perf_counter() + args.seconds
    index = 0
    while True:
        started = perf_counter()
        seed = workloads.pass_seed(args.workload, args.seed, index)
        timed_pass(seed, False)
        if args.trace:
            timed_pass(seed, True)
        else:
            setup.extend(measure_setup(args.workload))
        index += 1
        # Stop where the next round would end nearer past the deadline than
        # this one ended before it, so a run lasts about --seconds.
        if perf_counter() + 0.5 * (perf_counter() - started) >= deadline:
            break

    # A point whose pooled counts leave the band fails that job in every pass.
    for job_name, found in workloads.check_pooled(args.workload, untraced, reference).items():
        problems.extend(f"pooled {job_name}: {p}" for p in found)
        failed_jobs.update((f"pass {p.master_seed}", job_name) for p in untraced)
    failed = len(failed_jobs)
    env = environment(args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        values, bases = metrics.per_layer(args.workload, tracer, traced, untraced)
        tracer.save(OUT / f"{args.workload}-spans.npz")
        units = metrics.PER_LAYER
        moves = {name: metrics.MOVES[name] for name in units}
    else:
        passes = untraced
        frames = sum(p.frames for p in passes)
        values = {
            "frames_per_s": frames / sum(p.frame_seconds for p in passes),
            "wall_s": statistics.median(p.wall_seconds for p in passes),
            "setup_s": min(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        bases = {
            "frames_per_s": f"{frames} frames over {len(passes)} passes",
            "wall_s": f"median of {len(passes)} passes",
            "setup_s": f"fastest of {len(setup)} fresh processes spread over the run",
            "peak_rss_mb": "ru_maxrss of the benchmark process",
        }
        units = metrics.END_TO_END
        moves = {}
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "metrics": {
            name: {"value": values[name], "unit": units[name], "base": bases[name],
                   **({"moves": moves[name]} if name in moves else {})}
            for name in units
        },
        "passes": [
            {"master_seed": p.master_seed, "frames": p.frames,
             "frame_s": p.frame_seconds, "wall_s": p.wall_seconds}
            for p in untraced
        ],
        "setup_s_samples": setup,
        "failed_frac": failed / attempted,
        "problems": problems,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8"
    )
    for key, value in env.items():
        print(f"env {key}: {value}")
    for name, entry in report["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}  [{entry['base']}]")
    print(f"failed_frac = {failed / attempted:.6g} ratio  [{failed} of {attempted} jobs]")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def main(argv=None) -> int:
    if not (SRC / "impilot" / "__init__.py").is_file():
        print(f"error: no impilot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
