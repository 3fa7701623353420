"""Record perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py

For every workload it keeps the CSV bytes of the canary pass (the small pass
at the fixed seed; cli_sweep's ber step at one worker) and, per scheme and
SNR point, the bit error rate pooled over full passes at reference seeds
with the dispersion of the per-pass error counts around it.  It always
re-records every workload, so the file describes one commit.  Re-record only
when a change is meant to alter the simulated statistics, and say so.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

# Workload seed of the reference passes; benchmark runs use their own seeds.
REFERENCE_SEED = 1_000_000_007
# Full passes per workload behind the pooled rates and their dispersion.
PASSES = 24


def main() -> int:
    out_dir = HERE / "out" / "reference"
    path = HERE / "reference.json"
    reference = {"canary": {}, "rates": {}}
    for workload in workloads.WORKLOADS:
        canary = workloads.run_pass(workload, workloads.CANARY_SEED, True, out_dir, workers=1)
        reference["canary"][workload] = {job.name: job.text for job in canary.jobs}
        counts = {}
        for index in range(PASSES):
            seed = workloads.pass_seed(workload, REFERENCE_SEED, index)
            one_pass = workloads.run_pass(workload, seed, False, out_dir)
            for job in one_pass.jobs:
                if job.error:
                    raise SystemExit(f"{workload} {job.name}: {job.error}")
                if not job.simulates_frames:
                    continue
                for row in workloads.csv_rows(job.text, workloads.CSV_HEADER):
                    counts.setdefault(workloads.row_key(row), []).append(workloads.row_errors(row))
            print(f"{workload}: pass {index + 1}/{PASSES}", file=sys.stderr)
        reference["rates"][workload] = {key: rate(pairs) for key, pairs in sorted(counts.items())}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=HERE.parent).stdout.strip()
    reference["recorded_at_commit"] = commit
    reference["passes"] = PASSES
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def rate(pairs) -> dict:
    """Pooled error rate of (errors, bits) pairs and the dispersion of the
    counts relative to a binomial (at least 1)."""
    errors = sum(e for e, _ in pairs)
    bits = sum(n for _, n in pairs)
    p = errors / bits
    if 0.0 < p < 1.0:
        ratios = [(e - n * p) ** 2 / (n * p * (1.0 - p)) for e, n in pairs]
        dispersion = max(1.0, sum(ratios) / len(ratios))
    else:
        dispersion = 1.0
    return {"p": p, "dispersion": dispersion, "bits": bits, "passes": len(pairs)}


if __name__ == "__main__":
    sys.exit(main())
