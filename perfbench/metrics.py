"""The benchmark's metrics.  Names and units come from BENCHMARK.json;
``MOVES`` adds, for each per-layer metric, the end-to-end metric and
workload it should move, which BENCHMARK.json has no field for."""

import json
import statistics
from pathlib import Path

import numpy as np

from impilot.analysis import complexity_multiplications
from impilot.harness import SystemConfig

import workloads

_BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
# name -> unit, in BENCHMARK.json's order.
END_TO_END = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}

# Per-layer metric -> the end-to-end metric, and the workload, it should move.
MOVES = {
    "rx_turbo.llr_values.us_per_block":
        "frames_per_s on turbo_paper, more on turbo_stress, none on baselines",
    "rx_turbo.llr_values.calls_per_block":
        "frames_per_s on turbo_paper, more on turbo_stress, none on baselines",
    "rx_turbo.turbo_receive.self_us_per_block":
        "frames_per_s on turbo_paper and turbo_stress",
    "rx_turbo.turbo_receive.block_us_p50":
        "frames_per_s on turbo_paper and turbo_stress",
    "rx_turbo.turbo_receive.block_us_p99":
        "frames_per_s on turbo_stress (rescue tail)",
    "rx_turbo.turbo_receive.samples":
        "base of the block_us percentiles",
    "rx_turbo.iterations_per_block":
        "explains frames_per_s moves on turbo_stress; repeats exactly",
    "rx_turbo.converged_frac":
        "explains frames_per_s moves on turbo_stress; repeats exactly",
    "rx_turbo.restarted_frac":
        "explains frames_per_s moves on turbo_stress; repeats exactly",
    "rx_turbo.ls_fallbacks_per_block":
        "explains frames_per_s moves on turbo_stress; repeats exactly",
    "rx_turbo.unmapped_frac":
        "explains frames_per_s moves on turbo_stress; repeats exactly",
    "rx_turbo.pattern_error_rate":
        "explains frames_per_s moves on turbo_stress; repeats exactly",
    "rx_turbo.blocks":
        "base of the counted rx_turbo ratios (first traced pass)",
    "analysis.mults_per_block":
        "the paper's complexity count at the workload's iteration budget",
    "rx_turbo.mults_per_s":
        "frames_per_s on turbo_paper and turbo_stress (overhead ratio)",
    "im_codec.assemble_block.us_per_block":
        "frames_per_s on turbo_paper and baselines",
    "im_codec.rank_indices.us_per_block":
        "frames_per_s on turbo_paper",
    "im_codec.rank_indices.calls_per_block":
        "frames_per_s on turbo_paper",
    "constellation.map_bits_array.us_per_block":
        "frames_per_s on baselines",
    "channel.evolve.us_per_block":
        "frames_per_s on baselines",
    "channel.propagate_block.us_per_block":
        "frames_per_s on baselines",
    "impairments.sample_rx_distortion_noise.us_per_block":
        "frames_per_s on baselines",
    "rx_classical.ls_estimate.us_per_block":
        "frames_per_s on baselines",
    "rx_classical.mmse_estimate.us_per_block":
        "frames_per_s on baselines",
    "rx_classical.detect_symbols.us_per_block":
        "frames_per_s on baselines",
    "rx_classical.solve_two_path_ls.calls_per_block":
        "frames_per_s on turbo_stress (cycle-mate and rescue fits)",
    "harness.self_ms_per_frame":
        "frames_per_s on all workloads, mostly baselines",
    "trace.blocks":
        "base of the timed per-block metrics (traced passes)",
    "fsc.trials_per_s":
        "wall_s on cli_sweep",
    "fsc.zf_fde.us_per_trial":
        "wall_s on cli_sweep",
    "fsc.sliding_correlation.us_per_trial":
        "wall_s on cli_sweep",
    "fsc.random_well_conditioned_cir.us_per_trial":
        "wall_s on cli_sweep",
    "fsc.hit_rate":
        "correctness of fsc on cli_sweep",
    "cli.self_ms":
        "wall_s on cli_sweep",
    "trace.overhead_frac":
        "none: untraced over traced frames_per_s, minus one",
    "trace.coverage_frac":
        "none: self time of all spans over traced pass wall time",
}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mults_per_block(workload: str) -> int:
    """The paper's complexity count for the workload's receiver and budget."""
    g = SystemConfig().geometry
    if workload == "baselines":
        return complexity_multiplications("classical", preamble_length=g.preamble_length)
    config = SystemConfig()
    return complexity_multiplications(
        "proposed",
        iterations=workloads.iteration_budget(workload),
        pilot_order=config.pilot_order,
        data_order=config.data_order,
        block_length=g.block_length,
        subblocks=g.subblocks,
        pilots_per_block=g.pilots_per_block,
    )


def summarize_turbo(result) -> tuple:
    """The TurboResult fields the counts use."""
    return (
        result.iterations,
        int(result.converged),
        int(result.restarted),
        result.ls_fallbacks,
        int(result.unmapped.sum()),
    )


def summarize_experiment(result) -> list:
    """(scheme, frames, pattern_errors, subblocks) of each PointResult."""
    return [(p.scheme, p.frames, p.pattern_errors, p.subblocks) for p in result.points]


TRACE_SUMMARIES = {
    "rx_turbo.turbo_receive": summarize_turbo,
    "harness.run_experiment": summarize_experiment,
}


def per_layer(workload, tracer, traced, untraced) -> tuple:
    """Per-layer metric values and, for each, its base as text.

    Timings cover every traced pass; counts cover only the first traced pass
    (run id 0), so they repeat exactly for a given seed however many passes
    fit in the run.
    """
    spans = tracer.arrays()
    name_of = {n: i for i, n in enumerate(tracer.names)}
    sub = SystemConfig().geometry.subblocks
    blocks_per_frame = SystemConfig().geometry.blocks_per_frame
    # cli_sweep's frames run in worker processes, which record no spans.
    in_process = [] if workload == "cli_sweep" else traced
    frames = sum(p.frames for p in traced)
    blocks = sum(p.frames for p in in_process) * blocks_per_frame
    blocks0 = sum(p.frames for p in in_process[:1]) * blocks_per_frame
    fsc_trials = sum(j.cap for p in traced for j in p.jobs if j.name == "fsc")
    wall = sum(p.wall_seconds for p in traced)

    def select(name, run=None):
        mask = spans["name"] == name_of.get(name, -1)
        if run is not None:
            mask &= spans["run"] == run
        return mask

    def total(name, key="duration"):
        return float(spans[key][select(name)].sum())

    def per(value, base, scale=1.0):
        return value * scale / base if base else 0.0

    values, bases = {}, {}

    def put(name, value, base):
        values[name] = float(value)
        bases[name] = base

    per_block = f"{blocks} blocks in {len(in_process)} traced passes"
    for span, metric in (
        ("rx_turbo.llr_values", "rx_turbo.llr_values.us_per_block"),
        ("im_codec.assemble_block", "im_codec.assemble_block.us_per_block"),
        ("im_codec.rank_indices", "im_codec.rank_indices.us_per_block"),
        ("constellation.map_bits_array", "constellation.map_bits_array.us_per_block"),
        ("channel.evolve", "channel.evolve.us_per_block"),
        ("channel.propagate_block", "channel.propagate_block.us_per_block"),
        ("impairments.sample_rx_distortion_noise",
         "impairments.sample_rx_distortion_noise.us_per_block"),
        ("rx_classical.ls_estimate", "rx_classical.ls_estimate.us_per_block"),
        ("rx_classical.mmse_estimate", "rx_classical.mmse_estimate.us_per_block"),
        ("rx_classical.detect_symbols", "rx_classical.detect_symbols.us_per_block"),
    ):
        put(metric, per(total(span), blocks, 1e6), per_block)
    put("rx_turbo.turbo_receive.self_us_per_block",
        per(total("rx_turbo.turbo_receive", "self"), blocks, 1e6), per_block)
    put("trace.blocks", blocks, "traced passes")

    per_block0 = f"{blocks0} blocks of the first traced pass"
    for span, metric in (
        ("rx_turbo.llr_values", "rx_turbo.llr_values.calls_per_block"),
        ("im_codec.rank_indices", "im_codec.rank_indices.calls_per_block"),
        ("rx_classical.solve_two_path_ls", "rx_classical.solve_two_path_ls.calls_per_block"),
    ):
        put(metric, per(int(select(span, run=0).sum()), blocks0), per_block0)

    block_us = spans["duration"][select("rx_turbo.turbo_receive")] * 1e6
    samples = f"{block_us.size} turbo_receive calls"
    put("rx_turbo.turbo_receive.block_us_p50",
        np.percentile(block_us, 50) if block_us.size else 0.0, samples)
    put("rx_turbo.turbo_receive.block_us_p99",
        np.percentile(block_us, 99) if block_us.size else 0.0, samples)
    put("rx_turbo.turbo_receive.samples", block_us.size, "traced passes")

    turbo = np.array(tracer.results["rx_turbo.turbo_receive"].get(0, []), dtype=float)
    turbo = turbo.reshape(-1, 5)
    n_turbo = turbo.shape[0]
    turbo_base = f"{n_turbo} turbo_receive results of the first traced pass"
    put("rx_turbo.iterations_per_block", per(turbo[:, 0].sum(), n_turbo), turbo_base)
    put("rx_turbo.converged_frac", per(turbo[:, 1].sum(), n_turbo), turbo_base)
    put("rx_turbo.restarted_frac", per(turbo[:, 2].sum(), n_turbo), turbo_base)
    put("rx_turbo.ls_fallbacks_per_block", per(turbo[:, 3].sum(), n_turbo), turbo_base)
    put("rx_turbo.unmapped_frac", per(turbo[:, 4].sum(), n_turbo * sub),
        f"{n_turbo * sub} subblocks of the first traced pass")
    put("rx_turbo.blocks", n_turbo, "first traced pass")

    points = [
        point
        for summary in tracer.results["harness.run_experiment"].get(0, [])
        for point in summary
        if point[0] == "proposed_turbo"
    ]
    pattern_errors = sum(p[2] for p in points)
    subblocks = sum(p[3] for p in points)
    put("rx_turbo.pattern_error_rate", per(pattern_errors, subblocks),
        f"{subblocks} proposed_turbo subblocks (PointResult) of the first traced pass")

    mults = mults_per_block(workload)
    put("analysis.mults_per_block", mults, f"complexity_multiplications at {workload}'s budget")
    turbo_time = total("rx_turbo.turbo_receive")
    put("rx_turbo.mults_per_s", per(mults * block_us.size, turbo_time),
        f"{block_us.size} blocks over {turbo_time:.3f} s inclusive turbo_receive time")

    run_self = total("harness.run_experiment", "self")
    put("harness.self_ms_per_frame", per(run_self, frames, 1e3), f"{frames} frames")

    fsc_time = total("fsc.run_fsc_trials")
    fsc_base = f"{fsc_trials} fsc round trips"
    put("fsc.trials_per_s", per(fsc_trials, fsc_time), f"{fsc_base} over {fsc_time:.3f} s")
    for span in ("fsc.zf_fde", "fsc.sliding_correlation", "fsc.random_well_conditioned_cir"):
        put(f"{span}.us_per_trial", per(total(span), fsc_trials, 1e6), fsc_base)
    hits = [workloads.fsc_hit_rate(j) for p in traced for j in p.jobs if j.name == "fsc"]
    put("fsc.hit_rate", statistics.fmean(hits) if hits else 0.0, fsc_base)

    put("cli.self_ms", per(total("cli.main", "self"), len(traced), 1e3),
        f"mean over {len(traced)} traced passes")

    fast = median([p.frames_per_s for p in untraced])
    slow = median([p.frames_per_s for p in traced])
    put("trace.overhead_frac", fast / slow - 1.0 if slow else 0.0,
        f"median frames_per_s of {len(untraced)} untraced and {len(traced)} traced passes")
    covered = float(spans["self"].sum())
    put("trace.coverage_frac", per(covered, wall),
        f"{covered:.3f} s of span self time over {wall:.3f} s traced pass wall time")
    return values, bases
