"""Command-line front end: run sweeps and write CSV result files."""

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import boundary_table
from .constellation import build_data_alphabet
from .fsc import FscGeometry, fsc_chunk_sizes, run_fsc_trials
from .harness import (
    GAMMA_GRID_DEFAULT,
    SCHEMES,
    SystemConfig,
    run_experiment,
    run_gamma_sweep,
    run_iteration_histogram,
    write_csv,
)

MAX_GRID_POINTS = 10_000


def _parse_grid(text: str) -> tuple:
    """"start:step:stop" (stop inclusive) or a comma list or a single value."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("grid must be start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, step, stop))):
            raise argparse.ArgumentTypeError("grid start, step and stop must be finite")
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError("need step > 0 and stop >= start")
        half_up = (stop - start) / step + 0.5
        if not half_up < MAX_GRID_POINTS:
            raise argparse.ArgumentTypeError(f"grid has more than {MAX_GRID_POINTS} points")
        count = int(half_up) + 1
        return tuple(start + step * i for i in range(count))
    return tuple(float(p) for p in text.split(","))


def _load_config(args) -> SystemConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = SystemConfig.from_dict(json.load(handle))
    else:
        config = SystemConfig()
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "snr_db", None) is not None:
        overrides["ebn0_db"] = args.snr_db
    if getattr(args, "scheme", None) is not None:
        overrides["scheme"] = args.scheme
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = args.trials
    if overrides:
        config = replace(config, **overrides)
    return config


def _out_path(args, name: str) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _add_common(parser, with_snr=True, with_scheme=True):
    parser.add_argument("--config", help="JSON config file mirroring SystemConfig")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--workers", type=int, default=1, help="parallel workers")
    parser.add_argument("--trials", type=int, default=None, help="frame cap per point")
    if with_snr:
        parser.add_argument(
            "--snr-db", type=_parse_grid, default=None, help="per-bit SNR grid, start:step:stop"
        )
    if with_scheme:
        parser.add_argument("--scheme", choices=SCHEMES, default=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="impilot",
        description="Link-level sweeps for index-modulated pilot placement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (
        ("ber", "BER sweep over the per-bit SNR grid"),
        ("mse", "channel-estimation MSE sweep over the per-bit SNR grid"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)

    p = sub.add_parser("gamma-sweep", help="BER versus pilot power ratio")
    _add_common(p)
    p.add_argument(
        "--gamma-grid",
        type=_parse_grid,
        default=GAMMA_GRID_DEFAULT,
        help="pilot/data power ratios to sweep",
    )

    p = sub.add_parser("iter-hist", help="iteration-count statistics with the stopping rule")
    _add_common(p, with_scheme=False)

    p = sub.add_parser("boundary", help="misclassification boundary versus power ratio")
    p.add_argument("--gamma-grid", type=_parse_grid, default=_parse_grid("2.5:0.25:10"))
    p.add_argument("--out", default="results")

    p = sub.add_parser("fsc", help="cyclic-prefix pilot-position round trips")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="results")
    p.add_argument("--block-length", type=int, default=64)
    p.add_argument("--cir-length", type=int, default=2)
    p.add_argument("--cp-length", type=int, default=4)
    p.add_argument("--pilot-length", type=int, default=8)

    args = parser.parse_args(argv)

    try:
        return _dispatch(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command in ("ber", "mse"):
        config = _load_config(args)
        result = run_experiment(config, workers=args.workers)
        path = _out_path(args, f"{args.command}_{config.scheme}.csv")
        write_csv(result, path)
    elif args.command == "gamma-sweep":
        config = _load_config(args)
        results = run_gamma_sweep(config, args.gamma_grid, workers=args.workers)
        path = _out_path(args, "gamma_sweep.csv")
        write_csv(results, path)
    elif args.command == "iter-hist":
        config = _load_config(args)
        result = run_iteration_histogram(config, workers=args.workers)
        path = _out_path(args, "iter_hist.csv")
        write_csv(result, path)
    elif args.command == "boundary":
        rows = boundary_table(args.gamma_grid)
        path = _out_path(args, "boundary.csv")
        lines = ["gamma,boundary_rad,width_rad"]
        lines += [f"{g:.9g},{b:.9g},{w:.9g}" for g, b, w in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif args.command == "fsc":
        if args.seed < 0:
            raise ValueError(f"seed must be >= 0, got {args.seed}")
        geometry = FscGeometry(
            block_length=args.block_length,
            cir_length=args.cir_length,
            cp_length=args.cp_length,
            pilot_length=args.pilot_length,
        )
        chunk_sizes = fsc_chunk_sizes(geometry, args.trials)
        rng = np.random.default_rng(args.seed)
        points = build_data_alphabet(4).points
        path = _out_path(args, "fsc_trials.csv")
        # One chunk of round trips at a time, drawn from the one generator,
        # into a side file that takes the output's name only when complete.
        partial = path.with_name(path.name + ".partial")
        try:
            with open(partial, "w", encoding="utf-8") as handle:
                handle.write("trial,true_start,detected_start,success\n")
                first = 0
                for rows in chunk_sizes:
                    pairs = run_fsc_trials(geometry, rows, rng, points)
                    handle.writelines(
                        f"{first + i},{true},{det},{int(true == det)}\n"
                        for i, (true, det) in enumerate(pairs)
                    )
                    first += rows
            os.replace(partial, path)
        finally:
            partial.unlink(missing_ok=True)

    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
