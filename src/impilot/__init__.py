"""Link-level simulation of a single-carrier system whose pilot positions
carry information bits, with an iterative joint detection/estimation
receiver, hardware-impairment models, analysis formulas, and a reproducible
Monte Carlo harness.

The package root holds what a sweep needs; everything else is reachable
through its module (``impilot.rx_turbo``, ``impilot.analysis``, ...)."""

from .harness import (
    SCHEMES,
    ExperimentResult,
    PointResult,
    SystemConfig,
    run_experiment,
    run_gamma_sweep,
    run_iteration_histogram,
    write_csv,
)
from .im_codec import BlockGeometry

__version__ = "0.1.0"
