"""Closed-form and numeric analysis helpers.

Covers the geometry of pilot misclassification under an outdated (phase
rotated) channel estimate, the post-estimation SNR approximation as a
function of the pilot power boost, and complex-multiplication counts for the
competing receivers.
"""

import math

import numpy as np

from .constellation import build_data_alphabet, build_pilot_alphabet
from .im_codec import BlockGeometry
from .rx_turbo import llr_values

__all__ = [
    "NoBoundaryError",
    "boundary_residual",
    "wrong_region_boundary",
    "wrong_region_width",
    "correct_detection_probability",
    "simulated_detection_rate",
    "snr_after_estimation",
    "complexity_multiplications",
    "boundary_table",
]

QUARTER_PI = math.pi / 4.0
_RESIDUAL_TOL = 1e-10


class NoBoundaryError(ValueError):
    """The residual has no sign change on (0, pi/4]; no boundary in interval."""


def boundary_residual(gamma: float, angle: float) -> float:
    """Balance condition between the nearest pilot and data points seen from a
    received pilot under a prior rotated by ``angle``: zero at the rotation
    where both are equidistant."""
    return (
        -2.0 * gamma * math.cos(angle)
        + 2.0 * math.sqrt(gamma) * math.cos(QUARTER_PI - angle)
        + gamma
        - 1.0
    )


def wrong_region_boundary(gamma: float) -> float:
    """Rotation angle on (0, pi/4] below which a pilot is still classified
    correctly at high signal-to-distortion-and-noise ratio.

    The residual is A cos(t) + B sin(t) - (1 - gamma) with
    A = sqrt(2 gamma) - 2 gamma and B = sqrt(2 gamma); it is negative at 0
    and rises on [0, pi/4], so its root there is
    atan2(B, A) - acos((1 - gamma) / hypot(A, B)).  Raises
    :class:`NoBoundaryError` when the residual is still negative at pi/4
    (small or very large power ratios).
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if boundary_residual(gamma, QUARTER_PI) < -_RESIDUAL_TOL:
        raise NoBoundaryError(
            f"no boundary in interval (0, pi/4] for gamma={gamma:g}"
        )
    b = math.sqrt(2.0 * gamma)
    a = b - 2.0 * gamma
    root = math.atan2(b, a) - math.acos(min(1.0, (1.0 - gamma) / math.hypot(a, b)))
    return min(root, QUARTER_PI)


def wrong_region_width(gamma: float) -> float:
    """Width of the rotation interval that flips a pilot's classification."""
    return math.pi / 2.0 - 2.0 * wrong_region_boundary(gamma)


def correct_detection_probability(gamma: float) -> float:
    """Chance a pilot is classified correctly when the prior's phase error is
    uniform on (0, pi/2), in the high-SDNR limit."""
    return 1.0 - wrong_region_width(gamma) / (math.pi / 2.0)


def simulated_detection_rate(gamma: float, trials: int, rng: np.random.Generator) -> float:
    """Monte Carlo check of the geometric prediction.

    Transmits the zero-phase pilot through a unit channel, rotates the prior
    estimate by a uniform angle in (0, pi/2), and classifies the sample by
    the sign of its pilot-vs-data log-likelihood ratio at a near-noiseless
    operating point (noise variance 1e-6, one pilot in eight samples).
    """
    noise_variance = 1e-6
    data = build_data_alphabet(4)
    pilot = build_pilot_alphabet(4, gamma)
    delta = rng.uniform(0.0, math.pi / 2.0, trials)
    y = pilot.points[0] + math.sqrt(noise_variance / 2.0) * (
        rng.normal(size=trials) + 1j * rng.normal(size=trials)
    )
    channel = np.zeros((trials, 2), dtype=complex)
    channel[:, 0] = np.exp(-1j * delta)
    eta = llr_values(y, channel, data, pilot, 8, 1, noise_variance)
    return float(np.mean(eta > 0))


def snr_after_estimation(
    gamma: float,
    geometry: BlockGeometry,
    distortion_level: float,
    noise_variance: float,
    received_power: float,
) -> float:
    """Approximate post-estimation SNR of the data symbols.

    Grows with pilot power through the estimate quality but shrinks as the
    boost starves the data symbols, so it vanishes for very large ratios.
    """
    if not (0 < gamma < math.inf and 0 < received_power < math.inf):
        raise ValueError(
            "gamma and received_power must be positive and finite, "
            f"got {gamma} and {received_power}"
        )
    dnp = distortion_level * received_power + noise_variance
    if not (0 <= distortion_level < math.inf and 0 <= noise_variance < math.inf and dnp > 0):
        raise ValueError(
            "distortion_level and noise_variance must be >= 0 and finite, and not both 0, "
            f"got {distortion_level} and {noise_variance}"
        )
    pilots = geometry.pilots_per_block
    data = geometry.data_per_block
    return (
        geometry.block_length
        * received_power
        / ((pilots * gamma + 2.0) * (1.0 + data / (pilots * gamma)) * dnp)
    )


def complexity_multiplications(
    scheme: str,
    iterations: int = 0,
    pilot_order: int = 0,
    data_order: int = 0,
    block_length: int = 0,
    subblocks: int = 0,
    pilots_per_block: int = 0,
    preamble_length: int = 0,
) -> int:
    """Complex multiplications per data block.

    "classical": 2 * preamble_length.
    "proposed":  3*(1+n)*(Mp+Ms)*L + 2*n*(Gs-1)*Lp, linear in every factor.
    """
    if scheme == "classical":
        return 2 * preamble_length
    if scheme == "proposed":
        return 3 * (1 + iterations) * (pilot_order + data_order) * block_length + (
            2 * iterations * (subblocks - 1) * pilots_per_block
        )
    raise ValueError(f"unknown scheme {scheme!r}")


def boundary_table(gamma_grid) -> list:
    """Rows (gamma, boundary, width) for each ratio in the grid; ratios with
    no boundary get NaN entries."""
    rows = []
    for gamma in gamma_grid:
        try:
            boundary = wrong_region_boundary(float(gamma))
            width = math.pi / 2.0 - 2.0 * boundary
        except NoBoundaryError:
            boundary = math.nan
            width = math.nan
        rows.append((float(gamma), boundary, width))
    return rows
