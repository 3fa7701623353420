"""Transmitter I/Q imbalance, block-wise random-walk oscillator phase, and
receiver-side distortion-plus-noise.

The transmit chain mixes a symbol with its conjugate through two fixed
coefficients set by the amplitude/phase imbalance of the I/Q branches, then
rotates by the oscillator phase.  The oscillator phase is constant within a
block and takes an independent Gaussian step between blocks.  Everything the
receiver hardware adds (its own phase noise, imbalance, thermal noise) is
folded into one circularly symmetric complex Gaussian term whose variance
scales with the received signal power.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TxImpairments",
    "RxImpairments",
    "apply_tx_impairments",
    "advance_phase_noise",
    "draw_initial_phase",
    "sample_rx_distortion_noise",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TxImpairments:
    """Transmitter front-end parameters.

    amplitude_imbalance: relative gain mismatch of the I/Q branches.
    phase_imbalance:     branch phase mismatch, radians.
    phase_step_std:      std of the per-block oscillator phase increment, radians.
    """

    amplitude_imbalance: float = 0.0
    phase_imbalance: float = 0.0
    phase_step_std: float = 0.0

    def __post_init__(self):
        for name in ("amplitude_imbalance", "phase_imbalance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 <= self.phase_step_std < math.inf:
            raise ValueError(f"phase_step_std must be >= 0 and finite, got {self.phase_step_std}")

    @property
    def direct_coeff(self) -> complex:
        """Gain applied to the symbol itself."""
        return complex(
            math.cos(self.phase_imbalance),
            -self.amplitude_imbalance * math.sin(self.phase_imbalance),
        )

    @property
    def image_coeff(self) -> complex:
        """Gain applied to the conjugate (image) of the symbol."""
        return complex(
            self.amplitude_imbalance * math.cos(self.phase_imbalance),
            -math.sin(self.phase_imbalance),
        )


@dataclass(frozen=True)
class RxImpairments:
    """Receiver distortion level (linear, relative to received power) and
    thermal noise variance.

    distortion_level: one value for every block.
    noise_variance:   one value, or one per row of a stack of blocks (an
                      array broadcast along the leading, row axis).
    """

    distortion_level: float = 0.0
    noise_variance: float | np.ndarray = 0.0

    def __post_init__(self):
        if not 0 <= self.distortion_level < math.inf:
            raise ValueError(
                f"distortion_level must be >= 0 and finite, got {self.distortion_level}"
            )
        noise = np.asarray(self.noise_variance)
        bad = ~((noise >= 0) & (noise < np.inf))
        if bad.any():
            raise ValueError(f"noise_variance must be >= 0 and finite, got {noise[bad].flat[0]}")


def apply_tx_impairments(x, tx: TxImpairments, theta: float):
    """Distorted transmit signal: (mu*x + nu*conj(x)) * exp(j*theta)."""
    x = np.asarray(x, dtype=complex)
    rotated = (tx.direct_coeff * x + tx.image_coeff * np.conj(x)) * np.exp(1j * theta)
    if rotated.ndim == 0:
        return complex(rotated)
    return rotated


def advance_phase_noise(theta: float, tx: TxImpairments, rng: np.random.Generator) -> float:
    """One Gaussian random-walk step of the oscillator phase."""
    if tx.phase_step_std == 0.0:
        return theta
    return theta + rng.normal(0.0, tx.phase_step_std)


def draw_initial_phase(rng: np.random.Generator) -> float:
    """Uniform starting phase on [0, 2*pi)."""
    return rng.uniform(0.0, TWO_PI)


def sample_rx_distortion_noise(
    received_power: float,
    rx: RxImpairments,
    rng: np.random.Generator,
    size=None,
):
    """Circularly symmetric complex Gaussian with variance
    distortion_level * received_power + noise_variance."""
    if received_power < 0:
        raise ValueError("received power must be >= 0")
    variance = rx.distortion_level * received_power + rx.noise_variance
    scale = math.sqrt(variance / 2.0)
    if size is None:
        return complex(rng.normal(0.0, scale), rng.normal(0.0, scale))
    return rng.normal(0.0, scale, size) + 1j * rng.normal(0.0, scale, size)
