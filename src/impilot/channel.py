"""Flat line-of-sight fading with block-wise evolution.

Within a block the physical gain and the oscillator phase are frozen, so the
whole link collapses to a two-entry channel vector acting on [x, conj(x)]:
the first entry carries the direct path, the second the conjugate image
leaked by the I/Q imbalance.  Between blocks the oscillator phase random-walks
and, in the fast mode, the physical phase is redrawn uniformly.
"""

from dataclasses import dataclass

import numpy as np

from .impairments import (
    RxImpairments,
    TxImpairments,
    advance_phase_noise,
    draw_initial_phase,
    sample_rx_distortion_noise,
)

__all__ = [
    "FADING_MODES",
    "ChannelState",
    "equivalent_vector",
    "initial_state",
    "evolve",
    "propagate_block",
    "propagate_blocks",
]

FADING_MODES = ("fast_block_phase", "quasi_static")


def equivalent_vector(gain: complex, tx: TxImpairments, theta: float) -> np.ndarray:
    """Two-entry channel vector [gain*mu*e^{j theta}, gain*nu*e^{j theta}]."""
    rot = gain * np.exp(1j * theta)
    return np.array([rot * tx.direct_coeff, rot * tx.image_coeff])


@dataclass(frozen=True)
class ChannelState:
    """Physical gain and oscillator phase for one block."""

    gain: complex
    oscillator_phase: float

    def equivalent(self, tx: TxImpairments) -> np.ndarray:
        return equivalent_vector(self.gain, tx, self.oscillator_phase)


def initial_state(tx: TxImpairments, rng: np.random.Generator, path_gain: float = 1.0) -> ChannelState:
    """Random starting point: uniform physical phase, uniform oscillator phase."""
    if path_gain <= 0:
        raise ValueError("path_gain must be positive")
    phase = draw_initial_phase(rng)
    return ChannelState(
        gain=path_gain * np.exp(1j * phase),
        oscillator_phase=draw_initial_phase(rng),
    )


def evolve(state: ChannelState, mode: str, tx: TxImpairments, rng: np.random.Generator) -> ChannelState:
    """Next-block state.

    fast_block_phase: the physical phase is redrawn uniformly (amplitude
    kept), making the previous estimate outdated.  quasi_static: only the
    oscillator phase random-walks.
    """
    if mode not in FADING_MODES:
        raise ValueError(f"unknown fading mode {mode!r}; options: {FADING_MODES}")
    gain = state.gain
    if mode == "fast_block_phase":
        gain = abs(state.gain) * np.exp(1j * draw_initial_phase(rng))
    theta = advance_phase_noise(state.oscillator_phase, tx, rng)
    return ChannelState(gain=gain, oscillator_phase=theta)


def propagate_block(
    symbols: np.ndarray,
    state: ChannelState,
    tx: TxImpairments,
    rx: RxImpairments,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received samples for one block.

    y(i) = [x(i), conj(x(i))] . hvec + w(i), where the distortion-plus-noise
    w is CSCG with variance distortion_level * P_r + noise_variance and P_r
    is the actual received-signal power averaged over the block.
    """
    symbols = np.asarray(symbols, dtype=complex)
    rows = propagate_blocks(symbols.reshape(1, -1), state.equivalent(tx)[None], rx, [rng])
    return rows[0].reshape(symbols.shape)


def propagate_blocks(symbols, channels, rx: RxImpairments, rngs) -> np.ndarray:
    """Stacked form of :func:`propagate_block`: row f of ``symbols`` passes
    through the two-entry channel ``channels[f]`` and takes its noise from
    ``rngs[f]``."""
    symbols = np.asarray(symbols, dtype=complex)
    channels = np.asarray(channels, dtype=complex)
    clean = symbols * channels[:, :1] + np.conj(symbols) * channels[:, 1:]
    received_power = np.mean(np.abs(clean) ** 2, axis=1)
    noise = [
        sample_rx_distortion_noise(power, rx, rng, size=symbols.shape[1:])
        for power, rng in zip(received_power.tolist(), rngs)
    ]
    return clean + np.array(noise)
