"""Flat line-of-sight fading with block-wise evolution.

Within a block the physical gain and the oscillator phase are frozen, so the
whole link collapses to a two-entry channel vector acting on [x, conj(x)]:
the first entry carries the direct path, the second the conjugate image
leaked by the I/Q imbalance.  Between blocks the oscillator phase random-walks
and, in the fast mode, the physical phase is redrawn uniformly.
:func:`channel_trajectory` builds a whole frame's vectors at once from its
phase draws.
"""

import math
from dataclasses import dataclass

import numpy as np

# sample_rx_distortion_noise is not called here; it stays importable from
# this module for tools that wrap its calls by name.
from .impairments import (  # noqa: F401
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
    "channel_trajectory",
    "unit_noise",
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


def channel_trajectory(phases, steps, mode: str, tx: TxImpairments, path_gain: float = 1.0):
    """Two-entry channel vectors of F frames, (F, blocks + 1, 2): entry 0
    holds each frame's initial state, entry k its k-th block.

    ``phases`` holds uniform draws on [0, 2*pi), one row per frame: the
    initial physical and oscillator phases, then, in fast_block_phase mode,
    the physical phase of each block.  ``steps`` (F, blocks) holds the
    oscillator increments, whose cumulative sum is the random walk.  In
    quasi_static mode the physical phase keeps its initial value.
    """
    if mode not in FADING_MODES:
        raise ValueError(f"unknown fading mode {mode!r}; options: {FADING_MODES}")
    phases = np.asarray(phases, dtype=float)
    steps = np.asarray(steps, dtype=float)
    oscillator = np.cumsum(np.concatenate([phases[:, 1:2], steps], axis=1), axis=1)
    if mode == "fast_block_phase":
        physical = np.concatenate([phases[:, :1], phases[:, 2:]], axis=1)
    else:
        physical = phases[:, :1]
    rot = path_gain * np.exp(1j * (physical + oscillator))
    return rot[..., None] * np.array([tx.direct_coeff, tx.image_coeff])


def unit_noise(normals) -> np.ndarray:
    """Unit-variance circularly symmetric complex samples from standard
    normal pairs: ``normals[..., 0]`` is the real part of a sample,
    ``normals[..., 1]`` its imaginary part (before the 1/sqrt(2) scale)."""
    normals = np.ascontiguousarray(normals, dtype=float)
    return normals.view(complex)[..., 0] * math.sqrt(0.5)


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
    is the actual received-signal power averaged over the block.  The noise
    comes from one ``standard_normal`` call on ``rng``.
    """
    symbols = np.asarray(symbols, dtype=complex)
    noise = unit_noise(rng.standard_normal((1, symbols.size, 2)))
    rows = propagate_blocks(symbols.reshape(1, -1), state.equivalent(tx)[None], rx, noise)
    return rows[0].reshape(symbols.shape)


def propagate_blocks(symbols, channels, rx: RxImpairments, noise) -> np.ndarray:
    """Stacked form of :func:`propagate_block`: row f of ``symbols`` passes
    through the two-entry channel ``channels[f]``, and the unit-variance
    complex ``noise[f]`` is scaled to the distortion-plus-noise power of
    that row's received signal."""
    symbols = np.asarray(symbols, dtype=complex)
    channels = np.asarray(channels, dtype=complex)
    clean = symbols * channels[:, :1] + np.conj(symbols) * channels[:, 1:]
    received_power = np.mean(np.abs(clean) ** 2, axis=1)
    scale = np.sqrt(rx.distortion_level * received_power + rx.noise_variance)
    return clean + scale[:, None] * noise
