import math

import numpy as np
import pytest
from scipy import stats

from impilot.channel import (
    ChannelState,
    channel_trajectory,
    equivalent_vector,
    evolve,
    initial_state,
    propagate_block,
    propagate_blocks,
    unit_noise,
)
from impilot.harness import SystemConfig, _draw_frames
from impilot.im_codec import BlockGeometry
from impilot.impairments import RxImpairments, TxImpairments, apply_tx_impairments

IDEAL = TxImpairments()
NOISELESS = RxImpairments(0.0, 0.0)


def test_equivalent_vector_trivial_cases():
    assert np.allclose(equivalent_vector(1.0, IDEAL, 0.0), [1.0, 0.0], atol=1e-15)
    assert np.allclose(equivalent_vector(1.0, IDEAL, math.pi), [-1.0, 0.0], atol=1e-12)


def test_equivalent_vector_hand_value():
    tx = TxImpairments(0.2, math.radians(2.0))
    vec = equivalent_vector(1.0, tx, 0.0)
    assert vec[0] == pytest.approx(tx.direct_coeff, abs=1e-15)
    assert vec[1] == pytest.approx(tx.image_coeff, abs=1e-15)


def test_equivalent_vector_norm_independent_of_rotation():
    tx = TxImpairments(0.2, math.radians(2.0))
    base = np.linalg.norm(equivalent_vector(0.8, tx, 0.0))
    for theta in (0.3, 1.0, 2.5, 5.0):
        assert np.linalg.norm(equivalent_vector(0.8, tx, theta)) == pytest.approx(base)
    assert base == pytest.approx(0.8 * math.sqrt(1 + 0.2**2))


def test_propagate_matches_compositional_path():
    tx = TxImpairments(0.2, math.radians(2.0))
    rng = np.random.default_rng(0)
    for _ in range(50):
        state = initial_state(tx, rng)
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        via_vector = propagate_block(x, state, tx, NOISELESS, rng)
        distorted = apply_tx_impairments(x, tx, state.oscillator_phase)
        assert np.max(np.abs(via_vector - state.gain * distorted)) < 1e-12


def test_propagate_noiseless_ideal():
    rng = np.random.default_rng(1)
    state = ChannelState(gain=0.7 - 0.2j, oscillator_phase=0.0)
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    y = propagate_block(x, state, IDEAL, NOISELESS, rng)
    assert np.allclose(y, state.gain * x, atol=1e-14)


def test_propagate_noise_vanishes_with_variance():
    rng = np.random.default_rng(2)
    state = ChannelState(gain=1.0, oscillator_phase=0.3)
    tx = TxImpairments(0.2, math.radians(2.0))
    x = rng.normal(size=512) + 1j * rng.normal(size=512)
    clean = propagate_block(x, state, tx, NOISELESS, rng)
    noisy = propagate_block(x, state, tx, RxImpairments(0.0, 1e-10), rng)
    assert np.mean(np.abs(noisy - clean) ** 2) < 1e-8


def test_state_constant_within_block():
    tx = TxImpairments(0.2, math.radians(2.0), math.radians(5.0))
    state = ChannelState(gain=0.9j, oscillator_phase=1.0)
    assert np.array_equal(state.equivalent(tx), state.equivalent(tx))


def test_evolve_quasi_static_frozen_without_phase_noise():
    tx = TxImpairments(0.2, math.radians(2.0), 0.0)
    rng = np.random.default_rng(3)
    state = initial_state(tx, rng)
    after = evolve(state, "quasi_static", tx, rng)
    assert after == state


def test_evolve_quasi_static_keeps_gain():
    tx = TxImpairments(0.2, math.radians(2.0), math.radians(5.0))
    rng = np.random.default_rng(4)
    state = initial_state(tx, rng)
    after = evolve(state, "quasi_static", tx, rng)
    assert after.gain == state.gain
    assert after.oscillator_phase != state.oscillator_phase


def test_evolve_fast_mode_preserves_amplitude():
    tx = TxImpairments(0.2, math.radians(2.0), math.radians(5.0))
    rng = np.random.default_rng(5)
    state = initial_state(tx, rng, path_gain=0.8)
    for _ in range(100):
        state = evolve(state, "fast_block_phase", tx, rng)
        assert abs(abs(state.gain) - 0.8) < 1e-12


def test_evolve_fast_mode_uniform_phase():
    tx = TxImpairments()
    rng = np.random.default_rng(6)
    state = initial_state(tx, rng)
    phases = np.empty(100_000)
    for i in range(phases.size):
        state = evolve(state, "fast_block_phase", tx, rng)
        phases[i] = np.angle(state.gain) % (2 * math.pi)
    result = stats.kstest(phases / (2 * math.pi), "uniform")
    assert result.pvalue > 0.01


def test_evolve_rejects_unknown_mode():
    tx = TxImpairments()
    with pytest.raises(ValueError):
        evolve(ChannelState(1.0, 0.0), "rayleigh", tx, np.random.default_rng(0))


def test_initial_state_validates_path_gain():
    with pytest.raises(ValueError):
        initial_state(IDEAL, np.random.default_rng(0), path_gain=0.0)


def test_stacked_propagation_rows_match_one_block_calls():
    tx = TxImpairments(0.2, math.radians(2.0))
    rx = RxImpairments(0.02, 0.3)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64))
    states = [ChannelState(gain=0.9, oscillator_phase=0.4 * f) for f in range(4)]
    normals = np.stack(
        [np.random.default_rng(100 + f).standard_normal((64, 2)) for f in range(4)]
    )
    stacked = propagate_blocks(
        x, np.array([s.equivalent(tx) for s in states]), rx, unit_noise(normals)
    )
    for f, state in enumerate(states):
        alone = propagate_block(x[f], state, tx, rx, np.random.default_rng(100 + f))
        assert stacked[f].tobytes() == alone.tobytes()


def test_propagation_takes_one_noise_variance_per_row():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
    h = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    noise = unit_noise(rng.standard_normal((3, 16, 2)))
    variances = np.array([0.0, 0.3, 5.0])
    stacked = propagate_blocks(x, h, RxImpairments(0.02, variances), noise)
    for f in range(3):
        alone = propagate_blocks(
            x[f : f + 1], h[f : f + 1], RxImpairments(0.02, variances[f]), noise[f : f + 1]
        )
        assert stacked[f].tobytes() == alone[0].tobytes()


def test_unit_noise_has_unit_variance():
    noise = unit_noise(np.random.default_rng(8).standard_normal((200_000, 2)))
    assert np.mean(np.abs(noise) ** 2) == pytest.approx(1.0, abs=0.01)
    assert abs(np.mean(noise**2)) < 0.01


# The imbalance of the default SystemConfig.
TX = TxImpairments(0.2, math.radians(2.0))


def _trajectory_draws(rng, frames, blocks, mode, step_std_deg):
    """Phase draws and oscillator steps of ``frames`` frames, as the harness
    draws them for a config with this fading mode and phase step."""
    config = SystemConfig(
        geometry=BlockGeometry(blocks_per_frame=blocks),
        fading_mode=mode,
        phase_step_std_deg=step_std_deg,
    )
    phases, steps, _, _ = _draw_frames(rng.spawn(frames), config, 0)
    return phases, steps


def _oscillator(h, phases, mode):
    """Oscillator phase recovered from a trajectory and its physical phases."""
    physical = phases[:, :1]
    if mode == "fast_block_phase":
        physical = np.concatenate([physical, phases[:, 2:]], axis=1)
    return np.angle(h[..., 0] / TX.direct_coeff) - physical


def _wrap(angle):
    return np.angle(np.exp(1j * angle))


def test_trajectory_shape_and_initial_state():
    rng = np.random.default_rng(9)
    phases, steps = _trajectory_draws(rng, 3, 5, "fast_block_phase", 5.0)
    h = channel_trajectory(phases, steps, "fast_block_phase", TX, 0.8)
    assert h.shape == (3, 6, 2)
    for f in range(3):
        state = ChannelState(0.8 * np.exp(1j * phases[f, 0]), phases[f, 1])
        assert np.allclose(h[f, 0], state.equivalent(TX), rtol=0, atol=1e-14)


def test_trajectory_quasi_static_keeps_physical_phase():
    rng = np.random.default_rng(10)
    phases, steps = _trajectory_draws(rng, 4, 50, "quasi_static", 5.0)
    h = channel_trajectory(phases, steps, "quasi_static", TX)
    # Every change of the vector's phase is the oscillator's walk.
    drift = np.angle(h[:, 1:, 0] * np.conj(h[:, :1, 0]))
    assert np.allclose(_wrap(drift - np.cumsum(steps, axis=1)), 0.0, atol=1e-9)


@pytest.mark.parametrize("mode", ["fast_block_phase", "quasi_static"])
def test_trajectory_oscillator_frozen_without_phase_noise(mode):
    rng = np.random.default_rng(11)
    phases, steps = _trajectory_draws(rng, 4, 30, mode, 0.0)
    assert not steps.any()
    h = channel_trajectory(phases, steps, mode, TX)
    theta = _oscillator(h, phases, mode)
    assert np.allclose(_wrap(theta - phases[:, 1:2]), 0.0, atol=1e-9)
    if mode == "quasi_static":
        assert (h == h[:, :1]).all()


@pytest.mark.parametrize("mode", ["fast_block_phase", "quasi_static"])
def test_trajectory_amplitude_is_path_gain_times_coefficients(mode):
    rng = np.random.default_rng(12)
    phases, steps = _trajectory_draws(rng, 5, 40, mode, 5.0)
    h = channel_trajectory(phases, steps, mode, TX, path_gain=0.7)
    expected = 0.7 * np.abs([TX.direct_coeff, TX.image_coeff])
    assert np.allclose(np.abs(h), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("mode", ["fast_block_phase", "quasi_static"])
def test_trajectory_oscillator_steps_have_configured_std(mode):
    std = math.radians(5.0)
    rng = np.random.default_rng(13)
    phases, steps = _trajectory_draws(rng, 100, 200, mode, 5.0)
    h = channel_trajectory(phases, steps, mode, TX)
    increments = _wrap(np.diff(_oscillator(h, phases, mode), axis=1)).reshape(-1)
    n = increments.size
    # Zero-mean Gaussian steps: n * s^2 / std^2 is chi-square with n degrees
    # of freedom; these bounds hold with probability 1 - 2e-6.
    ratio = np.mean(increments**2) / std**2
    assert stats.chi2.ppf(1e-6, n) / n < ratio < stats.chi2.ppf(1 - 1e-6, n) / n
    assert abs(np.mean(increments)) < 5 * std / math.sqrt(n)


def test_trajectory_rejects_unknown_mode():
    with pytest.raises(ValueError):
        channel_trajectory(np.zeros((1, 2)), np.zeros((1, 3)), "rayleigh", TX)


@pytest.mark.parametrize("mode", ["fast_block_phase", "quasi_static"])
def test_frame_loop_channel_matches_compositional_transmit_path(mode):
    # The frame loop builds its channel with channel_trajectory and passes
    # each block through propagate_blocks; without noise or distortion,
    # block k receives path_gain * e^{j phi_k} * (mu x + nu conj x) e^{j theta_k}.
    rng = np.random.default_rng(14)
    frames, blocks, path_gain = 3, 6, 0.8
    phases, steps = _trajectory_draws(rng, frames, blocks, mode, 5.0)
    h = channel_trajectory(phases, steps, mode, TX, path_gain)
    x = rng.normal(size=(frames, 16)) + 1j * rng.normal(size=(frames, 16))
    noise = unit_noise(rng.standard_normal((frames, 16, 2)))
    theta = phases[:, 1].copy()
    for k in range(blocks + 1):
        if k:
            theta += steps[:, k - 1]
        phi = phases[:, 1 + k] if mode == "fast_block_phase" and k else phases[:, 0]
        y = propagate_blocks(x, h[:, k], NOISELESS, noise)
        for f in range(frames):
            expected = path_gain * np.exp(1j * phi[f]) * apply_tx_impairments(x[f], TX, theta[f])
            assert np.max(np.abs(y[f] - expected)) < 1e-12
