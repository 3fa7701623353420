import math

import numpy as np
import pytest
from scipy import stats

from impilot.channel import (
    ChannelState,
    equivalent_vector,
    evolve,
    initial_state,
    propagate_block,
    propagate_blocks,
)
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
    stacked = propagate_blocks(
        x,
        np.array([s.equivalent(tx) for s in states]),
        rx,
        [np.random.default_rng(100 + f) for f in range(4)],
    )
    for f, state in enumerate(states):
        alone = propagate_block(x[f], state, tx, rx, np.random.default_rng(100 + f))
        assert stacked[f].tobytes() == alone.tobytes()
