import math

import numpy as np
import pytest

from impilot.impairments import (
    RxImpairments,
    TxImpairments,
    advance_phase_noise,
    apply_tx_impairments,
    draw_initial_phase,
    sample_rx_distortion_noise,
)


def test_coefficients_identity():
    for eps in (0.0, 0.05, 0.2, 0.5):
        for phi_deg in (0.0, 1.0, 2.0, 10.0):
            tx = TxImpairments(eps, math.radians(phi_deg))
            total = abs(tx.direct_coeff) ** 2 + abs(tx.image_coeff) ** 2
            assert abs(total - (1.0 + eps**2)) < 1e-12


def test_ideal_hardware_is_identity():
    tx = TxImpairments()
    x = 0.3 - 0.7j
    assert apply_tx_impairments(x, tx, 0.0) == pytest.approx(x)
    assert apply_tx_impairments(x, tx, math.pi / 2) == pytest.approx(1j * x)


def test_distortion_hand_value():
    tx = TxImpairments(0.2, math.radians(2.0))
    out = apply_tx_impairments(1.0, tx, 0.0)
    c, s = math.cos(math.radians(2.0)), math.sin(math.radians(2.0))
    assert out == pytest.approx(complex(c + 0.2 * c, -(0.2 * s + s)), abs=1e-12)
    assert out == pytest.approx(1.2 * np.exp(-1j * math.radians(2.0)), abs=1e-12)


def test_real_scaling_linearity():
    tx = TxImpairments(0.2, math.radians(2.0))
    rng = np.random.default_rng(0)
    x = rng.normal() + 1j * rng.normal()
    for a in (0.5, 2.0, -3.0):
        lhs = apply_tx_impairments(a * x, tx, 1.1)
        rhs = a * apply_tx_impairments(x, tx, 1.1)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_phase_noise_zero_step():
    tx = TxImpairments(phase_step_std=0.0)
    rng = np.random.default_rng(0)
    assert advance_phase_noise(1.234, tx, rng) == 1.234


def test_phase_noise_single_step_std():
    tx = TxImpairments(phase_step_std=math.radians(5.0))
    rng = np.random.default_rng(7)
    steps = np.array(
        [advance_phase_noise(0.0, tx, rng) for _ in range(100_000)]
    )
    assert abs(steps.std() / math.radians(5.0) - 1.0) < 0.02


def test_phase_noise_random_walk_variance():
    k = 10
    sigma = math.radians(5.0)
    tx = TxImpairments(phase_step_std=sigma)
    rng = np.random.default_rng(11)
    walks = 20_000
    finals = np.empty(walks)
    for w in range(walks):
        theta = 0.0
        for _ in range(k):
            theta = advance_phase_noise(theta, tx, rng)
        finals[w] = theta
    assert abs(finals.var() / (k * sigma**2) - 1.0) < 0.03


def test_initial_phase_range():
    rng = np.random.default_rng(3)
    draws = np.array([draw_initial_phase(rng) for _ in range(1000)])
    assert draws.min() >= 0.0 and draws.max() < 2 * math.pi


def test_rx_noise_pure_awgn_variance():
    rx = RxImpairments(distortion_level=0.0, noise_variance=1.0)
    rng = np.random.default_rng(5)
    samples = sample_rx_distortion_noise(1.0, rx, rng, size=100_000)
    assert abs(np.mean(np.abs(samples) ** 2) - 1.0) < 0.02


def test_rx_noise_distortion_only_variance():
    level = 10 ** (-16 / 10)
    rx = RxImpairments(distortion_level=level, noise_variance=0.0)
    rng = np.random.default_rng(6)
    samples = sample_rx_distortion_noise(1.0, rx, rng, size=100_000)
    assert abs(np.mean(np.abs(samples) ** 2) / level - 1.0) < 0.02


def test_rx_noise_zero_power_leaves_thermal_floor():
    rx = RxImpairments(distortion_level=0.5, noise_variance=1.0)
    rng = np.random.default_rng(8)
    samples = sample_rx_distortion_noise(0.0, rx, rng, size=50_000)
    assert abs(np.mean(np.abs(samples) ** 2) - 1.0) < 0.03


def test_rx_noise_circular_symmetry():
    rx = RxImpairments(distortion_level=0.1, noise_variance=0.4)
    rng = np.random.default_rng(9)
    n = 200_000
    samples = sample_rx_distortion_noise(2.0, rx, rng, size=n)
    variance = 0.1 * 2.0 + 0.4
    re, im = samples.real, samples.imag
    # each part carries half the variance; parts uncorrelated (3-sigma bounds)
    bound = 3.0 * variance / math.sqrt(n)
    assert abs(re.var() - variance / 2) < bound
    assert abs(im.var() - variance / 2) < bound
    assert abs(np.mean(re * im)) < bound


def test_rx_noise_rejects_negative_power():
    rx = RxImpairments(0.1, 1.0)
    with pytest.raises(ValueError):
        sample_rx_distortion_noise(-1.0, rx, np.random.default_rng(0))


def test_parameter_validation():
    with pytest.raises(ValueError):
        RxImpairments(distortion_level=-0.1, noise_variance=1.0)
    with pytest.raises(ValueError):
        RxImpairments(distortion_level=0.1, noise_variance=-1.0)
    with pytest.raises(ValueError):
        TxImpairments(phase_step_std=-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "cls, name",
    [
        (RxImpairments, "noise_variance"),
        (RxImpairments, "distortion_level"),
        (TxImpairments, "amplitude_imbalance"),
        (TxImpairments, "phase_imbalance"),
        (TxImpairments, "phase_step_std"),
    ],
)
def test_non_finite_parameters_are_rejected(cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be .* got {value}"):
        cls(**{name: value})


def test_per_row_noise_variance_rejects_any_negative_entry():
    rows = np.array([0.0, 0.5, 2.0])
    assert RxImpairments(0.1, rows).noise_variance is rows
    with pytest.raises(ValueError, match="noise_variance must be >= 0"):
        RxImpairments(0.1, np.array([0.5, -1e-300, 2.0]))
    with pytest.raises(ValueError, match="got nan"):
        RxImpairments(0.1, np.array([0.5, np.nan, 2.0]))
