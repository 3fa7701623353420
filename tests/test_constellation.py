import numpy as np
import pytest

from impilot.constellation import (
    Constellation,
    build_data_alphabet,
    build_pilot_alphabet,
    map_bits_array,
    min_cross_distance,
    scaled,
)


def test_data_alphabet_qpsk_points():
    const = build_data_alphabet(4)
    expected = np.exp(1j * np.pi / 4 * np.array([1, 3, 5, 7]))
    assert np.allclose(const.points, expected, atol=1e-12)
    assert abs(const.average_power - 1.0) < 1e-12


def test_data_alphabet_bpsk_points():
    const = build_data_alphabet(2)
    assert np.allclose(const.points, [1j, -1j], atol=1e-12)


def test_pilot_alphabet_boosted_points():
    const = build_pilot_alphabet(4, 4.0)
    assert np.allclose(const.points, [2, 2j, -2, -2j], atol=1e-12)
    assert abs(const.average_power - 4.0) < 1e-12
    assert abs(build_pilot_alphabet(4, 1.0).average_power - 1.0) < 1e-12


def test_pilot_alphabet_disjoint_from_data():
    data = build_data_alphabet(4)
    pilot = build_pilot_alphabet(4, 4.0, data)
    gaps = np.abs(pilot.points[:, None] - data.points[None, :])
    assert gaps.min() > 1e-9
    # same radius but interleaved phases: still disjoint
    build_pilot_alphabet(4, 1.0, data)


def test_pilot_alphabet_rejects_intersection():
    # an 8-point pilot ring at unit radius contains the data phases
    data = build_data_alphabet(4)
    with pytest.raises(ValueError, match="intersects"):
        build_pilot_alphabet(8, 1.0, data)


@pytest.mark.parametrize("order", [0, 1, 3, 6, 12])
def test_non_power_of_two_rejected(order):
    with pytest.raises(ValueError):
        build_data_alphabet(order)
    with pytest.raises(ValueError):
        build_pilot_alphabet(order, 4.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_power_ratios_are_rejected(value):
    with pytest.raises(ValueError, match=f"got {value}"):
        build_pilot_alphabet(4, value)
    with pytest.raises(ValueError, match=f"got {value}"):
        scaled(build_data_alphabet(4), value)
    with pytest.raises(ValueError, match=f"got {value}"):
        min_cross_distance(value)


def test_gamma_must_be_positive():
    with pytest.raises(ValueError):
        build_pilot_alphabet(4, 0.0)
    with pytest.raises(ValueError):
        min_cross_distance(-1.0)


def test_min_cross_distance_values():
    assert abs(min_cross_distance(2.0) - (2.0 - np.sqrt(2.0))) < 1e-12
    assert abs(min_cross_distance(4.0) - 2.0 / 3.0) < 1e-12
    assert abs(min_cross_distance(1.0) - 2.0 / 3.0) < 1e-12


def test_min_cross_distance_symmetry():
    for gamma in np.arange(0.2, 4.0, 0.1):
        assert abs(min_cross_distance(gamma) - min_cross_distance(4.0 / gamma)) < 1e-12


def exhaustive_cross_distance(gamma):
    """Enumerated oracle: squared min distance between the pilot ring at
    amplitude sqrt(gamma) and the integer-grid QPSK ring (amplitude sqrt(2),
    pi/4 offset), normalized by the mean of the two ring powers."""
    pilots = np.sqrt(gamma) * np.exp(1j * np.pi / 2 * np.arange(4))
    data = np.sqrt(2.0) * np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))
    d2 = np.abs(pilots[:, None] - data[None, :]) ** 2
    return float(d2.min()) / ((gamma + 2.0) / 2.0)


def test_min_cross_distance_matches_enumeration():
    grid = np.arange(0.1, 10.05, 0.1)
    for gamma in grid:
        assert abs(min_cross_distance(gamma) - exhaustive_cross_distance(gamma)) < 1e-9


def test_min_cross_distance_unimodal_at_two():
    low = np.arange(0.1, 2.0, 0.1)
    high = np.arange(2.0, 10.0, 0.1)
    assert all(
        min_cross_distance(a) > min_cross_distance(b)
        for a, b in zip(low, low[1:])
    )
    assert all(
        min_cross_distance(a) < min_cross_distance(b)
        for a, b in zip(high, high[1:])
    )


def test_map_bits_first_label_smallest_phase():
    const = build_data_alphabet(4)
    assert map_bits_array([0, 0], const)[0] == pytest.approx(np.exp(1j * np.pi / 4))
    assert not const.label_bits[np.argmin(np.angle(const.points) % (2 * np.pi))].any()


def test_map_bits_wrong_width():
    const = build_data_alphabet(4)
    with pytest.raises(ValueError, match="bit count 3 not a multiple of 2"):
        map_bits_array([0, 1, 1], const)


def test_gray_labels_differ_in_one_bit_between_neighbours():
    const = build_data_alphabet(8)
    labels = const.label_bits
    for k in range(8):
        diff = np.count_nonzero(labels[k] != labels[(k + 1) % 8])
        assert diff == 1


def test_array_mapping_matches_scalar():
    # point k carries label k: each word maps to the point whose label it is
    rng = np.random.default_rng(0)
    const = build_data_alphabet(8)
    bits = rng.integers(0, 2, 3 * 50)
    symbols = map_bits_array(bits, const)
    for i in range(50):
        k = int(np.flatnonzero(const.points == symbols[i])[0])
        assert np.array_equal(const.label_bits[k], bits[3 * i : 3 * i + 3])


def test_scaled_power():
    const = build_pilot_alphabet(4, 4.0)
    half = scaled(const, 0.5)
    assert abs(half.average_power - 2.0) < 1e-12


def test_points_read_only():
    const = build_data_alphabet(4)
    with pytest.raises(ValueError):
        const.points[0] = 0.0


def test_constellation_rejects_tiny_orders():
    with pytest.raises(ValueError):
        Constellation([1.0])
