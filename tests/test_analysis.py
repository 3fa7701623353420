import math

import numpy as np
import pytest

from impilot.analysis import (
    NoBoundaryError,
    boundary_residual,
    boundary_table,
    complexity_multiplications,
    correct_detection_probability,
    simulated_detection_rate,
    snr_after_estimation,
    wrong_region_boundary,
    wrong_region_width,
)
from impilot.im_codec import BlockGeometry


def test_residual_hand_values():
    assert boundary_residual(4.0, 0.0) == pytest.approx(-5.0 + 2.0 * math.sqrt(2.0))
    assert boundary_residual(4.0, math.pi / 4) == pytest.approx(
        -8.0 * math.cos(math.pi / 4) + 4.0 + 3.0
    )
    assert boundary_residual(4.0, 0.0) < 0 < boundary_residual(4.0, math.pi / 4)


def test_boundary_root_for_ratio_four():
    root = wrong_region_boundary(4.0)
    assert root == pytest.approx(0.536, abs=2e-3)
    assert abs(boundary_residual(4.0, root)) < 1e-10
    assert 0 < root <= math.pi / 4


def test_width_below_pi_sixth_at_ratio_four():
    width = wrong_region_width(4.0)
    assert width == pytest.approx(math.pi / 2 - 2 * wrong_region_boundary(4.0))
    assert width < math.pi / 6
    assert correct_detection_probability(4.0) > 2.0 / 3.0


def test_boundary_monotone_over_ratio_grid():
    grid = np.arange(2.5, 10.01, 0.25)
    roots = [wrong_region_boundary(g) for g in grid]
    assert all(b > a for a, b in zip(roots, roots[1:]))


def test_width_vanishes_at_upper_ratio():
    # the root reaches pi/4 where (1 - sqrt(2)) g + 2 sqrt(g) - 1 = 0
    u = (2.0 + math.sqrt(8.0 - 4.0 * math.sqrt(2.0))) / (2.0 * (math.sqrt(2.0) - 1.0))
    gamma_star = u * u
    assert wrong_region_width(gamma_star) == pytest.approx(0.0, abs=1e-4)


def test_closed_form_root_solves_the_residual_on_a_dense_grid():
    grid = np.linspace(0.33, 18.1, 4000)
    roots = [wrong_region_boundary(g) for g in grid]
    assert max(abs(boundary_residual(g, r)) for g, r in zip(grid, roots)) < 1e-12
    # pi/4 at both edges: the roots fall to one minimum near g = 1.17, then rise
    low = int(np.argmin(roots))
    assert 1.1 < grid[low] < 1.25
    assert np.all(np.diff(roots[: low + 1]) < 0) and np.all(np.diff(roots[low:]) > 0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_boundary_exists_exactly_between_the_edge_ratios(sign):
    # the residual at pi/4 is (1 - sqrt(2)) g + 2 sqrt(g) - 1, zero at
    # g = ((1 -/+ sqrt(2 - sqrt(2))) / (sqrt(2) - 1))^2: 0.32087 and 18.1644
    edge = ((1.0 - sign * math.sqrt(2.0 - math.sqrt(2.0))) / (math.sqrt(2.0) - 1.0)) ** 2
    inside, outside = edge * (1.0 + sign * 1e-6), edge * (1.0 - sign * 1e-6)
    assert 0 < wrong_region_boundary(inside) <= math.pi / 4
    with pytest.raises(NoBoundaryError):
        wrong_region_boundary(outside)


@pytest.mark.parametrize("gamma", [0.2, 25.0])
def test_no_boundary_outside_bracket(gamma):
    with pytest.raises(NoBoundaryError):
        wrong_region_boundary(gamma)


def test_boundary_rejects_nonpositive_ratio():
    with pytest.raises(ValueError):
        wrong_region_boundary(0.0)
    # non-finite ratios used to bisect on NaN residuals and return pi/4
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma"):
            wrong_region_boundary(gamma)


def test_boundary_table_marks_missing_roots():
    rows = boundary_table([0.2, 4.0])
    assert math.isnan(rows[0][1]) and math.isnan(rows[0][2])
    assert rows[1][1] == pytest.approx(wrong_region_boundary(4.0))


def test_detection_rate_matches_geometry():
    rng = np.random.default_rng(0)
    simulated = simulated_detection_rate(4.0, 30_000, rng)
    assert abs(simulated - correct_detection_probability(4.0)) < 0.02


def test_snr_after_estimation_hand_value():
    g = BlockGeometry()
    value = snr_after_estimation(4.0, g, 0.0, 1.0, 1.0)
    assert value == pytest.approx(64.0 / 93.5, abs=1e-9)


def test_snr_after_estimation_vanishes_for_huge_boost():
    g = BlockGeometry()
    at_four = snr_after_estimation(4.0, g, 0.0, 1.0, 1.0)
    assert snr_after_estimation(1e9, g, 0.0, 1.0, 1.0) < 1e-6 * at_four


def test_snr_after_estimation_monotone_beyond_four():
    g = BlockGeometry()
    grid = np.arange(4.0, 40.0, 2.0)
    values = [snr_after_estimation(x, g, 0.1, 0.5, 1.0) for x in grid]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_snr_after_estimation_linear_in_power_without_distortion():
    g = BlockGeometry()
    one = snr_after_estimation(4.0, g, 0.0, 1.0, 1.0)
    two = snr_after_estimation(4.0, g, 0.0, 1.0, 2.0)
    assert two == pytest.approx(2.0 * one)


def test_snr_after_estimation_validation():
    g = BlockGeometry()
    with pytest.raises(ValueError):
        snr_after_estimation(0.0, g, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("at", range(4))
def test_snr_after_estimation_names_a_non_finite_input(at, value):
    # gamma, distortion level, noise variance, received power
    args = [4.0, 0.1, 0.5, 1.0]
    args[at] = value
    with pytest.raises(ValueError, match=f"got .*{value}"):
        snr_after_estimation(args[0], BlockGeometry(), *args[1:])


def test_complexity_counts():
    proposed = complexity_multiplications(
        "proposed",
        iterations=4,
        pilot_order=4,
        data_order=4,
        block_length=64,
        subblocks=8,
        pilots_per_block=8,
    )
    assert proposed == 8128
    assert complexity_multiplications("classical", preamble_length=2) == 4
    coarse_only = complexity_multiplications(
        "proposed",
        iterations=0,
        pilot_order=4,
        data_order=4,
        block_length=64,
        subblocks=8,
        pilots_per_block=8,
    )
    assert coarse_only == 3 * 8 * 64


def test_complexity_linear_in_each_factor():
    base = dict(
        iterations=4, pilot_order=4, data_order=4,
        block_length=64, subblocks=8, pilots_per_block=8,
    )
    f = lambda **kw: complexity_multiplications("proposed", **{**base, **kw})
    assert f(pilot_order=8) - f(pilot_order=4) == f(pilot_order=12) - f(pilot_order=8)
    assert f(block_length=128) == 2 * f() - 2 * 4 * 7 * 8
    assert f(pilots_per_block=16) - f() == 2 * 4 * 7 * 8


def test_complexity_unknown_scheme():
    with pytest.raises(ValueError):
        complexity_multiplications("hybrid")
