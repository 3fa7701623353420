import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impilot.constellation import build_data_alphabet, map_bits_array
from impilot.rx_classical import (
    DegeneratePilotSetError,
    _normal_terms,
    detect_symbols,
    ls_estimate,
    mmse_estimate,
    pilot_matrix,
    solve_two_path_ls,
    two_path_ls,
)

PREAMBLE = np.array([1.0, 1.0j])


def test_pilot_matrix_pairs_conjugates():
    P = pilot_matrix([1 + 2j, -3j])
    assert np.array_equal(P[:, 1], np.conj(P[:, 0]))
    assert P.shape == (2, 2)


def test_ls_exact_on_invertible_preamble():
    h = np.array([0.3 - 0.5j, 0.1 + 0.02j])
    y = PREAMBLE * h[0] + np.conj(PREAMBLE) * h[1]
    est = ls_estimate(PREAMBLE, y)
    assert np.max(np.abs(est - h)) < 1e-10


def test_ls_degenerate_set_rejected():
    with pytest.raises(DegeneratePilotSetError):
        ls_estimate([1.0, 1.0], [0.1, 0.2])
    # all phases equal modulo pi is also collinear
    with pytest.raises(DegeneratePilotSetError):
        ls_estimate([2.0, -2.0, 2.0], [0.1, 0.2, 0.3])
    # and so are all-zero pilots, without a division warning
    with pytest.raises(DegeneratePilotSetError):
        ls_estimate([0.0, 0.0], [0.1, 0.2])


def test_ls_requires_two_pilots():
    with pytest.raises(ValueError):
        ls_estimate([1.0], [0.5])


def test_ls_scale_equivariance():
    rng = np.random.default_rng(0)
    pilots = rng.normal(size=6) + 1j * rng.normal(size=6)
    y = rng.normal(size=6) + 1j * rng.normal(size=6)
    for a in (2.0, -0.5 + 1j):
        assert np.allclose(ls_estimate(pilots, a * y), a * ls_estimate(pilots, y))


def test_ls_error_matches_covariance_trace():
    rng = np.random.default_rng(1)
    pilots = np.array([2.0, 2.0j, -2.0, 2.0, 2.0j, -2.0j, 2.0j, -2.0])
    P = pilot_matrix(pilots)
    gram_inv = np.linalg.inv(P.conj().T @ P)
    v = 0.25
    trials = 100_000
    noise = math.sqrt(v / 2) * (
        rng.normal(size=(trials, pilots.size))
        + 1j * rng.normal(size=(trials, pilots.size))
    )
    errors = noise @ np.conj(P) @ gram_inv.T
    empirical = float(np.mean(np.sum(np.abs(errors) ** 2, axis=1)))
    expected = float(np.trace(gram_inv).real) * v
    assert abs(empirical / expected - 1.0) < 0.03


def test_mmse_limits():
    rng = np.random.default_rng(2)
    pilots = np.array([1.0, 1.0j, -1.0, 2.0j])
    h = np.array([0.9 + 0.1j, 0.15 - 0.05j])
    y = pilots * h[0] + np.conj(pilots) * h[1]
    prior = np.eye(2)
    assert np.max(np.abs(mmse_estimate(pilots, y, 0.0, prior) - ls_estimate(pilots, y))) < 1e-10
    assert np.linalg.norm(mmse_estimate(pilots, y, 1e12, prior)) < 1e-6
    with pytest.raises(ValueError):
        mmse_estimate(pilots, y, 1.0, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        mmse_estimate(pilots, y, -1.0, prior)
    rng.shuffle(pilots)


def test_mmse_beats_ls_under_its_own_model():
    rng = np.random.default_rng(3)
    pilots = np.array([1.0, 1.0j, -1.0, 1.0j])
    P = pilot_matrix(pilots)
    prior = np.array([[1.0, 0.3 - 0.1j], [0.3 + 0.1j, 0.5]])
    chol = np.linalg.cholesky(prior)
    v = 0.5
    trials = 10_000
    mse_ls = mse_mmse = 0.0
    for _ in range(trials):
        h = chol @ (
            (rng.normal(size=2) + 1j * rng.normal(size=2)) / math.sqrt(2)
        )
        y = P @ h + math.sqrt(v / 2) * (
            rng.normal(size=4) + 1j * rng.normal(size=4)
        )
        mse_ls += float(np.sum(np.abs(ls_estimate(pilots, y) - h) ** 2))
        mse_mmse += float(np.sum(np.abs(mmse_estimate(pilots, y, v, prior) - h) ** 2))
    assert mse_mmse < mse_ls


def test_detect_symbols_noiseless():
    rng = np.random.default_rng(4)
    const = build_data_alphabet(4)
    bits = rng.integers(0, 2, 2 * 10_000)
    x = map_bits_array(bits, const)
    h = np.array([0.8 * np.exp(1j * 0.7), 0.12 - 0.3j])
    y = x * h[0] + np.conj(x) * h[1]
    _, rx_bits = detect_symbols(y, h, const)
    assert np.array_equal(rx_bits, bits.astype(np.uint8))


def test_detect_symbols_rotated_channel():
    const = build_data_alphabet(4)
    h = np.array([np.exp(1j * np.pi / 4) * 0.9, 0.0])
    y = const.points * h[0]
    symbols, _ = detect_symbols(y, h, const)
    assert np.allclose(symbols, const.points)


def test_detect_symbols_rejects_zero_channel():
    const = build_data_alphabet(4)
    with pytest.raises(ValueError):
        detect_symbols(np.ones(4), np.zeros(2), const)


def test_qpsk_awgn_ber_matches_q_function():
    # Gray QPSK over AWGN with perfect CSI: BER = Q(sqrt(2 Eb/N0))
    rng = np.random.default_rng(6)
    const = build_data_alphabet(4)
    ebn0 = 10 ** 0.7
    noise_var = 1.0 / (2 * ebn0)
    n_symbols = 2_000_000
    bits = rng.integers(0, 2, 2 * n_symbols)
    x = map_bits_array(bits, const)
    y = x + math.sqrt(noise_var / 2) * (
        rng.normal(size=n_symbols) + 1j * rng.normal(size=n_symbols)
    )
    _, rx_bits = detect_symbols(y, np.array([1.0, 0.0]), const)
    ber = np.count_nonzero(rx_bits != bits) / bits.size
    expected = 0.5 * math.erfc(math.sqrt(ebn0))
    assert abs(ber / expected - 1.0) < 0.05


def test_row_solver_matches_one_row_solver_bit_for_bit():
    rng = np.random.default_rng(8)
    pilots = rng.normal(size=(50, 8)) + 1j * rng.normal(size=(50, 8))
    pilots[7] = 2.0  # collinear with its conjugate
    received = rng.normal(size=(50, 8)) + 1j * rng.normal(size=(50, 8))
    a, s2, r1, r2 = _normal_terms(pilots, received)
    estimates, solvable = two_path_ls(a, s2, r1, r2)
    assert estimates.shape == (50, 2)
    for f in range(50):
        alone = solve_two_path_ls(pilots[f], received[f])
        if f == 7:
            assert alone is None and not solvable[f]
        else:
            assert solvable[f] and estimates[f].tobytes() == alone.tobytes()
    # the degenerate row holds the direct-path-only fit
    assert estimates[7].tobytes() == np.array([r1[7] / a[7], 0.0]).tobytes()


_MAGNITUDES = st.floats(0.1, 4.0)
_SIGNS = st.sampled_from([-1.0, 1.0])


@st.composite
def _pilot_set(draw, n):
    """n pilot values: free complex values, or a set on one line through the
    origin (all real, all imaginary, or one axis of a PSK alphabet), which is
    collinear with its conjugate."""
    kind = draw(st.sampled_from(["complex", "real", "imaginary", "psk_axis"]))
    magnitudes = np.array(draw(st.lists(_MAGNITUDES, min_size=n, max_size=n)))
    if kind == "complex":
        phases = draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=n, max_size=n))
        return magnitudes * np.exp(1j * np.array(phases)), False
    signs = np.array(draw(st.lists(_SIGNS, min_size=n, max_size=n)))
    if kind == "real":
        axis = 1.0
    elif kind == "imaginary":
        axis = 1j
    else:
        order = draw(st.sampled_from([4, 8, 16]))
        axis = np.exp(2j * np.pi * draw(st.integers(0, order - 1)) / order)
    return signs * magnitudes * axis, True


@st.composite
def _pilot_stacks(draw):
    n = draw(st.integers(2, 16))
    sets = draw(st.lists(_pilot_set(n), min_size=1, max_size=5))
    pilots = np.array([values for values, _ in sets])
    collinear = np.array([flag for _, flag in sets])
    parts = st.floats(-4.0, 4.0)
    received = np.array(
        draw(st.lists(st.tuples(parts, parts), min_size=pilots.size, max_size=pilots.size))
    )
    received = (received[:, 0] + 1j * received[:, 1]).reshape(pilots.shape)
    return pilots, received, collinear


@settings(max_examples=200, deadline=None)
@given(_pilot_stacks())
def test_two_path_ls_property(stack):
    pilots, received, collinear = stack
    a, s2, r1, r2 = _normal_terms(pilots, received)
    estimates, solvable = two_path_ls(a, s2, r1, r2)
    assert not solvable[collinear].any()
    for f in range(pilots.shape[0]):
        alone = solve_two_path_ls(pilots[f], received[f])
        if not solvable[f]:
            assert alone is None
            assert estimates[f].tobytes() == np.array([r1[f] / a[f], 0.0]).tobytes()
            continue
        assert estimates[f].tobytes() == alone.tobytes()
        oracle = np.linalg.lstsq(pilot_matrix(pilots[f]), received[f], rcond=None)[0]
        # 1e-9 relative, scaled by the condition number of P^H P, which
        # bounds how far any two exact-in-theory solves may drift apart.
        condition = (a[f] + abs(s2[f])) / (a[f] - abs(s2[f]))
        error = np.linalg.norm(estimates[f] - oracle)
        assert error <= 1e-9 * condition * np.linalg.norm(oracle)
    if solvable.all():
        assert ls_estimate(pilots, received).tobytes() == estimates.tobytes()
    else:
        with pytest.raises(DegeneratePilotSetError):
            ls_estimate(pilots, received)


def test_detect_symbols_stacked_rows():
    rng = np.random.default_rng(9)
    const = build_data_alphabet(4)
    y = rng.normal(size=(5, 32)) + 1j * rng.normal(size=(5, 32))
    h = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    symbols, bits = detect_symbols(y, h, const)
    assert bits.shape == (5, 64)
    for f in range(5):
        alone_symbols, alone_bits = detect_symbols(y[f], h[f], const)
        assert np.array_equal(symbols[f], alone_symbols)
        assert np.array_equal(bits[f], alone_bits)
    with pytest.raises(ValueError):
        detect_symbols(y, h[:4], const)
    with pytest.raises(ValueError):
        detect_symbols(y, np.zeros((5, 2)), const)


@pytest.mark.parametrize("length", [2, 9])
def test_stacked_estimates_match_one_row_calls_bit_for_bit(length):
    # Nine samples cross numpy's eight-term pairwise-summation boundary.
    rng = np.random.default_rng(10)
    pilots = np.exp(1j * np.pi / 2.0 * np.arange(length))
    row_pilots = rng.normal(size=(6, length)) + 1j * rng.normal(size=(6, length))
    # Leading columns of wider rows, as a receiver slices a preamble off.
    wide = rng.normal(size=(6, length + 5)) + 1j * rng.normal(size=(6, length + 5))
    received = wide[:, :length]
    prior = np.array([[1.0, 0.3 - 0.1j], [0.3 + 0.1j, 0.5]])
    shared = ls_estimate(pilots, received)
    per_row = ls_estimate(row_pilots, received)
    mmse = mmse_estimate(pilots, received, 0.3, prior)
    assert shared.shape == per_row.shape == mmse.shape == (6, 2)
    P = pilot_matrix(pilots)
    lhs = P.conj().T @ P + 0.3 * np.linalg.inv(prior)
    for f in range(6):
        assert shared[f].tobytes() == ls_estimate(pilots, received[f]).tobytes()
        assert shared[f].tobytes() == solve_two_path_ls(pilots, received[f]).tobytes()
        assert per_row[f].tobytes() == ls_estimate(row_pilots[f], received[f]).tobytes()
        alone = mmse_estimate(pilots, received[f], 0.3, prior)
        assert mmse[f].tobytes() == alone.tobytes()
        # the closed form, one row at a time
        oracle = np.linalg.solve(lhs, P.conj().T @ received[f])
        assert mmse[f].tobytes() == oracle.tobytes()


def test_stacked_ls_rejects_a_degenerate_row():
    received = np.ones((3, 4), dtype=complex)
    pilots = np.exp(1j * np.pi / 2.0 * np.arange(4)) * np.ones((3, 1))
    pilots[1] = 2.0
    with pytest.raises(DegeneratePilotSetError):
        ls_estimate(pilots, received)
    with pytest.raises(ValueError):
        ls_estimate(pilots[:, :3], received)
