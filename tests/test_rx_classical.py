import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impilot.constellation import build_data_alphabet, map_bits_array
from impilot.rx_classical import (
    DegeneratePilotSetError,
    _LsPilotPart,
    _pilot_terms,
    _received_terms,
    detect_symbols,
    ls_estimate,
    mmse_estimate,
    pilot_matrix,
    solve_two_path_ls,
)

PREAMBLE = np.array([1.0, 1.0j])


def test_pilot_matrix_pairs_conjugates():
    P = pilot_matrix([1 + 2j, -3j])
    assert np.array_equal(P[:, 1], np.conj(P[:, 0]))
    assert P.shape == (2, 2)


def test_ls_exact_on_invertible_preamble():
    h = np.array([0.3 - 0.5j, 0.1 + 0.02j])
    y = PREAMBLE * h[0] + np.conj(PREAMBLE) * h[1]
    est = ls_estimate(PREAMBLE, y[None])
    assert est.shape == (1, 2)
    assert np.max(np.abs(est - h)) < 1e-10


def test_ls_degenerate_set_rejected():
    with pytest.raises(DegeneratePilotSetError):
        ls_estimate([1.0, 1.0], [[0.1, 0.2]])
    # all phases equal modulo pi is also collinear
    with pytest.raises(DegeneratePilotSetError):
        ls_estimate([2.0, -2.0, 2.0], [[0.1, 0.2, 0.3]])
    # and so are all-zero pilots, without a division warning
    with pytest.raises(DegeneratePilotSetError):
        ls_estimate([0.0, 0.0], [[0.1, 0.2]])


def test_ls_requires_two_pilots():
    with pytest.raises(ValueError):
        ls_estimate([1.0], [[0.5]])


def test_ls_scale_equivariance():
    rng = np.random.default_rng(0)
    pilots = rng.normal(size=6) + 1j * rng.normal(size=6)
    y = (rng.normal(size=6) + 1j * rng.normal(size=6))[None]
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
    y = (pilots * h[0] + np.conj(pilots) * h[1])[None]
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
    h = np.empty((trials, 2), dtype=complex)
    y = np.empty((trials, 4), dtype=complex)
    for t in range(trials):
        h[t] = chol @ (
            (rng.normal(size=2) + 1j * rng.normal(size=2)) / math.sqrt(2)
        )
        y[t] = P @ h[t] + math.sqrt(v / 2) * (
            rng.normal(size=4) + 1j * rng.normal(size=4)
        )
    mse_ls = np.sum(np.abs(ls_estimate(pilots, y) - h) ** 2)
    mse_mmse = np.sum(np.abs(mmse_estimate(pilots, y, v, prior) - h) ** 2)
    assert mse_mmse < mse_ls


def test_detect_symbols_noiseless():
    rng = np.random.default_rng(4)
    const = build_data_alphabet(4)
    bits = rng.integers(0, 2, 2 * 10_000)
    x = map_bits_array(bits, const)
    h = np.array([0.8 * np.exp(1j * 0.7), 0.12 - 0.3j])
    y = x * h[0] + np.conj(x) * h[1]
    rx_bits = detect_symbols(y[None], h[None], const)
    assert np.array_equal(rx_bits[0], bits.astype(np.uint8))


def test_detect_symbols_rotated_channel():
    const = build_data_alphabet(4)
    h = np.array([np.exp(1j * np.pi / 4) * 0.9, 0.0])
    y = const.points * h[0]
    bits = detect_symbols(y[None], h[None], const)
    assert np.array_equal(bits[0], const.label_bits.reshape(-1))


def test_detect_symbols_rejects_zero_channel():
    const = build_data_alphabet(4)
    with pytest.raises(ValueError):
        detect_symbols(np.ones((1, 4)), np.zeros((1, 2)), const)


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
    rx_bits = detect_symbols(y[None], np.array([[1.0, 0.0]]), const)
    ber = np.count_nonzero(rx_bits[0] != bits) / bits.size
    expected = 0.5 * math.erfc(math.sqrt(ebn0))
    assert abs(ber / expected - 1.0) < 0.05


def test_row_solver_matches_one_row_solver_bit_for_bit():
    rng = np.random.default_rng(8)
    pilots = rng.normal(size=(50, 8)) + 1j * rng.normal(size=(50, 8))
    pilots[7] = 2.0  # collinear with its conjugate
    received = rng.normal(size=(50, 8)) + 1j * rng.normal(size=(50, 8))
    a, s2 = _pilot_terms(pilots)
    r1, r2 = _received_terms(pilots, received)
    estimates, solvable = _LsPilotPart.from_terms(a, s2).solve(r1, r2)
    assert estimates.shape == (50, 2)
    for f in range(50):
        alone = solve_two_path_ls(pilots[f], received[f])
        if f == 7:
            assert alone is None and not solvable[f]
        else:
            assert solvable[f] and estimates[f].tobytes() == alone.tobytes()
    # the degenerate row holds the direct-path-only fit
    assert estimates[7].tobytes() == np.array([r1[7] / a[7], 0.0]).tobytes()


def _one_shot_two_path_ls(a, s2, r1, r2):
    """The solve as one expression of all four terms: the reference that the
    split into a pilot part and a received part must reproduce."""
    det = a**2 - np.abs(s2) ** 2
    solvable = det > 1e-12 * a**2
    safe_det = np.where(solvable, det, 1.0)
    h_direct = np.where(
        solvable, (a * r1 - np.conj(s2) * r2) / safe_det, r1 / np.where(a > 0, a, 1.0)
    )
    h_image = np.where(solvable, (-s2 * r1 + a * r2) / safe_det, 0.0)
    return np.stack([h_direct, h_image], axis=-1), solvable


@pytest.mark.parametrize("kind", ["random", "one_axis", "all_zero"])
def test_split_solver_matches_one_shot_solve_bit_for_bit(kind):
    # Six pilot sets, each fitted to three received sets, as the receiver's
    # rescue fits one pilot set to three candidate patterns.
    rng = np.random.default_rng(12)
    pilots = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
    if kind == "one_axis":
        pilots = rng.normal(size=(6, 8)) * np.exp(0.25j * np.pi)
    elif kind == "all_zero":
        pilots = np.zeros((6, 8), dtype=complex)
    received = rng.normal(size=(6, 3, 8)) + 1j * rng.normal(size=(6, 3, 8))
    a, s2 = _pilot_terms(pilots)
    r1, r2 = _received_terms(pilots[:, None], received)
    expected, expected_solvable = _one_shot_two_path_ls(a[:, None], s2[:, None], r1, r2)
    assert expected_solvable.all() == (kind == "random")
    assert not expected_solvable.any() or kind == "random"

    part = _LsPilotPart.from_terms(a, s2)
    estimates, solvable = part.take(np.s_[:, None]).solve(r1, r2)
    assert estimates.tobytes() == expected.tobytes()
    assert np.array_equal(solvable, expected_solvable)
    rows = np.array([4, 1, 4])
    estimates, solvable = part.take(rows).solve(r1[rows, 2], r2[rows, 2])
    assert estimates.tobytes() == expected[rows, 2].tobytes()
    assert np.array_equal(solvable, expected_solvable[rows, 0])
    estimates, solvable = part.solve(r1[:, 0], r2[:, 0])
    assert estimates.tobytes() == expected[:, 0].tobytes()


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
    a, s2 = _pilot_terms(pilots)
    r1, r2 = _received_terms(pilots, received)
    estimates, solvable = _LsPilotPart.from_terms(a, s2).solve(r1, r2)
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
    bits = detect_symbols(y, h, const)
    assert bits.shape == (5, 64)
    for f in range(5):
        assert np.array_equal(bits[f], detect_symbols(y[f : f + 1], h[f : f + 1], const)[0])
    with pytest.raises(ValueError):
        detect_symbols(y, h[:4], const)
    with pytest.raises(ValueError):
        detect_symbols(y, np.zeros((5, 2)), const)
    with pytest.raises(ValueError):
        detect_symbols(y[0], h[0], const)


@pytest.mark.parametrize("order", [2, 4, 16, 64])
def test_detect_symbols_matches_the_argmin_over_every_point(order):
    """The point-by-point scan picks what an argmin over the whole distance
    table picks, exact ties (the origin, midpoints of two points) included."""
    rng = np.random.default_rng(order)
    const = build_data_alphabet(order)
    h = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    h[0] = (1.0, 0.0)
    y = rng.normal(size=(6, 40)) + 1j * rng.normal(size=(6, 40))
    p = const.points
    y[0, :3] = 0.0, (p[0] + p[1]) / 2, (p[-1] + p[-2]) / 2
    model = p * h[:, :1] + np.conj(p) * h[:, 1:]
    table = np.abs(y[:, :, None] - model[:, None, :]) ** 2
    expected = const.label_bits[np.argmin(table, axis=-1)].reshape(6, -1)
    assert np.array_equal(detect_symbols(y, h, const), expected)


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
        row = received[f : f + 1]
        assert shared[f].tobytes() == ls_estimate(pilots, row)[0].tobytes()
        assert shared[f].tobytes() == solve_two_path_ls(pilots, received[f]).tobytes()
        alone = ls_estimate(row_pilots[f : f + 1], row)[0]
        assert per_row[f].tobytes() == alone.tobytes()
        assert mmse[f].tobytes() == mmse_estimate(pilots, row, 0.3, prior)[0].tobytes()
        # the closed form, one row at a time
        oracle = np.linalg.solve(lhs, P.conj().T @ received[f])
        assert mmse[f].tobytes() == oracle.tobytes()


def test_mmse_per_row_noise_variance_matches_one_row_calls():
    rng = np.random.default_rng(11)
    pilots = np.exp(1j * np.pi / 2.0 * np.arange(4))
    received = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    prior = np.array([[1.0, 0.3 - 0.1j], [0.3 + 0.1j, 0.5]])
    variances = np.array([0.0, 0.01, 0.3, 2.0, 50.0])
    stacked = mmse_estimate(pilots, received, variances, prior)
    for f in range(5):
        alone = mmse_estimate(pilots, received[f : f + 1], variances[f], prior)[0]
        assert stacked[f].tobytes() == alone.tobytes()
    with pytest.raises(ValueError, match="noise variance must be >= 0"):
        mmse_estimate(pilots, received, np.array([0.1, 0.2, -0.1, 0.3, 0.4]), prior)


def test_stacked_ls_rejects_a_degenerate_row():
    received = np.ones((3, 4), dtype=complex)
    pilots = np.exp(1j * np.pi / 2.0 * np.arange(4)) * np.ones((3, 1))
    pilots[1] = 2.0
    with pytest.raises(DegeneratePilotSetError):
        ls_estimate(pilots, received)
    with pytest.raises(ValueError):
        ls_estimate(pilots[:, :3], received)
    with pytest.raises(ValueError):
        ls_estimate(pilots[0], received[0])
