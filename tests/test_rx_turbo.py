import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from impilot.constellation import build_data_alphabet, build_pilot_alphabet
from impilot.im_codec import (
    BlockGeometry,
    UnmappedPatternError,
    assemble_block,
    assemble_blocks,
    demap_patterns,
    rank_indices,
)
from impilot.impairments import RxImpairments, TxImpairments
from impilot.rx_classical import solve_two_path_ls
from impilot.rx_turbo import (
    FALSE_FLAG_RATE,
    TurboFrames,
    _flag_quantile,
    llr_values,
    prior_dnp,
    turbo_receive,
    turbo_receive_frames,
)

GEOMETRY = BlockGeometry()
DATA = build_data_alphabet(4)
PILOT = build_pilot_alphabet(4, 4.0)
TRANSMIT_POWER = (8 * 4.0 + 56 * 1.0) / 64.0


def random_block(rng, pilot_const=PILOT, balanced=False):
    """assemble_block's (symbols, pattern), each with a leading axis of 1,
    then the pilot values and the index and symbol bits."""
    index_bits = rng.integers(0, 2, GEOMETRY.index_bits_per_block)
    symbol_bits = rng.integers(0, 2, GEOMETRY.symbol_bits_per_block(4))
    while True:
        values = pilot_const.points[rng.integers(0, 4, GEOMETRY.pilots_per_block)]
        # balanced draws keep at least two pilots on each conjugation axis so
        # every extrinsic subset stays full rank
        on_real = np.abs(values.imag) < 1e-9
        if not balanced or (2 <= np.count_nonzero(on_real) <= values.size - 2):
            break
    symbols, pattern = assemble_block(index_bits, symbol_bits, values, GEOMETRY, DATA)
    return symbols, pattern, values, index_bits, symbol_bits


def coarse_detect(received_block, prior_estimate, geometry, data_alphabet, pilot_alphabet, dnp):
    """Oracle for the receiver's first step: each subblock's initial pilot
    positions, the largest ratios under the prior channel estimate alone
    (ties to the smaller position), as 0-based offsets (1, subblocks,
    pilots_per_subblock)."""
    y = np.asarray(received_block, dtype=complex).reshape(
        1, geometry.subblocks, geometry.subblock_length
    )
    eta = llr_values(
        y,
        np.asarray(prior_estimate, dtype=complex),
        data_alphabet,
        pilot_alphabet,
        geometry.subblock_length,
        geometry.pilots_per_subblock,
        dnp,
    )
    order = np.argsort(-eta, axis=-1, kind="stable")[..., : geometry.pilots_per_subblock]
    return np.sort(order, axis=-1)


def extrinsic_ls(received_block, pattern, exclude_subblock, pilot_values, geometry):
    """Oracle for the receiver's extrinsic update: the LS channel fit from the
    detected pilots (0-based offsets) of every subblock except one, paired
    with the known pilot values in subblock order.  None when the remaining
    pilot values are collinear with their conjugates."""
    y = np.asarray(received_block, dtype=complex).reshape(-1)
    positions = np.reshape(
        pattern, (geometry.subblocks, geometry.pilots_per_subblock)
    ) + (np.arange(geometry.subblocks)[:, None] * geometry.subblock_length)
    keep = np.arange(geometry.subblocks) != exclude_subblock
    pvals = np.asarray(pilot_values, dtype=complex).reshape(
        geometry.subblocks, geometry.pilots_per_subblock
    )
    return solve_two_path_ls(pvals[keep].reshape(-1), y[positions[keep].reshape(-1)])


def naive_llr(y, channel, dnp, subblock_length=8, pilots_per_subblock=1):
    """Direct posterior-ratio evaluation without log-sum-exp shifting."""
    h0, h1 = channel
    prior_pilot = pilots_per_subblock / (subblock_length * PILOT.order)
    prior_data = (subblock_length - pilots_per_subblock) / (subblock_length * DATA.order)
    num = sum(
        prior_pilot * math.exp(-abs(y - (c * h0 + np.conj(c) * h1)) ** 2 / dnp)
        for c in PILOT.points
    )
    den = sum(
        prior_data * math.exp(-abs(y - (c * h0 + np.conj(c) * h1)) ** 2 / dnp)
        for c in DATA.points
    )
    return math.log(num / den)


def test_llr_matches_naive_posterior_ratio():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        y = rng.normal() + 1j * rng.normal()
        channel = np.array(
            [rng.normal() + 1j * rng.normal(), 0.2 * (rng.normal() + 1j * rng.normal())]
        ) / 2.0
        dnp = rng.uniform(0.5, 5.0)
        fast = llr_values(y, channel, DATA, PILOT, 8, 1, dnp)
        assert abs(fast - naive_llr(y, channel, dnp)) < 1e-9


def test_llr_prior_term_alone():
    # equal-radius alphabets and y at the origin make both likelihood sums
    # cancel, leaving only the prior log ratio of 1/7
    pilot_unit = build_pilot_alphabet(4, 1.0)
    eta = llr_values(0.0, np.array([1.0, 0.0]), DATA, pilot_unit, 8, 1, 1.0)
    assert eta == pytest.approx(math.log(1.0 / 7.0), abs=1e-12)


def test_llr_diverges_on_pilot_point_as_noise_vanishes():
    y = PILOT.points[0]
    channel = np.array([1.0, 0.0])
    values = [
        llr_values(y, channel, DATA, PILOT, 8, 1, dnp)
        for dnp in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 1e3


def test_llr_validation():
    with pytest.raises(ValueError):
        llr_values(0.0, np.array([1.0, 0.0]), DATA, PILOT, 8, 1, 0.0)
    with pytest.raises(ValueError):
        llr_values(0.0, np.array([1.0, 0.0]), DATA, PILOT, 8, 8, 1.0)


def test_coarse_detect_noiseless_perfect_prior():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        symbols, pattern, *_ = random_block(rng)
        detected = coarse_detect(symbols, np.array([1.0, 0.0]), GEOMETRY, DATA, PILOT, 1e-9)
        assert np.array_equal(detected, pattern)


def test_coarse_detect_half_turn_rotation_is_harmless():
    # both alphabets are invariant under a half-turn, so a prior rotated by
    # pi still classifies perfectly at high SDNR
    rng = np.random.default_rng(2)
    prior = np.array([np.exp(1j * np.pi), 0.0])
    for _ in range(200):
        symbols, pattern, *_ = random_block(rng)
        detected = coarse_detect(symbols, prior, GEOMETRY, DATA, PILOT, 1e-9)
        assert np.array_equal(detected, pattern)


def test_pilot_classification_flips_at_boundary():
    # at high SDNR the per-symbol classification flips exactly at the
    # balance-angle root (about 0.5364 rad for a power ratio of 4)
    for delta, expect_pilot in ((0.50, True), (0.55, False)):
        channel = np.array([np.exp(-1j * delta), 0.0])
        eta = llr_values(PILOT.points[0], channel, DATA, PILOT, 8, 1, 1e-6)
        assert (eta > 0) == expect_pilot


def test_extrinsic_ls_exact_noiseless():
    rng = np.random.default_rng(3)
    symbols, pattern, values, *_ = random_block(rng, balanced=True)
    h = np.array([0.6 - 0.4j, 0.1 + 0.05j])
    y = symbols * h[0] + np.conj(symbols) * h[1]
    for g in range(GEOMETRY.subblocks):
        est = extrinsic_ls(y, pattern, g, values, GEOMETRY)
        assert np.max(np.abs(est - h)) < 1e-10


def test_extrinsic_ls_never_reads_excluded_subblock():
    rng = np.random.default_rng(4)
    symbols, pattern, values, *_ = random_block(rng, balanced=True)
    h = np.array([0.9, 0.2j])
    y = (symbols * h[0] + np.conj(symbols) * h[1]).reshape(-1)
    g = 3
    start = g * GEOMETRY.subblock_length
    y[start : start + GEOMETRY.subblock_length] = np.nan
    est = extrinsic_ls(y, pattern, g, values, GEOMETRY)
    assert np.all(np.isfinite(est))
    assert np.max(np.abs(est - h)) < 1e-10


def test_extrinsic_ls_uses_remaining_pilot_count():
    # with one subblock excluded the fit sees pilots_per_block - 1 pairs:
    # corrupting exactly those samples with NaN poisons the estimate
    rng = np.random.default_rng(5)
    symbols, pattern, values, *_ = random_block(rng, balanced=True)
    y = symbols.reshape(-1)
    starts = np.arange(GEOMETRY.subblocks)[:, None] * GEOMETRY.subblock_length
    positions = (pattern[0] + starts).reshape(-1)
    keep = [p for i, p in enumerate(positions) if i != 2]
    assert len(keep) == GEOMETRY.pilots_per_block - 1
    y[keep] = np.nan
    est = extrinsic_ls(y, pattern, 2, values, GEOMETRY)
    assert not np.any(np.isfinite(est))


def test_extrinsic_ls_wrong_position_degrades_estimate():
    rng = np.random.default_rng(6)
    h = np.array([1.0, 0.15 - 0.1j])
    worse = 0
    trials = 1000
    for _ in range(trials):
        symbols, pattern, values, *_ = random_block(rng, balanced=True)
        y = symbols * h[0] + np.conj(symbols) * h[1]
        good = extrinsic_ls(y, pattern, 0, values, GEOMETRY)
        corrupted = pattern.copy()
        corrupted[0, 4, 0] = (corrupted[0, 4, 0] + 3) % GEOMETRY.subblock_length
        bad = extrinsic_ls(y, corrupted, 0, values, GEOMETRY)
        if np.sum(np.abs(bad - h) ** 2) > np.sum(np.abs(good - h) ** 2):
            worse += 1
    assert worse > 0.95 * trials


def test_extrinsic_ls_degenerate_returns_none():
    rng = np.random.default_rng(7)
    symbols, pattern, *_ = random_block(rng)
    same_axis = np.full(GEOMETRY.pilots_per_block, 2.0 + 0.0j)
    assert extrinsic_ls(symbols, pattern, 0, same_axis, GEOMETRY) is None


def make_rx(noise_variance, distortion_level=0.0):
    return RxImpairments(distortion_level=distortion_level, noise_variance=noise_variance)


def test_turbo_noiseless_converges_immediately():
    rng = np.random.default_rng(8)
    for _ in range(50):
        symbols, pattern, values, index_bits, symbol_bits = random_block(rng)
        result = turbo_receive(
            symbols,
            np.array([1.0, 0.0]),
            GEOMETRY,
            DATA,
            PILOT,
            values,
            make_rx(1e-12),
            TRANSMIT_POWER,
        )
        assert result.converged[0] and result.iterations[0] == 1
        assert np.array_equal(result.pattern, pattern)
        assert np.array_equal(result.index_bits[0], index_bits)
        assert np.array_equal(result.symbol_bits[0], symbol_bits)
        assert not result.unmapped.any()


def test_turbo_fixed_budget_reports_full_count():
    rng = np.random.default_rng(9)
    symbols, pattern, values, *_ = random_block(rng)
    result = turbo_receive(
        symbols,
        np.array([1.0, 0.0]),
        GEOMETRY,
        DATA,
        PILOT,
        values,
        make_rx(1e-12),
        TRANSMIT_POWER,
        max_iterations=4,
        use_stopping=False,
    )
    assert result.iterations[0] == 4
    assert np.array_equal(result.pattern, pattern)


def reference_iteration(y, pattern_prev, values, dnp, order):
    """One update sweep written the slow way, visiting subblocks in ``order``
    but reading only the previous pattern (simultaneous update).  Patterns
    are 0-based offsets (1, subblocks, 1)."""
    new_pattern = np.empty_like(pattern_prev)
    y_sub = y.reshape(GEOMETRY.subblocks, GEOMETRY.subblock_length)
    for g in order:
        est = extrinsic_ls(y, pattern_prev, g, values, GEOMETRY)
        eta = llr_values(y_sub[g], est, DATA, PILOT, GEOMETRY.subblock_length, 1, dnp)
        best = int(np.argsort(-eta, kind="stable")[0])
        new_pattern[0, g] = best
    return new_pattern


def test_iteration_is_order_independent_and_matches_engine():
    rng = np.random.default_rng(10)
    tx = TxImpairments(0.2, math.radians(2.0))
    rx = make_rx(1e-3, 0.0)
    hits = 0
    for _ in range(50):
        symbols, _, values, *_ = random_block(rng, balanced=True)
        h = np.array([tx.direct_coeff, tx.image_coeff]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        y = (
            symbols[0] * h[0]
            + np.conj(symbols[0]) * h[1]
            + math.sqrt(rx.noise_variance / 2)
            * (rng.normal(size=64) + 1j * rng.normal(size=64))
        )
        prior = h * np.exp(-1j * 0.2)
        dnp = prior_dnp(prior, rx, TRANSMIT_POWER)
        coarse = coarse_detect(y, prior, GEOMETRY, DATA, PILOT, dnp)
        forward = reference_iteration(y, coarse, values, dnp, range(8))
        backward = reference_iteration(y, coarse, values, dnp, range(7, -1, -1))
        shuffled = reference_iteration(
            y, coarse, values, dnp, rng.permutation(8)
        )
        assert np.array_equal(forward, backward)
        assert np.array_equal(forward, shuffled)
        result = turbo_receive(
            y, prior, GEOMETRY, DATA, PILOT, values, rx, TRANSMIT_POWER,
            max_iterations=1, use_stopping=True, dnp_mode="prior",
        )
        if not result.restarted[0]:
            assert np.array_equal(result.pattern, forward)
            hits += 1
    assert hits >= 45


def test_converged_pattern_is_fixed_point():
    rng = np.random.default_rng(11)
    tx = TxImpairments(0.2, math.radians(2.0))
    rx = make_rx(0.02, 0.0)
    checked = 0
    while checked < 100:
        symbols, _, values, *_ = random_block(rng, balanced=True)
        h = np.array([tx.direct_coeff, tx.image_coeff]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        y = (
            symbols[0] * h[0]
            + np.conj(symbols[0]) * h[1]
            + math.sqrt(rx.noise_variance / 2)
            * (rng.normal(size=64) + 1j * rng.normal(size=64))
        )
        prior = h
        result = turbo_receive(
            y, prior, GEOMETRY, DATA, PILOT, values, rx, TRANSMIT_POWER,
            dnp_mode="prior",
        )
        if not result.converged[0] or result.restarted[0]:
            continue
        dnp = prior_dnp(prior, rx, TRANSMIT_POWER)
        again = reference_iteration(y, result.pattern, values, dnp, range(8))
        assert np.array_equal(again, result.pattern)
        checked += 1


def test_prior_dnp_formula():
    rx = RxImpairments(distortion_level=0.5, noise_variance=0.25)
    estimate = np.array([0.6 + 0.3j, -0.2j])
    expected = 0.5 * float(np.sum(np.abs(estimate) ** 2)) * 1.375 + 0.25
    assert prior_dnp(estimate, rx, 1.375) == pytest.approx(expected, rel=1e-12)
    assert prior_dnp(np.zeros(2), RxImpairments(0.0, 0.0), 1.0) > 0


def test_unmapped_pattern_scores_as_flagged():
    geometry = BlockGeometry(block_length=16, subblocks=4, pilots_per_subblock=2)
    # hand-built block whose pilots sit on the unmapped diagonal {1, 3}
    symbols = np.tile(DATA.points[[0, 1, 2, 3]], 4).astype(complex)
    values = np.tile(PILOT.points[:2], 4)
    for g in range(4):
        symbols[4 * g + 0] = values[2 * g]
        symbols[4 * g + 2] = values[2 * g + 1]
    result = turbo_receive(
        symbols,
        np.array([1.0, 0.0]),
        geometry,
        DATA,
        PILOT,
        values,
        make_rx(1e-12),
        TRANSMIT_POWER,
    )
    assert np.array_equal(result.pattern, [[[0, 2]] * 4])
    assert result.unmapped.all()
    assert not result.index_bits.any()


def test_lock_regression_degenerate_pilots_rotated_prior():
    # all pilot values on one conjugation axis starve the extrinsic fits of
    # the image direction; with an outdated prior this used to freeze wrong
    # subblock decisions
    rng = np.random.default_rng(12)
    values = PILOT.points[1] * np.ones(8)
    values[3] = PILOT.points[3]
    bad = 0
    for delta in np.linspace(0.55, 1.05, 40):
        index_bits = rng.integers(0, 2, GEOMETRY.index_bits_per_block)
        symbol_bits = rng.integers(0, 2, GEOMETRY.symbol_bits_per_block(4))
        symbols, pattern = assemble_block(index_bits, symbol_bits, values, GEOMETRY, DATA)
        y = symbols + math.sqrt(5e-5) * (
            rng.normal(size=64) + 1j * rng.normal(size=64)
        )
        prior = np.array([np.exp(-1j * delta), 0.0])
        result = turbo_receive(
            y, prior, GEOMETRY, DATA, PILOT, values, make_rx(1e-4),
            TRANSMIT_POWER, dnp_mode="prior",
        )
        bad += np.count_nonzero(np.any(result.pattern != pattern, axis=-1))
    assert bad == 0


def test_turbo_validation():
    block = np.zeros(64, dtype=complex)
    values = PILOT.points[np.zeros(8, dtype=int)]
    with pytest.raises(ValueError):
        turbo_receive(
            block, np.array([1.0, 0.0]), GEOMETRY, DATA, PILOT, values,
            make_rx(1.0), 1.0, max_iterations=0,
        )
    with pytest.raises(ValueError):
        turbo_receive(
            block, np.array([1.0, 0.0]), GEOMETRY, DATA, PILOT, values,
            make_rx(1.0), 1.0, dnp_mode="other",
        )
    tiny = BlockGeometry(block_length=8, subblocks=2, pilots_per_subblock=1)
    with pytest.raises(ValueError):
        turbo_receive(
            np.zeros(8, dtype=complex), np.array([1.0, 0.0]), tiny, DATA, PILOT,
            PILOT.points[:2], make_rx(1.0), 1.0,
        )


def assert_row_matches(stacked, f, alone):
    """Row ``f`` of one TurboFrames equals row 0 of another, field by field,
    down to the bytes."""
    for field in dataclasses.fields(TurboFrames):
        row, single = getattr(stacked, field.name)[f], getattr(alone, field.name)[0]
        assert row.dtype == single.dtype and row.shape == single.shape, field.name
        assert row.tobytes() == single.tobytes(), field.name


def test_stacked_rows_match_one_block_calls():
    # noisy blocks with outdated priors, so the rows of one stack leave the
    # iteration at different steps and some of them go through the rescue
    rng = np.random.default_rng(13)
    tx = TxImpairments(0.2, math.radians(2.0))
    rx = make_rx(0.2, 0.02)
    received, priors, pilots = [], [], []
    for _ in range(60):
        symbols, _, values, *_ = random_block(rng)
        h = np.array([tx.direct_coeff, tx.image_coeff]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        noise = math.sqrt(0.1) * (rng.normal(size=64) + 1j * rng.normal(size=64))
        received.append(symbols[0] * h[0] + np.conj(symbols[0]) * h[1] + noise)
        priors.append(h * np.exp(1j * rng.uniform(-0.6, 0.6)))
        pilots.append(values)
    options = dict(max_iterations=8, dnp_mode="refresh")
    stacked = turbo_receive_frames(
        np.stack(received), np.stack(priors), GEOMETRY, DATA, PILOT, np.stack(pilots),
        rx, TRANSMIT_POWER, **options,
    )
    assert stacked.restarted.any()
    assert not (stacked.restarted & ~stacked.flagged).any()
    assert len(set(stacked.iterations.tolist())) > 3
    for f in range(60):
        alone = turbo_receive(
            received[f], priors[f], GEOMETRY, DATA, PILOT, pilots[f], rx,
            TRANSMIT_POWER, **options,
        )
        assert_row_matches(stacked, f, alone)


def test_flag_quantile_matches_gamma_isf():
    for dof in range(2, 301):
        expected = stats.gamma.isf(FALSE_FLAG_RATE, dof)
        assert _flag_quantile(dof) == pytest.approx(expected, rel=1e-12)
    assert 1.39 < _flag_quantile(62) / 64 < 1.40


def test_screen_rarely_flags_noise_only_blocks():
    # correct patterns under the true channel leave only noise in the
    # residual.  The final fit uses the pilots alone, so its error adds to
    # the data samples' residual: the noise-only mean is about 67 dnp, not
    # the Gamma(62) model's 62, with a heavier tail, and the nominal 1e-3
    # flags 41 of these 2000 blocks.  A threshold of 1.15 x 64 dnp would
    # flag 433 of them.
    rng = np.random.default_rng(21)
    frames, noise_variance = 2000, 0.03
    index_bits = rng.integers(0, 2, (frames, GEOMETRY.index_bits_per_block))
    symbol_bits = rng.integers(0, 2, (frames, GEOMETRY.symbol_bits_per_block(4)))
    pilots = PILOT.points[rng.integers(0, 4, (frames, GEOMETRY.pilots_per_block))]
    symbols, _ = assemble_blocks(index_bits, symbol_bits, pilots, GEOMETRY, DATA)
    tx = TxImpairments(0.2, math.radians(2.0))
    h = np.array([tx.direct_coeff, tx.image_coeff]) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, (frames, 1))
    )
    noise = rng.normal(size=symbols.shape) + 1j * rng.normal(size=symbols.shape)
    received = (
        symbols * h[:, :1]
        + np.conj(symbols) * h[:, 1:]
        + math.sqrt(noise_variance / 2) * noise
    )
    result = turbo_receive_frames(
        received, h, GEOMETRY, DATA, PILOT, pilots, make_rx(noise_variance), TRANSMIT_POWER
    )
    assert result.converged.all()
    assert result.flagged.sum() <= 60
    assert not result.restarted.any()


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(
        [(64, 8, 1), (48, 8, 1), (32, 8, 2), (64, 4, 2), (64, 4, 3), (12, 3, 1)]
    ),
    frames=st.integers(1, 6),
    noise_variance=st.floats(0.001, 1.0),
    dnp_mode=st.sampled_from(["prior", "refresh"]),
    max_iterations=st.integers(1, 8),
    use_stopping=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_rows_match_one_block_calls_for_any_geometry(
    shape, frames, noise_variance, dnp_mode, max_iterations, use_stopping, seed
):
    block_length, subblocks, pilots_per_subblock = shape
    geometry = BlockGeometry(block_length, subblocks, pilots_per_subblock)
    rng = np.random.default_rng(seed)
    index_bits = rng.integers(0, 2, (frames, geometry.index_bits_per_block))
    symbol_bits = rng.integers(0, 2, (frames, geometry.symbol_bits_per_block(4)))
    # any pilot values, degenerate sets included
    pilots = PILOT.points[rng.integers(0, 4, (frames, geometry.pilots_per_block))]
    symbols, _ = assemble_blocks(index_bits, symbol_bits, pilots, geometry, DATA)
    h = rng.normal(size=(frames, 2)) + 1j * rng.normal(size=(frames, 2))
    noise = rng.normal(size=symbols.shape) + 1j * rng.normal(size=symbols.shape)
    received = (
        symbols * h[:, :1]
        + np.conj(symbols) * h[:, 1:]
        + math.sqrt(noise_variance / 2) * noise
    )
    priors = h * np.exp(1j * rng.uniform(-0.8, 0.8, (frames, 1)))
    rx = make_rx(noise_variance, 0.01)
    options = dict(
        max_iterations=max_iterations, use_stopping=use_stopping, dnp_mode=dnp_mode
    )
    stacked = turbo_receive_frames(
        received, priors, geometry, DATA, PILOT, pilots, rx, TRANSMIT_POWER, **options
    )
    for f in range(frames):
        alone = turbo_receive(
            received[f], priors[f], geometry, DATA, PILOT, pilots[f], rx,
            TRANSMIT_POWER, **options,
        )
        assert_row_matches(stacked, f, alone)


@pytest.mark.parametrize("n,k", [(8, 1), (6, 1), (4, 2), (8, 2), (7, 3)])
def test_position_table_matches_rank_indices(n, k):
    # the receiver reads its index words through demap_patterns
    subsets = list(itertools.combinations(range(n), k))
    bits, unmapped = demap_patterns(np.array([subsets]), n, k)
    bits = bits.reshape(len(subsets), -1)
    for subset, word, flagged in zip(subsets, bits, unmapped[0]):
        try:
            expected = rank_indices(tuple(i + 1 for i in subset), n, k)
        except UnmappedPatternError:
            assert flagged and not word.any()
        else:
            assert not flagged and tuple(word) == expected
