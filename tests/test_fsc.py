import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impilot import fsc
from impilot.constellation import build_data_alphabet
from impilot.fsc import (
    FscGeometry,
    SpectralNullError,
    apply_cir,
    assemble_fsc_block,
    decode_start_index,
    detect_start_index,
    encode_start_index,
    fsc_index_bits,
    random_well_conditioned_cir,
    run_fsc_trials,
    sliding_correlation,
    zadoff_chu,
    zf_fde,
)
from impilot.im_codec import UnmappedPatternError

DATA_POINTS = build_data_alphabet(4).points


def test_geometry_validation():
    with pytest.raises(ValueError):
        FscGeometry(cp_length=1, cir_length=2)
    with pytest.raises(ValueError):
        FscGeometry(pilot_length=3, cir_length=2)
    with pytest.raises(ValueError):
        FscGeometry(block_length=16, cp_length=4, pilot_length=12)
    # a block too large for memory fails when it is built
    FscGeometry(block_length=2**16)
    with pytest.raises(ValueError, match="block_length"):
        FscGeometry(block_length=2**16 + 1)
    with pytest.raises(ValueError, match="block_length"):
        FscGeometry(block_length=400_000_000)


@pytest.mark.parametrize(
    "field,value", [("block_length", 64.0), ("cir_length", 2.5), ("cp_length", True)]
)
def test_geometry_fields_must_be_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        FscGeometry(**{field: value})


def test_geometry_stores_numpy_integers_as_int():
    geo = FscGeometry(*(np.int64(v) for v in (64, 2, 4, 8)))
    assert geo == FscGeometry()
    assert all(type(v) is int for v in vars(geo).values())
    assert fsc_index_bits(geo) == fsc_index_bits(FscGeometry())


@pytest.mark.parametrize(
    "block,cp,pilot,expected",
    [(64, 4, 8, 5), (64, 8, 16, 5), (20, 4, 8, 2)],
)
def test_index_bit_counts(block, cp, pilot, expected):
    geo = FscGeometry(block_length=block, cp_length=cp, pilot_length=pilot, cir_length=2)
    assert fsc_index_bits(geo) == expected


def test_single_position_carries_no_bits():
    geo = FscGeometry(block_length=16, cp_length=4, pilot_length=8, cir_length=2)
    assert geo.candidates == 1
    assert fsc_index_bits(geo) == 0


def test_zadoff_chu_properties():
    seq = zadoff_chu(8)
    assert np.allclose(np.abs(seq), 1.0)
    spectrum = np.abs(np.fft.ifft(np.abs(np.fft.fft(seq)) ** 2))
    assert np.all(spectrum[1:] < 1e-9)  # flat circular autocorrelation
    with pytest.raises(ValueError):
        zadoff_chu(8, root=2)


def test_start_index_bit_round_trip():
    geo = FscGeometry()
    n_bits = fsc_index_bits(geo)
    for value in range(1 << n_bits):
        bits = tuple((value >> s) & 1 for s in range(n_bits - 1, -1, -1))
        start = encode_start_index(bits, geo)
        assert decode_start_index(start, geo) == bits
    with pytest.raises(ValueError):
        encode_start_index((0,) * (n_bits + 1), geo)


def test_unmapped_start_positions():
    geo = FscGeometry()  # 49 candidates, 32 mapped
    with pytest.raises(UnmappedPatternError):
        decode_start_index(40, geo)
    with pytest.raises(ValueError):
        decode_start_index(50, geo)


def test_assemble_places_chunk():
    geo = FscGeometry()
    pilot = zadoff_chu(geo.pilot_length)
    data = DATA_POINTS[np.zeros(geo.data_length, dtype=int)]
    start = 5
    block = assemble_fsc_block(start, data, pilot, geo)
    assert block.size == geo.block_length
    payload = block[geo.cp_length :]
    chunk = np.concatenate([pilot[-geo.cp_length :], pilot])
    assert np.allclose(payload[start - 1 : start - 1 + geo.chunk_length], chunk)
    assert np.allclose(block[: geo.cp_length], payload[-geo.cp_length :])


def test_prefix_longer_than_the_pilot_wraps_around():
    geo = FscGeometry(block_length=9, cir_length=1, cp_length=3, pilot_length=2)
    pilot = np.array([1.0, 2.0j])
    block = assemble_fsc_block(1, DATA_POINTS[:1], pilot, geo)
    assert block[geo.cp_length : geo.cp_length + geo.chunk_length].tolist() == [
        2j, 1, 2j, 1, 2j
    ]


def test_assemble_validation():
    geo = FscGeometry()
    pilot = zadoff_chu(geo.pilot_length)
    data = DATA_POINTS[np.zeros(geo.data_length, dtype=int)]
    with pytest.raises(ValueError):
        assemble_fsc_block(0, data, pilot, geo)
    with pytest.raises(ValueError):
        assemble_fsc_block(1, data[:-1], pilot, geo)
    with pytest.raises(ValueError):
        assemble_fsc_block(1, data, pilot[:-1], geo)


def test_zf_fde_identity_channel():
    rng = np.random.default_rng(0)
    geo = FscGeometry(cir_length=1)
    payload = rng.normal(size=geo.payload_length) + 1j * rng.normal(size=geo.payload_length)
    block = np.concatenate([payload[-geo.cp_length :], payload])
    out = zf_fde(apply_cir(block, [1.0]), [1.0], geo.cp_length)
    assert np.max(np.abs(out - payload)) < 1e-12


def test_zf_fde_two_tap_channel():
    rng = np.random.default_rng(1)
    geo = FscGeometry()
    payload = rng.normal(size=geo.payload_length) + 1j * rng.normal(size=geo.payload_length)
    block = np.concatenate([payload[-geo.cp_length :], payload])
    taps = np.array([1.0, 0.5])
    out = zf_fde(apply_cir(block, taps), taps, geo.cp_length)
    assert np.max(np.abs(out - payload)) < 1e-8


def test_zf_fde_spectral_null():
    geo = FscGeometry()
    block = np.ones(geo.block_length, dtype=complex)
    with pytest.raises(SpectralNullError):
        zf_fde(block, [1.0, -1.0], geo.cp_length)


def test_zf_fde_cir_longer_than_cp():
    with pytest.raises(ValueError):
        zf_fde(np.ones(16, dtype=complex), np.ones(5), 4)


def test_sliding_correlation_peak_on_embedded_chunk():
    chunk = np.ones(12, dtype=complex)
    signal = np.zeros(60, dtype=complex)
    signal[17 : 17 + 12] = chunk
    corr = sliding_correlation(signal, chunk)
    assert detect_start_index(corr) == 18  # 1-based
    assert np.allclose(sliding_correlation(np.zeros(60), chunk), 0.0)
    with pytest.raises(ValueError):
        sliding_correlation(np.zeros(4), chunk)


def test_detect_start_index_tie_break():
    assert detect_start_index([1.0, 1.0, 0.5]) == 1
    with pytest.raises(ValueError):
        detect_start_index([])


def test_well_conditioned_cir():
    rng = np.random.default_rng(2)
    for _ in range(50):
        taps = random_well_conditioned_cir(2, rng)
        gains = np.abs(np.fft.fft(taps, 256))
        assert gains.min() >= 0.3


@st.composite
def hard_tails(draw):
    """Draws (real parts, then imaginary parts, over 0.2) of a two- or
    three-tap tail whose taps all point against the unit tap at one bin of
    the 256-point grid, up to phase slips of 1e-6, with magnitudes that sum
    to within 1e-6 of 1 - _MIN_CIR_GAIN.  Its smallest gain is then the
    triangle bound 1 - sum |t| to within 1e-9, on the edge of the check."""
    k = draw(st.integers(0, 255))
    total = 1 - fsc._MIN_CIR_GAIN + draw(st.floats(-1e-6, 1e-6))
    if draw(st.booleans()):
        magnitudes = [total]
    else:
        share = draw(st.floats(0, 1))
        magnitudes = [total * share, total * (1 - share)]
    taps = np.array([
        -a * np.exp(1j * (2 * np.pi * k * m / 256 + draw(st.floats(-1e-6, 1e-6))))
        for m, a in enumerate(magnitudes, start=1)
    ])
    return np.concatenate([taps.real, taps.imag]) / 0.2


@settings(max_examples=300, deadline=None)
@given(draws=hard_tails())
@example(draws=np.array([-fsc._FAST_ACCEPT, 0.0]) / 0.2)  # bin 0
@example(draws=np.array([0.35, -0.35, 0.0, 0.0]) / 0.2)  # bin 128
def test_fast_accept_implies_the_fft_check(draws):
    n = draws.size // 2
    bound = 1 - 0.2 * np.abs(draws[:n] + 1j * draws[n:]).sum()
    gains = np.abs(np.fft.fft(fsc._taps_from_draws(draws), 256))
    assert gains.min() == pytest.approx(bound, abs=1e-9)
    if fsc._fast_accept(draws):
        assert gains.min() >= fsc._MIN_CIR_GAIN


def test_round_trip_recovers_start_and_bits():
    rng = np.random.default_rng(3)
    geo = FscGeometry()
    pairs = run_fsc_trials(geo, 300, rng, DATA_POINTS)
    hits = sum(1 for true, detected in pairs if true == detected)
    assert hits >= 0.99 * len(pairs)
    for true, detected in pairs:
        if true == detected and detected <= 32:
            assert decode_start_index(detected, geo) == decode_start_index(true, geo)


@pytest.mark.parametrize("trials", [True, False, 2.0, 2.5, "3", None, 0, -1])
def test_trials_must_be_an_integer(trials):
    with pytest.raises(ValueError, match="trials"):
        run_fsc_trials(FscGeometry(), trials, np.random.default_rng(0), DATA_POINTS)


def test_trials_accepts_numpy_integers():
    pairs = run_fsc_trials(FscGeometry(), np.int64(3), np.random.default_rng(0), DATA_POINTS)
    assert len(pairs) == 3 and all(type(v) is int for pair in pairs for v in pair)


def _accepted(block, cir, cp, pilot):
    """The geometry rules, restated: what FscGeometry must accept."""
    return (
        1 <= cir <= cp
        and pilot >= 2 * cir
        and block <= fsc._MAX_BLOCK_LENGTH
        and block - 2 * cp - pilot + 1 >= 1
    )


@st.composite
def geometry_fields(draw):
    """(block, cir, cp, pilot), each drawn near the bound that the ones
    before it set, so both sides of every rule come up.  Impulse responses
    stay short, so the property stays fast: random_well_conditioned_cir
    keeps about a third of its draws at 6 taps, and 0.5-1 % at 16-40."""
    cir = draw(st.integers(-1, 6))
    cp = cir + draw(st.integers(-1, 8))
    pilot = 2 * cir + draw(st.integers(-1, 40))
    block = 2 * cp + pilot + draw(st.integers(-2, 100))
    return block, cir, cp, pilot


@settings(max_examples=60, deadline=None)
@given(fields=geometry_fields(), trials=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(fields=(16, 2, 4, 8), trials=3, seed=0)  # one candidate, no data
@example(fields=(64, 4, 4, 8), trials=3, seed=1)  # cir_length == cp_length
@example(fields=(2**16, 2, 4, 32_760), trials=1, seed=2)  # the size cap
@example(fields=(2**16 + 1, 2, 4, 8), trials=1, seed=3)
@example(fields=(8, 1, 3, 2), trials=2, seed=4)  # a prefix longer than the pilot
def test_every_accepted_geometry_runs(fields, trials, seed):
    block, cir, cp, pilot = fields
    if not _accepted(block, cir, cp, pilot):
        with pytest.raises(ValueError):
            FscGeometry(block, cir, cp, pilot)
        return
    geo = FscGeometry(block, cir, cp, pilot)
    pairs = run_fsc_trials(geo, trials, np.random.default_rng(seed), DATA_POINTS)
    assert len(pairs) == trials
    for true, detected in pairs:
        assert 1 <= true <= geo.candidates and 1 <= detected <= geo.candidates
    if geo.candidates == 1:
        assert fsc_index_bits(geo) == 0 and geo.data_length == 0


def _same_bytes(*arrays):
    return len({a.tobytes() for a in arrays}) == 1


@pytest.mark.parametrize("pilot_length", [8, 40])
def test_stacked_chain_equals_one_row_at_a_time(pilot_length):
    rng = np.random.default_rng(4)
    geo = FscGeometry(block_length=160, cir_length=3, cp_length=4, pilot_length=pilot_length)
    pilot = zadoff_chu(geo.pilot_length)
    chunk = np.concatenate([pilot[-geo.cp_length :], pilot])
    rows = 9
    bits = rng.integers(0, 2, (rows, fsc_index_bits(geo)))
    starts = encode_start_index(bits, geo)
    data = DATA_POINTS[rng.integers(0, DATA_POINTS.size, (rows, geo.data_length))]
    taps = np.stack([random_well_conditioned_cir(geo.cir_length, rng) for _ in range(rows)])
    blocks = assemble_fsc_block(starts, data, pilot, geo)
    received = apply_cir(blocks, taps)
    equalized = zf_fde(received, taps, geo.cp_length)
    noisy = equalized + 0.3 * rng.standard_normal(equalized.shape)
    correlations = sliding_correlation(noisy, chunk)
    detected = detect_start_index(correlations)
    assert blocks.shape == received.shape == (rows, geo.block_length)
    assert correlations.shape == (rows, geo.candidates)
    for i in range(rows):
        assert starts[i] == encode_start_index(bits[i], geo)
        assert np.array_equal(blocks[i], assemble_fsc_block(int(starts[i]), data[i], pilot, geo))
        # the 1-D call and numpy's own convolution and correlation
        assert _same_bytes(
            received[i],
            apply_cir(blocks[i], taps[i]),
            np.convolve(blocks[i], taps[i])[: geo.block_length],
        )
        assert _same_bytes(equalized[i], zf_fde(received[i], taps[i], geo.cp_length))
        assert _same_bytes(
            correlations[i],
            sliding_correlation(noisy[i], chunk),
            np.correlate(np.conj(noisy[i]), np.conj(chunk), "valid"),
        )
        assert detected[i] == detect_start_index(correlations[i])
    assert np.array_equal(detected, starts)
    with pytest.raises(ValueError, match="one impulse response per row"):
        apply_cir(blocks[0], taps)
    # zero leading rows are a stack too
    assert sliding_correlation(noisy[:0], chunk).shape == (0, geo.candidates)
    assert detect_start_index(correlations[:0]).shape == (0,)


def test_stacked_detection_breaks_ties_to_the_smallest_position():
    stack = np.array([[1.0, 1.0, 0.5], [0.5, 2.0, -2.0], [-3.0, 3j, 3.0], [0.0, 0.0, 0.0]])
    assert detect_start_index(stack).tolist() == [1, 2, 1, 1]


@pytest.mark.parametrize("geo", [FscGeometry(), FscGeometry(128, 3, 4, 16)])
def test_pairs_do_not_depend_on_the_chunk(geo, monkeypatch):
    # 20 trials in one chunk, one trial per chunk, or chunks of 7, 7 and 6;
    # the recorded stack heights show the chunking, and each stack row must
    # be equalized with its own trial's impulse response.
    trials = 20
    whole = run_fsc_trials(geo, trials, np.random.default_rng(9), DATA_POINTS)
    draw_tail, equalize = fsc._draw_tail, fsc.zf_fde
    drawn, used, heights = [], [], []

    def drawing(*args):
        draws = draw_tail(*args)
        drawn.append(fsc._taps_from_draws(draws))
        return draws

    def recording(received, cir, cp_length):
        heights.append(received.shape[0])
        used.extend(cir)
        return equalize(received, cir, cp_length)

    monkeypatch.setattr(fsc, "_draw_tail", drawing)
    monkeypatch.setattr(fsc, "zf_fde", recording)
    for per_chunk, expected in [(1, [1] * trials), (7, [7, 7, 6])]:
        monkeypatch.setattr(fsc, "_CHUNK_SAMPLES", per_chunk * geo.block_length)
        for record in (drawn, used, heights):
            record.clear()
        assert run_fsc_trials(geo, trials, np.random.default_rng(9), DATA_POINTS) == whole
        assert heights == expected
        assert np.array_equal(np.array(used), np.array(drawn))
