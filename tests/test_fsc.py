import numpy as np
import pytest

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


def test_round_trip_recovers_start_and_bits():
    rng = np.random.default_rng(3)
    geo = FscGeometry()
    pairs = run_fsc_trials(geo, 300, rng, DATA_POINTS)
    hits = sum(1 for true, detected in pairs if true == detected)
    assert hits >= 0.99 * len(pairs)
    for true, detected in pairs:
        if true == detected and detected <= 32:
            assert decode_start_index(detected, geo) == decode_start_index(true, geo)
