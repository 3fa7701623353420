"""Frequency-selective extension: cyclic-prefix framing, zero-forcing
frequency-domain equalization, and sliding-correlation detection of a movable
pilot sequence.

The block layout is [outer CP | payload] where the payload holds a pilot
chunk (the pilot sequence preceded by its own cyclic extension) inserted at a
start position chosen by index bits, with data symbols everywhere else.  The
receiver strips the outer CP, inverts the channel per frequency bin with a
known impulse response, then slides the pilot chunk over the equalized
payload and picks the correlation peak.

The signal-chain functions (``assemble_fsc_block``, ``apply_cir``,
``zf_fde``, ``sliding_correlation`` and ``detect_start_index``) work on the
last axis, so one call handles a whole ``(trials, samples)`` stack; a 1-D
input is the case with no leading axes.  ``run_fsc_trials`` draws each
trial's randomness in trial order and then runs the chain once per chunk of
trials.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .im_codec import UnmappedPatternError, _check_integer_fields

__all__ = [
    "SpectralNullError",
    "FscGeometry",
    "zadoff_chu",
    "fsc_index_bits",
    "encode_start_index",
    "decode_start_index",
    "assemble_fsc_block",
    "apply_cir",
    "zf_fde",
    "sliding_correlation",
    "detect_start_index",
    "random_well_conditioned_cir",
    "fsc_chunk_sizes",
    "run_fsc_trials",
]

_NULL_TOL = 1e-12

# Smallest frequency-bin gain of a drawn impulse response.
_MIN_CIR_GAIN = 0.3
# Largest sum of tail magnitudes that passes the gain check without its FFT.
_FAST_ACCEPT = 1 - _MIN_CIR_GAIN - 1e-9

# Cap on block_length, so a block too large for memory fails when it is
# built.  At the cap a trial holds a few MB, and its sliding correlation
# (block_length * pilot_length products) takes well under a second.
_MAX_BLOCK_LENGTH = 2**16

# Block samples per chunk of round trips in run_fsc_trials: 128 trials of
# the default 64-sample block, and one trial of a block at the cap.  The
# chunk's temporaries take about 1 MB; larger chunks are no faster.
_CHUNK_SAMPLES = 2**13


class SpectralNullError(ValueError):
    """The channel has a frequency bin too close to zero to invert."""


@dataclass(frozen=True)
class FscGeometry:
    """Cyclic-prefix framed block layout with a movable pilot sequence."""

    block_length: int = 64
    cir_length: int = 2
    cp_length: int = 4
    pilot_length: int = 8

    def __post_init__(self):
        _check_integer_fields(self, [f.name for f in fields(self)])
        if self.block_length > _MAX_BLOCK_LENGTH:
            raise ValueError(
                f"block_length must be <= {_MAX_BLOCK_LENGTH}, got {self.block_length}"
            )
        if self.cir_length < 1:
            raise ValueError("cir_length must be >= 1")
        if self.cp_length < self.cir_length:
            raise ValueError("cp_length must cover the impulse response")
        if self.pilot_length < 2 * self.cir_length:
            raise ValueError("pilot_length must be at least twice the impulse response")
        if self.candidates < 1:
            raise ValueError("pilot chunk plus prefixes do not fit in the block")

    @property
    def payload_length(self) -> int:
        return self.block_length - self.cp_length

    @property
    def chunk_length(self) -> int:
        """Pilot sequence plus its own cyclic extension."""
        return self.cp_length + self.pilot_length

    @property
    def candidates(self) -> int:
        return self.block_length - 2 * self.cp_length - self.pilot_length + 1

    @property
    def data_length(self) -> int:
        return self.payload_length - self.chunk_length


def zadoff_chu(length: int, root: int = 1) -> np.ndarray:
    """Constant-amplitude sequence with flat circular autocorrelation."""
    if length < 1 or math.gcd(root, length) != 1:
        raise ValueError("root must be coprime with the sequence length")
    k = np.arange(length)
    if length % 2 == 0:
        phase = -np.pi * root * k**2 / length
    else:
        phase = -np.pi * root * k * (k + 1) / length
    return np.exp(1j * phase)


def fsc_index_bits(geometry: FscGeometry) -> int:
    """Bits carried by the pilot start position."""
    return geometry.candidates.bit_length() - 1


def encode_start_index(bits, geometry: FscGeometry):
    """Index-bit word (MSB first, last axis) to a 1-based pilot start
    position; an int for one word, an array for a stack of words."""
    n_bits = fsc_index_bits(geometry)
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim == 0 or bits.shape[-1] != n_bits:
        raise ValueError(f"expected {n_bits} index bits, got shape {bits.shape}")
    start = bits @ (1 << np.arange(n_bits - 1, -1, -1)) + 1
    return int(start) if start.ndim == 0 else start


def decode_start_index(start: int, geometry: FscGeometry) -> tuple:
    """Inverse of :func:`encode_start_index`; detected positions beyond the
    mapped range raise :class:`UnmappedPatternError`."""
    n_bits = fsc_index_bits(geometry)
    if not 1 <= start <= geometry.candidates:
        raise ValueError(f"start position {start} outside 1..{geometry.candidates}")
    value = start - 1
    if value >= (1 << n_bits):
        raise UnmappedPatternError(f"start position {start} carries no index word")
    return tuple((value >> s) & 1 for s in range(n_bits - 1, -1, -1))


def _pilot_chunk(pilot_seq, cp_length: int) -> np.ndarray:
    """The pilot sequence after its cyclic extension of ``cp_length``
    symbols, which wraps around the sequence when it is the longer."""
    return pilot_seq[np.arange(-cp_length, pilot_seq.size) % pilot_seq.size]


def assemble_fsc_block(
    start,
    data_symbols,
    pilot_seq,
    geometry: FscGeometry,
) -> np.ndarray:
    """Build [outer CP | payload] with the pilot chunk at the given start.

    ``start`` is one position with ``data_length`` data symbols, or an array
    of positions with one row of data symbols each; every row is a block.
    """
    starts = np.asarray(start)
    data_symbols = np.asarray(data_symbols, dtype=complex)
    pilot_seq = np.asarray(pilot_seq, dtype=complex).reshape(-1)
    if pilot_seq.size != geometry.pilot_length:
        raise ValueError(f"expected {geometry.pilot_length} pilot symbols")
    if data_symbols.shape != starts.shape + (geometry.data_length,):
        raise ValueError(f"expected {geometry.data_length} data symbols per block")
    outside = (starts < 1) | (starts > geometry.candidates)
    if np.any(outside):
        bad = starts[outside].flat[0]
        raise ValueError(f"start position {bad} outside 1..{geometry.candidates}")

    chunk = _pilot_chunk(pilot_seq, geometry.cp_length)
    offset = np.arange(geometry.payload_length) - (starts[..., None] - 1)
    in_chunk = (offset >= 0) & (offset < geometry.chunk_length)
    # A boolean assignment fills in C order: row by row, positions ascending.
    payload = np.empty(in_chunk.shape, dtype=complex)
    payload[in_chunk] = np.tile(chunk, starts.size)
    payload[~in_chunk] = data_symbols.reshape(-1)
    return np.concatenate([payload[..., -geometry.cp_length :], payload], axis=-1)


def apply_cir(signal, taps) -> np.ndarray:
    """Linear convolution with the impulse response, truncated to the block;
    one response per row of a stack, or one for all rows.  Each row is one
    ``np.convolve`` call."""
    signal = np.asarray(signal, dtype=complex)
    taps = np.asarray(taps, dtype=complex)
    if taps.ndim > 1 and taps.shape[:-1] != signal.shape[:-1]:
        raise ValueError(f"expected one impulse response per row, got shape {taps.shape}")
    n = signal.shape[-1]
    rows = signal.reshape(-1, n)
    per_row = taps.reshape(-1, taps.shape[-1]) if taps.ndim > 1 else [taps] * rows.shape[0]
    out = np.empty_like(rows)
    for i, (row, row_taps) in enumerate(zip(rows, per_row)):
        out[i] = np.convolve(row, row_taps)[:n]
    return out.reshape(signal.shape)


def zf_fde(received_with_cp, cir, cp_length: int) -> np.ndarray:
    """Strip the outer cyclic prefix and invert the channel per frequency bin;
    one impulse response per row of a stack, or one for all rows."""
    received = np.asarray(received_with_cp, dtype=complex)
    taps = np.asarray(cir, dtype=complex)
    if taps.shape[-1] > cp_length:
        raise ValueError("impulse response longer than the cyclic prefix")
    payload = received[..., cp_length:]
    gains = np.fft.fft(taps, n=payload.shape[-1], axis=-1)
    if np.any(np.abs(gains) < _NULL_TOL):
        raise SpectralNullError("channel frequency response has a spectral null")
    spectrum = np.fft.fft(payload, axis=-1)
    spectrum /= gains
    return np.fft.ifft(spectrum, axis=-1)


def sliding_correlation(equalized, pilot_chunk) -> np.ndarray:
    """Correlations R[n] = sum_k p(k) * conj(x(n+k-1)), one per start position
    and row of the stack.  Each row is one ``np.correlate`` call."""
    equalized = np.asarray(equalized, dtype=complex)
    pilot_chunk = np.asarray(pilot_chunk, dtype=complex).reshape(-1)
    if equalized.shape[-1] < pilot_chunk.size:
        raise ValueError("equalized signal shorter than the pilot sequence")
    conj_equalized, conj_pilot = np.conj(equalized), np.conj(pilot_chunk)
    candidates = equalized.shape[-1] - pilot_chunk.size + 1
    rows = conj_equalized.reshape(-1, equalized.shape[-1])
    out = np.empty((rows.shape[0], candidates), dtype=complex)
    for i, row in enumerate(rows):
        out[i] = np.correlate(row, conj_pilot, mode="valid")
    return out.reshape(equalized.shape[:-1] + (candidates,))


def detect_start_index(correlations):
    """1-based argmax of |R|^2 on the last axis, ties to the smallest
    position; an int for one vector, an array for a stack."""
    correlations = np.atleast_1d(correlations)
    if correlations.shape[-1] == 0:
        raise ValueError("empty correlation vector")
    detected = np.argmax(np.abs(correlations) ** 2, axis=-1) + 1
    return int(detected) if detected.ndim == 0 else detected


def _draw_tail(length: int, rng: np.random.Generator) -> np.ndarray:
    """The normal draws behind one well-conditioned response of ``length``
    taps: the tail's real parts, then its imaginary parts.  A tail is
    redrawn until :func:`_fast_accept` or :func:`_fft_accept` takes it."""
    while True:
        draws = rng.standard_normal(2 * (length - 1))
        if _fast_accept(draws) or _fft_accept(draws):
            return draws


def _fast_accept(draws: np.ndarray) -> bool:
    """Whether the tail's magnitudes sum to at most ``_FAST_ACCEPT``, so
    that :func:`_fft_accept` would take it too (see
    :func:`random_well_conditioned_cir`)."""
    values = draws.tolist()
    n = len(values) // 2
    return 0.2 * sum(map(math.hypot, values[:n], values[n:])) <= _FAST_ACCEPT


def _fft_accept(draws: np.ndarray) -> bool:
    """Whether every bin of the response's 256-point spectrum has a gain of
    at least ``_MIN_CIR_GAIN``."""
    return np.min(np.abs(np.fft.fft(_taps_from_draws(draws), n=256))) >= _MIN_CIR_GAIN


def _taps_from_draws(draws: np.ndarray) -> np.ndarray:
    """Responses [1, 0.2 * (re + 1j * im)] from draws laid out as
    :func:`_draw_tail` returns them, one per row of a stack."""
    n = draws.shape[-1] // 2
    taps = np.ones(draws.shape[:-1] + (n + 1,), dtype=complex)
    taps[..., 1:] = 0.2 * (draws[..., :n] + 1j * draws[..., n:])
    return taps


def random_well_conditioned_cir(length: int, rng: np.random.Generator) -> np.ndarray:
    """Unit leading tap plus small random taps 0.2 * (re + 1j * im), with
    standard normal re and im, redrawn until every bin of its 256-point
    spectrum has a gain of at least ``_MIN_CIR_GAIN``.

    Only a tail whose magnitudes sum to more than ``1 - _MIN_CIR_GAIN -
    1e-9`` runs the FFT check.  Any other tail passes it: every bin has
    |H(f)| >= 1 - sum |t_i|, and the FFT's rounding (about 1e-15) is far
    inside the 1e-9 margin.  So the skip moves no draw and no redraw.
    """
    return _taps_from_draws(_draw_tail(length, rng))


def fsc_chunk_sizes(geometry: FscGeometry, trials: int):
    """The trial counts of :func:`run_fsc_trials`'s chunks, in order: runs of
    ``_CHUNK_SAMPLES`` block samples (at least one trial) and a shorter last
    one.  ``trials`` is checked here, before any chunk runs."""
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    per_chunk = max(1, _CHUNK_SAMPLES // geometry.block_length)
    return (min(per_chunk, trials - first) for first in range(0, trials, per_chunk))


def run_fsc_trials(
    geometry: FscGeometry,
    trials: int,
    rng: np.random.Generator,
    data_points: np.ndarray,
):
    """Noiseless end-to-end round trips of the Zadoff-Chu pilot; returns
    (true, detected) start pairs.

    Each trial draws, in trial order, its index bits, its data symbol
    indices and a well-conditioned impulse response (whose redraws depend
    on each attempt's check, so they stay one trial at a time).  The trials
    then run in chunks of ``_CHUNK_SAMPLES`` block samples (at least one
    trial): CP framing, convolution, equalization and correlation detection
    each run once per chunk, on a ``(trials, samples)`` stack.  So the pairs
    do not depend on the chunk size, nor on how the trials are split between
    calls that share ``rng``, and a spectral null raises
    :class:`SpectralNullError` for the chunk that holds it.
    """
    chunk_sizes = fsc_chunk_sizes(geometry, trials)
    pilot_seq = zadoff_chu(geometry.pilot_length)
    chunk = _pilot_chunk(pilot_seq, geometry.cp_length)
    n_bits, n_data, n_taps = fsc_index_bits(geometry), geometry.data_length, geometry.cir_length
    pairs = []
    for rows in chunk_sizes:
        bits = np.empty((rows, n_bits), dtype=np.int64)
        symbols = np.empty((rows, n_data), dtype=np.int64)
        draws = np.empty((rows, 2 * (n_taps - 1)))
        for i in range(rows):
            bits[i] = rng.integers(0, 2, n_bits)
            symbols[i] = rng.integers(0, data_points.size, n_data)
            draws[i] = _draw_tail(n_taps, rng)
        taps = _taps_from_draws(draws)
        starts = encode_start_index(bits, geometry)
        block = assemble_fsc_block(starts, data_points[symbols], pilot_seq, geometry)
        equalized = zf_fde(apply_cir(block, taps), taps, geometry.cp_length)
        detected = detect_start_index(sliding_correlation(equalized, chunk))
        pairs += zip(starts.tolist(), detected.tolist())
    return pairs
