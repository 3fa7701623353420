"""Frequency-selective extension: cyclic-prefix framing, zero-forcing
frequency-domain equalization, and sliding-correlation detection of a movable
pilot sequence.

The block layout is [outer CP | payload] where the payload holds a pilot
chunk (the pilot sequence preceded by its own cyclic extension) inserted at a
start position chosen by index bits, with data symbols everywhere else.  The
receiver strips the outer CP, inverts the channel per frequency bin with a
known impulse response, then slides the pilot chunk over the equalized
payload and picks the correlation peak.
"""

import math
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
    "run_fsc_trials",
]

_NULL_TOL = 1e-12

# Cap on block_length, so a block too large for memory fails when it is
# built.  At the cap a trial holds a few MB, and its sliding correlation
# (block_length * pilot_length products) takes well under a second.
_MAX_BLOCK_LENGTH = 2**16


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


def encode_start_index(bits, geometry: FscGeometry) -> int:
    """Index-bit word (MSB first) to a 1-based pilot start position."""
    n_bits = fsc_index_bits(geometry)
    if len(bits) != n_bits:
        raise ValueError(f"expected {n_bits} index bits, got {len(bits)}")
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value + 1


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


def assemble_fsc_block(
    start: int,
    data_symbols,
    pilot_seq,
    geometry: FscGeometry,
) -> np.ndarray:
    """Build [outer CP | payload] with the pilot chunk at the given start."""
    data_symbols = np.asarray(data_symbols, dtype=complex).reshape(-1)
    pilot_seq = np.asarray(pilot_seq, dtype=complex).reshape(-1)
    if pilot_seq.size != geometry.pilot_length:
        raise ValueError(f"expected {geometry.pilot_length} pilot symbols")
    if data_symbols.size != geometry.data_length:
        raise ValueError(f"expected {geometry.data_length} data symbols")
    if not 1 <= start <= geometry.candidates:
        raise ValueError(f"start position {start} outside 1..{geometry.candidates}")

    chunk = np.concatenate([pilot_seq[-geometry.cp_length :], pilot_seq])
    payload = np.empty(geometry.payload_length, dtype=complex)
    pos = start - 1
    payload[pos : pos + geometry.chunk_length] = chunk
    mask = np.ones(geometry.payload_length, dtype=bool)
    mask[pos : pos + geometry.chunk_length] = False
    payload[mask] = data_symbols
    return np.concatenate([payload[-geometry.cp_length :], payload])


def apply_cir(signal, taps) -> np.ndarray:
    """Linear convolution with the impulse response, truncated to the block."""
    signal = np.asarray(signal, dtype=complex).reshape(-1)
    taps = np.asarray(taps, dtype=complex).reshape(-1)
    return np.convolve(signal, taps)[: signal.size]


def zf_fde(received_with_cp, cir, cp_length: int) -> np.ndarray:
    """Strip the outer cyclic prefix and invert the channel per frequency bin."""
    received = np.asarray(received_with_cp, dtype=complex).reshape(-1)
    taps = np.asarray(cir, dtype=complex).reshape(-1)
    if taps.size > cp_length:
        raise ValueError("impulse response longer than the cyclic prefix")
    payload = received[cp_length:]
    gains = np.fft.fft(taps, n=payload.size)
    if np.min(np.abs(gains)) < _NULL_TOL:
        raise SpectralNullError("channel frequency response has a spectral null")
    return np.fft.ifft(np.fft.fft(payload) / gains)


def sliding_correlation(equalized, pilot_chunk) -> np.ndarray:
    """Correlations R[n] = sum_k p(k) * conj(x(n+k-1)), one per start position."""
    equalized = np.asarray(equalized, dtype=complex).reshape(-1)
    pilot_chunk = np.asarray(pilot_chunk, dtype=complex).reshape(-1)
    if equalized.size < pilot_chunk.size:
        raise ValueError("equalized signal shorter than the pilot sequence")
    return np.correlate(np.conj(equalized), np.conj(pilot_chunk), mode="valid")


def detect_start_index(correlations) -> int:
    """1-based argmax of |R|^2, ties to the smallest position."""
    correlations = np.asarray(correlations).reshape(-1)
    if correlations.size == 0:
        raise ValueError("empty correlation vector")
    return int(np.argmax(np.abs(correlations) ** 2)) + 1


def random_well_conditioned_cir(
    length: int, rng: np.random.Generator, min_gain: float = 0.3
) -> np.ndarray:
    """Unit leading tap plus small random taps, redrawn until every frequency
    bin stays above ``min_gain`` (checked on a dense grid)."""
    while True:
        tail = 0.2 * (rng.normal(size=length - 1) + 1j * rng.normal(size=length - 1))
        taps = np.concatenate([[1.0 + 0.0j], tail])
        gains = np.fft.fft(taps, n=256)
        if np.min(np.abs(gains)) >= min_gain:
            return taps


def run_fsc_trials(
    geometry: FscGeometry,
    trials: int,
    rng: np.random.Generator,
    data_points: np.ndarray,
    pilot_seq: np.ndarray | None = None,
):
    """Noiseless end-to-end round trips; returns (true, detected) start pairs.

    Each trial draws fresh index bits, data symbols and a well-conditioned
    impulse response, then runs CP framing, convolution, equalization and
    correlation detection.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if pilot_seq is None:
        pilot_seq = zadoff_chu(geometry.pilot_length)
    chunk = np.concatenate([pilot_seq[-geometry.cp_length :], pilot_seq])
    n_bits = fsc_index_bits(geometry)
    pairs = []
    for _ in range(trials):
        bits = rng.integers(0, 2, n_bits)
        start = encode_start_index(bits, geometry)
        data = data_points[rng.integers(0, data_points.size, geometry.data_length)]
        block = assemble_fsc_block(start, data, pilot_seq, geometry)
        taps = random_well_conditioned_cir(geometry.cir_length, rng)
        equalized = zf_fde(apply_cir(block, taps), taps, geometry.cp_length)
        detected = detect_start_index(sliding_correlation(equalized, chunk))
        pairs.append((start, detected))
    return pairs
