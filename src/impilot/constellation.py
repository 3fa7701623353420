"""PSK alphabets for mixed pilot/data signalling.

Two disjoint phase-shift-keying alphabets share the complex plane: a
unit-power data alphabet whose points sit at odd multiples of pi/M, and a
boosted pilot alphabet on the axes (phase offset zero) whose average power
is a configurable factor ``gamma`` above the data power.  Keeping the rings
interleaved in phase guarantees the two sets never intersect, which is what
lets a receiver classify a sample as pilot or data before knowing where the
pilots were inserted.
"""

import numpy as np

__all__ = [
    "Constellation",
    "build_data_alphabet",
    "build_pilot_alphabet",
    "scaled",
    "min_cross_distance",
    "map_bits_array",
]

_DISJOINT_TOL = 1e-9


class Constellation:
    """Fixed M-ary alphabet with Gray-coded bit labels.

    Points are ordered by increasing phase.  Point ``k`` carries the Gray
    code of ``k`` as its bit label (MSB first), so neighbouring points
    differ in exactly one bit and the all-zero label lands on the smallest
    phase.
    """

    def __init__(self, points):
        points = np.asarray(points, dtype=complex).copy()
        order = points.size
        if order < 2 or order & (order - 1):
            raise ValueError(f"constellation order must be a power of two, got {order}")
        points.setflags(write=False)
        self.points = points
        self.order = order
        self.bits_per_symbol = order.bit_length() - 1

        idx = np.arange(order)
        gray = idx ^ (idx >> 1)
        inverse = np.empty(order, dtype=np.int64)
        inverse[gray] = idx
        self._word_to_index = inverse   # label value -> point index

        shifts = np.arange(self.bits_per_symbol - 1, -1, -1)
        bits = (gray[:, None] >> shifts[None, :]) & 1
        bits = bits.astype(np.uint8)
        bits.setflags(write=False)
        self.label_bits = bits          # (order, bits_per_symbol)
        self.average_power = float(np.mean(np.abs(points) ** 2))

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"Constellation(order={self.order}, average_power={self.average_power:.6g})"


def build_data_alphabet(order: int) -> Constellation:
    """Unit-power PSK with phase offset pi/order, ordered by increasing phase."""
    if order < 2 or order & (order - 1):
        raise ValueError(f"data alphabet order must be a power of two >= 2, got {order}")
    phases = np.pi / order + 2.0 * np.pi * np.arange(order) / order
    return Constellation(np.exp(1j * phases))


def build_pilot_alphabet(order: int, gamma: float, data_alphabet: Constellation | None = None) -> Constellation:
    """PSK of radius sqrt(gamma) with zero phase offset.

    ``gamma`` is the average power ratio between the pilot and data
    alphabets.  The result must not intersect the data alphabet (the one
    passed in, or the same-order default); offsets/ratios that collide are
    rejected.
    """
    if order < 2 or order & (order - 1):
        raise ValueError(f"pilot alphabet order must be a power of two >= 2, got {order}")
    if not 0 < gamma < np.inf:
        raise ValueError(f"power ratio gamma must be positive and finite, got {gamma}")
    phases = 2.0 * np.pi * np.arange(order) / order
    pilot = Constellation(np.sqrt(gamma) * np.exp(1j * phases))
    reference = data_alphabet if data_alphabet is not None else build_data_alphabet(order)
    gap = np.abs(pilot.points[:, None] - reference.points[None, :]).min()
    if gap <= _DISJOINT_TOL:
        raise ValueError(
            f"pilot alphabet intersects the data alphabet (closest pair {gap:.3g} apart)"
        )
    return pilot


def scaled(constellation: Constellation, power_scale: float) -> Constellation:
    """Same alphabet with average power multiplied by ``power_scale``."""
    if not 0 < power_scale < np.inf:
        raise ValueError(f"power scale must be positive and finite, got {power_scale}")
    return Constellation(constellation.points * np.sqrt(power_scale))


def min_cross_distance(gamma: float) -> float:
    """Normalized minimum distance between the pilot and data rings.

    Squared distance between the closest pilot/data pair, taking the pilot
    ring at amplitude sqrt(gamma), the data ring at the integer-grid QPSK
    amplitude sqrt(2) with its pi/4 phase offset, and normalizing by the
    mean of the two ring powers.  Closed form 2 - 4/(2/sqrt(g) + sqrt(g)),
    minimized at gamma = 2 where it equals 2 - sqrt(2).
    """
    if not 0 < gamma < np.inf:
        raise ValueError(f"power ratio gamma must be positive and finite, got {gamma}")
    root = np.sqrt(gamma)
    return float(2.0 - 4.0 / (2.0 / root + root))


def map_bits_array(bits: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Points for a flat 0/1 array, one per ``bits_per_symbol`` bits (MSB first)."""
    bits = np.asarray(bits)
    b = constellation.bits_per_symbol
    if bits.size % b:
        raise ValueError(f"bit count {bits.size} not a multiple of {b}")
    groups = bits.reshape(-1, b)
    words = groups[:, 0].astype(np.intp)
    for column in range(1, b):
        words <<= 1
        words |= groups[:, column]
    return np.take(constellation.points, np.take(constellation._word_to_index, words))

