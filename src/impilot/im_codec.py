"""Bit splitting, pilot-position index mapping, and block assembly.

Incoming bits are split into symbol bits (carried by data constellation
points) and index bits (carried by *where* the pilots sit inside each
subblock).  Index words address the lowest lexicographic-rank subsets of
pilot positions, except for the (subblock=4, pilots=2) case which keeps a
fixed four-row permutation.  Ranks are computed in closed form both ways,
so no table grows with the number of position sets.
"""

import math
import operator
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .constellation import Constellation, map_bits_array

__all__ = [
    "UnmappedPatternError",
    "BlockGeometry",
    "index_bits_per_subblock",
    "select_indices",
    "rank_indices",
    "assemble_block",
    "assemble_blocks",
    "pattern_positions",
    "demap_patterns",
    "se_conventional",
    "se_proposed",
    "se_fsc",
]


class UnmappedPatternError(ValueError):
    """A detected pilot position set has no index-bit preimage."""


# Lexicographic rank each index word selects for (subblock_length=4,
# pilots_per_subblock=2), and its inverse.  Deliberately not the first four
# ranks: the fourth word maps to the outer pair {1, 4}, and the diagonals
# {1, 3} and {2, 4} carry no word.
_RANKS_4_2 = np.array([0, 3, 5, 2])
_WORDS_4_2 = np.array([0, -1, 3, 1, -1, 2])


def index_bits_per_subblock(subblock_length: int, pilots_per_subblock: int) -> int:
    """Number of bits a subblock's pilot placement can carry."""
    _check_subblock(subblock_length, pilots_per_subblock)
    return math.comb(subblock_length, pilots_per_subblock).bit_length() - 1


def _check_integer_fields(config, names) -> None:
    """Store each named field of a frozen config as a Python int, or raise
    ValueError naming the field; bools and floats are not counts."""
    for name in names:
        value = getattr(config, name)
        try:
            if isinstance(value, bool):
                raise TypeError
            object.__setattr__(config, name, operator.index(value))
        except TypeError:
            raise ValueError(
                f"invalid config value: {name} must be an integer, got {value!r}"
            ) from None


def _check_subblock(n, k):
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= pilots ({k}) < subblock length ({n})")
    # Ranks are int64.  C(n, k) >= 2^min(k, n - k), so a wide split fails
    # without forming its huge binomial.
    if min(k, n - k) >= 63 or math.comb(n, k) >= 1 << 63:
        raise ValueError(f"C({n}, {k}) pilot position sets reach 2^63, the int64 limit")


@lru_cache(maxsize=None)
def _binomials(n: int, k: int) -> np.ndarray:
    """(k + 1, n) table holding C(m, i) at [i, m], capped at C(n, k).  A
    set of k positions out of n sums to less than C(n, k), so the cap only
    touches entries that no rank uses, and it keeps the table in int64."""
    count = math.comb(n, k)
    rows = [[min(math.comb(m, i), count) for m in range(n)] for i in range(k + 1)]
    table = np.array(rows, dtype=np.int64)
    table.setflags(write=False)
    return table


def _offsets_of_words(words, n: int, k: int) -> np.ndarray:
    """Sorted 0-based offsets (..., k) of the position sets that index words
    (...) select.  A set of lexicographic rank r satisfies
    C(n, k) - 1 - r = sum_j C(n - 1 - o_j, k - j); each step takes the
    largest binomial that still fits."""
    words = np.asarray(words, dtype=np.int64)
    rest = math.comb(n, k) - 1 - (_RANKS_4_2[words] if (n, k) == (4, 2) else words)
    table = _binomials(n, k)
    offsets = np.empty(words.shape + (k,), dtype=np.int64)
    for j in range(k):
        c = np.searchsorted(table[k - j], rest, side="right") - 1
        rest = rest - table[k - j, c]
        offsets[..., j] = n - 1 - c
    return offsets


def _words_of_offsets(offsets, n: int, k: int) -> np.ndarray:
    """Index words (...) of sorted 0-based offsets (..., k); -1 marks a
    position set that no word selects."""
    picked = _binomials(n, k)[np.arange(k, 0, -1), n - 1 - np.asarray(offsets)]
    ranks = math.comb(n, k) - 1 - picked.sum(axis=-1)
    if (n, k) == (4, 2):
        return _WORDS_4_2[ranks]
    return np.where(ranks < 1 << index_bits_per_subblock(n, k), ranks, -1)


def select_indices(index_bits, subblock_length: int, pilots_per_subblock: int) -> tuple:
    """Map an index-bit word (MSB first) to its sorted pilot position set."""
    bits = index_bits_per_subblock(subblock_length, pilots_per_subblock)
    if len(index_bits) != bits:
        raise ValueError(f"expected {bits} index bits, got {len(index_bits)}")
    word = 0
    for b in index_bits:
        word = (word << 1) | int(b)
    offsets = _offsets_of_words(word, subblock_length, pilots_per_subblock)
    return tuple(int(o) + 1 for o in offsets)


def rank_indices(indices, subblock_length: int, pilots_per_subblock: int) -> tuple:
    """Inverse of :func:`select_indices`.

    Raises :class:`UnmappedPatternError` for a well-formed position set that
    no index word maps to (possible whenever the number of subsets is not a
    power of two), which receivers use to flag undecodable subblocks.
    """
    subset = tuple(int(i) for i in indices)
    if len(subset) != pilots_per_subblock or sorted(set(subset)) != list(subset):
        raise ValueError(f"indices must be {pilots_per_subblock} distinct ascending values")
    if subset[0] < 1 or subset[-1] > subblock_length:
        raise ValueError(f"indices out of range 1..{subblock_length}: {subset}")
    bits = index_bits_per_subblock(subblock_length, pilots_per_subblock)
    word = int(_words_of_offsets(np.subtract(subset, 1), subblock_length, pilots_per_subblock))
    if word < 0:
        raise UnmappedPatternError(f"pattern {subset} carries no index word")
    return tuple((word >> s) & 1 for s in range(bits - 1, -1, -1))


@dataclass(frozen=True)
class BlockGeometry:
    """Frame layout: how blocks split into subblocks, pilots, and preambles."""

    block_length: int = 64
    subblocks: int = 8
    pilots_per_subblock: int = 1
    preamble_length: int = 2
    init_preamble_length: int = 2
    blocks_per_frame: int = 100

    def __post_init__(self):
        _check_integer_fields(self, [f.name for f in fields(self)])
        if self.block_length < 2 or self.subblocks < 1:
            raise ValueError("block_length >= 2 and subblocks >= 1 required")
        if self.block_length % self.subblocks:
            raise ValueError(
                f"subblocks ({self.subblocks}) must divide block_length ({self.block_length})"
            )
        _check_subblock(self.subblock_length, self.pilots_per_subblock)
        if self.preamble_length < 1 or self.init_preamble_length < 1:
            raise ValueError("preamble lengths must be >= 1")
        if self.preamble_length >= self.block_length:
            raise ValueError("preamble_length must be smaller than block_length")
        if self.blocks_per_frame < 1:
            raise ValueError("blocks_per_frame must be >= 1")

    @property
    def subblock_length(self) -> int:
        return self.block_length // self.subblocks

    @property
    def pilots_per_block(self) -> int:
        return self.subblocks * self.pilots_per_subblock

    @property
    def data_per_block(self) -> int:
        return self.block_length - self.pilots_per_block

    @property
    def frame_length(self) -> int:
        return self.blocks_per_frame * self.block_length

    @property
    def index_bits_per_subblock(self) -> int:
        return index_bits_per_subblock(self.subblock_length, self.pilots_per_subblock)

    @property
    def index_bits_per_block(self) -> int:
        return self.subblocks * self.index_bits_per_subblock

    def symbol_bits_per_block(self, data_order: int) -> int:
        return self.data_per_block * (data_order.bit_length() - 1)

    def average_power(self, data: Constellation, pilot: Constellation) -> float:
        """Average power of a block carrying these alphabets."""
        return (
            self.pilots_per_block * pilot.average_power + self.data_per_block * data.average_power
        ) / self.block_length


def assemble_blocks(
    index_bits,
    symbol_bits,
    pilot_symbols,
    geometry: BlockGeometry,
    data_alphabet: Constellation,
):
    """Interleave data symbols with pilots at the positions the index bits
    select, one block per row.

    Takes (rows, index bits), (rows, symbol bits) and (rows, pilots) arrays.
    Returns the transmitted symbols (rows, block_length) and the pilot
    pattern as 0-based offsets (rows, subblocks, pilots_per_subblock).
    """
    index_bits = np.asarray(index_bits, dtype=np.uint8)
    symbol_bits = np.asarray(symbol_bits, dtype=np.uint8)
    pilot_symbols = np.asarray(pilot_symbols, dtype=complex)
    rows = index_bits.shape[0]

    if index_bits.shape[1:] != (geometry.index_bits_per_block,):
        raise ValueError(
            f"expected {geometry.index_bits_per_block} index bits, got {index_bits.shape[1:]}"
        )
    n_symbol_bits = geometry.data_per_block * data_alphabet.bits_per_symbol
    if symbol_bits.shape != (rows, n_symbol_bits):
        raise ValueError(f"expected {n_symbol_bits} symbol bits, got {symbol_bits.shape[1:]}")
    if pilot_symbols.shape != (rows, geometry.pilots_per_block):
        raise ValueError(
            f"expected {geometry.pilots_per_block} pilot symbols, got {pilot_symbols.shape[1:]}"
        )

    bits = geometry.index_bits_per_subblock
    words = index_bits.reshape(rows, geometry.subblocks, bits).astype(np.int64) @ (
        1 << np.arange(bits - 1, -1, -1)
    )
    pattern = _offsets_of_words(words, geometry.subblock_length, geometry.pilots_per_subblock)
    pilot_at, data_at = pattern_positions(pattern, geometry.subblock_length)
    data = map_bits_array(symbol_bits, data_alphabet).reshape(data_at.shape)

    symbols = np.empty((rows, geometry.block_length), dtype=complex)
    np.put_along_axis(symbols, pilot_at, pilot_symbols, axis=1)
    np.put_along_axis(symbols, data_at, data, axis=1)
    return symbols, pattern


def pattern_positions(pattern, subblock_length: int):
    """Pilot positions (..., pilots_per_block) and data positions (...,
    data_per_block) in the block, each ascending, of sorted 0-based patterns
    (..., subblocks, pilots).  A subblock's j-th data position is j plus the
    number of its pilots p_k (k-th smallest, from 0) with p_k - k <= j."""
    pattern = np.asarray(pattern)
    *lead, subblocks, pilots = pattern.shape
    starts = np.arange(subblocks)[:, None] * subblock_length
    rank = np.arange(subblock_length - pilots)
    data_at = ((pattern - np.arange(pilots))[..., None] <= rank).sum(axis=-2)
    data_at += rank + starts
    return tuple(p.reshape(*lead, subblocks * p.shape[-1]) for p in (pattern + starts, data_at))


def demap_patterns(pattern, subblock_length: int):
    """Inverse of :func:`assemble_blocks`'s pattern: the index bits
    (rows, subblocks * bits) and unmapped flags (rows, subblocks) of sorted
    0-based position sets (rows, subblocks, pilots).  A position set that no
    index word maps to reads as zero bits with its flag set."""
    pattern = np.asarray(pattern)
    pilots_per_subblock = pattern.shape[-1]
    words = _words_of_offsets(pattern, subblock_length, pilots_per_subblock)
    bits = index_bits_per_subblock(subblock_length, pilots_per_subblock)
    index_bits = (np.maximum(words, 0)[..., None] >> np.arange(bits - 1, -1, -1)) & 1
    return index_bits.astype(np.uint8).reshape(pattern.shape[0], -1), words < 0


def assemble_block(
    index_bits,
    symbol_bits,
    pilot_symbols,
    geometry: BlockGeometry,
    data_alphabet: Constellation,
):
    """:func:`assemble_blocks` on a stack of one block: flat bit and pilot
    arrays in, (symbols, pattern) out with a leading axis of 1."""
    return assemble_blocks(
        np.reshape(index_bits, (1, -1)),
        np.reshape(symbol_bits, (1, -1)),
        np.reshape(pilot_symbols, (1, -1)),
        geometry,
        data_alphabet,
    )


def se_conventional(block_length: int, preamble_length: int, order: int) -> float:
    """Bits per channel use with a fixed preamble eating into every block."""
    if not 0 < preamble_length < block_length:
        raise ValueError("need 0 < preamble_length < block_length")
    return (block_length - preamble_length) / block_length * math.log2(order)


def se_proposed(subblock_length: int, pilots_per_subblock: int, data_order: int) -> float:
    """Bits per channel use when pilot positions carry index bits."""
    bits = index_bits_per_subblock(subblock_length, pilots_per_subblock)
    data = (subblock_length - pilots_per_subblock) * math.log2(data_order)
    return (data + bits) / subblock_length


def se_fsc(block_length: int, cp_length: int, pilot_length: int, data_order: int) -> float:
    """Bits per channel use for the cyclic-prefix framed movable-pilot layout."""
    candidates = block_length - 2 * cp_length - pilot_length + 1
    if candidates < 1:
        raise ValueError("pilot sequence plus prefixes do not fit in the block")
    data = (block_length - 2 * cp_length - pilot_length) * math.log2(data_order)
    return (data + (candidates.bit_length() - 1)) / block_length
