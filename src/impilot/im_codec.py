"""Bit splitting, pilot-position index mapping, and block assembly.

Incoming bits are split into symbol bits (carried by data constellation
points) and index bits (carried by *where* the pilots sit inside each
subblock).  Index words address the lowest lexicographic-rank subsets of
pilot positions, except for the (subblock=4, pilots=2) case which keeps a
fixed four-row lookup table.
"""

import math
import operator
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .constellation import Constellation, demap_hard_array, map_bits_array

__all__ = [
    "UnmappedPatternError",
    "BlockGeometry",
    "IndexPattern",
    "DataBlock",
    "index_bits_per_subblock",
    "select_indices",
    "rank_indices",
    "assemble_block",
    "assemble_blocks",
    "demap_patterns",
    "disassemble_block",
    "se_conventional",
    "se_proposed",
    "se_fsc",
]


class UnmappedPatternError(ValueError):
    """A detected pilot position set has no index-bit preimage."""


# Fixed lookup for (subblock_length=4, pilots_per_subblock=2).  Deliberately
# not lexicographic: the fourth word maps to the outer pair {1, 4}.
_TABLE_4_2 = ((1, 2), (2, 3), (3, 4), (1, 4))


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


def _check_subblock(subblock_length, pilots_per_subblock):
    if not 1 <= pilots_per_subblock < subblock_length:
        raise ValueError(
            f"need 1 <= pilots ({pilots_per_subblock}) < subblock length ({subblock_length})"
        )


def _unrank_lex(rank: int, n: int, k: int) -> tuple:
    """k-subset of {1..n} with lexicographic rank ``rank``."""
    out = []
    r = rank
    c = 1
    for remaining in range(k, 0, -1):
        while True:
            block = math.comb(n - c, remaining - 1)
            if r < block:
                break
            r -= block
            c += 1
        out.append(c)
        c += 1
    return tuple(out)


@lru_cache(maxsize=None)
def _index_tables(subblock_length: int, pilots_per_subblock: int):
    """(word -> subset tuple, subset tuple -> word) for all mapped words."""
    bits = index_bits_per_subblock(subblock_length, pilots_per_subblock)
    if (subblock_length, pilots_per_subblock) == (4, 2):
        subsets = _TABLE_4_2
    else:
        subsets = tuple(
            _unrank_lex(r, subblock_length, pilots_per_subblock)
            for r in range(1 << bits)
        )
    return subsets, {s: w for w, s in enumerate(subsets)}


def select_indices(index_bits, subblock_length: int, pilots_per_subblock: int) -> tuple:
    """Map an index-bit word (MSB first) to its sorted pilot position set."""
    bits = index_bits_per_subblock(subblock_length, pilots_per_subblock)
    if len(index_bits) != bits:
        raise ValueError(f"expected {bits} index bits, got {len(index_bits)}")
    word = 0
    for b in index_bits:
        word = (word << 1) | int(b)
    subsets, _ = _index_tables(subblock_length, pilots_per_subblock)
    return subsets[word]


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
    _, reverse = _index_tables(subblock_length, pilots_per_subblock)
    word = reverse.get(subset)
    if word is None:
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


@dataclass(frozen=True)
class IndexPattern:
    """Sorted pilot position sets, one tuple per subblock (positions 1-based)."""

    per_subblock: tuple

    def __post_init__(self):
        for g, subset in enumerate(self.per_subblock):
            if any(subset[i] >= subset[i + 1] for i in range(len(subset) - 1)):
                raise ValueError(f"subblock {g}: positions must be strictly ascending")
            if subset and subset[0] < 1:
                raise ValueError(f"subblock {g}: positions are 1-based")

    @classmethod
    def from_array(cls, positions: np.ndarray) -> "IndexPattern":
        """From a (subblocks, pilots) array of 0-based intra-subblock offsets."""
        return cls(tuple(tuple(int(i) + 1 for i in row) for row in positions))

    def to_array(self) -> np.ndarray:
        """(subblocks, pilots) array of 0-based intra-subblock offsets."""
        return np.asarray(self.per_subblock, dtype=np.int64) - 1

    def absolute_positions(self, geometry: BlockGeometry) -> np.ndarray:
        """Flat 0-based positions of every pilot inside the block."""
        offsets = self.to_array()
        base = np.arange(geometry.subblocks)[:, None] * geometry.subblock_length
        return (offsets + base).reshape(-1)


@dataclass(frozen=True)
class DataBlock:
    """One transmitted block plus the ground truth needed for scoring."""

    symbols: np.ndarray
    pattern: IndexPattern
    index_bits: np.ndarray
    symbol_bits: np.ndarray
    pilot_symbols: np.ndarray


@lru_cache(maxsize=None)
def _offset_table(subblock_length: int, pilots_per_subblock: int) -> np.ndarray:
    """(words, pilots) array: the 0-based offsets each index word selects."""
    subsets, _ = _index_tables(subblock_length, pilots_per_subblock)
    table = np.asarray(subsets, dtype=np.int64) - 1
    table.setflags(write=False)
    return table


def assemble_blocks(
    index_bits,
    symbol_bits,
    pilot_symbols,
    geometry: BlockGeometry,
    data_alphabet: Constellation,
):
    """Stacked form of :func:`assemble_block`, one block per row.

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
    pattern = _offset_table(geometry.subblock_length, geometry.pilots_per_subblock)[words]
    positions = (
        pattern + np.arange(geometry.subblocks)[:, None] * geometry.subblock_length
    ).reshape(rows, -1)

    symbols = np.empty((rows, geometry.block_length), dtype=complex)
    pilot_mask = np.zeros((rows, geometry.block_length), dtype=bool)
    np.put_along_axis(pilot_mask, positions, True, axis=1)
    np.put_along_axis(symbols, positions, pilot_symbols, axis=1)
    symbols[~pilot_mask] = map_bits_array(symbol_bits.reshape(-1), data_alphabet)
    return symbols, pattern


@lru_cache(maxsize=None)
def _word_table(n: int, k: int):
    """(weights, words, unmapped): the index word of every set of k pilot
    positions out of n, addressed by the set's lexicographic rank.  Sorted
    0-based offsets o_0 < ... have rank C(n, k) - 1 - sum_j weights[j, o_j];
    ``words`` holds each rank's index bits (zeros where ``unmapped``)."""
    weights = np.array(
        [[math.comb(n - 1 - o, k - j) for o in range(n)] for j in range(k)], dtype=np.int64
    )
    count = math.comb(n, k)
    ranks = count - 1 - weights[np.arange(k), _offset_table(n, k)].sum(axis=-1)
    bits = index_bits_per_subblock(n, k)
    words = np.zeros((count, bits), dtype=np.uint8)
    words[ranks] = (np.arange(ranks.size)[:, None] >> np.arange(bits - 1, -1, -1)) & 1
    unmapped = np.ones(count, dtype=bool)
    unmapped[ranks] = False
    return weights, words, unmapped


def demap_patterns(pattern, subblock_length: int, pilots_per_subblock: int):
    """Inverse of :func:`assemble_blocks`'s pattern: the index bits
    (rows, subblocks * bits) and unmapped flags (rows, subblocks) of sorted
    0-based position sets (rows, subblocks, pilots).  A position set that no
    index word maps to reads as zero bits with its flag set."""
    pattern = np.asarray(pattern)
    weights, words, unmapped = _word_table(subblock_length, pilots_per_subblock)
    picked = weights[np.arange(pilots_per_subblock), pattern].sum(axis=-1)
    rank = words.shape[0] - 1 - picked
    return words[rank].reshape(pattern.shape[0], -1), unmapped[rank]


def assemble_block(
    index_bits,
    symbol_bits,
    pilot_symbols,
    geometry: BlockGeometry,
    data_alphabet: Constellation,
) -> DataBlock:
    """Interleave data symbols with pilots at the positions the index bits select."""
    index_bits = np.asarray(index_bits, dtype=np.uint8).reshape(-1)
    symbol_bits = np.asarray(symbol_bits, dtype=np.uint8).reshape(-1)
    pilot_symbols = np.asarray(pilot_symbols, dtype=complex).reshape(-1)
    symbols, pattern = assemble_blocks(
        index_bits[None], symbol_bits[None], pilot_symbols[None], geometry, data_alphabet
    )
    return DataBlock(
        symbols=symbols[0],
        pattern=IndexPattern.from_array(pattern[0]),
        index_bits=index_bits,
        symbol_bits=symbol_bits,
        pilot_symbols=pilot_symbols,
    )


def disassemble_block(block: DataBlock, geometry: BlockGeometry, data_alphabet: Constellation):
    """Recover (index_bits, symbol_bits) from a block with known pattern."""
    index_bits = np.concatenate(
        [
            rank_indices(subset, geometry.subblock_length, geometry.pilots_per_subblock)
            for subset in block.pattern.per_subblock
        ]
    ).astype(np.uint8)
    positions = block.pattern.absolute_positions(geometry)
    pilot_mask = np.zeros(geometry.block_length, dtype=bool)
    pilot_mask[positions] = True
    symbol_bits = demap_hard_array(block.symbols[~pilot_mask], data_alphabet)
    return index_bits, symbol_bits


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
