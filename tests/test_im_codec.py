import itertools

import numpy as np
import pytest

from impilot.constellation import build_data_alphabet, build_pilot_alphabet
from impilot.im_codec import (
    BlockGeometry,
    IndexPattern,
    UnmappedPatternError,
    assemble_block,
    assemble_blocks,
    demap_patterns,
    disassemble_block,
    index_bits_per_subblock,
    rank_indices,
    se_conventional,
    se_fsc,
    se_proposed,
    select_indices,
)


@pytest.mark.parametrize(
    "length,pilots,expected", [(8, 1, 3), (4, 2, 2), (8, 2, 4), (16, 2, 6)]
)
def test_index_bit_counts(length, pilots, expected):
    assert index_bits_per_subblock(length, pilots) == expected


def test_index_bit_count_rejects_bad_split():
    with pytest.raises(ValueError):
        index_bits_per_subblock(4, 4)
    with pytest.raises(ValueError):
        index_bits_per_subblock(4, 0)


def test_four_two_lookup_table():
    table = {
        (0, 0): (1, 2),
        (0, 1): (2, 3),
        (1, 0): (3, 4),
        (1, 1): (1, 4),
    }
    for word, subset in table.items():
        assert select_indices(word, 4, 2) == subset
        assert rank_indices(subset, 4, 2) == word


def test_singleton_mapping_is_binary_position():
    assert select_indices([0, 0, 0], 8, 1) == (1,)
    assert select_indices([1, 1, 1], 8, 1) == (8,)
    assert select_indices([0, 1, 0], 8, 1) == (3,)


@pytest.mark.parametrize("length,pilots", [(4, 2), (8, 1), (8, 2), (16, 2)])
def test_rank_select_round_trip(length, pilots):
    bits = index_bits_per_subblock(length, pilots)
    for word in itertools.product((0, 1), repeat=bits):
        subset = select_indices(word, length, pilots)
        assert len(subset) == pilots
        assert all(1 <= i <= length for i in subset)
        assert rank_indices(subset, length, pilots) == word


def test_unmapped_pattern_signalled():
    # (4, 2) maps four of the six subsets; the two diagonals have no word
    with pytest.raises(UnmappedPatternError):
        rank_indices((1, 3), 4, 2)
    with pytest.raises(UnmappedPatternError):
        rank_indices((2, 4), 4, 2)


def test_rank_indices_validates_shape():
    with pytest.raises(ValueError):
        rank_indices((2, 1), 4, 2)
    with pytest.raises(ValueError):
        rank_indices((0, 1), 4, 2)
    with pytest.raises(ValueError):
        rank_indices((1, 5), 4, 2)


def test_geometry_properties():
    g = BlockGeometry()
    assert g.subblock_length == 8
    assert g.pilots_per_block == 8
    assert g.data_per_block == 56
    assert g.frame_length == 6400
    assert g.index_bits_per_block == 24
    assert g.symbol_bits_per_block(4) == 112


def test_geometry_validation():
    with pytest.raises(ValueError):
        BlockGeometry(block_length=64, subblocks=7)
    with pytest.raises(ValueError):
        BlockGeometry(block_length=64, subblocks=8, pilots_per_subblock=8)
    with pytest.raises(ValueError):
        BlockGeometry(preamble_length=64)
    with pytest.raises(ValueError):
        BlockGeometry(blocks_per_frame=0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("block_length", "64"),
        ("subblocks", True),
        ("preamble_length", 2.0),
        ("blocks_per_frame", 2.5),
    ],
)
def test_geometry_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"invalid config value: {field}"):
        BlockGeometry(**{field: value})


def test_index_pattern_validation():
    with pytest.raises(ValueError):
        IndexPattern(((2, 1),))
    with pytest.raises(ValueError):
        IndexPattern(((0, 1),))
    pattern = IndexPattern(((1, 4), (2, 3)))
    assert np.array_equal(pattern.to_array(), [[0, 3], [1, 2]])
    assert IndexPattern.from_array(pattern.to_array()) == pattern


def test_table_one_subblock_layouts():
    g = BlockGeometry(block_length=8, subblocks=2, pilots_per_subblock=2)
    data = build_data_alphabet(4)
    pilots = build_pilot_alphabet(4, 4.0).points[:4]
    # word [0,0]: pilots in slots 1,2 -- word [1,0]: pilots in slots 3,4
    block = assemble_block([0, 0, 1, 0], [0] * 8, pilots, g, data)
    first, second = block.symbols[:4], block.symbols[4:]
    assert np.allclose(first[:2], pilots[:2])
    assert np.allclose(np.abs(first[2:]), 1.0)
    assert np.allclose(second[2:], pilots[2:])
    assert np.allclose(np.abs(second[:2]), 1.0)


def test_assemble_disassemble_round_trip():
    rng = np.random.default_rng(1)
    g = BlockGeometry()
    data = build_data_alphabet(4)
    pilot = build_pilot_alphabet(4, 4.0)
    for _ in range(25):
        index_bits = rng.integers(0, 2, g.index_bits_per_block)
        symbol_bits = rng.integers(0, 2, g.symbol_bits_per_block(4))
        values = pilot.points[rng.integers(0, 4, g.pilots_per_block)]
        block = assemble_block(index_bits, symbol_bits, values, g, data)
        rec_index, rec_symbol = disassemble_block(block, g, data)
        assert np.array_equal(rec_index, index_bits.astype(np.uint8))
        assert np.array_equal(rec_symbol, symbol_bits.astype(np.uint8))


def test_assembled_block_positions_and_alphabets():
    rng = np.random.default_rng(2)
    g = BlockGeometry()
    data = build_data_alphabet(4)
    pilot = build_pilot_alphabet(4, 4.0)
    index_bits = rng.integers(0, 2, g.index_bits_per_block)
    symbol_bits = rng.integers(0, 2, g.symbol_bits_per_block(4))
    values = pilot.points[rng.integers(0, 4, g.pilots_per_block)]
    block = assemble_block(index_bits, symbol_bits, values, g, data)
    positions = block.pattern.absolute_positions(g)
    mask = np.zeros(g.block_length, dtype=bool)
    mask[positions] = True
    # disjoint alphabets make membership testable sample by sample
    assert np.allclose(np.abs(block.symbols[mask]), 2.0)
    assert np.allclose(np.abs(block.symbols[~mask]), 1.0)


def test_assemble_rejects_bad_counts():
    g = BlockGeometry()
    data = build_data_alphabet(4)
    values = build_pilot_alphabet(4, 4.0).points[np.zeros(8, dtype=int)]
    with pytest.raises(ValueError):
        assemble_block([0] * 23, [0] * 112, values, g, data)
    with pytest.raises(ValueError):
        assemble_block([0] * 24, [0] * 111, values, g, data)
    with pytest.raises(ValueError):
        assemble_block([0] * 24, [0] * 112, values[:7], g, data)


def test_spectral_efficiency_values():
    assert se_conventional(64, 2, 4) == pytest.approx(1.9375, abs=0)
    assert se_proposed(8, 1, 4) == pytest.approx(2.125, abs=0)
    assert se_proposed(4, 2, 4) == pytest.approx(1.5, abs=0)
    assert se_proposed(8, 1, 4) > se_conventional(64, 2, 4)


@pytest.mark.parametrize(
    "length,pilots,order",
    [(4, 2, 4), (8, 1, 4), (8, 2, 4), (16, 2, 4), (8, 1, 2), (8, 4, 2)],
)
def test_proposed_beats_plain_modulation_iff_index_bits_dominate(length, pilots, order):
    bits = index_bits_per_subblock(length, pilots)
    gain = se_proposed(length, pilots, order) > np.log2(order)
    assert gain == (bits > pilots * np.log2(order))


def test_se_fsc_adds_index_bits_over_fixed_layout():
    block, cp, pilot_len, order = 64, 4, 8, 4
    fixed = (block - 2 * cp - pilot_len) / block * np.log2(order)
    candidates = block - 2 * cp - pilot_len + 1
    bonus = (candidates.bit_length() - 1) / block
    assert se_fsc(block, cp, pilot_len, order) == pytest.approx(fixed + bonus)


def test_se_validation():
    with pytest.raises(ValueError):
        se_conventional(64, 64, 4)
    with pytest.raises(ValueError):
        se_fsc(16, 4, 16, 4)


@pytest.mark.parametrize(
    "geometry",
    [BlockGeometry(), BlockGeometry(block_length=32, pilots_per_subblock=2)],
)
def test_stacked_assembly_rows_match_one_block_assembly(geometry):
    rng = np.random.default_rng(21)
    data = build_data_alphabet(4)
    pilots = build_pilot_alphabet(4, 4.0).points
    rows = 6
    index_bits = rng.integers(0, 2, (rows, geometry.index_bits_per_block))
    symbol_bits = rng.integers(0, 2, (rows, geometry.symbol_bits_per_block(4)))
    values = pilots[rng.integers(0, 4, (rows, geometry.pilots_per_block))]
    symbols, pattern = assemble_blocks(index_bits, symbol_bits, values, geometry, data)
    for f in range(rows):
        block = assemble_block(index_bits[f], symbol_bits[f], values[f], geometry, data)
        assert np.array_equal(symbols[f], block.symbols)
        assert IndexPattern.from_array(pattern[f]) == block.pattern


@pytest.mark.parametrize(
    "geometry",
    [
        BlockGeometry(),
        # six positions carry two bits, so two position sets map to no word
        BlockGeometry(block_length=48),
        # two pilots in four positions use the fixed table
        BlockGeometry(block_length=32, pilots_per_subblock=2),
    ],
    ids=["default", "block_length_48", "table_4_2"],
)
def test_demap_patterns_inverts_stacked_assembly(geometry):
    rng = np.random.default_rng(22)
    data = build_data_alphabet(4)
    pilots = build_pilot_alphabet(4, 4.0).points
    rows = 16
    index_bits = rng.integers(0, 2, (rows, geometry.index_bits_per_block))
    symbol_bits = rng.integers(0, 2, (rows, geometry.symbol_bits_per_block(4)))
    values = pilots[rng.integers(0, 4, (rows, geometry.pilots_per_block))]
    _, pattern = assemble_blocks(index_bits, symbol_bits, values, geometry, data)
    bits, unmapped = demap_patterns(
        pattern, geometry.subblock_length, geometry.pilots_per_subblock
    )
    assert unmapped.shape == (rows, geometry.subblocks) and not unmapped.any()
    assert np.array_equal(bits, index_bits)
