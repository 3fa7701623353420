import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impilot.constellation import build_data_alphabet, build_pilot_alphabet, map_bits_array
from impilot.im_codec import (
    BlockGeometry,
    UnmappedPatternError,
    assemble_block,
    assemble_blocks,
    demap_patterns,
    index_bits_per_subblock,
    pattern_positions,
    rank_indices,
    se_conventional,
    se_fsc,
    se_proposed,
    select_indices,
)
from impilot.rx_classical import detect_symbols


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


def test_average_power_weighs_each_alphabet_by_its_share_of_the_block():
    data, pilot = build_data_alphabet(4), build_pilot_alphabet(4, 4.0)
    assert BlockGeometry().average_power(data, pilot) == (8 * 4.0 + 56 * 1.0) / 64
    # twelve pilots in 64 samples carry more power than the paper's eight
    assert BlockGeometry(64, 4, 3).average_power(data, pilot) == 1.5625


@pytest.mark.parametrize(
    "length,pilots", [(67, 33), (1000, 500), (10**9, 5 * 10**8)]
)
def test_geometry_rejects_splits_whose_ranks_leave_int64(length, pilots):
    # 67 is the shortest subblock with a split past 2^63.  C(10^9, 5 * 10^8)
    # has about 10^9 bits, so that split must fail without forming it.
    with pytest.raises(ValueError, match=rf"C\({length}, {pilots}\).*2\^63"):
        BlockGeometry(block_length=2 * length, subblocks=2, pilots_per_subblock=pilots)


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


def test_table_one_subblock_layouts():
    g = BlockGeometry(block_length=8, subblocks=2, pilots_per_subblock=2)
    data = build_data_alphabet(4)
    pilots = build_pilot_alphabet(4, 4.0).points[:4]
    # word [0,0]: pilots in slots 1,2 -- word [1,0]: pilots in slots 3,4
    symbols, _ = assemble_block([0, 0, 1, 0], [0] * 8, pilots, g, data)
    first, second = symbols[0, :4], symbols[0, 4:]
    assert np.allclose(first[:2], pilots[:2])
    assert np.allclose(np.abs(first[2:]), 1.0)
    assert np.allclose(second[2:], pilots[2:])
    assert np.allclose(np.abs(second[:2]), 1.0)


def test_assembled_block_positions_and_alphabets():
    rng = np.random.default_rng(2)
    g = BlockGeometry()
    data = build_data_alphabet(4)
    pilot = build_pilot_alphabet(4, 4.0)
    index_bits = rng.integers(0, 2, g.index_bits_per_block)
    symbol_bits = rng.integers(0, 2, g.symbol_bits_per_block(4))
    values = pilot.points[rng.integers(0, 4, g.pilots_per_block)]
    symbols, pattern = assemble_block(index_bits, symbol_bits, values, g, data)
    positions = pattern[0] + np.arange(g.subblocks)[:, None] * g.subblock_length
    mask = np.zeros(g.block_length, dtype=bool)
    mask[positions.reshape(-1)] = True
    # disjoint alphabets make membership testable sample by sample
    assert np.allclose(np.abs(symbols[0, mask]), 2.0)
    assert np.allclose(np.abs(symbols[0, ~mask]), 1.0)


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
        one_symbols, one_pattern = assemble_block(
            index_bits[f], symbol_bits[f], values[f], geometry, data
        )
        assert np.array_equal(symbols[f], one_symbols[0])
        assert np.array_equal(pattern[f], one_pattern[0])


def _lexicographic_sets(n, k):
    """Every set of k positions out of 1..n, in lexicographic order, and the
    sets the index words select: the first 2^bits, but for (4, 2) its fixed
    four-row table."""
    sets = np.array(list(itertools.combinations(range(1, n + 1), k)))
    if (n, k) == (4, 2):
        return sets, np.array([(1, 2), (2, 3), (3, 4), (1, 4)])
    return sets, sets[: 1 << index_bits_per_subblock(n, k)]


@pytest.mark.parametrize("n", range(2, 17))
def test_index_words_select_lexicographic_position_sets(n):
    data = build_data_alphabet(4)
    pilots = build_pilot_alphabet(4, 4.0).points
    for k in range(1, n):
        geometry = BlockGeometry(n, 1, k, preamble_length=1)
        bits = geometry.index_bits_per_subblock
        _, selected = _lexicographic_sets(n, k)
        words = np.arange(1 << bits)
        index_bits = (words[:, None] >> np.arange(bits - 1, -1, -1)) & 1
        symbol_bits = np.zeros((words.size, geometry.symbol_bits_per_block(4)))
        values = np.broadcast_to(pilots[:1], (words.size, k))
        _, pattern = assemble_blocks(index_bits, symbol_bits, values, geometry, data)
        assert np.array_equal(pattern[:, 0] + 1, selected), (n, k)
        assert select_indices(index_bits[-1], n, k) == tuple(selected[-1])


@pytest.mark.parametrize("n", range(2, 17))
def test_demap_patterns_flags_exactly_the_sets_without_a_word(n):
    for k in range(1, n):
        sets, selected = _lexicographic_sets(n, k)
        word_of = {tuple(subset): w for w, subset in enumerate(selected.tolist())}
        expected = np.array([word_of.get(tuple(subset), -1) for subset in sets.tolist()])
        bits, unmapped = demap_patterns(sets[None] - 1, n)
        width = index_bits_per_subblock(n, k)
        words = bits.reshape(len(sets), width) @ (1 << np.arange(width - 1, -1, -1))
        assert np.array_equal(unmapped[0], expected < 0), (n, k)
        # a mapped set reads back the word that selects it; the rest read 0
        assert np.array_equal(words, np.maximum(expected, 0)), (n, k)


@st.composite
def geometries(draw):
    """Every subblock split BlockGeometry accepts, subblocks up to 66 long:
    every split of up to 66 positions fits the int64 ranks."""
    subblock_length = draw(st.integers(2, 66))
    pilots = draw(st.integers(1, subblock_length - 1))
    subblocks = draw(st.integers(1, 4))
    return BlockGeometry(subblock_length * subblocks, subblocks, pilots, preamble_length=1)


def _check_demap_round_trip(geometry, rows, seed):
    rng = np.random.default_rng(seed)
    data = build_data_alphabet(4)
    pilots = build_pilot_alphabet(4, 4.0).points
    index_bits = rng.integers(0, 2, (rows, geometry.index_bits_per_block))
    symbol_bits = rng.integers(0, 2, (rows, geometry.symbol_bits_per_block(4)))
    values = pilots[rng.integers(0, 4, (rows, geometry.pilots_per_block))]
    symbols, pattern = assemble_blocks(index_bits, symbol_bits, values, geometry, data)
    bits, unmapped = demap_patterns(pattern, geometry.subblock_length)
    assert unmapped.shape == (rows, geometry.subblocks) and not unmapped.any()
    assert np.array_equal(bits, index_bits)
    # the samples off the pattern are the data symbols, in order
    data_mask = np.ones(symbols.shape, dtype=bool)
    offsets = np.arange(geometry.subblocks)[:, None] * geometry.subblock_length
    np.put_along_axis(data_mask, (pattern + offsets).reshape(rows, -1), False, axis=1)
    detected = detect_symbols(
        symbols[data_mask].reshape(rows, -1), np.tile([1.0, 0.0], (rows, 1)), data
    )
    assert np.array_equal(detected, symbol_bits)


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
    _check_demap_round_trip(geometry, rows=16, seed=22)


@settings(max_examples=100, deadline=None)
@given(geometry=geometries(), rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_demap_patterns_inverts_stacked_assembly_for_any_geometry(geometry, rows, seed):
    _check_demap_round_trip(geometry, rows, seed)


@settings(max_examples=100, deadline=None)
@given(
    geometry=st.one_of(
        # two pilots in four positions use the fixed table
        st.just(BlockGeometry(16, 4, 2, preamble_length=1)),
        geometries(),
    ),
    rows=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_pattern_positions_split_each_block_into_pilots_and_data(geometry, rows, seed):
    rng = np.random.default_rng(seed)
    data = build_data_alphabet(4)
    pilots = build_pilot_alphabet(4, 4.0).points
    index_bits = rng.integers(0, 2, (rows, geometry.index_bits_per_block))
    symbol_bits = rng.integers(0, 2, (rows, geometry.symbol_bits_per_block(4)))
    values = pilots[rng.integers(0, 4, (rows, geometry.pilots_per_block))]
    symbols, pattern = assemble_blocks(index_bits, symbol_bits, values, geometry, data)
    pilot_at, data_at = pattern_positions(pattern, geometry.subblock_length)
    # disjoint, and together every position of the block
    every = np.sort(np.concatenate([pilot_at, data_at], axis=1), axis=1)
    assert np.array_equal(every, np.tile(np.arange(geometry.block_length), (rows, 1)))
    per_sub = geometry.pilots_per_subblock
    for positions, width in ((pilot_at, per_sub), (data_at, geometry.subblock_length - per_sub)):
        assert positions.shape == (rows, geometry.subblocks * width)
        # each subblock's own positions, ascending
        subblock = positions.reshape(rows, geometry.subblocks, width) // geometry.subblock_length
        assert (subblock == np.arange(geometry.subblocks)[:, None]).all()
        assert (np.diff(positions, axis=1) > 0).all()
    assert np.array_equal(np.take_along_axis(symbols, pilot_at, axis=1), values)
    assert np.array_equal(
        np.take_along_axis(symbols, data_at, axis=1),
        map_bits_array(symbol_bits.reshape(-1), data).reshape(rows, -1),
    )
