import json
import math
import pickle
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from impilot.harness import (
    CSV_HEADER,
    DNP_MODES,
    SCHEMES,
    SystemConfig,
    run_experiment,
    run_gamma_sweep,
    run_iteration_histogram,
    write_csv,
    _draw_pilots,
    _simulate_frames,
    _unit_preamble,
)
from impilot import harness
from impilot.constellation import build_pilot_alphabet
from impilot.im_codec import BlockGeometry
from impilot.rx_classical import _LsPilotPart, _pilot_terms

SMALL = BlockGeometry(blocks_per_frame=20)
TINY = BlockGeometry(block_length=16, blocks_per_frame=2)


def quiet_config(**overrides):
    defaults = dict(
        geometry=SMALL, trials=2, min_bit_errors=0, ebn0_db=(12.0,), master_seed=5
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def test_config_round_trip_and_hash():
    cfg = quiet_config()
    clone = SystemConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    assert clone.config_hash() == cfg.config_hash()
    assert replace(cfg, gamma=5.0).config_hash() != cfg.config_hash()


def test_config_rejects_unknown_keys():
    payload = quiet_config().to_dict()
    payload["bandwidth"] = 1e9
    with pytest.raises(ValueError, match="unknown config keys"):
        SystemConfig.from_dict(payload)
    payload = quiet_config().to_dict()
    payload["geometry"]["carrier"] = 3e11
    with pytest.raises(ValueError, match="unknown geometry keys"):
        SystemConfig.from_dict(payload)


@pytest.mark.parametrize(
    "field,value",
    [
        ("scheme", "zero_forcing"),
        ("fading_mode", "rician"),
        ("dnp_mode", "oracle"),
        ("data_order", 3),
        ("gamma", 0.0),
        ("ebn0_db", ()),
        ("trials", 0),
        ("max_iterations", 0),
        # Configs that used to hang or fail mid-run.  Checked at construction
        # only: the hanging ones must never be run.
        ("pilot_order", 2),
        ("ebn0_db", 5),
        ("geometry", BlockGeometry(block_length=16, subblocks=2, blocks_per_frame=20)),
        ("geometry", BlockGeometry(init_preamble_length=1, blocks_per_frame=20)),
        # Non-finite values ran to a silent NaN; a negative phase step failed
        # mid-run.
        ("ebn0_db", (4.0, math.nan)),
        ("ebn0_db", (math.inf,)),
        ("gamma", math.nan),
        ("gamma", math.inf),
        ("path_gain", math.inf),
        ("amplitude_imbalance", math.nan),
        ("phase_imbalance_deg", -math.inf),
        ("phase_step_std_deg", math.nan),
        ("phase_step_std_deg", -1.0),
        ("distortion_level_db", math.nan),
        ("distortion_level_db", -math.inf),
        # A string grid was read character by character; counts of the wrong
        # type, a negative seed and string flags failed mid-run or ran the
        # wrong thing.
        ("ebn0_db", "16"),
        ("ebn0_db", b"16"),
        ("trials", 2.5),
        ("batch_frames", 2.0),
        ("max_iterations", True),
        ("master_seed", -1),
        ("use_stopping_rule", "no"),
        ("normalize_block_power", "false"),
        # Bools ran as 0 and 1.
        ("gamma", True),
        ("path_gain", True),
        ("amplitude_imbalance", np.True_),
        ("phase_imbalance_deg", False),
        ("phase_step_std_deg", True),
        ("distortion_level_db", False),
        ("gamma", "4"),
        ("ebn0_db", (True,)),
        ("ebn0_db", [4.0, np.False_]),
        # Finite extremes overflowed or divided by zero mid-run.
        ("ebn0_db", (4000.0,)),
        ("ebn0_db", (8.0, -4000.0)),
        ("distortion_level_db", 4000.0),
        ("path_gain", 1e200),
        ("amplitude_imbalance", 1e200),
        ("gamma", 1e300),
        ("gamma", 1e-300),
    ],
)
def test_config_field_validation(field, value):
    with pytest.raises(ValueError, match=field):
        quiet_config(**{field: value})


@pytest.mark.parametrize(
    "scheme,geometry,field",
    [
        # one pilot per block: the pilot redraw loop never ends
        (
            "lower_bound_perfect_pattern",
            BlockGeometry(block_length=8, subblocks=1, blocks_per_frame=20),
            "geometry.subblocks",
        ),
        ("classical_ls", BlockGeometry(preamble_length=1), "geometry.preamble_length"),
        ("classical_mmse", BlockGeometry(preamble_length=1), "geometry.preamble_length"),
    ],
)
def test_config_rejects_scheme_geometry_mismatch(scheme, geometry, field):
    with pytest.raises(ValueError, match=field):
        quiet_config(scheme=scheme, geometry=geometry)


def test_config_rejects_intersecting_alphabets():
    # unit-power 8-PSK pilots land on the QPSK data points
    with pytest.raises(ValueError, match="gamma"):
        quiet_config(gamma=1.0, pilot_order=8)


def test_config_from_dict_reports_bad_values_as_value_errors():
    with pytest.raises(ValueError, match="ebn0_db"):
        SystemConfig.from_dict({"ebn0_db": 5})
    with pytest.raises(ValueError, match="invalid config value"):
        SystemConfig.from_dict({"trials": "5"})
    with pytest.raises(ValueError, match="invalid config value"):
        SystemConfig.from_dict({"geometry": {"block_length": "64"}})
    with pytest.raises(ValueError, match="geometry"):
        SystemConfig.from_dict({"geometry": 5})
    # a null geometry is not read as the default geometry
    with pytest.raises(ValueError, match="geometry must be a mapping"):
        SystemConfig.from_dict({"geometry": None})
    # a one-symbol preamble is fine where it is not used
    SystemConfig(geometry=BlockGeometry(preamble_length=1))
    SystemConfig(scheme="classical_ls", geometry=BlockGeometry(init_preamble_length=1))


@pytest.mark.parametrize("data", [[1, 2], "trials", 5])
def test_config_from_dict_rejects_a_non_mapping(data):
    with pytest.raises(ValueError, match="config must be a mapping"):
        SystemConfig.from_dict(data)


@pytest.mark.parametrize("geometry", [{"block_length": 64}, None, (64, 8, 1, 100)])
def test_config_rejects_a_geometry_that_is_not_a_block_geometry(geometry):
    with pytest.raises(ValueError, match="geometry must be a BlockGeometry"):
        SystemConfig(geometry=geometry)
    with pytest.raises(ValueError, match="geometry must be a BlockGeometry"):
        replace(quiet_config(), geometry=geometry)


def test_config_from_dict_rejects_a_split_beyond_int64_ranks():
    geometry = {"block_length": 134, "subblocks": 2, "pilots_per_subblock": 33}
    with pytest.raises(ValueError, match=r"C\(67, 33\)"):
        SystemConfig.from_dict({"geometry": geometry})


@pytest.mark.parametrize(
    "data,message",
    [
        (
            {"geometry": {"block_length": 2**40, "subblocks": 4, "blocks_per_frame": 1}},
            "blocks_per_frame * block_length is 27487790694400 samples per batch",
        ),
        ({"data_order": 2**40}, "data_order must be <= 1024"),
        ({"pilot_order": 2**40}, "pilot_order must be <= 1024"),
        ({"scheme": "classical_ls", "data_order": 2**40}, "data_order must be <= 1024"),
        (
            {
                "scheme": "classical_ls",
                "trials": 1,
                "geometry": {"block_length": 2**22, "blocks_per_frame": 1},
            },
            "(data_order + pilot_order) is 33554432 distances per block step",
        ),
        # the rescue of this one asked for 1.13 GiB in one array
        (
            {"trials": 25, "geometry": {"block_length": 2048, "subblocks": 1024}},
            "(data_order + pilot_order + 3 * (pilots_per_block + 1)) is 157849600 distances",
        ),
        # a run would keep one count per pass: 10**9 for every frame of a stack
        ({"max_iterations": 10**9}, "max_iterations must be in 1..64, got 1000000000"),
    ],
    ids=[
        "block_length", "data_order", "pilot_order", "classical_data_order", "step", "rescue",
        "max_iterations",
    ],
)
def test_config_from_dict_rejects_batches_too_large_to_hold(data, message):
    # refused from the counts alone, before any alphabet or draw is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(message)):
            SystemConfig.from_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_size_caps_admit_configs_up_to_their_bounds():
    # construction only: nothing is drawn
    cap_blocks = harness._MAX_BATCH_SAMPLES // 64
    SystemConfig(trials=1, geometry=BlockGeometry(blocks_per_frame=cap_blocks))
    with pytest.raises(ValueError, match="samples per batch"):
        SystemConfig(trials=1, geometry=BlockGeometry(blocks_per_frame=cap_blocks + 1))
    # a batch holds min(batch_frames, trials) frames; proposed_turbo's step
    # also counts 3 * (8 + 1) rescue fits per sample
    one_block = BlockGeometry(blocks_per_frame=1)
    for scheme, per_sample in (("classical_ls", 8), ("proposed_turbo", 35)):
        frames = harness._MAX_STEP_DISTANCES // (64 * per_sample)
        SystemConfig(scheme=scheme, trials=frames, batch_frames=10**9, geometry=one_block)
        with pytest.raises(ValueError, match="distances per block step"):
            SystemConfig(
                scheme=scheme, trials=frames + 1, batch_frames=frames + 1, geometry=one_block
            )
    SystemConfig(data_order=1024, pilot_order=1024)
    with pytest.raises(ValueError, match="data_order must be <= 1024"):
        SystemConfig(data_order=2048)
    SystemConfig(max_iterations=64)
    with pytest.raises(ValueError, match="max_iterations must be in 1..64, got 65"):
        SystemConfig(max_iterations=65)


@pytest.mark.parametrize("subblock_length,pilots", [(32, 16), (66, 33), (68, 60)])
def test_wide_subblock_layouts_run_to_completion(subblock_length, pilots):
    # Up to C(66, 33) ~ 7e18 position sets per subblock; at (68, 60) the
    # binomials C(67, i) for i near 33 leave int64.
    geometry = BlockGeometry(2 * subblock_length, 2, pilots, blocks_per_frame=3)
    point = run_experiment(quiet_config(geometry=geometry, trials=2)).points[0]
    assert (point.frames, point.blocks, point.subblocks) == (2, 6, 12)


def test_config_stores_numpy_integer_counts_as_int():
    cfg = quiet_config(
        trials=np.int64(2), geometry=BlockGeometry(blocks_per_frame=np.int64(20))
    )
    assert type(cfg.trials) is int and type(cfg.geometry.blocks_per_frame) is int
    assert cfg.config_hash() == quiet_config().config_hash()


def test_noise_variance_accounting():
    cfg = quiet_config()
    received = (1 + 0.2**2) * (8 * 4.0 + 56.0) / 64.0
    assert cfg.noise_variance_for(0.0) == pytest.approx(received / 2.125)
    assert cfg.noise_variance_for(10.0) == pytest.approx(received / 21.25)
    classical = (1 + 0.2**2) * 1.0
    assert replace(cfg, scheme="classical_ls").noise_variance_for(0.0) == pytest.approx(
        classical / 1.9375
    )


@pytest.mark.parametrize(
    "fields, pilot_builds",
    [
        ({}, 1),
        ({"normalize_block_power": True}, 1),
        ({"scheme": "lower_bound_perfect_pattern"}, 1),
        # a classical config builds its data alphabet, never the pilot one
        ({"scheme": "classical_mmse"}, 0),
    ],
)
def test_config_builds_its_alphabets_once(fields, pilot_builds, monkeypatch, serial_pool):
    counts = {"data": 0, "pilot": 0}

    def counting(name, build):
        def wrapper(*args):
            counts[name] += 1
            return build(*args)

        return wrapper

    for name in counts:
        attr = f"build_{name}_alphabet"
        monkeypatch.setattr(harness, attr, counting(name, getattr(harness, attr)))
    run = dict(geometry=TINY, trials=2, ebn0_db=(10.0,), min_bit_errors=0)
    cfg = SystemConfig(**fields, **run)
    assert counts == {"data": 1, "pilot": pilot_builds}
    replace(cfg, gamma=2.0)
    assert counts == {"data": 2, "pilot": 2 * pilot_builds}
    # the frame loop reads the one build, as one chunk and as two
    run_experiment(cfg)
    run_experiment(cfg, workers=2)
    assert serial_pool.chunks == [[[(0, 0)], [(0, 1)]]]
    assert counts == {"data": 2, "pilot": 2 * pilot_builds}


@pytest.mark.parametrize("scheme", ["classical_ls", "classical_mmse"])
def test_classical_config_never_builds_its_pilot_alphabet(scheme):
    # these alphabets collide, which only a flexible scheme would notice
    cfg = SystemConfig(
        scheme=scheme, data_order=2, pilot_order=4, gamma=1.0, geometry=TINY,
        trials=1, ebn0_db=(10.0,),
    )
    (point,) = run_experiment(cfg).points
    assert point.frames == 1
    with pytest.raises(ValueError, match="intersects"):
        cfg.alphabets()


def test_alphabet_cache_stays_out_of_the_config_identity(monkeypatch):
    fields = dict(geometry=TINY, trials=2, ebn0_db=(4.0, 10.0), min_bit_errors=0)
    used, fresh = SystemConfig(**fields), SystemConfig(**fields)
    used.alphabets()
    run_experiment(used)
    assert used.to_dict() == fresh.to_dict()
    assert used.config_hash() == fresh.config_hash()
    assert used == fresh and hash(used) == hash(fresh)
    variances = [used.noise_variance_for(v) for v in used.ebn0_db]
    assert [fresh.noise_variance_for(v) for v in fresh.ebn0_db] == variances
    clone = pickle.loads(pickle.dumps(used))
    assert clone == used
    # the clone reads the build it was pickled with, as a pool worker does
    with monkeypatch.context() as patch:
        for name in ("build_data_alphabet", "build_pilot_alphabet"):
            patch.setattr(harness, name, None)
        assert [clone.noise_variance_for(v) for v in clone.ebn0_db] == variances
    # replace builds the new config's own alphabets
    pilot = replace(used, gamma=2.0).alphabets()[1]
    assert pilot.average_power == pytest.approx(2.0)
    assert used.alphabets()[1].average_power == pytest.approx(4.0)


def test_spectral_efficiency_per_scheme():
    cfg = quiet_config()
    assert replace(cfg, scheme="proposed_turbo").spectral_efficiency() == 2.125
    assert replace(cfg, scheme="lower_bound_perfect_pattern").spectral_efficiency() == 2.125
    assert replace(cfg, scheme="classical_ls").spectral_efficiency() == 1.9375


def test_normalized_block_power():
    cfg = quiet_config(normalize_block_power=True)
    assert cfg.transmit_power() == pytest.approx(1.0)
    data, pilot = cfg.alphabets()
    assert pilot.average_power / data.average_power == pytest.approx(4.0)


def _rank_two(values):
    """Whether each pilot set on the last axis gives [p, conj(p)] rank two."""
    a = np.sum(np.abs(values) ** 2, axis=-1)
    return a - np.abs(np.sum(values**2, axis=-1)) > 1e-9 * a


def test_pilot_draws_are_never_conjugate_degenerate():
    points = build_pilot_alphabet(4, 4.0).points
    values = _draw_pilots(np.random.default_rng(1), points, 2000, 8)
    assert values.shape == (2000, 8)
    assert np.isin(values, points).all()
    assert _rank_two(values).all()


def test_degenerate_pilot_sets_are_redrawn_from_the_same_stream():
    # Two pilots from the four axis points lie on one line half the time.
    points = build_pilot_alphabet(4, 4.0).points
    first = points[np.random.default_rng(2).integers(0, points.size, (50, 2))]
    kept = _rank_two(first)
    assert 5 < np.count_nonzero(~kept) < 45
    values = _draw_pilots(np.random.default_rng(2), points, 50, 2)
    assert _rank_two(values).all()
    assert np.array_equal(values[kept], first[kept])
    again = _draw_pilots(np.random.default_rng(2), points, 50, 2)
    assert again.tobytes() == values.tobytes()


class _Indices:
    """A generator stand-in whose ``integers`` calls return the given index
    arrays in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def integers(self, low, high, size):
        return np.reshape(self.draws.pop(0), size)


def test_pilot_draw_keeps_exactly_the_sets_the_ls_fit_resolves():
    # The first set is 3.75e-11 of its power away from one line through the
    # origin, which the least-squares fit still resolves, so the draw keeps
    # it; the second lies on that line, so it is redrawn.
    points = np.array([1.0, np.exp(1e-5j), -1.0, 1j])
    near, flat, spread = [0, 1, 0, 2], [0, 2, 0, 2], [0, 3, 0, 2]
    a, s2 = _pilot_terms(points[near])
    assert (a - abs(s2)) / a == pytest.approx(3.75e-11, rel=1e-4)
    solvable = _LsPilotPart.from_terms(*_pilot_terms(points[[near, flat]])).solvable
    assert solvable.tolist() == [True, False]
    values = _draw_pilots(_Indices([near, flat], spread, spread), points, 2, 4)
    assert np.array_equal(values, points[[near, spread]])


def test_unit_preamble_rank():
    for length in (2, 3, 4, 5):
        p = _unit_preamble(length)
        a = float(np.sum(np.abs(p) ** 2))
        assert a - abs(np.sum(p**2)) > 1e-9
        assert np.allclose(np.abs(p), 1.0)


def test_same_seed_reproduces_csv_bytes(tmp_path):
    cfg = quiet_config()
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_csv(run_experiment(cfg), first)
    write_csv(run_experiment(cfg), second)
    assert first.read_bytes() == second.read_bytes()


def test_worker_count_does_not_change_results(tmp_path):
    # batches of 5 and 2 frames, cut into uneven chunks for 2 and 3 workers
    cfg = quiet_config(trials=7, batch_frames=5, ebn0_db=(2.0, 10.0), dnp_mode="refresh")
    # scaled alphabets, which reach the workers pickled inside the config
    scaled = replace(cfg, data_order=16, pilot_order=8, normalize_block_power=True)
    for name, config in (("default", cfg), ("scaled", scaled)):
        outputs = []
        for workers in (1, 2, 3):
            path = tmp_path / f"{name}_workers{workers}.csv"
            write_csv(run_experiment(config, workers=workers), path)
            outputs.append(path.read_bytes())
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


@pytest.mark.parametrize("workers", [2.5, 3.0, True, False, "2", None])
def test_workers_must_be_an_integer(workers):
    # a float used to fail deep in multiprocessing, and True ran as one worker
    with pytest.raises(ValueError, match="workers must be an integer"):
        run_experiment(quiet_config(trials=1), workers=workers)


def _pooled_config(scheme, snrs, **options):
    """A small config over the SNR points ``snrs``, in batches of two."""
    geometry = {"block_length": 16, "blocks_per_frame": 2, **options.pop("geometry", {})}
    return SystemConfig(
        geometry=BlockGeometry(**geometry),
        scheme=scheme,
        ebn0_db=snrs,
        batch_frames=2,
        **options,
    )


@st.composite
def _pooled_configs(draw):
    """A small accepted config over 2-3 SNR points, whose error target may
    stop its points after different batches."""
    points = draw(st.integers(2, 3))
    try:
        return _pooled_config(
            draw(st.sampled_from(SCHEMES)),
            draw(st.lists(st.floats(0.0, 20.0), min_size=points, max_size=points)),
            geometry=dict(
                subblocks=draw(st.sampled_from([2, 4])),
                blocks_per_frame=draw(st.integers(1, 3)),
            ),
            trials=draw(st.integers(1, 5)),
            min_bit_errors=draw(st.sampled_from([0, 1, 10])),
            dnp_mode=draw(st.sampled_from(DNP_MODES)),
            max_iterations=draw(st.integers(1, 4)),
            master_seed=draw(st.integers(0, 2**16)),
        )
    except ValueError:
        reject()


@settings(max_examples=6, deadline=None)
@given(_pooled_configs())
@example(config=_pooled_config("proposed_turbo", (0.0, 16.0), trials=5, min_bit_errors=10))
@example(config=_pooled_config("classical_ls", (2.0, 9.0, 20.0), trials=3, min_bit_errors=0))
@example(config=_pooled_config("classical_mmse", (0.0, 20.0), trials=5, min_bit_errors=5))
@example(
    config=_pooled_config(
        "lower_bound_perfect_pattern", (4.0, 16.0), trials=4, min_bit_errors=1
    )
)
def test_process_pool_gives_the_same_csv_bytes(config):
    # two workers in a real process pool, against one in this process
    with tempfile.TemporaryDirectory() as directory:
        outputs = []
        for workers in (1, 2):
            path = Path(directory) / f"workers{workers}.csv"
            write_csv(run_experiment(config, workers=workers), path)
            outputs.append(path.read_bytes())
    assert outputs[1] == outputs[0]


class SerialExecutor:
    """Stands in for ``ProcessPoolExecutor``: records the pool size asked
    for and the ``(point, trial)`` chunks handed to ``map``, and runs
    ``map`` in this process."""

    sizes: list = []
    chunks: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, iterable):
        iterable = list(iterable)
        self.chunks.append([_keys(chunk) for chunk in iterable])
        return map(fn, iterable)

    def shutdown(self):
        pass


def _keys(chunk) -> list:
    """A chunk's ``(point, trial)`` rows as tuples of ints."""
    return [tuple(int(i) for i in key) for key in chunk]


@pytest.fixture
def serial_pool(monkeypatch):
    SerialExecutor.sizes, SerialExecutor.chunks = [], []
    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialExecutor)
    return SerialExecutor


def test_worker_pool_is_capped_at_the_batch_width(serial_pool):
    # a stack holds at most every point's batch, so more workers than that
    # would be started with nothing to do
    sizes, chunks = serial_pool.sizes, serial_pool.chunks
    cfg = quiet_config(trials=5, batch_frames=2, ebn0_db=(6.0,))
    capped = run_experiment(cfg, workers=10**6)
    assert sizes == [2]
    assert capped.csv_rows() == run_experiment(cfg, workers=1).csv_rows()

    # contiguous chunks in (point, trial) order, none empty, lengths within one
    sizes.clear()
    chunks.clear()
    run_experiment(quiet_config(trials=7, batch_frames=5, ebn0_db=(6.0,)), workers=3)
    assert sizes == [3]
    assert chunks == [
        [[(0, 0), (0, 1)], [(0, 2), (0, 3)], [(0, 4)]],
        [[(0, 5)], [(0, 6)]],
    ]

    # batch b of every point in one stack: never more workers than its rows
    sizes.clear()
    chunks.clear()
    cfg = quiet_config(trials=3, batch_frames=2, ebn0_db=(6.0, 8.0))
    capped = run_experiment(cfg, workers=10**6)
    assert sizes == [4]
    assert capped.csv_rows() == run_experiment(cfg, workers=1).csv_rows()
    sizes.clear()
    chunks.clear()
    run_experiment(cfg, workers=3)
    assert sizes == [3]
    assert chunks == [
        [[(0, 0), (0, 1)], [(1, 0)], [(1, 1)]],
        [[(0, 2)], [(1, 2)]],
    ]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cap", ["samples", "distances"])
def test_stacks_are_cut_within_the_size_caps(cap, workers, serial_pool, monkeypatch):
    # Five points of two-frame batches make a ten-row first stack; with the
    # caps lowered to admit two or three frames, no call may hold more.
    # Every _simulate_frames call is recorded, with one worker and with the
    # in-process pool alike, so no process is started.
    cfg = quiet_config(
        geometry=BlockGeometry(blocks_per_frame=3),
        trials=3,
        batch_frames=2,
        ebn0_db=(0.0, 4.0, 8.0, 12.0, 16.0),
    )
    expected = run_experiment(cfg).csv_rows()
    samples, distances = cfg._frame_size()
    if cap == "samples":
        monkeypatch.setattr(harness, "_MAX_BATCH_SAMPLES", 3 * samples + 1)
        admitted = 3
    else:
        monkeypatch.setattr(harness, "_MAX_STEP_DISTANCES", 2 * distances + 1)
        admitted = 2
    assert cfg._max_stack_frames() == admitted

    calls = []
    simulate = harness._simulate_frames

    def recording(config, keys):
        calls.append(_keys(keys))
        return simulate(config, keys)

    monkeypatch.setattr(harness, "_simulate_frames", recording)
    assert run_experiment(cfg, workers=workers).csv_rows() == expected
    if workers > 1:
        assert serial_pool.sizes == [workers]
        assert [chunk for stack in serial_pool.chunks for chunk in stack] == calls
    # each batch's stack, cut into contiguous chunks of (point, trial) rows
    stacks = [[c for c in calls if c[0][1] // 2 == batch] for batch in (0, 1)]
    assert [[key for chunk in stack for key in chunk] for stack in stacks] == [
        [(p, t) for p in range(5) for t in trials] for trials in ([0, 1], [2])
    ]
    lengths = [[len(chunk) for chunk in stack] for stack in stacks]
    assert max(max(stack) for stack in lengths) <= admitted
    assert all(max(stack) - min(stack) <= 1 for stack in lengths)
    assert lengths[0] == ([3, 3, 2, 2] if admitted == 3 else [2] * 5)


@pytest.mark.parametrize(
    "overrides",
    [
        # 0 dB with eight iterations and DNP refresh runs the rescue often
        dict(ebn0_db=(0.0,), max_iterations=8, dnp_mode="refresh"),
        dict(ebn0_db=(10.0,)),
        dict(ebn0_db=(4.0,), scheme="lower_bound_perfect_pattern"),
        dict(ebn0_db=(4.0,), scheme="classical_mmse"),
        dict(ebn0_db=(4.0,), scheme="classical_ls"),
        # two pilots per block: degenerate pilot sets, and so redraws, are common
        dict(
            ebn0_db=(4.0,),
            scheme="lower_bound_perfect_pattern",
            geometry=BlockGeometry(block_length=8, subblocks=2, blocks_per_frame=20),
        ),
    ],
)
def test_frame_tally_does_not_depend_on_its_lockstep_chunk(overrides):
    # five frames of point 1 stacked with five of a 20 dB point 0
    cfg = quiet_config(**overrides)
    cfg = replace(cfg, ebn0_db=(20.0,) + cfg.ebn0_db)
    keys = [(point, trial) for point in (0, 1) for trial in range(5)]
    counts, mse = _simulate_frames(cfg, keys)
    # one column per pass for proposed_turbo only
    passes = cfg.max_iterations if cfg.scheme == "proposed_turbo" else 0
    assert counts.dtype == np.int64 and counts.shape == (10, 4 + passes)
    assert mse.dtype == np.float64 and mse.shape == (10, 2)
    for row, key in enumerate(keys):
        alone = _simulate_frames(cfg, [key])
        assert np.array_equal(alone[0], counts[row : row + 1])
        assert np.array_equal(alone[1], mse[row : row + 1])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_frame_rows_do_not_depend_on_the_blocks_per_step(scheme, monkeypatch):
    # Four frames from two points; seven blocks go one per step, or in
    # groups of three (the last one short).  Each group's noise is one call
    # per frame, so the recorded call sizes show the grouping.
    cfg = quiet_config(
        scheme=scheme,
        geometry=BlockGeometry(blocks_per_frame=7),
        ebn0_db=(2.0, 14.0),
    )
    keys = [(point, trial) for point in (0, 1) for trial in (0, 1)]
    draw_noise = harness._draw_noise
    sizes = []

    def recording(rngs, samples):
        sizes.append(samples)
        return draw_noise(rngs, samples)

    monkeypatch.setattr(harness, "_draw_noise", recording)
    rows = {}
    for budget, group in [(4, 1), (12, 3)]:
        monkeypatch.setattr(harness, "_STEP_ROWS", budget)
        sizes.clear()
        rows[group] = _simulate_frames(cfg, keys)
        g = cfg.geometry
        blocks = [group] * (7 // group) + [7 % group] * (7 % group > 0)
        init = [] if cfg.classical else [g.init_preamble_length]
        assert sizes == init + [n * g.block_length for n in blocks]
    for one, grouped in zip(rows[1], rows[3]):
        assert one.dtype == grouped.dtype and one.tobytes() == grouped.tobytes()


def test_one_noise_call_draws_what_one_call_per_block_draws():
    # A frame draws a group of blocks' noise pairs in one call; its stream
    # must hold the values that one call per block would give, in order.
    seed = np.random.SeedSequence(entropy=5, spawn_key=(1, 2))
    blocks, length = 7, 64
    grouped = np.empty((blocks * length, 2))
    np.random.default_rng(seed).standard_normal(out=grouped)
    rng = np.random.default_rng(seed)
    single = np.empty((blocks, length, 2))
    for block in single:
        rng.standard_normal(out=block)
    assert grouped.tobytes() == single.tobytes()


def _split_run(scheme, snrs, frames, cuts, **options):
    """A config over the SNR points ``snrs``, the ``(point, trial)`` keys of
    ``frames`` frames of each point in grid order, and those keys cut at the
    stack positions ``cuts``."""
    geometry = options.pop("geometry", {})
    config = SystemConfig(
        geometry=BlockGeometry(block_length=16, **geometry),
        scheme=scheme,
        ebn0_db=snrs,
        trials=1,
        min_bit_errors=0,
        **options,
    )
    keys = [(point, trial) for point in range(len(snrs)) for trial in range(frames)]
    bounds = [0, *cuts, len(keys)]
    return config, keys, [keys[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@st.composite
def _split_runs(draw):
    """A small accepted config over 2-3 SNR points, and a contiguous split
    of a stack holding 1-3 frames of each."""
    points = draw(st.integers(2, 3))
    frames = draw(st.integers(1, 3))
    args = (
        draw(st.sampled_from(SCHEMES)),
        draw(st.lists(st.floats(0.0, 20.0), min_size=points, max_size=points)),
        frames,
        sorted(draw(st.sets(st.integers(1, points * frames - 1)))),
    )
    options = dict(
        geometry=dict(
            subblocks=draw(st.sampled_from([2, 4])),
            pilots_per_subblock=draw(st.integers(1, 2)),
            blocks_per_frame=draw(st.integers(1, 3)),
        ),
        fading_mode=draw(st.sampled_from(["fast_block_phase", "quasi_static"])),
        phase_step_std_deg=draw(st.sampled_from([0.0, 5.0])),
        dnp_mode=draw(st.sampled_from(DNP_MODES)),
        max_iterations=draw(st.integers(1, 4)),
        master_seed=draw(st.integers(0, 2**16)),
    )
    try:
        return _split_run(*args, **options)
    except ValueError:
        reject()


@settings(max_examples=150, deadline=None)
@given(_split_runs())
@example(
    run=_split_run(
        "proposed_turbo", [0.0, 12.0, 20.0], 2, [1, 4],
        geometry=dict(subblocks=4), dnp_mode="refresh", max_iterations=4,
    )
)
@example(run=_split_run("classical_ls", [2.0, 9.0], 3, [2, 3]))
@example(run=_split_run("classical_mmse", [0.0, 5.0, 20.0], 2, [3]))
@example(
    run=_split_run(
        "lower_bound_perfect_pattern", [4.0, 16.0], 3, [1, 5],
        geometry=dict(subblocks=2, pilots_per_subblock=2), fading_mode="quasi_static",
    )
)
def test_contiguous_splits_give_the_same_tallies(run):
    # The worker-invariance contract without a process pool: a frame's rows
    # depend only on its own stream and point, not on the frames it runs
    # with, whether of its own point or of others at other SNRs.
    config, keys, chunks = run
    together = _simulate_frames(config, keys)
    split = [_simulate_frames(config, chunk) for chunk in chunks]
    for rows, parts in zip(together, zip(*split)):
        assert np.array_equal(np.concatenate(parts), rows)
    for point in range(len(config.ebn0_db)):
        alone = _simulate_frames(config, [k for k in keys if k[0] == point])
        mine = [k[0] == point for k in keys]
        for rows, own in zip(together, alone):
            assert np.array_equal(own, rows[mine])


def test_noiseless_ideal_hardware_is_error_free():
    cfg = quiet_config(
        ebn0_db=(300.0,),
        amplitude_imbalance=0.0,
        phase_imbalance_deg=0.0,
        distortion_level_db=-400.0,
    )
    point = run_experiment(cfg).points[0]
    assert point.ber_overall == 0.0
    assert point.mse < 1e-16


def test_noiseless_static_channel_converges_first_pass():
    # with nothing changing between blocks the prior is exact, so every
    # block's first refinement confirms the coarse pattern
    cfg = quiet_config(
        ebn0_db=(300.0,),
        amplitude_imbalance=0.0,
        phase_imbalance_deg=0.0,
        phase_step_std_deg=0.0,
        distortion_level_db=-400.0,
        fading_mode="quasi_static",
    )
    point = run_experiment(cfg).points[0]
    assert point.ber_overall == 0.0
    assert point.iteration_counts[0] == point.blocks


@pytest.mark.parametrize("use_stopping_rule", [True, False])
def test_frame_loop_counts_the_budget_unless_the_stopping_rule_ended_a_block(
    use_stopping_rule, monkeypatch
):
    # At 0 dB with eight passes, blocks reach a fixed point early, oscillate
    # or run out of budget.  The receiver reports the passes each block ran;
    # the frame loop counts the full budget for every block that the rule
    # did not end at a fixed point, and for every block with the rule off.
    results = []
    receive = harness.turbo_receive_frames

    def recording(*args, **kwargs):
        results.append(receive(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, "turbo_receive_frames", recording)
    cfg = quiet_config(
        ebn0_db=(0.0,), max_iterations=8, dnp_mode="refresh", use_stopping_rule=use_stopping_rule
    )
    point = run_experiment(cfg).points[0]
    iterations = np.concatenate([r.iterations for r in results])
    converged = np.concatenate([r.converged for r in results])
    assert iterations.size == point.blocks
    assert (converged & (iterations < 8)).any()
    assert (~converged & (iterations < 8)).any()
    assert (~converged & (iterations == 8)).any()
    counted = np.where(converged & use_stopping_rule, iterations, 8)
    assert point.iteration_counts == tuple(np.bincount(counted - 1, minlength=8))
    if not use_stopping_rule:
        assert point.iteration_counts == (0,) * 7 + (point.blocks,)


@pytest.mark.parametrize(
    "overrides",
    [
        # oscillations, and the consistency screen's rescue
        dict(ebn0_db=(0.0,), max_iterations=8, dnp_mode="refresh"),
        # the error target stops the points at different frame counts
        dict(ebn0_db=(0.0, 4.0, 8.0, 12.0), trials=6, batch_frames=2, min_bit_errors=45),
        # wide alphabets, a static channel and a normalized block power
        dict(
            data_order=16, pilot_order=8, fading_mode="quasi_static", normalize_block_power=True
        ),
    ],
    ids=["refresh", "error_target", "wide_alphabets"],
)
def test_stopping_rule_changes_only_the_iteration_counts(overrides):
    # The receiver leaves a block at a fixed point or a period-two
    # oscillation with the rule on or off; the rule only decides how the
    # frame loop counts the block's passes.
    on, off = (
        run_experiment(quiet_config(use_stopping_rule=rule, **overrides)) for rule in (True, False)
    )
    for a, b in zip(on.points, off.points, strict=True):
        assert replace(a, iteration_counts=()) == replace(b, iteration_counts=())
        # with the rule off every block counts the full budget
        assert b.iteration_counts[-1] == b.blocks
    if len(off.points) > 1:
        assert len({p.frames for p in off.points}) > 1
    names = CSV_HEADER.split(",")
    kept = [i for i, name in enumerate(names) if not re.fullmatch(r"iter\d|config_hash", name)]
    for row_on, row_off in zip(on.csv_rows(), off.csv_rows(), strict=True):
        cells_on, cells_off = row_on.split(","), row_off.split(",")
        assert [cells_on[i] for i in kept] == [cells_off[i] for i in kept]

    def passes(result):
        return sum(
            k * count for p in result.points for k, count in enumerate(p.iteration_counts, 1)
        )

    assert passes(on) < passes(off)


def test_noiseless_classical_pipeline_is_error_free():
    for scheme in ("classical_ls", "classical_mmse", "lower_bound_perfect_pattern"):
        cfg = quiet_config(
            scheme=scheme,
            ebn0_db=(300.0,),
            amplitude_imbalance=0.0,
            phase_imbalance_deg=0.0,
            distortion_level_db=-400.0,
        )
        point = run_experiment(cfg).points[0]
        assert point.ber_overall == 0.0, scheme
        # the classical schemes carry no index bits; the genie pattern
        # reads its own back
        if cfg.classical:
            assert math.isnan(point.ber_index)
        else:
            assert point.ber_index == 0.0


@st.composite
def _noiseless_settings(draw):
    """Keyword arguments of a small config with no noise, no distortion, no
    phase step and a quasi-static channel; some are invalid for a scheme."""
    subblocks = draw(st.sampled_from([1, 2, 4]))
    geometry = dict(
        block_length=subblocks * draw(st.integers(2, 8)),
        subblocks=subblocks,
        pilots_per_subblock=draw(st.integers(1, 3)),
        preamble_length=draw(st.integers(2, 4)),
        init_preamble_length=draw(st.integers(2, 4)),
        blocks_per_frame=draw(st.integers(1, 3)),
    )
    return dict(
        geometry=geometry,
        data_order=draw(st.sampled_from([2, 4, 8, 16])),
        pilot_order=draw(st.sampled_from([4, 8, 16])),
        gamma=draw(st.sampled_from([0.5, 2.0, 4.0, 9.0])),
        amplitude_imbalance=draw(st.sampled_from([0.0, 0.2])),
        phase_imbalance_deg=draw(st.sampled_from([0.0, 2.0])),
        phase_step_std_deg=0.0,
        distortion_level_db=-400.0,
        fading_mode="quasi_static",
        ebn0_db=[300.0],
        max_iterations=draw(st.integers(1, 4)),
        dnp_mode=draw(st.sampled_from(DNP_MODES)),
        normalize_block_power=draw(st.booleans()),
        trials=draw(st.integers(1, 3)),
        min_bit_errors=0,
        master_seed=draw(st.integers(0, 2**16)),
    )


# Two subblocks of two pilots leave two pilots outside each subblock, and
# half the time both lie on one axis.  That extrinsic fit then drops the
# image path, and against 16-PSK data at gamma 2 it moves right coarse
# patterns to wrong ones: 10 of 80 subblocks over 20 frames, at 1 and at 4
# iterations.
_NOISELESS_TURBO_MISS = dict(
    geometry=dict(
        block_length=8, subblocks=2, pilots_per_subblock=2, preamble_length=2,
        init_preamble_length=2, blocks_per_frame=2,
    ),
    data_order=16, pilot_order=4, gamma=2.0, amplitude_imbalance=0.2,
    phase_imbalance_deg=2.0, phase_step_std_deg=0.0, distortion_level_db=-400.0,
    fading_mode="quasi_static", ebn0_db=[300.0], max_iterations=1, dnp_mode="prior",
    normalize_block_power=False, trials=1, min_bit_errors=0, master_seed=0,
)


@pytest.mark.parametrize(
    "scheme",
    [
        pytest.param(
            "proposed_turbo",
            marks=pytest.mark.xfail(
                strict=True,
                reason="a degenerate extrinsic fit turns right noiseless patterns wrong",
            ),
        ),
        "classical_ls",
        "classical_mmse",
        "lower_bound_perfect_pattern",
    ],
)
@settings(max_examples=60, deadline=None)
@example(kwargs=_NOISELESS_TURBO_MISS)
@given(kwargs=_noiseless_settings())
def test_noiseless_runs_are_error_free(scheme, kwargs):
    try:
        config = SystemConfig.from_dict({**kwargs, "scheme": scheme})
    except ValueError:
        reject()
    point = run_experiment(config).points[0]
    assert point.bit_errors == 0
    assert point.mse < 1e-20


def test_lower_bound_mse_tracks_inverse_snr_without_distortion():
    # with the receiver distortion disabled the estimation error is pure
    # thermal noise, so the log-log MSE slope against per-bit SNR is -1
    cfg = quiet_config(
        scheme="lower_bound_perfect_pattern",
        distortion_level_db=-400.0,
        ebn0_db=(0.0, 2.0, 4.0, 6.0, 8.0),
        trials=10,
        geometry=BlockGeometry(blocks_per_frame=100),
    )
    result = run_experiment(cfg)
    snr = np.array([10 ** (p.ebn0_db / 10) for p in result.points])
    mse = np.array([p.mse for p in result.points])
    slope = np.polyfit(np.log10(snr), np.log10(mse), 1)[0]
    assert abs(slope + 1.0) < 0.05


def test_early_stop_caps_frames():
    cfg = quiet_config(trials=40, min_bit_errors=1, batch_frames=2, ebn0_db=(0.0,))
    point = run_experiment(cfg).points[0]
    assert point.frames == 2  # one batch was enough errors


def test_csv_schema(tmp_path):
    cfg = quiet_config(scheme="classical_ls", ebn0_db=(6.0,))
    path = tmp_path / "out.csv"
    write_csv(run_experiment(cfg), path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_HEADER.split(","))
    assert cells[2] == "classical_ls"
    assert cells[3] == "nan"  # no index bits in the classical scheme
    for cell in cells[3:11]:
        if cell != "nan":
            float(cell)


def test_csv_significant_digits(tmp_path):
    cfg = quiet_config()
    result = run_experiment(cfg)
    result.points[0].mse_num = result.points[0].mse_den * 0.123456789123456
    path = tmp_path / "digits.csv"
    write_csv(result, path)
    assert "0.123456789" in path.read_text()


def test_gamma_sweep_runs_per_ratio():
    cfg = quiet_config(geometry=BlockGeometry(blocks_per_frame=5), trials=1)
    results = run_gamma_sweep(cfg, gamma_grid=(2.0, 4.0))
    assert [r.config.gamma for r in results] == [2.0, 4.0]
    with pytest.raises(ValueError):
        run_gamma_sweep(cfg, gamma_grid=())


def test_gamma_sweep_checks_every_ratio_before_running_any(monkeypatch):
    runs = []
    monkeypatch.setattr(harness, "run_experiment", lambda config, workers: runs.append(config))
    with pytest.raises(ValueError, match="gamma must be positive"):
        run_gamma_sweep(quiet_config(), (2.0, 4.0, -1.0))
    assert runs == []


def test_iteration_histogram_forces_protocol():
    cfg = quiet_config(
        scheme="classical_ls", use_stopping_rule=False, max_iterations=2
    )
    result = run_iteration_histogram(cfg)
    assert result.config.scheme == "proposed_turbo"
    assert result.config.use_stopping_rule
    assert result.config.max_iterations == 4
    point = result.points[0]
    assert sum(point.iteration_counts) == point.blocks


def test_config_json_serializable():
    cfg = quiet_config()
    payload = json.dumps(cfg.to_dict())
    assert SystemConfig.from_dict(json.loads(payload)) == cfg


def _log_uniform(low_exp, high_exp):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0**e)


@st.composite
def _configs(draw):
    """Config keyword arguments over all four schemes, small geometries and
    values up to the bounds SystemConfig enforces; many are invalid."""
    geometry = dict(
        block_length=draw(st.sampled_from([8, 16, 24, 32])),
        subblocks=draw(st.sampled_from([1, 2, 4, 8])),
        pilots_per_subblock=draw(st.integers(1, 3)),
        preamble_length=draw(st.integers(1, 4)),
        init_preamble_length=draw(st.integers(1, 4)),
        blocks_per_frame=draw(st.integers(1, 3)),
    )
    return dict(
        geometry=geometry,
        scheme=draw(st.sampled_from(SCHEMES)),
        data_order=draw(st.sampled_from([2, 4, 8, 16])),
        pilot_order=draw(st.sampled_from([2, 4, 8, 16])),
        gamma=draw(_log_uniform(-55.0, 55.0)),
        path_gain=draw(_log_uniform(-28.0, 28.0)),
        amplitude_imbalance=draw(st.floats(-2.0, 2.0) | _log_uniform(-30.0, 30.0)),
        phase_imbalance_deg=draw(st.floats(-180.0, 180.0)),
        phase_step_std_deg=draw(st.floats(0.0, 90.0)),
        distortion_level_db=draw(st.floats(-550.0, 550.0)),
        ebn0_db=draw(st.lists(st.floats(-550.0, 550.0), min_size=1, max_size=2)),
        max_iterations=draw(st.integers(1, 6)),
        dnp_mode=draw(st.sampled_from(DNP_MODES)),
        normalize_block_power=draw(st.booleans()),
        trials=1,
        min_bit_errors=0,
        master_seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=150, deadline=None)
@given(_configs())
def test_accepted_configs_run_to_completion(kwargs):
    try:
        config = SystemConfig.from_dict(kwargs)
    except ValueError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_experiment(config)
    names = CSV_HEADER.split(",")
    for row in result.csv_rows():
        for name, cell in zip(names, row.split(",")):
            if name in ("scheme", "config_hash"):
                continue
            if name == "ber_index" and config.classical:
                continue
            assert math.isfinite(float(cell)), (name, cell)
