import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
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
    _chunks,
    _draw_pilots,
    _simulate_frames,
    _unit_preamble,
)
from impilot import harness
from impilot.constellation import build_pilot_alphabet
from impilot.im_codec import BlockGeometry

SMALL = BlockGeometry(blocks_per_frame=20)


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
    # a one-symbol preamble is fine where it is not used
    SystemConfig(geometry=BlockGeometry(preamble_length=1))
    SystemConfig(scheme="classical_ls", geometry=BlockGeometry(init_preamble_length=1))


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
    outputs = []
    for workers in (1, 2, 3):
        path = tmp_path / f"workers{workers}.csv"
        write_csv(run_experiment(cfg, workers=workers), path)
        outputs.append(path.read_bytes())
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_worker_pool_is_capped_at_the_batch_width(monkeypatch):
    # a batch is cut into at most batch_frames chunks, so more workers than
    # that would be started with nothing to do
    sizes = []

    class SerialExecutor:
        """Records the pool size asked for and runs ``map`` in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, iterable):
            return map(fn, iterable)

        def shutdown(self):
            pass

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialExecutor)
    cfg = quiet_config(trials=5, batch_frames=2, ebn0_db=(6.0,))
    capped = run_experiment(cfg, workers=10**6)
    assert sizes == [2]
    assert capped.csv_rows() == run_experiment(cfg, workers=1).csv_rows()


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
    cfg = quiet_config(**overrides)
    snr = cfg.ebn0_db[0]
    together = _simulate_frames(cfg, snr, 1, range(5))
    for trial in range(5):
        assert _simulate_frames(cfg, snr, 1, [trial]) == [together[trial]]


@st.composite
def _split_runs(draw):
    """A small accepted config, a frame count and a contiguous split of it."""
    scheme = draw(st.sampled_from(SCHEMES))
    geometry = BlockGeometry(
        block_length=16,
        subblocks=draw(st.sampled_from([2, 4])),
        pilots_per_subblock=draw(st.integers(1, 2)),
        blocks_per_frame=draw(st.integers(1, 3)),
    )
    try:
        config = SystemConfig(
            geometry=geometry,
            scheme=scheme,
            fading_mode=draw(st.sampled_from(["fast_block_phase", "quasi_static"])),
            phase_step_std_deg=draw(st.sampled_from([0.0, 5.0])),
            dnp_mode=draw(st.sampled_from(DNP_MODES)),
            max_iterations=draw(st.integers(1, 4)),
            ebn0_db=(draw(st.floats(0.0, 20.0)),),
            trials=1,
            min_bit_errors=0,
            master_seed=draw(st.integers(0, 2**16)),
        )
    except ValueError:
        reject()
    frames = draw(st.integers(1, 5))
    cuts = sorted(draw(st.sets(st.integers(1, frames - 1)))) if frames > 1 else []
    bounds = [0, *cuts, frames]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return config, draw(st.integers(0, 3)), frames, chunks


@settings(max_examples=150, deadline=None)
@given(_split_runs())
def test_contiguous_splits_give_the_same_tallies(run):
    # The worker-invariance contract without a process pool: a frame's tally
    # depends only on its own stream, not on the frames it runs with.
    config, point, frames, chunks = run
    snr = config.ebn0_db[0]
    together = _simulate_frames(config, snr, point, range(frames))
    split = [t for chunk in chunks for t in _simulate_frames(config, snr, point, chunk)]
    assert split == together


def test_chunks_are_contiguous_and_near_equal():
    assert _chunks(range(3, 8), 2) == [range(3, 6), range(6, 8)]
    assert _chunks(range(3, 8), 3) == [range(3, 5), range(5, 7), range(7, 8)]
    assert _chunks(range(0, 2), 3) == [range(0, 1), range(1, 2)]


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


def test_noiseless_classical_pipeline_is_error_free():
    cfg = quiet_config(
        scheme="classical_ls",
        ebn0_db=(300.0,),
        amplitude_imbalance=0.0,
        phase_imbalance_deg=0.0,
        distortion_level_db=-400.0,
    )
    point = run_experiment(cfg).points[0]
    assert point.ber_overall == 0.0
    assert math.isnan(point.ber_index)


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
