"""Golden CSVs: the harness must keep producing these exact bytes.

The files under ``tests/data/`` were written by the lockstep harness that
draws each frame's randomness in bulk at frame start (the order is given in
``harness._simulate_frames``), so they pin the whole chain (random draw
order, receiver arithmetic, scoring, formatting) across later refactors.
Each case runs 3 frames of 10 blocks (20 where named) in batches of 2, so
the last batch is ragged.  The ``proposed_turbo_rescue`` case runs the
iterative receiver at 0 dB with 8 iterations and per-iteration DNP refresh,
where the consistency screen fires and its rescue candidates get adopted
(``test_rescue_case_adopts_rescue_candidates`` checks that they do).  The
``proposed_turbo_rescue_oscillating`` case runs 20 blocks per frame, where
the rescue's second pass also oscillates and rows adopt a candidate from
its other phase.  The ``lower_bound_perfect_pattern_3_pilots`` case puts
three pilots in each subblock, so the genie takes its pilot and data samples
from several positions per subblock.  The next two cases cover index demapping: undecodable
position sets, and the fixed table for two pilots in four positions.  The two ``early_stop`` cases
sweep five points whose error target stops them after one, two or three
batches, so they pin which frames each point runs when points drop out of
the sweep at different batches.  The ``proposed_turbo_wide_alphabets``
case runs 16-point data and 8-point pilot alphabets under quasi-static
fading, with block power normalized and the stopping rule off.

The ``golden_gamma_sweep*.csv`` files are what ``impilot gamma-sweep``
writes for ``proposed_turbo`` at the power ratios ``GAMMA_GRID``, with the
settings above, once with the block power as the alphabets give it and
once normalized to one.  The ratio sets the pilot alphabet, the transmit
power the receiver works out, and, when normalized, the data alphabet.

The ``golden_fsc*.csv`` files are ``impilot fsc`` outputs at a fixed seed:
the default geometry with 2,000 round trips, and a 128-sample block with a
three-tap impulse response and a 16-symbol pilot with 500.  They pin the
per-trial draw order of ``run_fsc_trials`` and every detected start.

``golden_sums.json`` holds the exact sums behind every row, so a change in
the last bit of any estimate shows even where the printed digits hide it.
To regenerate after a deliberate change, call ``write_golden(directory)``
and say in CHANGES.md why the numbers moved.
"""

import json
import tempfile
from pathlib import Path

import pytest

from impilot import cli, fsc, harness
from impilot.harness import SystemConfig, run_experiment, run_gamma_sweep, write_csv
from impilot.im_codec import BlockGeometry

DATA = Path(__file__).resolve().parent / "data"

_COMMON = dict(
    geometry=BlockGeometry(blocks_per_frame=10),
    ebn0_db=(4.0, 12.0),
    trials=3,
    batch_frames=2,
    min_bit_errors=0,
    master_seed=11,
)

_EARLY_STOP = dict(
    _COMMON, ebn0_db=(0.0, 4.0, 8.0, 12.0, 16.0), trials=6, min_bit_errors=45
)

CASES = {
    "proposed_turbo": SystemConfig(scheme="proposed_turbo", **_COMMON),
    "classical_ls": SystemConfig(scheme="classical_ls", **_COMMON),
    "classical_mmse": SystemConfig(scheme="classical_mmse", **_COMMON),
    "lower_bound_perfect_pattern": SystemConfig(
        scheme="lower_bound_perfect_pattern", **_COMMON
    ),
    # Three pilots in each 16-sample subblock: the genie gathers pilots and
    # data from several positions per subblock.
    "lower_bound_perfect_pattern_3_pilots": SystemConfig(
        scheme="lower_bound_perfect_pattern",
        **{
            **_COMMON,
            "geometry": BlockGeometry(
                block_length=64, subblocks=4, pilots_per_subblock=3, blocks_per_frame=10
            ),
        },
    ),
    "proposed_turbo_rescue": SystemConfig(
        scheme="proposed_turbo",
        max_iterations=8,
        dnp_mode="refresh",
        **{**_COMMON, "ebn0_db": (0.0,)},
    ),
    # Twenty blocks per frame: some rescues' second pass oscillates, and
    # two rows adopt a candidate of that pass's other phase.
    "proposed_turbo_rescue_oscillating": SystemConfig(
        scheme="proposed_turbo",
        max_iterations=8,
        dnp_mode="refresh",
        **{**_COMMON, "ebn0_db": (0.0,), "geometry": BlockGeometry(blocks_per_frame=20)},
    ),
    # Six positions carry two bits, so two of them map to no index word.
    "proposed_turbo_unmapped": SystemConfig(
        scheme="proposed_turbo",
        **{**_COMMON, "geometry": BlockGeometry(block_length=48, blocks_per_frame=10)},
    ),
    # Two pilots in four positions use the fixed, non-lexicographic table.
    "proposed_turbo_table_4_2": SystemConfig(
        scheme="proposed_turbo",
        **{
            **_COMMON,
            "geometry": BlockGeometry(
                block_length=32, pilots_per_subblock=2, blocks_per_frame=10
            ),
        },
    ),
    # The error target stops 0 and 4 dB after one batch and 8 dB after two;
    # 12 and 16 dB run to the frame cap.
    "proposed_turbo_early_stop": SystemConfig(scheme="proposed_turbo", **_EARLY_STOP),
    "classical_mmse_early_stop": SystemConfig(scheme="classical_mmse", **_EARLY_STOP),
    # Sixteen data candidates take the ratio's numpy sum over eight or more
    # entries, and the stopping rule is off.
    "proposed_turbo_wide_alphabets": SystemConfig(
        scheme="proposed_turbo",
        data_order=16,
        pilot_order=8,
        fading_mode="quasi_static",
        use_stopping_rule=False,
        normalize_block_power=True,
        **_COMMON,
    ),
}


# name -> config of an ``impilot gamma-sweep`` over GAMMA_GRID; its CSV is
# written to golden_<name>.csv and its sums, ratio after ratio, under <name>.
GAMMA_GRID = (2.0, 4.0, 8.0)
GAMMA_CASES = {
    "gamma_sweep": SystemConfig(scheme="proposed_turbo", **_COMMON),
    "gamma_sweep_normalized": SystemConfig(
        scheme="proposed_turbo", normalize_block_power=True, **_COMMON
    ),
}

SUMS = DATA / "golden_sums.json"

# name -> impilot fsc arguments; the CSV is written to golden_<name>.csv.
FSC_CASES = {
    "fsc": ["--trials", "2000", "--seed", "7"],
    "fsc_128_3_4_16": [
        "--trials", "500", "--seed", "7", "--block-length", "128",
        "--cir-length", "3", "--cp-length", "4", "--pilot-length", "16",
    ],
}


def golden_path(name: str) -> Path:
    return DATA / f"golden_{name}.csv"


def point_sums(result) -> list:
    """Every sum behind each CSV row, floats as exact hex strings: nine
    printed digits would hide a last-bit change in the channel estimates."""
    return [
        {
            key: value.hex() if isinstance(value, float) else value
            for key, value in vars(point).items()
            if key not in ("ebn0_db", "gamma", "scheme")
        }
        for point in result.points
    ]


def run_gamma_case(name: str) -> list:
    """The results that ``impilot gamma-sweep`` writes for a gamma case."""
    return run_gamma_sweep(GAMMA_CASES[name], GAMMA_GRID)


def write_golden(directory) -> None:
    sums = {}
    for name, config in CASES.items():
        result = run_experiment(config)
        write_csv(result, Path(directory) / golden_path(name).name)
        sums[name] = point_sums(result)
    for name in GAMMA_CASES:
        results = run_gamma_case(name)
        write_csv(results, Path(directory) / golden_path(name).name)
        sums[name] = [row for result in results for row in point_sums(result)]
    text = json.dumps(sums, indent=1, sort_keys=True) + "\n"
    (Path(directory) / SUMS.name).write_text(text, encoding="utf-8")
    for name in FSC_CASES:
        (Path(directory) / golden_path(name).name).write_bytes(run_fsc_case(name))


def run_fsc_case(name: str) -> bytes:
    with tempfile.TemporaryDirectory() as out:
        assert cli.main(["fsc", *FSC_CASES[name], "--out", out]) == 0
        return (Path(out) / "fsc_trials.csv").read_bytes()


@pytest.fixture(scope="module")
def results():
    return {name: run_experiment(config) for name, config in CASES.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden_bytes(name, results, tmp_path):
    out = tmp_path / "run.csv"
    write_csv(results[name], out)
    assert out.read_bytes() == golden_path(name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_sums_match_golden_bits(name, results):
    expected = json.loads(SUMS.read_text(encoding="utf-8"))[name]
    got = json.loads(json.dumps(point_sums(results[name])))
    assert got == expected


@pytest.fixture(scope="module")
def gamma_results():
    return {name: run_gamma_case(name) for name in GAMMA_CASES}


@pytest.mark.parametrize("name", sorted(GAMMA_CASES))
def test_gamma_sweep_csv_matches_golden_bytes(name, gamma_results, tmp_path):
    out = tmp_path / "run.csv"
    write_csv(gamma_results[name], out)
    assert out.read_bytes() == golden_path(name).read_bytes()


@pytest.mark.parametrize("name", sorted(GAMMA_CASES))
def test_gamma_sweep_sums_match_golden_bits(name, gamma_results):
    expected = json.loads(SUMS.read_text(encoding="utf-8"))[name]
    got = [row for result in gamma_results[name] for row in point_sums(result)]
    assert json.loads(json.dumps(got)) == expected


@pytest.mark.parametrize("name", sorted(FSC_CASES))
def test_fsc_csv_matches_golden_bytes(name):
    assert run_fsc_case(name) == golden_path(name).read_bytes()


# FFT checks of each fsc case's tail draws, (accepted, redrawn); every other
# draw is accepted by its magnitude sum alone.
FSC_FFT_CHECKS = {"fsc": (0, 5), "fsc_128_3_4_16": (39, 44)}


@pytest.mark.parametrize("name", sorted(FSC_CASES))
def test_fsc_case_reaches_the_fft_check(name, monkeypatch):
    outcomes = []
    check = fsc._fft_accept

    def recording(draws):
        outcomes.append(check(draws))
        return outcomes[-1]

    monkeypatch.setattr(fsc, "_fft_accept", recording)
    assert run_fsc_case(name) == golden_path(name).read_bytes()
    assert (outcomes.count(True), outcomes.count(False)) == FSC_FFT_CHECKS[name]


def test_rescue_case_adopts_rescue_candidates(monkeypatch):
    restarted = []
    receive = harness.turbo_receive_frames

    def recording(*args, **kwargs):
        result = receive(*args, **kwargs)
        restarted.append(result.restarted)
        return result

    monkeypatch.setattr(harness, "turbo_receive_frames", recording)
    run_experiment(CASES["proposed_turbo_rescue"])
    assert restarted and any(r.any() for r in restarted)


def test_write_golden_reproduces_every_data_file(tmp_path):
    write_golden(tmp_path)
    expected = sorted(path.name for path in DATA.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
