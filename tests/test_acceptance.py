"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The Monte Carlo criteria take a few minutes in total and are
fully deterministic for the pinned seeds.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import impilot
from impilot.analysis import (
    complexity_multiplications,
    correct_detection_probability,
    simulated_detection_rate,
    wrong_region_boundary,
    wrong_region_width,
)
from impilot.channel import channel_trajectory, propagate_blocks
from impilot.constellation import (
    build_data_alphabet,
    build_pilot_alphabet,
    min_cross_distance,
)
from impilot.fsc import FscGeometry, run_fsc_trials
from impilot.harness import (
    SystemConfig,
    run_experiment,
    run_gamma_sweep,
    run_iteration_histogram,
    write_csv,
)
from impilot.im_codec import BlockGeometry, se_conventional, se_proposed
from impilot.impairments import RxImpairments, TxImpairments, apply_tx_impairments
from impilot.rx_turbo import llr_values

SEED = 20260808


def report(number, passed, detail):
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def paper_setup(**overrides):
    defaults = dict(
        geometry=BlockGeometry(blocks_per_frame=100),
        master_seed=SEED,
        use_stopping_rule=False,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


# ---------------------------------------------------------------------------
# shared Monte Carlo products
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mse_sweep():
    grid = (12.0, 14.0, 16.0)
    base = paper_setup(ebn0_db=grid, trials=100, min_bit_errors=0)
    runs = {}
    for n in (1, 2, 3, 4):
        result = run_experiment(replace(base, max_iterations=n))
        runs[n] = [p.mse for p in result.points]
    lower = run_experiment(replace(base, scheme="lower_bound_perfect_pattern"))
    runs["lower"] = [p.mse for p in lower.points]
    runs["grid"] = grid
    return runs


@pytest.fixture(scope="module")
def ber_curves():
    grid = tuple(float(v) for v in range(8, 18))
    base = paper_setup(ebn0_db=grid, trials=60, min_bit_errors=400, batch_frames=10)
    # One turbo run: the stopping rule changes only the iteration counts
    # (test_harness.py::test_stopping_rule_changes_only_the_iteration_counts).
    curves = {}
    curves["proposed"] = [
        (p.ebn0_db, p.ber_overall) for p in run_experiment(base).points
    ]
    classical = replace(base, scheme="classical_ls")
    curves["classical"] = [
        (p.ebn0_db, p.ber_overall) for p in run_experiment(classical).points
    ]
    return curves


@pytest.fixture(scope="module")
def floor_points():
    top = (17.0,)
    out = {}
    for n in (1, 2):
        cfg = paper_setup(
            ebn0_db=top, trials=15, min_bit_errors=300, max_iterations=n
        )
        out[n] = run_experiment(cfg).points[0].ber_overall
    return out


@pytest.fixture(scope="module")
def histogram():
    grid = (10.0, 12.5, 13.0, 14.0, 15.0)
    cfg = paper_setup(ebn0_db=grid, trials=30, min_bit_errors=0)
    result = run_iteration_histogram(cfg)
    return {p.ebn0_db: p.iteration_proportions for p in result.points}


@pytest.fixture(scope="module")
def gamma_curves():
    cfg = paper_setup(
        ebn0_db=(15.0,), trials=25, min_bit_errors=0, use_stopping_rule=True
    )
    results = run_gamma_sweep(cfg)
    return [
        (r.config.gamma, r.points[0].ber_index, r.points[0].ber_overall)
        for r in results
    ]


def log_interpolated_crossing(curve, target=1e-3):
    for (x0, y0), (x1, y1) in zip(curve, curve[1:]):
        if y0 >= target > y1:
            l0, l1, lt = math.log10(y0), math.log10(y1), math.log10(target)
            return x0 + (x1 - x0) * (l0 - lt) / (l0 - l1)
    raise AssertionError(f"curve never crosses {target}: {curve}")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_spectral_efficiency_exact():
    prop = se_proposed(8, 1, 4)
    conv = se_conventional(64, 2, 4)
    report(
        1,
        prop == 2.125 and conv == 1.9375,
        f"spectral efficiency proposed={prop} conventional={conv}",
    )


def test_c02_mse_tracks_lower_bound_and_improves_with_iterations(mse_sweep):
    gaps_db = [
        10 * math.log10(m / l) for m, l in zip(mse_sweep[4], mse_sweep["lower"])
    ]
    within = all(abs(gap) <= 0.5 for gap in gaps_db)
    monotone = all(
        mse_sweep[1][i] > mse_sweep[2][i] > mse_sweep[3][i] > mse_sweep[4][i]
        for i in range(len(mse_sweep["grid"]))
    )
    report(
        2,
        within and monotone,
        "four-pass MSE vs perfect-pattern bound "
        + ", ".join(
            f"{snr:g}dB:{gap:+.2f}dB" for snr, gap in zip(mse_sweep["grid"], gaps_db)
        )
        + f"; monotone in iteration count: {monotone}",
    )


def test_c03_ber_gain_over_classical(ber_curves):
    cross_prop = log_interpolated_crossing(ber_curves["proposed"])
    cross_classical = log_interpolated_crossing(ber_curves["classical"])
    gain = cross_classical - cross_prop
    report(
        3,
        1.0 <= gain <= 2.0,
        f"1e-3 crossing: proposed {cross_prop:.2f} dB, classical {cross_classical:.2f} dB, "
        f"gain {gain:.2f} dB",
    )


def test_c04_error_floor_for_few_iterations(ber_curves, floor_points):
    top_ber = ber_curves["proposed"][-1][1]
    ratio1 = floor_points[1] / top_ber
    ratio2 = floor_points[2] / top_ber
    report(
        4,
        ratio1 >= 10.0 and ratio2 >= 10.0,
        f"floors at 17 dB: one-pass {floor_points[1]:.2e} ({ratio1:.0f}x), "
        f"two-pass {floor_points[2]:.2e} ({ratio2:.0f}x) vs four-pass {top_ber:.2e}",
    )


def test_c05_iteration_histogram(histogram):
    cap = all(props[3] <= 0.25 for props in histogram.values())
    at_15 = histogram[15.0][3]
    fast_share = all(
        props[0] + props[1] > 0.5
        for snr, props in histogram.items()
        if snr > 12.0
    )
    report(
        5,
        cap and 0.05 <= at_15 <= 0.15 and fast_share,
        f"max budget share <=0.25: {cap}; share at 15 dB {at_15:.3f}; "
        f"two-pass share >0.5 above 12 dB: {fast_share}",
    )


def test_c06_gamma_sweep(gamma_curves):
    low_bad = all(ber > 0.2 for g, _, ber in gamma_curves if g <= 1.0)
    overall = [ber for _, _, ber in gamma_curves]
    grid = [g for g, _, _ in gamma_curves]
    best = grid[int(np.argmin(overall))]
    step_of_four = {3.0, 4.0, 5.0}
    report(
        6,
        low_bad and best in step_of_four,
        f"overall BER at ratio<=1 exceeds 0.2: {low_bad}; best ratio {best}",
    )


def test_c07_geometry_of_wrong_detection():
    width = wrong_region_width(4.0)
    predicted = correct_detection_probability(4.0)
    simulated = simulated_detection_rate(
        4.0, 100_000, np.random.default_rng(SEED)
    )
    report(
        7,
        width < math.pi / 6 and abs(simulated - predicted) < 0.03,
        f"boundary {wrong_region_boundary(4.0):.4f} rad, width {width:.4f} < pi/6; "
        f"simulated rate {simulated:.4f} vs predicted {predicted:.4f}",
    )


def test_c08_cross_alphabet_distance():
    worst = 0.0
    for gamma in np.arange(0.1, 10.05, 0.1):
        pilots = math.sqrt(gamma) * np.exp(1j * np.pi / 2 * np.arange(4))
        data = math.sqrt(2.0) * np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))
        enumerated = float(
            (np.abs(pilots[:, None] - data[None, :]) ** 2).min()
        ) / ((gamma + 2.0) / 2.0)
        worst = max(worst, abs(enumerated - min_cross_distance(gamma)))
    at_two = min_cross_distance(2.0)
    report(
        8,
        worst < 1e-9 and abs(at_two - (2.0 - math.sqrt(2.0))) < 1e-12,
        f"max |enumerated - closed form| {worst:.2e}; minimum {at_two:.6f} at ratio 2",
    )


def test_c09_oracle_equivalences():
    rng = np.random.default_rng(SEED)
    data = build_data_alphabet(4)
    pilot = build_pilot_alphabet(4, 4.0)

    # stable ratio vs direct posterior evaluation
    worst_llr = 0.0
    for _ in range(300):
        y = rng.normal() + 1j * rng.normal()
        h = np.array([rng.normal() + 1j * rng.normal(), 0.3 * rng.normal()]) / 2
        dnp = rng.uniform(0.5, 3.0)
        num = sum(
            (1 / 32) * math.exp(-abs(y - (c * h[0] + np.conj(c) * h[1])) ** 2 / dnp)
            for c in pilot.points
        )
        den = sum(
            (7 / 32) * math.exp(-abs(y - (c * h[0] + np.conj(c) * h[1])) ** 2 / dnp)
            for c in data.points
        )
        naive = math.log(num / den)
        worst_llr = max(
            worst_llr, abs(llr_values(y, h, data, pilot, 8, 1, dnp) - naive)
        )

    # the frame loop's two-entry channel vectors versus the compositional
    # transmit path: block k of a frame gets path_gain * e^{j phi_k} times
    # the impaired symbols rotated by the oscillator phase theta_k
    tx = TxImpairments(0.2, math.radians(2.0))
    quiet = RxImpairments(0.0, 0.0)
    path_gain, blocks = 0.8, 3
    phases = rng.uniform(0.0, 2 * math.pi, (50, 2 + blocks))
    steps = rng.normal(0.0, math.radians(5.0), (50, blocks))
    x = rng.normal(size=(50, 64)) + 1j * rng.normal(size=(50, 64))
    h = channel_trajectory(phases, steps, "fast_block_phase", tx, path_gain)
    theta = phases[:, 1].copy()
    worst_path = 0.0
    for k in range(blocks + 1):
        if k:
            theta += steps[:, k - 1]
        phi = phases[:, 1 + k] if k else phases[:, 0]
        via_vector = propagate_blocks(x, h[:, k], quiet, np.zeros_like(x))
        for f in range(50):
            composed = path_gain * np.exp(1j * phi[f]) * apply_tx_impairments(
                x[f], tx, theta[f]
            )
            worst_path = max(worst_path, float(np.max(np.abs(via_vector[f] - composed))))

    # noiseless end-to-end runs are error free for both schemes
    quiet_cfg = paper_setup(
        geometry=BlockGeometry(blocks_per_frame=25),
        ebn0_db=(300.0,),
        trials=2,
        min_bit_errors=0,
        amplitude_imbalance=0.0,
        phase_imbalance_deg=0.0,
        distortion_level_db=-400.0,
    )
    ber_prop = run_experiment(quiet_cfg).points[0].ber_overall
    ber_conv = run_experiment(
        replace(quiet_cfg, scheme="classical_ls")
    ).points[0].ber_overall

    worst_identity = max(
        abs(
            abs(TxImpairments(eps, phi).direct_coeff) ** 2
            + abs(TxImpairments(eps, phi).image_coeff) ** 2
            - (1 + eps**2)
        )
        for eps in (0.0, 0.1, 0.2, 0.4)
        for phi in (0.0, math.radians(2.0), math.radians(8.0))
    )
    report(
        9,
        worst_llr < 1e-9
        and worst_path < 1e-12
        and ber_prop == 0.0
        and ber_conv == 0.0
        and worst_identity < 1e-12,
        f"llr gap {worst_llr:.1e}; path gap {worst_path:.1e}; "
        f"noiseless BER {ber_prop}/{ber_conv}; coefficient identity gap {worst_identity:.1e}",
    )


def test_c10_complexity_counts():
    proposed = complexity_multiplications(
        "proposed",
        iterations=4,
        pilot_order=4,
        data_order=4,
        block_length=64,
        subblocks=8,
        pilots_per_block=8,
    )
    classical = complexity_multiplications("classical", preamble_length=2)
    report(
        10,
        proposed == 8128 and classical == 4,
        f"multiplications per block: proposed {proposed}, classical {classical}",
    )


def test_c11_determinism_across_workers(tmp_path):
    cfg = paper_setup(
        geometry=BlockGeometry(blocks_per_frame=20),
        ebn0_db=(8.0, 14.0),
        trials=6,
        min_bit_errors=0,
        batch_frames=3,
    )
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    write_csv(run_experiment(cfg, workers=1), one)
    write_csv(run_experiment(cfg, workers=2), two)
    identical = one.read_bytes() == two.read_bytes()
    report(11, identical, f"csv bytes identical across worker counts: {identical}")


def test_c12_fsc_round_trip():
    rng = np.random.default_rng(SEED)
    pairs = run_fsc_trials(
        FscGeometry(), 1000, rng, build_data_alphabet(4).points
    )
    hits = sum(1 for true, detected in pairs if true == detected)
    report(12, hits >= 990, f"start positions recovered in {hits}/1000 trials")


def test_package_version_present():
    assert impilot.__version__
