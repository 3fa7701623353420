"""Monte Carlo experiment engine.

A run sweeps per-bit SNR points for one receiver scheme, simulating frames of
sequentially-dependent blocks (the channel estimate of block k seeds the
detection of block k+1).  Frames are independent, so the frames of a batch
run in lockstep: block k of every frame goes through the receiver as one
stack before block k+1.  Results are a pure function of (config, seed): the
per-frame random stream is derived from the master seed and the frame's grid
coordinates, batches have a fixed size, and tallies merge in frame order, so
neither the lockstep width nor splitting frames across workers can change a
single output byte.
"""

import hashlib
import json
import math
import numbers
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial, reduce

import numpy as np

# evolve, propagate_block, assemble_block and turbo_receive are not called
# here; kept because perfbench/tracing.py WRAPPED wraps them on this module.
from .channel import (  # noqa: F401
    FADING_MODES,
    channel_trajectory,
    evolve,
    propagate_block,
    propagate_blocks,
    unit_noise,
)
from .constellation import (
    Constellation,
    build_data_alphabet,
    build_pilot_alphabet,
    map_bits_array,
    scaled,
)
from .im_codec import (  # noqa: F401
    BlockGeometry,
    _check_integer_fields,
    assemble_block,
    assemble_blocks,
    se_conventional,
    se_proposed,
)
from .impairments import TWO_PI, RxImpairments, TxImpairments
from .rx_classical import _pilot_terms, detect_symbols, ls_estimate, mmse_estimate
from .rx_turbo import DNP_MODES, turbo_receive, turbo_receive_frames  # noqa: F401

__all__ = [
    "SCHEMES",
    "SystemConfig",
    "PointResult",
    "ExperimentResult",
    "CSV_HEADER",
    "run_experiment",
    "run_gamma_sweep",
    "run_iteration_histogram",
    "write_csv",
    "GAMMA_GRID_DEFAULT",
]

SCHEMES = (
    "proposed_turbo",
    "classical_ls",
    "classical_mmse",
    "lower_bound_perfect_pattern",
)

GAMMA_GRID_DEFAULT = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0)

CSV_HEADER = (
    "snr_db,gamma,scheme,ber_index,ber_symbol,ber_overall,mse,"
    "iter1,iter2,iter3,iter4,trials,seed,config_hash"
)

_MMSE_PRIOR_RIDGE = 1e-6

_INTEGER_FIELDS = (
    "data_order",
    "pilot_order",
    "trials",
    "min_bit_errors",
    "batch_frames",
    "max_iterations",
    "master_seed",
)

_FINITE_FIELDS = (
    "gamma",
    "path_gain",
    "amplitude_imbalance",
    "phase_imbalance_deg",
    "phase_step_std_deg",
    "distortion_level_db",
)

# Bounds on the linear quantities a config derives (distortion level, power
# gain, pilot power, noise variance): products of three of them, and their
# squares, stay normal doubles, so no sum or fit in a run can overflow.
_LINEAR_RANGE = (1e-50, 1e50)


@dataclass(frozen=True)
class SystemConfig:
    """Every scalar knob of one experiment."""

    geometry: BlockGeometry = BlockGeometry()
    data_order: int = 4
    pilot_order: int = 4
    gamma: float = 4.0
    amplitude_imbalance: float = 0.2
    phase_imbalance_deg: float = 2.0
    phase_step_std_deg: float = 5.0
    distortion_level_db: float = -16.0
    fading_mode: str = "fast_block_phase"
    path_gain: float = 1.0
    ebn0_db: tuple = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0)
    trials: int = 100
    min_bit_errors: int = 100
    batch_frames: int = 25
    scheme: str = "proposed_turbo"
    max_iterations: int = 4
    use_stopping_rule: bool = True
    dnp_mode: str = "prior"
    normalize_block_power: bool = False
    master_seed: int = 0

    def __post_init__(self):
        try:
            if isinstance(self.ebn0_db, (str, bytes)):
                raise TypeError
            ebn0_db = tuple(self.ebn0_db)
            if any(isinstance(v, (bool, np.bool_)) for v in ebn0_db):
                raise TypeError
            ebn0_db = tuple(float(v) for v in ebn0_db)
        except (TypeError, ValueError):
            raise ValueError(
                f"ebn0_db must be a list of numbers, got {self.ebn0_db!r}"
            ) from None
        object.__setattr__(self, "ebn0_db", ebn0_db)
        if not all(map(math.isfinite, ebn0_db)):
            raise ValueError(f"ebn0_db values must be finite, got {ebn0_db}")
        _check_integer_fields(self, _INTEGER_FIELDS)
        for name in ("use_stopping_rule", "normalize_block_power"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(
                    f"invalid config value: {name} must be true or false, "
                    f"got {getattr(self, name)!r}"
                )
        for name in _FINITE_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(
                    f"invalid config value: {name} must be a number, got {value!r}"
                )
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.fading_mode not in FADING_MODES:
            raise ValueError(
                f"fading_mode must be one of {FADING_MODES}, got {self.fading_mode!r}"
            )
        if self.dnp_mode not in DNP_MODES:
            raise ValueError(f"dnp_mode must be one of {DNP_MODES}, got {self.dnp_mode!r}")
        for name in ("data_order", "pilot_order"):
            order = getattr(self, name)
            if order < 2 or order & (order - 1):
                raise ValueError(f"{name} must be a power of two >= 2, got {order}")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.path_gain <= 0:
            raise ValueError("path_gain must be positive")
        if self.phase_step_std_deg < 0:
            raise ValueError("phase_step_std_deg must be >= 0")
        if not self.ebn0_db:
            raise ValueError("ebn0_db grid must not be empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.batch_frames < 1:
            raise ValueError("batch_frames must be >= 1")
        if self.min_bit_errors < 0:
            raise ValueError("min_bit_errors must be >= 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        self._check_runnable()
        self._check_linear_range()

    def _check_runnable(self) -> None:
        """Reject the scheme/geometry/alphabet combinations that would hang
        or fail mid-run: every least-squares fit of the two channel entries
        needs two pilots whose values are not all on one line."""
        g = self.geometry
        if self.classical:
            if g.preamble_length < 2:
                raise ValueError(
                    f"geometry.preamble_length must be >= 2 for {self.scheme}, "
                    f"got {g.preamble_length}"
                )
            return
        if g.init_preamble_length < 2:
            raise ValueError(
                f"geometry.init_preamble_length must be >= 2 for {self.scheme}, "
                f"got {g.init_preamble_length}"
            )
        if self.pilot_order < 4:
            raise ValueError(
                f"pilot_order must be >= 4 for {self.scheme}: real (BPSK) pilots "
                "never give the [p, conj(p)] fit rank two"
            )
        try:
            self.alphabets()
        except ValueError as err:
            raise ValueError(
                f"gamma={self.gamma} with pilot_order={self.pilot_order}: {err}"
            ) from None
        if self.scheme == "proposed_turbo":
            outside = g.pilots_per_block - g.pilots_per_subblock
            if outside < 2:
                raise ValueError(
                    "geometry.subblocks and geometry.pilots_per_subblock leave "
                    f"{outside} pilot(s) outside each subblock; proposed_turbo "
                    "needs at least 2"
                )
        elif g.pilots_per_block < 2:
            raise ValueError(
                "geometry.subblocks * geometry.pilots_per_subblock must be >= 2 "
                f"for {self.scheme}, got {g.pilots_per_block}"
            )

    def _check_linear_range(self) -> None:
        """Reject fields whose derived linear quantities leave
        ``_LINEAR_RANGE``, where a run would overflow or divide by zero."""
        checks = [
            ("distortion_level_db", "distortion level", lambda: self.distortion_level),
            ("path_gain and amplitude_imbalance", "power gain", lambda: self.power_gain),
        ]
        if not self.classical:
            checks.append(("gamma", "pilot power", lambda: self.alphabets()[1].average_power))
        checks += [
            (f"ebn0_db {v:g}", "noise variance", partial(self.noise_variance_for, v))
            for v in self.ebn0_db
        ]
        low, high = _LINEAR_RANGE
        for names, quantity, compute in checks:
            try:
                inside = low <= compute() <= high
            except (OverflowError, ZeroDivisionError):
                inside = False
            if not inside:
                raise ValueError(f"{names} put the {quantity} outside [{low:g}, {high:g}]")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ebn0_db"] = list(self.ebn0_db)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        data = dict(data)
        geo_data = data.pop("geometry", None)
        known = {f.name for f in fields(cls)} - {"geometry"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if geo_data is not None:
            if not isinstance(geo_data, dict):
                raise ValueError(f"geometry must be a mapping, got {geo_data!r}")
            geo_known = {f.name for f in fields(BlockGeometry)}
            geo_unknown = set(geo_data) - geo_known
            if geo_unknown:
                raise ValueError(f"unknown geometry keys: {sorted(geo_unknown)}")
        try:
            if geo_data is not None:
                kwargs["geometry"] = BlockGeometry(**geo_data)
            return cls(**kwargs)
        except TypeError as err:
            # A value of the wrong type (say a string for a count) fails a
            # comparison in validation; report it as a bad config value.
            raise ValueError(f"invalid config value: {err}") from None

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]

    # Derived runtime pieces -------------------------------------------------

    def tx_impairments(self) -> TxImpairments:
        return TxImpairments(
            amplitude_imbalance=self.amplitude_imbalance,
            phase_imbalance=math.radians(self.phase_imbalance_deg),
            phase_step_std=math.radians(self.phase_step_std_deg),
        )

    @property
    def classical(self) -> bool:
        """Whether each block is estimated from a fixed preamble."""
        return self.scheme in ("classical_ls", "classical_mmse")

    @property
    def distortion_level(self) -> float:
        return 10.0 ** (self.distortion_level_db / 10.0)

    @property
    def power_gain(self) -> float:
        """Received per transmitted power: path_gain^2 * (1 + imbalance^2)."""
        tx = self.tx_impairments()
        return self.path_gain**2 * (abs(tx.direct_coeff) ** 2 + abs(tx.image_coeff) ** 2)

    def alphabets(self) -> tuple[Constellation, Constellation]:
        data = build_data_alphabet(self.data_order)
        pilot = build_pilot_alphabet(self.pilot_order, self.gamma, data)
        if self.normalize_block_power:
            g = self.geometry
            power = (
                g.pilots_per_block * pilot.average_power
                + g.data_per_block * data.average_power
            ) / g.block_length
            data = scaled(data, 1.0 / power)
            pilot = scaled(pilot, 1.0 / power)
        return data, pilot

    def spectral_efficiency(self) -> float:
        g = self.geometry
        if self.classical:
            return se_conventional(g.block_length, g.preamble_length, self.data_order)
        return se_proposed(g.subblock_length, g.pilots_per_subblock, self.data_order)

    def transmit_power(self) -> float:
        if self.classical:
            return 1.0
        data, pilot = self.alphabets()
        g = self.geometry
        return (
            g.pilots_per_block * pilot.average_power
            + g.data_per_block * data.average_power
        ) / g.block_length

    def noise_variance_for(self, ebn0_db: float) -> float:
        """Thermal noise variance realizing the requested per-bit SNR, with
        average received power power_gain * P_t."""
        received = self.power_gain * self.transmit_power()
        return received / (self.spectral_efficiency() * 10.0 ** (ebn0_db / 10.0))


@dataclass
class FrameTally:
    """Additive scoring sums of one frame, or of several once added."""

    frames: int = 0
    index_bit_errors: int = 0
    index_bits: int = 0
    symbol_bit_errors: int = 0
    symbol_bits: int = 0
    mse_num: float = 0.0
    mse_den: float = 0.0
    pattern_errors: int = 0
    subblocks: int = 0
    blocks: int = 0
    fallbacks: int = 0
    iteration_counts: tuple = ()

    @property
    def bit_errors(self) -> int:
        return self.index_bit_errors + self.symbol_bit_errors


def _spans_both_axes(values) -> np.ndarray:
    """Whether each pilot set (last axis) keeps its [p, conj(p)] matrix rank
    two, i.e. its values do not all lie on one line through the origin."""
    a, s2 = _pilot_terms(values)
    return a - np.abs(s2) > 1e-9 * a


def _draw_pilots(rng, points: np.ndarray, blocks: int, count: int) -> np.ndarray:
    """Equiprobable pilot values for every block of one frame, (blocks,
    count), in one draw.  The (rare) sets that do not span both conjugation
    axes are then redrawn, in block order, from the same stream until they
    do."""
    values = points[rng.integers(0, points.size, (blocks, count))]
    for b in np.flatnonzero(~_spans_both_axes(values)):
        row = values[b]
        while not _spans_both_axes(row):
            row = points[rng.integers(0, points.size, count)]
        values[b] = row
    return values


def _draw_frames(rngs, config: SystemConfig, n_bits: int, pilot_points=None):
    """Each frame's draws ahead of its noise, steps 1-4 of the order that
    :func:`_simulate_frames` gives, one frame per generator in ``rngs``.
    Returns (phases, oscillator steps, bits, pilot values) with a leading
    frame axis; all but the phases then have one row per block, and the
    pilot values are drawn (else None) only given the pilot alphabet's
    points."""
    g = config.geometry
    frames, blocks = len(rngs), g.blocks_per_frame
    fast = config.fading_mode == "fast_block_phase"
    step_std = math.radians(config.phase_step_std_deg)
    phases = np.empty((frames, 2 + blocks if fast else 2))
    steps = np.zeros((frames, blocks))
    bits = np.empty((frames, blocks, n_bits), dtype=np.uint8)
    pilots = None
    if pilot_points is not None:
        pilots = np.empty((frames, blocks, g.pilots_per_block), dtype=complex)
    for f, rng in enumerate(rngs):
        phases[f] = rng.uniform(0.0, TWO_PI, phases.shape[1])
        if step_std:
            steps[f] = rng.normal(0.0, step_std, blocks)
        bits[f] = rng.integers(0, 2, (blocks, n_bits), dtype=np.uint8)
        if pilots is not None:
            pilots[f] = _draw_pilots(rng, pilot_points, blocks, g.pilots_per_block)
    return phases, steps, bits, pilots


def _unit_preamble(length: int) -> np.ndarray:
    """Known unit-power preamble cycling the axes; rank two for length >= 2."""
    return np.exp(1j * np.pi / 2.0 * np.arange(length))


def _mmse_prior(config: SystemConfig) -> np.ndarray:
    """Analytic channel covariance for uniform-phase unit-amplitude fading
    with known imbalance coefficients, ridged to stay invertible."""
    tx = config.tx_impairments()
    coeffs = config.path_gain * np.array([tx.direct_coeff, tx.image_coeff])
    prior = np.outer(coeffs, coeffs.conj())
    ridge = _MMSE_PRIOR_RIDGE * float(np.trace(prior).real)
    return prior + ridge * np.eye(2)


def _simulate_frames(
    config: SystemConfig, ebn0_db: float, point_index: int, trial_indices
) -> list:
    """Tallies of the frames ``trial_indices`` of one SNR point, in order.

    Each frame draws from its own stream, seeded by the master seed and the
    frame's grid coordinates, in a fixed order: at the start of the frame,

    1. ``uniform(0, 2 pi)``: the initial physical and oscillator phases,
       then (fast_block_phase only) each block's physical phase;
    2. ``normal(0, step std, blocks)``: the oscillator steps, skipped when
       the step std is zero;
    3. one ``integers`` call for every block's index and symbol bits;
    4. flexible schemes: one ``integers`` call for every block's pilot
       values, then the redraws of degenerate pilot sets in block order

    (:func:`_draw_frames`), and then ``standard_normal`` pairs for the
    initial preamble (flexible schemes) and for each block in turn, which
    become unit-variance complex noise scaled to the block's received power.
    So a frame's tally does not depend on the frames it runs with.

    The frames run in lockstep: block k of every frame, then block k+1.
    Only the block's assembly and its estimation depend on the scheme;
    propagation, detection and scoring see the whole stack at once.
    """
    rngs = [
        np.random.default_rng(
            np.random.SeedSequence(
                entropy=config.master_seed, spawn_key=(point_index, int(trial))
            )
        )
        for trial in trial_indices
    ]
    g = config.geometry
    tx = config.tx_impairments()
    rx = RxImpairments(
        distortion_level=config.distortion_level,
        noise_variance=config.noise_variance_for(ebn0_db),
    )
    scheme = config.scheme
    classical = config.classical
    turbo = scheme == "proposed_turbo"
    if classical:
        data_const = build_data_alphabet(config.data_order)
        preamble = _unit_preamble(g.preamble_length)
        n_index_bits = 0
        n_data = g.block_length - g.preamble_length
    else:
        data_const, pilot_const = config.alphabets()
        transmit_power = config.transmit_power()
        n_index_bits = g.index_bits_per_block
        n_data = g.data_per_block
        offsets = np.arange(g.subblocks)[:, None] * g.subblock_length
    if scheme == "classical_mmse":
        prior = _mmse_prior(config)
        dnp = config.distortion_level * config.power_gain + rx.noise_variance

    frames = len(rngs)
    rows = np.arange(frames)
    blocks = g.blocks_per_frame
    bits_per_sub = g.index_bits_per_subblock
    n_symbol_bits = n_data * data_const.bits_per_symbol

    index_bit_errors = np.zeros(frames, dtype=np.int64)
    symbol_bit_errors = np.zeros(frames, dtype=np.int64)
    pattern_errors = np.zeros(frames, dtype=np.int64)
    fallbacks = np.zeros(frames, dtype=np.int64)
    mse_num = np.zeros(frames)
    mse_den = np.zeros(frames)
    iteration_counts = np.zeros((frames, config.max_iterations), dtype=np.int64)

    phases, steps, bits, all_pilots = _draw_frames(
        rngs, config, n_index_bits + n_symbol_bits, None if classical else pilot_const.points
    )
    channels = channel_trajectory(phases, steps, config.fading_mode, tx, config.path_gain)

    if not classical:
        # The flexible schemes open each frame with a known preamble.
        init = _unit_preamble(g.init_preamble_length)
        normals = np.empty((frames, g.init_preamble_length, 2))
        for f, rng in enumerate(rngs):
            rng.standard_normal(out=normals[f])
        y_init = propagate_blocks(
            np.tile(init, (frames, 1)), channels[:, 0], rx, unit_noise(normals)
        )
        h_prior = ls_estimate(init, y_init)

    normals = np.empty((frames, g.block_length, 2))
    for k in range(blocks):
        h_true = channels[:, k + 1]
        index_bits = bits[:, k, :n_index_bits]
        symbol_bits = bits[:, k, n_index_bits:]
        if classical:
            data = map_bits_array(symbol_bits, data_const).reshape(frames, n_data)
            symbols = np.concatenate([np.tile(preamble, (frames, 1)), data], axis=1)
        else:
            pilots = all_pilots[:, k]
            symbols, true_pattern = assemble_blocks(
                index_bits, symbol_bits, pilots, g, data_const
            )
        for f, rng in enumerate(rngs):
            rng.standard_normal(out=normals[f])
        y = propagate_blocks(symbols, h_true, rx, unit_noise(normals))

        if turbo:
            result = turbo_receive_frames(
                y,
                h_prior,
                g,
                data_const,
                pilot_const,
                pilots,
                rx,
                transmit_power,
                max_iterations=config.max_iterations,
                use_stopping=config.use_stopping_rule,
                dnp_mode=config.dnp_mode,
            )
            h_hat = result.channel_estimate
            h_prior = h_hat
            rx_symbol_bits = result.symbol_bits
            iteration_counts[rows, result.iterations - 1] += 1
            fallbacks += result.ls_fallbacks
            truth = index_bits.reshape(frames, g.subblocks, bits_per_sub)
            guess = result.index_bits.reshape(frames, g.subblocks, bits_per_sub)
            per_sub = (truth != guess).sum(axis=2)
            per_sub[result.unmapped] = bits_per_sub
            index_bit_errors += per_sub.sum(axis=1)
            pattern_errors += np.any(result.pattern != true_pattern, axis=2).sum(axis=1)
        elif scheme == "lower_bound_perfect_pattern":
            positions = (true_pattern + offsets).reshape(frames, -1)
            h_hat = ls_estimate(pilots, np.take_along_axis(y, positions, axis=1))
            is_data = np.ones((frames, g.block_length), dtype=bool)
            np.put_along_axis(is_data, positions, False, axis=1)
            data = y[is_data].reshape(frames, n_data)
            _, rx_symbol_bits = detect_symbols(data, h_hat, data_const)
        else:
            received = y[:, : g.preamble_length]
            if scheme == "classical_mmse":
                h_hat = mmse_estimate(preamble, received, dnp, prior)
            else:
                h_hat = ls_estimate(preamble, received)
            data = y[:, g.preamble_length :]
            _, rx_symbol_bits = detect_symbols(data, h_hat, data_const)

        symbol_bit_errors += np.count_nonzero(symbol_bits != rx_symbol_bits, axis=1)
        mse_num += np.sum(np.abs(h_hat - h_true) ** 2, axis=1)
        mse_den += np.sum(np.abs(h_true) ** 2, axis=1)

    return [
        FrameTally(
            frames=1,
            index_bit_errors=int(index_bit_errors[f]),
            index_bits=n_index_bits * blocks,
            symbol_bit_errors=int(symbol_bit_errors[f]),
            symbol_bits=n_symbol_bits * blocks,
            mse_num=float(mse_num[f]),
            mse_den=float(mse_den[f]),
            pattern_errors=int(pattern_errors[f]),
            subblocks=0 if classical else g.subblocks * blocks,
            blocks=blocks,
            fallbacks=int(fallbacks[f]),
            iteration_counts=tuple(int(c) for c in iteration_counts[f]) if turbo else (),
        )
        for f in range(frames)
    ]


@dataclass(kw_only=True)
class PointResult(FrameTally):
    """Aggregated scores for one SNR grid point: its frames' summed
    :class:`FrameTally` plus where on the grid it sits."""

    ebn0_db: float
    gamma: float
    scheme: str

    @property
    def ber_index(self) -> float:
        return self.index_bit_errors / self.index_bits if self.index_bits else math.nan

    @property
    def ber_symbol(self) -> float:
        return self.symbol_bit_errors / self.symbol_bits if self.symbol_bits else math.nan

    @property
    def ber_overall(self) -> float:
        total = self.index_bits + self.symbol_bits
        return (self.index_bit_errors + self.symbol_bit_errors) / total if total else math.nan

    @property
    def mse(self) -> float:
        return self.mse_num / self.mse_den if self.mse_den else math.nan

    @property
    def pattern_error_rate(self) -> float:
        return self.pattern_errors / self.subblocks if self.subblocks else math.nan

    @property
    def iteration_proportions(self) -> tuple:
        if not self.blocks or not self.iteration_counts:
            return tuple()
        return tuple(c / self.blocks for c in self.iteration_counts)


@dataclass
class ExperimentResult:
    """One scheme swept over the SNR grid, plus the config that produced it."""

    config: SystemConfig
    points: list = field(default_factory=list)

    def csv_rows(self) -> list:
        seed = self.config.master_seed
        chash = self.config.config_hash()
        rows = []
        for p in self.points:
            props = list(p.iteration_proportions)
            cells = [props[i] if i < len(props) else 0.0 for i in range(3)]
            cells.append(sum(props[3:]) if len(props) > 3 else 0.0)
            rows.append(
                ",".join(
                    [
                        _fmt(p.ebn0_db),
                        _fmt(p.gamma),
                        p.scheme,
                        _fmt(p.ber_index),
                        _fmt(p.ber_symbol),
                        _fmt(p.ber_overall),
                        _fmt(p.mse),
                        *(_fmt(c) for c in cells),
                        str(p.frames),
                        str(seed),
                        chash,
                    ]
                )
            )
        return rows


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.9g}"


def _add_tallies(a: FrameTally, b: FrameTally) -> FrameTally:
    """Field-by-field sum; iteration counts add per iteration."""
    sums = {}
    for f in fields(FrameTally):
        x, y = getattr(a, f.name), getattr(b, f.name)
        sums[f.name] = tuple(map(operator.add, x, y)) if isinstance(x, tuple) else x + y
    return FrameTally(**sums)


def _merge_point(config: SystemConfig, ebn0_db: float, tallies: list) -> PointResult:
    """One point's sums over its frames, added in frame order."""
    return PointResult(
        ebn0_db=ebn0_db,
        gamma=config.gamma,
        scheme=config.scheme,
        **asdict(reduce(_add_tallies, tallies)),
    )


def run_experiment(config: SystemConfig, workers: int = 1) -> ExperimentResult:
    """Sweep the SNR grid for one scheme.

    Each point runs frames in fixed-size batches until the configured frame
    cap or a minimum number of accumulated bit errors is reached, whichever
    comes first.  The frames of a batch run in lockstep; with several
    workers, each batch is cut into one contiguous chunk per worker.  Given
    the same (config, seed) the output is bit-identical for any worker
    count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, config.batch_frames)  # no batch has more chunks than frames
    result = ExperimentResult(config=config)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for point_index, ebn0_db in enumerate(config.ebn0_db):
            tallies: list = []
            frames_done = 0
            while frames_done < config.trials:
                batch = min(config.batch_frames, config.trials - frames_done)
                runner = partial(_simulate_frames, config, ebn0_db, point_index)
                indices = range(frames_done, frames_done + batch)
                if pool is not None:
                    for chunk in pool.map(runner, _chunks(indices, workers)):
                        tallies.extend(chunk)
                else:
                    tallies.extend(runner(indices))
                frames_done += batch
                errors = sum(t.bit_errors for t in tallies)
                if config.min_bit_errors and errors >= config.min_bit_errors:
                    break
            result.points.append(_merge_point(config, ebn0_db, tallies))
    finally:
        if pool is not None:
            pool.shutdown()
    return result


def _chunks(indices: range, parts: int) -> list:
    """``indices`` cut into at most ``parts`` contiguous, non-empty ranges
    whose lengths differ by at most one."""
    size, extra = divmod(len(indices), parts)
    chunks, start = [], indices.start
    for part in range(parts):
        stop = start + size + (part < extra)
        if stop > start:
            chunks.append(range(start, stop))
        start = stop
    return chunks


def run_gamma_sweep(
    config: SystemConfig, gamma_grid=GAMMA_GRID_DEFAULT, workers: int = 1
) -> list:
    """One experiment per pilot power ratio; the shared master seed pairs the
    random draws across ratios for low-variance comparisons."""
    if not gamma_grid:
        raise ValueError("gamma grid must not be empty")
    return [
        run_experiment(replace(config, gamma=float(gamma)), workers=workers)
        for gamma in gamma_grid
    ]


def run_iteration_histogram(config: SystemConfig, workers: int = 1) -> ExperimentResult:
    """Iteration-count statistics: stopping rule on, budget of four passes."""
    cfg = replace(
        config, scheme="proposed_turbo", use_stopping_rule=True, max_iterations=4
    )
    return run_experiment(cfg, workers=workers)


def write_csv(results, path) -> None:
    """Write one or more experiment results to a CSV file."""
    if isinstance(results, ExperimentResult):
        results = [results]
    lines = [CSV_HEADER]
    for res in results:
        lines.extend(res.csv_rows())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
