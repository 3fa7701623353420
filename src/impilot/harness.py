"""Monte Carlo experiment engine.

A run sweeps per-bit SNR points for one receiver scheme, simulating frames of
sequentially-dependent blocks (the channel estimate of block k seeds the
detection of block k+1).  Frames are independent, so batch b of every SNR
point still under its error target runs as one lockstep stack: a group of
consecutive blocks of every frame goes through the channel as one stack
before the next group, each row with its own point's noise variance.  With
several workers, or where the config's size caps call for it, the stack is
cut into contiguous chunks in ``(point, trial)`` order.  Results are a pure
function of (config, seed): the per-frame random stream is derived from the
master seed and the frame's ``(point, trial)`` coordinates, batches have a
fixed size, and each frame comes back as one row of counts and one of float
sums, which its point adds in frame order, so neither the lockstep width,
the block group nor splitting frames across workers can change a single
output byte.
"""

import hashlib
import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import KW_ONLY, asdict, dataclass, field, fields, replace
from functools import cached_property, partial

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
    pattern_positions,
    se_conventional,
    se_proposed,
)
from .impairments import TWO_PI, RxImpairments, TxImpairments
from .rx_classical import _LsPilotPart, _pilot_terms, detect_symbols, ls_estimate, mmse_estimate
from .rx_turbo import DNP_MODES, TurboFrames, turbo_receive, turbo_receive_frames  # noqa: F401

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

# Bounds on what a batch may allocate, so that a config too large for memory
# fails when it is built and not mid-run.  A batch draws the bits and pilot
# values of every block of its frames at frame start, and its noise one block
# group at a time.  Each block step compares every sample of its stack with
# every point of both alphabets and, in the rescue of proposed_turbo, with up
# to 3 * (pilots_per_block + 1) candidate fits.  Measured near either cap
# (numpy 2.4, Linux), runs peaked at up to 380 MB resident.
_MAX_ALPHABET_ORDER = 2**10
# One int64 count per pass for each proposed_turbo frame of a stack: 2**6
# passes take 85 MB at the largest stack the caps below admit (155,344 frames).
_MAX_ITERATIONS = 2**6
_MAX_BATCH_SAMPLES = 2**24
_MAX_STEP_DISTANCES = 2**24
# Rows that one step of the frame loop aims at: over F frames it stacks
# max(1, _STEP_ROWS // F) consecutive blocks of each frame (fewer where the
# caps above admit fewer rows), and each frame draws their noise in one
# call.  More rows cut the per-step overhead of the known-pilot schemes,
# and raise the peak memory of a step.
_STEP_ROWS = 256


@dataclass(frozen=True)
class SystemConfig:
    """Every scalar knob of one experiment.

    ``use_stopping_rule`` moves only the ``iter1..iter4`` columns and, as a
    :meth:`to_dict` field, the ``config_hash``.  The receiver leaves a block at
    a fixed point or a period-two oscillation with the rule on or off; the rule
    acts only where :func:`_simulate_frames` counts passes, a converged block's
    as run and every other block's as the full budget (every block's, off).
    """

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
        if not isinstance(self.geometry, BlockGeometry):
            raise ValueError(f"geometry must be a BlockGeometry, got {self.geometry!r}")
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
            if order > _MAX_ALPHABET_ORDER:
                raise ValueError(f"{name} must be <= {_MAX_ALPHABET_ORDER}, got {order}")
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
        if not 1 <= self.max_iterations <= _MAX_ITERATIONS:
            raise ValueError(
                f"max_iterations must be in 1..{_MAX_ITERATIONS}, got {self.max_iterations}"
            )
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        self._check_size()
        self._check_runnable()
        self._check_linear_range()

    def _frame_size(self) -> tuple[int, int]:
        """What one frame adds to a lockstep stack: the samples it draws,
        and the distances its block step computes."""
        g = self.geometry
        per_sample = self.data_order + self.pilot_order
        if self.scheme == "proposed_turbo":
            per_sample += 3 * (g.pilots_per_block + 1)
        return g.frame_length, g.block_length * per_sample

    def _max_stack_frames(self) -> int:
        """The most frames one lockstep stack may hold within
        ``_MAX_BATCH_SAMPLES`` and ``_MAX_STEP_DISTANCES``."""
        samples, distances = self._frame_size()
        return min(_MAX_BATCH_SAMPLES // samples, _MAX_STEP_DISTANCES // distances)

    def _check_size(self) -> None:
        """Reject a config whose batch passes ``_MAX_BATCH_SAMPLES`` samples
        or whose block step passes ``_MAX_STEP_DISTANCES`` distances."""
        frames = min(self.batch_frames, self.trials)
        samples, distances = (frames * size for size in self._frame_size())
        if samples > _MAX_BATCH_SAMPLES:
            raise ValueError(
                "min(batch_frames, trials) * blocks_per_frame * block_length is "
                f"{samples} samples per batch, over the cap of {_MAX_BATCH_SAMPLES}"
            )
        terms = "data_order + pilot_order"
        if self.scheme == "proposed_turbo":
            terms += " + 3 * (pilots_per_block + 1)"
        if distances > _MAX_STEP_DISTANCES:
            raise ValueError(
                f"min(batch_frames, trials) * block_length * ({terms}) is {distances} "
                f"distances per block step, over the cap of {_MAX_STEP_DISTANCES}"
            )

    def _check_runnable(self) -> None:
        """Reject the scheme/geometry/alphabet combinations that would hang
        or fail mid-run: every least-squares fit of the two channel entries
        needs two pilots whose values are not all on one line.  The config's
        one build of its alphabets is made here (a classical scheme's data one)."""
        g = self.geometry
        if self.classical:
            if g.preamble_length < 2:
                raise ValueError(
                    f"geometry.preamble_length must be >= 2 for {self.scheme}, "
                    f"got {g.preamble_length}"
                )
            self._data_alphabet
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
            (f"ebn0_db {v:g}", "noise variance", lambda v=v: self.noise_variance_for(v))
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
        if not isinstance(data, dict):
            raise ValueError(f"config must be a mapping, got {data!r}")
        data = dict(data)
        geo_data = data.pop("geometry", {})
        known = {f.name for f in fields(cls)} - {"geometry"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if not isinstance(geo_data, dict):
            raise ValueError(f"geometry must be a mapping, got {geo_data!r}")
        geo_unknown = set(geo_data) - {f.name for f in fields(BlockGeometry)}
        if geo_unknown:
            raise ValueError(f"unknown geometry keys: {sorted(geo_unknown)}")
        try:
            return cls(geometry=BlockGeometry(**geo_data), **data)
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
        """The data and pilot alphabets, built once per config (a classical
        scheme's pilot one only when asked); a pickled config carries them to the workers."""
        return self._alphabets

    @cached_property
    def _data_alphabet(self) -> Constellation:
        return build_data_alphabet(self.data_order)

    @cached_property
    def _alphabets(self) -> tuple[Constellation, Constellation]:
        data = self._data_alphabet
        pilot = build_pilot_alphabet(self.pilot_order, self.gamma, data)
        if self.normalize_block_power:
            power = self.geometry.average_power(data, pilot)
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
        return self.geometry.average_power(*self.alphabets())

    @cached_property
    def _received_power(self) -> float:
        return self.power_gain * self.transmit_power()

    def noise_variance_for(self, ebn0_db: float) -> float:
        """Thermal noise variance realizing the requested per-bit SNR, with
        average received power power_gain * P_t, worked out once per config
        from the one build of its alphabets that travels with it."""
        return self._received_power / (self.spectral_efficiency() * 10.0 ** (ebn0_db / 10.0))


def _spans_both_axes(values) -> np.ndarray:
    """Whether the least-squares fit resolves both paths from each pilot set
    (last axis): the rank rule of :class:`impilot.rx_classical._LsPilotPart`."""
    return _LsPilotPart.from_terms(*_pilot_terms(values)).solvable


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


def _draw_noise(rngs, samples: int) -> np.ndarray:
    """Unit-variance complex noise, (frames, samples): one
    ``standard_normal`` call of ``samples`` pairs per generator."""
    normals = np.empty((len(rngs), samples, 2))
    for f, rng in enumerate(rngs):
        rng.standard_normal(out=normals[f])
    return unit_noise(normals)


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


# The count columns of a frame's row, ahead of its iteration counts.
_COUNTS = ("index_bit_errors", "symbol_bit_errors", "pattern_errors", "fallbacks")


def _block_sizes(config: SystemConfig) -> tuple[int, int, int]:
    """What one block scores: its index bits, symbol bits and subblocks."""
    g = config.geometry
    bits_per_symbol = config.data_order.bit_length() - 1
    if config.classical:
        return 0, (g.block_length - g.preamble_length) * bits_per_symbol, 0
    return g.index_bits_per_block, g.data_per_block * bits_per_symbol, g.subblocks


def _simulate_frames(config: SystemConfig, frame_keys) -> tuple[np.ndarray, np.ndarray]:
    """Scores of the frames ``frame_keys``, one row per frame, in order.

    ``frame_keys`` holds one ``(point, trial)`` pair per frame: the index of
    its SNR point in ``config.ebn0_db`` and its trial number there.  Frames
    of different points may share a stack; each row takes its own point's
    noise variance.  Rows and variances read the config's one build of
    its alphabets, which travels with it to each worker.

    Each frame draws from its own stream, seeded by the master seed and its
    ``(point, trial)`` pair, in a fixed order: at the start of the frame,

    1. ``uniform(0, 2 pi)``: the initial physical and oscillator phases,
       then (fast_block_phase only) each block's physical phase;
    2. ``normal(0, step std, blocks)``: the oscillator steps, skipped when
       the step std is zero;
    3. one ``integers`` call for every block's index and symbol bits;
    4. flexible schemes: one ``integers`` call for every block's pilot
       values, then the redraws of degenerate pilot sets in block order

    (:func:`_draw_frames`), and then ``standard_normal`` pairs for the
    initial preamble (flexible schemes) and then one call for each group of
    blocks, which become unit-variance complex noise scaled to each block's
    received power.  One call of ``n * block_length`` pairs draws what
    ``n`` calls of one block would, so a frame's rows depend neither on the
    frames it runs with nor on the group size.

    The frames run in lockstep, a group of blocks at a time: the group
    holds ``_STEP_ROWS // frames`` blocks (at least one, and fewer where the
    size caps demand it), and every block of it, of every frame, is one row
    of the stack.  Only the block's assembly and its estimation depend on
    the scheme.  The known-pilot schemes estimate, detect and score the
    whole stack at once; proposed_turbo, whose estimate of block k seeds
    block k+1, receives it one block at a time.

    Returns int64 counts, columns ``_COUNTS`` then (proposed_turbo only) the
    blocks settled after each of the ``max_iterations`` passes, and float64
    ``(mse_num, mse_den)``.
    """
    points, trials = np.asarray(frame_keys, dtype=np.int64).reshape(-1, 2).T
    rngs = [
        np.random.default_rng(
            np.random.SeedSequence(entropy=config.master_seed, spawn_key=(int(p), int(t)))
        )
        for p, t in zip(points, trials)
    ]
    g = config.geometry
    tx = config.tx_impairments()
    variances = np.array(list(map(config.noise_variance_for, config.ebn0_db)))[points]
    rx = RxImpairments(distortion_level=config.distortion_level, noise_variance=variances)
    scheme = config.scheme
    classical = config.classical
    turbo = scheme == "proposed_turbo"
    frames = len(rngs)
    n_index_bits, n_symbol_bits, _ = _block_sizes(config)
    # Blocks per group: about _STEP_ROWS rows of (frame, block) pairs, and
    # one block once the frames alone fill that.
    group = max(1, min(_STEP_ROWS, config._max_stack_frames()) // max(frames, 1))
    if classical:
        data_const = config._data_alphabet
        pilots = _unit_preamble(g.preamble_length)
    else:
        data_const, pilot_const = config.alphabets()
    if scheme == "classical_mmse":
        prior = _mmse_prior(config)
        dnp = config.distortion_level * config.power_gain + variances

    rows = np.arange(frames)
    bits_per_sub = g.index_bits_per_subblock

    counts = np.zeros((frames, len(_COUNTS) + turbo * config.max_iterations), dtype=np.int64)
    # column views, so each += adds into ``counts``
    index_bit_errors, symbol_bit_errors, pattern_errors, fallbacks = counts.T[: len(_COUNTS)]
    iteration_counts = counts[:, len(_COUNTS) :]
    mse = np.zeros((frames, 2))

    phases, steps, bits, all_pilots = _draw_frames(
        rngs, config, n_index_bits + n_symbol_bits, None if classical else pilot_const.points
    )
    channels = channel_trajectory(phases, steps, config.fading_mode, tx, config.path_gain)

    if not classical:
        # The flexible schemes open each frame with a known preamble; only
        # the turbo receiver uses its estimate, but every one draws its noise.
        init = _unit_preamble(g.init_preamble_length)
        noise = _draw_noise(rngs, g.init_preamble_length)
        if turbo:
            y_init = propagate_blocks(np.tile(init, (frames, 1)), channels[:, 0], rx, noise)
            h_prior = ls_estimate(init, y_init)

    for start in range(0, g.blocks_per_frame, group):
        # Rows are (frame, block) pairs of the group, frame-major.
        n = min(group, g.blocks_per_frame - start)
        stack = frames * n
        h_true = channels[:, start + 1 : start + 1 + n].reshape(stack, 2)
        block_bits = bits[:, start : start + n].reshape(stack, -1)
        index_bits = block_bits[:, :n_index_bits]
        symbol_bits = block_bits[:, n_index_bits:]
        if classical:
            data = map_bits_array(symbol_bits, data_const).reshape(stack, -1)
            symbols = np.concatenate([np.tile(pilots, (stack, 1)), data], axis=1)
        else:
            pilots = all_pilots[:, start : start + n].reshape(stack, -1)
            symbols, true_pattern = assemble_blocks(
                index_bits, symbol_bits, pilots, g, data_const
            )
        noise = _draw_noise(rngs, n * g.block_length).reshape(stack, -1)
        rx_stack = replace(rx, noise_variance=np.repeat(variances, n))
        y = propagate_blocks(symbols, h_true, rx_stack, noise)
        del symbols, noise  # free before the receiver's own arrays

        if turbo:
            # Block k's estimate seeds block k + 1, so the group goes one
            # block at a time: ``at`` holds the rows of one block.
            blocks = []
            for at in np.arange(stack).reshape(frames, n).T:
                result = turbo_receive_frames(
                    y[at],
                    h_prior,
                    g,
                    data_const,
                    pilot_const,
                    pilots[at],
                    rx,
                    max_iterations=config.max_iterations,
                    dnp_mode=config.dnp_mode,
                )
                h_prior = result.channel_estimate
                blocks.append(result)
            # Each field of the group, with its rows frame-major.
            out = TurboFrames(*(
                np.stack(values, axis=1).reshape((stack,) + values[0].shape[1:])
                for values in zip(*(vars(block).values() for block in blocks))
            ))
            h_hat, rx_symbol_bits = out.channel_estimate, out.symbol_bits
            # The receiver's counts are integers, so the group's blocks are
            # scored at once, in any order.  The stopping rule ends a block at
            # a fixed point.  Every other block, and every block with the rule
            # off, counts the full budget: past a fixed point or a period-two
            # oscillation further passes change nothing.
            passes = config.max_iterations
            if config.use_stopping_rule:
                passes = np.where(out.converged, out.iterations, passes)
            np.add.at(iteration_counts, (np.repeat(rows, n), passes - 1), 1)
            fallbacks += out.ls_fallbacks.reshape(frames, n).sum(axis=1)
            truth = index_bits.reshape(stack, g.subblocks, bits_per_sub)
            guess = out.index_bits.reshape(stack, g.subblocks, bits_per_sub)
            per_sub = (truth != guess).sum(axis=2)
            per_sub[out.unmapped] = bits_per_sub
            index_bit_errors += per_sub.reshape(frames, -1).sum(axis=1)
            wrong_sub = np.any(out.pattern != true_pattern, axis=2)
            pattern_errors += wrong_sub.reshape(frames, -1).sum(axis=1)
        else:
            # Known pilot positions: the preamble, or the true pattern.
            if classical:
                received, data = y[:, : g.preamble_length], y[:, g.preamble_length :]
            else:
                positions = pattern_positions(true_pattern, g.subblock_length)
                received, data = (np.take_along_axis(y, at, axis=1) for at in positions)
            if scheme == "classical_mmse":
                h_hat = mmse_estimate(pilots, received, np.repeat(dnp, n), prior)
            else:
                h_hat = ls_estimate(pilots, received)
            rx_symbol_bits = detect_symbols(data, h_hat, data_const)

        wrong = np.count_nonzero(symbol_bits != rx_symbol_bits, axis=1)
        symbol_bit_errors += wrong.reshape(frames, n).sum(axis=1)
        errors = np.sum(np.abs(h_hat - h_true) ** 2, axis=1).reshape(frames, n)
        powers = np.sum(np.abs(h_true) ** 2, axis=1).reshape(frames, n)
        # Block by block, the order in which a frame's MSE sums are defined.
        for j in range(n):
            mse[:, 0] += errors[:, j]
            mse[:, 1] += powers[:, j]

    return counts, mse


@dataclass
class PointResult:
    """One SNR grid point: the sums over its frames, and where it sits."""

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
    _: KW_ONLY
    ebn0_db: float
    gamma: float
    scheme: str

    @property
    def bit_errors(self) -> int:
        return self.index_bit_errors + self.symbol_bit_errors

    def _add_frame(self, counts: list, mse_num: float, mse_den: float) -> None:
        """Add one frame's rows from :func:`_simulate_frames`; iteration
        counts stay ``()`` for the schemes that keep none."""
        self.frames += 1
        for name, count in zip(_COUNTS, counts):
            setattr(self, name, getattr(self, name) + count)
        iterations = zip(self.iteration_counts, counts[len(_COUNTS) :])
        self.iteration_counts = tuple(map(sum, iterations))
        self.mse_num += mse_num
        self.mse_den += mse_den

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
            scores = (p.ber_index, p.ber_symbol, p.ber_overall, p.mse, *cells)
            row = [_fmt(p.ebn0_db), _fmt(p.gamma), p.scheme, *map(_fmt, scores)]
            rows.append(",".join([*row, str(p.frames), str(seed), chash]))
        return rows


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.9g}"


def run_experiment(config: SystemConfig, workers: int = 1) -> ExperimentResult:
    """Sweep the SNR grid for one scheme.

    Each point runs frames in fixed-size batches until the configured frame
    cap or a minimum number of accumulated bit errors is reached, whichever
    comes first.  Batch b of every point still under its error target runs
    as one lockstep stack of ``(point, trial)`` rows, points in grid order
    and frames in trial order.  The stack is cut into contiguous chunks,
    one per worker and more where a chunk would pass the config's size
    caps; each point adds its frames' rows in frame order, and its early
    stop is decided after the batch.  Given the same (config, seed) the
    output is bit-identical for any worker count.
    """
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    active = list(range(len(config.ebn0_db)))
    # No stack has more rows than the first, which holds every point.
    workers = min(int(workers), len(active) * min(config.batch_frames, config.trials))
    max_rows = config._max_stack_frames()
    iterations = (0,) * config.max_iterations if config.scheme == "proposed_turbo" else ()
    points = [
        PointResult(
            iteration_counts=iterations, ebn0_db=v, gamma=config.gamma, scheme=config.scheme
        )
        for v in config.ebn0_db
    ]
    runner = partial(_simulate_frames, config)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for start in range(0, config.trials, config.batch_frames):
            stop = min(start + config.batch_frames, config.trials)
            keys = np.array([(p, t) for p in active for t in range(start, stop)])
            pieces = max(workers, math.ceil(len(keys) / max_rows))
            chunks = [c for c in np.array_split(keys, pieces) if c.size]
            results = (pool.map if pool else map)(runner, chunks)
            for chunk, (counts, mse) in zip(chunks, results):
                for (p, _), row, sums in zip(chunk.tolist(), counts.tolist(), mse.tolist()):
                    points[p]._add_frame(row, *sums)
            if config.min_bit_errors:
                active = [p for p in active if points[p].bit_errors < config.min_bit_errors]
            if not active:
                break
    finally:
        if pool is not None:
            pool.shutdown()
    # what every frame adds alike
    index_bits, symbol_bits, subblocks = _block_sizes(config)
    for point in points:
        point.blocks = config.geometry.blocks_per_frame * point.frames
        point.index_bits = index_bits * point.blocks
        point.symbol_bits = symbol_bits * point.blocks
        point.subblocks = subblocks * point.blocks
    return ExperimentResult(config=config, points=points)


def run_gamma_sweep(
    config: SystemConfig, gamma_grid=GAMMA_GRID_DEFAULT, workers: int = 1
) -> list:
    """One experiment per pilot power ratio; the shared master seed pairs the
    random draws across ratios for low-variance comparisons.  Every ratio's
    config is built, and so checked, before the first runs."""
    if not gamma_grid:
        raise ValueError("gamma grid must not be empty")
    configs = [replace(config, gamma=float(gamma)) for gamma in gamma_grid]
    return [run_experiment(c, workers=workers) for c in configs]


def run_iteration_histogram(config: SystemConfig, workers: int = 1) -> ExperimentResult:
    """Iteration-count statistics: stopping rule on, budget of four passes.
    The protocol is set on the config, so the CSV's ``config_hash`` names it."""
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
