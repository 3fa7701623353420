"""Iterative joint pilot-position detection and channel estimation.

One block is processed in stages.  A coarse pass classifies every sample as
pilot or data by a log-likelihood ratio computed with the previous block's
channel estimate.  Then, for a few iterations, each subblock gets a fresh
least-squares channel fit built only from the pilots claimed by the *other*
subblocks (so a subblock never feeds back its own decisions), and its pilot
positions are re-picked with the refreshed ratios.  The loop stops when the
position pattern reaches a fixed point or the iteration budget runs out,
after which one least-squares fit over all detected pilot positions yields
the channel estimate used to demodulate the block.

Settled solutions additionally pass a whole-block consistency screen before
being adopted; see :func:`turbo_receive_frames` for the rationale.

The receiver runs on a stack of blocks, one from each of F independent
frames: :func:`turbo_receive_frames` takes ``(F, block_length)`` samples and
keeps every stage (coarse ratios, extrinsic fits, pattern updates, final
fit, screen, detection, index demapping) as arrays with a leading frame
axis, shaped ``(F, subblocks, subblock_length)`` where the stage works per
subblock.  A row leaves the iteration once it reaches a fixed point, a
period-two oscillation or the budget, and the rescue runs on the rows the
screen flags only.  Pilot patterns are 0-based offsets, one row per frame,
and index words are read from them by
:func:`impilot.im_codec.demap_patterns`.  Every row carries the same bits as
if its block were processed alone, as a stack of one.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation
from .im_codec import BlockGeometry, demap_patterns
from .impairments import RxImpairments
from .rx_classical import (
    _normal_terms,
    _pilot_terms,
    _received_terms,
    detect_symbols,
    two_path_ls,
)

# Not called here; kept because perfbench/tracing.py WRAPPED wraps both
# names on this module.
from .im_codec import rank_indices  # noqa: F401
from .rx_classical import solve_two_path_ls  # noqa: F401

__all__ = [
    "TurboFrames",
    "prior_dnp",
    "llr_values",
    "turbo_receive",
    "turbo_receive_frames",
]

DNP_FLOOR = 1e-12
DNP_MODES = ("prior", "refresh")
FALSE_FLAG_RATE = 1e-3
RESCUE_MARGIN = 3.0


@functools.lru_cache(maxsize=None)
def _flag_quantile(dof: int) -> float:
    """Upper ``FALSE_FLAG_RATE`` quantile of Gamma(dof), by bisection on the
    log of the Erlang tail e^-x * sum_{i<dof} x^i / i! (in linear space it
    underflows for large ``dof``)."""
    def above(x):
        terms = [i * math.log(x) - math.lgamma(i + 1) for i in range(dof)]
        top = max(terms)
        log_tail = top - x + math.log(sum(math.exp(t - top) for t in terms))
        return log_tail > math.log(FALSE_FLAG_RATE)

    lo, hi = 0.0, float(dof)
    while above(hi):
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


def _dnp(rx: RxImpairments, received_power):
    """Distortion-plus-noise power at a received signal power: the power
    times the distortion level, plus thermal noise, floored for numerical
    stability.  A per-row ``rx.noise_variance`` is broadcast along the
    leading (row) axis of ``received_power``."""
    power = np.asarray(received_power, dtype=float)
    noise = np.asarray(rx.noise_variance, dtype=float)
    noise = noise.reshape(noise.shape + (1,) * (power.ndim - noise.ndim))
    return np.maximum(rx.distortion_level * power + noise, DNP_FLOOR)


def prior_dnp(channel_estimate, rx: RxImpairments, transmit_power: float):
    """Distortion-plus-noise power implied by a channel estimate's
    received-power prediction.  Estimates stacked on leading axes give one
    value each; a per-row ``rx.noise_variance`` holds one value per entry
    of the first axis."""
    power = np.sum(np.abs(np.asarray(channel_estimate)) ** 2, axis=-1) * transmit_power
    return _dnp(rx, power)


def _neg_lse(d2: np.ndarray, dnp) -> np.ndarray:
    """log sum_k exp(-d2[k] / dnp) over the leading (candidate) axis,
    max-shifted for stability.

    Each candidate's distances are one contiguous slab, so the minimum and
    the sum over candidates are a few elementwise operations.  They give the
    bits of numpy's reductions over a last axis: the minimum is exact, and
    numpy adds fewer than eight entries in order but more of them pairwise,
    so more than seven candidates go to numpy's own sum.
    """
    m = d2[0]
    for k in range(1, d2.shape[0]):
        m = np.minimum(m, d2[k])
    shifted = np.exp((m - d2) / dnp)
    if shifted.shape[0] >= 8:
        total = np.ascontiguousarray(np.moveaxis(shifted, 0, -1)).sum(axis=-1)
    else:
        total = shifted[0]
        for k in range(1, shifted.shape[0]):
            total = total + shifted[k]
    return -m / dnp + np.log(total)


def llr_values(
    received,
    channel,
    data_alphabet: Constellation,
    pilot_alphabet: Constellation,
    subblock_length: int,
    pilots_per_subblock: int,
    dnp,
):
    """Pilot-vs-data log-likelihood ratio of each received sample.

    ``channel`` is a length-2 vector, or an array of them stacked on the
    leading axes for per-subblock estimates (broadcast against ``received``).
    ``dnp`` is the distortion-plus-noise power.  Positive values say pilot.
    """
    if not 1 <= pilots_per_subblock < subblock_length:
        raise ValueError("need 1 <= pilots_per_subblock < subblock_length")
    dnp_arr = np.asarray(dnp, dtype=float)
    if np.any(dnp_arr <= 0):
        raise ValueError("distortion-plus-noise power must be positive")

    channel = np.asarray(channel, dtype=complex)
    y = np.asarray(received, dtype=complex)
    shape = np.broadcast_shapes(y.shape, channel.shape[:-1], dnp_arr.shape)
    h = channel.reshape((1,) * (len(shape) + 1 - channel.ndim) + channel.shape)

    prior = math.log(
        pilots_per_subblock
        * data_alphabet.order
        / (pilot_alphabet.order * (subblock_length - pilots_per_subblock))
    )
    # Squared distances to every pilot candidate, then every data candidate,
    # on a leading candidate axis.
    points = np.concatenate([pilot_alphabet.points, data_alphabet.points])
    points = points.reshape((-1,) + (1,) * len(shape))
    d2 = np.abs(y - (h[..., 0] * points + h[..., 1] * np.conj(points))) ** 2
    dnp_arr = np.broadcast_to(dnp_arr, shape)
    n_pilot = pilot_alphabet.order
    return prior + _neg_lse(d2[:n_pilot], dnp_arr) - _neg_lse(d2[n_pilot:], dnp_arr)


def _top_positions(eta: np.ndarray, pilots_per_subblock: int) -> np.ndarray:
    """0-based positions of the largest ratios along the last axis, ascending;
    ties favour the smaller position."""
    order = np.argsort(-eta, axis=-1, kind="stable")[..., :pilots_per_subblock]
    order.sort(axis=-1)
    return order


def _leave_own_out(terms):
    """Normal-equation terms of each set with its own entry left out: the
    total over the last axis minus the entry itself."""
    return tuple(t.sum(axis=-1, keepdims=True) - t for t in terms)


@dataclass
class TurboFrames:
    """Receiver output for a stack of blocks, one row per frame.  ``pattern``
    holds 0-based offsets (frames, subblocks, pilots_per_subblock);
    ``restarted`` marks rows that adopted a rescue candidate, ``flagged``
    rows the consistency screen flagged."""

    pattern: np.ndarray
    channel_estimate: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    index_bits: np.ndarray
    unmapped: np.ndarray
    symbol_bits: np.ndarray
    ls_fallbacks: np.ndarray
    restarted: np.ndarray
    flagged: np.ndarray


def turbo_receive(
    received_block,
    prior_estimate,
    geometry: BlockGeometry,
    data_alphabet: Constellation,
    pilot_alphabet: Constellation,
    pilot_values,
    rx: RxImpairments,
    transmit_power: float,
    max_iterations: int = 4,
    use_stopping: bool = True,
    dnp_mode: str = "refresh",
) -> TurboFrames:
    """Run the full iterative receiver on one block: :func:`turbo_receive_frames`
    on a stack of one, so every field has a leading axis of 1."""
    return turbo_receive_frames(
        np.asarray(received_block, dtype=complex).reshape(1, -1),
        np.asarray(prior_estimate, dtype=complex).reshape(1, 2),
        geometry,
        data_alphabet,
        pilot_alphabet,
        np.asarray(pilot_values, dtype=complex).reshape(1, -1),
        rx,
        transmit_power,
        max_iterations=max_iterations,
        use_stopping=use_stopping,
        dnp_mode=dnp_mode,
    )


def turbo_receive_frames(
    received,
    prior_estimates,
    geometry: BlockGeometry,
    data_alphabet: Constellation,
    pilot_alphabet: Constellation,
    pilot_values,
    rx: RxImpairments,
    transmit_power: float,
    max_iterations: int = 4,
    use_stopping: bool = True,
    dnp_mode: str = "refresh",
) -> TurboFrames:
    """Run the full iterative receiver on one block of each of F frames.

    ``received`` is (F, block_length), ``prior_estimates`` (F, 2) and
    ``pilot_values`` (F, pilots_per_block).  ``rx.noise_variance`` is one
    value, or (F,) with one per row.  Each row's output equals that of the
    row processed alone.

    ``dnp_mode`` picks the distortion-plus-noise power used inside the
    ratio: "prior" keeps the value derived from the prior estimate for the
    whole block, "refresh" recomputes it each iteration from the latest
    per-subblock estimates.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if dnp_mode not in DNP_MODES:
        raise ValueError(f"unknown dnp_mode {dnp_mode!r}; options: {DNP_MODES}")
    if geometry.pilots_per_block - geometry.pilots_per_subblock < 2:
        raise ValueError("need at least two pilots outside each subblock")

    n_sub = geometry.subblocks
    sub_len = geometry.subblock_length
    per_sub = geometry.pilots_per_subblock

    y = np.asarray(received, dtype=complex).reshape(-1, n_sub, sub_len)
    frames = y.shape[0]
    pvals = np.asarray(pilot_values, dtype=complex).reshape(frames, n_sub, per_sub)
    prior = np.asarray(prior_estimates, dtype=complex).reshape(frames, 2)
    y_flat = y.reshape(frames, -1)
    offsets = np.arange(n_sub)[:, None] * sub_len
    # Flat index of each subblock's first sample, per frame: a pattern's
    # samples are y_flat.flat[starts[rows] + pattern].
    starts = np.arange(frames)[:, None, None] * geometry.block_length + offsets

    # One noise variance per row, so that a row subset takes its own.
    noise = np.broadcast_to(np.asarray(rx.noise_variance, dtype=float), (frames,))
    dnp_prior = prior_dnp(prior, rx, transmit_power)

    fallbacks = np.zeros(frames, dtype=np.int64)
    # The extrinsic fits' pilot terms depend on the pilot values alone, so
    # they and their leave-own-out totals are formed once per block.
    a_ex, s2_ex = _leave_own_out(_pilot_terms(pvals))

    def run_pass(rows, pattern):
        """Update the patterns of ``rows`` until each reaches a fixed point,
        a period-two oscillation or the budget.  Returns (pattern,
        iterations, converged, oscillating, cycle_mate), one entry per row."""
        pattern = pattern.copy()
        previous = pattern.copy()
        cycle_mate = pattern.copy()
        iterations = np.zeros(rows.size, dtype=np.int64)
        converged = np.zeros(rows.size, dtype=bool)
        oscillating = np.zeros(rows.size, dtype=bool)
        live = np.arange(rows.size)
        for step in range(1, max_iterations + 1):
            if not live.size:
                break
            r = rows[live]
            current = pattern[live]
            iterations[live] = step
            # The extrinsic set for subblock g is every subblock's pilot
            # pairs but g's own.  Fitting the direct path alone where it is
            # degenerate keeps the update extrinsic and avoids freezing the
            # subblock on a stale prior, which would be a wrong fixed point.
            received_ex = _leave_own_out(
                _received_terms(pvals[r], y_flat.flat[starts[r] + current])
            )
            h_ex, solvable = two_path_ls(a_ex[r], s2_ex[r], *received_ex)
            fallbacks[r] += n_sub - np.count_nonzero(solvable, axis=-1)

            if dnp_mode == "prior":
                dnp_iter = dnp_prior[r][:, None, None]
            else:
                rx_rows = RxImpairments(rx.distortion_level, noise[r])
                dnp_iter = prior_dnp(h_ex, rx_rows, transmit_power)[..., None]

            eta = llr_values(
                y[r],
                h_ex[:, :, None, :],
                data_alphabet,
                pilot_alphabet,
                sub_len,
                per_sub,
                dnp_iter,
            )
            new_pattern = _top_positions(eta, per_sub)
            # A repeated pattern is a fixed point: the extrinsic fits depend
            # only on (pattern, y), so further passes cannot change anything
            # and the row may leave either way.  With the stopping rule off,
            # the reported count is the full budget the run is equivalent to.
            fixed = np.all(new_pattern == current, axis=(1, 2))
            # Simultaneous subblock updates can settle into a period-two
            # oscillation; both phases are then fixed points of the two-step
            # map, and the caller arbitrates between them.
            cycle = np.zeros_like(fixed)
            if step >= 3:
                cycle = ~fixed & np.all(new_pattern == previous[live], axis=(1, 2))
            converged[live[fixed]] = True
            mates = live[cycle]
            oscillating[mates] = True
            cycle_mate[mates] = current[cycle]
            pattern[mates] = new_pattern[cycle]
            moving = ~(fixed | cycle)
            live = live[moving]
            previous[live] = current[moving]
            pattern[live] = new_pattern[moving]
        if not use_stopping:
            iterations[:] = max_iterations
        # An oscillating pattern never satisfies the stopping criterion, so
        # the early exit above stands in for a full-budget run.
        iterations[oscillating] = max_iterations
        return pattern, iterations, converged, oscillating, cycle_mate

    def pilot_pairs(rows, pattern):
        """Known pilot values and the samples at the detected positions,
        (rows, pilots_per_block) each, in subblock order."""
        shape = (rows.size, geometry.pilots_per_block)
        values = pvals[rows].reshape(shape)
        samples = y_flat.flat[starts[rows] + pattern].reshape(shape)
        return values, samples

    def final_fit(rows, pattern):
        """LS over all detected pilot positions, with a direct-path-only fit
        for degenerate pilot sets.  Returns (estimates, fell_back)."""
        estimates, solvable = two_path_ls(*_normal_terms(*pilot_pairs(rows, pattern)))
        return estimates, ~solvable

    def leave_one_out_fits(rows, pattern):
        """LS fits with one claimed pilot pair excluded, one per pair:
        (rows, pilots_per_block, 2).

        A single wrongly-claimed position drags the joint fit enough to mask
        its own residual, so the rescue candidates re-solve without each pair
        in turn and let the whole-block residual arbitrate.
        """
        values, samples = pilot_pairs(rows, pattern)
        terms = _normal_terms(values[..., None], samples[..., None])
        return two_path_ls(*_leave_own_out(terms))[0]

    def joint_residual(rows, patterns, estimates):
        """Squared residual of each row's block under each of its candidate
        (pattern, estimate) pairs, with data positions explained by their
        best alphabet candidate.  ``patterns`` is (rows, candidates,
        subblocks, pilots), ``estimates`` (rows, candidates, 2)."""
        shape = patterns.shape[:2]
        positions = starts[rows][:, None] + patterns
        samples = y_flat.flat[positions].reshape(*shape, -1)
        flat = pvals[rows].reshape(rows.size, 1, -1)
        h0, h1 = estimates[..., :1], estimates[..., 1:]
        pilot_model = flat * h0 + np.conj(flat) * h1
        residual = np.sum(np.abs(samples - pilot_model) ** 2, axis=-1)
        data = np.ones(shape + (geometry.block_length,), dtype=bool)
        np.put_along_axis(data, (patterns + offsets).reshape(*shape, -1), False, axis=-1)
        y_data = np.broadcast_to(y_flat[rows][:, None], data.shape)[data].reshape(*shape, -1)
        # Nearest data candidate, one alphabet point at a time, which keeps
        # the temporaries at (rows, candidates, data samples).
        nearest = None
        for point in data_alphabet.points:
            d2 = np.abs(y_data - (point * h0 + np.conj(point) * h1)) ** 2
            nearest = d2 if nearest is None else np.minimum(nearest, d2)
        return residual + np.sum(nearest, axis=-1)

    measured_power = np.maximum(
        (np.mean(np.abs(y_flat) ** 2, axis=-1) - noise)
        / (1.0 + rx.distortion_level),
        0.0,
    )
    dnp_measured = _dnp(rx, measured_power)

    every = np.arange(frames)
    eta = llr_values(
        y,
        prior[:, None, None, :],
        data_alphabet,
        pilot_alphabet,
        sub_len,
        per_sub,
        dnp_prior[:, None, None],
    )
    pattern, iterations, converged, oscillating, cycle_mate = run_pass(
        every, _top_positions(eta, per_sub)
    )
    h_final, fell_back = final_fit(every, pattern)
    fallbacks += fell_back
    residual = joint_residual(every, pattern[:, None], h_final[:, None])[:, 0]
    restarted = np.zeros(frames, dtype=bool)

    rows = np.flatnonzero(oscillating)
    if rows.size:
        mate_h, fell_back = final_fit(rows, cycle_mate[rows])
        fallbacks[rows] += fell_back
        mate_residual = joint_residual(rows, cycle_mate[rows][:, None], mate_h[:, None])[:, 0]
        better = mate_residual < residual[rows]
        swap = rows[better]
        pattern[swap] = cycle_mate[swap]
        h_final[swap] = mate_h[better]
        residual[swap] = mate_residual[better]

    # Consistency screen, applied only to solutions the iteration settled on
    # (a fixed point, or either phase of a period-two oscillation): the update
    # rule has rare stable wrong solutions in which one or more subblocks
    # consistently claim data samples as pilots.  Those leave true (boosted)
    # pilots badly explained, so the whole-block residual stands above the
    # distortion-plus-noise level, over which noise alone gives about a
    # Gamma(block_length - 2) draw (two complex coefficients are fitted); a
    # block is flagged above its upper quantile at FALSE_FLAG_RATE.  Rescue
    # candidates are built from a second pass seeded by sample magnitude
    # alone plus leave-one-pair-out refits of each pattern, and a candidate
    # is adopted only if it beats the settled residual by a clear margin.
    # Solutions that merely ran out of iteration budget are left alone:
    # not-yet-converged detection is expected to be poor, and hiding that
    # would misstate how performance depends on the budget.
    settled = converged | oscillating
    flagged = settled & (residual > _flag_quantile(geometry.block_length - 2) * dnp_measured)
    rows = np.flatnonzero(flagged)
    if rows.size:
        alt_pattern, alt_iterations, alt_converged, alt_oscillating, alt_mate = run_pass(
            rows, _top_positions(np.abs(y[rows]) ** 2, per_sub)
        )
        # Three sources of candidates, tried in this order: refits of the
        # settled pattern, then the second pass's pattern and, if that pass
        # oscillates, its other phase, each with its joint fit and refits.
        # A second-pass pattern equal to the settled one adds nothing.
        kept = pattern[rows]
        source_patterns = np.stack([kept, alt_pattern, alt_mate], axis=1)
        source_valid = np.ones((rows.size, 3), dtype=bool)
        source_valid[:, 2] = alt_oscillating
        source_valid[:, 1:] &= ~np.all(source_patterns[:, 1:] == kept[:, None], axis=(2, 3))
        source_iterations = np.stack([iterations[rows], alt_iterations, alt_iterations], axis=1)
        source_converged = np.stack([converged[rows], alt_converged, alt_converged], axis=1)

        joint = np.zeros((rows.size, 3, 1, 2), dtype=complex)
        row_of, source_of = np.nonzero(source_valid[:, 1:])
        source_of += 1
        joint[row_of, source_of, 0], fell_back = final_fit(
            rows[row_of], source_patterns[row_of, source_of]
        )
        np.add.at(fallbacks, rows[row_of], fell_back)
        n_refits = geometry.pilots_per_block if geometry.pilots_per_block > 3 else 0
        refits = leave_one_out_fits(
            np.repeat(rows, 3), source_patterns.reshape(-1, n_sub, per_sub)
        ).reshape(rows.size, 3, -1, 2)[:, :, :n_refits]
        per_source = [refits[:, 0]] + [
            np.concatenate([joint[:, k], refits[:, k]], axis=1) for k in (1, 2)
        ]
        if not source_valid[:, 2].any():
            per_source.pop()
        source = np.repeat(np.arange(len(per_source)), [e.shape[1] for e in per_source])
        estimates = np.concatenate(per_source, axis=1)
        cand_residual = joint_residual(rows, source_patterns[:, source], estimates)
        cand_residual[~source_valid[:, source] | np.isnan(cand_residual)] = np.inf
        # Trying candidates in order and keeping strict improvements ends on
        # the first one that reaches the smallest residual.
        best = np.argmin(cand_residual, axis=1)
        adopt = (
            cand_residual[np.arange(rows.size), best]
            < residual[rows] - RESCUE_MARGIN * dnp_measured[rows]
        )
        winners = rows[adopt]
        pick = (np.flatnonzero(adopt), source[best[adopt]])
        pattern[winners] = source_patterns[pick]
        h_final[winners] = estimates[np.flatnonzero(adopt), best[adopt]]
        iterations[winners] = source_iterations[pick]
        converged[winners] = source_converged[pick]
        restarted[winners] = pick[1] > 0

    data = np.ones((frames, geometry.block_length), dtype=bool)
    np.put_along_axis(data, (pattern + offsets).reshape(frames, -1), False, axis=-1)
    symbol_bits = detect_symbols(y_flat[data].reshape(frames, -1), h_final, data_alphabet)
    index_bits, unmapped = demap_patterns(pattern, sub_len, per_sub)

    return TurboFrames(
        pattern=pattern,
        channel_estimate=h_final,
        iterations=iterations,
        converged=converged,
        index_bits=index_bits,
        unmapped=unmapped,
        symbol_bits=symbol_bits,
        ls_fallbacks=fallbacks,
        restarted=restarted,
        flagged=flagged,
    )
