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

A call forms once what its iterations share: the pilot-only half of every
least-squares fit (:class:`impilot.rx_classical._LsPilotPart`, the one
solver) and the rows' noise and prior terms.  Inside the iteration the live
rows' inputs are taken again only when rows leave.  Every whole pattern, the
settled one, its cycle mate or a rescue source, is scored by one step: one
gather of its samples at the pilot and data positions of
:func:`impilot.im_codec.pattern_positions`, its fit over all pilots (and, in
the rescue, its leave-one-pilot-out refits) and the block's residual under
each fit.  Choosing the better phase of an oscillation and adopting a rescue
candidate are then one rule with two margins.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation
from .im_codec import BlockGeometry, demap_patterns, pattern_positions
from .impairments import RxImpairments
from .rx_classical import _LsPilotPart, _pilot_terms, _received_terms, detect_symbols

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


def _dnp(distortion_level: float, noise_variance, received_power):
    """Distortion-plus-noise power at a received signal power: the power
    times the distortion level, plus thermal noise, floored for numerical
    stability.  A per-row ``noise_variance`` is broadcast along the leading
    (row) axis of ``received_power``."""
    noise = np.asarray(noise_variance, dtype=float)
    noise = noise.reshape(noise.shape + (1,) * (np.ndim(received_power) - noise.ndim))
    return np.maximum(distortion_level * received_power + noise, DNP_FLOOR)


def prior_dnp(channel_estimate, rx: RxImpairments, transmit_power: float):
    """Distortion-plus-noise power implied by a channel estimate's
    received-power prediction.  Estimates stacked on leading axes give one
    value each; a per-row ``rx.noise_variance`` holds one value per entry
    of the first axis."""
    power = (np.abs(channel_estimate) ** 2).sum(axis=-1) * transmit_power
    return _dnp(rx.distortion_level, rx.noise_variance, power)


def _neg_lse(d2: np.ndarray, dnp) -> np.ndarray:
    """log sum_k exp(-d2[k] / dnp) over the leading (candidate) axis,
    max-shifted for stability.

    The results have the bits of numpy's reductions over a last candidate
    axis.  The minimum is exact in any order.  A sum over the leading axis
    adds the candidates in order, as numpy's sum over a last axis does for
    fewer than eight entries; from eight on, numpy adds them pairwise, so
    those sums run over a last axis.
    """
    m = d2.min(axis=0)
    shifted = (m - d2) / dnp
    np.exp(shifted, out=shifted)
    if shifted.shape[0] >= 8:
        total = np.ascontiguousarray(np.moveaxis(shifted, 0, -1)).sum(axis=-1)
    else:
        total = shifted.sum(axis=0)
    return -m / dnp + np.log(total)


@functools.lru_cache(maxsize=8)
def _candidates(pilot_alphabet: Constellation, data_alphabet: Constellation):
    """Every pilot point, then every data point, and their conjugates."""
    points = np.concatenate([pilot_alphabet.points, data_alphabet.points])
    conj_points = np.conj(points)
    points.setflags(write=False)
    conj_points.setflags(write=False)
    return points, conj_points


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
    if not (dnp_arr > 0).all():
        bad = dnp_arr[~(dnp_arr > 0)].flat[0]
        raise ValueError(f"distortion-plus-noise power must be positive, got {bad}")

    h = np.asarray(channel, dtype=complex)
    y = np.asarray(received, dtype=complex)

    prior = math.log(
        pilots_per_subblock
        * data_alphabet.order
        / (pilot_alphabet.order * (subblock_length - pilots_per_subblock))
    )
    # Squared distances to every pilot candidate, then every data candidate,
    # on a leading candidate axis.
    ndim = max(y.ndim, h.ndim - 1, dnp_arr.ndim)
    points, conj_points = (
        p.reshape((-1,) + (1,) * ndim) for p in _candidates(pilot_alphabet, data_alphabet)
    )
    d2 = np.abs(y - (h[..., 0] * points + h[..., 1] * conj_points))
    np.square(d2, out=d2)
    n_pilot = pilot_alphabet.order
    return prior + _neg_lse(d2[:n_pilot], dnp_arr) - _neg_lse(d2[n_pilot:], dnp_arr)


def _top_positions(eta: np.ndarray, pilots_per_subblock: int) -> np.ndarray:
    """0-based positions of the largest ratios along the last axis, ascending;
    ties favour the smaller position, as ``argmax`` does for one pilot."""
    if pilots_per_subblock == 1:
        return np.argmax(eta, axis=-1)[..., None]
    order = np.argsort(-eta, axis=-1, kind="stable")[..., :pilots_per_subblock]
    order.sort(axis=-1)
    return order


def _leave_own_out(terms):
    """Normal-equation terms of each set with its own entry left out: the
    total over the last axis minus the entry itself."""
    return tuple(t.sum(axis=-1, keepdims=True) - t for t in terms)


def _with_each_left_out(terms, entries):
    """Normal-equation terms of the whole set, then of the set with each of
    its first ``entries`` entries left out, on the last axis."""
    totals = [t.sum(axis=-1, keepdims=True) for t in terms]
    return tuple(
        np.concatenate([total, total - t[..., :entries]], axis=-1)
        for total, t in zip(totals, terms)
    )


@dataclass
class TurboFrames:
    """Receiver output for a stack of blocks, one row per frame.  ``pattern``
    holds 0-based offsets (frames, subblocks, pilots_per_subblock);
    ``iterations`` is the number of passes run by the pass whose pattern the
    row kept, and ``converged`` whether that pass ended at a fixed point (the
    frame loop makes the stopping rule's count from the two); ``restarted``
    marks rows that adopted a rescue candidate, ``flagged`` rows the
    consistency screen flagged."""

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
    max_iterations: int = 4,
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
        max_iterations=max_iterations,
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
    max_iterations: int = 4,
    dnp_mode: str = "refresh",
) -> TurboFrames:
    """Run the full iterative receiver on one block of each of F frames.

    ``received`` is (F, block_length), ``prior_estimates`` (F, 2) and
    ``pilot_values`` (F, pilots_per_block).  ``rx.noise_variance`` is one
    value, or (F,) with one per row.  Each row's output equals that of the
    row processed alone.  The transmit power behind the received power
    predictions is the geometry's average over the two alphabets.

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
    flat_pilots = pvals.reshape(frames, -1)
    prior = np.asarray(prior_estimates, dtype=complex).reshape(frames, 2)
    y_flat = y.reshape(frames, -1)
    # Flat index of each subblock's first sample, per frame: a pattern's samples
    # are y_flat.flat[starts[rows] + pattern]; starts[rows, :1] is a row's first.
    starts = np.arange(frames * n_sub).reshape(frames, n_sub, 1) * sub_len

    # One noise variance per row, so that a row subset takes its own.
    noise = np.broadcast_to(np.asarray(rx.noise_variance, dtype=float), (frames,))
    transmit_power = geometry.average_power(data_alphabet, pilot_alphabet)
    dnp_prior = prior_dnp(prior, rx, transmit_power)

    # The pilot halves of the LS fits depend on the pilot values alone, so
    # they are formed once per block: one per subblock for the extrinsic
    # fits, from every other subblock's pilots, then, for the fits of whole
    # patterns, one over all of a row's pilots and the rescue's refits, each
    # without one pilot.
    extrinsic = _LsPilotPart.from_terms(*_leave_own_out(_pilot_terms(pvals)))
    n_refits = geometry.pilots_per_block if geometry.pilots_per_block > 3 else 0
    fit_part = _LsPilotPart.from_terms(
        *_with_each_left_out(_pilot_terms(flat_pilots[..., None]), n_refits)
    )
    # Direct-path-only fallbacks that each extrinsic update of a row takes,
    # and that each fit over all of its pilots takes.
    extrinsic_fallbacks = n_sub - np.count_nonzero(extrinsic.solvable, axis=-1)
    joint_fallback = ~fit_part.solvable[:, 0]
    fallbacks = np.zeros(frames, dtype=np.int64)

    def run_pass(rows, pattern):
        """Update the patterns of ``rows`` until each reaches a fixed point,
        a period-two oscillation or the budget.  Returns (pattern,
        iterations, converged, oscillating, cycle_mate), one entry per row;
        ``iterations`` counts the passes each row ran.

        The live rows' inputs (``ex``, ``values``, ``samples``, ``dnp``) and
        last two patterns (``current``, ``previous``) are kept compact, in
        the order of ``live``, and shrink only when rows leave."""
        current = previous = pattern
        pattern = pattern.copy()
        cycle_mate = pattern.copy()
        iterations = np.zeros(rows.size, dtype=np.int64)
        converged = np.zeros(rows.size, dtype=bool)
        oscillating = np.zeros(rows.size, dtype=bool)
        live = np.arange(rows.size)
        ex = extrinsic.take(rows)
        values, samples = pvals[rows], y[rows]
        dnp = dnp_prior[rows, None, None] if dnp_mode == "prior" else noise[rows]
        for step in range(1, max_iterations + 1):
            if not live.size:
                break
            # The extrinsic set for subblock g is every subblock's pilot
            # pairs but g's own.  Fitting the direct path alone where it is
            # degenerate keeps the update extrinsic and avoids freezing the
            # subblock on a stale prior, which would be a wrong fixed point.
            # ``starts`` of the first rows indexes the compact ``samples``.
            received_ex = _leave_own_out(
                _received_terms(values, samples.flat[starts[: live.size] + current])
            )
            h_ex = ex.solve(*received_ex)[0]

            if dnp_mode == "prior":
                dnp_iter = dnp
            else:
                power = (np.abs(h_ex) ** 2).sum(axis=-1) * transmit_power
                dnp_iter = _dnp(rx.distortion_level, dnp, power)[..., None]

            eta = llr_values(
                samples,
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
            # and the row may leave whether or not the stopping rule is on.
            fixed = (new_pattern == current).all(axis=(1, 2))
            leaving = fixed
            # Simultaneous subblock updates can settle into a period-two
            # oscillation; both phases are then fixed points of the two-step
            # map, and the caller arbitrates between them.
            if step >= 3:
                cycle = ~fixed & (new_pattern == previous).all(axis=(1, 2))
                if cycle.any():
                    mates = live[cycle]
                    oscillating[mates] = True
                    cycle_mate[mates] = current[cycle]
                    leaving = fixed | cycle
            if leaving.any():
                gone = live[leaving]
                iterations[gone] = step
                converged[live[fixed]] = True
                # A fixed point's new pattern is its current one.
                pattern[gone] = new_pattern[leaving]
                moving = ~leaving
                live, previous, current = live[moving], current[moving], new_pattern[moving]
                ex = ex.take(moving)
                values, samples, dnp = values[moving], samples[moving], dnp[moving]
            else:
                previous, current = current, new_pattern
        iterations[live] = max_iterations
        pattern[live] = current
        fallbacks[rows] += iterations * extrinsic_fallbacks[rows]
        return pattern, iterations, converged, oscillating, cycle_mate

    def candidates(rows, patterns, refits):
        """Candidate (pattern, estimate) pairs of ``rows`` and the squared
        residual of the block under each, with data positions explained by
        their best alphabet candidate.  ``patterns`` is (rows, sources,
        subblocks, pilots).  Each source gives its LS fit over all its
        pilots, then ``refits`` fits that each leave one pilot out: a single
        wrongly-claimed position drags the joint fit enough to mask its own
        residual, so the rescue re-solves without each in turn and lets the
        whole-block residual arbitrate.

        Returns the estimates (rows, sources, 1 + refits, 2), their
        residuals (rows, sources, 1 + refits) and each source's data samples
        (rows, sources, data_per_block)."""
        first = starts[rows, :1]
        samples, y_data = (y_flat.flat[first + at] for at in pattern_positions(patterns, sub_len))
        values = flat_pilots[rows][:, None]
        pairs = _received_terms(values[..., None], samples[..., None])
        part = fit_part.take((rows[:, None], slice(refits + 1)))
        estimates = part.solve(*_with_each_left_out(pairs, refits))[0]
        h0, h1 = estimates[..., :1], estimates[..., 1:]
        pilot_model = values[..., None, :] * h0 + np.conj(values[..., None, :]) * h1
        residual = np.sum(np.abs(samples[:, :, None] - pilot_model) ** 2, axis=-1)
        # Nearest data candidate, one alphabet point at a time, which keeps
        # the temporaries at (rows, sources, fits, data samples).
        points = data_alphabet.points[:, None, None, None, None]
        models = points * h0 + np.conj(points) * h1
        nearest = np.abs(y_data[:, :, None] - models[0]) ** 2
        for model in models[1:]:
            np.minimum(nearest, np.abs(y_data[:, :, None] - model) ** 2, out=nearest)
        return estimates, residual + np.sum(nearest, axis=-1), y_data

    measured_power = np.maximum(
        (np.mean(np.abs(y_flat) ** 2, axis=-1) - noise)
        / (1.0 + rx.distortion_level),
        0.0,
    )
    dnp_measured = _dnp(rx.distortion_level, noise, measured_power)

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
    estimates, residual, y_data = candidates(every, pattern[:, None], 0)
    h_final, residual, y_data = estimates[:, 0, 0], residual[:, 0, 0], y_data[:, 0]
    fallbacks += joint_fallback
    restarted = np.zeros(frames, dtype=bool)

    def adopt(rows, patterns, valid, margin, refits=0):
        """Give each of ``rows`` the first of its candidates with the
        smallest residual, where that beats the row's residual by
        ``margin``.  Source 0 of ``patterns`` is the row's own pattern, whose
        joint fit is its estimate; sources not ``valid`` are scored but
        never adopted.  Returns the adopting rows' places in ``rows`` and
        their sources."""
        fallbacks[rows] += joint_fallback[rows] * np.count_nonzero(valid[:, 1:], axis=1)
        estimates, scores, samples = candidates(rows, patterns, refits)
        scores[~valid[..., None] | np.isnan(scores)] = np.inf
        flat = scores.reshape(rows.size, -1)
        best = np.argmin(flat, axis=1)
        won = np.flatnonzero(flat[np.arange(rows.size), best] < residual[rows] - margin)
        source, fit = np.divmod(best[won], refits + 1)
        winners = rows[won]
        pattern[winners] = patterns[won, source]
        h_final[winners] = estimates[won, source, fit]
        residual[winners] = scores[won, source, fit]
        y_data[winners] = samples[won, source]
        return won, source

    # Of the two phases of a period-two oscillation, the one that explains
    # the block better.
    rows = np.flatnonzero(oscillating)
    if rows.size:
        phases = np.stack([pattern[rows], cycle_mate[rows]], axis=1)
        adopt(rows, phases, np.ones(phases.shape[:2], dtype=bool), 0.0)

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
        # Three sources of candidates, tried in this order: the settled
        # pattern, then the second pass's pattern and, if that pass
        # oscillates, its other phase, each with its joint fit and refits.
        # A second-pass pattern equal to the settled one adds nothing.
        kept = pattern[rows]
        sources = np.stack([kept, alt_pattern, alt_mate], axis=1)
        valid = np.ones((rows.size, 3), dtype=bool)
        valid[:, 2] = alt_oscillating
        valid[:, 1:] &= ~np.all(sources[:, 1:] == kept[:, None], axis=(2, 3))
        won, source = adopt(rows, sources, valid, RESCUE_MARGIN * dnp_measured[rows], n_refits)
        second = won[source > 0]
        iterations[rows[second]] = alt_iterations[second]
        converged[rows[second]] = alt_converged[second]
        restarted[rows[second]] = True

    symbol_bits = detect_symbols(y_data, h_final, data_alphabet)
    index_bits, unmapped = demap_patterns(pattern, sub_len)

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
