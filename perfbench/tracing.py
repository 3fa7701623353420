"""Outside-in tracing: spans around the calls between impilot's modules.

The tracer replaces module attributes with timing wrappers, at the names
through which one impilot module calls another, and puts the originals back
on ``restore``.  Nothing under ``src/`` changes.  Spans (name, start, end,
parent span, run id) are kept in compact arrays in memory and written out
once, at the end.  Only the calling process is traced: frames that the
harness hands to worker processes leave no spans.
"""

import importlib
import itertools
from time import perf_counter

import numpy as np

# (module, attribute, span name).  The attribute is the name the module's
# code calls (its own import of the function), or, for run_experiment and
# cli.main, the name the benchmark calls.
WRAPPED = (
    ("impilot.cli", "main", "cli.main"),
    ("impilot.cli", "run_experiment", "harness.run_experiment"),
    ("impilot.cli", "write_csv", "harness.write_csv"),
    ("impilot.cli", "run_fsc_trials", "fsc.run_fsc_trials"),
    ("impilot.cli", "boundary_table", "analysis.boundary_table"),
    ("impilot.harness", "run_experiment", "harness.run_experiment"),
    ("impilot.harness", "evolve", "channel.evolve"),
    ("impilot.harness", "propagate_block", "channel.propagate_block"),
    ("impilot.harness", "assemble_block", "im_codec.assemble_block"),
    ("impilot.harness", "map_bits_array", "constellation.map_bits_array"),
    ("impilot.harness", "ls_estimate", "rx_classical.ls_estimate"),
    ("impilot.harness", "mmse_estimate", "rx_classical.mmse_estimate"),
    ("impilot.harness", "detect_symbols", "rx_classical.detect_symbols"),
    ("impilot.harness", "turbo_receive", "rx_turbo.turbo_receive"),
    ("impilot.rx_turbo", "llr_values", "rx_turbo.llr_values"),
    ("impilot.rx_turbo", "rank_indices", "im_codec.rank_indices"),
    ("impilot.rx_turbo", "solve_two_path_ls", "rx_classical.solve_two_path_ls"),
    ("impilot.rx_turbo", "detect_symbols", "rx_classical.detect_symbols"),
    ("impilot.channel", "sample_rx_distortion_noise", "impairments.sample_rx_distortion_noise"),
    ("impilot.im_codec", "map_bits_array", "constellation.map_bits_array"),
    ("impilot.fsc", "zf_fde", "fsc.zf_fde"),
    ("impilot.fsc", "sliding_correlation", "fsc.sliding_correlation"),
    ("impilot.fsc", "random_well_conditioned_cir", "fsc.random_well_conditioned_cir"),
)


class Tracer:
    """Records spans while installed.  ``summaries`` maps a span name to a
    function of the wrapped call's return value; ``results[name][run_id]``
    lists what it gave, so counts come from the objects impilot returns."""

    def __init__(self, summaries=None):
        self.names = []
        self._ids = {}
        # (index, name id, parent index, run id, start, end), appended as
        # calls return; indices count calls in the order they began.
        self._spans = []
        self._stack = [-1]
        self._counter = itertools.count()
        self.run_id = 0
        self.summaries = dict(summaries or {})
        self.results = {name: {} for name in self.summaries}
        self._originals = []

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, fn, span_name):
        name_id = self._ids.setdefault(span_name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(span_name)
        spans, stack, counter = self._spans, self._stack, self._counter
        summary = self.summaries.get(span_name)
        results = self.results.get(span_name)

        def wrapper(*args, **kwargs):
            index = next(counter)
            parent = stack[-1]
            stack.append(index)
            t0 = perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((index, name_id, parent, self.run_id, t0, t1))
            if summary is not None:
                results.setdefault(self.run_id, []).append(summary(value))
            return value

        wrapper.__wrapped__ = fn
        return wrapper

    def arrays(self) -> dict:
        """Spans as numpy arrays in the order they began, with each span's
        self time: its duration minus the time its direct children cover."""
        table = np.array(sorted(self._spans), dtype=float).reshape(-1, 6)
        index, name, parent, run = (table[:, k].astype(np.int64) for k in range(4))
        start, end = table[:, 4], table[:, 5]
        # Indices are dense once every call has returned, so they are rows.
        if not (index == np.arange(index.size)).all():
            raise RuntimeError("spans are still open")
        duration = end - start
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return {
            "name": name,
            "parent": parent,
            "run": run,
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - child,
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
