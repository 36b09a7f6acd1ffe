"""In-process span tracer that wraps public pslwave functions at their import sites.

Nothing under ``src/`` changes: :meth:`Tracer.install` replaces module
attributes in this process only, so a call such as ``mu_bar(v)`` inside
``pslwave.majorizer`` resolves to the wrapper.  Each wrapper records a span
(name, start, end, parent, trial) while tracing is enabled and passes
straight through otherwise.  Self time is a span's duration minus the time
its child spans cover; it is accumulated as spans close, so the per-layer
totals need no second pass over the span list.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (module whose attribute is replaced, attribute, span name).  A function
# imported into several modules is wrapped at each module that calls it.
SITES = (
    ("pslwave.optimizer", "optimize", "optimizer.optimize"),
    ("pslwave.optimizer", "mm_step", "optimizer.mm_step"),
    ("pslwave.optimizer", "majorize_direction", "majorizer.majorize_direction"),
    ("pslwave.optimizer", "project_grid", "projector.project_grid"),
    ("pslwave.optimizer", "cyclic_correlations", "spectrum.cyclic_correlations"),
    ("pslwave.optimizer", "peak_sidelobe", "spectrum.peak_sidelobe"),
    ("pslwave.majorizer", "cyclic_correlations", "spectrum.cyclic_correlations"),
    ("pslwave.majorizer", "peak_sidelobe", "spectrum.peak_sidelobe"),
    ("pslwave.majorizer", "coefficients", "majorizer.coefficients"),
    ("pslwave.majorizer", "v_fields", "majorizer.v_fields"),
    ("pslwave.majorizer", "mu_bar", "majorizer.mu_bar"),
    # spectrum.psl_db finds peak_sidelobe in its own module
    ("pslwave.spectrum", "peak_sidelobe", "spectrum.peak_sidelobe"),
    ("pslwave.constellation", "random_reference_grid", "constellation.random_reference_grid"),
    ("pslwave.sensing", "detection_campaign", "sensing.detection_campaign"),
    ("pslwave.sensing", "synthesize_echo", "sensing.synthesize_echo"),
    ("pslwave.sensing", "matched_filter", "sensing.matched_filter"),
    ("pslwave.sensing", "cfar_detect", "sensing.cfar_detect"),
    ("pslwave.comms", "ber_campaign", "comms.ber_campaign"),
    ("pslwave.comms", "channel_apply", "comms.channel_apply"),
    ("pslwave.comms", "zf_equalize", "comms.zf_equalize"),
    ("pslwave.comms", "bit_errors", "comms.bit_errors"),
    ("pslwave.comms", "demodulate", "constellation.demodulate"),
)


class Tracer:
    """Spans and call counts kept in memory; written out by :meth:`save`."""

    def __init__(self):
        self.enabled = False
        self.trial = -1  # identifier shared by the spans of one trial
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.trials: list[int] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.missing: list[str] = []  # sites absent from this version of pslwave
        self._originals: list[tuple] = []
        self._stack: list[list] = []  # [span index, time covered by children]

    def install(self) -> None:
        for module_name, attr, span in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(span, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.trials.append(self.trial)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [idx, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.self_s[name] += (t1 - t0) - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += t1 - t0

        return wrapper

    def save(self, path: Path) -> None:
        """Write every span as parallel arrays, in the order the spans opened."""
        names = sorted(set(self.names))
        code = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([code[n] for n in self.names], dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            trial=np.asarray(self.trials, dtype=np.int64),
        )
