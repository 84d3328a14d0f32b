"""Outside-in span tracing of squarm's layers.

A traced repeat replaces each layer function named in TARGETS, at the
module attribute where callers look it up, with a wrapper that records one
span per call: name, start, end and the span that was open when the call
began (its parent). The originals are put back afterwards. Wrappers only
read the clock; they draw from no random stream, so a traced run computes
exactly what an untraced one does.

A span's self time is its duration minus the durations of its child spans;
calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute where the function is looked up, span name)
TARGETS = (
    ("squarm.config", "build_run_config", "config.build_run_config"),
    ("squarm.config", "build_ring", "topology.build_ring"),
    ("squarm.topology", "spectral_quantities", "topology.spectral_quantities"),
    ("squarm.objective", "quadratic_objective", "objective.quadratic_objective"),
    ("squarm.objective", "stochastic_grad", "objective.stochastic_grad"),
    ("squarm.objective", "loss", "objective.loss"),
    ("squarm.objective", "full_grad_global", "objective.full_grad_global"),
    ("squarm.engine", "run", "engine.run"),
    ("squarm.engine", "eta_at", "schedule.eta_at"),
    ("squarm.engine", "threshold_at", "schedule.threshold_at"),
    ("squarm.engine", "decode", "compress.decode"),
    ("squarm.engine", "bit_cost", "compress.bit_cost"),
    ("squarm.engine", "virtual_residual", "engine.virtual_residual"),
    ("squarm.engine", "mean_preservation_check", "engine.mean_preservation_check"),
    ("squarm.engine", "metrics_csv", "engine.metrics_csv"),
    ("squarm.engine", "summary_json", "engine.summary_json"),
    ("squarm.node", "local_step", "node.local_step"),
    ("squarm.node", "should_trigger", "node.should_trigger"),
    ("squarm.node", "encode_update", "node.encode_update"),
    ("squarm.node", "apply_incoming", "node.apply_incoming"),
    ("squarm.node", "consensus_step", "node.consensus_step"),
    ("squarm.node", "compress", "compress.compress"),
)


class SpanLog:
    """Spans kept in flat arrays (about 24 bytes each) until aggregated."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._open = [-1]  # stack of open span indices; -1 is "no parent"

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span and return its index."""
        self.name_ids.append(self._name_id(name))
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.starts) - 1

    def wrap(self, name: str, fn):
        """fn with a span recorded around every call."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        open_spans, clock = self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()

        return traced

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, total seconds and self seconds."""
        ids = np.frombuffer(self.name_ids, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(self.starts, dtype=np.float64)
        covered = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - covered, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }


def originals() -> dict[tuple[str, str], object]:
    """The objects currently bound at each target attribute."""
    return {(mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr, _ in TARGETS}


def not_restored(before: dict[tuple[str, str], object]) -> list[str]:
    """Targets whose attribute is no longer the object recorded in `before`."""
    return [
        f"{mod}.{attr}"
        for (mod, attr), fn in before.items()
        if getattr(importlib.import_module(mod), attr) is not fn
    ]


@contextmanager
def patched(log: SpanLog):
    """Install log's wrappers on every target; restore the originals on exit."""
    saved = []
    try:
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, log.wrap(span, fn))
        yield log
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
