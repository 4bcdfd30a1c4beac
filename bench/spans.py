"""Span recording around the calls between spinrsc's modules.

The traced run swaps each name in ``TARGETS`` for a wrapper that records one
span per call: name, start, end, parent span and thread.  A target is a
function as one module looks it up from another (``optimize`` finds
``chain_decomposition`` in its own globals, the CLI finds ``region_grid`` in
its own), or a public function the benchmark itself calls.  Nothing under
``src/`` changes; the originals are put back when the traced pass ends.

Spans stay in memory and are written out with the run's result.  A span's
self time is its duration minus the same-thread spans it directly caused.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Hard-coded rather than read from spinrsc.optimize, so that a change to the
# package's constant cannot redefine the metric it is judged by.
COARSE_STEP = 0.05


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _times(args, kwargs, index: int) -> int:
    return int(np.size(args[index] if len(args) > index else kwargs["ts"]))


def _series_attrs(args, kwargs, result):
    points = _times(args, kwargs, 1)
    return {"points": points, "phase_elems": int(args[0].n) * points}


def _objective_name(args, kwargs):
    return "optimize.scan" if _times(args, kwargs, 2) > 1 else "optimize.refine"


def _objective_attrs(args, kwargs, result):
    return {"points": _times(args, kwargs, 2)}


def _search_attrs(args, kwargs, result):
    return {"t0": float(result[0])}


def _region_attrs(args, kwargs, result):
    return {"points": len(result)}


def _build_attrs(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _sample_attrs(args, kwargs, result):
    samples = args[2] if len(args) > 2 else kwargs["samples"]
    return {"samples": int(samples)}


# (module, attribute, span name or callable(args, kwargs) -> name, attrs callable)
TARGETS = [
    # the CLI's lookups into the library
    ("spinrsc.cli", "main", "cli.main", None),
    ("spinrsc.cli", "chain_decomposition", "chain.decompose", None),
    ("spinrsc.cli", "sweep", "optimize.sweep", None),
    ("spinrsc.cli", "optimal_protocol", "optimize.protocol", None),
    ("spinrsc.cli", "region_grid", "rsc.region", _region_attrs),
    ("spinrsc.cli", "amplitude_matrix", "propagate.matrix", None),
    ("spinrsc.cli", "transition_amplitude", "propagate.amplitude", None),
    ("spinrsc.cli", "full_transition_amplitude", "oracle.spectrum", None),
    # lookups between library modules
    ("spinrsc.optimize", "chain_decomposition", "chain.decompose", None),
    ("spinrsc.optimize", "maximize_over_time", "optimize.search", _search_attrs),
    ("spinrsc.optimize", "objective_series", _objective_name, _objective_attrs),
    ("spinrsc.optimize", "amplitude_series", "propagate.series", _series_attrs),
    ("spinrsc.optimize", "amplitude_matrix", "propagate.matrix", None),
    ("spinrsc.rsc", "amplitude_matrix", "propagate.matrix", None),
    ("spinrsc.oracle", "full_hamiltonian", "oracle.build", _build_attrs),
    # public functions the benchmark's workloads call directly
    ("spinrsc.chain", "chain_decomposition", "chain.decompose", None),
    ("spinrsc.optimize", "optimal_protocol", "optimize.protocol", None),
    ("spinrsc.propagate", "amplitude_matrix", "propagate.matrix", None),
    ("spinrsc.propagate", "transition_amplitude", "propagate.amplitude", None),
    ("spinrsc.rsc", "create_state", "rsc.create", None),
    ("spinrsc.rsc", "beta2_coverage", "rsc.coverage", None),
    ("spinrsc.oracle", "full_transition_amplitude", "oracle.spectrum", None),
    ("spinrsc.oracle", "sample_max_transfer", "oracle.sample", _sample_attrs),
]


class Recorder:
    """Collects spans from every thread; thread-local stacks give the parents."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn, attrs=None):
        local = self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_name = name(args, kwargs) if callable(name) else name
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(sid, span_name, start, end, parent, threading.get_ident())
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            with self._lock:
                self.spans.append(span)
            return result

        traced.__wrapped__ = fn
        return traced


@contextmanager
def tracing(recorder: Recorder):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                # a later refactor removed the name: its spans read as zero
                recorder.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original, attrs))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the same-thread child spans it covers."""
    by_id = {s.id: s for s in spans}
    own = {s.id: s.duration for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            own[parent.id] -= s.duration
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    Stage times (``*_s`` not named ``self``) include the work of the spans
    they call; ``oracle.spectrum_s`` and ``cli.self_s`` are self times.
    """
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def own_total(name):
        return sum(own[s.id] for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    scan_points = attr_sum("optimize.scan", "points")
    peaks = sum(s.attrs["t0"] / COARSE_STEP + 2.0 for s in named("optimize.search"))
    region_points = attr_sum("rsc.region", "points")
    creates = named("rsc.create")
    builds = named("oracle.build")
    return {
        "chain.decompositions": len(named("chain.decompose")),
        "chain.decompose_s": total("chain.decompose"),
        "propagate.series_calls": len(named("propagate.series")),
        "propagate.time_points": attr_sum("propagate.series", "points"),
        "propagate.phase_elems": attr_sum("propagate.series", "phase_elems"),
        "propagate.series_s": total("propagate.series"),
        "propagate.matrix_calls": len(named("propagate.matrix")),
        "optimize.scan_points": scan_points,
        "optimize.scan_s": total("optimize.scan"),
        "optimize.refine_evals": len(named("optimize.refine")),
        "optimize.refine_s": total("optimize.refine"),
        "optimize.scan_yield": peaks / scan_points if scan_points else 0.0,
        "optimize.protocol_s": total("optimize.protocol"),
        "rsc.points": region_points,
        "rsc.region_s": total("rsc.region"),
        "rsc.region_point_us": 1e6 * total("rsc.region") / region_points if region_points else 0.0,
        "rsc.create_point_us": 1e6 * total("rsc.create") / len(creates) if creates else 0.0,
        "rsc.coverage_s": total("rsc.coverage"),
        "oracle.hamiltonians": len(builds),
        "oracle.build_s": total("oracle.build"),
        "oracle.spectrum_s": own_total("oracle.spectrum"),
        "oracle.dense_bytes": max((s.attrs["bytes"] for s in builds), default=0),
        "oracle.samples": attr_sum("oracle.sample", "samples"),
        "oracle.sample_s": total("oracle.sample"),
        "cli.self_s": own_total("cli.main"),
    }


# Unit of every per-layer metric the traced run reports, in report order.
UNITS = {
    "chain.decompositions": "count",
    "chain.decompose_s": "s",
    "propagate.series_calls": "count",
    "propagate.time_points": "count",
    "propagate.phase_elems": "count",
    "propagate.series_s": "s",
    "propagate.matrix_calls": "count",
    "optimize.scan_points": "count",
    "optimize.scan_s": "s",
    "optimize.refine_evals": "count",
    "optimize.refine_s": "s",
    "optimize.scan_yield": "ratio",
    "optimize.protocol_s": "s",
    "optimize.sweep_workers": "count",
    "optimize.sweep_serial_s": "s",
    "rsc.points": "count",
    "rsc.region_s": "s",
    "rsc.region_point_us": "us",
    "rsc.create_point_us": "us",
    "rsc.coverage_s": "s",
    "oracle.hamiltonians": "count",
    "oracle.build_s": "s",
    "oracle.spectrum_s": "s",
    "oracle.dense_bytes": "bytes",
    "oracle.samples": "count",
    "oracle.sample_s": "s",
    "oracle.max_deviation": "amplitude",
    "cli.numpy_import_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def span_summary(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, distinct threads."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "threads": set()})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.id]
        row["threads"].add(s.thread)
    for row in out.values():
        row["threads"] = len(row["threads"])
    return dict(sorted(out.items()))
