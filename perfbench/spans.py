"""In-memory span tracing of memnet_sim's layers, installed from outside.

``traced(recorder)`` replaces the public functions listed in ``TARGETS`` by
wrappers that record one span per call, and restores the originals when the
block ends, so the package source is never edited.  A span holds its name,
start, end, parent span and the execution it belongs to; ``layer_metrics``
turns the spans of one round into the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

def _table_classes(args, tables) -> int:
    return sum(t.probabilities.size for t in tables)


def _bundle_bytes(args, paths) -> int:
    """Bytes of the bundle that (config, seed) determine: every file written
    except report.json, plus the report body as ``body_json`` serializes it.
    The report's meta block (wall time) is left out so the count repeats."""
    report = args[0]
    files = sum(os.path.getsize(p) for p in paths if os.path.basename(p) != "report.json")
    return files + len(report.body_json().encode())


# (module, class or None, attribute, span name, counter fed from args and result)
TARGETS = (
    ("events", None, "build_event_tables", "events.build_event_tables",
     ("events.classes", _table_classes)),
    ("events", None, "conditional_success_estimate", "events.conditional_success_estimate", None),
    ("events", "EventTable", "sample", "events.EventTable.sample", None),
    ("quantum", None, "apply_unitary", "quantum.apply_unitary", None),
    ("quantum", None, "measurement_probabilities", "quantum.measurement_probabilities", None),
    # construction plus validation: the dataclass __init__ runs __post_init__
    ("quantum", "DensityMatrix", "__init__", "quantum.DensityMatrix", None),
    ("optics", None, "connect_three", "optics.connect_three", None),
    ("optics", None, "averaged_swap_fidelity", "optics.averaged_swap_fidelity", None),
    ("node", None, "storage_channel", "node.storage_channel", None),
    ("node", None, "entangled_pair_state", "node.entangled_pair_state", None),
    ("detection", None, "subtract_accidentals", "detection.subtract_accidentals", None),
    ("detection", None, "visibility_raw", "detection.visibility_raw", None),
    ("detection", None, "write_coincidence_csv", "detection.write_coincidence_csv", None),
    ("witness", None, "fidelity_from_counts", "witness.fidelity_from_counts", None),
    ("witness", None, "populations_from_counts", "witness.populations_from_counts", None),
    ("witness", None, "write_setting_counts_csv", "witness.write_setting_counts_csv", None),
    ("harness", None, "run_scenario", "harness.run_scenario", None),
    ("harness", None, "emit_report", "harness.emit_report",
     ("harness.emit_report.bytes", _bundle_bytes)),
    # scipy's fitter as the harness sees it
    ("harness", None, "curve_fit", "harness.curve_fit", None),
    ("config", None, "preset", "config.preset", None),
    ("cli", None, "main", "cli.main", None),
)
MODULES = tuple(dict.fromkeys(t[0] for t in TARGETS))


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    execution: int
    start: float
    end: float = float("nan")


class Recorder:
    """Collects spans and counters in memory for one traced run.

    Counters are kept per execution.  Spans nest per thread.  A span opened
    on a thread with no open span of its own (a sampling task on the harness
    thread pool) takes as parent the innermost open span of the thread that
    began the execution.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (execution, name) -> count
        self.execution = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._caller_stack: list[Span] = []
        self.absent: list[str] = []  # targets this version of the package lacks

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_execution(self, execution: int) -> None:
        """Mark the calling thread as the one that runs ``execution``."""
        self.execution = execution
        self._caller_stack = self._stack()

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._caller_stack[-1] if self._caller_stack else None)
        span = Span(next(self._ids), name, parent.id if parent else None, self.execution, time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[self.execution, name] += n

    def write(self, path) -> None:
        """Write every span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.execution, s.name, s.start, s.end]) + "\n")


def _traced_function(recorder: Recorder, fn, name: str, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if counter is not None:
            recorder.count(counter[0], counter[1](args, result))
        return result

    return traced


def _counted_philox(recorder: Recorder, philox):
    @functools.wraps(philox)
    def counted(*args, **kwargs):
        recorder.count("harness.rng_streams")
        return philox(*args, **kwargs)

    return counted


@contextmanager
def traced(recorder: Recorder):
    """Install span wrappers on every target for the duration of the block.

    A target the package no longer has is skipped and named in
    ``recorder.absent``.
    """
    import numpy.random

    patches = []
    try:
        for module, cls, attr, name, counter in TARGETS:
            owner = importlib.import_module(f"memnet_sim.{module}")
            if cls is not None:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                recorder.absent.append(name)
                continue
            setattr(owner, attr, _traced_function(recorder, original, name, counter))
            patches.append((owner, attr, original))
        original = numpy.random.Philox
        numpy.random.Philox = _counted_philox(recorder, original)
        patches.append((numpy.random, "Philox", original))
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def covered_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        inside = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.id] = (s.end - s.start) - covered_length([iv for iv in inside if iv[1] > iv[0]])
    return out


# harness.self_s is run_scenario's own time; emit_report and curve_fit have their own spans
_SELF_SPANS = {"harness": ("harness.run_scenario",)}


COUNTERS = ("events.classes", "harness.emit_report.bytes", "harness.rng_streams")


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer totals for the spans and counters of one round.

    ``<span>.s`` sums span durations and ``<span>.calls`` counts them;
    ``<module>.self_s`` sums the self time of the module's spans.  Counters
    pass through.  Every span name, module and counter is present, zero if
    the round never reached it.
    """
    out: dict[str, float] = dict.fromkeys(COUNTERS, 0)
    for _, _, _, name, _ in TARGETS:
        out[f"{name}.s"] = 0.0
        out[f"{name}.calls"] = 0
    for module in MODULES:
        out[f"{module}.self_s"] = 0.0
    own = self_times(spans)
    for s in spans:
        out[f"{s.name}.s"] += s.end - s.start
        out[f"{s.name}.calls"] += 1
        module = s.name.split(".", 1)[0]
        if s.name in _SELF_SPANS.get(module, (s.name,)):
            out[f"{module}.self_s"] += own[s.id]
    out.update(counts)
    return out
