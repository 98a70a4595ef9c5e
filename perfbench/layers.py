"""Span recording from outside the program, and the per-layer metrics.

The traced run wraps the program's public calls where their callers look
them up (a module attribute or a class attribute), records one span per
call in memory, and turns the spans into per-layer numbers.  Nothing here
reads the program's own spans or ``phase_seconds``; those are only compared
against (see :func:`phase_gap`).

A layer is named after the module that owns the wrapped call.  A span's
self time is its duration minus the part of its interval that its child
spans cover.  Spans started on a thread with no open span (the study
service's executor and HTTP threads) are parented to the operation's root
span, because the benchmark issues one operation at a time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import os
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: The five transpiler passes with the largest total time on ``rank-cold``
#: at seed 7; their names are fixed so that every run reports the same
#: metric names (``transpile.pass.<name>_s``).
TOP_PASSES = ("Optimize1qGates", "StochasticSwap", "CommutativeCancellation",
              "BasisTranslator", "Depth")

# (owner, attribute, layer, span name).  The owner is a module path, or a
# module path plus a class name, which is where the caller looks the
# attribute up.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.workloads.generator:JobSynthesizer", "synthesise",
     "workloads.generator", "JobSynthesizer.synthesise"),
    ("repro.workloads.users:UserProfile", "select_machine",
     "workloads.users", "UserProfile.select_machine"),
    ("repro.devices.backend:Backend", "calibration_at",
     "devices", "Backend.calibration_at"),
    ("repro.devices.calibration:CalibrationModel", "snapshot_for_epoch",
     "devices", "CalibrationModel.snapshot_for_epoch"),
    ("repro.core.rng:RandomSource", "__init__",
     "core.rng", "RandomSource.__init__"),
    ("repro.core.rng:RandomSource", "child",
     "core.rng", "RandomSource.child"),
    ("repro.runner.pool", "compute_class_summary",
     "transpiler", "compute_class_summary"),
    ("repro.workloads.transpile_classes", "compute_class_summary",
     "transpiler", "compute_class_summary"),
    ("repro.transpiler.cache:TranspileCache", "get",
     "transpiler", "TranspileCache.get"),
    ("repro.transpiler.cache:TranspileCache", "put",
     "transpiler", "TranspileCache.put"),
    ("repro.runner.pool", "simulate_fleet", "cloud", "simulate_fleet"),
    ("repro.runner.pool", "record_for", "workloads.trace", "record_for"),
    ("repro.workloads.trace:ShardColumns", "from_records",
     "workloads.trace", "ShardColumns.from_records"),
    ("repro.runner.executor", "merge_shard_columns",
     "workloads.trace", "merge_shard_columns"),
    ("repro.runner.executor", "plan_submissions",
     "runner", "plan_submissions"),
    ("repro.runner.executor", "plan_shards", "runner", "plan_shards"),
    ("repro.runner.executor", "plan_transpile_classes",
     "runner", "plan_transpile_classes"),
    ("repro.runner.executor", "run_study", "runner", "run_study"),
    ("repro.runner.executor", "run_suite", "runner", "run_suite"),
    ("repro.scenarios.engine", "run_suite", "runner", "run_suite"),
    ("repro.runner.cache:TraceCache", "get", "runner.cache",
     "TraceCache.get"),
    ("repro.runner.cache:TraceCache", "put", "runner.cache",
     "TraceCache.put"),
    ("repro.service.gateway", "compare_suite", "analysis", "compare_suite"),
    ("repro.analysis.compare", "headline_metrics",
     "analysis", "headline_metrics"),
    ("repro.analysis.compare", "fidelity_proxy",
     "analysis", "fidelity_proxy"),
    ("repro.scenarios.engine:ScenarioEngine", "run",
     "scenarios", "ScenarioEngine.run"),
    ("repro.service.gateway", "resolve_submission",
     "service", "resolve_submission"),
    ("repro.service.store:ResultStore", "put_comparison",
     "service", "ResultStore.put_comparison"),
    ("repro.service.store:ResultStore", "prune", "service",
     "ResultStore.prune"),
)

#: Spans whose self time is runner glue: work inside the entry points that
#: no named layer below them accounts for.
ENTRY_SPANS = ("op", "run_study", "run_suite")

#: Spans the benchmark opens itself around client-side service calls.
CLIENT_SPANS = ("gateway.submit", "gateway.first_event")


class SpanRecorder:
    """Records spans in memory; one instance per traced operation."""

    def __init__(self):
        self.spans: List[Tuple[int, Optional[int], str, str, int, float,
                               float]] = []
        self.root: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Observations the spans alone cannot give.
        self.snapshot_epochs: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        self.snapshot_builds = 0
        self.transpile_cache_hits = 0
        self.pass_seconds: Dict[str, float] = defaultdict(float)
        self.simulated_jobs = 0
        self.put_bytes = 0
        self.study_results: List[object] = []

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, layer: str, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, layer, name,
                               threading.get_ident(), start, end))

    @contextmanager
    def operation(self):
        """The root span of one operation (layer ``benchmark``)."""
        with self.span("benchmark", "op") as root:
            self.root = root
            try:
                yield
            finally:
                self.root = None

    def wrap(self, fn: Callable, layer: str, name: str,
             observe: Optional[Callable] = None) -> Callable:
        # The body repeats span() inline: a traced operation makes about
        # 10^5 wrapped calls, and a context manager per call would show in
        # trace_overhead_frac.
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else self.root
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, layer, name, get_ident(),
                              start, end))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- observations --------------------------------------------------------------

    def _observe(self, name: str) -> Optional[Callable]:
        if name == "CalibrationModel.snapshot_for_epoch":
            def seen(args, kwargs, result):
                model = args[0]
                epoch = args[1] if len(args) > 1 else kwargs["epoch"]
                epochs = self.snapshot_epochs.setdefault(model, set())
                if epoch not in epochs:
                    # The model memoises snapshots per epoch and never
                    # evicts, so the first request of an epoch builds it.
                    epochs.add(epoch)
                    self.snapshot_builds += 1
            return seen
        if name == "TranspileCache.get":
            def hit(args, kwargs, result):
                if result is not None:
                    self.transpile_cache_hits += 1
            return hit
        if name == "compute_class_summary":
            def passes(args, kwargs, result):
                for pass_name, seconds in result.pass_timings:
                    self.pass_seconds[pass_name] += seconds
            return passes
        if name == "simulate_fleet":
            def jobs(args, kwargs, result):
                self.simulated_jobs += len(result)
            return jobs
        if name == "TraceCache.put":
            def size(args, kwargs, result):
                path = Path(result)
                files = [path] if path.is_file() else \
                    [p for p in path.rglob("*") if p.is_file()]
                self.put_bytes += sum(p.stat().st_size for p in files)
            return size
        if name == "run_study":
            def study(args, kwargs, result):
                self.study_results.append(result)
            return study
        if name == "ScenarioEngine.run":
            def suite(args, kwargs, result):
                self.study_results.extend(run.result for run in result)
            return suite
        return None

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        restore = []
        try:
            for owner, attribute, layer, name in TARGETS:
                module_name, _, class_name = owner.partition(":")
                holder = importlib.import_module(module_name)
                if class_name:
                    holder = getattr(holder, class_name)
                    original = holder.__dict__[attribute]
                else:
                    original = getattr(holder, attribute)
                observe = self._observe(name)
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(original.__func__, layer,
                                                    name, observe))
                else:
                    wrapped = self.wrap(original, layer, name, observe)
                setattr(holder, attribute, wrapped)
                restore.append((holder, attribute, original))
            yield self
        finally:
            for holder, attribute, original in reversed(restore):
                setattr(holder, attribute, original)

    # -- export --------------------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        """Write every span as a gzipped Chrome trace ``X`` event file
        (Perfetto opens it)."""
        origin = min((span[5] for span in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": pid, "tid": tid,
             "ts": round((start - origin) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "args": {"id": span_id, "parent": parent}}
            for span_id, parent, layer, name, tid, start, end in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                          separators=(",", ":"))
        with gzip.open(path, "wt", compresslevel=1) as sink:
            sink.write(text)


def _covered(start: float, end: float,
             intervals: List[Tuple[float, float]]) -> float:
    """Length of the part of ``[start, end]`` that ``intervals`` cover."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def span_table(recorder: SpanRecorder) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, _, start, end in recorder.spans:
        if parent is not None:
            children[parent].append((start, end))
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "layer": ""})
    for span_id, _, layer, name, _, start, end in recorder.spans:
        row = table[name]
        row["layer"] = layer
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - _covered(start, end,
                                                   children.get(span_id, []))
    return dict(table)


def layer_metrics(recorder: SpanRecorder, table: Dict[str, Dict[str, float]]
                  ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The per-layer metrics of one traced operation.

    ``table`` is the recorder's :func:`span_table`.  Returns ``(metrics,
    detail)``: ``metrics`` holds the fixed metric names the benchmark
    reports; ``detail`` the self and inclusive time of every layer and the
    traced wall time, for the report.
    """

    def calls(*names: str) -> int:
        return int(sum(table[n]["calls"] for n in names if n in table))

    def self_s(*names: str) -> float:
        return float(sum(table[n]["self_s"] for n in names if n in table))

    def total_s(*names: str) -> float:
        return float(sum(table[n]["total_s"] for n in names if n in table))

    snapshot_calls = calls("CalibrationModel.snapshot_for_epoch")
    cache_gets = calls("TranspileCache.get")
    metrics: Dict[str, float] = {
        "synthesis.calls": calls("JobSynthesizer.synthesise"),
        "synthesis.self_s": self_s("JobSynthesizer.synthesise"),
        "selection.calls": calls("UserProfile.select_machine"),
        "selection.self_s": self_s("UserProfile.select_machine"),
        "calibration.calls": calls("Backend.calibration_at"),
        "calibration.builds": recorder.snapshot_builds,
        "calibration.hit_ratio": (
            1.0 - recorder.snapshot_builds / snapshot_calls
            if snapshot_calls else 0.0),
        "calibration.self_s": self_s("Backend.calibration_at",
                                     "CalibrationModel.snapshot_for_epoch"),
        "rng.streams": calls("RandomSource.__init__"),
        "rng.self_s": self_s("RandomSource.__init__", "RandomSource.child"),
        "transpile.pairs": calls("compute_class_summary"),
        "transpile.self_s": self_s("compute_class_summary",
                                   "TranspileCache.get", "TranspileCache.put"),
        "transpile.cache_hit_ratio": (
            recorder.transpile_cache_hits / cache_gets if cache_gets else 0.0),
        "simulation.jobs": recorder.simulated_jobs,
        "simulation.self_s": self_s("simulate_fleet"),
        "records.self_s": self_s("record_for", "ShardColumns.from_records"),
        "merge.self_s": self_s("merge_shard_columns"),
        "plan.self_s": self_s("plan_submissions", "plan_shards",
                              "plan_transpile_classes"),
        "runner.unattributed_s": self_s(*ENTRY_SPANS),
        "cache.get_calls": calls("TraceCache.get"),
        "cache.get_s": total_s("TraceCache.get"),
        "cache.put_s": total_s("TraceCache.put"),
        "cache.put_bytes": recorder.put_bytes,
        "compare.traces": calls("headline_metrics"),
        "compare.self_s": self_s("compare_suite", "headline_metrics"),
        "fidelity_proxy.self_s": self_s("fidelity_proxy"),
        "scenario.self_s": self_s("ScenarioEngine.run"),
        "gateway.submit_s": total_s("gateway.submit"),
        "gateway.first_event_s": total_s("gateway.first_event"),
        "store.put_s": total_s("ResultStore.put_comparison"),
        "service.self_s": self_s("resolve_submission",
                                 "ResultStore.put_comparison",
                                 "ResultStore.prune", *CLIENT_SPANS),
    }
    for pass_name in TOP_PASSES:
        metrics[f"transpile.pass.{pass_name}_s"] = \
            recorder.pass_seconds.get(pass_name, 0.0)

    layers: Dict[str, float] = defaultdict(float)
    for name, row in table.items():
        layers[row["layer"]] += row["self_s"]
    intervals: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, layer, _, _, start, end in recorder.spans:
        intervals[layer].append((start, end))
    detail = {
        "traced_wall_s": total_s("op"),
        "attributed_frac": 1.0 - self_s(*ENTRY_SPANS) / total_s("op"),
        "layer_self_s": dict(sorted(layers.items())),
        # Wall time under each layer's spans, its callees included.
        "layer_inclusive_s": {
            layer: _covered(float("-inf"), float("inf"), spans)
            for layer, spans in sorted(intervals.items())},
        "pass_seconds": dict(sorted(recorder.pass_seconds.items(),
                                    key=lambda item: -item[1])),
        "spans": len(recorder.spans),
    }
    return metrics, detail


def phase_gap(recorder: SpanRecorder, table: Dict[str, Dict[str, float]]
              ) -> Tuple[float, Dict[str, Dict]]:
    """Program-reported ``phase_seconds`` against the same phases timed
    from outside, summed as absolute differences over the phases."""

    def total_s(*names: str) -> float:
        return float(sum(table[n]["total_s"] for n in names if n in table))

    outside = {
        "plan": total_s("plan_submissions", "plan_shards"),
        "transpile": total_s("plan_transpile_classes", "compute_class_summary",
                             "TranspileCache.get", "TranspileCache.put"),
        "synthesis": total_s("JobSynthesizer.synthesise"),
        "simulation": total_s("simulate_fleet", "record_for",
                              "ShardColumns.from_records"),
        "merge": total_s("merge_shard_columns", "TraceCache.put"),
    }
    program: Dict[str, float] = defaultdict(float)
    for result in recorder.study_results:
        for phase in outside:
            program[phase] += float(result.timings.get(phase, 0.0))
    phases = {phase: {"program_s": program[phase], "outside_s": outside[phase]}
              for phase in outside}
    gap = sum(abs(row["program_s"] - row["outside_s"])
              for row in phases.values())
    return gap, phases
