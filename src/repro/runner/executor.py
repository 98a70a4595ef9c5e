"""The parallel sharded study runner and the suite scheduler.

:func:`run_study` turns one
:class:`~repro.workloads.generator.TraceGeneratorConfig` into a merged
:class:`~repro.workloads.trace.TraceDataset` using a pool of worker
processes, in two embarrassingly parallel stages:

1. **Synthesis** — the submission plan is dealt round-robin across shards
   and each worker synthesises its shard's jobs.  Job randomness is keyed by
   global job index, so the synthesised jobs are identical for any shard or
   worker count.
2. **Simulation** — machines are packed into balanced groups and each worker
   replays its sub-fleet through :func:`repro.cloud.fastsim.simulate_fleet`.
   Every machine draws from its own spawned streams, so the merged
   per-machine dynamics equal the single-service run exactly.

:func:`run_suite` runs the same pipeline for *many* studies on one
:class:`~repro.runner.pool.SharedWorkerPool` (``run_study`` is a suite of
one).  Scheduling is event-driven:
every study's synthesis shards are queued up front, and a completion
callback on each shard queues the study's machine-group simulations the
moment its *last* synthesis shard lands — no study waits behind another
study's synthesis in list order, and the pool is never idle behind a
phase barrier.  Per-study worker state is keyed by config fingerprint (see
:mod:`repro.runner.pool`), which keeps each study a pure function of its
config: same seed in, byte-identical trace out, no matter how the work was
partitioned, which studies ran alongside, or in what order shards landed.

Progress is observable through ``on_event``, a structured
:class:`SuiteEvent` stream (shards completed / total, wall-clock ETA,
per-study completions) that the CLI prints on stderr and the study-service
gateway forwards to its NDJSON job streams.  Events may fire on the pool's result-handler thread;
handlers must be quick, thread-safe and must never raise.

Simulation workers return their rows already columnar
(:class:`~repro.workloads.trace.ShardColumns`), and the merge is pure
array work — vocabulary union, code remap and one stable lexsort by
``(submit_time, job_id)`` — so shard results never round-trip through
row objects.  The merged dataset is plain in-memory columns, memoised on
disk through :class:`~repro.runner.cache.TraceCache`.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cloud.job import Job
from repro.core.exceptions import WorkloadError
from repro.runner.cache import TraceCache, config_fingerprint
from repro.runner.pool import SharedWorkerPool, default_workers
from repro.runner.sharding import (
    MachineGroup,
    ShardSpec,
    TranspileShard,
    plan_machine_groups,
    plan_shards,
    plan_transpile_shards,
)
from repro.telemetry import get_registry, get_tracer
from repro.transpiler.cache import (
    DEFAULT_RANK_SEED,
    TranspileCache,
    TranspileSummary,
    backend_fingerprint,
    transpile_cache_key,
)
from repro.workloads.circuit_metrics import class_fingerprint
from repro.workloads.generator import (
    TraceGeneratorConfig,
    plan_submissions,
    plan_transpile_classes,
)
from repro.workloads.transpile_classes import ClassRankTable, TranspilePair
from repro.workloads.trace import (
    TRACE_SCHEMA_VERSION,
    TraceDataset,
    merge_shard_columns,
)

__all__ = [
    "EventCallback",
    "StudyResult",
    "SuiteCancelled",
    "SuiteEvent",
    "default_workers",
    "run_study",
    "run_suite",
]


class SuiteCancelled(WorkloadError):
    """Raised by :func:`run_suite` when its ``should_stop`` hook fires."""


@dataclass(frozen=True)
class SuiteEvent:
    """One structured progress event of a :func:`run_suite` call.

    ``completed`` / ``total`` count pool tasks (synthesis shards plus
    simulation groups) across the whole suite; ``total`` grows as each
    study's simulation groups are planned, so early ETAs are lower bounds.
    ``key`` is the study fingerprint the event belongs to (None for
    suite-wide events).
    """

    kind: str                      # queued | cache-hit | shard-done |
    #                              # transpile-queued | rank-table |
    #                              # sims-queued | study-done | suite-done
    key: Optional[str] = None
    phase: Optional[str] = None    # transpile | synthesis | simulation
    completed: int = 0
    total: int = 0
    elapsed_seconds: float = 0.0
    eta_seconds: Optional[float] = None
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind,
            "completed": self.completed,
            "total": self.total,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }
        if self.key is not None:
            payload["study"] = self.key
        if self.phase is not None:
            payload["phase"] = self.phase
        if self.eta_seconds is not None:
            payload["eta_seconds"] = round(self.eta_seconds, 3)
        if self.detail:
            payload.update(self.detail)
        return payload


EventCallback = Callable[[SuiteEvent], None]


class _SuiteTracker:
    """Thread-safe shard accounting + event emission for one suite run."""

    def __init__(self, on_event: Optional[EventCallback]):
        self._on_event = on_event
        self._lock = threading.Lock()
        self._started = time.perf_counter()
        self.completed = 0
        self.total = 0
        self.closed = False

    def add_tasks(self, count: int) -> None:
        with self._lock:
            self.total += count

    def close(self) -> None:
        """Silence late events (tasks abandoned after cancel/failure)."""
        with self._lock:
            self.closed = True

    def emit(self, kind: str, key: Optional[str] = None,
             phase: Optional[str] = None, task_done: bool = False,
             **detail: object) -> None:
        with self._lock:
            if self.closed:
                return
            if task_done:
                self.completed += 1
            completed, total = self.completed, self.total
        if self._on_event is None:
            return
        elapsed = time.perf_counter() - self._started
        eta = None
        if 0 < completed <= total:
            eta = elapsed / completed * (total - completed)
        event = SuiteEvent(
            kind=kind, key=key, phase=phase, completed=completed,
            total=total, elapsed_seconds=elapsed, eta_seconds=eta,
            detail=dict(detail))
        try:
            self._on_event(event)
        except Exception:
            # Event handlers run on the pool's result-handler thread;
            # a raising handler must never take the scheduler down.
            pass


@dataclass
class StudyResult:
    """The handle every study execution returns: a dataset reference, its
    content fingerprint, and how it was produced.

    :func:`run_study`, :func:`run_suite` and each scenario of
    :func:`~repro.scenarios.engine.run_scenarios` all surface this one
    shape — consumers hold the handle (``dataset`` / ``fingerprint`` /
    ``metadata``) instead of bare datasets and loose keys.
    """

    trace: TraceDataset
    config: TraceGeneratorConfig
    workers: int
    num_shards: int
    cache_key: str
    cache_hit: bool = False
    cache_path: Optional[Path] = None
    timings: Dict[str, float] = field(default_factory=dict)
    shard_sizes: List[int] = field(default_factory=list)
    group_sizes: List[int] = field(default_factory=list)
    #: rank-mode amortisation accounting — ``probes`` (per-job rankings a
    #: naive implementation would each transpile for), ``pairs`` (classes
    #: actually transpiled), ``warm``/``cold`` (served from the transpile
    #: cache vs computed this run).  Empty for trace-level-policy studies.
    transpile: Dict[str, int] = field(default_factory=dict)

    @property
    def dataset(self) -> TraceDataset:
        """The study's trace (alias of ``trace``, the handle spelling)."""
        return self.trace

    @property
    def fingerprint(self) -> str:
        """The study's config fingerprint — also its trace-cache key."""
        return self.cache_key

    @property
    def metadata(self) -> Dict[str, object]:
        """Provenance: the trace's metadata plus how this run produced it."""
        payload = {
            **dict(self.trace.metadata),
            "fingerprint": self.fingerprint,
            "workers": self.workers,
            "shards": self.num_shards,
            "cache_hit": self.cache_hit,
            "phase_seconds": {name: round(value, 6)
                              for name, value in sorted(self.timings.items())},
        }
        if self.transpile:
            payload["transpile"] = dict(self.transpile)
        return payload

    @property
    def total_seconds(self) -> float:
        return self.timings.get("total", 0.0)

    def summary(self) -> Dict[str, object]:
        return {
            "jobs": len(self.trace),
            "fingerprint": self.fingerprint,
            "workers": self.workers,
            "shards": self.num_shards,
            "cache_hit": self.cache_hit,
            **{f"{name}_seconds": round(value, 3)
               for name, value in sorted(self.timings.items())},
        }


_PHASES = ("plan", "transpile", "synthesis", "simulation", "merge")


@dataclass
class _PendingStudy:
    """Book-keeping of one cache-missed study flowing through the pool."""

    key: str
    config: TraceGeneratorConfig
    shards: List[ShardSpec]
    started: float
    plan_seconds: float
    #: True when the study's scenario selects machines by batch ranking —
    #: these studies run the extra transpile phase before synthesis
    rank_mode: bool = False
    num_submissions: int = 0
    synth_handles: List[object] = field(default_factory=list)
    sim_handles: List[object] = field(default_factory=list)
    groups: List[MachineGroup] = field(default_factory=list)
    #: the class summaries shipped to every synthesis shard (rank mode)
    rank_table: Optional[ClassRankTable] = None
    transpile_shards: List[TranspileShard] = field(default_factory=list)
    transpile_handles: List[object] = field(default_factory=list)
    #: summaries served from the on-disk transpile cache during planning
    transpile_warm: List[TranspileSummary] = field(default_factory=list)
    #: pairs the transpile cache missed — sharded by the schedule unit
    transpile_cold: List[TranspilePair] = field(default_factory=list)
    #: per-shard computed summaries, filled by completion callbacks in
    #: shard order (the order that makes the merged table deterministic)
    transpile_shard_summaries: List[Optional[List[TranspileSummary]]] = \
        field(default_factory=list)
    #: transpile shards still outstanding; the callback that takes it to
    #: zero builds the rank table and queues the study's synthesis
    transpile_remaining: int = 0
    transpile_seconds: float = 0.0
    transpile_stats: Dict[str, int] = field(default_factory=dict)
    #: per-shard synthesis results, filled by completion callbacks in shard
    #: order (the order that makes the merged job list deterministic)
    shard_jobs: List[Optional[List[Job]]] = field(default_factory=list)
    #: shards still outstanding; the callback that takes it to zero queues
    #: the study's simulations
    shards_remaining: int = 0
    #: an exception raised inside a completion callback (re-raised by the
    #: collect unit — callbacks themselves must never raise)
    callback_error: Optional[BaseException] = None
    lock: threading.Lock = field(default_factory=threading.Lock)

    def raise_callback_error(self) -> None:
        if self.callback_error is not None:
            raise WorkloadError(
                f"scheduling study {self.key} failed: "
                f"{self.callback_error}") from self.callback_error


@dataclass
class _SuiteRun:
    """What one :func:`run_suite` call threads through its units."""

    pool: SharedWorkerPool
    epoch: int
    tracker: _SuiteTracker
    num_shards: int
    #: the trace cache, or None when the call does not use one
    cache: Optional[TraceCache]
    transpile_cache: Optional[TranspileCache]
    lazy_cache: bool

    def result(self, key: str, config: TraceGeneratorConfig,
               trace: TraceDataset, timings: Dict[str, float],
               cache_path: Optional[Path],
               study: Optional[_PendingStudy] = None) -> StudyResult:
        """The one :class:`StudyResult` constructor (``study`` is None
        for a cache hit)."""
        hit = study is None
        return StudyResult(
            trace=trace, config=config, workers=self.pool.workers,
            num_shards=self.num_shards, cache_key=key, cache_hit=hit,
            cache_path=cache_path, timings=timings,
            shard_sizes=[] if hit else [len(s) for s in study.shards],
            group_sizes=[] if hit else [g.expected_jobs
                                        for g in study.groups],
            transpile={} if hit else dict(study.transpile_stats))


def _probe_transpile_cache(
        pairs: Sequence[TranspilePair],
        fleet: Dict[str, object],
        config: TraceGeneratorConfig,
        transpile_cache: Optional[TranspileCache],
) -> Tuple[List[TranspileSummary], List[TranspilePair]]:
    """Split a rank study's pairs into (warm summaries, cold pairs).

    Probing happens in the parent so cold work — not the whole pair list —
    is what gets sharded across the pool; the cache's own hit/miss
    counters account the probes.
    """
    if transpile_cache is None:
        return [], list(pairs)
    level = config.scenario.ranking_level
    machine_fps: Dict[str, str] = {}
    warm: List[TranspileSummary] = []
    cold: List[TranspilePair] = []
    for family, width, machine in pairs:
        machine_fp = machine_fps.get(machine)
        if machine_fp is None:
            machine_fp = backend_fingerprint(fleet[machine])
            machine_fps[machine] = machine_fp
        key = transpile_cache_key(class_fingerprint(family, width),
                                  machine_fp, level, DEFAULT_RANK_SEED)
        summary = transpile_cache.get(key)
        if summary is None:
            cold.append((family, width, machine))
        else:
            warm.append(summary)
    return warm, cold


def _queue_synthesis(run: _SuiteRun, study: _PendingStudy) -> None:
    """Queue a study's synthesis shards (directly, or as the rank-mode
    transpile phase's completion step — whichever thread that lands on)."""
    run.tracker.add_tasks(len(study.shards))
    run.tracker.emit("queued", key=study.key, shards=len(study.shards),
                     submissions=study.num_submissions)
    study.synth_handles = [
        run.pool.submit_synthesis(
            run.epoch, study.key, study.config, shard,
            callback=_shard_callback(run, study, index),
            rank_table=study.rank_table)
        for index, shard in enumerate(study.shards)
    ]


def _finish_transpile(run: _SuiteRun, study: _PendingStudy) -> None:
    """Merge a rank study's class summaries and queue its synthesis.

    Runs when the last transpile shard lands (or straight from the
    schedule unit when every pair was warm).  The merged table is sorted
    by (family, width, machine), so it is identical for any shard count,
    completion order, or warm/cold split — which is what keeps cached and
    uncached rankings byte-equal.
    """
    computed = [summary
                for shard_summaries in study.transpile_shard_summaries
                for summary in shard_summaries]
    if run.transpile_cache is not None:
        for summary in computed:
            run.transpile_cache.put(
                transpile_cache_key(summary.class_fingerprint,
                                    summary.backend_fingerprint,
                                    summary.level, summary.seed),
                summary)
    # Metrics are recorded parent-side: worker-registry increments die with
    # the worker, but the summaries carry the pass timings home.
    registry = get_registry()
    registry.counter(
        "repro_transpile_classes_total", outcome="computed",
        help="Equivalence-class transpiles of rank-mode studies, by "
             "whether the summary was computed or served from the "
             "transpile cache.").inc(len(computed))
    registry.counter(
        "repro_transpile_classes_total",
        outcome="cache-hit").inc(len(study.transpile_warm))
    for summary in computed:
        for pass_name, seconds in summary.pass_timings:
            registry.histogram(
                "repro_transpile_pass_seconds",
                help="Wall-clock seconds per transpiler pass across "
                     "rank-mode class transpiles.",
                **{"pass": pass_name}).observe(seconds)
    scenario = study.config.scenario
    summaries = sorted(computed + study.transpile_warm,
                       key=lambda s: (s.family, s.width, s.machine))
    study.rank_table = ClassRankTable(
        objective=scenario.ranking_objective,
        level=scenario.ranking_level,
        summaries=summaries)
    run.tracker.emit("rank-table", key=study.key, phase="transpile",
                     entries=len(summaries), computed=len(computed),
                     cached=len(study.transpile_warm))
    _queue_synthesis(run, study)


def _transpile_callback(run: _SuiteRun, study: _PendingStudy, index: int):
    """The completion callback of one transpile shard."""

    def _on_transpile_done(summaries):
        try:
            with study.lock:
                study.transpile_shard_summaries[index] = summaries
                study.transpile_remaining -= 1
                is_last = study.transpile_remaining == 0
            run.tracker.emit("shard-done", key=study.key, phase="transpile",
                             task_done=True, pairs=len(summaries))
            if is_last:
                _finish_transpile(run, study)
        except BaseException as exc:  # surface on the collection thread
            study.callback_error = exc

    return _on_transpile_done


def _queue_simulations(run: _SuiteRun, study: _PendingStudy) -> None:
    """Queue a study's machine-group simulations (last-shard callback).

    Runs on whichever thread completed the study's final synthesis shard.
    The merged job list is rebuilt in *shard order*, so the grouping — and
    therefore every simulation input — is independent of shard completion
    order.
    """
    jobs = [job for shard_jobs in study.shard_jobs for job in shard_jobs]
    job_counts: Dict[str, int] = {}
    jobs_by_machine: Dict[str, List[Job]] = {}
    for job in jobs:
        job_counts[job.backend_name] = job_counts.get(job.backend_name, 0) + 1
        jobs_by_machine.setdefault(job.backend_name, []).append(job)
    study.groups = plan_machine_groups(job_counts, run.pool.workers)
    run.tracker.add_tasks(len(study.groups))
    run.tracker.emit("sims-queued", key=study.key, phase="simulation",
                     jobs=len(jobs), groups=len(study.groups))

    def _on_group_done(_records, key=study.key):
        run.tracker.emit("shard-done", key=key, phase="simulation",
                         task_done=True)

    study.sim_handles = [
        run.pool.submit_simulation(
            run.epoch, study.key, study.config, group,
            [job for name in group.machines
             for job in jobs_by_machine[name]],
            callback=_on_group_done)
        for group in study.groups
    ]


def _shard_callback(run: _SuiteRun, study: _PendingStudy, index: int):
    """The completion callback of one synthesis shard."""

    def _on_shard_done(jobs):
        try:
            with study.lock:
                study.shard_jobs[index] = jobs
                study.shards_remaining -= 1
                is_last = study.shards_remaining == 0
            run.tracker.emit("shard-done", key=study.key, phase="synthesis",
                             task_done=True, jobs=len(jobs))
            if is_last:
                _queue_simulations(run, study)
        except BaseException as exc:  # surface on the collection thread
            study.callback_error = exc

    return _on_shard_done


def _plan_study(run: _SuiteRun, key: str, config: TraceGeneratorConfig
                ) -> Union[StudyResult, _PendingStudy]:
    """Plan unit: serve a cache hit, or plan a miss's synthesis shards
    (and, in rank mode, probe its equivalence-class transpiles against the
    transpile cache)."""
    started = time.perf_counter()
    tracer = get_tracer()
    cached = (run.cache.get(key, lazy=run.lazy_cache)
              if run.cache is not None else None)
    if cached is not None:
        run.tracker.emit("cache-hit", key=key, jobs=len(cached))
        get_registry().counter("repro_runner_studies_total",
                               outcome="cache-hit").inc()
        # A cache hit still reports every phase — at zero cost — so
        # suite-level --profile-phases output stays uniform; the
        # zero-duration synthesis span marks the skipped work in the trace
        # view.
        now = time.perf_counter()
        tracer.instant("study.cache-hit", study=key, jobs=len(cached))
        for phase in _PHASES:
            tracer.record_span(f"study.{phase}", start=now, duration=0.0,
                               args={"study": key, "cache_hit": True})
        timings = dict.fromkeys(_PHASES, 0.0)
        timings["total"] = time.perf_counter() - started
        return run.result(key, config, cached, timings,
                          run.cache.existing_path_for(key))
    get_registry().counter("repro_runner_studies_total",
                           outcome="simulated").inc()
    with tracer.timed("study.plan", study=key) as plan_timer:
        submissions = plan_submissions(config)
        shards = plan_shards(config, submissions, run.num_shards)
    study = _PendingStudy(
        key=key, config=config, shards=shards, started=started,
        plan_seconds=plan_timer.seconds,
        rank_mode=(config.scenario is not None
                   and config.scenario.ranking_objective is not None),
        num_submissions=len(submissions),
        shard_jobs=[None] * len(shards),
        shards_remaining=len(shards))
    if study.rank_mode:
        with tracer.timed("study.transpile-plan", study=key) as probe_timer:
            fleet = config.build_fleet()
            pairs, class_stats = plan_transpile_classes(config, fleet)
            study.transpile_warm, study.transpile_cold = \
                _probe_transpile_cache(pairs, fleet, config,
                                       run.transpile_cache)
        study.transpile_seconds = probe_timer.seconds
        study.transpile_stats = {**class_stats,
                                 "warm": len(study.transpile_warm),
                                 "cold": len(study.transpile_cold)}
    return study


def _schedule_study(run: _SuiteRun, study: _PendingStudy) -> None:
    """Schedule unit: queue a planned study's first pool tasks.

    A rank-mode study queues its cold transpile shards; the last one's
    completion callback (or this call, when nothing is cold) builds the
    rank table and queues synthesis.  With an inline pool each submit runs
    — and chains the study's later phases — synchronously right here.
    """
    if not study.rank_mode:
        _queue_synthesis(run, study)
        return
    if not study.transpile_cold:
        _finish_transpile(run, study)
        return
    study.transpile_shards = plan_transpile_shards(study.transpile_cold,
                                                   run.num_shards)
    study.transpile_shard_summaries = [None] * len(study.transpile_shards)
    study.transpile_remaining = len(study.transpile_shards)
    run.tracker.add_tasks(len(study.transpile_shards))
    run.tracker.emit("transpile-queued", key=study.key, phase="transpile",
                     shards=len(study.transpile_shards),
                     pairs=len(study.transpile_cold),
                     cached=len(study.transpile_warm))
    # Timed because an inline (workers == 1) pool runs the shards
    # synchronously right here — the collect unit's wait would otherwise
    # report a rank study's dominant cost as zero.
    with get_tracer().timed("study.transpile-queue",
                            study=study.key) as submit_timer:
        study.transpile_handles = [
            run.pool.submit_transpile(
                run.epoch, study.key, study.config, shard,
                callback=_transpile_callback(run, study, index))
            for index, shard in enumerate(study.transpile_shards)
        ]
    study.transpile_seconds += submit_timer.seconds


def _collect_study(run: _SuiteRun, study: _PendingStudy) -> StudyResult:
    """Collect unit: wait on a study's tasks, merge, cache, build its result.

    Simulations were already queued by the last-shard callback; waiting on
    the transpile and synthesis handles first both propagates worker
    errors and guarantees the callbacks (which run before ``.get()``
    returns) have finished.
    """
    tracer = get_tracer()
    if study.rank_mode:
        with tracer.timed(
                "study.transpile", study=study.key,
                shards=len(study.transpile_shards),
                warm=len(study.transpile_warm)) as transpile_timer:
            for handle in study.transpile_handles:
                handle.get()
        study.transpile_seconds += transpile_timer.seconds
        study.raise_callback_error()
    with tracer.timed("study.synthesis", study=study.key,
                      shards=len(study.shards)) as synth_timer:
        for handle in study.synth_handles:
            handle.get()
    study.raise_callback_error()
    with tracer.timed("study.simulation", study=study.key,
                      groups=len(study.groups)) as sim_timer:
        per_group_columns = [handle.get() for handle in study.sim_handles]
    with tracer.timed("study.merge", study=study.key) as merge_timer:
        total_rows = sum(part.rows for part in per_group_columns)
        trace = merge_shard_columns(per_group_columns, metadata={
            "seed": study.config.seed,
            "total_jobs": total_rows,
            "months": study.config.months,
            "trace_schema": TRACE_SCHEMA_VERSION,
        })
        cache_path = (run.cache.put(study.key, trace)
                      if run.cache is not None else None)
    timings = {"plan": study.plan_seconds,
               "transpile": study.transpile_seconds,
               "synthesis": synth_timer.seconds,
               "simulation": sim_timer.seconds,
               "merge": merge_timer.seconds}
    for phase, seconds in timings.items():
        get_registry().counter(
            "repro_runner_phase_seconds_total", phase=phase,
            help="Cumulative wall-clock seconds spent per study phase "
                 "across every run_suite call.").inc(seconds)
    timings["total"] = time.perf_counter() - study.started
    result = run.result(study.key, study.config, trace, timings, cache_path,
                        study)
    run.tracker.emit("study-done", key=study.key, jobs=total_rows,
                     seconds=round(result.total_seconds, 3))
    return result


def run_suite(
    studies: Sequence[Tuple[str, TraceGeneratorConfig]],
    pool: Optional[SharedWorkerPool] = None,
    *,
    workers: Optional[int] = None,
    num_shards: Optional[int] = None,
    cache: Optional[Union[TraceCache, str, Path]] = None,
    use_cache: bool = True,
    lazy_cache: bool = False,
    on_event: Optional[EventCallback] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Dict[str, StudyResult]:
    """Run many distinct studies as one interleaved queue on a shared pool.

    ``studies`` is an ordered sequence of ``(fingerprint, config)`` pairs
    with distinct fingerprints (deduplicate identical expansions first —
    the scenario engine does).  Each study is planned (cache hits served
    immediately) and scheduled in turn: a miss has its synthesis shards
    queued up front, and a completion callback queues its simulation
    groups the moment its last synthesis shard lands, so the pool is never
    idle behind a per-study phase barrier or the submission order of the
    suite.  The studies are then collected in order.  Returns a dict keyed
    by fingerprint, in ``studies`` order.

    ``on_event`` receives structured :class:`SuiteEvent`s (shards
    completed / total with a wall-clock ETA, per-study completions) —
    possibly from the pool's result-handler thread.  ``should_stop`` is
    polled between studies; when it returns True the run raises
    :class:`SuiteCancelled` (outstanding tasks of a shared pool finish in
    the background and are discarded — the pool itself is untouched).

    With ``pool=None`` the call owns a transient pool of ``workers``
    workers (default :func:`default_workers`; ``workers`` is ignored when
    a pool is given): closed on success, terminated — not joined — on an
    exception or :class:`SuiteCancelled`, so a failed task can never hang
    the caller.  ``num_shards`` (default: the pool width) sets both the
    synthesis shards and, for rank-mode studies, the transpile shards of
    each study.  Suite timings are wall-clock *wait* times per phase —
    they overlap across studies, unlike the exclusive per-phase timings
    of a solo run.

    Machine groups are simulated by :func:`repro.cloud.fastsim.
    simulate_fleet`, which is byte-identical to the discrete-event
    :class:`~repro.cloud.service.QuantumCloudService`
    (``tests/test_fastsim_golden.py``).

    Rank-mode studies (``scenario.ranking_objective`` set) run an extra
    **transpile** phase first: the study's cold equivalence-class pairs
    are sharded across pool tasks, warm pairs come from the
    :class:`~repro.transpiler.cache.TranspileCache` living in the trace
    cache's directory, and the merged
    :class:`~repro.workloads.transpile_classes.ClassRankTable` ships with
    every synthesis shard.  Sharding and caching here are runtime knobs —
    the trace is byte-identical with any worker count, cold or warm.
    """
    keys = [key for key, _ in studies]
    if len(set(keys)) != len(keys):
        raise WorkloadError(
            "run_suite requires distinct study fingerprints; deduplicate "
            "identical configs before scheduling them")
    if cache is not None and not isinstance(cache, TraceCache):
        cache = TraceCache(cache)
    if not use_cache:
        cache = None
    registry = get_registry()
    for outcome in ("simulated", "cache-hit"):
        registry.counter("repro_runner_studies_total", outcome=outcome,
                         help="Studies executed by run_suite, by outcome.")

    def _check_cancel():
        if should_stop is not None and should_stop():
            raise SuiteCancelled("suite run cancelled")

    owned = SharedWorkerPool(workers) if pool is None else nullcontext(pool)
    with owned as pool:
        run = _SuiteRun(
            pool=pool, epoch=pool.next_epoch(),
            tracker=_SuiteTracker(on_event),
            num_shards=max(1, int(num_shards if num_shards is not None
                                  else pool.workers)),
            cache=cache,
            transpile_cache=(TranspileCache(cache.root)
                             if cache is not None else None),
            lazy_cache=lazy_cache)
        try:
            results: Dict[str, StudyResult] = {}
            pending: List[_PendingStudy] = []
            for key, config in studies:
                _check_cancel()
                planned = _plan_study(run, key, config)
                if isinstance(planned, StudyResult):
                    results[key] = planned
                else:
                    pending.append(planned)
                    _schedule_study(run, planned)
            for study in pending:
                _check_cancel()
                results[study.key] = _collect_study(run, study)
            run.tracker.emit("suite-done", studies=len(studies),
                             cache_hits=sum(1 for r in results.values()
                                            if r.cache_hit))
            return {key: results[key] for key in keys}
        finally:
            # Abandoned tasks (cancel / worker failure) may still complete
            # on a shared pool; silence their late events and let their
            # epoch's worker state become evictable.
            run.tracker.close()
            pool.release_epoch(run.epoch)


def run_study(
    total_jobs: int = 6000,
    months: Optional[int] = None,
    seed: int = 7,
    *,
    config: Optional[TraceGeneratorConfig] = None,
    workers: Optional[int] = None,
    num_shards: Optional[int] = None,
    cache_dir: Optional[Union[TraceCache, str, Path]] = None,
    use_cache: bool = True,
    lazy_cache: bool = False,
    pool: Optional[SharedWorkerPool] = None,
    on_event: Optional[EventCallback] = None,
) -> StudyResult:
    """One-call entry point: run one study config as a suite of one.

    Either pass an explicit ``config`` or the common scalar knobs
    (``total_jobs`` / ``months`` / ``seed``).  ``cache_dir`` is a
    directory or a :class:`TraceCache`.  ``lazy_cache`` defaults to False
    here (a plain study usually consumes the whole trace); the scenario
    entry points default it to True because comparisons read a handful of
    columns.  Pool ownership and every other knob are
    :func:`run_suite`'s.
    """
    if config is None:
        kwargs: Dict[str, object] = {"total_jobs": total_jobs, "seed": seed}
        if months is not None:
            kwargs["months"] = months
        config = TraceGeneratorConfig(**kwargs)
    key = config_fingerprint(config)
    return run_suite(
        [(key, config)], pool, workers=workers, num_shards=num_shards,
        cache=cache_dir, use_cache=use_cache, lazy_cache=lazy_cache,
        on_event=on_event)[key]
