"""Benchmark: columnar data plane versus the row-at-a-time reference path.

Measures, at a configurable trace scale:

* **run_study** — the end-to-end single-process pipeline (plan, synthesise,
  simulate, record) with the columnar CircuitBatch/vectorised path versus
  the pre-columnar object-per-row path (`tests/rowpath.py`),
* **construct** — building the columnar TraceDataset from materialised
  records,
* **filter_groupby** — vectorised selection/grouping versus record loops,
* **analysis** — the full trace-driven figure suite, vectorised versus
  per-record loops,
* **cache** — npz column-dump save/load versus the legacy JSON round-trip.
* **export** — the optional Arrow/Parquet export path, skipped cleanly
  (``"skipped": true`` in the artifact) when pyarrow is unavailable.

Writes a ``BENCH_dataplane.json`` artifact (consumed by CI) and prints a
summary.  Run as a script::

    PYTHONPATH=src python benchmarks/bench_dataplane.py --jobs 6000 --months 28

Targets (checked at full scale): >=5x on the analysis suite and >=2x on the
end-to-end run-study versus the row-at-a-time path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.analysis.figures import trace_figure_suite
from repro.cloud.service import QuantumCloudService
from repro.core.env import env_int
from repro.runner.cache import TraceCache, config_fingerprint
from repro.workloads.generator import (
    JobSynthesizer,
    TraceGeneratorConfig,
    expected_pending_estimator,
    plan_submissions,
    record_for,
)
from repro.workloads.trace import TraceDataset

# The row-at-a-time reference is a test oracle and lives beside the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from rowpath import (  # noqa: E402
    RowPathSynthesizer,
    figure_suite_rowpath,
    record_for_rowpath,
)


def _best_of(repeats: int, action: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - started)
    return best


def _speedup(baseline: float, columnar: float) -> float:
    return round(baseline / columnar, 2) if columnar > 0 else float("inf")


def _run_pipeline(config: TraceGeneratorConfig, fleet, synthesizer,
                  recorder) -> List:
    """One single-process study pass: plan -> synthesise -> simulate -> record."""
    jobs = [synthesizer.synthesise(planned)
            for planned in plan_submissions(config)]
    jobs = [job for job in jobs if job is not None]
    service = QuantumCloudService(fleet, seed=config.seed)
    for job in jobs:
        service.submit(job)
    service.drain()
    return [recorder(job, fleet) for job in jobs]


def bench_run_study(config: TraceGeneratorConfig, fleet,
                    repeats: int) -> Dict[str, object]:
    columnar_records: List = []

    def columnar_pass():
        columnar_records.clear()
        columnar_records.extend(_run_pipeline(
            config, fleet,
            JobSynthesizer(config, fleet, expected_pending_estimator(fleet)),
            record_for))

    def rowpath_pass():
        _run_pipeline(
            config, fleet,
            RowPathSynthesizer(config, fleet,
                               expected_pending_estimator(fleet)),
            record_for_rowpath)

    # Untimed warm-up: the first pass pays the one-off circuit-building cost
    # of the shared logical-metrics caches; whichever path ran first would
    # otherwise be charged for warming them on the other's behalf.
    columnar_pass()

    columnar_seconds = _best_of(repeats, columnar_pass)
    rowpath_seconds = _best_of(repeats, rowpath_pass)
    return {
        "columnar_seconds": round(columnar_seconds, 4),
        "rowpath_seconds": round(rowpath_seconds, 4),
        "speedup": _speedup(rowpath_seconds, columnar_seconds),
        "_records": columnar_records,
    }


def bench_construct(records: List, repeats: int) -> Dict[str, object]:
    seconds = _best_of(repeats, lambda: TraceDataset.from_records(records))
    return {"columnar_seconds": round(seconds, 4), "rows": len(records)}


def bench_filter_groupby(trace: TraceDataset, records: List,
                         repeats: int) -> Dict[str, object]:
    def columnar():
        # completed-job selection, per-machine median queue, monthly job
        # counts, large-batch selection, status counts: the selection and
        # grouping mix every figure analysis is built from.
        len(trace.completed())
        for subset in trace.group_by_machine().values():
            minutes = subset.numeric_column("queue_minutes")
            if minutes.size:
                np.median(minutes)
        trace.value_counts("month_index")
        int((trace.values("batch_size") >= 100).sum())
        trace.value_counts("status")

    def rowpath():
        len([r for r in records
             if r.run_seconds is not None and r.run_seconds > 0])
        by_machine: Dict[str, List[float]] = {}
        for record in records:
            minutes = record.queue_minutes
            if minutes is not None:
                by_machine.setdefault(record.machine, []).append(minutes)
        for values in by_machine.values():
            np.median(values)
        month_counts: Dict[int, int] = {}
        for record in records:
            month_counts[record.month_index] = \
                month_counts.get(record.month_index, 0) + 1
        len([r for r in records if r.batch_size >= 100])
        counts: Dict[str, int] = {}
        for record in records:
            counts[record.status] = counts.get(record.status, 0) + 1

    columnar_seconds = _best_of(repeats, columnar)
    rowpath_seconds = _best_of(repeats, rowpath)
    return {
        "columnar_seconds": round(columnar_seconds, 4),
        "rowpath_seconds": round(rowpath_seconds, 4),
        "speedup": _speedup(rowpath_seconds, columnar_seconds),
    }


def bench_analysis(trace: TraceDataset, records: List,
                   repeats: int) -> Dict[str, object]:
    def columnar():
        # Fresh dataset per pass so the derived-column cache is cold, like a
        # newly loaded trace.
        fresh = trace.take(range(len(trace)))
        trace_figure_suite(fresh)

    columnar_seconds = _best_of(repeats, columnar)
    rowpath_seconds = _best_of(repeats, lambda: figure_suite_rowpath(records))
    return {
        "columnar_seconds": round(columnar_seconds, 4),
        "rowpath_seconds": round(rowpath_seconds, 4),
        "speedup": _speedup(rowpath_seconds, columnar_seconds),
    }


def bench_cache(trace: TraceDataset, config: TraceGeneratorConfig,
                scratch: Path, repeats: int) -> Dict[str, object]:
    cache = TraceCache(scratch / "cache")
    key = config_fingerprint(config)
    json_path = scratch / "trace.json"

    npz_save = _best_of(repeats, lambda: cache.put(key, trace))
    npz_load = _best_of(repeats, lambda: cache.get(key))
    json_save = _best_of(repeats, lambda: trace.to_json(json_path))
    json_load = _best_of(repeats, lambda: TraceDataset.from_json(json_path))
    npz_bytes = cache.path_for(key).stat().st_size
    json_bytes = json_path.stat().st_size
    return {
        "npz_save_seconds": round(npz_save, 4),
        "npz_load_seconds": round(npz_load, 4),
        "json_save_seconds": round(json_save, 4),
        "json_load_seconds": round(json_load, 4),
        "load_speedup": _speedup(json_load, npz_load),
        "npz_bytes": npz_bytes,
        "json_bytes": json_bytes,
        "compression_ratio": round(json_bytes / npz_bytes, 2)
        if npz_bytes else None,
    }


def bench_export(trace: TraceDataset, scratch: Path) -> Dict[str, object]:
    """Arrow/Parquet export smoke — records a clean skip without pyarrow."""
    try:
        import pyarrow  # noqa: F401
    except ImportError:
        return {"skipped": True, "reason": "pyarrow not installed"}
    parquet_path = scratch / "trace.parquet"
    feather_path = scratch / "trace.feather"
    parquet_seconds = _best_of(1, lambda: trace.to_parquet(parquet_path))
    feather_seconds = _best_of(1, lambda: trace.to_feather(feather_path))
    return {
        "skipped": False,
        "rows": len(trace),
        "parquet_seconds": round(parquet_seconds, 4),
        "parquet_bytes": parquet_path.stat().st_size,
        "feather_seconds": round(feather_seconds, 4),
        "feather_bytes": feather_path.stat().st_size,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the columnar data plane against the "
                    "row-at-a-time reference path.")
    parser.add_argument("--jobs", type=int,
                        default=env_int("REPRO_BENCH_JOBS", 6000))
    parser.add_argument("--months", type=int,
                        default=env_int("REPRO_BENCH_MONTHS", 28))
    parser.add_argument("--seed", type=int,
                        default=env_int("REPRO_BENCH_SEED", 7))
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repeats per section (best-of)")
    parser.add_argument("--output", default="BENCH_dataplane.json")
    parser.add_argument("--scratch", default=None,
                        help="scratch directory for cache files "
                             "(default: a temp dir)")
    args = parser.parse_args(argv)

    config = TraceGeneratorConfig(total_jobs=args.jobs, months=args.months,
                                  seed=args.seed)
    fleet = config.build_fleet()

    print(f"[dataplane] end-to-end run-study at {args.jobs} jobs / "
          f"{args.months} months ...")
    run_study_section = bench_run_study(config, fleet, args.repeats)
    records = run_study_section.pop("_records")
    print(f"[dataplane]   columnar {run_study_section['columnar_seconds']}s, "
          f"rowpath {run_study_section['rowpath_seconds']}s "
          f"({run_study_section['speedup']}x)")

    # The remaining sections run in milliseconds; repeat them a few times so
    # a single scheduler hiccup cannot dominate the best-of timing.
    fast_repeats = max(args.repeats, 3)
    construct_section = bench_construct(records, fast_repeats)
    trace = TraceDataset.from_records(records, metadata={"seed": args.seed})

    filter_section = bench_filter_groupby(trace, records, fast_repeats)
    print(f"[dataplane]   filter/group-by {filter_section['speedup']}x")

    analysis_section = bench_analysis(trace, records, fast_repeats)
    print(f"[dataplane]   analysis suite "
          f"{analysis_section['columnar_seconds']}s vs "
          f"{analysis_section['rowpath_seconds']}s "
          f"({analysis_section['speedup']}x)")

    if args.scratch:
        scratch = Path(args.scratch)
        scratch.mkdir(parents=True, exist_ok=True)
        cache_section = bench_cache(trace, config, scratch, fast_repeats)
        export_section = bench_export(trace, scratch)
    else:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            cache_section = bench_cache(trace, config, Path(tmp),
                                        fast_repeats)
            export_section = bench_export(trace, Path(tmp))
    print(f"[dataplane]   cache load {cache_section['load_speedup']}x "
          f"(npz {cache_section['npz_bytes']} B vs "
          f"json {cache_section['json_bytes']} B)")
    if export_section.get("skipped"):
        print(f"[dataplane]   export skipped ({export_section['reason']})")
    else:
        print(f"[dataplane]   export parquet "
              f"{export_section['parquet_seconds']}s "
              f"({export_section['parquet_bytes']} B)")

    full_scale = args.jobs >= 2000 and args.months >= 20
    payload = {
        "benchmark": "dataplane",
        "jobs": args.jobs,
        "months": args.months,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "full_scale": full_scale,
        "run_study": run_study_section,
        "construct": construct_section,
        "filter_groupby": filter_section,
        "analysis": analysis_section,
        "cache": cache_section,
        "export": export_section,
        "targets": {
            "analysis_speedup_min": 5.0,
            "run_study_speedup_min": 2.0,
            "analysis_ok": analysis_section["speedup"] >= 5.0,
            "run_study_ok": run_study_section["speedup"] >= 2.0,
        },
    }
    Path(args.output).write_text(json.dumps(payload, indent=2))
    print(f"[dataplane] results written to {args.output}")
    if full_scale and not (payload["targets"]["analysis_ok"]
                           and payload["targets"]["run_study_ok"]):
        print("[dataplane] WARNING: full-scale speedup targets not met")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
