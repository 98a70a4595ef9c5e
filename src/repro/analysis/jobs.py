"""Overall system trends (Section III-A of the paper).

* Fig. 2a — cumulative machine trials per month over the study window.
* Fig. 2b — breakdown of job terminal statuses (DONE / ERROR / CANCELLED).

The monthly aggregation runs as integer scatter-adds over the trace's month
column rather than a per-record walk; only the three columns involved are
materialised, never the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.exceptions import AnalysisError
from repro.core.types import JobStatus
from repro.workloads.trace import TraceDataset


@dataclass(frozen=True)
class MonthlyTrials:
    """Machine trials submitted in one month plus the running total."""

    month_index: int
    jobs: int
    circuits: int
    trials: int
    cumulative_trials: int


def cumulative_trials_by_month(trace: TraceDataset) -> List[MonthlyTrials]:
    """Fig. 2a series: cumulative machine trials month by month."""
    if len(trace) == 0:
        raise AnalysisError("trace is empty")
    months = trace.values("month_index")
    batch = trace.values("batch_size")
    trials = trace.values("total_trials")
    first = int(months.min())
    span = int(months.max()) - first + 1
    offsets = months - first
    job_counts = np.zeros(span, dtype=np.int64)
    circuit_counts = np.zeros(span, dtype=np.int64)
    trial_counts = np.zeros(span, dtype=np.int64)
    np.add.at(job_counts, offsets, 1)
    np.add.at(circuit_counts, offsets, batch)
    np.add.at(trial_counts, offsets, trials)
    cumulative = np.cumsum(trial_counts)
    return [
        MonthlyTrials(
            month_index=first + offset,
            jobs=int(job_counts[offset]),
            circuits=int(circuit_counts[offset]),
            trials=int(trial_counts[offset]),
            cumulative_trials=int(cumulative[offset]),
        )
        for offset in range(span)
    ]


def status_breakdown(trace: TraceDataset) -> Dict[str, float]:
    """Fig. 2b series: fraction of jobs per terminal status."""
    if len(trace) == 0:
        raise AnalysisError("trace is empty")
    counts = trace.status_counts()
    total = sum(counts.values())
    breakdown = {status.value: 0.0 for status in
                 (JobStatus.DONE, JobStatus.ERROR, JobStatus.CANCELLED)}
    for status, count in counts.items():
        breakdown[status] = count / total
    return breakdown


def wasted_execution_fraction(trace: TraceDataset) -> float:
    """Fraction of jobs that did not execute cleanly (insight 1: ~5 %+)."""
    breakdown = status_breakdown(trace)
    return 1.0 - breakdown.get(JobStatus.DONE.value, 0.0)


def jobs_per_machine(trace: TraceDataset) -> Dict[str, int]:
    """Number of studied jobs per machine."""
    return trace.value_counts("machine")
