"""Queuing-time analyses (Sections III-B/C and V of the paper).

* Fig. 3  — sorted per-circuit queuing times.
* Fig. 4  — sorted per-job queue:execution ratios.
* Fig. 10 — queue-time distribution per machine.
* Fig. 11 — queue time (per job and per circuit) versus batch size.

All series are computed as column NumPy operations on the columnar
:class:`~repro.workloads.trace.TraceDataset` (missing values are NaN),
touching one column at a time; the per-machine grouping goes through the
two-column ``grouped_values`` primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.stats import (
    DistributionSummary,
    percentile,
    summarize,
)
from repro.core.exceptions import AnalysisError
from repro.workloads.trace import TraceDataset


def sorted_queue_times_minutes(trace: TraceDataset,
                               per_circuit: bool = True) -> np.ndarray:
    """Fig. 3 series: queue times (minutes), sorted ascending.

    With ``per_circuit=True`` each job's queue time is repeated once per
    circuit in its batch, matching the paper's x-axis of ~600k circuit
    instances.
    """
    minutes = trace.values("queue_minutes")
    valid = ~np.isnan(minutes)
    values = minutes[valid]
    if per_circuit:
        # Sort the ~6k per-job values first, then expand: repeating elements
        # of a sorted array keeps it sorted, so the ~600k-element sort is
        # avoided entirely (the result is identical).
        order = np.argsort(values, kind="stable")
        values = np.repeat(values[order],
                           trace.values("batch_size")[valid][order])
        if values.size == 0:
            raise AnalysisError("no queued jobs in the trace")
        return values
    if values.size == 0:
        raise AnalysisError("no queued jobs in the trace")
    return np.sort(values)


@dataclass(frozen=True)
class QueueTimeReport:
    """Headline queue-time statistics quoted in Section III-B."""

    fraction_under_one_minute: float
    median_minutes: float
    fraction_over_two_hours: float
    fraction_over_one_day: float
    summary: DistributionSummary

    def as_dict(self) -> Dict[str, float]:
        result = {
            "fraction_under_one_minute": self.fraction_under_one_minute,
            "median_minutes": self.median_minutes,
            "fraction_over_two_hours": self.fraction_over_two_hours,
            "fraction_over_one_day": self.fraction_over_one_day,
        }
        result.update({f"queue_{k}": v for k, v in self.summary.as_dict().items()})
        return result


def report_from_sorted_minutes(minutes: np.ndarray) -> QueueTimeReport:
    """The Fig. 3 headline report from a precomputed sorted minutes series.

    Lets callers that already hold the (possibly ~600k-element) sorted
    series avoid expanding it a second time.
    """

    def fraction_below(threshold: float) -> float:
        # The series is sorted, so the strictly-below count is a bisection;
        # the value equals cumulative_fraction_below exactly.
        return float(np.searchsorted(minutes, threshold, side="left")
                     / minutes.size)

    summary = summarize(minutes)
    return QueueTimeReport(
        fraction_under_one_minute=fraction_below(1.0),
        median_minutes=summary.median,
        fraction_over_two_hours=1.0 - fraction_below(120.0),
        fraction_over_one_day=1.0 - fraction_below(1440.0),
        summary=summary,
    )


def queue_time_percentile_report(trace: TraceDataset,
                                 per_circuit: bool = True) -> QueueTimeReport:
    """The headline numbers the paper quotes about Fig. 3."""
    return report_from_sorted_minutes(
        sorted_queue_times_minutes(trace, per_circuit=per_circuit))


def queue_to_run_ratios(trace: TraceDataset) -> np.ndarray:
    """Fig. 4 series: per-job queue:run ratios, sorted ascending."""
    ratios = trace.values("queue_to_run_ratio")
    ratios = ratios[~np.isnan(ratios)]
    if ratios.size == 0:
        raise AnalysisError("no completed jobs with run time in the trace")
    return np.sort(ratios)


@dataclass(frozen=True)
class RatioReport:
    """Headline queue:execution ratio statistics (Section III-C)."""

    fraction_at_or_below_one: float
    median_ratio: float
    fraction_at_or_above_hundred: float
    summary: DistributionSummary


def ratio_report(trace: TraceDataset) -> RatioReport:
    ratios = queue_to_run_ratios(trace)
    return RatioReport(
        fraction_at_or_below_one=float((ratios <= 1.0).mean()),
        median_ratio=percentile(ratios, 50),
        fraction_at_or_above_hundred=float((ratios >= 100.0).mean()),
        summary=summarize(ratios),
    )


def queue_time_by_machine(trace: TraceDataset) -> Dict[str, DistributionSummary]:
    """Fig. 10 series: distribution of per-job queue minutes per machine.

    Goes through :meth:`~repro.workloads.trace.TraceDataset.grouped_values`,
    so only the machine and queue-minute columns are touched.
    """
    result: Dict[str, DistributionSummary] = {}
    for machine, minutes in trace.grouped_values("machine",
                                                 "queue_minutes").items():
        if minutes.size:
            result[machine] = summarize(minutes)
    if not result:
        raise AnalysisError("no queue data in the trace")
    return result


def _batch_bins(max_batch: int = 900, bin_width: int = 100) -> List[Tuple[int, int]]:
    edges = list(range(0, max_batch, bin_width)) + [max_batch]
    return [(edges[i] + 1, edges[i + 1]) for i in range(len(edges) - 1)]


def queue_time_by_batch_size(trace: TraceDataset, bin_width: int = 100
                             ) -> Dict[Tuple[int, int], DistributionSummary]:
    """Fig. 11 (per-job view): queue minutes binned by batch size."""
    minutes = trace.values("queue_minutes")
    batch = trace.values("batch_size")
    valid = ~np.isnan(minutes)
    result: Dict[Tuple[int, int], DistributionSummary] = {}
    for low, high in _batch_bins(bin_width=bin_width):
        values = minutes[valid & (batch >= low) & (batch <= high)]
        if values.size:
            result[(low, high)] = summarize(values)
    if not result:
        raise AnalysisError("no queue data in the trace")
    return result


def per_circuit_queue_by_batch_size(trace: TraceDataset, bin_width: int = 100
                                    ) -> Dict[Tuple[int, int], float]:
    """Fig. 11 (per-circuit view): median effective queue seconds per circuit.

    The paper's third observation on Fig. 11: as batch size grows the
    *effective* per-circuit queue time almost always decreases because the
    whole batch pays the queue once.
    """
    per_circuit = trace.values("per_circuit_queue_seconds")
    batch = trace.values("batch_size")
    valid = ~np.isnan(per_circuit)
    result: Dict[Tuple[int, int], float] = {}
    for low, high in _batch_bins(bin_width=bin_width):
        values = per_circuit[valid & (batch >= low) & (batch <= high)]
        if values.size:
            result[(low, high)] = float(np.median(values))
    if not result:
        raise AnalysisError("no queue data in the trace")
    return result
