"""Execution-time analyses (Section VI, Figures 13-14), as column operations.

Per-machine run-time distributions go through ``grouped_values``; the
batch-size binning touches two columns at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.analysis.stats import (
    DistributionSummary,
    linear_fit,
    pearson_correlation,
    summarize,
)
from repro.core.exceptions import AnalysisError
from repro.workloads.trace import TraceDataset


def run_time_by_machine(trace: TraceDataset,
                        per_circuit: bool = False) -> Dict[str, DistributionSummary]:
    """Fig. 13 series: run-time distribution per machine (minutes).

    With ``per_circuit=True`` the per-circuit run time (job run time divided
    by batch size) is summarised instead of the per-job run time.
    """
    column = "per_circuit_run_seconds" if per_circuit else "run_minutes"
    result: Dict[str, DistributionSummary] = {}
    for machine, values in trace.grouped_values("machine", column).items():
        if per_circuit:
            values = values / 60.0
        if values.size:
            result[machine] = summarize(values)
    if not result:
        raise AnalysisError("no completed jobs in the trace")
    return result


@dataclass(frozen=True)
class BatchRuntimeTrend:
    """Linear trend of job run time versus batch size (the Fig. 14 red line)."""

    slope_minutes_per_circuit: float
    intercept_minutes: float
    correlation: float

    def predict_minutes(self, batch_size: float) -> float:
        return self.slope_minutes_per_circuit * batch_size + self.intercept_minutes


def run_time_by_batch_size(trace: TraceDataset, bin_width: int = 100
                           ) -> Dict[Tuple[int, int], DistributionSummary]:
    """Fig. 14 series: run minutes binned by batch size."""
    minutes = trace.values("run_minutes")
    batch = trace.values("batch_size")
    valid = ~np.isnan(minutes)
    if not valid.any():
        raise AnalysisError("no completed jobs in the trace")
    edges = list(range(0, 900, bin_width)) + [900]
    bins = [(edges[i] + 1, edges[i + 1]) for i in range(len(edges) - 1)]
    result: Dict[Tuple[int, int], DistributionSummary] = {}
    for low, high in bins:
        values = minutes[valid & (batch >= low) & (batch <= high)]
        if values.size:
            result[(low, high)] = summarize(values)
    return result


def batch_runtime_trend(trace: TraceDataset) -> BatchRuntimeTrend:
    """Fit the Fig. 14 proportional trend between batch size and run time."""
    minutes = trace.values("run_minutes")
    valid = ~np.isnan(minutes)
    if int(valid.sum()) < 2:
        raise AnalysisError("need at least two completed jobs to fit a trend")
    batches = trace.values("batch_size")[valid].astype(float)
    minutes = minutes[valid]
    slope, intercept = linear_fit(batches, minutes)
    return BatchRuntimeTrend(
        slope_minutes_per_circuit=slope,
        intercept_minutes=intercept,
        correlation=pearson_correlation(batches, minutes),
    )
