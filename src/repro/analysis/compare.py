"""Comparative what-if analysis: per-scenario deltas vs the baseline study.

The scenario engine produces one trace per scenario; this module reduces
each trace (plus its scenario fleet) to the paper's headline metrics —
queue-time percentiles, machine utilisation, a fidelity distribution and the
terminal-status mix — and reports every scenario as deltas against the
baseline, as JSON-serialisable data or a markdown table.

Seed replicates (scenarios whose :attr:`~repro.scenarios.scenario.Scenario.
replicate_of` points at a base scenario — :func:`~repro.scenarios.scenario.
replicate_scenarios` generates them) are aggregated, not listed: each
replicate group collapses to one comparison row holding the per-metric mean
and a Student-t 95% confidence interval, so what-if deltas come with
statistical error bars instead of resting on a single seed.

Fidelity is a *trace-level proxy* of the Estimated Success Probability: per
job, the machine-average CX and readout error rates of the calibration in
effect when the job started (drift applied, so calibration-regime scenarios
move it) raised to the job's CX count and width, times a decoherence factor
for the CX-depth critical path.  It preserves the orderings the paper's
Fig. 7 demonstrates without re-transpiling every job.

Every reduction here is column-at-a-time (the fidelity proxy touches four
numeric columns plus per-machine masks), so scenario comparison runs
against chunked traces without the full column set ever being resident —
``compare-scenarios`` works under a resident-bytes budget smaller than one
scenario's column bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import AnalysisError
from repro.core.types import JobStatus
from repro.core.units import HOUR_SECONDS
from repro.devices.backend import Backend
from repro.workloads.trace import TraceDataset

#: (metric, markdown label) pairs of the headline columns in rendered tables.
HEADLINE_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("jobs", "jobs"),
    ("queue_minutes_median", "queue p50 (min)"),
    ("queue_minutes_p90", "queue p90 (min)"),
    ("utilization_mean", "utilisation"),
    ("fidelity_median", "fidelity p50"),
    ("done_fraction", "done frac"),
)


def fidelity_proxy(trace: TraceDataset,
                   fleet: Mapping[str, Backend]) -> np.ndarray:
    """Per-job estimated-success proxy (NaN for jobs that never started).

    Vectorised per machine: calibration lookups are bucketed to the hour of
    the job's start time, so one drifted snapshot serves every job that
    started in that hour.
    """
    size = len(trace)
    esp = np.full(size, np.nan)
    if size == 0:
        return esp
    start = trace.values("start_time")
    cx = trace.values("circuit_cx").astype(float)
    cx_depth = trace.values("circuit_cx_depth").astype(float)
    width = trace.values("circuit_width").astype(float)
    for machine in trace.machines():
        backend = fleet.get(machine)
        if backend is None:
            continue
        indices = np.flatnonzero(trace.mask_equal("machine", machine))
        started = indices[~np.isnan(start[indices])]
        if started.size == 0:
            continue
        hours = (start[started] // HOUR_SECONDS).astype(np.int64)
        for hour in np.unique(hours):
            snapshot = backend.calibration_at(
                (float(hour) + 0.5) * HOUR_SECONDS)
            cx_error = snapshot.average_cx_error()
            readout_error = snapshot.average_readout_error()
            t_effective_us = min(snapshot.average_t1_us(),
                                 snapshot.average_t2_us())
            cx_duration_us = snapshot.average_cx_duration_ns() / 1000.0
            rows = started[hours == hour]
            duration_us = cx_depth[rows] * cx_duration_us
            decoherence = (np.exp(-duration_us / t_effective_us)
                           if t_effective_us > 0 else 0.0)
            esp[rows] = ((1.0 - cx_error) ** cx[rows]
                         * (1.0 - readout_error) ** width[rows]
                         * decoherence)
    return esp


@dataclass(frozen=True)
class ScenarioMetrics:
    """The headline metrics of one scenario trace."""

    jobs: int
    total_trials: int
    done_fraction: float
    error_fraction: float
    cancelled_fraction: float
    queue_minutes_mean: float
    queue_minutes_p25: float
    queue_minutes_median: float
    queue_minutes_p75: float
    queue_minutes_p90: float
    utilization_mean: float
    utilization_p90: float
    fidelity_mean: float
    fidelity_median: float
    fidelity_p10: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "jobs": float(self.jobs),
            "total_trials": float(self.total_trials),
            "done_fraction": self.done_fraction,
            "error_fraction": self.error_fraction,
            "cancelled_fraction": self.cancelled_fraction,
            "queue_minutes_mean": self.queue_minutes_mean,
            "queue_minutes_p25": self.queue_minutes_p25,
            "queue_minutes_median": self.queue_minutes_median,
            "queue_minutes_p75": self.queue_minutes_p75,
            "queue_minutes_p90": self.queue_minutes_p90,
            "utilization_mean": self.utilization_mean,
            "utilization_p90": self.utilization_p90,
            "fidelity_mean": self.fidelity_mean,
            "fidelity_median": self.fidelity_median,
            "fidelity_p10": self.fidelity_p10,
        }


def _fraction(counts: Dict[str, int], status: JobStatus, total: int) -> float:
    if total == 0:
        return float("nan")
    return counts.get(status.value, 0) / total


def headline_metrics(trace: TraceDataset,
                     fleet: Mapping[str, Backend]) -> ScenarioMetrics:
    """Reduce one scenario trace to the paper's headline metrics."""
    jobs = len(trace)
    if jobs == 0:
        raise AnalysisError("cannot compute scenario metrics of an empty trace")
    counts = trace.status_counts()
    queue = trace.numeric_column("queue_minutes")
    if queue.size:
        q_mean = float(queue.mean())
        q25, q50, q75, q90 = (
            float(v) for v in np.percentile(queue, (25, 50, 75, 90)))
    else:
        q_mean = q25 = q50 = q75 = q90 = float("nan")
    utilization = np.asarray(trace.values("utilization"), dtype=float)
    esp = fidelity_proxy(trace, fleet)
    esp = esp[~np.isnan(esp)]
    if esp.size:
        f_mean = float(esp.mean())
        f10, f50 = (float(v) for v in np.percentile(esp, (10, 50)))
    else:
        f_mean = f10 = f50 = float("nan")
    return ScenarioMetrics(
        jobs=jobs,
        total_trials=trace.total_trials(),
        done_fraction=_fraction(counts, JobStatus.DONE, jobs),
        error_fraction=_fraction(counts, JobStatus.ERROR, jobs),
        cancelled_fraction=_fraction(counts, JobStatus.CANCELLED, jobs),
        queue_minutes_mean=q_mean,
        queue_minutes_p25=q25,
        queue_minutes_median=q50,
        queue_minutes_p75=q75,
        queue_minutes_p90=q90,
        utilization_mean=float(utilization.mean()),
        utilization_p90=float(np.percentile(utilization, 90)),
        fidelity_mean=f_mean,
        fidelity_median=f50,
        fidelity_p10=f10,
    )


@dataclass(frozen=True)
class MetricDelta:
    """One metric of one scenario, against its baseline value."""

    value: float
    baseline: float
    delta: float
    percent: Optional[float]

    def as_dict(self) -> Dict[str, Optional[float]]:
        return {
            "value": self.value,
            "baseline": self.baseline,
            "delta": self.delta,
            "percent": self.percent,
        }


def _delta(value: float, baseline: float) -> MetricDelta:
    delta = value - baseline
    percent: Optional[float] = None
    if baseline == baseline and baseline != 0:
        percent = 100.0 * delta / baseline
    return MetricDelta(value=value, baseline=baseline, delta=delta,
                       percent=percent)


#: Two-sided Student-t critical values at 95% confidence for df = 1..30;
#: larger samples fall back to the normal-approximation 1.96.  Hardcoded so
#: the CI aggregation needs numpy only (no scipy in the image).
_T_CRITICAL_95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def _t_critical(degrees_of_freedom: int) -> float:
    if degrees_of_freedom < 1:
        return float("nan")
    if degrees_of_freedom <= len(_T_CRITICAL_95):
        return _T_CRITICAL_95[degrees_of_freedom - 1]
    return 1.96


@dataclass(frozen=True)
class MetricInterval:
    """Mean ± 95% confidence half-width of one metric over seed replicates."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def as_dict(self) -> Dict[str, float]:
        return {
            "mean": self.mean,
            "half_width": self.half_width,
            "low": self.low,
            "high": self.high,
            "n": float(self.n),
        }


def replicate_interval(values: Sequence[float]) -> MetricInterval:
    """The mean ± Student-t 95% CI of one metric's replicate values.

    Non-finite replicate values (a metric that was undefined in one
    re-roll) are dropped; with fewer than two finite values the half-width
    is NaN — a single seed carries no variance information.
    """
    finite = np.asarray(
        [v for v in values if v == v and not math.isinf(v)], dtype=float)
    n = int(finite.size)
    if n == 0:
        return MetricInterval(mean=float("nan"), half_width=float("nan"), n=0)
    mean = float(finite.mean())
    if n == 1:
        return MetricInterval(mean=mean, half_width=float("nan"), n=1)
    std = float(finite.std(ddof=1))
    half_width = _t_critical(n - 1) * std / math.sqrt(n)
    return MetricInterval(mean=mean, half_width=half_width, n=n)


def aggregate_replicates(
    metrics_list: Sequence[ScenarioMetrics],
) -> Tuple[ScenarioMetrics, Dict[str, MetricInterval]]:
    """Collapse per-replicate metrics into (mean metrics, per-metric CI)."""
    if not metrics_list:
        raise AnalysisError("cannot aggregate an empty replicate group")
    dicts = [metrics.as_dict() for metrics in metrics_list]
    intervals = {
        metric: replicate_interval([d[metric] for d in dicts])
        for metric in dicts[0]
    }
    means = {metric: interval.mean
             for metric, interval in intervals.items()}
    return ScenarioMetrics(**means), intervals


@dataclass
class ScenarioComparison:
    """One scenario's metrics as deltas against the baseline.

    When the scenario ran as several seed replicates, ``metrics`` holds the
    replicate means, ``intervals`` the per-metric 95% CI, and ``replicates``
    the group size; a single-seed scenario has no intervals.
    """

    name: str
    description: str
    metrics: ScenarioMetrics
    deltas: Dict[str, MetricDelta]
    intervals: Optional[Dict[str, MetricInterval]] = None
    replicates: int = 1

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "scenario": self.name,
            "description": self.description,
            "metrics": self.metrics.as_dict(),
            "deltas": {metric: delta.as_dict()
                       for metric, delta in self.deltas.items()},
        }
        if self.intervals is not None:
            payload["replicates"] = self.replicates
            payload["intervals"] = {
                metric: interval.as_dict()
                for metric, interval in self.intervals.items()
            }
        return payload


@dataclass
class ComparisonReport:
    """The full comparative study: baseline metrics + per-scenario deltas."""

    baseline_name: str
    baseline_metrics: ScenarioMetrics
    comparisons: List[ScenarioComparison] = field(default_factory=list)
    baseline_intervals: Optional[Dict[str, MetricInterval]] = None
    baseline_replicates: int = 1

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "baseline": self.baseline_name,
            "baseline_metrics": self.baseline_metrics.as_dict(),
            "scenarios": [c.as_dict() for c in self.comparisons],
        }
        if self.baseline_intervals is not None:
            payload["baseline_replicates"] = self.baseline_replicates
            payload["baseline_intervals"] = {
                metric: interval.as_dict()
                for metric, interval in self.baseline_intervals.items()
            }
        return payload

    def render_markdown(self) -> str:
        """The per-scenario delta table (values + signed % vs baseline).

        Replicated rows render every headline value as ``mean ±hw`` (the
        95% CI half-width over the seed re-rolls).
        """
        header = ["scenario"]
        for _, label in HEADLINE_COLUMNS:
            header.extend([label, "Δ%"])
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "---|" * len(header),
        ]
        baseline = self.baseline_metrics.as_dict()
        baseline_row = [self.baseline_name]
        for metric, _ in HEADLINE_COLUMNS:
            baseline_row.extend([
                _format_with_interval(
                    baseline[metric],
                    (self.baseline_intervals or {}).get(metric)),
                "—",
            ])
        lines.append("| " + " | ".join(baseline_row) + " |")
        for comparison in self.comparisons:
            row = [comparison.name]
            for metric, _ in HEADLINE_COLUMNS:
                delta = comparison.deltas[metric]
                row.append(_format_with_interval(
                    delta.value,
                    (comparison.intervals or {}).get(metric)))
                row.append(_format_percent(delta.percent))
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)


def _format_value(value: float) -> str:
    if value != value:
        return "n/a"
    # Guard non-finite values before the int() comparison: int(inf) raises
    # OverflowError, and a surge/outage scenario can legitimately push a
    # ratio metric to ±inf.
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    if abs(value) >= 100:
        return f"{value:.0f}"
    return f"{value:.3g}"


def _format_with_interval(value: float,
                          interval: Optional[MetricInterval]) -> str:
    text = _format_value(value)
    if (interval is not None and interval.n > 1
            and interval.half_width == interval.half_width):
        text += f" ±{_format_value(interval.half_width)}"
    return text


def _format_percent(percent: Optional[float]) -> str:
    if percent is None or percent != percent:
        return "n/a"
    return f"{percent:+.1f}%"


def compare_traces(
    baseline_name: str,
    runs: Mapping[str, Tuple[TraceDataset, Mapping[str, Backend]]],
    descriptions: Optional[Mapping[str, str]] = None,
) -> ComparisonReport:
    """Compare scenario traces against the named baseline.

    ``runs`` maps scenario name to ``(trace, fleet)`` — the fleet must be
    the *scenario's* fleet so calibration/backlog perturbations are
    reflected in the fidelity proxy.
    """
    if baseline_name not in runs:
        raise AnalysisError(
            f"baseline scenario {baseline_name!r} is not among the runs "
            f"{sorted(runs)}")
    descriptions = descriptions or {}
    baseline_trace, baseline_fleet = runs[baseline_name]
    baseline_metrics = headline_metrics(baseline_trace, baseline_fleet)
    baseline_dict = baseline_metrics.as_dict()
    report = ComparisonReport(baseline_name=baseline_name,
                              baseline_metrics=baseline_metrics)
    for name, (trace, fleet) in runs.items():
        if name == baseline_name:
            continue
        metrics = headline_metrics(trace, fleet)
        values = metrics.as_dict()
        report.comparisons.append(ScenarioComparison(
            name=name,
            description=str(descriptions.get(name, "")),
            metrics=metrics,
            deltas={metric: _delta(values[metric], baseline_dict[metric])
                    for metric in values},
        ))
    return report


def compare_suite(suite) -> ComparisonReport:
    """Compare a :class:`~repro.scenarios.engine.ScenarioSuiteResult`.

    Seed replicates (runs whose scenario carries ``replicate_of``) are
    grouped under their base scenario and aggregated into mean ± 95% CI
    per headline metric; deltas are taken between group means.  The first
    baseline group (one containing a scenario with no perturbations)
    anchors the deltas; if none exists the suite's first group is used.
    """
    runs = list(suite)
    if not runs:
        raise AnalysisError("the scenario suite is empty")
    groups: Dict[str, List] = {}
    for run in runs:
        base = run.scenario.replicate_of or run.name
        groups.setdefault(base, []).append(run)

    baseline_name = next(
        (name for name, members in groups.items()
         if any(member.scenario.is_baseline for member in members)),
        next(iter(groups)))

    aggregated: Dict[str, Tuple[ScenarioMetrics,
                                Optional[Dict[str, MetricInterval]], int]] = {}
    for name, members in groups.items():
        metrics_list = [headline_metrics(member.trace, member.build_fleet())
                        for member in members]
        if len(metrics_list) == 1:
            aggregated[name] = (metrics_list[0], None, 1)
        else:
            mean_metrics, intervals = aggregate_replicates(metrics_list)
            aggregated[name] = (mean_metrics, intervals, len(metrics_list))

    baseline_metrics, baseline_intervals, baseline_n = aggregated[baseline_name]
    baseline_dict = baseline_metrics.as_dict()
    report = ComparisonReport(
        baseline_name=baseline_name,
        baseline_metrics=baseline_metrics,
        baseline_intervals=baseline_intervals,
        baseline_replicates=baseline_n,
    )
    for name, members in groups.items():
        if name == baseline_name:
            continue
        metrics, intervals, replicates = aggregated[name]
        values = metrics.as_dict()
        report.comparisons.append(ScenarioComparison(
            name=name,
            description=members[0].scenario.description,
            metrics=metrics,
            deltas={metric: _delta(values[metric], baseline_dict[metric])
                    for metric in values},
            intervals=intervals,
            replicates=replicates,
        ))
    return report
