"""Machine-level analyses (Section IV and Fig. 9 of the paper).

* Fig. 6 — qubit count versus bisection bandwidth across the fleet.
* Fig. 8 — machine-utilisation distribution per machine.
* Fig. 9 — average pending jobs per machine over a sampling window.

Fig. 9 evaluates the external-load model over the whole sampling window in
one vectorised call per machine, and the studied-queue correction is a
masked column computation instead of a per-record scan.  Per-machine
distributions go through the two-column ``grouped_values`` primitive, so
no per-machine sub-trace is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.stats import DistributionSummary, summarize
from repro.cloud.backlog import ExternalLoadModel
from repro.core.exceptions import AnalysisError
from repro.core.units import DAY_SECONDS
from repro.devices.backend import Backend
from repro.workloads.trace import TraceDataset


@dataclass(frozen=True)
class MachineTopologyRow:
    """One row of the Fig. 6 table."""

    machine: str
    num_qubits: int
    bisection_bandwidth: int
    access: str


def bisection_bandwidth_table(fleet: Dict[str, Backend]) -> List[MachineTopologyRow]:
    """Fig. 6 series: qubits and bisection bandwidth for each machine."""
    if not fleet:
        raise AnalysisError("fleet is empty")
    rows = [
        MachineTopologyRow(
            machine=name,
            num_qubits=backend.num_qubits,
            bisection_bandwidth=backend.bisection_bandwidth(),
            access=backend.access.value,
        )
        for name, backend in fleet.items()
        if not backend.is_simulator
    ]
    return sorted(rows, key=lambda r: (r.num_qubits, r.machine))


def utilization_by_machine(trace: TraceDataset) -> Dict[str, DistributionSummary]:
    """Fig. 8 series: distribution of per-job machine utilisation per machine.

    Utilisation of a job is the fraction of the machine's qubits used by its
    circuits.
    """
    result: Dict[str, DistributionSummary] = {}
    for machine, utilizations in trace.grouped_values("machine",
                                                      "utilization").items():
        if utilizations.size:
            result[machine] = summarize(utilizations)
    if not result:
        raise AnalysisError("trace contains no jobs")
    return result


def pending_jobs_by_machine(
    fleet: Dict[str, Backend],
    window_start: float,
    window_days: float = 7.0,
    samples: int = 64,
    seed: int = 0,
    trace: Optional[TraceDataset] = None,
) -> Dict[str, float]:
    """Fig. 9 series: average pending jobs per machine over a sampling window.

    The estimate combines the external-load model (everyone else's jobs)
    with, when a trace is supplied, the studied jobs pending in the window.
    """
    if samples < 1:
        raise AnalysisError("samples must be positive")
    if not fleet:
        raise AnalysisError("fleet is empty")
    times = np.linspace(window_start, window_start + window_days * DAY_SECONDS,
                        samples)
    averages: Dict[str, float] = {}
    for name, backend in fleet.items():
        model = ExternalLoadModel(backend=backend, seed=seed)
        averages[name] = float(np.mean(model.mean_pending_jobs(times)))
    if trace is not None:
        window_seconds = times[-1] - times[0]
        submit = trace.values("submit_time")
        start = trace.values("start_time")
        queue = trace.values("queue_seconds")
        overlapping = (
            ~np.isnan(queue) & ~np.isnan(start)
            & (submit <= times[-1]) & (start >= times[0])
        )
        occupancy = np.where(
            overlapping,
            np.minimum(start, times[-1]) - np.maximum(submit, times[0]),
            0.0,
        )
        if window_seconds > 0:
            for machine in trace.machines():
                if machine not in averages:
                    continue
                member = trace.mask_equal("machine", machine) & overlapping
                if member.any():
                    averages[machine] += float(occupancy[member].sum()) \
                        / window_seconds
    return dict(sorted(averages.items()))


def machine_job_share(trace: TraceDataset) -> Dict[str, float]:
    """Fraction of studied jobs landing on each machine (load imbalance)."""
    if len(trace) == 0:
        raise AnalysisError("trace is empty")
    counts = trace.value_counts("machine")
    total = sum(counts.values())
    return {machine: count / total for machine, count in sorted(counts.items())}
