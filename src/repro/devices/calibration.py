"""Calibration data and the spatial/temporal variation model.

The paper (Section IV-B, citing Tannu & Qureshi's 52-day study of a 20-qubit
IBM machine) characterises NISQ devices by:

* spatial variation: coefficient of variation (CoV) of 30-40 % on T1/T2
  coherence times and ~75 % on two-qubit error rates across a machine;
* temporal variation: day-to-day error-rate averages that can differ by more
  than 2x, driven by the daily recalibration plus drift between calibrations.

:class:`CalibrationModel` generates per-epoch :class:`CalibrationSnapshot`
objects with exactly those variation levels; :class:`DriftModel` degrades a
snapshot continuously between calibrations.  The fidelity estimator, the
noise-adaptive layout pass and the calibration-crossover analysis all consume
these snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from repro.core.exceptions import DeviceError
from repro.core.rng import RandomSource
from repro.core.units import DAY_SECONDS, HOUR_SECONDS
from repro.devices.topology import CouplingMap, Edge


@dataclass(frozen=True)
class QubitCalibration:
    """Calibrated properties of a single physical qubit."""

    t1_us: float
    t2_us: float
    readout_error: float
    single_qubit_error: float
    frequency_ghz: float = 5.0

    def __post_init__(self):
        if self.t1_us <= 0 or self.t2_us <= 0:
            raise DeviceError("coherence times must be positive")
        if not 0 <= self.readout_error < 1:
            raise DeviceError("readout error must be in [0, 1)")
        if not 0 <= self.single_qubit_error < 1:
            raise DeviceError("single-qubit error must be in [0, 1)")


@dataclass(frozen=True)
class GateCalibration:
    """Calibrated properties of a two-qubit gate on a coupling edge."""

    error: float
    duration_ns: float

    def __post_init__(self):
        if not 0 <= self.error < 1:
            raise DeviceError("gate error must be in [0, 1)")
        if self.duration_ns <= 0:
            raise DeviceError("gate duration must be positive")


class CalibrationSnapshot:
    """Full calibration state of a machine at a point in time.

    The snapshot is array-backed: one numpy column per qubit field (indexed
    by physical qubit) and one per edge field (indexed by ``edge_index``,
    which maps each sorted edge of the coupling map to its position).  The
    aggregates read the columns directly; :attr:`qubits` and :attr:`gates`
    are per-object views materialised on first access for callers that
    iterate over them.
    """

    def __init__(self, machine: str, epoch: int, timestamp: float, *,
                 t1_us: np.ndarray, t2_us: np.ndarray,
                 readout_error: np.ndarray, single_qubit_error: np.ndarray,
                 frequency_ghz: np.ndarray, edge_index: Dict[Edge, int],
                 cx_error: np.ndarray, cx_duration_ns: np.ndarray):
        self.machine = machine
        self.epoch = epoch
        self.timestamp = timestamp
        self.t1_us = t1_us
        self.t2_us = t2_us
        self.readout_error = readout_error
        self.single_qubit_error = single_qubit_error
        self.frequency_ghz = frequency_ghz
        self.edge_index = edge_index
        self.cx_error = cx_error
        self.cx_duration_ns = cx_duration_ns

    def qubit(self, index: int) -> QubitCalibration:
        if not 0 <= index < self.num_qubits:
            raise DeviceError(f"qubit {index} out of range")
        return QubitCalibration(
            t1_us=float(self.t1_us[index]),
            t2_us=float(self.t2_us[index]),
            readout_error=float(self.readout_error[index]),
            single_qubit_error=float(self.single_qubit_error[index]),
            frequency_ghz=float(self.frequency_ghz[index]),
        )

    def gate(self, qubit_a: int, qubit_b: int) -> GateCalibration:
        index = self.edge_index.get(
            (min(qubit_a, qubit_b), max(qubit_a, qubit_b)))
        if index is None:
            raise DeviceError(
                f"no calibrated two-qubit gate between {qubit_a} and {qubit_b}"
            )
        return GateCalibration(error=float(self.cx_error[index]),
                               duration_ns=float(self.cx_duration_ns[index]))

    def has_gate(self, qubit_a: int, qubit_b: int) -> bool:
        key = (min(qubit_a, qubit_b), max(qubit_a, qubit_b))
        return key in self.edge_index

    @cached_property
    def qubits(self) -> List[QubitCalibration]:
        """Per-qubit view of the qubit columns."""
        return [self.qubit(index) for index in range(self.num_qubits)]

    @cached_property
    def gates(self) -> Dict[Edge, GateCalibration]:
        """Per-edge view of the edge columns, keyed by sorted edge."""
        return {edge: GateCalibration(error=error, duration_ns=duration)
                for edge, error, duration in zip(
                    self.edge_index, self.cx_error.tolist(),
                    self.cx_duration_ns.tolist())}

    # -- aggregate statistics ------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return int(self.t1_us.shape[0])

    def average_cx_error(self) -> float:
        if not self.edge_index:
            return 0.0
        return float(self.cx_error.mean())

    def average_cx_duration_ns(self) -> float:
        if not self.edge_index:
            return 0.0
        return float(self.cx_duration_ns.mean())

    def average_readout_error(self) -> float:
        return float(self.readout_error.mean())

    def average_t1_us(self) -> float:
        return float(self.t1_us.mean())

    def average_t2_us(self) -> float:
        return float(self.t2_us.mean())

    def cx_error_cov(self) -> float:
        """Coefficient of variation of two-qubit errors (spatial variation)."""
        if len(self.edge_index) < 2:
            return 0.0
        mean = float(self.cx_error.mean())
        if mean == 0:
            return 0.0
        return float(self.cx_error.std()) / mean

    def best_qubits(self, count: int) -> List[int]:
        """Indices of the ``count`` qubits with the lowest combined error."""
        scores = self.single_qubit_error + self.readout_error
        return np.argsort(scores, kind="stable")[:count].tolist()


class DriftModel:
    """Continuous degradation of calibration between recalibrations.

    Error rates inflate multiplicatively with the hours elapsed since the
    epoch's calibration; coherence times shrink correspondingly.  The default
    rates produce the "up to ~2x day-to-day variation" the paper reports when
    combined with fresh-calibration randomness.
    """

    def __init__(self, error_growth_per_hour: float = 0.012,
                 coherence_decay_per_hour: float = 0.006):
        if error_growth_per_hour < 0 or coherence_decay_per_hour < 0:
            raise DeviceError("drift rates must be non-negative")
        self.error_growth_per_hour = error_growth_per_hour
        self.coherence_decay_per_hour = coherence_decay_per_hour

    def apply(self, snapshot: CalibrationSnapshot,
              at_time: float) -> CalibrationSnapshot:
        """Return a drifted copy of ``snapshot`` as of ``at_time``.

        CX errors are clipped at 0.75 and the other error rates at 0.5.
        """
        elapsed_hours = max(0.0, (at_time - snapshot.timestamp) / HOUR_SECONDS)
        if elapsed_hours == 0:
            return snapshot
        error_factor = 1.0 + self.error_growth_per_hour * elapsed_hours
        coherence_factor = 1.0 / (1.0 + self.coherence_decay_per_hour * elapsed_hours)
        return CalibrationSnapshot(
            machine=snapshot.machine,
            epoch=snapshot.epoch,
            timestamp=snapshot.timestamp,
            t1_us=snapshot.t1_us * coherence_factor,
            t2_us=snapshot.t2_us * coherence_factor,
            readout_error=np.minimum(0.5, snapshot.readout_error * error_factor),
            single_qubit_error=np.minimum(
                0.5, snapshot.single_qubit_error * error_factor),
            frequency_ghz=snapshot.frequency_ghz,
            edge_index=snapshot.edge_index,
            cx_error=np.minimum(0.75, snapshot.cx_error * error_factor),
            cx_duration_ns=snapshot.cx_duration_ns,
        )


@dataclass
class CalibrationProfile:
    """Machine-level average error characteristics around which qubits vary."""

    median_cx_error: float = 1.2e-2
    median_sx_error: float = 3.5e-4
    median_readout_error: float = 2.5e-2
    median_t1_us: float = 90.0
    median_t2_us: float = 75.0
    cx_duration_ns: float = 380.0
    #: spatial coefficient of variation targets (paper Section IV-B)
    cx_error_cov: float = 0.75
    coherence_cov: float = 0.35
    readout_cov: float = 0.45
    #: day-to-day multiplicative jitter on the machine-wide averages
    daily_jitter_sigma: float = 0.28


class CalibrationModel:
    """Generates daily calibration snapshots for one machine.

    Machines are calibrated once per day (the paper estimates 12am-2am);
    epoch ``k`` covers ``[start + k*period, start + (k+1)*period)``.  Within
    an epoch the returned snapshot can optionally be drifted to the query
    time via the :class:`DriftModel`.
    """

    def __init__(
        self,
        machine: str,
        coupling_map: CouplingMap,
        profile: Optional[CalibrationProfile] = None,
        seed: int = 0,
        calibration_period: float = DAY_SECONDS,
        calibration_hour: float = 1.0,
        drift: Optional[DriftModel] = None,
    ):
        self.machine = machine
        self.coupling_map = coupling_map
        self.profile = profile or CalibrationProfile()
        self.calibration_period = float(calibration_period)
        if self.calibration_period <= 0:
            raise DeviceError("calibration period must be positive")
        self.calibration_offset = float(calibration_hour) * HOUR_SECONDS
        self.drift = drift or DriftModel()
        self._rng_root = RandomSource(seed, name=f"calibration/{machine}")
        self._edge_index = {edge: i
                            for i, edge in enumerate(coupling_map.edges)}
        self._snapshot_cache: Dict[int, CalibrationSnapshot] = {}

    # -- epoch arithmetic ----------------------------------------------------------

    def epoch_for_time(self, timestamp: float) -> int:
        """Index of the calibration epoch containing ``timestamp``."""
        return int(math.floor((timestamp - self.calibration_offset)
                              / self.calibration_period))

    def epoch_start(self, epoch: int) -> float:
        """Timestamp at which calibration epoch ``epoch`` begins."""
        return epoch * self.calibration_period + self.calibration_offset

    def crosses_calibration(self, submit_time: float, run_time: float) -> bool:
        """Whether a job compiled at ``submit_time`` runs in a later epoch.

        This is the Fig. 12a "calibration crossover" condition.
        """
        return self.epoch_for_time(run_time) > self.epoch_for_time(submit_time)

    # -- snapshot generation -------------------------------------------------------

    def snapshot_for_epoch(self, epoch: int) -> CalibrationSnapshot:
        """The freshly calibrated snapshot at the start of ``epoch``.

        All of an epoch's values come from its one keyed stream,
        ``child("epoch", epoch)``, drawn in this fixed order:

        1. three scalar lognormals: the daily CX/single-qubit error factor,
           the daily readout factor and the daily coherence factor;
        2. a ``(4, num_qubits)`` block of standard normals, whose rows are
           T1, T2, readout error and single-qubit error;
        3. a ``(num_qubits,)`` block of uniforms for the qubit frequencies;
        4. a ``(2, num_edges)`` block of standard normals, whose rows are
           CX error and CX duration, with edges in sorted order.

        The block sizes depend only on the coupling map, never on profile
        values (a zero CoV still consumes its normals), so the layout of
        the stream is fixed per machine.  Each field is ``median *
        exp(sigma * z)`` with ``sigma`` set by the field's CoV, computed by
        the generator's lognormal (libm ``exp``, not numpy's SIMD ``exp``,
        whose last bit varies with the CPU); T2 is capped at ``2 * T1``,
        readout error at 0.4, single-qubit error at 0.1 and CX error at
        0.6.
        """
        cached = self._snapshot_cache.get(epoch)
        if cached is not None:
            return cached
        rng = self._rng_root.child("epoch", epoch)
        profile = self.profile
        daily_factor = rng.lognormal(0.0, profile.daily_jitter_sigma)
        readout_factor = rng.lognormal(0.0, profile.daily_jitter_sigma * 0.6)
        coherence_factor = rng.lognormal(0.0, profile.daily_jitter_sigma * 0.4)
        # Each lognormal block draws one standard normal z per element, in
        # C order, and returns exp(sigma * z) with its row's sigma.
        generator = rng.generator
        coherence_sigma = _lognormal_sigma(profile.coherence_cov)
        qubit_factors = generator.lognormal(0.0, [
            [coherence_sigma], [coherence_sigma],
            [_lognormal_sigma(profile.readout_cov)],
            [_lognormal_sigma(profile.cx_error_cov * 0.6)],
        ], size=(4, self.coupling_map.num_qubits))
        qubit_uniforms = generator.random(self.coupling_map.num_qubits)
        edge_factors = generator.lognormal(0.0, [
            [_lognormal_sigma(profile.cx_error_cov)], [_lognormal_sigma(0.15)],
        ], size=(2, len(self._edge_index)))

        t1 = profile.median_t1_us * coherence_factor * qubit_factors[0]
        t2 = np.minimum(
            2.0 * t1,
            profile.median_t2_us * coherence_factor * qubit_factors[1])
        readout = np.minimum(
            0.4, profile.median_readout_error * readout_factor * qubit_factors[2])
        sq_error = np.minimum(
            0.1, profile.median_sx_error * daily_factor * qubit_factors[3])
        cx_error = np.minimum(
            0.6, profile.median_cx_error * daily_factor * edge_factors[0])
        cx_duration = profile.cx_duration_ns * edge_factors[1]

        snapshot = CalibrationSnapshot(
            machine=self.machine,
            epoch=epoch,
            timestamp=self.epoch_start(epoch),
            t1_us=t1,
            t2_us=t2,
            readout_error=readout,
            single_qubit_error=sq_error,
            frequency_ghz=4.8 + 0.4 * qubit_uniforms,
            edge_index=self._edge_index,
            cx_error=cx_error,
            cx_duration_ns=cx_duration,
        )
        self._snapshot_cache[epoch] = snapshot
        return snapshot

    def snapshot_at(self, timestamp: float,
                    apply_drift: bool = True) -> CalibrationSnapshot:
        """The calibration state effective at ``timestamp``."""
        snapshot = self.snapshot_for_epoch(self.epoch_for_time(timestamp))
        if apply_drift:
            return self.drift.apply(snapshot, timestamp)
        return snapshot


def _lognormal_sigma(cov: float) -> float:
    """The log-space sigma of a lognormal with coefficient of variation ``cov``."""
    return math.sqrt(math.log(1.0 + cov * cov)) if cov > 0 else 0.0
