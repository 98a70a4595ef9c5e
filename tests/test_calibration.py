"""Tests for repro.devices.calibration."""

import pytest

from repro.core.exceptions import DeviceError
from repro.core.units import DAY_SECONDS, HOUR_SECONDS
from repro.devices.calibration import (
    CalibrationModel,
    CalibrationProfile,
    DriftModel,
    GateCalibration,
    QubitCalibration,
)
from repro.devices.topology import falcon_topology, line_topology


@pytest.fixture
def model():
    return CalibrationModel(
        machine="testq", coupling_map=falcon_topology(7), seed=5
    )


class TestDataClasses:
    def test_qubit_calibration_validation(self):
        with pytest.raises(DeviceError):
            QubitCalibration(t1_us=-1, t2_us=50, readout_error=0.01,
                             single_qubit_error=0.001)
        with pytest.raises(DeviceError):
            QubitCalibration(t1_us=50, t2_us=50, readout_error=1.5,
                             single_qubit_error=0.001)

    def test_gate_calibration_validation(self):
        with pytest.raises(DeviceError):
            GateCalibration(error=1.2, duration_ns=300)
        with pytest.raises(DeviceError):
            GateCalibration(error=0.01, duration_ns=0)


class TestCalibrationModel:
    def test_snapshot_is_deterministic_per_epoch(self, model):
        a = model.snapshot_for_epoch(3)
        b = model.snapshot_for_epoch(3)
        assert a.qubits[0].t1_us == b.qubits[0].t1_us
        assert a.average_cx_error() == b.average_cx_error()

    def test_snapshots_differ_across_epochs(self, model):
        a = model.snapshot_for_epoch(0)
        b = model.snapshot_for_epoch(1)
        assert a.average_cx_error() != pytest.approx(b.average_cx_error())

    def test_snapshot_covers_every_qubit_and_edge(self, model):
        snapshot = model.snapshot_for_epoch(0)
        assert snapshot.num_qubits == 7
        for a, b in model.coupling_map.edges:
            assert snapshot.has_gate(a, b)
            assert snapshot.has_gate(b, a)  # undirected lookup

    def test_missing_gate_raises(self, model):
        snapshot = model.snapshot_for_epoch(0)
        with pytest.raises(DeviceError):
            snapshot.gate(0, 6)  # not an edge of the 7q falcon

    def test_spatial_variation_matches_paper_range(self):
        """Section IV-B: CX error CoV around 75 %, coherence CoV 30-40 %."""
        model = CalibrationModel("big", falcon_topology(27), seed=1)
        snapshot = model.snapshot_for_epoch(0)
        assert 0.3 <= snapshot.cx_error_cov() <= 1.3

    def test_epoch_arithmetic(self, model):
        start = model.epoch_start(2)
        assert model.epoch_for_time(start + 10) == 2
        assert model.epoch_for_time(start - 10) == 1

    def test_crossover_detection(self, model):
        compile_time = model.epoch_start(1) + 2 * HOUR_SECONDS
        same_epoch_run = compile_time + HOUR_SECONDS
        next_epoch_run = compile_time + DAY_SECONDS
        assert not model.crosses_calibration(compile_time, same_epoch_run)
        assert model.crosses_calibration(compile_time, next_epoch_run)

    def test_day_to_day_variation_is_substantial(self):
        """The paper reports >2x day-to-day variation in error averages."""
        model = CalibrationModel("var", line_topology(5), seed=9)
        averages = [model.snapshot_for_epoch(e).average_cx_error()
                    for e in range(30)]
        assert max(averages) / min(averages) > 1.5

    def test_best_qubits_sorted_by_quality(self, model):
        snapshot = model.snapshot_for_epoch(0)
        best = snapshot.best_qubits(3)
        assert len(best) == 3
        scores = [
            snapshot.qubit(q).single_qubit_error + snapshot.qubit(q).readout_error
            for q in range(snapshot.num_qubits)
        ]
        assert scores[best[0]] == min(scores)

    def test_invalid_period_rejected(self):
        with pytest.raises(DeviceError):
            CalibrationModel("bad", line_topology(2), calibration_period=0)


class TestDriftModel:
    def test_errors_grow_with_time(self, model):
        fresh = model.snapshot_for_epoch(0)
        drift = DriftModel(error_growth_per_hour=0.05)
        later = drift.apply(fresh, fresh.timestamp + 10 * HOUR_SECONDS)
        assert later.average_cx_error() > fresh.average_cx_error()
        assert later.average_t1_us() < fresh.average_t1_us()

    def test_no_drift_at_calibration_instant(self, model):
        fresh = model.snapshot_for_epoch(0)
        same = DriftModel().apply(fresh, fresh.timestamp)
        assert same.average_cx_error() == pytest.approx(fresh.average_cx_error())

    def test_errors_bounded(self, model):
        fresh = model.snapshot_for_epoch(0)
        drift = DriftModel(error_growth_per_hour=10.0)
        later = drift.apply(fresh, fresh.timestamp + 100 * HOUR_SECONDS)
        assert all(g.error <= 0.75 for g in later.gates.values())
        assert all(q.readout_error <= 0.5 for q in later.qubits)

    def test_negative_rate_rejected(self):
        with pytest.raises(DeviceError):
            DriftModel(error_growth_per_hour=-0.1)

    def test_snapshot_at_applies_drift(self, model):
        epoch_start = model.epoch_start(0)
        fresh = model.snapshot_at(epoch_start, apply_drift=True)
        stale = model.snapshot_at(epoch_start + 20 * HOUR_SECONDS, apply_drift=True)
        assert stale.average_cx_error() >= fresh.average_cx_error()


class TestArrayBackedSnapshot:
    """The columns against per-qubit / per-edge loops over the views."""

    def test_aggregates_match_view_loops(self, model):
        snapshot = model.snapshot_for_epoch(2)
        errors = [g.error for g in snapshot.gates.values()]
        mean = sum(errors) / len(errors)
        cov = (sum((e - mean) ** 2 for e in errors) / len(errors)) ** 0.5 / mean
        assert snapshot.average_cx_error() == pytest.approx(mean, rel=1e-12)
        assert snapshot.cx_error_cov() == pytest.approx(cov, rel=1e-12)
        assert snapshot.average_cx_duration_ns() == pytest.approx(
            sum(g.duration_ns for g in snapshot.gates.values()) / len(errors),
            rel=1e-12)
        qubits = snapshot.qubits
        assert snapshot.average_readout_error() == pytest.approx(
            sum(q.readout_error for q in qubits) / len(qubits), rel=1e-12)
        assert snapshot.average_t1_us() == pytest.approx(
            sum(q.t1_us for q in qubits) / len(qubits), rel=1e-12)
        assert snapshot.best_qubits(len(qubits)) == sorted(
            range(len(qubits)),
            key=lambda q: qubits[q].single_qubit_error + qubits[q].readout_error)

    def test_views_match_lookups(self, model):
        snapshot = model.snapshot_for_epoch(1)
        assert list(snapshot.gates) == model.coupling_map.edges
        for (a, b), gate in snapshot.gates.items():
            assert snapshot.gate(b, a) == gate
        for index, qubit in enumerate(snapshot.qubits):
            assert snapshot.qubit(index) == qubit
        with pytest.raises(DeviceError):
            snapshot.qubit(snapshot.num_qubits)

    def test_drift_matches_scalar_formula(self, model):
        fresh = model.snapshot_for_epoch(0)
        drift = DriftModel(error_growth_per_hour=0.3)
        hours = 7.5
        later = drift.apply(fresh, fresh.timestamp + hours * HOUR_SECONDS)
        error_factor = 1.0 + 0.3 * hours
        coherence_factor = 1.0 / (1.0 + drift.coherence_decay_per_hour * hours)
        for old, new in zip(fresh.qubits, later.qubits):
            assert new.t1_us == old.t1_us * coherence_factor
            assert new.readout_error == min(0.5, old.readout_error * error_factor)
            assert new.single_qubit_error == min(
                0.5, old.single_qubit_error * error_factor)
        for edge, gate in fresh.gates.items():
            assert later.gates[edge].error == min(0.75, gate.error * error_factor)
            assert later.gates[edge].duration_ns == gate.duration_ns

    def test_stream_layout_independent_of_profile_values(self):
        """A zero CoV still consumes its block of normals, so the other
        fields of the epoch draw the same values."""
        default = CalibrationModel("m", falcon_topology(7), seed=4)
        flat = CalibrationModel("m", falcon_topology(7), seed=4,
                                profile=CalibrationProfile(readout_cov=0.0))
        a = default.snapshot_for_epoch(6)
        b = flat.snapshot_for_epoch(6)
        assert len(set(b.readout_error.tolist())) == 1
        for column in ("t1_us", "t2_us", "single_qubit_error",
                       "frequency_ghz", "cx_error", "cx_duration_ns"):
            assert getattr(a, column).tolist() == getattr(b, column).tolist()
