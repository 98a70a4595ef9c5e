"""Tests for repro.prediction (features, runtime model, queue model)."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.exceptions import PredictionError
from repro.prediction.features import (
    CUMULATIVE_FEATURE_SETS,
    FEATURE_NAMES,
    feature_matrix,
    feature_vector,
)
from repro.prediction.queue_model import QueueTimePredictor
from repro.prediction.runtime_model import (
    MachinePredictionResult,
    ProductLinearModel,
    RuntimePredictionStudy,
    train_test_split,
)
from repro.workloads.trace import TraceDataset


def test_import_repro_leaves_scipy_unloaded():
    """scipy is imported by the runtime-model fit only, not by ``import
    repro``, so a study never pays for it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, %r); import repro; "
            "print('scipy' in sys.modules)" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_repro_runs_without_networkx():
    """The coupling-map algorithms are the package's own: with NetworkX
    unimportable, the fleet, the Fig. 6 table and a level-3 transpile
    (routing on the coupling map) all still work."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "\n".join([
        "import sys",
        "sys.modules['networkx'] = None",
        "sys.path.insert(0, %r)" % src,
        "import repro",
        "from repro.analysis.machines import bisection_bandwidth_table",
        "from repro.circuits import qft_circuit",
        "fleet = repro.fleet_in_study(seed=3)",
        "rows = bisection_bandwidth_table(fleet)",
        "result = repro.transpile(qft_circuit(5), fleet['ibmq_toronto'],",
        "                         optimization_level=3)",
        "print(len(rows), result.circuit.cx_count > 0)",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["27", "True"]


class TestFeatures:
    def test_feature_names_match_paper(self):
        assert FEATURE_NAMES == ("batch_size", "shots", "depth", "width",
                                 "gate_ops", "memory_slots", "machine_qubits")

    def test_cumulative_sets_grow_by_one(self):
        lengths = [len(s) for s in CUMULATIVE_FEATURE_SETS]
        assert lengths == list(range(1, len(FEATURE_NAMES) + 1))

    def test_feature_vector_values(self, medium_trace):
        record = medium_trace[0]
        vector = feature_vector(record)
        assert vector["batch_size"] == record.batch_size
        assert vector["machine_qubits"] == record.machine_qubits

    def test_feature_matrix_excludes_unfinished_jobs(self, medium_trace):
        x, y = feature_matrix(medium_trace)
        completed = medium_trace.completed()
        assert x.shape == (len(completed), len(FEATURE_NAMES))
        assert np.all(y > 0)

    def test_unknown_feature_rejected(self, medium_trace):
        with pytest.raises(PredictionError):
            feature_matrix(medium_trace, ["batch_size", "magic"])


class TestTrainTestSplit:
    def test_split_sizes(self, medium_trace):
        train, test = train_test_split(medium_trace.completed(), 0.7, seed=1)
        total = len(medium_trace.completed())
        assert len(train) + len(test) == total
        assert abs(len(train) - 0.7 * total) <= 2

    def test_split_disjoint(self, medium_trace):
        train, test = train_test_split(medium_trace.completed(), 0.7, seed=1)
        train_ids = {r.job_id for r in train}
        test_ids = {r.job_id for r in test}
        assert not train_ids & test_ids

    def test_invalid_fraction(self, medium_trace):
        with pytest.raises(PredictionError):
            train_test_split(medium_trace, 1.2)

    def test_too_small_trace(self):
        with pytest.raises(PredictionError):
            train_test_split(TraceDataset(), 0.7)


class TestProductLinearModel:
    def test_recovers_synthetic_product_relationship(self):
        rng = np.random.default_rng(1)
        batch = rng.uniform(1, 900, size=300)
        shots = rng.uniform(100, 8192, size=300)
        x = np.column_stack([batch, shots])
        y = (0.5 + 0.02 * batch) * (1.0 + 0.0002 * shots)
        model = ProductLinearModel(["batch_size", "shots"]).fit(x, y)
        predicted = model.predict(x)
        correlation = np.corrcoef(predicted, y)[0, 1]
        assert correlation > 0.99

    def test_predict_before_fit_rejected(self):
        model = ProductLinearModel(["batch_size"])
        with pytest.raises(PredictionError):
            model.predict(np.array([[1.0]]))

    def test_wrong_feature_count_rejected(self):
        model = ProductLinearModel(["batch_size", "shots"])
        with pytest.raises(PredictionError):
            model.fit(np.ones((50, 3)), np.ones(50))

    def test_insufficient_samples_rejected(self):
        model = ProductLinearModel(list(FEATURE_NAMES))
        with pytest.raises(PredictionError):
            model.fit(np.ones((3, len(FEATURE_NAMES))), np.ones(3))

    def test_predictions_non_negative(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 10, size=(100, 1))
        y = 2.0 + 0.5 * x[:, 0]
        model = ProductLinearModel(["batch_size"]).fit(x, y)
        assert np.all(model.predict(x) >= 0)

    def test_unknown_feature_rejected(self):
        with pytest.raises(PredictionError):
            ProductLinearModel(["nope"])


class TestRuntimePredictionStudy:
    def test_correlations_high_for_most_machines(self, medium_trace):
        """Fig. 15: correlation >= 0.95 on all but a couple of machines."""
        study = RuntimePredictionStudy(min_jobs_per_machine=40)
        results = study.run(medium_trace)
        assert len(results) >= 3
        correlations = [r.full_model_correlation for r in results.values()]
        assert np.median(correlations) > 0.9
        high = sum(1 for c in correlations if c >= 0.9)
        assert high >= len(correlations) - 2

    def test_batch_is_the_dominant_feature(self, medium_trace):
        """Fig. 15: the batch-only model already correlates strongly."""
        study = RuntimePredictionStudy(min_jobs_per_machine=40)
        results = study.run(medium_trace)
        batch_only = [r.correlations.get("Batch", 0.0) for r in results.values()]
        assert np.median(batch_only) > 0.8

    def test_result_contains_fig16_series(self, medium_trace):
        study = RuntimePredictionStudy(min_jobs_per_machine=40)
        results = study.run(medium_trace)
        result = max(results.values(), key=lambda r: r.num_jobs)
        assert len(result.test_actual_minutes) == len(result.test_predicted_minutes)
        assert len(result.test_actual_minutes) > 0

    def test_too_small_trace_rejected(self, small_trace):
        study = RuntimePredictionStudy(min_jobs_per_machine=10 ** 6)
        with pytest.raises(PredictionError):
            study.run(small_trace)

    def test_machine_prediction_result_defaults(self):
        result = MachinePredictionResult(machine="m", num_jobs=0)
        assert result.best_correlation == 0.0
        assert result.full_model_correlation == 0.0


class TestQueueTimePredictor:
    def test_fit_and_predict(self, medium_trace):
        predictor = QueueTimePredictor(confidence=0.8).fit(medium_trace)
        machine = medium_trace.machines()[0]
        prediction = predictor.predict(machine, pending_ahead=10)
        assert prediction.lower_minutes <= prediction.expected_minutes
        assert prediction.expected_minutes <= prediction.upper_minutes
        assert prediction.based_on_jobs > 0

    def test_coverage_close_to_confidence(self, medium_trace):
        predictor = QueueTimePredictor(confidence=0.8).fit(medium_trace)
        coverage = predictor.coverage(medium_trace)
        assert coverage > 0.5

    def test_unknown_machine_rejected(self, medium_trace):
        predictor = QueueTimePredictor().fit(medium_trace)
        with pytest.raises(PredictionError):
            predictor.predict("ibmq_atlantis")

    def test_invalid_confidence(self):
        with pytest.raises(PredictionError):
            QueueTimePredictor(confidence=1.5)

    def test_empty_trace_rejected(self):
        with pytest.raises(PredictionError):
            QueueTimePredictor().fit(TraceDataset())
