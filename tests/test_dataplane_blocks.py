"""Trace construction surface, streaming fetch and Arrow export.

The construction tests pin the sanctioned ways to build a
:class:`TraceDataset` and the result-handle surfaces of ``run_study`` and
``run_scenarios``; the fetch test checks that a trace download streams in
bounded chunks; the export tests cover the optional pyarrow path.
"""

import io
import warnings

import pytest

from repro.core.exceptions import WorkloadError
from repro.runner.cache import config_fingerprint
from repro.runner.executor import run_study
from repro.scenarios import resolve_scenarios, run_scenarios
from repro.service.client import StudyServiceClient
from repro.workloads.generator import TraceGeneratorConfig
from repro.workloads.trace import TraceDataset

CONFIG = dict(total_jobs=120, months=2, seed=19)


@pytest.fixture(scope="module")
def plain_trace():
    return run_study(config=TraceGeneratorConfig(**CONFIG), workers=1,
                     use_cache=False).trace


def _records(trace):
    return [record.as_dict() for record in trace.records]


# -- the construction API redesign -----------------------------------------------------


class TestConstructionSurface:
    def test_positional_records_are_rejected(self, plain_trace):
        records = list(plain_trace.records)
        with pytest.raises(TypeError):
            TraceDataset(records)
        with pytest.raises(TypeError):
            TraceDataset(records=records)
        assert len(TraceDataset()) == 0

    def test_from_records_does_not_warn(self, plain_trace):
        records = list(plain_trace.records)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            built = TraceDataset.from_records(records)
        assert _records(built) == _records(plain_trace)

    def test_study_result_handle_surface(self, tmp_path):
        result = run_study(config=TraceGeneratorConfig(**CONFIG), workers=1,
                           cache_dir=tmp_path)
        assert result.dataset is result.trace
        assert result.fingerprint == result.cache_key
        assert result.fingerprint \
            == config_fingerprint(TraceGeneratorConfig(**CONFIG))
        assert result.metadata["fingerprint"] == result.fingerprint
        assert result.summary()["fingerprint"] == result.fingerprint

    def test_suite_result_handle_surface(self, tmp_path):
        scenarios = resolve_scenarios(("baseline",))
        suite = run_scenarios(scenarios, TraceGeneratorConfig(**CONFIG),
                              workers=1, cache_dir=tmp_path)
        assert sorted(suite.results) == suite.names()
        run = suite.runs[0]
        assert suite.result_for(run.name) is run.result
        assert suite.fingerprints()[run.name] == run.fingerprint
        assert run.dataset is run.result.trace


# -- streaming fetch -------------------------------------------------------------------


class _FakeResponse(io.BytesIO):
    """A context-managed chunked body, recording the read sizes."""

    def __init__(self, payload):
        super().__init__(payload)
        self.read_sizes = []

    def read(self, size=-1):
        self.read_sizes.append(size)
        return super().read(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class TestStreamingFetch:
    def test_fetch_trace_to_streams_chunks(self, tmp_path, monkeypatch):
        payload = bytes(range(256)) * 1024  # 256 KiB body
        response = _FakeResponse(payload)
        client = StudyServiceClient("http://example.invalid")
        monkeypatch.setattr(client, "_request",
                            lambda *args, **kwargs: response)
        out = tmp_path / "trace.npz"
        written = client.fetch_trace_to("f" * 24, out, chunk_size=4096)
        assert written == len(payload)
        assert out.read_bytes() == payload
        # Never asked for more than one chunk at a time.
        assert set(response.read_sizes) == {4096}


# -- Arrow / Parquet export ------------------------------------------------------------


class TestArrowExport:
    def test_missing_pyarrow_raises_actionable_error(self, plain_trace,
                                                     tmp_path):
        try:
            import pyarrow  # noqa: F401
            pytest.skip("pyarrow installed; the missing-dependency path "
                        "is exercised elsewhere")
        except ImportError:
            pass
        with pytest.raises(WorkloadError, match="pyarrow"):
            plain_trace.to_parquet(tmp_path / "trace.parquet")

    def test_round_trip_through_arrow(self, plain_trace, tmp_path):
        pa = pytest.importorskip("pyarrow")
        table = plain_trace.to_arrow()
        assert table.num_rows == len(plain_trace)
        machine = table.column("machine").to_pylist()
        assert machine == plain_trace.values("machine").tolist()
        parquet = pytest.importorskip("pyarrow.parquet")
        path = tmp_path / "trace.parquet"
        plain_trace.to_parquet(path)
        back = parquet.read_table(path)
        assert back.num_rows == len(plain_trace)
