"""Tests for the PR's data-plane satellites: lazy npz column loads,
actionable schema-mismatch errors in the trace cache, and the buffered
backlog draw streams."""

import numpy as np
import pytest

import repro.workloads.trace as trace_module
from repro.core.exceptions import TraceSchemaError
from repro.core.rng import BufferedDraws, RandomSource
from repro.runner import TraceCache, run_study
from repro.workloads.generator import TraceGeneratorConfig
from repro.workloads.trace import TRACE_SCHEMA_VERSION, TraceDataset

CONFIG = dict(total_jobs=50, months=3, seed=17)


@pytest.fixture(scope="module")
def study_trace():
    return run_study(config=TraceGeneratorConfig(**CONFIG), workers=1,
                     use_cache=False).trace


class TestLazyNpz:
    def test_lazy_load_defers_column_decompression(self, study_trace,
                                                   tmp_path):
        path = tmp_path / "trace.npz"
        study_trace.to_npz(path)
        lazy = TraceDataset.from_npz(path, lazy=True)
        assert lazy._columns.loaded() == ()
        # Row count comes from the header, not from a decompressed column.
        assert len(lazy) == len(study_trace)
        assert lazy._columns.loaded() == ()
        queue = lazy.values("queue_seconds")
        assert set(lazy._columns.loaded()) == {"queue_seconds"}
        np.testing.assert_array_equal(queue,
                                      study_trace.values("queue_seconds"))

    def test_lazy_and_eager_loads_are_value_identical(self, study_trace,
                                                      tmp_path):
        path = tmp_path / "trace.npz"
        study_trace.to_npz(path)
        lazy = TraceDataset.from_npz(path, lazy=True)
        assert lazy.metadata == study_trace.metadata
        assert lazy.records == study_trace.records
        assert lazy.status_counts() == study_trace.status_counts()

    def test_lazy_trace_resaves_byte_identically(self, study_trace, tmp_path):
        path = tmp_path / "trace.npz"
        study_trace.to_npz(path)
        resaved = tmp_path / "resaved.npz"
        TraceDataset.from_npz(path, lazy=True).to_npz(resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_lazy_group_by_and_where_force_loads(self, study_trace, tmp_path):
        path = tmp_path / "trace.npz"
        study_trace.to_npz(path)
        lazy = TraceDataset.from_npz(path, lazy=True)
        machines = lazy.group_by_machine()
        assert set(machines) == set(study_trace.machines())
        done = lazy.successful()
        assert len(done) == len(study_trace.successful())

    def test_load_dispatch_accepts_lazy(self, study_trace, tmp_path):
        path = tmp_path / "trace.npz"
        study_trace.save(path)
        lazy = TraceDataset.load(path, lazy=True)
        assert len(lazy) == len(study_trace)

    def test_unknown_lazy_column_rejected(self, study_trace, tmp_path):
        path = tmp_path / "trace.npz"
        study_trace.to_npz(path)
        lazy = TraceDataset.from_npz(path, lazy=True)
        with pytest.raises(KeyError):
            lazy._columns["no_such_column"]


class TestSchemaMismatch:
    def test_npz_layout_mismatch_names_versions_and_path(
            self, study_trace, tmp_path, monkeypatch):
        path = tmp_path / "trace.npz"
        monkeypatch.setattr(trace_module, "NPZ_SCHEMA_VERSION", 999)
        study_trace.to_npz(path)
        monkeypatch.undo()
        with pytest.raises(TraceSchemaError) as excinfo:
            TraceDataset.from_npz(path)
        message = str(excinfo.value)
        assert "999" in message
        assert str(trace_module.NPZ_SCHEMA_VERSION) in message
        assert str(path) in message
        # Backward compatible: still a ValueError for legacy callers.
        assert isinstance(excinfo.value, ValueError)

    def test_cache_surfaces_trace_schema_mismatch(self, tmp_path):
        config = TraceGeneratorConfig(**CONFIG)
        cache = TraceCache(tmp_path / "cache")
        result = run_study(config=config, workers=1, cache_dir=cache)
        # Tamper with the stored entry: pretend an older generator wrote it.
        stale = TraceDataset.from_npz(result.cache_path)
        stale.metadata["trace_schema"] = TRACE_SCHEMA_VERSION - 1
        stale.to_npz(result.cache_path)
        with pytest.raises(TraceSchemaError) as excinfo:
            cache.get(result.cache_key)
        message = str(excinfo.value)
        assert str(TRACE_SCHEMA_VERSION) in message
        assert str(result.cache_path) in message

    def test_cache_surfaces_npz_layout_mismatch(self, tmp_path, monkeypatch):
        config = TraceGeneratorConfig(**CONFIG)
        cache = TraceCache(tmp_path / "cache")
        result = run_study(config=config, workers=1, cache_dir=cache)
        entry = TraceDataset.from_npz(result.cache_path)
        monkeypatch.setattr(trace_module, "NPZ_SCHEMA_VERSION", 999)
        entry.to_npz(result.cache_path)
        monkeypatch.undo()
        with pytest.raises(TraceSchemaError) as excinfo:
            cache.get(result.cache_key)
        assert str(result.cache_path) in str(excinfo.value)

    def test_corrupt_entry_is_still_a_miss(self, tmp_path):
        config = TraceGeneratorConfig(**CONFIG)
        cache = TraceCache(tmp_path / "cache")
        result = run_study(config=config, workers=1, cache_dir=cache)
        result.cache_path.write_bytes(b"not a zip at all")
        assert cache.get(result.cache_key) is None

    def test_truncated_entry_counts_as_corrupt_and_plain_miss_does_not(
            self, tmp_path):
        from repro.telemetry import get_registry

        def corrupt_total():
            return get_registry().value("repro_cache_corrupt_total")

        config = TraceGeneratorConfig(**CONFIG)
        cache = TraceCache(tmp_path / "cache")
        result = run_study(config=config, workers=1, cache_dir=cache)
        before = corrupt_total()
        assert cache.get("0" * len(result.cache_key)) is None
        assert corrupt_total() == before
        data = result.cache_path.read_bytes()
        result.cache_path.write_bytes(data[:len(data) // 2])
        assert cache.get(result.cache_key) is None
        assert corrupt_total() == before + 1


class TestBufferedDraws:
    def test_normals_match_the_block_stream(self):
        draws = BufferedDraws(RandomSource(5, name="machine"), block_size=8)
        reference = RandomSource(5, name="machine").child(
            "normal").generator.standard_normal(20)
        values = [draws.normal(0.0, 2.5) for _ in range(20)]
        np.testing.assert_allclose(values, 2.5 * reference)

    def test_uniforms_match_the_block_stream(self):
        draws = BufferedDraws(RandomSource(5, name="machine"), block_size=8)
        reference = RandomSource(5, name="machine").child(
            "uniform").generator.random(20)
        values = [draws.uniform(1.0, 3.0) for _ in range(20)]
        np.testing.assert_allclose(values, 1.0 + 2.0 * reference)
        assert draws.random() == pytest.approx(
            RandomSource(5, name="machine").child(
                "uniform").generator.random(21)[-1])

    def test_interleaved_draws_are_reproducible(self):
        first = BufferedDraws(RandomSource(9), block_size=4)
        second = BufferedDraws(RandomSource(9), block_size=4)
        pattern = [first.normal(), first.random(), first.normal(),
                   first.uniform(0, 10), first.random()]
        replay = [second.normal(), second.random(), second.normal(),
                  second.uniform(0, 10), second.random()]
        assert pattern == replay

    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            BufferedDraws(RandomSource(1), block_size=0)
