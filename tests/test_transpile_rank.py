"""Tests for the equivalence-class transpile cache and rank-mode studies.

The load-bearing properties:

* structural/class fingerprints are pure — stable across processes and
  hash seeds (no ``id()`` or dict-order leakage into the bytes);
* the :class:`~repro.transpiler.cache.TranspileCache` round-trips
  summaries exactly (float-exact JSON), treats corruption as a miss, and
  prunes LRU-first;
* rank-mode studies are byte-identical for any worker / shard /
  transpile-shard count, with the cache cold, warm, or disabled — the
  cache and the pool only change *where* a transpile runs, never what
  the ranking sees.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.circuits.library import ghz_circuit
from repro.core.exceptions import ReproError, ScenarioError
from repro.devices import build_backend
from repro.runner.executor import run_study
from repro.runner.sharding import plan_transpile_shards
from repro.scenarios import PolicySwap, Scenario
from repro.scheduling.policies import (
    MachineSelector,
    SelectionObjective,
    rank_candidates,
    rank_summaries,
)
from repro.transpiler.cache import (
    DEFAULT_RANK_SEED,
    TranspileCache,
    backend_fingerprint,
    summarise_transpile,
    transpile_cache_key,
)
from repro.workloads.circuit_metrics import (
    class_fingerprint,
    representative_circuit,
    structural_fingerprint,
)
from repro.workloads.generator import ScenarioKnobs, TraceGeneratorConfig
from repro.workloads.transpile_classes import (
    ClassRankTable,
    compute_class_summary,
)

_FP_SNIPPET = """\
import sys
sys.path.insert(0, {src!r})
from repro.workloads.circuit_metrics import class_fingerprint
from repro.transpiler.cache import backend_fingerprint
from repro.devices import build_backend
print(class_fingerprint("qft", 5))
print(class_fingerprint("random", 9))
print(backend_fingerprint(build_backend("ibmq_athens", seed=3)))
"""


def _rank_config(jobs=60, months=3, objective="balanced"):
    return TraceGeneratorConfig(
        total_jobs=jobs, months=months, seed=7,
        scenario=ScenarioKnobs(ranking_objective=objective))


def _trace_bytes(result):
    columns = sorted(result.trace.column_names) \
        if hasattr(result.trace, "column_names") else None
    if columns is None:
        columns = ["job_id", "machine", "user_policy", "submit_time",
                   "start_time", "end_time", "status"]
    return [(name, list(result.trace.column(name))) for name in columns]


class TestFingerprints:
    def test_structural_fingerprint_abstracts_parameters(self):
        # Two widths of the same family differ; the same build is stable.
        assert class_fingerprint("qft", 4) != class_fingerprint("qft", 5)
        assert class_fingerprint("qft", 4) == class_fingerprint("qft", 4)

    def test_fingerprints_stable_across_processes(self):
        """No id()/hash-seed/dict-order leakage into the fingerprints."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        snippet = _FP_SNIPPET.format(src=src)
        runs = [
            subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, check=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            ).stdout.splitlines()
            for seed in ("0", "4242")
        ]
        assert runs[0] == runs[1]
        local = [class_fingerprint("qft", 5), class_fingerprint("random", 9)]
        assert runs[0][:2] == local

    def test_structural_fingerprint_matches_metrics_stream(self):
        circuit = representative_circuit("qft", 5)
        assert structural_fingerprint(circuit) == class_fingerprint("qft", 5)


class TestTranspileCache:
    def test_round_trip_is_exact(self, tmp_path):
        backend = build_backend("ibmq_athens", seed=3)
        summary = compute_class_summary("qft", 4, backend, level=3)
        cache = TranspileCache(tmp_path)
        key = transpile_cache_key(summary.class_fingerprint,
                                  summary.backend_fingerprint,
                                  summary.level, summary.seed)
        cache.put(key, summary)
        restored = cache.get(key)
        # Frozen dataclass equality covers every float bit-for-bit: JSON
        # round-trips repr-exact floats.
        assert restored == summary
        assert cache.stats()["hits"] == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TranspileCache(tmp_path)
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path_for("deadbeef").write_text("{not json")
        assert cache.get("deadbeef") is None
        assert cache.stats()["misses"] == 1

    def test_prune_is_lru(self, tmp_path):
        import os

        backend = build_backend("ibmq_athens", seed=3)
        cache = TranspileCache(tmp_path)
        keys = []
        for width in (2, 3, 4):
            summary = compute_class_summary("ghz", width, backend, level=1)
            key = transpile_cache_key(summary.class_fingerprint,
                                      summary.backend_fingerprint, 1,
                                      summary.seed)
            cache.put(key, summary)
            keys.append(key)
        # Pin distinct mtimes (puts land within one filesystem tick),
        # making the first entry the most recently used.
        for age, key in enumerate(keys):
            os.utime(cache.path_for(key), (1000.0 - age, 1000.0 - age))
        evicted = cache.prune(cache.entries()[-1].size_bytes * 2)
        assert evicted
        survivors = {entry.key for entry in cache.entries()}
        assert keys[0] in survivors

    def test_cache_key_separates_levels(self):
        assert transpile_cache_key("a" * 24, "b" * 24, 2) \
            != transpile_cache_key("a" * 24, "b" * 24, 3)

    def test_cache_key_follows_trace_schema(self, monkeypatch):
        """The schema version fixes how calibration values are drawn, so
        summaries cached under another version are never served."""
        import repro.workloads.trace as trace_module

        backend = build_backend("ibmq_athens", seed=3)
        before = transpile_cache_key("a" * 24, backend_fingerprint(backend), 3)
        monkeypatch.setattr(trace_module, "TRACE_SCHEMA_VERSION",
                            trace_module.TRACE_SCHEMA_VERSION + 1)
        after = transpile_cache_key("a" * 24, backend_fingerprint(backend), 3)
        assert after != before


class TestRanking:
    def test_rank_candidates_orders_by_score_then_name(self):
        choices = rank_candidates([
            ("m_b", 0.9, 10, 5),
            ("m_a", 0.9, 12, 6),
            ("m_c", 0.1, 3, 2),
        ])
        assert [c.machine for c in choices] == ["m_a", "m_b", "m_c"]

    def test_rank_candidates_rejects_empty(self):
        with pytest.raises(ReproError):
            rank_candidates([])

    def test_cached_selector_matches_live_selector(self, tmp_path):
        backends = [build_backend(name, seed=2)
                    for name in ("ibmq_athens", "ibmq_casablanca")]
        circuit = ghz_circuit(3)
        live = MachineSelector(SelectionObjective.FIDELITY)
        cached = MachineSelector(SelectionObjective.FIDELITY,
                                 cache=TranspileCache(tmp_path))
        expected = live.evaluate(circuit, backends)
        for _ in range(2):  # second pass runs fully from the cache
            choices = cached.evaluate(circuit, backends)
            assert [(c.machine, c.estimated_success, c.score)
                    for c in choices] \
                == [(c.machine, c.estimated_success, c.score)
                    for c in expected]

    def test_rank_summaries_equals_rank_candidates(self):
        backend = build_backend("ibmq_athens", seed=3)
        summary = compute_class_summary("ghz", 3, backend, level=2)
        by_summary = rank_summaries([summary])
        by_tuple = rank_candidates([(summary.machine,
                                     summary.estimated_success,
                                     summary.cx_total, summary.cx_depth)])
        assert by_summary == by_tuple

    def test_sparse_table_selects_like_complete(self):
        backends = [build_backend(name, seed=2)
                    for name in ("ibmq_athens", "ibmq_casablanca")]
        summaries = [compute_class_summary("ghz", 3, backend, level=3)
                     for backend in backends]
        complete = ClassRankTable(objective="balanced", level=3,
                                  summaries=summaries)
        sparse = ClassRankTable(objective="balanced", level=3)
        assert complete.select("ghz", 3, backends).name \
            == sparse.select("ghz", 3, backends).name
        assert sparse.inline_computes == len(backends)


class TestTranspileSharding:
    def test_round_robin_partition(self):
        pairs = [("qft", w, "ibmq_athens") for w in range(2, 12)]
        shards = plan_transpile_shards(pairs, 3)
        assert sorted(p for shard in shards for p in shard.pairs) \
            == sorted(pairs)
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_shards_dropped(self):
        pairs = [("qft", 3, "ibmq_athens")]
        assert len(plan_transpile_shards(pairs, 4)) == 1


class TestRankStudyDeterminism:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("rank-cache")
        result = run_study(config=_rank_config(), workers=1,
                           cache_dir=root)
        return root, result

    def test_cold_run_reports_amortisation(self, reference):
        _, result = reference
        stats = result.transpile
        assert stats["cold"] == stats["pairs"] > 0
        # Even at this tiny scale each class serves several jobs; the
        # >=10x study-scale dedup target lives in bench_transpile.py.
        assert stats["probes"] > stats["pairs"] >= stats["classes"]
        assert result.trace.metadata.get("seed") == 7

    def test_warm_cache_is_byte_identical(self, reference):
        root, cold = reference
        for path in Path(root).glob("trace-*"):
            shutil.rmtree(path) if path.is_dir() else path.unlink()
        warm = run_study(config=_rank_config(), workers=1, cache_dir=root)
        assert warm.transpile["cold"] == 0
        assert warm.transpile["warm"] == cold.transpile["pairs"]
        assert _trace_bytes(warm) == _trace_bytes(cold)

    def test_cache_off_and_sharded_are_byte_identical(self, reference):
        _, cold = reference
        for workers, shards, transpile_workers in ((1, 3, 2), (2, 1, 3)):
            rerun = run_study(config=_rank_config(), workers=workers,
                              num_shards=shards,
                              transpile_workers=transpile_workers,
                              use_cache=False)
            assert _trace_bytes(rerun) == _trace_bytes(cold)

    def test_rank_policy_lands_in_the_trace(self, reference):
        _, result = reference
        assert set(result.trace.column("user_policy")) == {"rank-balanced"}


class TestTranspileSpans:
    def test_rank_study_emits_class_and_pass_spans(self):
        from repro.telemetry import Tracer, set_tracer

        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            run_study(config=_rank_config(jobs=20, months=1), workers=1,
                      use_cache=False)
        finally:
            set_tracer(previous)
        spans = tracer.spans()
        names = [span["name"] for span in spans]
        assert "study.transpile" in names
        class_spans = [s for s in spans if s["name"] == "transpile.class"]
        assert class_spans
        pass_spans = [s for s in spans
                      if s["name"].startswith("transpile.pass.")]
        assert pass_spans
        # Pass spans replay inside their class span's window.
        eps = 1e-6
        for class_span in class_spans:
            end = class_span["start"] + class_span["duration"]
            children = [
                s for s in pass_spans
                if s["args"].get("family") == class_span["args"]["family"]
                and s["args"].get("width") == class_span["args"]["width"]
                and s["args"].get("machine")
                == class_span["args"]["machine"]
            ]
            assert children
            for child in children:
                assert child["start"] >= class_span["start"] - eps
                assert child["start"] + child["duration"] <= end + eps
        tracer.chrome_trace()  # must export cleanly


class TestPolicySwapRankMode:
    def test_rank_mode_sets_ranking_knobs(self):
        swap = PolicySwap(policy="fidelity", mode="rank", level=2)
        config = swap.apply(TraceGeneratorConfig(total_jobs=10, months=1))
        assert config.scenario.ranking_objective == "fidelity"
        assert config.scenario.ranking_level == 2
        assert config.scenario.forced_policy is None

    def test_trace_mode_unchanged(self):
        config = PolicySwap(policy="queue").apply(
            TraceGeneratorConfig(total_jobs=10, months=1))
        assert config.scenario.forced_policy == "least_queue"
        assert config.scenario.ranking_objective is None

    def test_rank_mode_rejects_user_policies(self):
        with pytest.raises(ScenarioError):
            PolicySwap(policy="least_queue", mode="rank").apply(
                TraceGeneratorConfig(total_jobs=10, months=1))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScenarioError):
            PolicySwap(policy="balanced", mode="compile").apply(
                TraceGeneratorConfig(total_jobs=10, months=1))

    def test_rank_scenarios_have_distinct_fingerprints(self):
        from repro.runner.cache import config_fingerprint

        base = TraceGeneratorConfig(total_jobs=10, months=1)
        scenarios = [
            Scenario("a", perturbations=(PolicySwap(policy="balanced"),)),
            Scenario("b", perturbations=(
                PolicySwap(policy="balanced", mode="rank"),)),
            Scenario("c", perturbations=(
                PolicySwap(policy="fidelity", mode="rank"),)),
        ]
        prints = {config_fingerprint(s.apply_to(base)) for s in scenarios}
        assert len(prints) == 3

    def test_default_seed_is_shared(self):
        # The table and the selector must agree on the pinned seed, or the
        # cached and live paths would key different entries.
        assert ClassRankTable().seed == DEFAULT_RANK_SEED
        assert summarise_transpile.__defaults__[0] == DEFAULT_RANK_SEED
