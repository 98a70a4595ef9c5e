"""Absolute pins of the trace bytes, one set per ``TRACE_SCHEMA_VERSION``.

Every other golden in the suite is relational: two paths (worker counts,
shard counts, engines, caches) must write the same bytes.  A change that
moves both sides at once passes all of them.  These tests pin the sha256 of
the npz bytes of a ~200-job baseline study and a ~200-job ``policy-rank``
study, so trace content cannot change by accident.

Changing a pin requires bumping ``TRACE_SCHEMA_VERSION`` (in
``repro/workloads/trace.py``), adding the new version's digests below next
to the old ones, and a CHANGES.md line that says why the trace content
changed.  A digest that moves without a bump is a regression, not a pin to
refresh.
"""

import hashlib

from repro.runner import run_study
from repro.scenarios import builtin_scenarios
from repro.workloads import TraceGeneratorConfig
from repro.workloads.trace import TRACE_SCHEMA_VERSION

#: sha256 of ``StudyResult.trace.save(...)`` bytes, keyed by schema version.
PINS = {
    4: {
        "baseline":
            "8edfa884036b58c83b56210614751088fabac5036076d78458dd007bf66c6214",
        "policy-rank":
            "f1ddc7a6ab29103ea7ecbfc94731d8007b7d4660aa144a7adec474dcc176d614",
    },
}

CONFIG = dict(total_jobs=200, months=3, seed=7)


def _trace_sha256(config, tmp_path, name):
    result = run_study(config=config, workers=1, use_cache=False)
    path = tmp_path / f"{name}.npz"
    result.trace.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_current_schema_is_pinned():
    assert TRACE_SCHEMA_VERSION in PINS


def test_baseline_study_bytes_pinned(tmp_path):
    config = TraceGeneratorConfig(**CONFIG)
    assert _trace_sha256(config, tmp_path, "baseline") == \
        PINS[TRACE_SCHEMA_VERSION]["baseline"]


def test_policy_rank_study_bytes_pinned(tmp_path):
    config = builtin_scenarios()["policy-rank"].apply_to(
        TraceGeneratorConfig(**CONFIG))
    assert _trace_sha256(config, tmp_path, "policy-rank") == \
        PINS[TRACE_SCHEMA_VERSION]["policy-rank"]
