"""Golden byte-equivalence of the batched simulation engine.

The contract of :mod:`repro.cloud.fastsim` is *byte-identical traces*: for
every scenario perturbation and any worker/shard count, a study simulated
through the batched engine produces the same ``.npz`` bytes as the
reference discrete-event loop.  These tests pin that contract at three
levels — the raw engine (terminal job states for any pre-draw block size),
the sharded runner (npz file bytes against a study built here through the
event loop, at several worker/shard counts) and the scenario layer (every
builtin catalog perturbation).
"""

import pytest

from repro.cloud.fastsim import simulate_fleet
from repro.cloud.job import CircuitSpec, Job
from repro.cloud.service import QuantumCloudService
from repro.core.exceptions import CloudError
from repro.core.types import JobStatus
from repro.devices import build_fleet
from repro.runner import run_study
from repro.scenarios import builtin_scenarios, expand_sweeps
from repro.workloads.generator import (
    JobSynthesizer,
    TraceGeneratorConfig,
    plan_submissions,
    record_for,
)
from repro.workloads.trace import TRACE_SCHEMA_VERSION, TraceDataset

CONFIG = dict(total_jobs=90, months=3, seed=23)

#: Job fields that define a terminal simulation outcome.
_FIELDS = ("job_id", "status", "queue_enter_time", "start_time",
           "end_time", "pending_ahead")


def _synthesise(config):
    """A fresh, independent job list for one engine run.

    Simulation mutates jobs in place, so each engine must get its own
    copy; synthesis is deterministic, so two passes yield identical jobs.
    """
    fleet = config.build_fleet()
    synthesizer = JobSynthesizer(config, fleet)
    jobs = [synthesizer.synthesise(planned)
            for planned in plan_submissions(config)]
    return fleet, [job for job in jobs if job is not None]


def _event_outcomes(config):
    fleet, jobs = _synthesise(config)
    service = QuantumCloudService(fleet, seed=config.seed,
                                  failure_model=config.build_failure_model())
    for job in sorted(jobs, key=lambda j: (j.submit_time, j.job_id)):
        service.submit(job)
    service.drain()
    return _outcomes(jobs)


def _batched_outcomes(config, block_size):
    fleet, jobs = _synthesise(config)
    simulate_fleet(fleet, jobs, seed=config.seed,
                   failure_model=config.build_failure_model(),
                   block_size=block_size)
    return _outcomes(jobs)


def _outcomes(jobs):
    return sorted(tuple(getattr(job, field) for field in _FIELDS)
                  for job in jobs)


# -- the raw engine ------------------------------------------------------------------


def test_engine_equality_across_block_sizes():
    """Terminal states match the event loop for any pre-draw block size.

    numpy generators are chunking-invariant, so the block size must be a
    pure performance knob — block 1 (draw-at-a-time) through block 1024
    all replay the exact draw sequence of the event loop's BufferedDraws.
    """
    config = TraceGeneratorConfig(**CONFIG)
    reference = _event_outcomes(config)
    statuses = {outcome[1] for outcome in reference}
    assert JobStatus.CANCELLED in statuses, \
        "fixture too small to exercise the cancel path"
    assert JobStatus.ERROR in statuses, \
        "fixture too small to exercise the error path"
    for block_size in (1, 7, 64, 1024):
        assert _batched_outcomes(config, block_size) == reference, \
            f"batched engine diverged at block_size={block_size}"


def test_engine_equality_other_seed_and_scale():
    config = TraceGeneratorConfig(total_jobs=140, months=4, seed=7)
    assert _batched_outcomes(config, 1024) == _event_outcomes(config)


# -- the sharded runner --------------------------------------------------------------


@pytest.fixture(scope="module")
def runner_config():
    return TraceGeneratorConfig(**CONFIG)


@pytest.fixture(scope="module")
def reference_npz(runner_config, tmp_path_factory):
    """The study's npz bytes built through the event loop, not the runner.

    Synthesis, one ``QuantumCloudService`` over the whole fleet, then
    ``record_for`` and ``TraceDataset.from_records`` in
    ``(submit_time, job_id)`` order with the runner's metadata.
    """
    config = runner_config
    fleet, jobs = _synthesise(config)
    service = QuantumCloudService(fleet, seed=config.seed,
                                  failure_model=config.build_failure_model())
    ordered = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    for job in ordered:
        service.submit(job)
    service.drain()
    trace = TraceDataset.from_records(
        [record_for(job, fleet) for job in ordered],
        metadata={"seed": config.seed, "total_jobs": len(ordered),
                  "months": config.months,
                  "trace_schema": TRACE_SCHEMA_VERSION})
    path = tmp_path_factory.mktemp("reference") / "event.npz"
    trace.save(path)
    return path.read_bytes()


def test_run_study_npz_bytes_identical(runner_config, reference_npz,
                                       tmp_path):
    """The runner's saved trace equals the event-loop reference study."""
    result = run_study(config=runner_config, workers=1, use_cache=False)
    assert "simulation" in result.metadata["phase_seconds"]
    path = tmp_path / "runner.npz"
    result.trace.save(path)
    assert path.read_bytes() == reference_npz


def test_worker_and_shard_counts_do_not_change_bytes(runner_config,
                                                     reference_npz,
                                                     tmp_path):
    """2 workers / 3 shards through the runner == the event-loop study."""
    sharded = run_study(config=runner_config, workers=2, num_shards=3,
                        use_cache=False)
    sharded_path = tmp_path / "sharded.npz"
    sharded.trace.save(sharded_path)
    assert sharded_path.read_bytes() == reference_npz


# -- the overflow outcome ------------------------------------------------------------


def _late_job():
    spec = CircuitSpec(name="c", width=2, depth=6, num_gates=10, cx_count=3,
                       cx_depth=2)
    return Job(provider="open", backend_name="ibmq_athens",
               circuits=[spec] * 2, shots=1024, submit_time=4e10,
               job_id="late")


def test_demand_overflow_is_the_same_cloud_error_on_both_simulators():
    """Past ~3.7e10 s the demand growth leaves float range; both
    simulators name the machine and the clock instead of leaking a bare
    OverflowError."""
    fleet = build_fleet(["ibmq_athens"], seed=2)
    service = QuantumCloudService(fleet, seed=2)
    with pytest.raises(CloudError) as event_error:
        service.submit(_late_job())
        service.drain()
    with pytest.raises(CloudError) as batched_error:
        simulate_fleet(fleet, [_late_job()], seed=2)
    message = str(event_error.value)
    assert message == str(batched_error.value)
    assert "'ibmq_athens'" in message and "40000000000.0" in message
    assert isinstance(event_error.value.__cause__, OverflowError)
    assert isinstance(batched_error.value.__cause__, OverflowError)


# -- every builtin scenario perturbation ---------------------------------------------


def _catalog_variants():
    base = TraceGeneratorConfig(total_jobs=60, months=2, seed=11)
    variants = []
    for scenario in expand_sweeps(list(builtin_scenarios().values())):
        variants.append(pytest.param(scenario.apply_to(base),
                                     id=scenario.name))
    return variants


@pytest.mark.parametrize("config", _catalog_variants())
def test_catalog_scenarios_byte_identical(config):
    """Every catalog perturbation replays identically on both engines.

    Scenario perturbations reshape the fleet, the failure model and the
    demand curve — exactly the knobs whose draw sequences the batched
    engine inlines — so each one is a distinct equivalence fixture.
    """
    assert _batched_outcomes(config, 1024) == _event_outcomes(config)
