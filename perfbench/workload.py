"""One benchmark process: set-up, closed-loop operations and output checks.

``run.py`` starts this file once per sample; it is not meant to be run by
hand.  It prints ``@started`` when import and server start are done,
``@ready`` when the first timed operation can be issued, and one JSON
object as its last line.

Modes:

* ``--setup-only``: stop after ``@started`` (an extra set-up sample);
* ``--trace 0``: closed-loop operations at ``--workers = nproc`` for
  ``--seconds``, one at a time from one client;
* ``--trace 1``: one untraced operation at ``nproc`` workers, one at one
  worker, then one traced operation at one worker, so that every layer call
  runs in this process;
* ``--probe``: the known-defect probe (see ``run.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

#: The scale each workload runs at.  Chosen so that one operation takes
#: 1.5-2.5 s on a 2-core host, and a run's median covers a dozen or more
#: operations, while the layer mix of the paper-scale (6000 jobs x 28
#: months) path is kept; see README.md for the figures.
SCALES = {
    "bench": {
        "study-cold": {"total_jobs": 500, "months": 28},
        "rank-cold": {"total_jobs": 100, "months": 3},
        "resubmit-warm": {"total_jobs": 100, "months": 2},
    },
    "tiny": {
        "study-cold": {"total_jobs": 120, "months": 3},
        "rank-cold": {"total_jobs": 60, "months": 1},
        "resubmit-warm": {"total_jobs": 60, "months": 2},
    },
}

#: Inputs of a ``resubmit-warm`` run, all made from ``--seed``; operations
#: cycle through them.  Cold operations each get an input of their own.  A
#: run's median so covers many inputs instead of one: the cost of one
#: input varies with its seed by 10-20%.  Each input costs three
#: ``run_study`` calls of set-up.
RESUBMIT_INPUTS = 6

#: The suite a tenant resubmits on ``resubmit-warm``.
SUITE = ("baseline", "policy-swap", "calibration-drift")

#: Paper scale and seed, at which the probed scenarios fail at the parent
#: commit of this benchmark.
PROBE_CONFIG = {"total_jobs": 6000, "months": 28, "seed": 7}
PROBE_SCENARIOS = ("demand-surge", "backlog-crunch")

CLK_TCK = os.sysconf("SC_CLK_TCK")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- process accounting ----------------------------------------------------------------


def _children() -> List[Tuple[int, float]]:
    """(pid, cpu seconds) of every live or unreaped child of this process."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[1] == me:
            found.append((int(entry),
                          (int(fields[11]) + int(fields[12])) / CLK_TCK))
    return found


def cpu_seconds() -> float:
    """CPU of this process, its reaped children and its live children.

    ``RUSAGE_CHILDREN`` only counts children once they are reaped, so live
    pool workers are read from ``/proc/<pid>/stat``; a worker reaped
    between two readings moves from the live sum to the reaped one.
    """
    times = os.times()
    live = sum(cpu for _, cpu in _children())
    return (times.user + times.system + times.children_user
            + times.children_system + live)


def peak_rss_mb() -> Tuple[float, float]:
    """(parent, largest worker) peak resident set size in MiB."""
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for pid, _ in _children():
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        worker = max(worker, int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return parent, worker


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- workloads -------------------------------------------------------------------------


class OpFailed(Exception):
    """An operation finished but its output check failed."""


class ColdStudy:
    """``study-cold`` and ``rank-cold``: one study into an empty cache."""

    def __init__(self, name: str, config_for, work: Path):
        from repro.scenarios import builtin_scenarios

        self.name = name
        self.config_for = config_for
        self.work = work
        self.scenario = (builtin_scenarios()["policy-rank"]
                         if name == "rank-cold" else None)
        self.count = 0

    def fill(self) -> None:
        pass

    def op(self, index: int, workers: int, recorder=None) -> Dict[str, object]:
        """Run input ``index`` cold; return its trace sha256 and rows."""
        import repro.runner.executor as executor
        import repro.scenarios.engine as engine
        from repro.core.types import JobStatus

        config = self.config_for(index)
        self.count += 1
        cache_dir = self.work / f"op-{self.count}"
        try:
            if self.scenario is None:
                result = executor.run_study(config=config, workers=workers,
                                            cache_dir=cache_dir)
            else:
                suite = engine.run_scenarios([self.scenario], config,
                                             workers=workers,
                                             cache_dir=cache_dir)
                result = suite.runs[0].result
            if result.cache_hit or result.cache_path is None:
                raise OpFailed(f"{self.name}: the trace cache was not cold")
            rows = len(result.trace)
            if rows != config.total_jobs:
                raise OpFailed(f"{self.name}: {rows} rows for "
                               f"{config.total_jobs} jobs")
            if result.trace.status_counts().get(JobStatus.DONE.value, 0) == 0:
                raise OpFailed(f"{self.name}: no job finished done")
            if self.scenario is not None and (
                    result.transpile.get("warm") != 0
                    or result.transpile.get("cold")
                    != result.transpile.get("pairs")):
                raise OpFailed(f"{self.name}: the transpile cache was not "
                               f"cold: {result.transpile}")
            return {"input_seed": config.seed, "rows": rows,
                    "sha256": file_sha256(result.cache_path)}
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def final_check(self, outputs: List[Dict[str, object]]) -> List[str]:
        """Every operation on the same input wrote the same trace bytes."""
        shas: Dict[int, set] = {}
        for out in outputs:
            shas.setdefault(out["input_seed"], set()).add(out["sha256"])
        return [f"{self.name}: input seed {seed} gave {len(found)} "
                f"different traces"
                for seed, found in sorted(shas.items()) if len(found) > 1]

    def close(self) -> None:
        pass


class ResubmitWarm:
    """``resubmit-warm``: a tenant POSTs a suite whose traces are cached."""

    def __init__(self, configs, work: Path, workers: int):
        import threading

        from repro.service.client import StudyServiceClient
        from repro.service.gateway import StudyService

        self.configs = configs
        self.store_dir = work / "store"
        self.service = StudyService(workers=workers,
                                    cache_dir=self.store_dir).start()
        self.server = self.service.make_server("127.0.0.1", 0)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="bench-gateway", daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = StudyServiceClient(f"http://{host}:{port}",
                                         tenant="bench", timeout=120.0)

    def fill(self) -> None:
        """Fill the service's trace cache with plain ``run_study`` calls;
        no comparison is asked for."""
        from repro.runner.executor import run_study
        from repro.scenarios import builtin_scenarios

        catalog = builtin_scenarios()
        for config in self.configs:
            for name in SUITE:
                run_study(config=catalog[name].apply_to(config),
                          workers=nproc(), cache_dir=self.store_dir)

    def op(self, index: int, workers: int, recorder=None) -> Dict[str, object]:
        """POST the suite of input ``index``; stream events to the last."""
        from contextlib import nullcontext

        def span(name):
            return (recorder.span("service", name) if recorder is not None
                    else nullcontext())

        config = self.configs[index % len(self.configs)]
        payload = {"scenarios": list(SUITE),
                   "study": {"total_jobs": config.total_jobs,
                             "months": config.months, "seed": config.seed}}
        with span("gateway.submit"):
            job = self.client.submit(payload)
        events = self.client.events(job["job"], timeout=120.0)
        with span("gateway.first_event"):
            last = next(events)
        for last in events:
            pass
        if last.get("event") != "done":
            raise OpFailed(f"resubmit-warm: job ended {last.get('event')}: "
                           f"{last.get('error')}")
        result = last["result"]
        hit_ratio = result["cache_hits"] / len(result["scenarios"])
        if hit_ratio != 1.0:
            raise OpFailed(f"resubmit-warm: trace-cache hit ratio "
                           f"{hit_ratio}, expected 1.0")
        return {"input_seed": config.seed,
                "comparison_key": result["comparison_key"],
                "fingerprints": result["fingerprints"],
                "cache_hit_ratio": hit_ratio}

    def final_check(self, outputs: List[Dict[str, object]]) -> List[str]:
        """The comparison served for the first input equals an in-process
        ``compare_suite`` over the same cached traces."""
        from repro.analysis.compare import compare_suite
        from repro.scenarios import ScenarioEngine, resolve_scenarios

        config = self.configs[0]
        served = [out for out in outputs if out["input_seed"] == config.seed]
        if not served:
            return []
        suite = ScenarioEngine(config, workers=nproc(),
                               cache=self.store_dir).run(
            list(resolve_scenarios(SUITE)))
        problems = []
        if not all(run.cache_hit for run in suite):
            problems.append("resubmit-warm: the check missed the cache")
        if suite.fingerprints() != served[0]["fingerprints"]:
            problems.append("resubmit-warm: served fingerprints differ")
        expected = json.dumps(compare_suite(suite).as_dict(), sort_keys=True)
        for key in sorted({out["comparison_key"] for out in served}):
            comparison = self.client.fetch_comparison(key)["comparison"]
            if json.dumps(comparison, sort_keys=True) != expected:
                problems.append(f"resubmit-warm: comparison {key} differs "
                                f"from an in-process compare_suite")
        return problems

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        self.service.stop()


def input_seed(seed: int, index: int) -> int:
    """The seed of input ``index`` of a run; input 0 uses ``seed`` itself."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/input/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def build(name: str, scale: str, seed: int, work: Path):
    from repro.workloads.generator import TraceGeneratorConfig

    def config_for(index: int):
        return TraceGeneratorConfig(seed=input_seed(seed, index),
                                    **SCALES[scale][name])

    if name == "resubmit-warm":
        return ResubmitWarm([config_for(index)
                             for index in range(RESUBMIT_INPUTS)],
                            work, nproc())
    return ColdStudy(name, config_for, work)


# -- measurement -----------------------------------------------------------------------


def timed(workload, index: int, workers: int,
          recorder=None) -> Dict[str, object]:
    """One operation: wall and CPU seconds, its output, or its error."""
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        output = workload.op(index, workers, recorder)
        error = None
    except Exception as exc:  # a failed operation is counted, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return {"wall_s": wall, "cpu_s": cpu_seconds() - cpu0,
            "output": output, "error": error}


def import_times() -> Dict[str, float]:
    """Cumulative import seconds of repro, scipy and networkx, read from a
    fresh ``python -X importtime -c "import repro"``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    # importtime prints a module after its imports; walk it backwards to
    # see every module after its importer.
    totals = {"repro": 0.0, "scipy": 0.0, "networkx": 0.0}
    ancestors: List[str] = []
    for depth, name, seconds in reversed(rows):
        del ancestors[depth:]
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top
                                     for a in ancestors):
            totals[top] += seconds
        ancestors.append(name)
    return {f"import.{top}_s": seconds for top, seconds in totals.items()}


def versions() -> Dict[str, str]:
    import networkx
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "networkx": networkx.__version__}


def run_untraced(workload, seconds: float) -> Dict[str, object]:
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        ops.append(timed(workload, len(ops), nproc()))
        if time.perf_counter() >= deadline:
            break
    return {"ops": ops, "peak_rss_mb": peak_rss_mb()}


def run_traced(workload, name: str) -> Dict[str, object]:
    from layers import SpanRecorder, layer_metrics, phase_gap, span_table

    parallel = timed(workload, 0, nproc())
    single = timed(workload, 0, 1)
    recorder = SpanRecorder()
    with recorder.installed():
        with recorder.operation():
            traced = timed(workload, 0, 1, recorder)
    table = span_table(recorder)
    metrics, detail = layer_metrics(recorder, table)
    gap, phases = phase_gap(recorder, table)
    metrics["phase_gap_s"] = gap
    metrics["runner.parallel_eff"] = (
        parallel["cpu_s"] / (parallel["wall_s"] * nproc()))
    metrics["trace_overhead_frac"] = traced["wall_s"] / single["wall_s"] - 1.0
    metrics.update(import_times())
    out = ROOT / ".perfbench-run" / "out" / f"trace-{name}.json.gz"
    recorder.write_chrome_trace(out)
    detail.update(phases=phases, chrome_trace=str(out.relative_to(ROOT)),
                  untraced_wall_s={"workers_nproc": parallel["wall_s"],
                                   "workers_1": single["wall_s"]})
    return {"ops": [parallel, single, traced], "metrics": metrics,
            "detail": detail}


def probe() -> Dict[str, object]:
    """Run each probed scenario once at paper scale; report how it ends."""
    from repro.runner.executor import run_study
    from repro.scenarios import builtin_scenarios
    from repro.workloads.generator import TraceGeneratorConfig

    base = TraceGeneratorConfig(**PROBE_CONFIG)
    outcomes = {}
    for name in PROBE_SCENARIOS:
        config = builtin_scenarios()[name].apply_to(base)
        start = time.perf_counter()
        try:
            result = run_study(config=config, workers=nproc(),
                               use_cache=False)
            outcome = {"passed": True, "jobs": len(result.trace)}
        except Exception as exc:
            outcome = {"passed": False,
                       "error": f"{type(exc).__name__}: {exc}"}
        outcome["seconds"] = time.perf_counter() - start
        outcomes[name] = outcome
    return {"config": PROBE_CONFIG, "engine": "batched", "workers": nproc(),
            "scenarios": outcomes}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument("--work", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    # Stopping the run must still close the service and its pools.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import repro  # noqa: F401  (set-up includes the package import)

    if args.probe:
        print(json.dumps(probe()))
        return 0

    args.work.mkdir(parents=True, exist_ok=True)
    workload = build(args.workload, args.scale, args.seed, args.work)
    try:
        print("@started", flush=True)
        if args.setup_only:
            return 0
        workload.fill()
        print("@ready", flush=True)
        if args.trace:
            run = run_traced(workload, args.workload)
        else:
            run = run_untraced(workload, args.seconds)
        outputs = [op["output"] for op in run["ops"] if op["error"] is None]
        problems = [op["error"] for op in run["ops"] if op["error"]]
        if outputs:
            problems += workload.final_check(outputs)
    finally:
        workload.close()
    run.update(problems=problems, nproc=nproc(), versions=versions(),
               scale=dict(SCALES[args.scale][args.workload], seed=args.seed))
    print(json.dumps(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
