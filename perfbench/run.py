"""The repository's benchmark: three user paths, timed end to end.

    python3 perfbench/run.py --workload study-cold --seed 7 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``README.md`` next to this file):

* ``study-cold``: the baseline study into an empty trace cache;
* ``rank-cold``: the ``policy-rank`` catalog scenario into empty trace and
  transpile caches;
* ``resubmit-warm``: a tenant POSTs ``baseline``, ``policy-swap`` and
  ``calibration-drift`` to the study service, whose trace cache holds all
  three, and streams the job's events to the final one.

Each operation runs alone, issued by one client in one process, with
``--workers`` = ``nproc``.  With ``--trace 0`` the command prints the
end-to-end metrics; with ``--trace 1`` it makes the traced run and prints
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is the full report (samples, percentiles, trace digests,
provenance, the known-defect probe).

This file uses the standard library only.  It starts ``workload.py`` in
fresh processes: extra set-up samples, then the measured process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench-run"
WORKLOADS = ("study-cold", "rank-cold", "resubmit-warm")

#: Extra fresh processes that only set up, so ``setup_s`` is a median of
#: three starts.  The cache fill of ``resubmit-warm`` is timed once, in the
#: measured process.
SETUP_SAMPLES = 2

#: Seconds the whole invocation may take before its child is stopped.
DEADLINE_SECONDS = 170.0


def fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def source_digest() -> str:
    """sha256 over the program's source files, in path order."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def percentile_summary(values: List[float]) -> Dict[str, object]:
    """Median, and the highest percentile with at least ten samples
    beyond it (the maximum when there are fewer than eleven samples)."""
    ordered = sorted(values)
    count = len(ordered)
    summary: Dict[str, object] = {"median": statistics.median(ordered),
                                  "count": count}
    for pct in (99, 90):
        if count * (100 - pct) / 100 >= 10:
            summary[f"p{pct}"] = ordered[math.ceil(count * pct / 100) - 1]
            return summary
    summary["max"] = ordered[-1]
    return summary


class Child:
    """A ``workload.py`` process whose ``@`` markers are time-stamped."""

    def __init__(self, args: List[str], deadline: float):
        self.started_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "workload.py"), *args],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self.deadline = deadline
        self.marks: Dict[str, float] = {}
        self.last_line = ""

    def finish(self) -> Tuple[Dict[str, float], Optional[dict]]:
        """Read to the end; return marker times and the final JSON (None
        when the child failed or was stopped at the deadline)."""
        watchdog = threading.Timer(
            max(0.0, self.deadline - time.perf_counter()), self.stop)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("@"):
                    self.marks[line.strip()[1:]] = \
                        time.perf_counter() - self.started_at
                elif line.strip():
                    self.last_line = line
            self.proc.wait()
        finally:
            watchdog.cancel()
            self.stop()
            self.proc.stdout.close()
        if self.proc.returncode != 0 or not self.last_line:
            return self.marks, None
        return self.marks, json.loads(self.last_line)

    def stop(self) -> None:
        """Ask the child to clean up and exit; kill it if it does not."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def known_failures(deadline: float) -> Dict[str, object]:
    """The known-defect probe: ``demand-surge`` and ``backlog-crunch`` at
    paper scale.

    The probe is untimed and costs about 30 s, longer than a run measures,
    so its outcome is kept per source digest: any change to the program's
    source, or another interpreter, runs it again.
    """
    import platform

    key = hashlib.sha256(
        f"{source_digest()}|{platform.python_version()}".encode()
    ).hexdigest()[:24]
    memo = RUN_DIR / "probe" / f"{key}.json"
    if memo.is_file():
        return dict(json.loads(memo.read_text()), memoised=True)
    _, result = Child(["--probe"], deadline).finish()
    if result is None:
        return {"error": "the probe process failed or ran out of time"}
    memo.parent.mkdir(parents=True, exist_ok=True)
    memo.write_text(json.dumps(result))
    return dict(result, memoised=False)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"),
                        default="bench",
                        help="'tiny' is for the self-test only")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_SECONDS
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program source under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = RUN_DIR / "work" / str(os.getpid())
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", args.scale, "--work", str(work)]
    try:
        starts = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                marks, _ = Child([*common, "--setup-only"],
                                 deadline).finish()
                if "started" not in marks:
                    return fail("a set-up sample failed")
                starts.append(marks["started"])
        marks, run = Child([*common, "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], deadline).finish()
        if run is None or "ready" not in marks:
            return fail(f"the {args.workload} process failed")
        starts.append(marks["started"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = run["ops"]
    good = [op for op in ops if op["error"] is None]
    attempted = len(ops)
    failed = attempted - len(good)
    problems = run["problems"]
    if problems and failed == 0:
        # A check over all outputs (same bytes every time, the served
        # comparison) fails every operation it covers.
        failed = attempted
    report: Dict[str, object] = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": {
            "nproc": run["nproc"], **run["versions"],
            "git_commit": git_commit(), "source_sha256": source_digest(),
            "seed": args.seed, "scale": run["scale"],
            "scale_name": args.scale, "workers": run["nproc"],
        },
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "outputs": [op["output"] for op in ops],
    }
    if args.trace:
        values = dict(run["metrics"])
        report["detail"] = run["detail"]
        report["samples"] = {"wall_s": [op["wall_s"] for op in ops]}
    else:
        fill = marks["ready"] - marks["started"]
        parent_rss, worker_rss = run["peak_rss_mb"]
        values = {
            "setup_s": statistics.median(starts) + fill,
            "wall_s": statistics.median([op["wall_s"] for op in good])
            if good else float("nan"),
            "cpu_s": statistics.median([op["cpu_s"] for op in good])
            if good else float("nan"),
            "peak_rss_mb": parent_rss + worker_rss,
        }
        report["samples"] = {
            "setup_start_s": starts, "setup_fill_s": fill,
            "wall_s": [op["wall_s"] for op in good],
            "cpu_s": [op["cpu_s"] for op in good],
            "peak_rss_mb": {"parent": parent_rss, "largest_worker": worker_rss},
        }
        report["percentiles"] = {
            name: percentile_summary(report["samples"][name])
            for name in ("wall_s", "cpu_s") if report["samples"][name]}
    report["known_failures"] = known_failures(deadline)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        print(f"{args.workload:>14} {name:<34} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    print(json.dumps(report))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
