"""Self-test of the benchmark.

A tiny-scale run of each workload, untraced and traced, must print every
metric ``BENCHMARK.json`` declares, with its unit, and fail nothing; the
command must refuse to run without the program's source.  Run it with

    python3 -m pytest perfbench/selftest.py -q

(the file name keeps it out of the repository's default test collection:
each run starts several interpreters and takes seconds).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))

from layers import SpanRecorder, span_table  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [workload["name"] for workload in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace),
                     "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    report, result = json.loads(report_line), json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert report["failed_frac"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in declared)
    assert report["provenance"]["nproc"] >= 1
    assert report["provenance"]["seed"] == 3
    assert set(report["known_failures"]["scenarios"]) == \
        {"demand-surge", "backlog-crunch"}


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "study-cold", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children_and_parents_other_threads():
    recorder = SpanRecorder()
    with recorder.operation():
        with recorder.span("a", "outer"):
            with recorder.span("b", "inner"):
                pass
        worker = threading.Thread(
            target=lambda: recorder.wrap(lambda: None, "c", "threaded")())
        worker.start()
        worker.join(timeout=10)
    table = span_table(recorder)
    spans = {name: (start, end, parent)
             for _, parent, _, name, _, start, end in recorder.spans}
    root_id = next(span[0] for span in recorder.spans if span[3] == "op")
    assert spans["threaded"][2] == root_id
    outer, inner = spans["outer"], spans["inner"]
    assert table["outer"]["self_s"] == pytest.approx(
        (outer[1] - outer[0]) - (inner[1] - inner[0]))
    assert table["inner"]["self_s"] == pytest.approx(inner[1] - inner[0])
