"""The benchmark's own tests: a tiny-scale pass of every workload.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import workloads
from repro.core.query_client import ClientOutcome, QueryClient

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "2", "--scale", "0.1"]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload: str, trace: str) -> None:
    done = _run("--workload", workload, "--trace", trace, *TINY)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_a_corrupted_answer_trips_the_oracle(monkeypatch, capsys, tmp_path) -> None:
    process_answer = QueryClient.process_answer

    def corrupted(self, *args, **kwargs) -> ClientOutcome:
        outcome = process_answer(self, *args, **kwargs)
        outcome.matches = outcome.matches[1:]  # every query has at least one match
        return outcome

    monkeypatch.setattr(QueryClient, "process_answer", corrupted)
    run = workloads.run(
        workloads.SELECTIVE, seed=3, seconds=0.2, scale=0.1, trace=False,
        src=bench.SRC, out=tmp_path,
    )
    assert not run.correct
    assert run.failed == run.attempted

    assert bench.main(["--workload", "dense", *TINY]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = _run("--workload", "selective", "--trace", "0", *TINY, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
