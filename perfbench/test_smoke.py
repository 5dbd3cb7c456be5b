"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs untraced and traced for one second with `--size tiny`
and must print a correct result carrying exactly the metrics that
BENCHMARK.json names. The computed kernel counts must repeat exactly, and a
directory without the program must give no result and a non-zero exit.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("autodiff.matmul.calls", "autodiff.matmul.fwd_flops", "autodiff.matmul.bytes",
          "pipeline.model_flops_per_clip", "autodiff.matmul.flops_ratio")


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(out) -> dict:
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stderr
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    metrics = _result(_run(workload, trace))["metrics"]
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in metrics.items()} == {m["name"]: m["unit"] for m in want}
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values()), metrics
    elif workload == "eval-fine":
        assert metrics["autodiff.tape.nodes"]["value"] == 0
    else:
        assert metrics["autodiff.tape.nodes"]["value"] > 0


def test_metric_lists_match_the_code():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracer
    import workloads

    def listed(key):
        return [(m["name"], m["unit"], m["better"]) for m in BENCH[key]]

    assert listed("end_to_end") == list(workloads.END_TO_END)
    assert listed("per_layer") == list(tracer.PER_LAYER)


def test_computed_counts_repeat_exactly():
    first, second = (_result(_run("train-desk", 1, seed=seed))["metrics"] for seed in (3, 4))
    assert [first[n] for n in COUNTS] == [second[n] for n in COUNTS]


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("train-desk", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
