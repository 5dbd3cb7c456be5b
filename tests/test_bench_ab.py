"""The A/B benchmark's per-metric verdict and its workload loop, on made-up runs."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def _runs(values):
    return [{"metrics": {"clips_per_s": {"value": v, "unit": "1/s"}}} for v in values]


PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


@pytest.mark.parametrize("change,want", [
    ([v + 10 for v in PARENT], "better"),
    ([v - 10 for v in PARENT], "worse"),
    ([v + 10 for v in PARENT[:8]] + [v - 1 for v in PARENT[8:]], "unresolved"),  # 8 of 10
    ([v + 0.5 for v in PARENT], "unresolved"),  # inside the parent's IQR
])
def test_verdict_needs_nine_of_ten_pairs_beyond_the_iqr(change, want):
    metric = bench_ab.compare(_runs(PARENT), _runs(change), {"clips_per_s": "higher"})
    assert metric["clips_per_s"]["verdict"] == want


def test_verdict_follows_the_better_direction():
    lower = bench_ab.compare(_runs(PARENT), _runs([v + 10 for v in PARENT]),
                             {"clips_per_s": "lower"})
    assert lower["clips_per_s"]["verdict"] == "worse"


@pytest.mark.parametrize("better,factor,want", [
    ("higher", 1.5, True),
    ("higher", 0.8, True),    # 20% worse, inside a 0.25 bound
    ("higher", 0.7, False),   # 30% worse
    ("lower", 0.5, True),
    ("lower", 1.2, True),
    ("lower", 1.3, False),
])
def test_within_bound_allows_the_bound_fraction_worse(better, factor, want):
    change = [v * factor for v in PARENT]
    metric = bench_ab.compare(_runs(PARENT), _runs(change), {"clips_per_s": better},
                              {"clips_per_s": 0.25})
    assert metric["clips_per_s"]["within_bound"] is want


def test_within_bound_only_for_metrics_with_a_bound():
    metric = bench_ab.compare(_runs(PARENT), _runs(PARENT), {"clips_per_s": "higher"})
    assert "within_bound" not in metric["clips_per_s"]


def _fake_runs(monkeypatch):
    """Stub out git and perfbench; return the (workload, seed, tree) calls."""
    calls = []

    def run_once(tree, workload, seed, seconds, trace):
        calls.append((workload, seed, tree == bench_ab.ROOT))
        value = 90.0 + seed if tree == bench_ab.ROOT else 100.0 + seed
        return {"attempted": 3, "failed": 0, "grid_csv_sha256": [],
                "metrics": {"setup_s": {"value": value, "unit": "s"}}}

    monkeypatch.setattr(bench_ab, "extract", lambda ref, dest: None)
    monkeypatch.setattr(bench_ab, "describe", lambda: "abc1234")
    monkeypatch.setattr(bench_ab, "run_once", run_once)
    return calls


@pytest.mark.parametrize("flags,want", [
    (["all"], ["train-desk", "eval-fine", "grid-ff"]),
    (["grid-ff", "train-desk", "grid-ff"], ["grid-ff", "train-desk"]),
    (["eval-fine"], ["eval-fine"]),
])
def test_one_run_writes_an_entry_per_workload(monkeypatch, tmp_path, flags, want):
    calls = _fake_runs(monkeypatch)
    out = tmp_path / "bench.json"
    out.write_text('{"kept": {}}\n')
    argv = ["--parent", "HEAD~1", "--pairs", "2", "--seconds", "1", "--seed-base", "50",
            "--out", str(out)]
    for flag in flags:
        argv += ["--workload", flag]
    assert bench_ab.main(argv) == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["kept"] + want
    # each workload runs its own pairs, the first side alternating
    assert calls == [(w, 50 + i, change) for w in want for i in range(2)
                     for change in ((False, True) if i == 0 else (True, False))]
    for name in want:
        assert doc[name]["attempted"] == {"parent": 6, "change": 6}
        assert doc[name]["metrics"]["setup_s"]["change_wins"] == 2
        assert doc[name]["change"] == "abc1234"


def test_unknown_workload_is_a_usage_error(monkeypatch, tmp_path):
    _fake_runs(monkeypatch)
    with pytest.raises(SystemExit):
        bench_ab.main(["--parent", "HEAD~1", "--workload", "nope", "--pairs", "2",
                       "--seconds", "1", "--seed-base", "0", "--out", str(tmp_path / "b.json")])
