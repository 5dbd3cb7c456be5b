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
    assert "spread_exceeds_bound" not in metric["clips_per_s"]


WIDE = [0.20, 0.33, 0.21, 0.32]  # IQR 0.115 against 0.25 of the 0.265 median
NARROW = [0.25, 0.26, 0.25, 0.26]


@pytest.mark.parametrize("parent,change,within,spread,note", [
    (WIDE, [0.31, 0.32, 0.30, 0.33], True, True, "UNRESOLVED (parent spread > bound)"),
    (WIDE, [0.40, 0.41, 0.40, 0.41], False, True, "UNRESOLVED (parent spread > bound)"),
    (NARROW, [0.40, 0.41, 0.40, 0.41], False, False, "OUTSIDE BOUND"),
    (NARROW, NARROW, True, False, None),
])
def test_parent_spread_wider_than_the_bound_is_unresolved(monkeypatch, tmp_path, capsys,
                                                          parent, change, within, spread,
                                                          note):
    def run_once(tree, workload, seed, seconds, trace):
        value = (change if tree == bench_ab.ROOT else parent)[seed]
        return {"correct": True, "attempted": 1, "failed": 0, "grid_csv_sha256": [],
                "ops": 1, "clips": 32, "loop_s": 1.0,
                "metrics": {"setup_s": {"value": value, "unit": "s"}}}

    monkeypatch.setattr(bench_ab, "extract", lambda ref, dest: None)
    monkeypatch.setattr(bench_ab, "describe", lambda: "abc1234")
    monkeypatch.setattr(bench_ab, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_ab.main(["--parent", "HEAD~1", "--workload", "eval-fine", "--pairs", "4",
                          "--seconds", "1", "--seed-base", "0", "--out", str(out)]) == 0
    metric = json.loads(out.read_text())["eval-fine"]["metrics"]["setup_s"]
    assert (metric["within_bound"], metric["spread_exceeds_bound"]) == (within, spread)
    (line,) = [line for line in capsys.readouterr().out.splitlines() if "setup_s" in line]
    notes = [n for n in ("UNRESOLVED (parent spread > bound)", "OUTSIDE BOUND") if n in line]
    assert notes == ([note] if note else [])


def _fake_runs(monkeypatch, wrong=()):
    """Stub out git and perfbench; return the (workload, seed, tree) calls.
    A run whose (seed, is-change) is in `wrong` reports `correct` false and
    one failed operation of its three. A parent run times seed + 20 loop
    operations of 32 clips, a change run seed + 10, each loop taking 2 s."""
    calls = []

    def run_once(tree, workload, seed, seconds, trace):
        change = tree == bench_ab.ROOT
        calls.append((workload, seed, change))
        value = 90.0 + seed if change else 100.0 + seed
        ok = (seed, change) not in wrong
        ops = seed + (10 if change else 20)
        return {"correct": ok, "attempted": 3, "failed": 0 if ok else 1,
                "grid_csv_sha256": [], "ops": ops, "clips": 32 * ops, "loop_s": 2.0,
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


def test_correct_flags_and_operation_counts_are_kept_and_printed(monkeypatch, tmp_path,
                                                                 capsys):
    _fake_runs(monkeypatch, wrong={(51, True), (52, True)})
    out = tmp_path / "bench.json"
    assert bench_ab.main(["--parent", "HEAD~1", "--workload", "train-desk", "--pairs", "3",
                          "--seconds", "1", "--seed-base", "50", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["train-desk"]
    assert entry["correct"] == {"parent": [True, True, True], "change": [True, False, False]}
    assert (entry["attempted"], entry["failed"]) == ({"parent": 9, "change": 9},
                                                     {"parent": 0, "change": 2})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["train-desk",
                         "  parent attempted/failed 9/0",
                         "  change attempted/failed 9/2  NOT CORRECT in pairs [1, 2]"]


def test_each_runs_loop_counts_are_kept_and_median_ops_printed(monkeypatch, tmp_path, capsys):
    # ops, clips and loop_s come from each run's info line; the median op
    # count shows how many rounds each side fitted in its runs
    _fake_runs(monkeypatch)
    out = tmp_path / "bench.json"
    assert bench_ab.main(["--parent", "HEAD~1", "--workload", "grid-ff", "--pairs", "3",
                          "--seconds", "1", "--seed-base", "50", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["grid-ff"]
    assert entry["ops"] == {"parent": [70, 71, 72], "change": [60, 61, 62]}
    assert entry["clips"] == {"parent": [2240, 2272, 2304], "change": [1920, 1952, 1984]}
    assert entry["loop_s"] == {"parent": [2.0] * 3, "change": [2.0] * 3}
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "  median ops per run  parent 71  change 61"


def test_run_once_keeps_the_info_lines_loop_counts(monkeypatch, tmp_path):
    info = {"ops": 12, "clips": 384, "loop_s": 3.5, "setup_s": [0.2],
            "grid_csv_sha256": ["ab"]}
    result = {"correct": True, "attempted": 12, "failed": 0, "metrics": {}}
    stdout = "env {}\ninfo " + json.dumps(info) + "\n" + json.dumps(result) + "\n"

    class Done:
        returncode, stderr = 0, ""

    Done.stdout = stdout
    monkeypatch.setattr(bench_ab.subprocess, "run", lambda *a, **k: Done)
    run = bench_ab.run_once(tmp_path, "train-desk", 7, 1.0, 0)
    assert run == {**result, "grid_csv_sha256": ["ab"], "ops": 12, "clips": 384,
                   "loop_s": 3.5}
