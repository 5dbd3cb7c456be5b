"""A/B benchmark: this checkout against a parent commit, in alternating pairs.

The parent is extracted with `git archive REF | tar -x` into a temporary
directory, so no worktree and no `.git` change is left behind. Each pair runs
`perfbench/run.py` once in each tree with the same seed (seed-base + pair
index), and the side that runs first alternates from pair to pair. For every
metric the run prints, the result records each side's median and quartiles,
every run's value, and how many pairs the change won (ties count for
neither side), plus the attempted and failed operation counts and each
run's grid CSV sha256 digests (from its `info` line; empty off grid-ff).

Each metric also gets a verdict: `better` (or `worse`) when the change wins
(or loses) at least 9 of every 10 pairs and the two medians differ by more
than the parent's interquartile range, `unresolved` otherwise. Each
end-to-end metric also gets `within_bound`: the change's median is no worse
than the parent's by more than the metric's `bound` fraction in
`BENCHMARK.json`, the rule a change that claims no gain is held to.

Usage:
    python3 scripts/bench_ab.py --parent HEAD~1 --workload all \\
        --pairs 10 --seconds 30 --seed-base 600 --out BENCH.json

`--workload` repeats (`--workload train-desk --workload grid-ff`), and `all`
names every workload. The workloads run one after another, each with all its
pairs, and each result is stored under the workload's name (with `-trace`
appended for `--trace 1`) in the `--out` JSON file as soon as it is done;
other entries already there are kept, so one file can gather several runs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train-desk", "eval-fine", "grid-ff")


def extract(ref: str, dest: Path) -> None:
    """`git archive REF | tar -x -C DEST`."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", ref], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {ref} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return {**json.loads(lines[-1]), "grid_csv_sha256": info["grid_csv_sha256"]}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent_runs: list[dict], change_runs: list[dict], better: dict[str, str],
            bounds: dict[str, float] | None = None) -> dict:
    metrics = {}
    for name, first in change_runs[0]["metrics"].items():
        p = [r["metrics"][name]["value"] for r in parent_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
        parent, change = summarize(p), summarize(c)
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        losses = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        iqr = parent["q3"] - parent["q1"]
        metrics[name] = {
            "unit": first["unit"], "better": better.get(name, "lower"),
            "parent": parent, "change": change,
            "change_wins": wins,
            "pairs": len(p),
            "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
            "parent_iqr": iqr,
            "verdict": verdict(wins, losses, len(p), abs(change["median"] - parent["median"]) > iqr),
        }
        if bounds and name in bounds:
            drift = sign * (change["median"] - parent["median"])
            metrics[name]["within_bound"] = drift >= -bounds[name] * abs(parent["median"])
    return metrics


def verdict(wins: int, losses: int, pairs: int, beyond_iqr: bool) -> str:
    """`better`/`worse` for a change that wins/loses at least 9 of every 10
    pairs with medians further apart than the parent's IQR; else `unresolved`."""
    if beyond_iqr and 10 * wins >= 9 * pairs:
        return "better"
    if beyond_iqr and 10 * losses >= 9 * pairs:
        return "worse"
    return "unresolved"


def describe() -> str:
    return subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                          check=True, capture_output=True, text=True).stdout.strip()


def run_pairs(trees: dict[str, Path], workload: str, args) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], workload, args.seed_base + i,
                                       args.seconds, args.trace))
        print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--workload", required=True, action="append", choices=WORKLOADS + ("all",),
                    help="repeatable; `all` runs every workload")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed-base", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 to give quartiles")
    workloads = WORKLOADS if "all" in args.workload else tuple(dict.fromkeys(args.workload))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    change = describe()
    out = Path(args.out)
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp)
        extract(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in workloads:
            runs = run_pairs(trees, workload, args)
            entry = {
                "parent": args.parent, "change": change,
                "pairs": args.pairs, "seconds": args.seconds, "seed_base": args.seed_base,
                "trace": args.trace,
                "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
                "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
                "grid_csv_sha256": {side: [r["grid_csv_sha256"] for r in rs]
                                    for side, rs in runs.items()},
                "metrics": compare(runs["parent"], runs["change"], better, bounds),
            }
            doc = json.loads(out.read_text()) if out.exists() else {}
            doc[workload + ("-trace" if args.trace else "")] = entry
            out.write_text(json.dumps(doc, indent=2) + "\n")
            print(workload)
            for name, m in entry["metrics"].items():
                print(f"  {name:34s} parent {m['parent']['median']:.6g}  "
                      f"change {m['change']['median']:.6g}"
                      f"  wins {m['change_wins']}/{m['pairs']}  {m['verdict']}"
                      + ("" if m.get("within_bound", True) else "  OUTSIDE BOUND"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
