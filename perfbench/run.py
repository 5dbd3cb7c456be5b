"""framefuse benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports the program from `src/` beside
this directory and nothing else. The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones (see `workloads.END_TO_END`);
with `--trace 1` they are the per-layer ones (see `tracer.PER_LAYER`), from a
run that wraps the program's public functions. The lines before it record the
thread setting, core count and library versions, the sample counts and, for
the grid, the CSV's sha256. The full result, and the spans of a traced run,
are written under `.perfbench_out/` at the repository root.

BLAS and OpenMP run one thread, set before numpy is first imported.
If the program is missing the run prints no result and exits 2.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def _import_program():
    """Import framefuse from this checkout's `src/`, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import framefuse
    except ImportError as err:
        print(f"error: cannot import framefuse from {SRC}: {err}", file=sys.stderr)
        sys.exit(2)
    if SRC.resolve() not in Path(framefuse.__file__).resolve().parents:
        print(f"error: framefuse came from {framefuse.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _environment() -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": openblas, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-desk", "eval-fine", "grid-ff"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every code path in seconds (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    import workloads

    env = _environment()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               workloads.SIZES[args.size], Path(tmp))
    info, tracer = result.pop("info"), result.pop("tracer")
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps(
        {"args": vars(args), "env": env, "info": info, **result}, indent=2) + "\n")
    for note in info.pop("failures"):
        print(f"check failed: {note}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
