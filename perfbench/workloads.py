"""The benchmark's three workloads and the measurements they share.

Each workload is a closed loop: one client in one process, each call waiting
for the one before. A run sets up `setup_reps` times (the median is
`setup_s`), then runs the main loop in whole rounds, so that every method gets
the same number of operations in every run. Garbage is collected once before
the main loop; inside it the collector runs only when the program's own
allocations trigger it, and its time counts.

The main loop's operation is a train step (train-desk), an evaluation batch
(eval-fine) or a grid cell (grid-ff). Clips per second count every clip the
main loop trained on or scored, over the main loop's wall time.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from framefuse import checkpoint, grid, pipeline, report, synthclips, training
from framefuse.frontend import COMPRESSION_METHODS, FusionMethod
from framefuse.grid import ExperimentSpec, GridAxis
from framefuse.pipeline import ModelConfig
from framefuse.rng import derive_seed
from framefuse.synthclips import GenConfig
from framefuse.training import TrainConfig

import tracer as tr

# metric name, unit, better: printed by every untraced run, on every workload
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("clips_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
)


@dataclass(frozen=True)
class Size:
    setup_reps: int
    batch: int                  # train-desk clips per step
    train_per_category: int     # train-desk training set
    steps_per_round: int        # train-desk steps per method per round
    eval_clips: int             # eval-fine clips per method per round
    grid_steps: int             # train steps per grid cell
    grid_batch: int
    grid_train_per_category: int
    grid_eval_per_category: int
    grid_k: tuple[int, ...]
    grid_methods: tuple[FusionMethod, ...]


SIZES = {
    "full": Size(setup_reps=3, batch=32, train_per_category=32, steps_per_round=5,
                 eval_clips=64, grid_steps=20, grid_batch=32,
                 grid_train_per_category=20, grid_eval_per_category=10,
                 grid_k=(1, 2, 4), grid_methods=COMPRESSION_METHODS),
    # seconds-long version of every code path, for the smoke test
    "tiny": Size(setup_reps=1, batch=4, train_per_category=2, steps_per_round=1,
                 eval_clips=4, grid_steps=1, grid_batch=4,
                 grid_train_per_category=1, grid_eval_per_category=1,
                 grid_k=(1, 2), grid_methods=COMPRESSION_METHODS[:1]),
}


class Checks:
    """Correctness checks counted against attempts; a failure never aborts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def raised(self, what: str, attempts: int = 1) -> None:
        """An operation raised: all `attempts` checks it owed count as failed."""
        self.attempted += attempts
        self.failed += attempts
        self.notes.append(f"{what} raised:\n{traceback.format_exc()}")


def _k(method: FusionMethod, k: int) -> int:
    return 1 if method is FusionMethod.BASELINE else k


def same_samples(generated, loaded) -> bool:
    """Loaded samples equal the generated ones, pixels after float32 rounding."""
    return len(generated) == len(loaded) and all(
        a.category is b.category and a.seed == b.seed and a.answer_idx == b.answer_idx
        and a.options == b.options and np.array_equal(a.question_ids, b.question_ids)
        and np.array_equal(a.clip.pixels.data.astype(np.float32).astype(np.float64),
                           b.clip.pixels.data)
        for a, b in zip(generated, loaded))


class TrainDesk:
    """`training.train` on each of the six methods in turn at the desk config:
    B=32, 8 frames, 28 px, patch 14, k=4 (k=1 for baseline)."""

    frames = 8

    def __init__(self, seed: int, size: Size, workdir: Path, checks: Checks):
        self.seed, self.size, self.checks = seed, size, checks

    def setup(self) -> None:
        gcfg = GenConfig(frames=self.frames)
        self.train_set, _ = synthclips.gen_dataset(
            self.size.train_per_category, derive_seed(self.seed, "train"), gcfg)
        self.models = [pipeline.build_model(ModelConfig(method=m, k=_k(m, 4), n_input=8),
                                            derive_seed(self.seed, "model", m.value))
                       for m in FusionMethod]

    def round(self, index: int, on_step) -> tuple[list[float], int]:
        size, ops, clips = self.size, [], 0
        steps = size.steps_per_round
        for bundle in self.models:
            method = bundle.cfg.method.value
            cfg = TrainConfig(total_steps=steps, warmup_steps=min(1, steps - 1),
                              batch=size.batch,
                              seed=derive_seed(self.seed, "order", method, index))
            data = tr.StampedDataset(self.train_set, size.batch, on_step)
            try:
                result = training.train(bundle, data, cfg)
            except Exception:  # counted against the attempts, the loop goes on
                self.checks.raised(f"train {method} round {index}", steps)
                continue
            ops += tr.durations(data.stamps, time.perf_counter())
            for step, loss in enumerate(result.losses):
                self.checks.record(math.isfinite(loss),
                                   f"train {method} round {index} step {step}: loss {loss}")
            self.checks.record(len(data.stamps) == steps == len(result.losses),
                               f"train {method}: {len(result.losses)} of {steps} steps")
            clips += size.batch * steps
        return ops, clips


class EvalFine:
    """The offline evaluation path at 16 frames, patch 7 (16 tokens per frame,
    l=4), k=2 (k=1 for baseline): checkpoint load and apply, then
    `training.evaluate` in 64-clip batches, for all six methods."""

    frames = 16

    def __init__(self, seed: int, size: Size, workdir: Path, checks: Checks):
        self.seed, self.size, self.workdir, self.checks = seed, size, workdir, checks

    def setup(self) -> None:
        gcfg = GenConfig(frames=self.frames)
        per_category = -(-self.size.eval_clips // len(synthclips.CATEGORY_ORDER))
        samples, stats = synthclips.gen_dataset(per_category, derive_seed(self.seed, "eval"), gcfg)
        data_dir = self.workdir / "eval-data"
        synthclips.save_dataset(samples, data_dir, gcfg, stats)
        loaded, _ = synthclips.load_dataset(data_dir)
        self.checks.record(same_samples(samples, loaded), "eval set differs after load")
        self.eval_set = loaded[:self.size.eval_clips]
        self.models = []
        for m in FusionMethod:
            cfg = ModelConfig(method=m, k=_k(m, 2), n_input=self.frames, patch=7)
            bundle = pipeline.build_model(cfg, derive_seed(self.seed, "model", m.value))
            path = self.workdir / f"{m.value}.tfz"
            checkpoint.save_checkpoint(bundle.params, path, {"method": m.value})
            reference = {name: p.data.copy() for name, p in bundle.params.items()}
            self.models.append((bundle, path, reference))

    def round(self, index: int, on_step) -> tuple[list[float], int]:
        ops, clips = [], 0
        for bundle, path, reference in self.models:
            method = bundle.cfg.method.value
            try:
                loaded = checkpoint.load_checkpoint(path)
                checkpoint.apply_checkpoint(bundle.params, loaded)
                self.checks.record(
                    loaded.keys() == reference.keys() and all(
                        loaded[n].dtype == reference[n].dtype
                        and loaded[n].tobytes() == reference[n].tobytes() for n in reference),
                    f"checkpoint round trip for {method} is not bit-exact")
                stamps: list[float] = []
                score = training.evaluate(bundle, tr.stamped(self.eval_set, 64, stamps, on_step))
            except Exception:  # counted against the attempts, the loop goes on
                self.checks.raised(f"evaluate {method} round {index}", 2)
                continue
            ops += tr.durations(stamps, time.perf_counter())
            self.checks.record(score.n == len(self.eval_set) and math.isfinite(score.mean_loss),
                               f"evaluate {method}: n={score.n}, loss {score.mean_loss}")
            clips += score.n
        return ops, clips


class GridFF:
    """`grid.run_grid` on a fixed-frames spec, n_input=8, k in {1, 2, 4} over
    the five compression methods (11 cells) with 20 train steps per cell,
    then `results_to_csv` and `report.render_table`. Steps, batch and set
    sizes are those of the fixed-frames script with its steps cut from 600
    to 20 and its sets from 40/20 to 20/10 clips per category."""

    frames = 8

    def __init__(self, seed: int, size: Size, workdir: Path, checks: Checks):
        self.seed, self.size, self.checks = seed, size, checks
        steps = size.grid_steps
        self.spec = ExperimentSpec(
            axis=GridAxis.FIXED_FRAMES, methods=size.grid_methods, k_values=size.grid_k,
            n_input=self.frames, seed=seed,
            train=TrainConfig(total_steps=steps, warmup_steps=steps // 10,
                              batch=size.grid_batch, seed=derive_seed(seed, "grid")),
            train_per_category=size.grid_train_per_category,
            eval_per_category=size.grid_eval_per_category)
        self.rows = (1 in size.grid_k) + len(size.grid_methods) * sum(k != 1 for k in size.grid_k)
        self.sha256: list[str] = []

    def setup(self) -> None:
        """What the first cell pays before training: its data and one model."""
        synthclips.gen_dataset(self.spec.train_per_category, derive_seed(self.seed, "warm"),
                               GenConfig(frames=self.frames))
        pipeline.build_model(ModelConfig(method=FusionMethod.BASELINE, n_input=self.frames),
                             derive_seed(self.seed, "warm"))

    def round(self, index: int, on_step) -> tuple[list[float], int]:
        cell_s: list[float] = []
        run_cell = grid.run_cell

        def timed_cell(*args, **kwargs):
            start = time.perf_counter()
            try:
                return run_cell(*args, **kwargs)
            finally:
                cell_s.append(time.perf_counter() - start)

        try:
            with tr.patched((grid, "run_cell", timed_cell)):
                results = grid.run_grid(self.spec)
            text = grid.results_to_csv(results)
            table = report.render_table(report.read_table_csv(text), "md")
        except Exception:  # counted against the attempts, the loop goes on
            self.checks.raised(f"grid round {index}", self.rows)
            return cell_s, 0
        self.sha256.append(hashlib.sha256(text.encode()).hexdigest())
        rows = text.splitlines()[1:]
        self.checks.record(len(rows) == len(results) == self.rows,
                           f"grid CSV has {len(rows)} rows, expected {self.rows}")
        for row, result in zip(rows, results):
            method, k, n_input, l_decoder = row.split(",")[:4]
            cfg = ModelConfig(method=FusionMethod(method), k=int(k), n_input=int(n_input),
                              height=self.spec.height, width=self.spec.width,
                              patch=self.spec.patch)
            self.checks.record(cfg.budget.l_decoder == int(l_decoder)
                               and math.isfinite(result.final_loss),
                               f"grid row {row}: budget {cfg.budget.l_decoder}")
        self.checks.record(len(table.splitlines()) == self.rows + 2
                           and self.sha256[-1] == self.sha256[0],
                           "markdown table rows or CSV bytes differ between grids")
        eval_clips = self.spec.eval_per_category * len(synthclips.CATEGORY_ORDER)
        return cell_s, sum(r.steps * self.spec.train.batch + eval_clips for r in results)


WORKLOADS = {"train-desk": TrainDesk, "eval-fine": EvalFine, "grid-ff": GridFF}


def main_loop(workload, budget: float, on_step=None) -> tuple[list[float], int, float]:
    """Whole rounds while the next one is expected to end within `budget`
    seconds; at least one round."""
    ops: list[float] = []
    clips = rounds = 0
    gc.collect()
    start = time.perf_counter()
    while True:
        round_ops, round_clips = workload.round(rounds, on_step)
        ops += round_ops
        clips += round_clips
        rounds += 1
        main_s = time.perf_counter() - start
        if main_s * (rounds + 1) / rounds > budget:
            return ops, clips, main_s


def p90(values: list[float]) -> float:
    """Inclusive, so k copies of one round give the p90 of that round."""
    return (statistics.quantiles(values, n=10, method="inclusive")[8]
            if len(values) > 1 else values[0])


def run(name: str, seed: int, seconds: float, trace: bool, size: Size, workdir: Path) -> dict:
    """One run of one workload. Returns the result fields plus `info`, which
    holds the sample counts, the grid CSV digests and the spans."""
    checks = Checks()
    workload = WORKLOADS[name](seed, size, workdir, checks)
    tracer = tr.Tracer() if trace else None
    traced = tracer.installed if trace else contextlib.nullcontext
    setup_s = []
    with traced():
        for _ in range(size.setup_reps):
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
    if trace:
        # the same loop untraced, then traced: the ratio is the tracing overhead
        plain_ops, _, _ = main_loop(workload, seconds / 2)
        with tracer.installed():
            ops, clips, loop_s = main_loop(workload, seconds / 2, tracer.new_step)
        overhead = 100.0 * (statistics.median(ops) / statistics.median(plain_ops) - 1.0)
        metrics = tracer.summarize(tr.matmul_counts(tracer.bundles.items()), overhead)
    else:
        ops, clips, loop_s = main_loop(workload, seconds)
        values = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "clips_per_s": clips / loop_s,
            "op_p50_ms": 1e3 * statistics.median(ops),
            "op_p90_ms": 1e3 * p90(ops),
        }
        metrics = {n: {"value": values[n], "unit": unit} for n, unit, _ in END_TO_END}
    info = {"ops": len(ops), "clips": clips, "loop_s": loop_s,
            "setup_s": setup_s, "grid_csv_sha256": getattr(workload, "sha256", []),
            "failures": checks.notes}
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics, "info": info, "tracer": tracer}
