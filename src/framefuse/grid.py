"""Ablation grids over (method, k) cells with deterministic seeds and CSV output.

Two sweep axes:
  fixed-budget: N_input = k * n_over_k, so every cell feeds the decoder the
    same number of video tokens; k=1 is the no-compression baseline row.
  fixed-frames: N_input held fixed while k sweeps, so the decoder budget
    shrinks as N_input*l/k; rows are method-major, k-minor.

Two seeds drive a grid. `seed` picks the clips: every cell at one n_input
trains and scores on the same sets. `train.seed` picks the models: each cell
trains its own model from scratch with seed hash(train.seed, method, k), so
cells are independent jobs; rows are emitted in grid order regardless of
how cells were scheduled. A run over several seeds sets both.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from .errors import BadConfig, check_fields
from .frontend import COMPRESSION_METHODS, FusionMethod
from .pipeline import ModelConfig, build_model, model_flops_per_clip
from .rng import derive_seed
from .synthclips import CANVAS, CATEGORY_ORDER, GenConfig, gen_dataset
from .training import TrainConfig, evaluate, train


class GridAxis(enum.Enum):
    FIXED_BUDGET = "fixed-budget"
    FIXED_FRAMES = "fixed-frames"


@dataclass(frozen=True)
class ExperimentSpec:
    axis: GridAxis
    methods: tuple[FusionMethod, ...] = COMPRESSION_METHODS
    k_values: tuple[int, ...] = (2, 4)
    n_over_k: int | None = None   # fixed-budget only: frames per compressed group
    n_input: int | None = None    # fixed-frames only: total input frames
    seed: int = 0                 # picks the clips; cell model seeds come from train.seed
    train: TrainConfig = field(default_factory=TrainConfig)
    train_per_category: int = 20
    eval_per_category: int = 10
    # not fields, so no experiment config can set them: every cell runs on the
    # generators' canvas at ModelConfig's default patch
    height = width = CANVAS
    patch = ModelConfig.patch

    def __post_init__(self):
        check_fields(self, positive=("train_per_category", "eval_per_category"))
        if self.axis is GridAxis.FIXED_BUDGET and not self.n_over_k:
            raise BadConfig("fixed-budget axis needs n_over_k")
        if self.axis is GridAxis.FIXED_BUDGET and self.n_input is not None:
            raise BadConfig("fixed-budget axis takes n_over_k, not n_input")
        if self.axis is GridAxis.FIXED_FRAMES and not self.n_input:
            raise BadConfig("fixed-frames axis needs n_input")
        if self.axis is GridAxis.FIXED_FRAMES and self.n_over_k is not None:
            raise BadConfig("fixed-frames axis takes n_input, not n_over_k")
        if FusionMethod.BASELINE in self.methods:
            raise BadConfig("baseline is implied by k=1; list only compression methods")
        for k in self.k_values:
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise BadConfig(f"k_values: compression ratio {k!r}")
            if self.axis is GridAxis.FIXED_FRAMES and self.n_input % k:
                raise BadConfig(f"k={k} does not divide n_input={self.n_input}")
        if not _cells(self):
            raise BadConfig("grid has no cells: methods and k_values leave nothing to run")


@dataclass(frozen=True)
class RunResult:
    method: str
    k: int
    n_input: int
    l_decoder: int
    per_category: dict[str, float]
    accuracy: float
    final_loss: float
    flops_per_clip: int
    steps: int


def _cells(spec: ExperimentSpec):
    """(method, k, n_input) in emission order; k=1 collapses to the baseline."""
    cells = []
    if spec.axis is GridAxis.FIXED_BUDGET:
        for k in spec.k_values:
            n_input = k * spec.n_over_k
            if k == 1:
                cells.append((FusionMethod.BASELINE, 1, n_input))
            else:
                cells.extend((m, k, n_input) for m in spec.methods)
    else:
        if 1 in spec.k_values:
            cells.append((FusionMethod.BASELINE, 1, spec.n_input))
        for method in spec.methods:
            cells.extend((method, k, spec.n_input) for k in spec.k_values if k != 1)
    return cells


def run_cell(spec: ExperimentSpec, method: FusionMethod, k: int, n_input: int,
             datasets: dict) -> RunResult:
    """Train and score one grid cell from scratch. `datasets` caches the
    per-n_input train/eval sets across cells."""
    if n_input not in datasets:
        gcfg = GenConfig(frames=n_input)
        data_seed = derive_seed(spec.seed, "data", n_input)
        train_ds, _ = gen_dataset(spec.train_per_category, derive_seed(data_seed, "train"), gcfg)
        eval_ds, _ = gen_dataset(spec.eval_per_category, derive_seed(data_seed, "eval"), gcfg)
        datasets[n_input] = (train_ds, eval_ds)
    train_ds, eval_ds = datasets[n_input]
    cfg = ModelConfig(method=method, k=k, n_input=n_input)
    cell_seed = derive_seed(spec.train.seed, method.value, k)
    bundle = build_model(cfg, cell_seed)
    outcome = train(bundle, train_ds, replace(spec.train, seed=cell_seed))
    score = evaluate(bundle, eval_ds)
    return RunResult(method=method.value, k=k, n_input=n_input,
                     l_decoder=cfg.budget.l_decoder, per_category=score.per_category,
                     accuracy=score.accuracy, final_loss=outcome.final_loss,
                     flops_per_clip=model_flops_per_clip(cfg),
                     steps=outcome.steps_run)


def run_grid(spec: ExperimentSpec) -> list[RunResult]:
    datasets: dict = {}
    return [run_cell(spec, m, k, n, datasets) for m, k, n in _cells(spec)]


def results_to_csv(results, include_flops: bool = False) -> str:
    """Deterministic CSV: wall-clock is deliberately excluded so identical
    seeds give byte-identical files."""
    cols = ["method", "k", "n_input", "l_decoder"]
    cols += [f"acc_{c.value.lower()}" for c in CATEGORY_ORDER]
    cols += ["avg_acc", "final_loss"]
    if include_flops:
        cols.append("flops_per_clip")
    lines = [",".join(cols)]
    for r in results:
        cells = [r.method, str(r.k), str(r.n_input), str(r.l_decoder)]
        cells += [f"{r.per_category.get(c.value, 0.0):.6f}" for c in CATEGORY_ORDER]
        cells += [f"{r.accuracy:.6f}", f"{r.final_loss:.6f}"]
        if include_flops:
            cells.append(str(r.flops_per_clip))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
