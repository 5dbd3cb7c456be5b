"""Adam training loop with warmup+cosine schedule, plus MCQ evaluation."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, backward
from .errors import BadConfig, NumericalError, check_fields
from .pipeline import ModelBundle, batch_loss, forward_logits
from .decoder import mcq_loss, predict
from .rng import RngState, derive_seed
from .synthclips import CATEGORY_ORDER

# Pixel tokens per eval forward. Large enough that the desk config (32 tokens
# a clip) runs a whole 64-clip batch at once; small enough that at 16 frames,
# patch 7 the activations stay cache-sized instead of page-faulting fresh
# megabytes on every forward.
_EVAL_TOKENS = 2048

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.95
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int = 2000
    warmup_steps: int = 200
    batch: int = 32
    lr: float = 3e-4
    min_lr: float = 3e-5
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.total_steps < 0 or self.warmup_steps < 0 or self.batch < 1:
            raise BadConfig("steps and batch must be non-negative / positive")
        if self.total_steps > 0 and self.warmup_steps >= self.total_steps:
            raise BadConfig(f"warmup {self.warmup_steps} must stay below total {self.total_steps}")
        if self.min_lr < 0:
            raise BadConfig(f"min_lr must be non-negative, got {self.min_lr}")
        if self.min_lr > self.lr:
            raise BadConfig(f"min_lr {self.min_lr} above lr {self.lr}")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup from 0, then cosine decay: lr at warmup_steps, min_lr at
    total_steps, continuous and non-increasing in between. Needs
    total_steps > 0, where TrainConfig keeps warmup_steps below total_steps;
    train never calls it otherwise."""
    if step < cfg.warmup_steps:
        return cfg.lr * step / cfg.warmup_steps
    span = cfg.total_steps - cfg.warmup_steps
    progress = min((step - cfg.warmup_steps) / span, 1.0)
    return cfg.min_lr + 0.5 * (cfg.lr - cfg.min_lr) * (1.0 + math.cos(math.pi * progress))


class Adam:
    def __init__(self, params):
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, params, grads, lr: float) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        # in place, in the order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        # p -= lr * (m/c1) / (sqrt(v/c2) + eps), so every byte is the same
        for name, p in params.items():
            g, m, v = grads[p], self.m[name], self.v[name]
            tmp = np.multiply(1.0 - b1, g, out=np.empty_like(m))
            m *= b1
            m += tmp
            np.multiply(1.0 - b2, g, out=tmp)
            tmp *= g
            v *= b2
            v += tmp
            np.sqrt(np.divide(v, c2, out=tmp), out=tmp)
            tmp += ADAM_EPS
            update = m / c1
            update /= tmp
            update *= lr
            p.data -= update


def _batch_arrays(samples):
    # float32, as the clips hold them: extract_patches widens in its own copy
    pixels = np.stack([s.clip.pixels.data for s in samples])
    questions = np.stack([s.question_ids for s in samples])
    answers = np.array([s.answer_idx for s in samples], dtype=np.int64)
    return pixels, questions, answers


@dataclass
class TrainResult:
    losses: list[float] = field(default_factory=list)
    evals: list[tuple[int, float]] = field(default_factory=list)
    steps_run: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def train(bundle: ModelBundle, dataset, cfg: TrainConfig, eval_samples=None,
          eval_every: int | None = None, stop_accuracy: float | None = None) -> TrainResult:
    """Seeded-shuffle minibatch Adam. Raises NumericalError with the step index
    if the loss goes non-finite or a step's forward, backward or update
    overflows (as `evaluate` does, instead of warning). Optional eval every
    `eval_every` (>= 1) steps, with accuracy-based early stop."""
    if not dataset:
        raise BadConfig("empty training dataset")
    if eval_every is not None and eval_every < 1:
        raise BadConfig(f"eval_every must be at least 1 or None, got {eval_every}")
    optimizer = Adam(bundle.params)
    order_rng = RngState(derive_seed(cfg.seed, "order"))
    order: list[int] = []
    result = TrainResult()
    for step in range(cfg.total_steps):
        if len(order) < cfg.batch:
            order += order_rng.shuffle(list(range(len(dataset))))
        take, order = order[:cfg.batch], order[cfg.batch:]
        pixels, questions, answers = _batch_arrays([dataset[i] for i in take])
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                with Tape() as tape:
                    loss = batch_loss(bundle, pixels, questions, answers)
                    value = loss.item()
                    # a NaN parameter propagates without a floating-point error
                    if not math.isfinite(value):
                        raise NumericalError(f"step {step}: loss {value}")
                    grads = backward(tape, loss)
                optimizer.step(bundle.params, grads, lr_at(step, cfg))
                del grads, pixels  # before the next batch, so its arrays reuse their space
        except FloatingPointError as err:
            raise NumericalError(f"step {step}: {err}") from err
        result.losses.append(value)
        result.steps_run = step + 1
        if eval_every and eval_samples is not None and (step + 1) % eval_every == 0:
            acc = evaluate(bundle, eval_samples).accuracy
            result.evals.append((step + 1, acc))
            if stop_accuracy is not None and acc >= stop_accuracy:
                break
    return result


@dataclass
class EvalResult:
    accuracy: float
    mean_loss: float
    n: int
    per_category: dict[str, float]
    category_counts: dict[str, int]


def evaluate(bundle: ModelBundle, samples, batch_size: int = 64) -> EvalResult:
    """Argmax accuracy with per-category breakdown; accepts any iterable and
    consumes it in forwards of at most `batch_size` (>= 1) clips and
    `_EVAL_TOKENS` pixel tokens (at least one clip each), so the sample stream
    never has to fit in memory. Raises NumericalError if a forward or its
    loss overflows (a checkpoint with huge finite values can), instead of
    warning and scoring whatever the logits became; parameters and pixels
    are finite, so no other path makes them non-finite."""
    if batch_size < 1:
        raise BadConfig(f"batch_size must be at least 1, got {batch_size}")
    cfg = bundle.cfg
    per_forward = max(1, min(batch_size, _EVAL_TOKENS // (cfg.n_input * cfg.tokens_per_frame)))
    right: dict[str, int] = {}
    seen: dict[str, int] = {}
    loss_sum = 0.0
    total = 0
    stream = iter(samples)
    while chunk := list(itertools.islice(stream, per_forward)):
        pixels, questions, answers = _batch_arrays(chunk)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                logits = forward_logits(bundle, pixels, questions)
                loss_sum += mcq_loss(logits, answers).item() * len(chunk)
        except FloatingPointError as err:
            raise NumericalError(f"clips {total}-{total + len(chunk) - 1}: {err}") from err
        for s, p in zip(chunk, predict(logits)):
            cat = s.category.value
            seen[cat] = seen.get(cat, 0) + 1
            right[cat] = right.get(cat, 0) + int(p == s.answer_idx)
        total += len(chunk)
    if total == 0:
        raise BadConfig("evaluate needs at least one sample")
    per_cat = {c: right[c] / seen[c] for c in seen}
    accuracy = sum(right.values()) / total
    ordered = {c.value: per_cat[c.value] for c in CATEGORY_ORDER if c.value in per_cat}
    counts = {c.value: seen[c.value] for c in CATEGORY_ORDER if c.value in seen}
    return EvalResult(accuracy=accuracy, mean_loss=loss_sum / total, n=total,
                      per_category=ordered, category_counts=counts)
