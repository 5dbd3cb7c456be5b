"""Spans and counters for the traced benchmark run.

Everything here acts from outside the program: public functions are wrapped
at the module attributes their callers look them up through (for example
`pipeline.encode`, which `video_token_forward` calls by that name), and the
originals are restored when the `Tracer.installed()` block ends. No module of
the program is edited.

Each span records its name, start, end, parent span and step id; spans stay in
memory until `dump` writes them out. A span's self time is its duration minus
the time its child spans cover.

Backward time is attributed per layer without touching `autodiff.py`: every
forward layer span records the range of tape indices it appended, and the
wrapped `backward` times each node's `grad_fn` under the innermost layer whose
range holds that node. A gradient array counts as useful when the input it is
for lies on a path to a watched leaf (a parameter); gradients for constants
such as pixel patches, scope masks and rotary tables are wasted work.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import time
from collections import defaultdict

import numpy as np

from framefuse import (autodiff, checkpoint, grid, pipeline, report, rng,
                       synthclips, training)

# (metric, unit, better) for the traced run; `summarize` fills every one,
# with 0 where the workload never reaches that layer
PER_LAYER = (
    ("encoder.encode.fwd_ms", "ms", "lower"),
    ("encoder.encode.bwd_ms", "ms", "lower"),
    ("encoder.encode.nodes", "count", "lower"),
    ("compressor.compress.fwd_ms", "ms", "lower"),
    ("compressor.compress.bwd_ms", "ms", "lower"),
    ("compressor.compress.nodes", "count", "lower"),
    ("decoder.causal_decode.fwd_ms", "ms", "lower"),
    ("decoder.causal_decode.bwd_ms", "ms", "lower"),
    ("decoder.causal_decode.nodes", "count", "lower"),
    ("decoder.head.fwd_ms", "ms", "lower"),
    ("frontend.extract_patches.ms", "ms", "lower"),
    ("autodiff.backward.ms", "ms", "lower"),
    ("autodiff.tape.nodes", "count", "lower"),
    ("autodiff.grad_arrays", "count", "lower"),
    ("autodiff.grad_arrays_useful", "count", "lower"),
    ("autodiff.grad_useful_ratio", "ratio", "higher"),
    ("autodiff.matmul.calls", "count", "lower"),
    ("autodiff.matmul.fwd_flops", "flop", "lower"),
    ("autodiff.matmul.bytes", "bytes", "lower"),
    ("pipeline.model_flops_per_clip", "flop", "lower"),
    ("autodiff.matmul.flops_ratio", "ratio", "lower"),
    ("training.adam_step.ms", "ms", "lower"),
    ("training.batch_gather.ms", "ms", "lower"),
    ("pipeline.build_model.ms", "ms", "lower"),
    ("rng.normal_array.ms", "ms", "lower"),
    ("synthclips.gen_sample.ms", "ms", "lower"),
    ("synthclips.save_dataset.ms", "ms", "lower"),
    ("synthclips.load_dataset.ms", "ms", "lower"),
    ("frontend.save_clip.ms", "ms", "lower"),
    ("frontend.save_clip.bytes", "bytes", "lower"),
    ("frontend.load_clip.ms", "ms", "lower"),
    ("frontend.load_clip.bytes", "bytes", "lower"),
    ("checkpoint.save.ms", "ms", "lower"),
    ("checkpoint.save.bytes", "bytes", "lower"),
    ("checkpoint.load.ms", "ms", "lower"),
    ("checkpoint.load.bytes", "bytes", "lower"),
    ("grid.run_cell.ms", "ms", "lower"),
    ("grid.results_to_csv.ms", "ms", "lower"),
    ("report.render_table.ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)

# span name -> the function's path argument, whose file size is the bytes
_FILE_SPANS = {"frontend.save_clip": 1, "frontend.load_clip": 0,
               "checkpoint.save": 1, "checkpoint.load": 0}


class StampedDataset:
    """A training set that stamps the clock when `train` gathers the first
    clip of each batch. `train` takes exactly `batch` indices per step, so
    every `batch`-th lookup opens a step; a step ends where the next opens."""

    def __init__(self, samples, batch: int, on_step=None):
        self.samples = samples
        self.batch = batch
        self.on_step = on_step
        self.stamps: list[float] = []
        self._lookups = 0

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i):
        if self._lookups % self.batch == 0:
            self.stamps.append(time.perf_counter())
            if self.on_step is not None:
                self.on_step()
        self._lookups += 1
        return self.samples[i]


def stamped(samples, batch: int, stamps: list, on_step=None):
    """Yield `samples`, stamping the clock as each batch of `evaluate` opens."""
    for i, sample in enumerate(samples):
        if i % batch == 0:
            stamps.append(time.perf_counter())
            if on_step is not None:
                on_step()
        yield sample


def durations(stamps: list[float], end: float) -> list[float]:
    """Seconds between consecutive stamps, the last one closed by `end`."""
    return [b - a for a, b in zip(stamps, stamps[1:] + [end])]


@contextlib.contextmanager
def patched(*targets):
    """Temporarily set `(owner, attribute, value)` triples; restore on exit."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    try:
        for owner, name, value in targets:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, step, tape nodes appended or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.step = 0
        self.tape = None
        self._ranges: list[tuple[int, int, str]] = []
        self._step_start: float | None = None
        self.gather_s: list[float] = []
        self.bwd_s: dict[str, float] = defaultdict(float)
        self.bytes: dict[str, int] = defaultdict(int)
        self.backward_calls = 0
        self.tapes = 0
        self.tape_nodes = 0
        self.grad_arrays = 0
        self.grad_useful = 0
        self.bundles: dict = {}   # model config -> a bundle built for it

    # ---- spans ----

    def new_step(self) -> None:
        """Mark the start of a train step or eval batch; later spans share its id."""
        self.step += 1
        self._step_start = time.perf_counter()

    def wrap(self, name: str, fn, layer: bool = False):
        tracer = self
        path_arg = _FILE_SPANS.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.step, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tape = tracer.tape
            n0 = len(tape.nodes) if tape is not None else 0
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
                if tape is not None:
                    rec[5] = len(tape.nodes) - n0
                    if layer:
                        tracer._ranges.append((n0, len(tape.nodes), name))
                if path_arg is not None:
                    tracer.bytes[name] += os.path.getsize(args[path_arg])

        return traced

    # ---- tape, backward and optimizer hooks ----

    def _tape_class(self):
        tracer = self

        class TracedTape(autodiff.Tape):
            def __init__(self):
                super().__init__()
                self.watched: set[int] = set()

            def watch(self, *tensors):
                self.watched.update(t.tid for t in tensors)
                super().watch(*tensors)

            def __enter__(self):
                tracer.tape = self
                tracer._ranges = []
                return super().__enter__()

            def __exit__(self, *exc):
                tracer.tape = None
                tracer.tapes += 1
                tracer.tape_nodes += len(self.nodes)
                return super().__exit__(*exc)

        return TracedTape

    def _backward(self, real_backward):
        tracer = self
        timed = self.wrap("autodiff.backward", real_backward)

        def backward(tape, loss):
            owner: list[str | None] = [None] * len(tape.nodes)
            # inner spans close first, so the first range to claim a node is innermost
            for n0, n1, layer in tracer._ranges:
                for i in range(n0, n1):
                    if owner[i] is None:
                        owner[i] = layer
            useful = set(tape.watched)
            useful.update(node.output_id for node in tape.nodes)
            for node, layer in zip(tape.nodes, owner):
                node.grad_fn = tracer._timed_grad(node.grad_fn, layer or "other",
                                                  node.input_ids, useful)
            tracer.backward_calls += 1
            return timed(tape, loss)

        return backward

    def _timed_grad(self, grad_fn, layer, input_ids, useful):
        def timed(g):
            t0 = time.perf_counter()
            grads = grad_fn(g)
            self.bwd_s[layer] += time.perf_counter() - t0
            for tid, gi in zip(input_ids, grads):
                if gi is not None:
                    self.grad_arrays += 1
                    self.grad_useful += tid in useful
            return grads

        return timed

    def _batch_loss(self, fn):
        traced = self.wrap("training.batch_loss", fn)

        def batch_loss(*args, **kwargs):
            if self._step_start is not None:
                self.gather_s.append(time.perf_counter() - self._step_start)
                self._step_start = None
            return traced(*args, **kwargs)

        return batch_loss

    def _build_model(self, fn):
        traced = self.wrap("pipeline.build_model", fn)

        def build_model(cfg, *args, **kwargs):
            bundle = traced(cfg, *args, **kwargs)
            self.bundles[cfg] = bundle
            return bundle

        return build_model

    def _grid_train(self, train):
        def grid_train(bundle, dataset, cfg, *args, **kwargs):
            return train(bundle, StampedDataset(dataset, cfg.batch, self.new_step), cfg,
                         *args, **kwargs)

        return grid_train

    def _grid_evaluate(self, evaluate):
        def grid_evaluate(bundle, samples, batch_size: int = 64):
            return evaluate(bundle, stamped(samples, batch_size, [], self.new_step), batch_size)

        return grid_evaluate

    @contextlib.contextmanager
    def installed(self):
        """Wrap the program's public functions for the length of the block.
        Cells that `grid.run_grid` trains and scores get their steps and
        batches stamped like the benchmark's own loops."""
        w = self.wrap
        build = self._build_model(pipeline.build_model)
        train = w("training.train", training.train)
        evaluate = w("training.evaluate", training.evaluate)
        tape_class = self._tape_class()
        with patched(
                (pipeline, "encode", w("encoder.encode", pipeline.encode, layer=True)),
                (pipeline, "compress", w("compressor.compress", pipeline.compress, layer=True)),
                (pipeline, "causal_decode",
                 w("decoder.causal_decode", pipeline.causal_decode, layer=True)),
                (pipeline, "answer_logits", w("decoder.head", pipeline.answer_logits, layer=True)),
                (pipeline, "extract_patches",
                 w("frontend.extract_patches", pipeline.extract_patches)),
                (pipeline, "build_model", build),
                (grid, "build_model", build),
                (rng.RngState, "normal_array", w("rng.normal_array", rng.RngState.normal_array)),
                (autodiff, "Tape", tape_class),
                (training, "Tape", tape_class),
                (training, "backward", self._backward(training.backward)),
                (training, "batch_loss", self._batch_loss(training.batch_loss)),
                (training.Adam, "step", w("training.adam_step", training.Adam.step)),
                (training, "train", train),
                (training, "evaluate", evaluate),
                (grid, "train", self._grid_train(train)),
                (grid, "evaluate", self._grid_evaluate(evaluate)),
                (synthclips, "gen_sample", w("synthclips.gen_sample", synthclips.gen_sample)),
                (synthclips, "save_dataset", w("synthclips.save_dataset", synthclips.save_dataset)),
                (synthclips, "load_dataset", w("synthclips.load_dataset", synthclips.load_dataset)),
                (synthclips, "save_clip", w("frontend.save_clip", synthclips.save_clip)),
                (synthclips, "load_clip", w("frontend.load_clip", synthclips.load_clip)),
                (checkpoint, "save_checkpoint", w("checkpoint.save", checkpoint.save_checkpoint)),
                (checkpoint, "load_checkpoint", w("checkpoint.load", checkpoint.load_checkpoint)),
                (grid, "run_cell", w("grid.run_cell", grid.run_cell)),
                (grid, "results_to_csv", w("grid.results_to_csv", grid.results_to_csv)),
                (report, "render_table", w("report.render_table", report.render_table))):
            yield self

    # ---- results ----

    def summarize(self, matmul: dict, overhead_pct: float) -> dict[str, float]:
        """Every PER_LAYER metric: mean self ms per call for spans, tape nodes
        per taped call of a layer, `autodiff.tape.nodes` per tape opened (0
        when no tape records), backward ms and gradient counts per backward
        call, bytes per call for file spans."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        nodes: dict[str, int] = defaultdict(int)
        taped: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _, appended) in enumerate(self.spans):
            self_s[name] += end - start - child_s[i]
            calls[name] += 1
            if appended is not None:
                nodes[name] += appended
                taped[name] += 1

        def per_call(total, span):
            return total / calls[span] if calls[span] else 0.0

        per_bwd = max(self.backward_calls, 1)
        out: dict[str, float] = {
            "autodiff.tape.nodes": self.tape_nodes / max(self.tapes, 1),
            "autodiff.grad_arrays": self.grad_arrays / per_bwd,
            "autodiff.grad_arrays_useful": self.grad_useful / per_bwd,
            "autodiff.grad_useful_ratio": (self.grad_useful / self.grad_arrays
                                           if self.grad_arrays else 0.0),
            "training.batch_gather.ms": (1e3 * sum(self.gather_s) / len(self.gather_s)
                                         if self.gather_s else 0.0),
            "trace.overhead_pct": overhead_pct,
            "trace.spans": float(len(self.spans)),
            **matmul,
        }
        # the rest are named <span>.<kind>
        for name, _, _ in PER_LAYER:
            if name in out:
                continue
            span, kind = name.rsplit(".", 1)
            if kind in ("ms", "fwd_ms"):
                out[name] = 1e3 * per_call(self_s[span], span)
            elif kind == "bwd_ms":
                out[name] = 1e3 * self.bwd_s[span] / per_bwd
            elif kind == "nodes":
                out[name] = nodes[span] / taped[span] if taped[span] else 0.0
            else:
                out[name] = per_call(self.bytes[span], span)
        return {name: {"value": float(out[name]), "unit": unit} for name, unit, _ in PER_LAYER}

    def dump(self, path) -> None:
        """Write the spans as JSON lines: id, name, start/end in seconds, parent, step."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, step, appended) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "step": step,
                                     "tape_nodes": appended}) + "\n")


def matmul_counts(configs_and_bundles) -> dict[str, float]:
    """Computed kernel counts for one clip through each model: matmul calls,
    forward flops (2*M*K*N per product) and bytes touched (float64 operands
    plus result), summed over the models, beside `model_flops_per_clip`.
    Shapes alone decide these, so they repeat exactly from run to run."""
    counts = {"calls": 0, "flops": 0, "bytes": 0}
    real = autodiff.matmul

    def counting(a, b):
        out = real(a, b)
        m, inner = a.shape[-2:]
        counts["calls"] += 1
        counts["flops"] += 2 * math.prod(out.shape[:-2]) * m * inner * b.shape[-1]
        counts["bytes"] += 8 * (a.size + b.size + out.size)
        return out

    model_flops = 0
    with patched((autodiff, "matmul", counting)):
        for cfg, bundle in configs_and_bundles:
            pixels = np.zeros((1, cfg.n_input, cfg.channels, cfg.height, cfg.width))
            questions = np.zeros((1, synthclips.QUESTION_LEN), dtype=np.int64)
            pipeline.forward_logits(bundle, pixels, questions)
            model_flops += pipeline.model_flops_per_clip(cfg)
    return {"autodiff.matmul.calls": float(counts["calls"]),
            "autodiff.matmul.fwd_flops": float(counts["flops"]),
            "autodiff.matmul.bytes": float(counts["bytes"]),
            "pipeline.model_flops_per_clip": float(model_flops),
            "autodiff.matmul.flops_ratio": counts["flops"] / model_flops}
