"""Command-line entry points.

Exit codes: 0 success, 1 validation error (bad config, bad file, bad shapes),
2 numerical failure (diverged loss, failed gradient check, overflowing eval
forward).
"""
from __future__ import annotations

import argparse
import sys

from .checkpoint import (apply_checkpoint, load_checkpoint,
                         load_checkpoint_meta, save_checkpoint)
from .compressor import token_budget
from .errors import (BadConfig, NumericalError, ValidationError, check_json,
                     check_keys, out_path, read_json, read_text)
from .frontend import FusionMethod, parse_method
from .gradcheck import SUITES, run_gradient_suite
from .grid import ExperimentSpec, GridAxis, results_to_csv, run_grid
from .pipeline import ModelConfig, build_model, config_from_dict, config_to_dict
from .report import read_table_csv, render_table
from .synthclips import GenConfig, dataset_stats, gen_dataset, load_dataset, save_dataset
from .training import TrainConfig, evaluate, train


def cmd_gen_data(args) -> int:
    gcfg = GenConfig(frames=args.frames)
    samples, stats = gen_dataset(args.per_category, args.seed, gcfg)
    save_dataset(samples, args.out, gcfg, stats)
    print(f"wrote {stats.samples} samples to {args.out} "
          f"(density {stats.annotation_density:.4f} {stats.unit}/s)")
    return 0


def cmd_train(args) -> int:
    out_path(args.out, "checkpoint")
    out_path(f"{args.out}.json", "checkpoint sidecar")
    tcfg = (TrainConfig(**check_keys(read_json(args.config, "config"), TrainConfig, "train config"))
            if args.config else TrainConfig())
    cfg = ModelConfig(method=FusionMethod(args.method), k=args.k, n_input=args.n_input)
    if args.data:
        dataset, gcfg = load_dataset(args.data)
        if gcfg.frames != args.n_input:
            raise BadConfig(f"dataset clips have {gcfg.frames} frames, model wants {args.n_input}")
    else:
        dataset, _ = gen_dataset(args.per_category, tcfg.seed, GenConfig(frames=args.n_input))
    bundle = build_model(cfg, tcfg.seed)
    result = train(bundle, dataset, tcfg)
    every = max(1, len(result.losses) // 10) if result.losses else 1
    for step, value in enumerate(result.losses):
        if step % every == 0 or step == len(result.losses) - 1:
            print(f"step {step} loss {value:.6f}")
    save_checkpoint(bundle.params, args.out,
                    meta={"model": config_to_dict(cfg),
                          # JSON has no NaN: a run of no steps has no final loss
                          "final_loss": result.final_loss if result.losses else None,
                          "steps": result.steps_run})
    print(f"saved {args.out} (final loss {result.final_loss:.6f})")
    return 0


def cmd_eval(args) -> int:
    meta = load_checkpoint_meta(args.ckpt)
    if "model" not in meta:
        raise BadConfig(f"{args.ckpt}: sidecar lacks a model config")
    cfg = config_from_dict(meta["model"])
    bundle = build_model(cfg, 0)
    apply_checkpoint(bundle.params, load_checkpoint(args.ckpt))
    dataset, gcfg = load_dataset(args.data)
    if gcfg.frames != cfg.n_input:
        raise BadConfig(f"dataset clips have {gcfg.frames} frames, model wants {cfg.n_input}")
    score = evaluate(bundle, dataset)
    print("category,accuracy,n")
    for cat, acc in score.per_category.items():
        print(f"{cat},{acc:.6f},{score.category_counts[cat]}")
    print(f"avg,{score.accuracy:.6f},{score.n}")
    return 0


def cmd_grid(args) -> int:
    kwargs = check_keys(read_json(args.config, "config"), ExperimentSpec, "experiment config")
    axes = ", ".join(a.value for a in GridAxis)
    if "axis" not in kwargs:
        raise BadConfig(f"experiment config {args.config} needs an \"axis\": {axes}")
    try:
        kwargs["axis"] = GridAxis(kwargs["axis"])
    except ValueError:
        raise BadConfig(f"unknown axis {kwargs['axis']!r}; expected one of {axes}") from None
    if "train" in kwargs:
        kwargs["train"] = TrainConfig(**check_keys(kwargs["train"], TrainConfig, "train config"))
    if "methods" in kwargs:
        methods = check_json(kwargs["methods"], list, "methods")
        kwargs["methods"] = tuple(parse_method(m) for m in methods)
    if "k_values" in kwargs:
        kwargs["k_values"] = tuple(check_json(kwargs["k_values"], list, "k_values"))
    spec = ExperimentSpec(**kwargs)
    out = out_path(args.out, "results")
    results = run_grid(spec)
    text = results_to_csv(results, include_flops=args.flops)
    out.write_text(text)
    print(f"wrote {len(results)} rows to {args.out}")
    if args.report:
        print(render_table(read_table_csv(text), args.report), end="")
    return 0


def cmd_budget(args) -> int:
    budget = token_budget(args.n_input, args.l, args.k)
    print("n_input,l,k,l_decoder")
    print(f"{budget.n_input},{budget.per_frame_tokens},{budget.ratio},{budget.l_decoder}")
    return 0


def cmd_gradcheck(args) -> int:
    reports = run_gradient_suite((args.module,) if args.module else SUITES)
    failed = []
    for name, report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {name}: max rel err {report.max_rel_err:.3e} (tol {report.tol:.0e})")
        if not report.passed:
            failed.append(name)
    if failed:
        raise NumericalError(f"{len(failed)} case(s) failed: {', '.join(failed)}")
    return 0


def cmd_report(args) -> int:
    out = out_path(args.out, "report") if args.out else None
    src = getattr(args, "in")
    text = read_text(src, "table")
    try:
        table = read_table_csv(text)
    except BadConfig as err:
        raise BadConfig(f"table {src}: {err}") from err
    text = render_table(table, args.format)
    if out:
        out.write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_stats(args) -> int:
    samples, _ = load_dataset(args.data)
    print(dataset_stats(samples, unit=args.unit).to_csv(), end="")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (validation), not argparse's 2; subparsers inherit this."""

    def error(self, message):
        raise BadConfig(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="framefuse", description="Video token compression testbed")
    sub = parser.add_subparsers(dest="command", required=True)
    methods = [m.value for m in FusionMethod]

    p = sub.add_parser("gen-data", help="generate a synthetic MCQ dataset")
    p.add_argument("--per-category", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=16)
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--method", choices=methods, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-input", type=int, required=True)
    p.add_argument("--config", help="JSON with TrainConfig fields")
    p.add_argument("--data", help="dataset directory; generated when omitted")
    p.add_argument("--per-category", type=int, default=50,
                   help="per-category size of the generated dataset")
    p.add_argument("--out", default="model.tfz")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("grid", help="run an ablation grid")
    p.add_argument("--config", required=True,
                   help="JSON with ExperimentSpec fields, such as experiments/*.json")
    p.add_argument("--out", default="results.csv")
    p.add_argument("--flops", action="store_true", help="append a flops-per-clip column")
    p.add_argument("--report", choices=("md", "csv"),
                   help="also render the results table to stdout")
    p.set_defaults(handler=cmd_grid)

    p = sub.add_parser("budget", help="decoder token budget arithmetic")
    p.add_argument("--n-input", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=cmd_budget)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--module", choices=SUITES)
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("report", help="render a results CSV")
    p.add_argument("--in", required=True)
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("--data", required=True)
    p.add_argument("--unit", choices=("words", "chars"), default="words")
    p.set_defaults(handler=cmd_stats)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
