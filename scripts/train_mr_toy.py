"""Train the baseline model on the motion-recognition task alone.

The MR generator anchors every sprite at the canvas center, so the four
motion kinds (translate, rotate, blink, grow) are separable from a few
hundred clips. With the default desk config this reaches 0.90 held-out
accuracy in under a thousand steps on one core; the periodic eval stops
training as soon as it gets there.

Usage:
    python3 scripts/train_mr_toy.py
    python3 scripts/train_mr_toy.py --train 400 --test 200 --stop-acc 0.95
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from framefuse.frontend import FusionMethod
from framefuse.pipeline import ModelConfig, build_model
from framefuse.rng import derive_seed
from framefuse.synthclips import GenConfig, TaskCategory, gen_sample
from framefuse.training import TrainConfig, evaluate, train


def mr_toy_setup(n_train: int = 400, n_test: int = 200, frames: int = 8,
                 model_seed: int = 7):
    """The MR train and test clips (seeds 101 and 202) and the baseline model;
    the defaults are acceptance criterion 6's setup."""
    gcfg = GenConfig(frames=frames)
    train_set = [gen_sample(TaskCategory.MR, derive_seed(101, "mr-train", i), gcfg)
                 for i in range(n_train)]
    test_set = [gen_sample(TaskCategory.MR, derive_seed(202, "mr-test", i), gcfg)
                for i in range(n_test)]
    bundle = build_model(ModelConfig(method=FusionMethod.BASELINE, n_input=frames),
                         model_seed)
    return train_set, test_set, bundle


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--train", type=int, default=400)
    ap.add_argument("--test", type=int, default=200)
    ap.add_argument("--frames", type=int, default=8)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--eval-every", type=int, default=100)
    ap.add_argument("--stop-acc", type=float, default=0.90)
    ap.add_argument("--model-seed", type=int, default=7)
    args = ap.parse_args()

    train_set, test_set, bundle = mr_toy_setup(args.train, args.test, args.frames,
                                               args.model_seed)
    print(f"{bundle.parameter_count()} parameters, "
          f"{len(train_set)} train / {len(test_set)} test clips")

    tcfg = TrainConfig(total_steps=args.steps,
                       warmup_steps=max(args.steps // 10, 1))
    start = time.monotonic()
    result = train(bundle, train_set, tcfg, eval_samples=test_set,
                   eval_every=args.eval_every, stop_accuracy=args.stop_acc)
    wall = time.monotonic() - start
    for step, acc in result.evals:
        print(f"step {step:5d}  test acc {acc:.3f}")
    final = evaluate(bundle, test_set)
    print(f"done: {result.steps_run} steps in {wall:.1f}s, "
          f"final loss {result.final_loss:.4f}, test acc {final.accuracy:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
