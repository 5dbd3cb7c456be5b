"""End-to-end acceptance checks, one test per criterion.

Each test prints one PASS line with the measured values (visible under
pytest -rP or -s); a failed assert is the FAIL line. These are the gate the
rest of the suite builds toward, so none of them are marked slow.
"""
import importlib.util
import math
import time
from pathlib import Path

import numpy as np

from framefuse import cli
from framefuse.autodiff import Tensor
from framefuse.compressor import (kangaroo_temporal_mlp, pllava_temporal_pool,
                                  spatial_downsample_with_proj, token_budget)
from framefuse.encoder import init_encoder_params
from framefuse.errors import BadConfig
from framefuse.frontend import COMPRESSION_METHODS, FusionMethod
from framefuse.pipeline import (ModelConfig, build_model, forward_logits,
                                video_token_forward)
from framefuse.report import read_table_csv, render_table
from framefuse.rng import RngState, derive_seed
from framefuse.synthclips import (CATEGORY_ORDER, DatasetStats, GenConfig,
                                  TaskCategory, gen_sample)
from framefuse.training import TrainConfig, evaluate, train
from oracles import (build_scope_mask, kangaroo_identity_mlp, masked_encode,
                     rc_transition_count)

DATA = Path(__file__).parent / "data"
EXPERIMENTS = Path(__file__).parents[1] / "experiments"
MR_TOY = Path(__file__).parents[1] / "scripts" / "train_mr_toy.py"
_spec = importlib.util.spec_from_file_location("train_mr_toy", MR_TOY)
mr_toy = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mr_toy)

# 99% two-sided normal quantile, frozen so the bound is arithmetic, not a
# library lookup
Z_99 = 2.5758293035489004
CHI2_CRIT_DF3_P99 = 11.344866730144373


def report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_gradient_suite(gradient_suite):
    reports, elapsed = gradient_suite
    assert len(reports) == 19  # 16 op cases + 3 composites
    ops = [(n, r) for n, r in reports if r.tol == 1e-6]
    composites = [(n, r) for n, r in reports if r.tol == 1e-4]
    assert len(ops) == 16 and len(composites) == 3
    assert {n for n, _ in composites} == {"channel-merge", "qformer",
                                          "through-encoder"}
    for name, rep in reports:
        assert rep.passed, f"{name}: rel err {rep.max_rel_err:.3e}"
        assert rep.max_rel_err < rep.tol
    assert elapsed < 120.0
    worst = max(r.max_rel_err for _, r in reports)
    report(1, f"19 gradient checks pass (worst rel err {worst:.2e}) "
              f"in {elapsed:.1f}s")


def _audit_config(method, k, n_input):
    # 7px patches on the 28px canvas give a 4x4 grid, so l=4 and the budget
    # formula is exercised with a non-trivial per-frame token count
    return ModelConfig(method=method, k=k, n_input=n_input, height=28,
                       width=28, patch=7, enc_layers=1, enc_hidden=8,
                       enc_heads=2, enc_ffn=12, out_hidden=8, dec_layers=1,
                       dec_hidden=8, dec_heads=2, dec_ffn=12, vocab=38,
                       qformer_layers=1, qformer_heads=2)


def test_criterion_2_budget_exactness():
    start = time.monotonic()
    rng = RngState(derive_seed(0, "budget-audit"))
    audited = 0
    undefined = 0
    for method in COMPRESSION_METHODS:
        for k in (1, 2, 4, 8, 16):
            for n_input in (8, 16, 32):
                if n_input % k:
                    try:
                        _audit_config(method, k, n_input)
                    except BadConfig as err:
                        assert "not divisible by k" in str(err)
                        undefined += 1
                        continue
                    raise AssertionError(f"k={k} n={n_input} accepted")
                cfg = _audit_config(method, k, n_input)
                expected = n_input * cfg.tokens_per_group // k
                assert cfg.budget.l_decoder == expected
                assert token_budget(n_input, 4, k).l_decoder == expected
                bundle = build_model(cfg, 3)
                pixels = rng.uniform_array((1, n_input, 3, 28, 28))
                tokens = video_token_forward(bundle, pixels)
                assert tokens.shape == (1, expected, cfg.out_hidden)
                audited += 1
    elapsed = time.monotonic() - start
    assert audited == 70 and undefined == 5  # k=16 never divides N_input=8
    assert elapsed < 60.0
    report(2, f"70 defined cells emit exactly N*l/k tokens "
              f"(5 undefined rejected) in {elapsed:.1f}s")


def _perturbation_blocks_changed(layers, block, frames=4, tokens=4, hidden=8):
    """Encode, bump one frame's tokens, return which frames' outputs moved."""
    cfg = ModelConfig(method=FusionMethod.BASELINE, enc_layers=layers, enc_hidden=hidden,
                      enc_heads=2, enc_ffn=12)
    params = init_encoder_params(cfg, RngState(derive_seed(9, "scope", layers)), 0.02)
    mask = build_scope_mask(frames * tokens, block)
    base = RngState(derive_seed(9, "x", layers)).normal_array(
        (frames * tokens, hidden))
    bumped = base.copy()
    bumped[tokens:2 * tokens] += 0.75  # frame 1
    out_a = masked_encode(Tensor(base), cfg, mask, params).data
    out_b = masked_encode(Tensor(bumped), cfg, mask, params).data
    changed = []
    for f in range(frames):
        rows = slice(f * tokens, (f + 1) * tokens)
        changed.append(not np.array_equal(out_a[rows], out_b[rows]))
    return changed


def test_criterion_3_scope_isolation():
    start = time.monotonic()
    for layers in (1, 2, 3):
        # per-frame scope: only the perturbed frame may move, bitwise
        assert _perturbation_blocks_changed(layers, block=4) == \
            [False, True, False, False]
        # per-group scope with k=2: the whole first group moves (attention
        # crosses frames inside the group), the second group is untouched
        assert _perturbation_blocks_changed(layers, block=8) == \
            [True, True, False, False]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, f"per-frame and per-group isolation hold bitwise at "
              f"1-3 layers in {elapsed:.1f}s")


def test_criterion_4_degeneracy_chain():
    dims = dict(k=1, n_input=4, enc_layers=1, enc_hidden=8, enc_heads=2,
                enc_ffn=12, out_hidden=8, dec_layers=1, dec_hidden=8,
                dec_heads=2, dec_ffn=12, vocab=38)
    base = build_model(ModelConfig(method=FusionMethod.BASELINE, **dims), 11)
    te = build_model(ModelConfig(method=FusionMethod.THROUGH_ENCODER, **dims), 11)
    te.params["pos.temporal"].data[:] = 0.0  # the one non-shared parameter
    pixels = RngState(12).uniform_array((2, 4, 3, 28, 28))
    assert np.array_equal(video_token_forward(base, pixels).data,
                          video_token_forward(te, pixels).data)
    question = np.tile(np.arange(5, dtype=np.int64), (2, 1))
    assert np.array_equal(forward_logits(base, pixels, question).data,
                          forward_logits(te, pixels, question).data)

    frames = Tensor(RngState(13).normal_array((3, 4, 8)))
    pooled = pllava_temporal_pool(frames, 1)
    assert np.array_equal(pooled.data, frames.data)

    h = 8
    grouped = Tensor(RngState(14).normal_array((4, 16, h)))
    params = {f"comp.{k}": Tensor(v) for k, v in kangaroo_identity_mlp(h).items()}
    proj_w = Tensor(RngState(15).normal_array((4 * h, h)))
    proj_b = Tensor(RngState(16).normal_array((h,)))
    params["comp.proj_w"], params["comp.proj_b"] = proj_w, proj_b
    mlp_out = kangaroo_temporal_mlp(grouped, 1, params)
    direct = spatial_downsample_with_proj(grouped, proj_w, proj_b)
    gap = float(np.max(np.abs(mlp_out.data - direct.data)))
    assert gap <= 1e-12
    report(4, f"TE k=1 is bitwise baseline, pooling k=1 is identity, "
              f"identity perceptron gap {gap:.1e} <= 1e-12")


PER_CATEGORY = 667  # 667 * 6 = 4002, the closest balanced count >= 4000


def _balanced_stream(gcfg, positions):
    for cat in CATEGORY_ORDER:
        for i in range(PER_CATEGORY):
            s = gen_sample(cat, derive_seed(31, "balanced", cat.value, i), gcfg)
            positions.append(s.answer_idx)
            yield s


def test_criterion_5_protocol_arithmetic():
    for words, seconds, density in ((684, 10, 68.4), (1263, 100, 12.63)):
        stats = DatasetStats(samples=1, per_category={}, total_question_length=words,
                             total_duration_seconds=seconds, option_position_histogram=(1, 0, 0, 0))
        assert stats.annotation_density == density

    bundle = build_model(ModelConfig(method=FusionMethod.BASELINE, n_input=8), 5)
    positions: list[int] = []
    result = evaluate(bundle, _balanced_stream(GenConfig(frames=8), positions))
    n = result.n
    assert n == 6 * PER_CATEGORY
    half_width = Z_99 * math.sqrt(0.25 * 0.75 / n)
    lo, hi = 0.25 - half_width, 0.25 + half_width
    assert lo <= result.accuracy <= hi, (result.accuracy, lo, hi)

    # reused by criterion 9: answer positions from the same balanced stream
    test_criterion_5_protocol_arithmetic.positions = positions
    report(5, f"densities exact; random-init accuracy {result.accuracy:.4f} "
              f"within [{lo:.4f}, {hi:.4f}] over {n} samples")


def test_criterion_6_toy_trainability():
    train_set, test_set, bundle = mr_toy.mr_toy_setup()
    start = time.monotonic()
    result = train(bundle, train_set, TrainConfig(), eval_samples=test_set,
                   eval_every=100, stop_accuracy=0.90)
    elapsed = time.monotonic() - start
    assert result.steps_run <= 2000
    assert result.evals and result.evals[-1][1] >= 0.90
    assert elapsed < 300.0
    train_acc = evaluate(bundle, train_set).accuracy
    assert train_acc >= 0.95
    report(6, f"test accuracy {result.evals[-1][1]:.2f} at step "
              f"{result.steps_run} (train {train_acc:.2f}) in {elapsed:.0f}s")


def test_criterion_7_grid_reproduction(tmp_path, capsys):
    # 16 frames, k in 2/4/8/16, 2 steps a cell on 2/2 clips per category
    config = EXPERIMENTS / "fixed_frames_quick.json"
    runs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli.main(["grid", "--config", str(config), "--out", str(out)])
        assert code == 0
        runs.append(out.read_bytes())
    capsys.readouterr()
    assert runs[0] == runs[1]
    lines = runs[0].decode().strip().split("\n")
    assert len(lines) == 21  # header + 5 methods x 4 ratios
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods == [m.value for m in COMPRESSION_METHODS for _ in range(4)]
    ks = [int(line.split(",")[1]) for line in lines[1:]]
    assert ks == [2, 4, 8, 16] * 5
    report(7, "20-row fixed-frames grid is byte-identical across reruns")


def test_criterion_8_report_fixture():
    table = read_table_csv((DATA / "ablation_16frame.csv").read_text())
    rendered = render_table(table, "md")
    assert rendered == (DATA / "ablation_16frame_golden.md").read_text()
    te_k4 = next(line for line in rendered.split("\n")
                 if line.startswith("| through-encoder | 4 |"))
    for cell in ("**51.0**", "**72.1**", "**61.0**", "**42.1**", "**34.5**"):
        assert cell in te_k4
    assert "**47.3**" not in te_k4  # the medium column goes to pooling
    pl_k4 = next(line for line in rendered.split("\n")
                 if line.startswith("| pllava-pool | 4 |"))
    assert "**47.6**" in pl_k4
    report(8, "rendered ablation table matches the golden bolding pattern")


def test_criterion_9_synthetic_truth_oracles():
    gcfg = GenConfig(frames=16)
    agree = 0
    for i in range(100):
        s = gen_sample(TaskCategory.RC, derive_seed(77, "rc-oracle", i), gcfg)
        agree += int(f"count:{rc_transition_count(s.clip)}" == s.options[s.answer_idx])
    assert agree == 100

    positions = getattr(test_criterion_5_protocol_arithmetic, "positions", None)
    if positions is None:  # criterion 5 did not run first; rebuild the stream
        positions = []
        for _ in _balanced_stream(GenConfig(frames=8), positions):
            pass
    counts = np.bincount(np.array(positions), minlength=4).astype(np.float64)
    n = float(len(positions))
    chi2 = float(np.sum((counts - n / 4) ** 2 / (n / 4)))
    assert chi2 <= CHI2_CRIT_DF3_P99, (chi2, counts)
    report(9, f"RC oracle agreement 100/100; position chi-square "
              f"{chi2:.2f} <= {CHI2_CRIT_DF3_P99:.2f}")
