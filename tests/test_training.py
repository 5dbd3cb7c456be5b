import math
import tracemalloc
import weakref

import numpy as np
import pytest

from framefuse import training
from framefuse.autodiff import Tensor
from framefuse.decoder import mcq_loss, predict
from framefuse.errors import BadConfig, NumericalError
from framefuse.frontend import FusionMethod, extract_patches
from framefuse.pipeline import ModelConfig, build_model, forward_logits
from framefuse.synthclips import (GenConfig, TaskCategory, gen_dataset, gen_sample,
                                  load_dataset, save_dataset)
from framefuse.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Adam,
                                EvalResult, TrainConfig, evaluate, lr_at, train)
from framefuse.rng import derive_seed

from oracles import adam_closed_form

MICRO = dict(n_input=4, height=28, width=28, patch=14, enc_layers=1,
             enc_hidden=8, enc_heads=2, enc_ffn=12, out_hidden=8, dec_layers=1,
             dec_hidden=8, dec_heads=2, dec_ffn=12, vocab=38,
             qformer_layers=1, qformer_heads=2)
GCFG = GenConfig(frames=4)


def micro_bundle(seed=0):
    return build_model(ModelConfig(method=FusionMethod.BASELINE, **MICRO), seed)


def tiny_dataset(n=8, seed=0):
    return [gen_sample(TaskCategory.MR, derive_seed(seed, "s", i), GCFG)
            for i in range(n)]


def test_train_config_validation():
    with pytest.raises(BadConfig):
        TrainConfig(total_steps=-1)
    with pytest.raises(BadConfig):
        TrainConfig(batch=0)
    with pytest.raises(BadConfig):
        TrainConfig(total_steps=100, warmup_steps=100)
    with pytest.raises(BadConfig):
        TrainConfig(lr=1e-4, min_lr=1e-3)
    with pytest.raises(BadConfig, match="min_lr must be non-negative"):
        TrainConfig(lr=-1.0, min_lr=-2.0)
    TrainConfig(lr=0.0, min_lr=0.0)


def test_train_config_desk_defaults():
    cfg = TrainConfig()
    assert cfg.total_steps == 2000
    assert cfg.warmup_steps == 200
    assert cfg.batch == 32
    assert cfg.lr == 3e-4
    assert cfg.min_lr == 3e-5
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.95, 1e-8)


def test_lr_schedule_endpoints():
    cfg = TrainConfig(total_steps=1000, warmup_steps=100, lr=3e-4, min_lr=3e-5)
    assert lr_at(0, cfg) == 0.0
    assert lr_at(50, cfg) == pytest.approx(1.5e-4)
    assert lr_at(100, cfg) == pytest.approx(3e-4)
    assert lr_at(1000, cfg) == pytest.approx(3e-5)
    assert lr_at(2000, cfg) == pytest.approx(3e-5)
    mid = lr_at(550, cfg)
    assert lr_at(100, cfg) > mid > lr_at(1000, cfg)
    assert mid == pytest.approx((3e-4 + 3e-5) / 2)


def test_lr_schedule_non_increasing_after_warmup():
    cfg = TrainConfig(total_steps=500, warmup_steps=50)
    values = [lr_at(s, cfg) for s in range(50, 501)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_adam_single_step_matches_reference():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    params = {"p": p}
    opt = Adam(params)
    g = np.array([0.5, -1.0])
    opt.step(params, {p: g}, lr=0.1)
    # bias-corrected m/c1 = g, v/c2 = g^2 on the first step
    expect = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + ADAM_EPS)
    assert np.allclose(p.data, expect)


def test_adam_steps_match_closed_form_bitwise():
    rng = np.random.default_rng(5)
    shapes = {"w": (6, 4), "b": (4,), "s": ()}
    params = {n: Tensor(rng.normal(size=s), requires_grad=True) for n, s in shapes.items()}
    want = {n: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape))
            for n, p in params.items()}
    opt = Adam(params)
    for t, lr in ((1, 0.1), (2, 3e-4), (3, 0.02)):
        grads = {p: rng.normal(0.0, 10.0 ** (t - 2), p.shape) for p in params.values()}
        opt.step(params, grads, lr)
        for name, p in params.items():
            want[name] = adam_closed_form(*want[name], grads[p], t, lr)
            for got, expect in zip((p.data, opt.m[name], opt.v[name]), want[name]):
                assert got.tobytes() == expect.tobytes()


def test_adam_is_scale_invariant_on_first_step():
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam({"p": p})
    opt.step({"p": p}, {p: np.array([1e-6, 1.0, 1e6])}, lr=0.01)
    assert np.allclose(np.abs(p.data), 0.01, rtol=0.02)


def test_zero_steps_leaves_params_unchanged():
    bundle = micro_bundle()
    before = {n: p.data.copy() for n, p in bundle.params.items()}
    result = train(bundle, tiny_dataset(), TrainConfig(total_steps=0, warmup_steps=0))
    assert result.steps_run == 0
    assert math.isnan(result.final_loss)
    for name, p in bundle.params.items():
        assert np.array_equal(p.data, before[name])


def test_train_requires_data():
    with pytest.raises(BadConfig):
        train(micro_bundle(), [], TrainConfig(total_steps=1, warmup_steps=0))


def test_train_runs_and_records_losses():
    bundle = micro_bundle(1)
    cfg = TrainConfig(total_steps=5, warmup_steps=1, batch=4, seed=3)
    result = train(bundle, tiny_dataset(), cfg)
    assert result.steps_run == 5
    assert len(result.losses) == 5
    assert all(math.isfinite(v) for v in result.losses)
    assert result.final_loss == result.losses[-1]
    assert result.evals == []


def test_batch_arrays_keep_float32_and_extract_patches_widens_exactly():
    samples = tiny_dataset(3)
    assert samples[0].clip.pixels.data.dtype == np.float32
    pixels, questions, answers = training._batch_arrays(samples)
    assert pixels.dtype == np.float32
    assert pixels.shape == (3, 4, 3, 28, 28)
    for row, s in zip(pixels, samples):
        assert np.array_equal(row, s.clip.pixels.data)
    assert questions.shape == (3, len(samples[0].question_ids))
    assert answers.tolist() == [s.answer_idx for s in samples]
    # the widening happens in extract_patches' copy and changes no byte
    wide = pixels.astype(np.float64)
    rows = extract_patches(pixels, 14)
    assert rows.dtype == np.float64
    assert rows.tobytes() == extract_patches(wide, 14).tobytes()
    for method, k in ((FusionMethod.BASELINE, 1), (FusionMethod.PRE_ENCODER_CHANNEL_MERGE, 2)):
        bundle = build_model(ModelConfig(method=method, **{**MICRO, "k": k}), 2)
        assert (forward_logits(bundle, pixels, questions).data.tobytes()
                == forward_logits(bundle, wide, questions).data.tobytes())


def test_train_on_reloaded_dataset_matches_generated(tmp_path):
    """A saved-and-reloaded dataset trains bit for bit like the generated one:
    2 desk steps, every loss and every parameter."""
    gcfg = GenConfig(frames=8)
    samples, stats = gen_dataset(6, 5, gcfg)
    save_dataset(samples, tmp_path / "ds", gcfg, stats)
    loaded, _ = load_dataset(tmp_path / "ds")
    cfg = TrainConfig(total_steps=2, warmup_steps=1, seed=3)
    runs = []
    for data in (samples, loaded):
        bundle = build_model(ModelConfig(method=FusionMethod.POST_POOL_PLLAVA, k=4), 9)
        runs.append((train(bundle, data, cfg).losses, bundle.params))
    (losses_a, params_a), (losses_b, params_b) = runs
    assert len(losses_a) == 2 and losses_a == losses_b
    for name, p in params_a.items():
        assert np.array_equal(p.data, params_b[name].data), name


def test_train_is_deterministic():
    data = tiny_dataset()
    cfg = TrainConfig(total_steps=4, warmup_steps=1, batch=4, seed=9)
    r1 = train(micro_bundle(2), data, cfg)
    r2 = train(micro_bundle(2), data, cfg)
    assert r1.losses == r2.losses


def test_train_diverged_loss_aborts_with_step_index():
    bundle = micro_bundle(3)
    bundle.params["patch_proj.w"].data[0, 0] = np.nan
    cfg = TrainConfig(total_steps=5, warmup_steps=1, batch=4)
    with pytest.raises(NumericalError, match="step 0: loss nan"):
        train(bundle, tiny_dataset(), cfg)


def test_train_early_stop_on_accuracy():
    bundle = micro_bundle(4)
    data = tiny_dataset()
    cfg = TrainConfig(total_steps=6, warmup_steps=1, batch=4)
    result = train(bundle, data, cfg, eval_samples=data, eval_every=2,
                   stop_accuracy=0.0)
    assert result.steps_run == 2
    assert [step for step, _ in result.evals] == [2]


def test_train_frees_each_steps_gradients_and_batch_before_the_next(monkeypatch):
    # alive while the next batch is stacked, they split the heap, and the next
    # step's patch rows land past its top instead of in this step's space
    refs, alive = [], []
    real_backward, real_batch = training.backward, training._batch_arrays

    def backward(tape, loss):
        grads = real_backward(tape, loss)
        refs.append(weakref.ref(grads))
        return grads

    def batch_arrays(samples):
        alive.append(sum(ref() is not None for ref in refs))
        arrays = real_batch(samples)
        refs.append(weakref.ref(arrays[0]))
        return arrays

    monkeypatch.setattr(training, "backward", backward)
    monkeypatch.setattr(training, "_batch_arrays", batch_arrays)
    train(micro_bundle(4), tiny_dataset(), TrainConfig(total_steps=3, warmup_steps=1, batch=4))
    assert (alive, len(refs)) == ([0, 0, 0], 6)


@pytest.mark.parametrize("eval_every", [0, -2])
def test_train_rejects_eval_every_below_one(eval_every):
    # Python's % takes a negative divisor, so -2 used to evaluate every 2 steps
    bundle = micro_bundle(4)
    before = {name: p.data.copy() for name, p in bundle.params.items()}
    cfg = TrainConfig(total_steps=4, warmup_steps=1, batch=4)
    with pytest.raises(BadConfig, match="eval_every"):
        train(bundle, tiny_dataset(), cfg, eval_samples=tiny_dataset(), eval_every=eval_every)
    assert all(np.array_equal(p.data, before[name]) for name, p in bundle.params.items())


def test_train_eval_every_none_evaluates_never():
    cfg = TrainConfig(total_steps=2, warmup_steps=1, batch=4)
    result = train(micro_bundle(4), tiny_dataset(), cfg, eval_samples=tiny_dataset(),
                   eval_every=None)
    assert (result.steps_run, result.evals) == (2, [])


@pytest.mark.parametrize("batch_size", [0, -5])
def test_evaluate_rejects_batch_size_below_one(batch_size, monkeypatch):
    # a size below 1 used to score every clip, one clip per forward
    calls = recorded_forwards(monkeypatch)
    with pytest.raises(BadConfig, match="batch_size"):
        evaluate(micro_bundle(5), tiny_dataset(3), batch_size=batch_size)
    assert calls == []


def test_evaluate_counts_and_categories():
    bundle = micro_bundle(5)
    data = tiny_dataset(6)
    res = evaluate(bundle, data, batch_size=4)
    assert isinstance(res, EvalResult)
    assert res.n == 6
    assert set(res.per_category) == {"MR"}
    assert res.category_counts == {"MR": 6}
    assert 0.0 <= res.accuracy <= 1.0
    assert res.mean_loss > 0.0


def test_evaluate_streams_iterables():
    bundle = micro_bundle(5)
    data = tiny_dataset(6)
    eager = evaluate(bundle, data, batch_size=4)
    lazy = evaluate(bundle, iter(data), batch_size=2)
    assert lazy.accuracy == eager.accuracy
    assert lazy.n == eager.n


def test_evaluate_zero_head_measures_position_zero():
    bundle = micro_bundle(6)
    bundle.params["dec.head_w"].data[...] = 0.0
    bundle.params["dec.head_b"].data[...] = 0.0
    data = tiny_dataset(12)
    res = evaluate(bundle, data)
    expect = sum(1 for s in data if s.answer_idx == 0) / len(data)
    assert res.accuracy == pytest.approx(expect)


def test_evaluate_empty_stream_rejected():
    with pytest.raises(BadConfig):
        evaluate(micro_bundle(), [])


def recorded_forwards(monkeypatch):
    """Patch evaluate's forward to record each call's pixel batch shape and
    logits."""
    calls = []

    def recording(bundle, pixels, questions):
        logits = forward_logits(bundle, pixels, questions)
        calls.append((pixels.shape, logits.data))
        return logits

    monkeypatch.setattr(training, "forward_logits", recording)
    return calls


def one_forward(bundle, samples):
    """Logits of all `samples` in one forward, and their answers."""
    pixels, questions, answers = training._batch_arrays(samples)
    return forward_logits(bundle, pixels, questions), answers


def test_evaluate_peak_memory():
    """tracemalloc peak of `evaluate` on 64 desk clips, in units of the batch's
    float64 pixel bytes: 2.43 while the whole batch was widened before patch
    extraction, 1.93 once extract_patches widens in its own copy."""
    bundle = build_model(ModelConfig(method=FusionMethod.BASELINE, n_input=8), 3)
    data = gen_dataset(11, 6, GenConfig(frames=8))[0][:64]
    evaluate(bundle, data)  # first-call allocations
    tracemalloc.start()  # traces only what is allocated from here on
    try:
        evaluate(bundle, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * (64 * 8 * 3 * 28 * 28 * 8)


def test_evaluate_desk_chunk_is_one_forward(monkeypatch):
    bundle = build_model(ModelConfig(method=FusionMethod.POST_POOL_PLLAVA, k=2), 3)
    data = gen_dataset(11, 4, GenConfig(frames=8))[0][:64]
    logits, answers = one_forward(bundle, data)
    calls = recorded_forwards(monkeypatch)
    res = evaluate(bundle, data)
    assert [shape for shape, _ in calls] == [(64, 8, 3, 28, 28)]
    hits = predict(logits) == answers
    assert res.mean_loss == mcq_loss(logits, answers).item() * 64 / 64
    assert res.accuracy == int(hits.sum()) / 64
    for cat, acc in res.per_category.items():
        mine = [i for i, s in enumerate(data) if s.category.value == cat]
        assert acc == int(hits[mine].sum()) / len(mine)


def test_evaluate_fine_chunk_splits_at_token_budget(monkeypatch):
    cfg = ModelConfig(method=FusionMethod.BASELINE, n_input=16, patch=7)
    bundle = build_model(cfg, 3)
    data = gen_dataset(4, 4, GenConfig(frames=16))[0]
    logits, answers = one_forward(bundle, data)
    calls = recorded_forwards(monkeypatch)
    res = evaluate(bundle, data)
    assert [shape[0] for shape, _ in calls] == [8, 8, 8]
    assert all(shape[0] * cfg.n_input * cfg.tokens_per_frame <= 2048 for shape, _ in calls)
    split = np.concatenate([part for _, part in calls])
    assert np.array_equal(predict(Tensor(split)), predict(logits))
    expect = mcq_loss(logits, answers).item()
    assert abs(res.mean_loss - expect) <= 1e-12 * abs(expect)
    assert evaluate(bundle, data) == res
