import math

import numpy as np
import pytest

from framefuse import autodiff, pipeline
from framefuse.autodiff import Tape, backward
from framefuse.decoder import mcq_loss
from framefuse.errors import BadConfig, ShapeMismatch
from framefuse.frontend import (COMPRESSION_METHODS, FusionMethod, extract_patches,
                                merge_temporal_channels)
from framefuse.gradcheck import micro_gradcheck_cases
from framefuse.pipeline import (ModelConfig, batch_loss, build_model,
                                config_from_dict, config_to_dict,
                                forward_logits, model_flops_per_clip,
                                video_token_forward)
from framefuse.rng import RngState
from framefuse.synthclips import TOKEN_TO_ID, VOCAB
from oracles import all_scopes_forward_logits, byte_groups, patch_row_batch_loss
from test_acceptance import _audit_config

MICRO = dict(n_input=4, height=8, width=8, patch=2, enc_layers=1, enc_hidden=8,
             enc_heads=2, enc_ffn=12, out_hidden=8, dec_layers=1, dec_hidden=8,
             dec_heads=2, dec_ffn=12, vocab=len(VOCAB),
             qformer_layers=1, qformer_heads=2)


def micro_cfg(method, k=1, **over):
    kwargs = dict(MICRO)
    kwargs.update(over)
    return ModelConfig(method=method, k=k, **kwargs)


def question_batch(b):
    row = [TOKEN_TO_ID["ask:mr"], TOKEN_TO_ID["mr:translate"],
           TOKEN_TO_ID["mr:rotate"], TOKEN_TO_ID["mr:blink"],
           TOKEN_TO_ID["mr:grow"]]
    return np.array([row] * b)


def test_default_config_arithmetic():
    cfg = ModelConfig(method=FusionMethod.BASELINE)
    assert cfg.patch == 14
    assert cfg.tokens_per_frame == 4
    assert cfg.tokens_per_group == 1
    assert cfg.budget.l_decoder == 8


def test_config_validation():
    with pytest.raises(BadConfig, match="30x28 not divisible by patch 14"):
        ModelConfig(method=FusionMethod.BASELINE, height=30, width=28)
    with pytest.raises(BadConfig):
        # 1x2 patch grid is not square
        ModelConfig(method=FusionMethod.BASELINE, height=14, width=28)
    with pytest.raises(BadConfig):
        # 2x8 patch grid: 16 tokens, a square count, but not a square grid
        ModelConfig(method=FusionMethod.BASELINE, height=28, width=112)
    with pytest.raises(BadConfig):
        # 3x3 patch grid has no 2x2 window tiling
        ModelConfig(method=FusionMethod.BASELINE, height=42, width=42)
    with pytest.raises(BadConfig, match="out_hidden 6 .*qformer_heads 4"):
        ModelConfig(method=FusionMethod.POST_QFORMER, k=2, out_hidden=6, qformer_heads=4)
    # only the Q-Former splits out_hidden into heads
    for method in COMPRESSION_METHODS:
        if method is not FusionMethod.POST_QFORMER:
            ModelConfig(method=method, k=2, out_hidden=6, qformer_heads=4)
    with pytest.raises(BadConfig, match="8 frames not divisible by k=3"):
        micro_cfg(FusionMethod.THROUGH_ENCODER, k=3, n_input=8)
    with pytest.raises(BadConfig):
        micro_cfg(FusionMethod.BASELINE, vocab=10)


@pytest.mark.parametrize("method,field,value", [
    (FusionMethod.BASELINE, "enc_layers", -2),
    (FusionMethod.BASELINE, "enc_layers", 0),
    (FusionMethod.BASELINE, "dec_layers", -1),
    (FusionMethod.POST_QFORMER, "qformer_layers", -3),
])
def test_layer_counts_below_one_are_rejected(method, field, value):
    # these once built a model with no such layers and forwarded to [1, 4] logits
    k = 1 if method is FusionMethod.BASELINE else 2
    with pytest.raises(BadConfig, match=f"{field} must be at least 1, got {value}"):
        ModelConfig(method=method, k=k, **{field: value})


def test_channel_merge_derived_dims():
    cfg = micro_cfg(FusionMethod.PRE_ENCODER_CHANNEL_MERGE, k=2)
    assert cfg.encoder_frames == 2
    assert cfg.patch_dim == 2 * 3 * 2 * 2
    base = micro_cfg(FusionMethod.BASELINE)
    assert base.encoder_frames == 4
    assert base.patch_dim == 3 * 2 * 2


def test_build_model_deterministic():
    cfg = micro_cfg(FusionMethod.THROUGH_ENCODER, k=2)
    a = build_model(cfg, seed=5)
    b = build_model(cfg, seed=5)
    assert set(a.params) == set(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)
    c = build_model(cfg, seed=6)
    assert not np.array_equal(a.params["patch_proj.w"].data,
                              c.params["patch_proj.w"].data)


def test_component_seed_streams_shared_across_methods():
    seed = 11
    base = build_model(micro_cfg(FusionMethod.BASELINE), seed)
    te = build_model(micro_cfg(FusionMethod.THROUGH_ENCODER, k=1), seed)
    shared = set(base.params) & set(te.params)
    assert "patch_proj.w" in shared and "enc.0.wq" in shared
    for name in shared:
        assert np.array_equal(base.params[name].data, te.params[name].data)
    assert set(te.params) - set(base.params) == {"pos.temporal"}


def test_only_through_encoder_gets_temporal_table():
    for method in FusionMethod:
        k = 1 if method is FusionMethod.BASELINE else 2
        bundle = build_model(micro_cfg(method, k=k), 0)
        has = "pos.temporal" in bundle.params
        assert has == (method is FusionMethod.THROUGH_ENCODER)


@pytest.mark.parametrize("method", list(FusionMethod))
def test_forward_meets_token_budget(method):
    k = 1 if method is FusionMethod.BASELINE else 2
    cfg = micro_cfg(method, k=k)
    bundle = build_model(cfg, 3)
    rng = np.random.default_rng(0)
    pixels = rng.random((2, 4, 3, 8, 8))
    out = video_token_forward(bundle, pixels)
    assert out.shape == (2, cfg.budget.l_decoder, cfg.out_hidden)


def test_forward_logits_and_loss():
    cfg = micro_cfg(FusionMethod.POST_POOL_PLLAVA, k=2)
    bundle = build_model(cfg, 4)
    rng = np.random.default_rng(1)
    pixels = rng.random((3, 4, 3, 8, 8))
    logits = forward_logits(bundle, pixels, question_batch(3))
    assert logits.shape == (3, 4)
    answers = np.array([0, 1, 2])
    with Tape() as tape:
        loss = batch_loss(bundle, pixels, question_batch(3), answers)
        assert loss.shape == ()
        assert 0.5 < loss.item() < 3.0
        grads = backward(tape, loss)
    g = grads[bundle.params["patch_proj.w"]]
    assert np.any(g != 0.0)


def test_forward_checks_pixel_shape():
    bundle = build_model(micro_cfg(FusionMethod.BASELINE), 0)
    with pytest.raises(ShapeMismatch):
        video_token_forward(bundle, np.zeros((2, 4, 3, 8, 10)))


def test_config_dict_round_trip():
    for method in FusionMethod:
        cfg = micro_cfg(method, k=1 if method is FusionMethod.BASELINE else 2)
        d = config_to_dict(cfg)
        assert d["method"] == method.value
        assert config_from_dict(d) == cfg


def test_config_from_dict_rejects_unknown_keys():
    d = config_to_dict(micro_cfg(FusionMethod.BASELINE))
    d["dropout"] = 0.1
    with pytest.raises(BadConfig):
        config_from_dict(d)


def test_flops_scale_with_compression():
    # fixed frames: through-encoder pays for longer encoder sequences, the
    # post-encoder paths get cheaper decoders as k grows
    base = model_flops_per_clip(micro_cfg(FusionMethod.BASELINE))
    pllava2 = model_flops_per_clip(micro_cfg(FusionMethod.POST_POOL_PLLAVA, k=2))
    te2 = model_flops_per_clip(micro_cfg(FusionMethod.THROUGH_ENCODER, k=2))
    assert base > 0
    assert pllava2 < base
    assert te2 > pllava2


def _distinct_frames(cfg) -> np.ndarray:
    """[1, F, C, H, W] pixels whose frames, merged frames and frame groups
    are pairwise distinct: frame f holds the value f + 1 everywhere."""
    values = np.arange(1.0, cfg.n_input + 1).reshape(1, -1, 1, 1, 1)
    return np.broadcast_to(values, (1, cfg.n_input, cfg.channels, cfg.height, cfg.width))


def _counted_forward_flops(cfg, monkeypatch, pixels) -> int:
    """2*m*k*n summed over the matmuls of one B=1 forward_logits on `pixels`."""
    flops = []
    real = autodiff.matmul

    def counting(a, b):
        out = real(a, b)
        m, inner = a.shape[-2:]
        flops.append(2 * math.prod(out.shape[:-2]) * m * inner * b.shape[-1])
        return out

    bundle = build_model(cfg, 0)
    with monkeypatch.context() as patch:
        patch.setattr(autodiff, "matmul", counting)
        forward_logits(bundle, pixels, question_batch(1))
    return sum(flops)


def _desk_configs():
    cells = [(FusionMethod.BASELINE, 1)] + [(m, k) for m in COMPRESSION_METHODS
                                            for k in (2, 4)]
    return [ModelConfig(method=m, k=k, n_input=n, patch=patch)
            for m, k in cells for patch, n in ((14, 8), (7, 16))]


def _scopes_per_clip(cfg) -> int:
    group = cfg.k if cfg.method is FusionMethod.THROUGH_ENCODER else 1
    return cfg.encoder_frames // group


def test_flop_formula_matches_counted_forward(monkeypatch):
    # the formula is the all-distinct cost: repeated scopes are encoded once,
    # so the counted forward must see pairwise-distinct frames. Shapes alone
    # decide the count, so zero weights skip the slow draws
    monkeypatch.setattr(RngState, "normal_array", lambda self, shape, std=1.0: np.zeros(shape))
    audit = [_audit_config(m, k, n) for m in COMPRESSION_METHODS
             for k in (1, 2, 4, 8, 16) for n in (8, 16, 32) if n % k == 0]
    desk = _desk_configs()
    assert (len(audit), len(desk)) == (70, 22)
    wrong = [(cfg.method.value, cfg.k, cfg.n_input, cfg.patch)
             for cfg in audit + desk
             if model_flops_per_clip(cfg) != _counted_forward_flops(cfg, monkeypatch,
                                                                   _distinct_frames(cfg))]
    assert wrong == []


def test_all_zero_pixels_count_one_scope(monkeypatch):
    # every scope of an all-zero clip repeats the first, so the encoder runs
    # on one scope; the patch projection still runs on every scope
    monkeypatch.setattr(RngState, "normal_array", lambda self, shape, std=1.0: np.zeros(shape))
    wrong = []
    for cfg in _desk_configs():
        scopes = _scopes_per_clip(cfg)
        seq, h = cfg.encoder_frames // scopes * cfg.tokens_per_frame, cfg.enc_hidden
        one_scope = cfg.enc_layers * (8 * seq * h * h + 4 * seq * seq * h
                                      + 4 * seq * h * cfg.enc_ffn)
        zeros = np.zeros((1, cfg.n_input, cfg.channels, cfg.height, cfg.width))
        if (_counted_forward_flops(cfg, monkeypatch, zeros)
                != model_flops_per_clip(cfg) - (scopes - 1) * one_scope):
            wrong.append((cfg.method.value, cfg.k, cfg.n_input, cfg.patch))
    assert wrong == []


def _scope_batches(n_input: int) -> dict[str, np.ndarray]:
    """Three 28px clips: all scopes distinct, and with scopes repeated
    within a clip (a still clip, a clip whose second half repeats its first)
    and across clips (one clip copies another but ends on black frames)."""
    distinct = np.random.default_rng(n_input).random((3, n_input, 3, 28, 28))
    repeated = distinct.copy()
    repeated[0, 1:] = repeated[0, :1]
    repeated[1, n_input // 2:] = repeated[1, :n_input // 2]
    repeated[2] = repeated[1]
    repeated[2, -4:] = 0.0
    return {"distinct": distinct, "repeated": repeated}


def _distinct_scope_count(cfg, pixels) -> int:
    """Byte-distinct encoder scopes: runs of n_input / scopes-per-clip frames."""
    per_scope = cfg.n_input // _scopes_per_clip(cfg) * pixels[0, 0].size
    return len({row.tobytes() for row in pixels.reshape(-1, per_scope)})


@pytest.mark.parametrize("patch,n_input", [(14, 8), (7, 16)])
@pytest.mark.parametrize("method", list(FusionMethod))
def test_repeated_scopes_encode_once_and_match_the_oracle(method, patch, n_input, monkeypatch):
    cfg = ModelConfig(method=method, k=1 if method is FusionMethod.BASELINE else 2,
                      n_input=n_input, patch=patch)
    bundle = build_model(cfg, 7)
    questions, answers = question_batch(3), np.array([0, 3, 1])
    encoded = []
    real = pipeline.encode

    def counting(tokens, cfg, params):
        encoded.append(tokens.shape[0])
        return real(tokens, cfg, params)

    for kind, pixels in _scope_batches(n_input).items():
        results = []
        for forward in (forward_logits, all_scopes_forward_logits):
            encoded.clear()
            with monkeypatch.context() as patch_ctx, Tape() as tape:
                patch_ctx.setattr(pipeline, "encode", counting)
                logits = forward(bundle, pixels, questions)
                grads = backward(tape, mcq_loss(logits, answers))
            results.append((logits.data, {n: grads[p] for n, p in bundle.params.items()},
                            list(encoded)))
        (logits, grads, calls), (want_logits, want_grads, _) = results
        assert np.array_equal(logits, want_logits), kind
        # repeats' gradients are summed before the encoder's backward, not
        # inside its weight GEMMs, so the sums round differently: bounded
        # against each gradient's largest entry, since an entry that cancels
        # to near zero has no relative precision of its own
        for name, g in grads.items():
            want = want_grads[name]
            assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max(), (kind, name)
        assert calls == [_distinct_scope_count(cfg, pixels)], kind
        if kind == "distinct":
            assert calls == [3 * _scopes_per_clip(cfg)]


def test_distinct_scopes_compare_bytes():
    first, index = pipeline._distinct_scopes(np.arange(18.0)[::-1].reshape(6, 3))
    assert first.tolist() == index.tolist() == list(range(6))
    rows = np.arange(18.0).reshape(6, 3)
    rows[3] = rows[0]
    rows[4] = rows[5] = rows[1]
    first, index = pipeline._distinct_scopes(rows)
    assert (first.tolist(), index.tolist()) == ([0, 1, 2], [0, 1, 2, 0, 1, 1])
    # equal numbers with unequal bytes, and equal bytes with unequal numbers
    rows = np.zeros((5, 3))
    rows[1, 0] = -0.0
    rows[2] = rows[4] = np.nan
    first, index = pipeline._distinct_scopes(rows)
    assert (first.tolist(), index.tolist()) == ([0, 1, 2], [0, 1, 2, 0, 2])


def _float32_scope_batches(n_input: int) -> dict[str, np.ndarray]:
    """`_scope_batches` as float32 clips, the repeated one with a scope that
    differs from a repeated all-zero scope only by one -0.0."""
    batches = {kind: pixels.astype(np.float32)
               for kind, pixels in _scope_batches(n_input).items()}
    batches["repeated"][2, -1, 0, 0, 0] = -0.0
    return batches


PATCH_ROW_METHODS = (FusionMethod.BASELINE, FusionMethod.PRE_ENCODER_CHANNEL_MERGE,
                     FusionMethod.THROUGH_ENCODER)


@pytest.mark.parametrize("method", PATCH_ROW_METHODS)
def test_gradients_match_taping_the_float64_patch_rows_bitwise(method):
    # the projection keeps the pixels and rebuilds the patch rows for its
    # weight gradient; a tape that keeps the rows must give the same bytes
    cfg = ModelConfig(method=method, k=1 if method is FusionMethod.BASELINE else 2,
                      n_input=8)
    bundle = build_model(cfg, 11)
    questions, answers = question_batch(3), np.array([2, 0, 3])
    for kind, pixels in _float32_scope_batches(8).items():
        results = []
        for loss_fn in (batch_loss, patch_row_batch_loss):
            with Tape() as tape:
                loss = loss_fn(bundle, pixels, questions, answers)
                grads = backward(tape, loss)
            results.append((loss.data.tobytes(),
                            {n: grads[p].tobytes() for n, p in bundle.params.items()}))
        (loss, got), (want_loss, want) = results
        assert loss == want_loss, kind
        for name in ("patch_proj.w", "patch_proj.b", "pos.spatial"):
            assert got[name] == want[name], (kind, name)
        assert got == want, kind


@pytest.mark.parametrize("method", PATCH_ROW_METHODS)
def test_distinct_scopes_group_pixels_as_their_patch_rows(method):
    cfg = ModelConfig(method=method, k=1 if method is FusionMethod.BASELINE else 2,
                      n_input=8)
    for kind, pixels in _float32_scope_batches(8).items():
        if method is FusionMethod.PRE_ENCODER_CHANNEL_MERGE:
            pixels = merge_temporal_channels(pixels, cfg.k)
        scopes = 3 * _scopes_per_clip(cfg)
        rows = extract_patches(pixels, cfg.patch).reshape(scopes, -1)
        got = pipeline._distinct_scopes(pixels.reshape(scopes, -1))
        want = byte_groups(rows)
        assert [a.tolist() for a in got] == [a.tolist() for a in want], kind
        assert [a.tolist() for a in pipeline._distinct_scopes(rows)] == [
            a.tolist() for a in want], kind
    # the last two scopes of the repeated batch are equal numbers, unequal bytes
    zero, signed = pixels.reshape(scopes, -1)[-2:]
    assert np.array_equal(zero, signed) and zero.tobytes() != signed.tobytes()
    first, index = got
    assert index[-1] == len(first) - 1 and index[-2] != index[-1]


def test_flops_deterministic_in_config():
    cfg = micro_cfg(FusionMethod.POST_QFORMER, k=2)
    assert model_flops_per_clip(cfg) == model_flops_per_clip(cfg)


def test_parameter_count_matches_sizes():
    bundle = build_model(micro_cfg(FusionMethod.BASELINE), 0)
    assert bundle.parameter_count() == sum(p.data.size
                                           for p in bundle.params.values())


def test_micro_gradcheck_cases_cover_three_paradigms():
    cases = micro_gradcheck_cases()
    names = [name for name, _, _ in cases]
    assert names == ["channel-merge", "qformer", "through-encoder"]
    for _, f, params in cases:
        loss = f()
        assert loss.shape == ()
        assert np.isfinite(loss.item())
        assert all(p.requires_grad for p in params.values())


# TFZ1 checkpoints key on these names and shapes; the order is the init order.
# Config: micro_cfg(method, k, out_hidden=10, dec_hidden=12, dec_ffn=20).
ENC_PARAMS = [
    ("enc.0.norm1", (8,)), ("enc.0.wq", (8, 8)), ("enc.0.wk", (8, 8)),
    ("enc.0.wv", (8, 8)), ("enc.0.wo", (8, 8)), ("enc.0.bq", (8,)),
    ("enc.0.bv", (8,)), ("enc.0.bo", (8,)), ("enc.0.norm2", (8,)),
    ("enc.0.ffn_w1", (8, 12)), ("enc.0.ffn_b1", (12,)),
    ("enc.0.ffn_w2", (12, 8)), ("enc.0.ffn_b2", (8,))]
DEC_PARAMS = [
    ("dec.video_proj_w", (10, 12)), ("dec.video_proj_b", (12,)),
    ("dec.embed", (38, 12)), ("dec.0.norm1", (12,)), ("dec.0.wq", (12, 12)),
    ("dec.0.wk", (12, 12)), ("dec.0.wv", (12, 12)), ("dec.0.wo", (12, 12)),
    ("dec.0.bq", (12,)), ("dec.0.bv", (12,)), ("dec.0.bo", (12,)),
    ("dec.0.norm2", (12,)), ("dec.0.ffn_w1", (12, 20)), ("dec.0.ffn_b1", (20,)),
    ("dec.0.ffn_w2", (20, 12)), ("dec.0.ffn_b2", (12,)),
    ("dec.final_norm", (12,)), ("dec.head_w", (12, 4)), ("dec.head_b", (4,))]
FRONT_PARAMS = [("patch_proj.w", (12, 8)), ("patch_proj.b", (8,)),
                ("pos.spatial", (16, 8))]
PROJ_PARAMS = [("comp.proj_w", (32, 10)), ("comp.proj_b", (10,))]
QFORMER_ATTN = [
    (f"comp.qf.0.{blk}.{name}", shape) for blk in ("self", "cross")
    for name, shape in (("wq", (10, 10)), ("wk", (10, 10)), ("wv", (10, 10)),
                        ("wo", (10, 10)), ("bq", (10,)), ("bv", (10,)), ("bo", (10,)))]
PINNED_PARAMS = {  # method: (frontend params, compressor params)
    "baseline": (FRONT_PARAMS, PROJ_PARAMS),
    "channel-merge": ([("patch_proj.w", (24, 8))] + FRONT_PARAMS[1:], PROJ_PARAMS),
    "pllava-pool": (FRONT_PARAMS, PROJ_PARAMS),
    "kangaroo-mlp": (FRONT_PARAMS, PROJ_PARAMS + [
        ("comp.mlp_w1", (16, 16)), ("comp.mlp_b1", (16,)),
        ("comp.mlp_w2", (16, 8)), ("comp.mlp_b2", (8,))]),
    "qformer": (FRONT_PARAMS, PROJ_PARAMS + [
        ("comp.queries", (4, 10)), ("comp.qf.0.norm1", (10,)),
        ("comp.qf.0.norm2", (10,)), ("comp.qf.0.norm3", (10,))] + QFORMER_ATTN + [
        ("comp.qf.0.ffn_w1", (10, 20)), ("comp.qf.0.ffn_b1", (20,)),
        ("comp.qf.0.ffn_w2", (20, 10)), ("comp.qf.0.ffn_b2", (10,))]),
    "through-encoder": (FRONT_PARAMS + [("pos.temporal", (2, 8))],
                        [("comp.proj_w", (64, 10)), ("comp.proj_b", (10,))]),
}


@pytest.mark.parametrize("method", list(FusionMethod))
def test_parameter_names_and_shapes_pinned(method):
    k = 1 if method is FusionMethod.BASELINE else 2
    bundle = build_model(micro_cfg(method, k, out_hidden=10, dec_hidden=12, dec_ffn=20), 0)
    front, comp = PINNED_PARAMS[method.value]
    got = [(name, p.shape) for name, p in bundle.params.items()]
    assert got == front + ENC_PARAMS + comp + DEC_PARAMS
