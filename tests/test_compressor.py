import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framefuse.autodiff import Tensor
from framefuse.compressor import (TokenBudget, compress, concat_frames,
                                  init_compressor_params, qformer_compress,
                                  token_budget)
from framefuse.errors import BadConfig, ShapeMismatch
from framefuse.frontend import COMPRESSION_METHODS, FusionMethod
from framefuse.pipeline import ModelConfig
from framefuse.rng import RngState
from oracles import kangaroo_identity_mlp


def test_token_budget_frozen_cases():
    assert token_budget(16, 64, 4).l_decoder == 256
    assert token_budget(4, 64, 1).l_decoder == 256
    assert token_budget(16, 64, 16).l_decoder == 64


def test_token_budget_carries_inputs():
    b = token_budget(8, 4, 2)
    assert b == TokenBudget(n_input=8, per_frame_tokens=4, ratio=2, l_decoder=16)


def test_token_budget_rejects_non_integral():
    with pytest.raises(BadConfig, match="16\\*64 not divisible by k=3"):
        token_budget(16, 64, 3)
    with pytest.raises(BadConfig, match="budget needs positive n_input/l/k, got 0/64/1"):
        token_budget(0, 64, 1)
    with pytest.raises(BadConfig, match="budget needs positive n_input/l/k, got 16/64/0"):
        token_budget(16, 64, 0)


@given(st.integers(1, 64), st.integers(1, 256), st.integers(1, 32))
def test_token_budget_formula(n, l, k):
    if (n * l) % k:
        with pytest.raises(BadConfig, match=f"{n}\\*{l} not divisible by k={k}"):
            token_budget(n, l, k)
    else:
        assert token_budget(n, l, k).l_decoder == n * l // k


def test_compressor_config_validation():
    with pytest.raises(BadConfig):
        ModelConfig(method=FusionMethod.THROUGH_ENCODER, k=0)
    with pytest.raises(BadConfig):
        ModelConfig(method=FusionMethod.BASELINE, k=2)
    ModelConfig(method=FusionMethod.BASELINE, k=1)


def compress_with(method: FusionMethod, per_frame: Tensor, k: int, w: Tensor,
                  b: Tensor | None, **params: Tensor) -> Tensor:
    """`compress` on per-frame tokens with projection w, b and the extra
    `comp.<name>` parameters; only the method and k of the config matter."""
    cfg = ModelConfig(method=method, k=k, n_input=k)
    comp = {f"comp.{name}": t for name, t in params.items()}
    return compress(per_frame, cfg, {"comp.proj_w": w, "comp.proj_b": b, **comp})


def spatial_downsample(tokens: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    return compress_with(FusionMethod.BASELINE, tokens, 1, w, b)


def test_spatial_downsample_quarters_tokens():
    rng = np.random.default_rng(0)
    tokens = Tensor(rng.normal(size=(3, 16, 8)))
    w = Tensor(rng.normal(size=(32, 5)))
    out = spatial_downsample(tokens, w, None)
    assert out.shape == (3, 4, 5)


def test_spatial_downsample_constant_inputs_stay_constant():
    # identity-extended projection: each output coordinate sums its four
    # window copies, so constant tokens give constant outputs
    h = 4
    tokens = Tensor(np.full((1, 16, h), 0.5))
    w = Tensor(np.concatenate([np.eye(h)] * 4, axis=0) / 4.0)
    out = spatial_downsample(tokens, w, None)
    assert np.allclose(out.data, 0.5)


def test_spatial_downsample_window_order():
    # 4x4 grid, value = row-major token index; window (0,0) holds 0,1,4,5
    tokens = np.arange(16, dtype=np.float64).reshape(1, 16, 1)
    w = Tensor(np.eye(4))
    out = spatial_downsample(Tensor(tokens), w, None)
    assert np.array_equal(out.data[0, 0], [0.0, 1.0, 4.0, 5.0])
    assert np.array_equal(out.data[0, 1], [2.0, 3.0, 6.0, 7.0])
    assert np.array_equal(out.data[0, 2], [8.0, 9.0, 12.0, 13.0])


def test_spatial_downsample_rejects_bad_grids():
    # 8 tokens is no square grid and 9 tokens a 3x3 one with no 2x2 tiling:
    # the window reshape rejects both
    w = Tensor(np.zeros((32, 4)))
    with pytest.raises(ShapeMismatch):
        spatial_downsample(Tensor(np.zeros((1, 8, 8))), w, None)
    with pytest.raises(ShapeMismatch):
        spatial_downsample(Tensor(np.zeros((1, 9, 8))), w, None)
    with pytest.raises(ShapeMismatch):
        spatial_downsample(Tensor(np.zeros((1, 16, 8))), Tensor(np.zeros((16, 4))), None)


def test_paper_scale_downsample_arithmetic():
    assert token_budget(1, 256 // 4, 1).l_decoder == 64


def through_encoder(per_frame: Tensor, k: int, w: Tensor, b: Tensor | None) -> Tensor:
    return compress_with(FusionMethod.THROUGH_ENCODER, per_frame, k, w, b)


def test_te_concat_shapes():
    rng = np.random.default_rng(1)
    per_frame = Tensor(rng.normal(size=(8, 16, 32)))
    w = Tensor(rng.normal(size=(4 * 2 * 32, 10)))
    out = through_encoder(per_frame, 2, w, None)
    assert out.shape == (4, 4, 10)


def test_te_k1_matches_spatial_downsample():
    rng = np.random.default_rng(2)
    tokens = Tensor(rng.normal(size=(5, 16, 6)))
    w = Tensor(rng.normal(size=(24, 7)))
    b = Tensor(rng.normal(size=7))
    direct = spatial_downsample(tokens, w, b)
    via_te = through_encoder(tokens, 1, w, b)
    assert np.array_equal(via_te.data, direct.data)


def test_te_temporal_concat_order():
    # two frames of constant tokens: concat puts frame 0 first per position
    t, h = 4, 2
    frames = np.zeros((2, t, h))
    frames[0] = 1.0
    frames[1] = 2.0
    w = Tensor(np.eye(4 * 2 * h))
    out = through_encoder(Tensor(frames), 2, w, None)
    assert out.shape == (1, 1, 16)
    window = out.data[0, 0].reshape(4, 2 * h)
    assert np.all(window[:, :h] == 1.0)
    assert np.all(window[:, h:] == 2.0)


def test_concat_frames_puts_each_window_side_by_side():
    # value = 100 * frame + 10 * position + channel, one leading batch axis
    f, t, h, k = 6, 4, 2, 3
    x = (100 * np.arange(f)[:, None, None] + 10 * np.arange(t)[None, :, None]
         + np.arange(h)[None, None, :]).astype(np.float64)[None]
    out = concat_frames(Tensor(x), k).data
    assert out.shape == (1, f // k, t, k * h)
    for g in range(f // k):
        for p in range(t):
            want = np.concatenate([x[0, g * k + j, p] for j in range(k)])
            assert np.array_equal(out[0, g, p], want)


def test_kangaroo_shapes():
    rng = np.random.default_rng(3)
    per_frame = Tensor(rng.normal(size=(8, 16, 32)))
    mlp = dict(mlp_w1=Tensor(rng.normal(size=(64, 64))), mlp_b1=Tensor(np.zeros(64)),
               mlp_w2=Tensor(rng.normal(size=(64, 32))), mlp_b2=Tensor(np.zeros(32)))
    out = compress_with(FusionMethod.POST_MLP_KANGAROO, per_frame, 2,
              Tensor(rng.normal(size=(128, 10))), Tensor(np.zeros(10)), **mlp)
    assert out.shape == (4, 4, 10)


def test_kangaroo_identity_mlp_is_exact_identity():
    h = 6
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 16, h))
    mlp = {name: Tensor(v) for name, v in kangaroo_identity_mlp(h).items()}
    w, b = Tensor(np.eye(4 * h)), Tensor(np.zeros(4 * h))
    out = compress_with(FusionMethod.POST_MLP_KANGAROO, Tensor(x), 1, w, b, **mlp)
    direct = spatial_downsample(Tensor(x), w, b)
    assert np.max(np.abs(out.data - direct.data)) <= 1e-12


def pllava_pool(per_frame: Tensor, k: int) -> Tensor:
    """pllava-pool's `compress` with an identity projection: the mean over each
    window of k frames of their 2x2 window concatenations."""
    width = 4 * per_frame.shape[-1]
    return compress_with(FusionMethod.POST_POOL_PLLAVA, per_frame, k, Tensor(np.eye(width)), None)


def test_pllava_pool_mean_of_identical_frames():
    frame = np.random.default_rng(5).normal(size=(1, 16, 6))
    stacked = Tensor(np.concatenate([frame, frame, frame], axis=0))
    out = pllava_pool(stacked, 3)
    assert out.shape == (1, 4, 24)
    assert np.allclose(out.data, spatial_downsample(Tensor(frame), Tensor(np.eye(24)), None).data)


def test_pllava_pool_pairwise_mean():
    a = np.full((1, 16, 3), 1.0)
    b = np.full((1, 16, 3), 3.0)
    out = pllava_pool(Tensor(np.concatenate([a, b], axis=0)), 2)
    assert np.array_equal(out.data, np.full((1, 4, 12), 2.0))


def test_pllava_pool_k1_identity():
    # at k=1 pooling is the identity: bitwise the baseline on the same projection
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(4, 16, 3)))
    w, b = Tensor(rng.normal(size=(12, 5))), Tensor(rng.normal(size=5))
    out = compress_with(FusionMethod.POST_POOL_PLLAVA, x, 1, w, b)
    assert np.array_equal(out.data, spatial_downsample(x, w, b).data)


def test_pllava_pool_indivisible():
    with pytest.raises(ShapeMismatch):
        pllava_pool(Tensor(np.zeros((5, 16, 3))), 2)


def test_qformer_residual_identity_with_zero_outputs():
    # patch 7 on the 28px canvas: a 4x4 grid, so l = 4 tokens per group
    cfg = ModelConfig(method=FusionMethod.POST_QFORMER, k=2, patch=7, enc_hidden=8,
                      out_hidden=8, qformer_layers=1, qformer_heads=2)
    params = init_compressor_params(cfg, RngState(7), 0.1)
    for name, p in params.items():
        if name.endswith(".wo") or name.endswith(".ffn_w2"):
            p.data[...] = 0.0
    per_frame = Tensor(np.random.default_rng(8).normal(size=(4, 4, 8)))
    out = qformer_compress(per_frame, cfg, params)
    assert out.shape == (2, 4, 8)
    assert np.allclose(out.data, params["comp.queries"].data)


def test_compression_methods_order():
    assert [m.value for m in COMPRESSION_METHODS] == [
        "channel-merge", "pllava-pool", "kangaroo-mlp", "qformer",
        "through-encoder"]
    assert FusionMethod.BASELINE not in COMPRESSION_METHODS
