import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framefuse.autodiff import Tensor
from framefuse.compressor import (TokenBudget, init_compressor_params,
                                  kangaroo_temporal_mlp, pllava_temporal_pool,
                                  qformer_compress,
                                  spatial_downsample_with_proj,
                                  te_concat_and_project, token_budget)
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


def test_spatial_downsample_quarters_tokens():
    rng = np.random.default_rng(0)
    tokens = Tensor(rng.normal(size=(3, 16, 8)))
    w = Tensor(rng.normal(size=(32, 5)))
    out = spatial_downsample_with_proj(tokens, w, None)
    assert out.shape == (3, 4, 5)


def test_spatial_downsample_constant_inputs_stay_constant():
    # identity-extended projection: each output coordinate sums its four
    # window copies, so constant tokens give constant outputs
    h = 4
    tokens = Tensor(np.full((1, 16, h), 0.5))
    w = Tensor(np.concatenate([np.eye(h)] * 4, axis=0) / 4.0)
    out = spatial_downsample_with_proj(tokens, w, None)
    assert np.allclose(out.data, 0.5)


def test_spatial_downsample_window_order():
    # 4x4 grid, value = row-major token index; window (0,0) holds 0,1,4,5
    tokens = np.arange(16, dtype=np.float64).reshape(1, 16, 1)
    w = Tensor(np.eye(4))
    out = spatial_downsample_with_proj(Tensor(tokens), w, None)
    assert np.array_equal(out.data[0, 0], [0.0, 1.0, 4.0, 5.0])
    assert np.array_equal(out.data[0, 1], [2.0, 3.0, 6.0, 7.0])
    assert np.array_equal(out.data[0, 2], [8.0, 9.0, 12.0, 13.0])


def test_spatial_downsample_rejects_bad_grids():
    # 8 tokens is no square grid and 9 tokens a 3x3 one with no 2x2 tiling:
    # the window reshape rejects both
    w = Tensor(np.zeros((32, 4)))
    with pytest.raises(ShapeMismatch):
        spatial_downsample_with_proj(Tensor(np.zeros((1, 8, 8))), w, None)
    with pytest.raises(ShapeMismatch):
        spatial_downsample_with_proj(Tensor(np.zeros((1, 9, 8))), w, None)
    with pytest.raises(ShapeMismatch):
        spatial_downsample_with_proj(Tensor(np.zeros((1, 16, 8))), Tensor(np.zeros((16, 4))), None)


def test_paper_scale_downsample_arithmetic():
    assert token_budget(1, 256 // 4, 1).l_decoder == 64


def test_te_concat_shapes():
    rng = np.random.default_rng(1)
    grouped = Tensor(rng.normal(size=(4, 32, 32)))
    w = Tensor(rng.normal(size=(4 * 2 * 32, 10)))
    out = te_concat_and_project(grouped, 2, w, None)
    assert out.shape == (4, 4, 10)


def test_te_k1_matches_spatial_downsample():
    rng = np.random.default_rng(2)
    tokens = Tensor(rng.normal(size=(5, 16, 6)))
    w = Tensor(rng.normal(size=(24, 7)))
    b = Tensor(rng.normal(size=7))
    direct = spatial_downsample_with_proj(tokens, w, b)
    via_te = te_concat_and_project(tokens, 1, w, b)
    assert np.array_equal(via_te.data, direct.data)


def test_te_temporal_concat_order():
    # two frames of constant tokens: concat puts frame 0 first per position
    t, h = 4, 2
    frames = np.zeros((1, 2 * t, h))
    frames[0, :t] = 1.0   # frame 0
    frames[0, t:] = 2.0   # frame 1
    w = Tensor(np.eye(4 * 2 * h))
    out = te_concat_and_project(Tensor(frames), 2, w, None)
    assert out.shape == (1, 1, 16)
    window = out.data[0, 0].reshape(4, 2 * h)
    assert np.all(window[:, :h] == 1.0)
    assert np.all(window[:, h:] == 2.0)


def test_kangaroo_shapes():
    rng = np.random.default_rng(3)
    grouped = Tensor(rng.normal(size=(4, 32, 32)))
    params = {
        "comp.mlp_w1": Tensor(rng.normal(size=(64, 64))),
        "comp.mlp_b1": Tensor(np.zeros(64)),
        "comp.mlp_w2": Tensor(rng.normal(size=(64, 32))),
        "comp.mlp_b2": Tensor(np.zeros(32)),
        "comp.proj_w": Tensor(rng.normal(size=(128, 10))),
        "comp.proj_b": Tensor(np.zeros(10)),
    }
    out = kangaroo_temporal_mlp(grouped, 2, params)
    assert out.shape == (4, 4, 10)


def test_kangaroo_identity_mlp_is_exact_identity():
    h = 6
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 16, h))
    ident = kangaroo_identity_mlp(h)
    params = {f"comp.{k}": Tensor(v) for k, v in ident.items()}
    params["comp.proj_w"] = Tensor(np.eye(4 * h))
    params["comp.proj_b"] = Tensor(np.zeros(4 * h))
    out = kangaroo_temporal_mlp(Tensor(x), 1, params)
    direct = spatial_downsample_with_proj(Tensor(x), params["comp.proj_w"],
                                          params["comp.proj_b"])
    assert np.max(np.abs(out.data - direct.data)) <= 1e-12


def test_pllava_pool_mean_of_identical_frames():
    frame = np.random.default_rng(5).normal(size=(1, 4, 6))
    stacked = Tensor(np.concatenate([frame, frame, frame], axis=0))
    out = pllava_temporal_pool(stacked, 3)
    assert out.shape == (1, 4, 6)
    assert np.allclose(out.data[0], frame[0])


def test_pllava_pool_pairwise_mean():
    a = np.full((1, 4, 3), 1.0)
    b = np.full((1, 4, 3), 3.0)
    out = pllava_temporal_pool(Tensor(np.concatenate([a, b], axis=0)), 2)
    assert np.array_equal(out.data, np.full((1, 4, 3), 2.0))


def test_pllava_pool_k1_identity():
    x = np.random.default_rng(6).normal(size=(4, 4, 3))
    out = pllava_temporal_pool(Tensor(x), 1)
    assert np.array_equal(out.data, x)


def test_pllava_pool_indivisible():
    with pytest.raises(ShapeMismatch):
        pllava_temporal_pool(Tensor(np.zeros((5, 4, 3))), 2)


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
