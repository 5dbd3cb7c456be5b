import numpy as np
import pytest

from framefuse.autodiff import MASK_BLOCKED, Tensor
from framefuse.encoder import (encode, init_encoder_params, merge_heads,
                               multihead_attention, split_heads)
from framefuse.errors import BadConfig, ShapeMismatch
from framefuse.frontend import FusionMethod
from framefuse.pipeline import ModelConfig
from framefuse.rng import RngState
from oracles import build_scope_mask, masked_encode


def small_encoder(layers=1, hidden=8, heads=2, ffn=12, seed=0):
    cfg = ModelConfig(method=FusionMethod.BASELINE, enc_layers=layers, enc_hidden=hidden,
                      enc_heads=heads, enc_ffn=ffn)
    params = init_encoder_params(cfg, RngState(seed))
    return cfg, params


def test_scope_mask_small_case():
    mask = build_scope_mask(4, 2)
    allowed = mask.data == 0.0
    expect = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]],
                      dtype=bool)
    assert np.array_equal(allowed, expect)


def test_scope_mask_allowed_pair_count():
    mask = build_scope_mask(6, 3).data
    assert int((mask == 0.0).sum()) == 18
    assert np.all(mask[mask != 0.0] == MASK_BLOCKED)


def test_scope_mask_single_block_is_dense():
    assert np.all(build_scope_mask(5, 5).data == 0.0)


def test_encoder_config_head_divisibility():
    with pytest.raises(BadConfig, match="enc_hidden 10 not divisible by enc_heads 4"):
        ModelConfig(method=FusionMethod.BASELINE, enc_hidden=10, enc_heads=4)


def test_split_merge_heads_round_trip():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 6, 8)))
    assert np.array_equal(merge_heads(split_heads(x, 2)).data, x.data)


def test_encode_identity_with_zero_output_projections():
    cfg, params = small_encoder(layers=2)
    for name, p in params.items():
        if name.endswith(".wo") or name.endswith(".ffn_w2"):
            p.data[...] = 0.0
    rng = np.random.default_rng(1)
    tokens = Tensor(rng.normal(size=(2, 3, 8)))
    out = encode(tokens, cfg, params)
    assert np.array_equal(out.data, tokens.data)


def test_encode_accepts_batched_and_flat():
    # encode takes scopes folded into the batch axis; the masked oracle takes
    # the same scopes as one flat sequence
    cfg, params = small_encoder()
    rng = np.random.default_rng(2)
    flat = rng.normal(size=(4, 8))
    out_flat = masked_encode(Tensor(flat), cfg, build_scope_mask(4, 2), params)
    out_batched = encode(Tensor(flat.reshape(2, 2, 8)), cfg, params)
    assert out_flat.shape == (4, 8)
    assert np.array_equal(out_batched.data.reshape(4, 8), out_flat.data)


def test_encode_rejects_wrong_hidden():
    cfg, params = small_encoder()
    with pytest.raises(ShapeMismatch):
        encode(Tensor(np.zeros((1, 4, 5))), cfg, params)


def test_encode_rejects_mask_length_mismatch():
    cfg, params = small_encoder()
    with pytest.raises(ShapeMismatch):
        masked_encode(Tensor(np.zeros((4, 8))), cfg, build_scope_mask(6, 3), params)


def test_block_mask_equals_independent_encoding():
    # frames folded into one masked sequence must match per-frame encoding
    # bitwise: blocked attention weights underflow to exactly zero
    cfg, params = small_encoder(layers=2, seed=3)
    rng = np.random.default_rng(4)
    frames = rng.normal(size=(3, 4, 8))
    flat = Tensor(frames.reshape(12, 8))
    fused = masked_encode(flat, cfg, build_scope_mask(12, 4), params).data.reshape(3, 4, 8)
    folded = encode(Tensor(frames), cfg, params).data
    for f in range(3):
        alone = masked_encode(Tensor(frames[f]), cfg, build_scope_mask(4, 4), params).data
        assert np.array_equal(fused[f], alone)
        assert np.array_equal(folded[f], alone)


def test_multihead_attention_shapes():
    cfg, params = small_encoder()
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 4, 8)))
    out = multihead_attention(x, x, None, params, "enc.0", cfg.enc_heads)
    assert out.shape == (2, 4, 8)


def test_encoder_has_no_key_bias():
    _, params = small_encoder(layers=2)
    assert not any(name.endswith(".bk") for name in params)
    assert "enc.0.bq" in params and "enc.1.bo" in params
