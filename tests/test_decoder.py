
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framefuse.autodiff import Tensor
from framefuse.decoder import (answer_logits, build_causal_mask, causal_decode,
                               decode_hidden, init_decoder_params, predict,
                               rotary_tables)
from framefuse.errors import BadConfig, ShapeMismatch
from framefuse.frontend import FusionMethod
from framefuse.pipeline import ModelConfig
from framefuse.rng import RngState

CFG = ModelConfig(method=FusionMethod.BASELINE, out_hidden=6, dec_layers=1,
                  dec_hidden=8, dec_heads=2, dec_ffn=12, vocab=40)


def small_decoder(cfg=CFG, seed=0):
    return init_decoder_params(cfg, RngState(seed), 0.02)


def batch_of(rng, b=2, l=3, q=5, video_hidden=6, vocab=40):
    """(video tokens [b, l, video_hidden], question ids [b, q])."""
    return (Tensor(rng.normal(size=(b, l, video_hidden))),
            rng.integers(0, vocab, size=(b, q)))


def test_config_rejects_odd_head_dim():
    with pytest.raises(BadConfig, match="rotary needs an even per-head dimension"):
        ModelConfig(method=FusionMethod.BASELINE, dec_hidden=6, dec_heads=2)
    with pytest.raises(BadConfig, match="dec_hidden 10 not divisible by dec_heads 4"):
        ModelConfig(method=FusionMethod.BASELINE, dec_hidden=10, dec_heads=4)


def test_mcq_batch_validation():
    params = small_decoder()
    for video, question in (((2, 6), (2, 5)),      # video tokens not [B, L, out]
                            ((2, 3, 4), (2, 5)),   # wrong video width
                            ((2, 3, 6), (3, 5)),   # question rows misaligned
                            ((2, 3, 6), (5,))):    # question ids not [B, Q]
        with pytest.raises(ShapeMismatch):
            causal_decode(Tensor(np.zeros(video)), np.zeros(question, dtype=int), CFG, params)


def test_rotary_tables_identity_at_position_zero():
    cos, sin = rotary_tables(4, 6)
    assert cos.shape == (4, 6)
    assert np.allclose(cos[0], 1.0)
    assert np.allclose(sin[0], 0.0)


def test_rotary_tables_unit_norm():
    cos, sin = rotary_tables(8, 4)
    assert np.allclose(cos ** 2 + sin ** 2, 1.0)


def test_causal_mask_shape():
    mask = build_causal_mask(4)
    allowed = mask.data == 0.0
    assert np.array_equal(allowed, np.tril(np.ones((4, 4), dtype=bool)))


def test_decode_hidden_shape():
    params = small_decoder()
    rng = np.random.default_rng(1)
    out = decode_hidden(*batch_of(rng), CFG, params)
    assert out.shape == (2, 8, 8)  # B, L+Q, hidden


def test_causal_decode_returns_last_position():
    params = small_decoder()
    rng = np.random.default_rng(2)
    batch = batch_of(rng)
    hidden = decode_hidden(*batch, CFG, params)
    final = causal_decode(*batch, CFG, params)
    assert final.shape == (2, 8)
    assert np.array_equal(final.data, hidden.data[:, -1, :])


def test_causality_prefix_invariance():
    # changing a later question token must not affect earlier positions
    params = small_decoder()
    rng = np.random.default_rng(5)
    video, ids = batch_of(rng, b=1)
    base = decode_hidden(video, ids, CFG, params).data
    ids = ids.copy()
    ids[0, -1] = (ids[0, -1] + 7) % 40
    changed = decode_hidden(video, ids, CFG, params).data
    assert np.array_equal(base[:, :-1, :], changed[:, :-1, :])
    assert not np.array_equal(base[:, -1, :], changed[:, -1, :])


def test_zero_head_predicts_zero_by_tie_break():
    params = small_decoder()
    params["dec.head_w"].data[...] = 0.0
    params["dec.head_b"].data[...] = 0.0
    rng = np.random.default_rng(6)
    logits = answer_logits(causal_decode(*batch_of(rng, b=3), CFG, params), params)
    assert np.allclose(logits.data, 0.0)
    assert np.array_equal(predict(logits), [0, 0, 0])


def test_predict_picks_argmax():
    logits = Tensor(np.array([[0.1, 2.0, -1.0, 0.3]]))
    assert np.array_equal(predict(logits), [1])


def test_predict_first_max_wins():
    logits = Tensor(np.array([[1.0, 3.0, 3.0, 0.0]]))
    assert np.array_equal(predict(logits), [1])


def test_decoder_has_no_key_bias():
    params = small_decoder()
    assert not any(name.endswith(".bk") for name in params)
    assert "dec.0.bq" in params and "dec.0.bv" in params


@given(st.integers(0, 10**6))
def test_decode_is_deterministic(seed):
    params = small_decoder()
    rng = np.random.default_rng(seed)
    batch = batch_of(rng, b=1)
    a = causal_decode(*batch, CFG, params).data
    b = causal_decode(*batch, CFG, params).data
    assert np.array_equal(a, b)
