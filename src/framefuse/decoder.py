"""Miniature causal decoder scoring 4-way multiple-choice answers.

Sequence layout: projected video tokens first, then embedded question ids.
Rotary position applied to query/key per head; the answer head reads the last
position's hidden state.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autodiff import (MASK_BLOCKED, Tensor, concat_axis,
                       embedding_lookup, linear, narrow, reshape, rms_norm)
from .encoder import ParamInit, block
from .rng import RngState

if TYPE_CHECKING:
    from .pipeline import ModelConfig

ROTARY_BASE = 10000.0


def rotary_tables(seq_len: int, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables [S, head_dim]; pairs are (i, i + head_dim/2)."""
    half = head_dim // 2
    inv_freq = ROTARY_BASE ** (-np.arange(half) * 2.0 / head_dim)
    angles = np.arange(seq_len)[:, None] * inv_freq[None, :]
    cos = np.concatenate([np.cos(angles), np.cos(angles)], axis=-1)
    sin = np.concatenate([np.sin(angles), np.sin(angles)], axis=-1)
    return cos, sin


def build_causal_mask(seq_len: int) -> Tensor:
    """[S, S] additive mask: position i may read positions <= i."""
    allowed = np.tril(np.ones((seq_len, seq_len), dtype=bool))
    return Tensor(np.where(allowed, 0.0, MASK_BLOCKED))


def init_decoder_params(cfg: ModelConfig, rng: RngState, std: float) -> dict[str, Tensor]:
    h = cfg.dec_hidden
    init = ParamInit(rng, std)
    init.normal("dec.video_proj_w", (cfg.out_hidden, h))
    init.zeros("dec.video_proj_b", (h,))
    init.normal("dec.embed", (cfg.vocab, h))
    for i in range(cfg.dec_layers):
        init.block(f"dec.{i}", h, cfg.dec_ffn)
    init.ones("dec.final_norm", (h,))
    init.normal("dec.head_w", (h, 4))
    init.zeros("dec.head_b", (4,))
    return init.done()


def causal_decode(video_tokens: Tensor, question_ids: np.ndarray, cfg: ModelConfig,
                  params: dict[str, Tensor]) -> Tensor:
    """Last-position hidden state [B, hidden], from video tokens [B, L, out] and
    question ids [B, Q]; only the position the head reads gets the final norm."""
    video = linear(video_tokens, params["dec.video_proj_w"], params["dec.video_proj_b"])
    question = embedding_lookup(params["dec.embed"], question_ids)
    x = concat_axis([video, question], 1)
    b, seq, h = x.shape
    mask = build_causal_mask(seq)
    cos, sin = rotary_tables(seq, cfg.dec_hidden // cfg.dec_heads)
    rotary = (Tensor(cos), Tensor(sin))
    for i in range(cfg.dec_layers):
        x = block(x, params, f"dec.{i}", cfg.dec_heads, mask, rotary)
    return rms_norm(reshape(narrow(x, 1, seq - 1, 1), (b, h)), params["dec.final_norm"])


def answer_logits(final_hidden: Tensor, params: dict[str, Tensor]) -> Tensor:
    """[B, hidden] -> [B, 4]."""
    return linear(final_hidden, params["dec.head_w"], params["dec.head_b"])


def predict(logits: Tensor) -> np.ndarray:
    """Argmax with lowest-index tie-break (numpy argmax picks the first max)."""
    return np.argmax(logits.data, axis=-1)

