"""Miniature causal decoder scoring 4-way multiple-choice answers.

Sequence layout: projected video tokens first, then embedded question ids.
Rotary position applied to query/key per head; the answer head reads the last
position's hidden state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import (MASK_BLOCKED, Tensor, concat_axis, cross_entropy,
                       embedding_lookup, linear, narrow, reshape, rms_norm)
from .encoder import ParamInit, block
from .errors import SequenceTooLong, ShapeMismatch
from .rng import RngState

if TYPE_CHECKING:
    from .pipeline import ModelConfig

ROTARY_BASE = 10000.0


@dataclass
class MCQBatch:
    video_tokens: Tensor       # [B, L, out]
    question_ids: np.ndarray   # [B, Q] ints into the decoder vocab
    answer_idx: np.ndarray     # [B] ints in 0..3

    def __post_init__(self):
        self.question_ids = np.asarray(self.question_ids)
        self.answer_idx = np.asarray(self.answer_idx)
        if self.video_tokens.ndim != 3:
            raise ShapeMismatch(f"video tokens must be [B, L, out], got {self.video_tokens.shape}")
        if self.question_ids.ndim != 2 or self.question_ids.shape[0] != self.video_tokens.shape[0]:
            raise ShapeMismatch("question ids must be [B, Q] aligned with video tokens")
        if self.answer_idx.shape != (self.video_tokens.shape[0],):
            raise ShapeMismatch("answer_idx must be [B]")


def rotary_tables(seq_len: int, head_dim: int, base: float) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables [S, head_dim]; pairs are (i, i + head_dim/2)."""
    half = head_dim // 2
    inv_freq = base ** (-np.arange(half) * 2.0 / head_dim)
    angles = np.arange(seq_len)[:, None] * inv_freq[None, :]
    cos = np.concatenate([np.cos(angles), np.cos(angles)], axis=-1)
    sin = np.concatenate([np.sin(angles), np.sin(angles)], axis=-1)
    return cos, sin


def build_causal_mask(seq_len: int) -> Tensor:
    """[S, S] additive mask: position i may read positions <= i."""
    allowed = np.tril(np.ones((seq_len, seq_len), dtype=bool))
    return Tensor(np.where(allowed, 0.0, MASK_BLOCKED))


def init_decoder_params(cfg: ModelConfig, rng: RngState, std: float = 0.02) -> dict[str, Tensor]:
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
    return init.params


def decode_hidden(batch: MCQBatch, cfg: ModelConfig, params: dict[str, Tensor]) -> Tensor:
    """All-position hidden states [B, S, hidden] after the final norm."""
    video = linear(batch.video_tokens, params["dec.video_proj_w"], params["dec.video_proj_b"])
    question = embedding_lookup(params["dec.embed"], batch.question_ids)
    x = concat_axis([video, question], 1)
    seq = x.shape[1]
    if seq > cfg.max_seq:
        raise SequenceTooLong(f"sequence {seq} exceeds max_seq {cfg.max_seq}")
    mask = build_causal_mask(seq)
    cos, sin = rotary_tables(seq, cfg.dec_hidden // cfg.dec_heads, ROTARY_BASE)
    rotary = (Tensor(cos), Tensor(sin))
    for i in range(cfg.dec_layers):
        x = block(x, params, f"dec.{i}", cfg.dec_heads, cfg.norm_eps, mask, rotary)
    return rms_norm(x, params["dec.final_norm"], cfg.norm_eps)


def causal_decode(batch: MCQBatch, cfg: ModelConfig, params: dict[str, Tensor]) -> Tensor:
    """Last-position hidden state [B, hidden]."""
    states = decode_hidden(batch, cfg, params)
    b, s, h = states.shape
    return reshape(narrow(states, 1, s - 1, 1), (b, h))


def answer_logits(final_hidden: Tensor, params: dict[str, Tensor]) -> Tensor:
    """[B, hidden] -> [B, 4]."""
    return linear(final_hidden, params["dec.head_w"], params["dec.head_b"])


def predict(logits: Tensor) -> np.ndarray:
    """Argmax with lowest-index tie-break (numpy argmax picks the first max)."""
    return np.argmax(logits.data, axis=-1)


def mcq_loss(logits: Tensor, answer_idx) -> Tensor:
    """Mean cross-entropy of the 4-way logits against the answer positions."""
    return cross_entropy(logits, answer_idx)
