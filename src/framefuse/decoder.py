"""Miniature causal decoder scoring 4-way multiple-choice answers.

Sequence layout: projected video tokens first, then embedded question ids.
Rotary position applied to query/key per head; the answer head reads the last
position's hidden state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (MASK_BLOCKED, Tensor, add, attention, concat_axis,
                       cross_entropy, embedding_lookup, gelu, linear, multiply,
                       narrow, reshape, rms_norm, scale)
from .encoder import merge_heads, split_heads
from .errors import SequenceTooLong, ShapeMismatch
from .rng import RngState


@dataclass(frozen=True)
class DecoderConfig:
    layers: int = 2
    hidden: int = 64
    heads: int = 4
    ffn_hidden: int = 128
    vocab: int = 64
    max_seq: int = 512
    rotary_base: float = 10000.0
    norm_eps: float = 1e-6

    def __post_init__(self):
        if self.hidden % self.heads:
            raise ShapeMismatch(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if (self.hidden // self.heads) % 2:
            raise ShapeMismatch("rotary needs an even per-head dimension")


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


def _apply_rotary(x: Tensor, cos: Tensor, sin: Tensor) -> Tensor:
    """x [..., S, dh] rotated positionwise: x*cos + rotate_half(x)*sin."""
    dh = x.shape[-1]
    half = dh // 2
    x1 = narrow(x, -1, 0, half)
    x2 = narrow(x, -1, half, half)
    rotated = concat_axis([scale(x2, -1.0), x1], -1)
    return add(multiply(x, cos), multiply(rotated, sin))


def build_causal_mask(seq_len: int) -> Tensor:
    """[S, S] additive mask: position i may read positions <= i."""
    allowed = np.tril(np.ones((seq_len, seq_len), dtype=bool))
    return Tensor(np.where(allowed, 0.0, MASK_BLOCKED))


def init_decoder_params(cfg: DecoderConfig, video_hidden: int, rng: RngState,
                        prefix: str = "dec", std: float = 0.02) -> dict[str, Tensor]:
    h, f = cfg.hidden, cfg.ffn_hidden
    params: dict[str, Tensor] = {}

    def normal(name, shape):
        params[f"{prefix}.{name}"] = Tensor(rng.normal_array(shape, std), requires_grad=True)

    def zeros(name, shape):
        params[f"{prefix}.{name}"] = Tensor(np.zeros(shape), requires_grad=True)

    def ones(name, shape):
        params[f"{prefix}.{name}"] = Tensor(np.ones(shape), requires_grad=True)

    normal("video_proj_w", (video_hidden, h))
    zeros("video_proj_b", (h,))
    normal("embed", (cfg.vocab, h))
    for i in range(cfg.layers):
        p = f"{i}"
        ones(f"{p}.norm1", (h,))
        for proj in ("wq", "wk", "wv", "wo"):
            normal(f"{p}.{proj}", (h, h))
        # key bias omitted: softmax shift-invariance makes it (near-)inert
        for bias in ("bq", "bv", "bo"):
            zeros(f"{p}.{bias}", (h,))
        ones(f"{p}.norm2", (h,))
        normal(f"{p}.ffn_w1", (h, f))
        zeros(f"{p}.ffn_b1", (f,))
        normal(f"{p}.ffn_w2", (f, h))
        zeros(f"{p}.ffn_b2", (h,))
    ones("final_norm", (h,))
    normal("head_w", (h, 4))
    zeros("head_b", (4,))
    return params


def decode_hidden(batch: MCQBatch, cfg: DecoderConfig, params: dict[str, Tensor],
                  prefix: str = "dec") -> Tensor:
    """All-position hidden states [B, S, hidden] after the final norm."""
    video = linear(batch.video_tokens, params[f"{prefix}.video_proj_w"],
                   params[f"{prefix}.video_proj_b"])
    question = embedding_lookup(params[f"{prefix}.embed"], batch.question_ids)
    x = concat_axis([video, question], 1)
    seq = x.shape[1]
    if seq > cfg.max_seq:
        raise SequenceTooLong(f"sequence {seq} exceeds max_seq {cfg.max_seq}")
    mask = build_causal_mask(seq)
    dh = cfg.hidden // cfg.heads
    cos_np, sin_np = rotary_tables(seq, dh, cfg.rotary_base)
    cos, sin = Tensor(cos_np), Tensor(sin_np)
    for i in range(cfg.layers):
        p = f"{prefix}.{i}"
        a = rms_norm(x, params[f"{p}.norm1"], cfg.norm_eps)
        q = _apply_rotary(split_heads(linear(a, params[f"{p}.wq"], params[f"{p}.bq"]), cfg.heads), cos, sin)
        k = _apply_rotary(split_heads(linear(a, params[f"{p}.wk"]), cfg.heads), cos, sin)
        v = split_heads(linear(a, params[f"{p}.wv"], params[f"{p}.bv"]), cfg.heads)
        ctx = merge_heads(attention(q, k, v, mask))
        x = add(x, linear(ctx, params[f"{p}.wo"], params[f"{p}.bo"]))
        f_in = rms_norm(x, params[f"{p}.norm2"], cfg.norm_eps)
        hid = gelu(linear(f_in, params[f"{p}.ffn_w1"], params[f"{p}.ffn_b1"]))
        x = add(x, linear(hid, params[f"{p}.ffn_w2"], params[f"{p}.ffn_b2"]))
    return rms_norm(x, params[f"{prefix}.final_norm"], cfg.norm_eps)


def causal_decode(batch: MCQBatch, cfg: DecoderConfig, params: dict[str, Tensor],
                  prefix: str = "dec") -> Tensor:
    """Last-position hidden state [B, hidden]."""
    states = decode_hidden(batch, cfg, params, prefix)
    b, s, h = states.shape
    return reshape(narrow(states, 1, s - 1, 1), (b, h))


def answer_logits(final_hidden: Tensor, params: dict[str, Tensor],
                  prefix: str = "dec") -> Tensor:
    """[B, hidden] -> [B, 4]."""
    return linear(final_hidden, params[f"{prefix}.head_w"], params[f"{prefix}.head_b"])


def predict(logits: Tensor) -> np.ndarray:
    """Argmax with lowest-index tie-break (numpy argmax picks the first max)."""
    return np.argmax(logits.data, axis=-1)


def mcq_loss(logits: Tensor, answer_idx) -> Tensor:
    """Mean cross-entropy of the 4-way logits against the answer positions."""
    return cross_entropy(logits, answer_idx)
