"""Pre-norm transformer encoder.

The pipeline folds each attention scope (one frame, or one group of k frames)
into the batch axis and encodes unmasked. build_scope_mask gives the
block-diagonal mask under which one flat sequence encodes exactly like those
folded scopes; the tests use it as the reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (MASK_BLOCKED, Tensor, add, attention, gelu, linear,
                       permute, reshape, rms_norm)
from .errors import IndivisibleTokens, ShapeMismatch
from .rng import RngState


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 2
    hidden: int = 32
    heads: int = 4
    ffn_hidden: int = 64
    norm_eps: float = 1e-6

    def __post_init__(self):
        if self.hidden % self.heads:
            raise ShapeMismatch(f"hidden {self.hidden} not divisible by heads {self.heads}")


def build_scope_mask(total_tokens: int, block: int) -> Tensor:
    """Additive [S, S] mask: 0 inside each diagonal block, MASK_BLOCKED outside."""
    if block < 1 or total_tokens % block:
        raise IndivisibleTokens(f"{total_tokens} tokens not divisible by block {block}")
    owner = np.arange(total_tokens) // block
    allowed = owner[:, None] == owner[None, :]
    data = np.where(allowed, 0.0, MASK_BLOCKED)
    return Tensor(data)


def init_encoder_params(cfg: EncoderConfig, rng: RngState, prefix: str = "enc",
                        std: float = 0.02) -> dict[str, Tensor]:
    h, f = cfg.hidden, cfg.ffn_hidden
    params: dict[str, Tensor] = {}

    def normal(name, shape):
        params[name] = Tensor(rng.normal_array(shape, std), requires_grad=True)

    def zeros(name, shape):
        params[name] = Tensor(np.zeros(shape), requires_grad=True)

    def ones(name, shape):
        params[name] = Tensor(np.ones(shape), requires_grad=True)

    for i in range(cfg.layers):
        p = f"{prefix}.{i}"
        ones(f"{p}.norm1", (h,))
        for proj in ("wq", "wk", "wv", "wo"):
            normal(f"{p}.{proj}", (h, h))
        # no key bias: softmax is shift-invariant, so it could never act
        for bias in ("bq", "bv", "bo"):
            zeros(f"{p}.{bias}", (h,))
        ones(f"{p}.norm2", (h,))
        normal(f"{p}.ffn_w1", (h, f))
        zeros(f"{p}.ffn_b1", (f,))
        normal(f"{p}.ffn_w2", (f, h))
        zeros(f"{p}.ffn_b2", (h,))
    return params


def split_heads(x: Tensor, heads: int) -> Tensor:
    """[..., S, h] -> [..., heads, S, h/heads]."""
    *lead, s, h = x.shape
    x = reshape(x, (*lead, s, heads, h // heads))
    nd = x.ndim
    axes = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)
    return permute(x, axes)


def merge_heads(x: Tensor) -> Tensor:
    """[..., heads, S, dh] -> [..., S, heads*dh]."""
    *lead, heads, s, dh = x.shape
    nd = x.ndim
    axes = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)
    return reshape(permute(x, axes), (*lead, s, heads * dh))


def multihead_attention(xq: Tensor, xkv: Tensor, mask: Tensor | None,
                        params: dict[str, Tensor], prefix: str, heads: int,
                        return_weights: bool = False):
    """Dense masked multi-head attention; pass xkv=xq for self-attention."""
    q = split_heads(linear(xq, params[f"{prefix}.wq"], params[f"{prefix}.bq"]), heads)
    k = split_heads(linear(xkv, params[f"{prefix}.wk"]), heads)
    v = split_heads(linear(xkv, params[f"{prefix}.wv"], params[f"{prefix}.bv"]), heads)
    if return_weights:
        ctx, weights = attention(q, k, v, mask, return_weights=True)
    else:
        ctx, weights = attention(q, k, v, mask), None
    out = linear(merge_heads(ctx), params[f"{prefix}.wo"], params[f"{prefix}.bo"])
    if return_weights:
        return out, weights
    return out


def encode(tokens: Tensor, cfg: EncoderConfig, mask: Tensor | None,
           params: dict[str, Tensor], prefix: str = "enc") -> Tensor:
    """Run the encoder stack over tokens [S, h] or [B, S, h]; `mask` is an
    additive [S, S] attention mask or None for full attention."""
    squeeze = tokens.ndim == 2
    x = reshape(tokens, (1,) + tokens.shape) if squeeze else tokens
    if x.ndim != 3 or x.shape[-1] != cfg.hidden:
        raise ShapeMismatch(f"encoder tokens {tokens.shape} for hidden {cfg.hidden}")
    for i in range(cfg.layers):
        p = f"{prefix}.{i}"
        attn_in = rms_norm(x, params[f"{p}.norm1"], cfg.norm_eps)
        x = add(x, multihead_attention(attn_in, attn_in, mask, params, p, cfg.heads))
        ffn_in = rms_norm(x, params[f"{p}.norm2"], cfg.norm_eps)
        hidden = gelu(linear(ffn_in, params[f"{p}.ffn_w1"], params[f"{p}.ffn_b1"]))
        x = add(x, linear(hidden, params[f"{p}.ffn_w2"], params[f"{p}.ffn_b2"]))
    return reshape(x, tokens.shape) if squeeze else x
