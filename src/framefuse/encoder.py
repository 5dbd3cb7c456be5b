"""The pre-norm transformer layer of the encoder, the decoder and the
Q-Former, its parameter initializer, and the encoder stack.

The pipeline folds each attention scope (one frame, or one group of k frames)
into the batch axis, so the encoder stack runs unmasked.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import (Tensor, add, attention, concat_axis, gelu, linear,
                       multiply, narrow, param, permute, reshape, rms_norm,
                       scale)
from .rng import RngState

if TYPE_CHECKING:
    from .pipeline import ModelConfig


# most values one grouped draw takes, so its temporaries stay small; a larger
# tensor gets a draw of its own
_GROUP_VALUES = 16384


class ParamInit:
    """Builds one trainable-parameter dict. Only `normal` draws from rng, so
    the draw order is the order of the `normal` calls. `normal` queues its
    tensor, and `done` draws the queue in few `normal_array` calls: each
    stream call costs about as much as a small tensor's values."""

    def __init__(self, rng: RngState, std: float):
        self.rng, self.std = rng, std
        self.params: dict[str, Tensor] = {}
        self._queue: list[tuple[str, tuple[int, ...]]] = []

    def normal(self, name: str, shape: tuple[int, ...]) -> None:
        self.params[name] = None  # holds the name's place in dict order
        self._queue.append((name, shape))

    def done(self) -> dict[str, Tensor]:
        """Draw the queued tensors and return the dict. Each tensor's block is
        padded to an even count, so Box-Muller pairs the uniforms its own
        `normal_array` call would (an odd size still drops its last sin), and
        the values are those of one call per tensor, bit for bit."""
        groups: list[list[tuple[str, tuple[int, ...], int]]] = []
        room = 0
        for name, shape in self._queue:
            n = math.prod(shape)
            n += n % 2
            if n > room:
                groups.append([])
                room = _GROUP_VALUES
            groups[-1].append((name, shape, n))
            room -= n
        for group in groups:
            values = self.rng.normal_array((sum(n for *_, n in group),), self.std)
            at = 0
            for name, shape, n in group:
                self.params[name] = param(values[at:at + math.prod(shape)].reshape(shape).copy())
                at += n
        self._queue.clear()
        return self.params

    def zeros(self, name: str, shape: tuple[int, ...]) -> None:
        self.params[name] = param(np.zeros(shape))

    def ones(self, name: str, shape: tuple[int, ...]) -> None:
        self.params[name] = param(np.ones(shape))

    def attention(self, prefix: str, h: int) -> None:
        for proj in ("wq", "wk", "wv", "wo"):
            self.normal(f"{prefix}.{proj}", (h, h))
        # no key bias: softmax is shift-invariant, so it could never act
        for bias in ("bq", "bv", "bo"):
            self.zeros(f"{prefix}.{bias}", (h,))

    def ffn(self, prefix: str, h: int, f: int) -> None:
        self.normal(f"{prefix}.ffn_w1", (h, f))
        self.zeros(f"{prefix}.ffn_b1", (f,))
        self.normal(f"{prefix}.ffn_w2", (f, h))
        self.zeros(f"{prefix}.ffn_b2", (h,))

    def block(self, prefix: str, h: int, f: int) -> None:
        """The parameters `block` reads under `prefix`."""
        self.ones(f"{prefix}.norm1", (h,))
        self.attention(prefix, h)
        self.ones(f"{prefix}.norm2", (h,))
        self.ffn(prefix, h, f)


def init_encoder_params(cfg: ModelConfig, rng: RngState, std: float) -> dict[str, Tensor]:
    init = ParamInit(rng, std)
    for i in range(cfg.enc_layers):
        init.block(f"enc.{i}", cfg.enc_hidden, cfg.enc_ffn)
    return init.done()


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


def apply_rotary(x: Tensor, cos: Tensor, sin: Tensor) -> Tensor:
    """x [..., S, dh] rotated positionwise: x*cos + rotate_half(x)*sin."""
    half = x.shape[-1] // 2
    x1 = narrow(x, -1, 0, half)
    x2 = narrow(x, -1, half, half)
    rotated = concat_axis([scale(x2, -1.0), x1], -1)
    return add(multiply(x, cos), multiply(rotated, sin))


def multihead_attention(xq: Tensor, xkv: Tensor, mask: Tensor | None,
                        params: dict[str, Tensor], prefix: str, heads: int,
                        rotary: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """Dense masked multi-head attention; pass xkv=xq for self-attention.
    `rotary` is a (cos, sin) pair of [S, dh] tables for the queries and keys.
    q, then k, then v: gradients into a shared input sum in tape order."""
    q = split_heads(linear(xq, params[f"{prefix}.wq"], params[f"{prefix}.bq"]), heads)
    if rotary is not None:
        q = apply_rotary(q, *rotary)
    k = split_heads(linear(xkv, params[f"{prefix}.wk"]), heads)
    if rotary is not None:
        k = apply_rotary(k, *rotary)
    v = split_heads(linear(xkv, params[f"{prefix}.wv"], params[f"{prefix}.bv"]), heads)
    ctx = merge_heads(attention(q, k, v, mask))
    return linear(ctx, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


def self_attention(x: Tensor, gain: Tensor, params: dict[str, Tensor], prefix: str,
                   heads: int, mask: Tensor | None = None,
                   rotary: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """Pre-norm residual self-attention: x + MHA(rms_norm(x))."""
    a = rms_norm(x, gain)
    return add(x, multihead_attention(a, a, mask, params, prefix, heads, rotary))


def feed_forward(x: Tensor, gain: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """Pre-norm residual gelu feed-forward: x + W2 gelu(W1 rms_norm(x) + b1) + b2."""
    hidden = gelu(linear(rms_norm(x, gain), params[f"{prefix}.ffn_w1"],
                         params[f"{prefix}.ffn_b1"]))
    return add(x, linear(hidden, params[f"{prefix}.ffn_w2"], params[f"{prefix}.ffn_b2"]))


def block(x: Tensor, params: dict[str, Tensor], prefix: str, heads: int,
          mask: Tensor | None = None, rotary: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """One pre-norm transformer layer: self-attention, then feed-forward."""
    x = self_attention(x, params[f"{prefix}.norm1"], params, prefix, heads, mask, rotary)
    return feed_forward(x, params[f"{prefix}.norm2"], params, prefix)


def encode(tokens: Tensor, cfg: ModelConfig, params: dict[str, Tensor]) -> Tensor:
    """Run the encoder stack over tokens [B, S, h] with full attention."""
    x = tokens
    for i in range(cfg.enc_layers):
        x = block(x, params, f"enc.{i}", cfg.enc_heads)
    return x
