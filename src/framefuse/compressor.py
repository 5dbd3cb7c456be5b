"""Spatio-temporal token compression paths.

All paths funnel the encoder output down to N_input/k groups of l tokens,
where l = T / 4 after the 2x2 spatial merge, so the decoder sees exactly
N_input * l / k video tokens. Ops accept any number of leading batch axes in
front of their documented core shape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import (Tensor, add, constant, gelu, linear, mean_over_axis,
                       permute, reshape, rms_norm)
from .encoder import (ParamInit, feed_forward, multihead_attention,
                      self_attention)
from .errors import (IndivisibleFrames, NonIntegralBudget, NonSquareGrid,
                     OddGridSide, ShapeMismatch)
from .frontend import FusionMethod
from .rng import RngState

if TYPE_CHECKING:
    from .pipeline import ModelConfig


@dataclass(frozen=True)
class TokenBudget:
    n_input: int
    per_frame_tokens: int
    ratio: int
    l_decoder: int


def token_budget(n_input: int, l: int, k: int) -> TokenBudget:
    """Decoder-side token count N_input * l / k; must divide exactly."""
    if n_input < 1 or l < 1 or k < 1:
        raise NonIntegralBudget(f"budget needs positive n_input/l/k, got {n_input}/{l}/{k}")
    if (n_input * l) % k:
        raise NonIntegralBudget(f"{n_input}*{l} not divisible by k={k}")
    return TokenBudget(n_input=n_input, per_frame_tokens=l, ratio=k,
                       l_decoder=n_input * l // k)


def _window_concat(x: Tensor) -> Tensor:
    """[..., T, c] -> [..., T/4, 4c]: concatenate each 2x2 window of the square
    token grid, row-major within the window."""
    *lead, t, c = x.shape
    side = math.isqrt(t)
    if side * side != t:
        raise NonSquareGrid(f"{t} tokens is not a square grid")
    if side % 2:
        raise OddGridSide(f"grid side {side} not divisible by 2")
    nd = len(lead)
    x = reshape(x, (*lead, side // 2, 2, side // 2, 2, c))
    axes = tuple(range(nd)) + (nd, nd + 2, nd + 1, nd + 3, nd + 4)
    x = permute(x, axes)
    return reshape(x, (*lead, t // 4, 4 * c))


def spatial_downsample_with_proj(tokens: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """[..., T, h] -> [..., T/4, out] through 2x2 window concat + projection."""
    return linear(_window_concat(tokens), w, b)


def _ungroup_time(grouped: Tensor, k: int) -> Tensor:
    """[..., G, k*T, h] -> [..., G, T, k*h]: per spatial position, concatenate
    the k in-group frames' hidden vectors in temporal order."""
    *lead, g, kt, h = grouped.shape
    if kt % k:
        raise IndivisibleFrames(f"group length {kt} not divisible by k={k}")
    t = kt // k
    nd = len(lead)
    x = reshape(grouped, (*lead, g, k, t, h))
    axes = tuple(range(nd)) + (nd, nd + 2, nd + 1, nd + 3)
    x = permute(x, axes)
    return reshape(x, (*lead, g, t, k * h))


def te_concat_and_project(grouped: Tensor, k: int, w: Tensor,
                          b: Tensor | None = None) -> Tensor:
    """Through-encoder compression: temporal concat to k*h per spatial
    position, then 2x2 window concat to 4*k*h, projected to out.

    [..., G, k*T, h] -> [..., G, T/4, out]. At k=1 this is exactly
    spatial_downsample_with_proj under the same projection.
    """
    return spatial_downsample_with_proj(_ungroup_time(grouped, k), w, b)


def kangaroo_temporal_mlp(grouped: Tensor, k: int, params: dict[str, Tensor],
                          prefix: str = "comp") -> Tensor:
    """Temporal merge by a 2-layer gelu perceptron (k*h -> 2h -> h) applied per
    spatial position, then the shared spatial downsample.

    [..., G, k*T, h] -> [..., G, T/4, out].
    """
    x = _ungroup_time(grouped, k)
    u = gelu(linear(x, params[f"{prefix}.mlp_w1"], params[f"{prefix}.mlp_b1"]))
    y = linear(u, params[f"{prefix}.mlp_w2"], params[f"{prefix}.mlp_b2"])
    return spatial_downsample_with_proj(y, params[f"{prefix}.proj_w"], params[f"{prefix}.proj_b"])


def kangaroo_identity_mlp(h: int) -> dict[str, np.ndarray]:
    """k=1 identity initialization: gelu(x) - gelu(-x) == x for the tanh-form
    gelu, so W1 = [I, -I], W2 = [I; -I] makes the perceptron the exact
    identity map."""
    eye = np.eye(h)
    return {
        "mlp_w1": np.concatenate([eye, -eye], axis=1),
        "mlp_b1": np.zeros(2 * h),
        "mlp_w2": np.concatenate([eye, -eye], axis=0),
        "mlp_b2": np.zeros(h),
    }


def pllava_temporal_pool(per_frame: Tensor, k: int) -> Tensor:
    """Mean over windows of k consecutive frames, positionwise.

    [..., F, l, out] -> [..., F/k, l, out]; k=1 is the identity.
    """
    *lead, f, l, out = per_frame.shape
    if f % k:
        raise IndivisibleFrames(f"{f} frames not divisible by k={k}")
    x = reshape(per_frame, (*lead, f // k, k, l, out))
    return mean_over_axis(x, len(lead) + 1)


def qformer_compress(per_frame: Tensor, k: int, queries: Tensor,
                     params: dict[str, Tensor], layers: int = 2, heads: int = 4,
                     norm_eps: float = 1e-6, prefix: str = "comp") -> Tensor:
    """Learned queries attend to each window of k frames' tokens.

    [..., F, l, out] with queries [l, out] -> [..., F/k, l, out]. Each block is
    pre-norm: query self-attention, cross-attention to the window tokens, then
    a gelu feed-forward, all with residuals.
    """
    *lead, f, l, out = per_frame.shape
    if f % k:
        raise IndivisibleFrames(f"{f} frames not divisible by k={k}")
    if queries.shape != (l, out):
        raise ShapeMismatch(f"queries {queries.shape}, expected {(l, out)}")
    window = reshape(per_frame, (*lead, f // k, k * l, out))
    q = add(constant(np.zeros((*lead, f // k, l, out))), queries)
    for i in range(layers):
        p = f"{prefix}.qf.{i}"
        q = self_attention(q, params[f"{p}.norm1"], params, f"{p}.self", heads, norm_eps)
        cq = rms_norm(q, params[f"{p}.norm2"], norm_eps)
        q = add(q, multihead_attention(cq, window, None, params, f"{p}.cross", heads))
        q = feed_forward(q, params[f"{p}.norm3"], params, p, norm_eps)
    return q


def init_compressor_params(cfg: ModelConfig, rng: RngState, prefix: str = "comp",
                           std: float = 0.02) -> dict[str, Tensor]:
    h, out, l = cfg.enc_hidden, cfg.out_hidden, cfg.tokens_per_group
    init = ParamInit(rng, std)
    # through-encoder projects the k frames' vectors of each 2x2 window at once
    width = cfg.k * h if cfg.method is FusionMethod.THROUGH_ENCODER else h
    init.normal(f"{prefix}.proj_w", (4 * width, out))
    init.zeros(f"{prefix}.proj_b", (out,))
    if cfg.method is FusionMethod.POST_MLP_KANGAROO:
        init.normal(f"{prefix}.mlp_w1", (cfg.k * h, 2 * h))
        init.zeros(f"{prefix}.mlp_b1", (2 * h,))
        init.normal(f"{prefix}.mlp_w2", (2 * h, h))
        init.zeros(f"{prefix}.mlp_b2", (h,))
    if cfg.method is FusionMethod.POST_QFORMER:
        init.normal(f"{prefix}.queries", (l, out))
        for i in range(cfg.qformer_layers):
            p = f"{prefix}.qf.{i}"
            for norm in ("norm1", "norm2", "norm3"):
                init.ones(f"{p}.{norm}", (out,))
            init.attention(f"{p}.self", out)
            init.attention(f"{p}.cross", out)
            init.ffn(p, out, 2 * out)
    return init.params


def compress(encoder_output: Tensor, cfg: ModelConfig,
             params: dict[str, Tensor], prefix: str = "comp") -> Tensor:
    """Run cfg.method's compression path.

    encoder_output is [..., G, k*T, h] for through-encoder fusion (frames
    grouped before the encoder) and [..., F', T, h] otherwise. Returns
    [..., N_input/k', l, out] with k'=1 for the baseline and k otherwise.
    """
    method, k = cfg.method, cfg.k
    w, b = params[f"{prefix}.proj_w"], params[f"{prefix}.proj_b"]
    if method is FusionMethod.BASELINE or method is FusionMethod.PRE_ENCODER_CHANNEL_MERGE:
        # temporal work (none / channel merge) already happened upstream
        return spatial_downsample_with_proj(encoder_output, w, b)
    if method is FusionMethod.THROUGH_ENCODER:
        return te_concat_and_project(encoder_output, k, w, b)
    *lead, f, t, h = encoder_output.shape
    if f % k:
        raise IndivisibleFrames(f"{f} frames not divisible by k={k}")
    if method is FusionMethod.POST_MLP_KANGAROO:
        grouped = reshape(encoder_output, (*lead, f // k, k * t, h))
        return kangaroo_temporal_mlp(grouped, k, params, prefix)
    per_frame = spatial_downsample_with_proj(encoder_output, w, b)
    if method is FusionMethod.POST_POOL_PLLAVA:
        return pllava_temporal_pool(per_frame, k)
    return qformer_compress(per_frame, k, params[f"{prefix}.queries"], params,
                            layers=cfg.qformer_layers, heads=cfg.qformer_heads,
                            norm_eps=cfg.norm_eps, prefix=prefix)
