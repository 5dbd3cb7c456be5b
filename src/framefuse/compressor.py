"""Spatio-temporal token compression paths.

All paths funnel the encoder output down to N_input/k groups of l tokens,
where l = T / 4 after the 2x2 spatial merge, so the decoder sees exactly
N_input * l / k video tokens. Ops accept any number of leading batch axes in
front of their documented core shape. ModelConfig checks the shapes a model
will see; the tensor ops reject any other with ShapeMismatch.
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
from .errors import BadConfig
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
        raise BadConfig(f"budget needs positive n_input/l/k, got {n_input}/{l}/{k}")
    if (n_input * l) % k:
        raise BadConfig(f"{n_input}*{l} not divisible by k={k}")
    return TokenBudget(n_input=n_input, per_frame_tokens=l, ratio=k,
                       l_decoder=n_input * l // k)


def _window_concat(x: Tensor) -> Tensor:
    """[..., T, c] -> [..., T/4, 4c]: concatenate each 2x2 window of the square
    token grid, row-major within the window."""
    *lead, t, c = x.shape
    side = math.isqrt(t)
    nd = len(lead)
    x = reshape(x, (*lead, side // 2, 2, side // 2, 2, c))
    axes = tuple(range(nd)) + (nd, nd + 2, nd + 1, nd + 3, nd + 4)
    x = permute(x, axes)
    return reshape(x, (*lead, t // 4, 4 * c))


def spatial_downsample_with_proj(tokens: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    """[..., T, h] -> [..., T/4, out] through 2x2 window concat + projection."""
    return linear(_window_concat(tokens), w, b)


def _ungroup_time(grouped: Tensor, k: int) -> Tensor:
    """[..., G, k*T, h] -> [..., G, T, k*h]: per spatial position, concatenate
    the k in-group frames' hidden vectors in temporal order."""
    *lead, g, kt, h = grouped.shape
    t = kt // k
    nd = len(lead)
    x = reshape(grouped, (*lead, g, k, t, h))
    axes = tuple(range(nd)) + (nd, nd + 2, nd + 1, nd + 3)
    x = permute(x, axes)
    return reshape(x, (*lead, g, t, k * h))


def te_concat_and_project(grouped: Tensor, k: int, w: Tensor, b: Tensor | None) -> Tensor:
    """Through-encoder compression: temporal concat to k*h per spatial
    position, then 2x2 window concat to 4*k*h, projected to out.

    [..., G, k*T, h] -> [..., G, T/4, out]. At k=1 this is exactly
    spatial_downsample_with_proj under the same projection.
    """
    return spatial_downsample_with_proj(_ungroup_time(grouped, k), w, b)


def kangaroo_temporal_mlp(grouped: Tensor, k: int, params: dict[str, Tensor]) -> Tensor:
    """Temporal merge by a 2-layer gelu perceptron (k*h -> 2h -> h) applied per
    spatial position, then the shared spatial downsample.

    [..., G, k*T, h] -> [..., G, T/4, out].
    """
    x = _ungroup_time(grouped, k)
    u = gelu(linear(x, params["comp.mlp_w1"], params["comp.mlp_b1"]))
    y = linear(u, params["comp.mlp_w2"], params["comp.mlp_b2"])
    return spatial_downsample_with_proj(y, params["comp.proj_w"], params["comp.proj_b"])


def pllava_temporal_pool(per_frame: Tensor, k: int) -> Tensor:
    """Mean over windows of k consecutive frames, positionwise.

    [..., F, l, out] -> [..., F/k, l, out]; k=1 is the identity.
    """
    *lead, f, l, out = per_frame.shape
    x = reshape(per_frame, (*lead, f // k, k, l, out))
    return mean_over_axis(x, len(lead) + 1)


def qformer_compress(per_frame: Tensor, cfg: ModelConfig, params: dict[str, Tensor]) -> Tensor:
    """Learned queries attend to each window of k frames' tokens.

    [..., F, l, out] with queries [l, out] -> [..., F/k, l, out]. Each block is
    pre-norm: query self-attention, cross-attention to the window tokens, then
    a gelu feed-forward, all with residuals.
    """
    *lead, f, l, out = per_frame.shape
    k, heads = cfg.k, cfg.qformer_heads
    window = reshape(per_frame, (*lead, f // k, k * l, out))
    q = add(constant(np.zeros((*lead, f // k, l, out))), params["comp.queries"])
    for i in range(cfg.qformer_layers):
        p = f"comp.qf.{i}"
        q = self_attention(q, params[f"{p}.norm1"], params, f"{p}.self", heads)
        cq = rms_norm(q, params[f"{p}.norm2"])
        q = add(q, multihead_attention(cq, window, None, params, f"{p}.cross", heads))
        q = feed_forward(q, params[f"{p}.norm3"], params, p)
    return q


def init_compressor_params(cfg: ModelConfig, rng: RngState, std: float) -> dict[str, Tensor]:
    h, out, l = cfg.enc_hidden, cfg.out_hidden, cfg.tokens_per_group
    init = ParamInit(rng, std)
    # through-encoder projects the k frames' vectors of each 2x2 window at once
    width = cfg.k * h if cfg.method is FusionMethod.THROUGH_ENCODER else h
    init.normal("comp.proj_w", (4 * width, out))
    init.zeros("comp.proj_b", (out,))
    if cfg.method is FusionMethod.POST_MLP_KANGAROO:
        init.normal("comp.mlp_w1", (cfg.k * h, 2 * h))
        init.zeros("comp.mlp_b1", (2 * h,))
        init.normal("comp.mlp_w2", (2 * h, h))
        init.zeros("comp.mlp_b2", (h,))
    if cfg.method is FusionMethod.POST_QFORMER:
        init.normal("comp.queries", (l, out))
        for i in range(cfg.qformer_layers):
            p = f"comp.qf.{i}"
            for norm in ("norm1", "norm2", "norm3"):
                init.ones(f"{p}.{norm}", (out,))
            init.attention(f"{p}.self", out)
            init.attention(f"{p}.cross", out)
            init.ffn(p, out, 2 * out)
    return init.done()


def compress(encoder_output: Tensor, cfg: ModelConfig, params: dict[str, Tensor]) -> Tensor:
    """Run cfg.method's compression path.

    encoder_output is [..., G, k*T, h] for through-encoder fusion (frames
    grouped before the encoder) and [..., F', T, h] otherwise. Returns
    [..., N_input/k', l, out] with k'=1 for the baseline and k otherwise.
    """
    method, k = cfg.method, cfg.k
    w, b = params["comp.proj_w"], params["comp.proj_b"]
    if method is FusionMethod.BASELINE or method is FusionMethod.PRE_ENCODER_CHANNEL_MERGE:
        # temporal work (none / channel merge) already happened upstream
        return spatial_downsample_with_proj(encoder_output, w, b)
    if method is FusionMethod.THROUGH_ENCODER:
        return te_concat_and_project(encoder_output, k, w, b)
    *lead, f, t, h = encoder_output.shape
    if method is FusionMethod.POST_MLP_KANGAROO:
        grouped = reshape(encoder_output, (*lead, f // k, k * t, h))
        return kangaroo_temporal_mlp(grouped, k, params)
    per_frame = spatial_downsample_with_proj(encoder_output, w, b)
    if method is FusionMethod.POST_POOL_PLLAVA:
        return pllava_temporal_pool(per_frame, k)
    return qformer_compress(per_frame, cfg, params)
