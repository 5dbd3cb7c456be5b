"""End-to-end model assembly: pixels -> patches -> encoder -> compression ->
decoder logits, wired per fusion method.

Each attention scope (a frame, a through-encoder group of k frames, or a
channel-merged frame) is folded into the batch axis and encoded unmasked,
which is bitwise identical to block-diagonal masking over the flat sequence
because blocked attention weights underflow to exactly zero.

A scope's encoder output depends on its own pixels alone, so byte-equal
scopes encode to bitwise-equal outputs. The clip generators hold frames
still, and a batch repeats many scopes. `video_token_forward` therefore
finds the distinct scopes on their pixels, encodes each once, then copies
each result back to every scope that repeats it with one taped `gather`,
whose backward sums the repeats' gradients (when no scope repeats, the
gathers copy rows in order). The compressor gets one row of T tokens per
frame for every method. The patch projection still runs on every scope: on
fewer rows OpenBLAS may switch to its small-matrix kernel, which sums an
inner extent above 384 (patch_dim is 588 at patch 14) in another order, and
the logits would no longer be bitwise those of encoding every scope. The
encoder's own inner extents, enc_hidden and enc_ffn, are 32 and 64 by
default, where row count does not change the sums. The projection's tape
node keeps the pixels (float32 in training), not the float64 patch rows,
which its weight gradient rebuilds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, cross_entropy, gather, matmul_rebuilt, param, reshape
from .compressor import (TokenBudget, compress, init_compressor_params,
                         token_budget)
from .decoder import answer_logits, causal_decode, init_decoder_params
from .encoder import encode, init_encoder_params
from .errors import BadConfig, ShapeMismatch, check_fields, check_keys
from .frontend import (FusionMethod, extract_patches, merge_neighbor_frames,
                       merge_temporal_channels, parse_method)
from .rng import RngState, derive_seed
from .synthclips import CANVAS, CHANNELS, QUESTION_LEN, VOCAB


@dataclass(frozen=True)
class ModelConfig:
    method: FusionMethod
    k: int = 1
    n_input: int = 8
    height: int = CANVAS
    width: int = CANVAS
    # 14px patches on the 28px canvas leave one merged token per frame; the
    # coarse spatial bottleneck is what makes the motion tasks learnable from
    # a few hundred samples (finer patches let the model memorize positions)
    patch: int = 14
    enc_layers: int = 2
    enc_hidden: int = 32
    enc_heads: int = 4
    enc_ffn: int = 64
    out_hidden: int = 64
    dec_layers: int = 2
    dec_hidden: int = 64
    dec_heads: int = 4
    dec_ffn: int = 128
    vocab: int = 64
    qformer_layers: int = 2
    qformer_heads: int = 4
    channels = CHANNELS  # not a field: the generators paint RGB clips only

    def __post_init__(self):
        check_fields(self, ("k", "n_input", "patch", "enc_layers", "enc_hidden", "enc_heads",
                            "enc_ffn", "out_hidden", "dec_layers", "dec_hidden", "dec_heads",
                            "dec_ffn", "qformer_layers", "qformer_heads"))
        if self.method is FusionMethod.BASELINE and self.k != 1:
            raise BadConfig("baseline path has no compression ratio; use k=1")
        if self.enc_hidden % self.enc_heads:
            raise BadConfig(f"enc_hidden {self.enc_hidden} not divisible by "
                            f"enc_heads {self.enc_heads}")
        if self.dec_hidden % self.dec_heads:
            raise BadConfig(f"dec_hidden {self.dec_hidden} not divisible by "
                            f"dec_heads {self.dec_heads}")
        if (self.dec_hidden // self.dec_heads) % 2:
            raise BadConfig("rotary needs an even per-head dimension (dec_hidden / dec_heads)")
        if self.method is FusionMethod.POST_QFORMER and self.out_hidden % self.qformer_heads:
            raise BadConfig(f"out_hidden {self.out_hidden} not divisible by "
                            f"qformer_heads {self.qformer_heads}")
        if self.height % self.patch or self.width % self.patch:
            raise BadConfig(f"{self.height}x{self.width} not divisible by patch {self.patch}")
        side = self.height // self.patch
        if side != self.width // self.patch or side % 2:
            raise BadConfig(f"patch grid {side}x{self.width // self.patch} "
                            "must be square with even side")
        if self.n_input % self.k:
            raise BadConfig(f"{self.n_input} frames not divisible by k={self.k}")
        if self.vocab < len(VOCAB):
            raise BadConfig(f"vocab {self.vocab} smaller than question vocabulary {len(VOCAB)}")

    @property
    def tokens_per_frame(self) -> int:
        return (self.height // self.patch) * (self.width // self.patch)

    @property
    def tokens_per_group(self) -> int:
        """l: decoder-side tokens per compressed group after the 2x2 merge."""
        return self.tokens_per_frame // 4

    @property
    def budget(self) -> TokenBudget:
        return token_budget(self.n_input, self.tokens_per_group, self.k)

    @property
    def encoder_frames(self) -> int:
        """Frames entering the encoder (channel merge collapses them first)."""
        if self.method is FusionMethod.PRE_ENCODER_CHANNEL_MERGE:
            return self.n_input // self.k
        return self.n_input

    @property
    def patch_dim(self) -> int:
        c = self.channels
        if self.method is FusionMethod.PRE_ENCODER_CHANNEL_MERGE:
            c *= self.k
        return c * self.patch * self.patch


@dataclass
class ModelBundle:
    cfg: ModelConfig
    params: dict[str, Tensor]

    def parameter_count(self) -> int:
        return sum(t.size for t in self.params.values())


def build_model(cfg: ModelConfig, seed: int, init_std: float = 0.02) -> ModelBundle:
    """Initialize all parameters from per-component seed streams, so models
    sharing a component get identical draws regardless of method."""
    t = cfg.tokens_per_frame
    h = cfg.enc_hidden
    params: dict[str, Tensor] = {}
    front = RngState(derive_seed(seed, "front"))
    params["patch_proj.w"] = param(front.normal_array((cfg.patch_dim, h), init_std))
    params["patch_proj.b"] = param(np.zeros(h))
    params["pos.spatial"] = param(RngState(derive_seed(seed, "pos")).normal_array((t, h), init_std))
    if cfg.method is FusionMethod.THROUGH_ENCODER:
        params["pos.temporal"] = param(
            RngState(derive_seed(seed, "pos-temporal")).normal_array((cfg.k, h), init_std))
    for part, init in (("enc", init_encoder_params), ("comp", init_compressor_params),
                       ("dec", init_decoder_params)):
        params.update(init(cfg, RngState(derive_seed(seed, part)), init_std))
    return ModelBundle(cfg=cfg, params=params)


def _check_pixels(cfg: ModelConfig, pixels: np.ndarray) -> None:
    want = (cfg.n_input, cfg.channels, cfg.height, cfg.width)
    if pixels.ndim != 5 or pixels.shape[1:] != want:
        raise ShapeMismatch(f"pixels {pixels.shape}, expected [B, {want[0]}, {want[1]}, "
                            f"{want[2]}, {want[3]}]")


def _first_and_index(keys) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by key: key j first appears at row first[j], and row i has
    key index[i], keys numbered in order of first appearance."""
    seen: dict = {}
    first, index = [], []
    for i, key in enumerate(keys):
        j = seen.setdefault(key, len(seen))
        if j == len(first):
            first.append(i)
        index.append(j)
    return np.array(first), np.array(index)


def _distinct_scopes(scopes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, index) for rows `scopes` [N, D], one encoder scope's pixels a
    row: rows `first` are pairwise byte-distinct, in order of first
    appearance, and row i equals row first[index[i]] byte for byte. Pixels
    are byte-equal exactly when their widened patch rows are.

    Rows are grouped by the bits of a fingerprint, each row's dot product
    with a fixed vector in the rows' own dtype. `np.einsum` runs the same loop
    over every row of one call, so byte-equal rows get bit-equal fingerprints;
    a BLAS GEMV does not promise that, and OpenBLAS does sum equal rows
    differently by position. Every repeat is then confirmed byte for byte;
    rows that share a fingerprint but not their bytes (0.0 and -0.0 both sum
    to 0.0) send the grouping to the rows' own bytes."""
    weights = np.cos(np.arange(scopes.shape[1]) * 0.7548776662466927).astype(scopes.dtype)
    fingerprints = np.einsum("ij,j->i", scopes, weights).view(f"u{scopes.itemsize}")
    first, index = _first_and_index(fingerprints.tolist())
    # row by row: gathering all repeats at once costs megabytes of fresh pages
    if any(i != j and scopes[i].tobytes() != scopes[j].tobytes()
           for i, j in enumerate(first[index].tolist())):
        first, index = _first_and_index(row.tobytes() for row in scopes)
    return first, index


def video_token_forward(bundle: ModelBundle, pixels: np.ndarray) -> Tensor:
    """[B, F, C, H, W] pixels -> [B, L_decoder, out] compressed video tokens."""
    cfg = bundle.cfg
    _check_pixels(cfg, pixels)
    b = pixels.shape[0]
    k, t, h = cfg.k, cfg.tokens_per_frame, cfg.enc_hidden
    if cfg.method is FusionMethod.PRE_ENCODER_CHANNEL_MERGE:
        pixels = merge_temporal_channels(pixels, k)
    tokens = matmul_rebuilt(lambda: extract_patches(pixels, cfg.patch),  # [B, F', T, pd]
                            bundle.params["patch_proj.w"])
    tokens = add(add(tokens, bundle.params["patch_proj.b"]), bundle.params["pos.spatial"])
    seqs = reshape(tokens, (b * cfg.encoder_frames, t, h))
    if cfg.method is FusionMethod.THROUGH_ENCODER:
        # k divides each clip's frames, so no group spans two clips
        seqs = merge_neighbor_frames(seqs, k, bundle.params["pos.temporal"])
    first, index = _distinct_scopes(pixels.reshape(seqs.shape[0], -1))
    enc = gather(encode(gather(seqs, first), cfg, bundle.params), index)
    enc = reshape(enc, (b, cfg.encoder_frames, t, h))
    out = compress(enc, cfg, bundle.params)
    bb, g, l, oh = out.shape
    return reshape(out, (bb, g * l, oh))


def forward_logits(bundle: ModelBundle, pixels: np.ndarray,
                   question_ids: np.ndarray) -> Tensor:
    """Full forward pass to 4-way answer logits [B, 4]."""
    video = video_token_forward(bundle, pixels)
    return answer_logits(causal_decode(video, question_ids, bundle.cfg, bundle.params),
                         bundle.params)


def batch_loss(bundle: ModelBundle, pixels: np.ndarray, question_ids: np.ndarray,
               answer_idx) -> Tensor:
    logits = forward_logits(bundle, pixels, question_ids)
    return cross_entropy(logits, answer_idx)


def config_to_dict(cfg: ModelConfig) -> dict:
    d = {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}
    d["method"] = cfg.method.value
    return d


def config_from_dict(d: dict) -> ModelConfig:
    kwargs = dict(check_keys(d, ModelConfig, "model config"))
    kwargs["method"] = parse_method(kwargs.get("method"))
    return ModelConfig(**kwargs)


# ---- flop accounting (multiply-add = 2 flops; matmuls only) ----

def _attention_block_flops(seq: int, width: int, ffn: int) -> int:
    proj = 4 * seq * width * width * 2
    scores = 2 * seq * seq * width * 2
    ffn_cost = 2 * seq * width * ffn * 2
    return proj + scores + ffn_cost


def model_flops_per_clip(cfg: ModelConfig) -> int:
    """Forward-pass matmul flops for one clip, by component: the all-distinct
    cost. A clip whose encoder scopes repeat costs less, since
    `video_token_forward` encodes each distinct scope once. Deterministic in
    the config; elementwise work (norms, gelu, softmax) is not counted."""
    t, l, h, k = cfg.tokens_per_frame, cfg.tokens_per_group, cfg.enc_hidden, cfg.k
    out = cfg.out_hidden
    total = cfg.encoder_frames * t * cfg.patch_dim * h * 2
    if cfg.method is FusionMethod.THROUGH_ENCODER:
        groups, seq = cfg.n_input // k, k * t
    else:
        groups, seq = cfg.encoder_frames, t
    total += groups * cfg.enc_layers * _attention_block_flops(seq, h, cfg.enc_ffn)
    # the compressor's steps, as `compress` runs them
    frames, width = cfg.encoder_frames, h
    if cfg.method in (FusionMethod.THROUGH_ENCODER, FusionMethod.POST_MLP_KANGAROO):
        frames, width = cfg.n_input // k, k * h
    if cfg.method is FusionMethod.POST_MLP_KANGAROO:
        total += frames * t * (width * 2 * h + 2 * h * h) * 2
        width = h
    total += frames * l * (4 * width) * out * 2
    if cfg.method is FusionMethod.POST_QFORMER:
        per_window = cfg.qformer_layers * (
            4 * l * out * out * 2 + 2 * l * l * out * 2          # query self-attention
            + 2 * (l + k * l) * out * out * 2 + 2 * l * k * l * out * 2  # cross
            + 2 * l * out * 2 * out * 2)                          # feed-forward
        total += cfg.n_input // k * per_window
    seq_d = cfg.budget.l_decoder + QUESTION_LEN
    total += cfg.budget.l_decoder * out * cfg.dec_hidden * 2
    total += cfg.dec_layers * _attention_block_flops(seq_d, cfg.dec_hidden, cfg.dec_ffn)
    total += cfg.dec_hidden * 4 * 2
    return total
