"""Reference code the tests compare the program against; no program path
calls it.

The pipeline folds each attention scope (one frame, or one group of k frames)
into the batch axis and encodes unmasked. build_scope_mask gives the
block-diagonal mask under which one flat sequence, run through masked_encode,
encodes exactly like those folded scopes.

video_token_forward encodes each distinct scope once and copies the result to
its repeats; all_scopes_video_token_forward encodes every scope.
patch_row_video_token_forward feeds the float64 patch rows to the patch
projection as an explicit Tensor through `linear`, so the tape keeps them,
and groups scopes by those rows' bytes; video_token_forward keeps only the
pixels and rebuilds the rows for the projection's weight gradient.

RngState draws its arrays in numpy lanes; scalar_normal_array and
scalar_uniform_array draw the same values one `next_u64` call at a time.

decoder.causal_decode norms only the last position, the one the answer head
reads; decode_all_positions runs the same stack and norms every position.

autodiff.gelu computes in place; gelu_closed_form and gelu_grad_closed_form
are the same expressions written out whole.

The clip generators return only pixels and the answer; rc_transition_count
and sprite_bbox read back from the pixels what a script did.
"""
import math

import numpy as np

from framefuse import encoder
from framefuse.autodiff import (GELU_COEFF, MASK_BLOCKED, Tensor, add, concat_axis,
                                cross_entropy, embedding_lookup, gather, linear, reshape,
                                rms_norm)
from framefuse.compressor import compress
from framefuse.decoder import (answer_logits, build_causal_mask, causal_decode,
                               rotary_tables)
from framefuse.frontend import (FusionMethod, VideoClip, extract_patches,
                                merge_neighbor_frames, merge_temporal_channels)
from framefuse.pipeline import ModelBundle, ModelConfig
from framefuse.rng import RngState
from framefuse.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def build_scope_mask(total_tokens: int, block: int) -> Tensor:
    """Additive [S, S] mask: 0 inside each diagonal block, MASK_BLOCKED outside."""
    owner = np.arange(total_tokens) // block
    allowed = owner[:, None] == owner[None, :]
    data = np.where(allowed, 0.0, MASK_BLOCKED)
    return Tensor(data)


def masked_encode(tokens: Tensor, cfg: ModelConfig, mask: Tensor | None,
                  params: dict[str, Tensor]) -> Tensor:
    """The encoder stack over tokens [S, h] or [B, S, h]; `mask` is an additive
    [S, S] attention mask or None for full attention."""
    squeeze = tokens.ndim == 2
    x = reshape(tokens, (1,) + tokens.shape) if squeeze else tokens
    for i in range(cfg.enc_layers):
        x = encoder.block(x, params, f"enc.{i}", cfg.enc_heads, mask)
    return reshape(x, tokens.shape) if squeeze else x


def byte_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, index) grouping rows [N, D] by their bytes: row first[j] is the
    first with the j-th distinct bytes, and row i has the bytes of
    first[index[i]]."""
    firsts: dict[bytes, int] = {}
    for i, row in enumerate(rows):
        firsts.setdefault(row.tobytes(), i)
    number = {key: j for j, key in enumerate(firsts)}
    return np.array(list(firsts.values())), np.array([number[r.tobytes()] for r in rows])


def patch_row_video_token_forward(bundle: ModelBundle, pixels: np.ndarray,
                                  dedup: bool = True) -> Tensor:
    """[B, F, C, H, W] pixels -> [B, L_decoder, out] through an explicit
    float64 patch-row Tensor. With `dedup` each scope whose patch rows repeat
    an earlier scope's bytes takes that scope's encoding; without it every
    scope is encoded."""
    cfg = bundle.cfg
    b = pixels.shape[0]
    k, t, h = cfg.k, cfg.tokens_per_frame, cfg.enc_hidden
    if cfg.method is FusionMethod.PRE_ENCODER_CHANNEL_MERGE:
        pixels = merge_temporal_channels(pixels, k)
    vecs = extract_patches(pixels, cfg.patch)  # [B, F', T, pd]
    tokens = linear(Tensor(vecs), bundle.params["patch_proj.w"],
                    bundle.params["patch_proj.b"])
    tokens = add(tokens, bundle.params["pos.spatial"])
    seqs = reshape(tokens, (b * cfg.encoder_frames, t, h))
    if cfg.method is FusionMethod.THROUGH_ENCODER:
        seqs = merge_neighbor_frames(seqs, k, bundle.params["pos.temporal"])
    if dedup:
        first, index = byte_groups(vecs.reshape(seqs.shape[0], -1))
        enc = gather(encoder.encode(gather(seqs, first), cfg, bundle.params), index)
    else:
        enc = encoder.encode(seqs, cfg, bundle.params)
    enc = reshape(enc, (b, cfg.encoder_frames, t, h))
    out = compress(enc, cfg, bundle.params)
    bb, g, l, oh = out.shape
    return reshape(out, (bb, g * l, oh))


def all_scopes_video_token_forward(bundle: ModelBundle, pixels: np.ndarray) -> Tensor:
    """[B, F, C, H, W] pixels -> [B, L_decoder, out], every scope encoded."""
    return patch_row_video_token_forward(bundle, pixels, dedup=False)


def all_scopes_forward_logits(bundle: ModelBundle, pixels: np.ndarray,
                              question_ids: np.ndarray) -> Tensor:
    """forward_logits over all_scopes_video_token_forward."""
    video = all_scopes_video_token_forward(bundle, pixels)
    return answer_logits(causal_decode(video, question_ids, bundle.cfg, bundle.params),
                         bundle.params)


def patch_row_batch_loss(bundle: ModelBundle, pixels: np.ndarray, question_ids: np.ndarray,
                         answer_idx) -> Tensor:
    """batch_loss over patch_row_video_token_forward."""
    video = patch_row_video_token_forward(bundle, pixels)
    logits = answer_logits(causal_decode(video, question_ids, bundle.cfg, bundle.params),
                           bundle.params)
    return cross_entropy(logits, answer_idx)


def decode_all_positions(video_tokens: Tensor, question_ids: np.ndarray, cfg: ModelConfig,
                         params: dict[str, Tensor]) -> Tensor:
    """Hidden states [B, L+Q, hidden] of every position after the final norm,
    from video tokens [B, L, out] and question ids [B, Q]."""
    video = linear(video_tokens, params["dec.video_proj_w"], params["dec.video_proj_b"])
    question = embedding_lookup(params["dec.embed"], question_ids)
    x = concat_axis([video, question], 1)
    seq = x.shape[1]
    mask = build_causal_mask(seq)
    cos, sin = rotary_tables(seq, cfg.dec_hidden // cfg.dec_heads)
    rotary = (Tensor(cos), Tensor(sin))
    for i in range(cfg.dec_layers):
        x = encoder.block(x, params, f"dec.{i}", cfg.dec_heads, mask, rotary)
    return rms_norm(x, params["dec.final_norm"])


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


def rc_transition_count(clip: VideoClip, threshold: float = 0.05) -> int:
    """Pixel-level repetition oracle: count on->off transitions of whole-frame
    activity. RC clips contain only the blinking sprite and end dark, so the
    transition count equals the repetition count."""
    active = (clip.pixels.data > threshold).any(axis=(1, 2, 3))
    return int(np.sum(active[:-1] & ~active[1:]))


def sprite_bbox(frame: np.ndarray, threshold: float = 0.05):
    """(top, left, bottom, right) of the lit pixels of one frame [C, H, W],
    bottom and right exclusive, or None for a dark frame. Painted sprites
    are at least 0.25 in some channel and the background is 0."""
    lit = (frame > threshold).any(axis=0)
    rows, cols = np.flatnonzero(lit.any(axis=1)), np.flatnonzero(lit.any(axis=0))
    if rows.size == 0:
        return None
    return int(rows[0]), int(cols[0]), int(rows[-1]) + 1, int(cols[-1]) + 1


def scalar_uniform(rng: RngState) -> float:
    """The 53 high bits of one next_u64 word as a double in [0, 1)."""
    return (rng.next_u64() >> 11) * (1.0 / (1 << 53))


def scalar_normal_array(rng: RngState, shape, std: float = 1.0) -> np.ndarray:
    """RngState.normal_array one value at a time: Box-Muller in `math` over
    scalar uniforms, an odd count dropping the last sin."""
    n = 1
    for e in shape:
        n *= e
    out = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        u1 = 1.0 - scalar_uniform(rng)
        u2 = scalar_uniform(rng)
        r = math.sqrt(-2.0 * math.log(u1))
        out[i] = r * math.cos(2.0 * math.pi * u2)
        if i + 1 < n:
            out[i + 1] = r * math.sin(2.0 * math.pi * u2)
        i += 2
    return (out * std).reshape(shape)


def scalar_uniform_array(rng: RngState, shape) -> np.ndarray:
    """RngState.uniform_array one value at a time."""
    n = 1
    for e in shape:
        n *= e
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        out[i] = scalar_uniform(rng)
    return out.reshape(shape)


def gelu_closed_form(xd: np.ndarray) -> np.ndarray:
    """tanh-form gelu, one expression."""
    t = np.tanh(GELU_COEFF * (xd + 0.044715 * (xd * xd * xd)))
    return 0.5 * xd * (1.0 + t)


def gelu_grad_closed_form(xd: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g times d gelu / dx, one expression."""
    t = np.tanh(GELU_COEFF * (xd + 0.044715 * (xd * xd * xd)))
    sech2 = 1.0 - t * t
    local = 0.5 * (1.0 + t) + 0.5 * xd * sech2 * GELU_COEFF * (1.0 + 3.0 * 0.044715 * (xd * xd))
    return g * local


def softmax_closed_form(xd: np.ndarray) -> np.ndarray:
    """Last-axis softmax, whole-array expressions."""
    e = np.exp(xd - xd.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_grad_closed_form(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g pulled back through the softmax whose output is y."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def adam_closed_form(p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray,
                     t: int, lr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adam step t of one tensor as whole-array expressions: (p, m, v) after it."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    update = (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + ADAM_EPS)
    return p - lr * update, m, v
