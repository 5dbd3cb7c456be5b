"""Clip-to-token frontend: patch extraction, temporal channel merge,
neighbor-frame grouping, and the CLP1 clip file format."""
from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, reshape
from .errors import BadConfig

CLIP_MAGIC = b"CLP1"


class FusionMethod(enum.Enum):
    """Where temporal fusion happens relative to the encoder."""

    BASELINE = "baseline"
    PRE_ENCODER_CHANNEL_MERGE = "channel-merge"
    POST_POOL_PLLAVA = "pllava-pool"
    POST_MLP_KANGAROO = "kangaroo-mlp"
    POST_QFORMER = "qformer"
    THROUGH_ENCODER = "through-encoder"


# every method but the baseline, in enum order, which is the grid and report
# order (baseline enters a grid only as the k=1 cell)
COMPRESSION_METHODS = tuple(m for m in FusionMethod if m is not FusionMethod.BASELINE)


def parse_method(name) -> FusionMethod:
    """The fusion method named `name`; an unknown name is a BadConfig."""
    try:
        return FusionMethod(name)
    except ValueError:
        known = ", ".join(m.value for m in FusionMethod)
        raise BadConfig(f"unknown method {name!r}; expected one of {known}") from None


class ClipPixels:
    """A clip's pixels [F, C, H, W] in [0, 1] as a row-major float32 array
    in `data`, converted on construction as `Tensor` converts to float64."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float32, order="C")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


@dataclass
class VideoClip:
    """One clip. Its pixels are float32 in memory and on disk: that is the CLP1
    precision, and it holds every value the generators paint (0, .25, .5, .75,
    1) exactly, so no save rounds and no load widens. A batch is widened to the
    model's float64 only by `extract_patches`, in the copy of its patch rows."""

    pixels: ClipPixels


def extract_patches(pixels: np.ndarray, patch: int) -> np.ndarray:
    """[..., C, H, W] -> [..., T, C*patch*patch] float64 rows.

    Patches scan row-major over the (H/p, W/p) grid; each patch vector is the
    channel-first flattening of its [C, p, p] block. Float32 pixels widen,
    exactly, in the one copy that lays the rows out. The patch projection
    calls this again in its gradient instead of keeping the rows.
    """
    *lead, c, h, w = pixels.shape
    gh, gw = h // patch, w // patch
    x = pixels.reshape(*lead, c, gh, patch, gw, patch)
    nd = x.ndim
    # [..., c, gh, p, gw, p] -> [..., gh, gw, c, p, p]
    x = np.moveaxis(x, (nd - 4, nd - 2), (nd - 5, nd - 4))
    return np.ascontiguousarray(x, dtype=np.float64).reshape(*lead, gh * gw, c * patch * patch)


def merge_temporal_channels(pixels: np.ndarray, k: int) -> np.ndarray:
    """Stack k consecutive frames along the channel axis:
    [..., F, C, H, W] -> [..., F/k, k*C, H, W].

    Output frame i carries input frames i*k .. i*k+k-1 in temporal order, so
    channels 0..C-1 come from the first frame of the window.
    """
    *lead, f, c, h, w = pixels.shape
    return pixels.reshape(*lead, f // k, k * c, h, w)


def merge_neighbor_frames(tokens: Tensor, k: int, temporal_table: Tensor) -> Tensor:
    """Group adjacent k frames along the token axis and add the absolute
    temporal table (one row per in-group frame offset):
    [..., F, T, h] -> [..., F/k, k*T, h].

    Token (g, j*T + p) equals input token (frame g*k + j, p) + table[j].
    """
    *lead, f, t, h = tokens.shape
    x = reshape(tokens, (*lead, f // k, k, t, h))
    x = add(x, reshape(temporal_table, (k, 1, h)))
    return reshape(x, (*lead, f // k, k * t, h))


# ---- CLP1 clip files: magic, F/C/H/W u32 LE, then f32 LE pixels ----

def save_clip(clip: VideoClip, path) -> None:
    f, c, h, w = clip.pixels.shape
    with open(path, "wb") as fh:
        fh.write(CLIP_MAGIC)
        fh.write(struct.pack("<4I", f, c, h, w))
        fh.write(np.ascontiguousarray(clip.pixels.data, dtype="<f4"))


def load_clip(path) -> VideoClip:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CLIP_MAGIC:
        raise BadConfig(f"{path}: not a CLP1 clip")
    if len(blob) < 20:
        raise BadConfig(f"{path}: clip header truncated")
    f, c, h, w = struct.unpack_from("<4I", blob, 4)
    need = 20 + 4 * f * c * h * w
    if len(blob) != need:
        raise BadConfig(f"{path}: expected {need} bytes, found {len(blob)}")
    pixels = np.frombuffer(blob, dtype="<f4", count=f * c * h * w, offset=20)
    if not np.isfinite(pixels).all():
        raise BadConfig(f"{path}: non-finite pixel values")
    return VideoClip(pixels=ClipPixels(pixels.reshape(f, c, h, w)))
