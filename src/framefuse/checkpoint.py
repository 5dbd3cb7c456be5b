"""TFZ1 checkpoint files.

Layout: 4-byte magic, then one record per tensor in sorted name order:
u32 name length, UTF-8 name, u32 rank, u64 extents, float64 values,
everything little-endian with no padding. A JSON sidecar at path + ".json"
carries whatever metadata the caller wants alongside the binary blob.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import BadConfig, read_json

CHECKPOINT_MAGIC = b"TFZ1"


def save_checkpoint(params: dict[str, Tensor], path, meta: dict) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name in sorted(params):
            blob = name.encode("utf-8")
            data = params[name].data
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            fh.write(data.astype("<f8", copy=False).tobytes())
    sidecar = {"format": "TFZ1", "parameters": len(params),
               "values": int(sum(p.size for p in params.values()))}
    sidecar.update(meta)
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path) -> dict[str, np.ndarray]:
    try:
        blob = Path(path).read_bytes()
    except OSError as err:
        raise BadConfig(f"cannot read checkpoint {path}: {err}") from err
    if blob[:4] != CHECKPOINT_MAGIC:
        raise BadConfig(f"{path}: not a TFZ1 checkpoint")
    out: dict[str, np.ndarray] = {}
    offset = 4
    end = len(blob)

    def need(n: int):
        nonlocal offset
        if offset + n > end:
            raise BadConfig(f"{path}: record cut off at byte {offset}")
        offset += n
        return offset - n

    while offset < end:
        at = need(4)
        (name_len,) = struct.unpack_from("<I", blob, at)
        try:
            name = blob[need(name_len):offset].decode("utf-8")
        except UnicodeDecodeError as err:
            raise BadConfig(f"cannot read checkpoint {path}: {err}") from err
        if name in out:
            raise BadConfig(f"{path}: tensor {name} appears twice")
        at = need(4)
        (rank,) = struct.unpack_from("<I", blob, at)
        at = need(8 * rank)
        shape = struct.unpack_from(f"<{rank}Q", blob, at)
        count = 1
        for extent in shape:
            count *= extent
        at = need(8 * count)
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=at)
        if not np.isfinite(values).all():
            raise BadConfig(f"{path}: non-finite values in {name}")
        out[name] = values.reshape(shape).astype(np.float64)
    return out


def load_checkpoint_meta(path) -> dict:
    return read_json(Path(path).with_suffix(Path(path).suffix + ".json"), "checkpoint sidecar")


def apply_checkpoint(params: dict[str, Tensor], loaded: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into an existing parameter dict, in place. Name sets
    must match exactly in both directions."""
    extra = sorted(set(loaded) - set(params))
    missing = sorted(set(params) - set(loaded))
    if extra or missing:
        raise BadConfig(f"checkpoint/model name mismatch: extra {extra}, missing {missing}")
    for name, values in loaded.items():
        if params[name].shape != values.shape:
            raise BadConfig(f"{name}: checkpoint {values.shape} vs model {params[name].shape}")
        params[name].data[...] = values
