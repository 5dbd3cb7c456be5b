import json
import struct

import numpy as np
import pytest

from framefuse.autodiff import Tensor
from framefuse.checkpoint import (CHECKPOINT_MAGIC, apply_checkpoint,
                                  load_checkpoint, load_checkpoint_meta,
                                  save_checkpoint)
from framefuse.errors import BadConfig


def sample_params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "b.weight": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "a.scale": Tensor(np.array(2.5), requires_grad=True),
        "c.bias": Tensor(rng.normal(size=5), requires_grad=True),
    }


def test_round_trip_bit_exact(tmp_path):
    params = sample_params()
    path = tmp_path / "m.tfz"
    save_checkpoint(params, path, {})
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for name, arr in loaded.items():
        assert arr.dtype == np.float64
        assert np.array_equal(arr, params[name].data)
        assert arr.shape == params[name].data.shape


def test_records_are_name_sorted(tmp_path):
    params = sample_params()
    path = tmp_path / "m.tfz"
    save_checkpoint(params, path, {})
    blob = path.read_bytes()
    assert blob[:4] == CHECKPOINT_MAGIC
    names = []
    off = 4
    while off < len(blob):
        (nlen,) = struct.unpack_from("<I", blob, off)
        off += 4
        names.append(blob[off:off + nlen].decode())
        off += nlen
        (rank,) = struct.unpack_from("<I", blob, off)
        off += 4
        shape = struct.unpack_from(f"<{rank}Q", blob, off)
        off += 8 * rank
        count = 1
        for e in shape:
            count *= e
        off += 8 * count
    assert names == sorted(names)


def test_sidecar_json(tmp_path):
    params = sample_params()
    path = tmp_path / "m.tfz"
    save_checkpoint(params, path, meta={"steps": 12})
    sidecar = json.loads((tmp_path / "m.tfz.json").read_text())
    assert sidecar["format"] == "TFZ1"
    assert sidecar["parameters"] == 3
    assert sidecar["values"] == 12 + 1 + 5
    assert sidecar["steps"] == 12
    assert load_checkpoint_meta(path)["steps"] == 12


def test_bad_magic(tmp_path):
    path = tmp_path / "x.tfz"
    path.write_bytes(b"WXYZ" + b"\x00" * 64)
    with pytest.raises(BadConfig, match="not a TFZ1 checkpoint"):
        load_checkpoint(path)


def test_truncated_record(tmp_path):
    params = sample_params()
    path = tmp_path / "m.tfz"
    save_checkpoint(params, path, {})
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 7])
    with pytest.raises(BadConfig, match="record cut off at byte"):
        load_checkpoint(path)


def test_repeated_tensor_name_rejected(tmp_path):
    path = tmp_path / "m.tfz"
    save_checkpoint({"w": Tensor(np.ones((2, 3)))}, path, {})
    blob = path.read_bytes()
    path.write_bytes(blob + blob[4:])  # the one record, twice
    with pytest.raises(BadConfig, match="tensor w appears twice"):
        load_checkpoint(path)


def test_apply_checkpoint_in_place(tmp_path):
    params = sample_params(1)
    path = tmp_path / "m.tfz"
    save_checkpoint(params, path, {})
    target = sample_params(2)
    arrays_before = {n: p.data for n, p in target.items()}
    apply_checkpoint(target, load_checkpoint(path))
    for name, p in target.items():
        assert p.data is arrays_before[name]
        assert np.array_equal(p.data, params[name].data)


def test_apply_checkpoint_name_mismatch():
    target = sample_params()
    loaded = {n: p.data.copy() for n, p in sample_params().items()}
    del loaded["a.scale"]
    loaded["zz.extra"] = np.zeros(2)
    with pytest.raises(BadConfig, match=r"name mismatch: extra \['zz.extra'\], missing \['a.scale'\]"):
        apply_checkpoint(target, loaded)


def test_apply_checkpoint_shape_mismatch():
    target = sample_params()
    loaded = {n: p.data.copy() for n, p in sample_params().items()}
    loaded["c.bias"] = np.zeros(6)
    with pytest.raises(BadConfig, match=r"c.bias: checkpoint \(6,\) vs model"):
        apply_checkpoint(target, loaded)


def test_model_checkpoint_restores_forward(tmp_path):
    from framefuse.frontend import FusionMethod
    from framefuse.pipeline import ModelConfig, build_model, video_token_forward

    cfg = ModelConfig(method=FusionMethod.THROUGH_ENCODER, k=2, n_input=4,
                      enc_layers=1, enc_hidden=8, enc_heads=2, enc_ffn=12,
                      out_hidden=8, dec_layers=1, dec_hidden=8, dec_heads=2,
                      dec_ffn=12, vocab=38,
                      qformer_layers=1, qformer_heads=2)
    bundle = build_model(cfg, 7)
    rng = np.random.default_rng(0)
    pixels = rng.random((1, 4, 3, 28, 28))
    before = video_token_forward(bundle, pixels).data
    path = tmp_path / "m.tfz"
    save_checkpoint(bundle.params, path, {})
    other = build_model(cfg, 8)
    assert not np.array_equal(video_token_forward(other, pixels).data, before)
    apply_checkpoint(other.params, load_checkpoint(path))
    assert np.array_equal(video_token_forward(other, pixels).data, before)
