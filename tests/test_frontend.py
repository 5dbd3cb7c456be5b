import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framefuse.autodiff import Tensor
from framefuse.errors import BadConfig, ShapeMismatch
from framefuse.frontend import (ClipPixels, VideoClip, extract_patches, load_clip,
                                merge_neighbor_frames, merge_temporal_channels,
                                save_clip)


def rand_clip(rng, f=4, c=3, h=8, w=8):
    return VideoClip(pixels=ClipPixels(rng.random((f, c, h, w))))


def test_extract_patches_row_major_channel_first():
    # two 2x2 patches side by side; values encode (channel, row, col)
    pixels = np.arange(2 * 2 * 4, dtype=np.float64).reshape(2, 2, 4)
    out = extract_patches(pixels, 2)
    assert out.shape == (2, 8)
    left = pixels[:, :, :2]
    assert np.array_equal(out[0], left.reshape(-1))
    right = pixels[:, :, 2:]
    assert np.array_equal(out[1], right.reshape(-1))


def test_extract_patches_grid_order():
    pixels = np.zeros((1, 4, 4))
    pixels[0, 2:, :2] = 1.0  # third patch in row-major (gh, gw) order
    out = extract_patches(pixels, 2)
    assert out.shape == (4, 4)
    assert np.array_equal(out.sum(axis=1), [0.0, 0.0, 4.0, 0.0])


def test_patchify_shapes():
    rng = np.random.default_rng(0)
    clip = rand_clip(rng, f=8, c=3, h=28, w=28)
    vecs = extract_patches(clip.pixels.data, 7)
    assert vecs.shape == (8, 16, 3 * 7 * 7)


def test_patchify_single_patch_equals_projection():
    rng = np.random.default_rng(1)
    clip = rand_clip(rng, f=1, c=3, h=4, w=4)
    w = rng.normal(size=(48, 5))
    tokens = extract_patches(clip.pixels.data, 4) @ w
    assert tokens.shape == (1, 1, 5)
    expect = clip.pixels.data.reshape(1, 1, 48) @ w
    assert np.allclose(tokens, expect)


def test_patchify_paper_scale_token_count():
    # 224/14 -> 16x16 = 256 patches per frame
    pixels = np.zeros((3, 224, 224))
    out = extract_patches(pixels, 14)
    assert out.shape == (256, 3 * 14 * 14)


def test_merge_temporal_channels_shape_and_layout():
    rng = np.random.default_rng(2)
    pixels = rand_clip(rng, f=8, c=3).pixels.data
    merged = merge_temporal_channels(pixels, 2)
    assert merged.shape == (4, 6, 8, 8)
    assert np.array_equal(merged[1, :3], pixels[2])
    assert np.array_equal(merged[1, 3:], pixels[3])


def test_merge_temporal_channels_identity_at_k1():
    rng = np.random.default_rng(3)
    pixels = rand_clip(rng).pixels.data
    merged = merge_temporal_channels(pixels, 1)
    assert np.array_equal(merged, pixels)


def test_merge_temporal_channels_batched():
    # a leading batch axis: each clip's windows stay inside that clip
    rng = np.random.default_rng(8)
    pixels = rng.random((2, 4, 3, 8, 8))
    merged = merge_temporal_channels(pixels, 2)
    assert merged.shape == (2, 2, 6, 8, 8)
    for b in range(2):
        assert np.array_equal(merged[b], merge_temporal_channels(pixels[b], 2))


def test_merge_neighbor_frames_shapes():
    grouped = merge_neighbor_frames(Tensor(np.zeros((8, 16, 4))), 2,
                                    Tensor(np.zeros((2, 4))))
    assert grouped.shape == (4, 32, 4)


def test_merge_neighbor_frames_token_layout():
    tokens = np.arange(2 * 2 * 3 * 1, dtype=np.float64).reshape(4, 3, 1)
    table = np.array([[10.0], [20.0]])
    grouped = merge_neighbor_frames(Tensor(tokens), 2, Tensor(table))
    # token (g, j*T + p) = input (g*2 + j, p) + table[j]
    for g in range(2):
        for j in range(2):
            for p in range(3):
                got = grouped.data[g, j * 3 + p, 0]
                assert got == tokens[g * 2 + j, p, 0] + table[j, 0]


def test_merge_neighbor_frames_k1_zero_table_identity():
    rng = np.random.default_rng(5)
    tokens = rng.normal(size=(4, 6, 3))
    grouped = merge_neighbor_frames(Tensor(tokens), 1, Tensor(np.zeros((1, 3))))
    assert np.array_equal(grouped.data, tokens)


def test_merge_neighbor_frames_batched():
    rng = np.random.default_rng(9)
    tokens = rng.normal(size=(3, 4, 6, 2))
    table = Tensor(rng.normal(size=(2, 2)))
    grouped = merge_neighbor_frames(Tensor(tokens), 2, table)
    assert grouped.shape == (3, 2, 12, 2)
    for b in range(3):
        alone = merge_neighbor_frames(Tensor(tokens[b]), 2, table)
        assert np.array_equal(grouped.data[b], alone.data)


def test_merge_neighbor_frames_checks_divisibility_and_table():
    # 6 frames do not split into groups of 4: the grouping reshape rejects it
    with pytest.raises(ShapeMismatch):
        merge_neighbor_frames(Tensor(np.zeros((6, 4, 3))), 4, Tensor(np.zeros((4, 3))))


def test_clip_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    clip = rand_clip(rng, f=3, c=3, h=14, w=16)
    path = tmp_path / "clip.clp"
    save_clip(clip, path)
    loaded = load_clip(path)
    assert loaded.pixels.shape == (3, 3, 14, 16)
    assert loaded.pixels.data.dtype == clip.pixels.data.dtype == np.float32
    assert np.array_equal(loaded.pixels.data, clip.pixels.data)


def test_clip_bad_magic(tmp_path):
    path = tmp_path / "junk.clp"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BadConfig, match="not a CLP1 clip"):
        load_clip(path)


def test_clip_truncated_header(tmp_path):
    path = tmp_path / "short.clp"
    path.write_bytes(b"CLP1\x01\x00")
    with pytest.raises(BadConfig, match="clip header truncated"):
        load_clip(path)


def test_clip_truncated_payload(tmp_path):
    rng = np.random.default_rng(7)
    clip = rand_clip(rng, f=2, c=3, h=14, w=14)
    path = tmp_path / "cut.clp"
    save_clip(clip, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 10])
    with pytest.raises(BadConfig, match=f"expected {len(blob)} bytes, found {len(blob) - 10}"):
        load_clip(path)


def test_clip_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "long.clp"
    save_clip(VideoClip(pixels=ClipPixels(np.zeros((2, 3, 4, 4)))), path)
    size = 20 + 4 * 2 * 3 * 4 * 4
    path.write_bytes(path.read_bytes() + bytes(4))
    with pytest.raises(BadConfig, match=f"expected {size} bytes, found {size + 4}"):
        load_clip(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_clip_non_finite_pixels_rejected(tmp_path, bad):
    pixels = np.zeros((2, 3, 4, 4))
    pixels[1, 2, 3, 0] = bad
    path = tmp_path / "bad.clp"
    save_clip(VideoClip(pixels=ClipPixels(pixels)), path)
    with pytest.raises(BadConfig, match="non-finite"):
        load_clip(path)


@given(st.integers(0, 10**6))
def test_clip_round_trip_property(seed):
    import tempfile
    from pathlib import Path
    rng = np.random.default_rng(seed)
    pixels = rng.random((2, 3, 14, 14), dtype=np.float32)
    clip = VideoClip(pixels=ClipPixels(pixels))
    with tempfile.TemporaryDirectory() as td:
        p = Path(td) / "c.clp"
        save_clip(clip, p)
        assert np.array_equal(load_clip(p).pixels.data, pixels)


@given(st.integers(0, 10**6))
def test_extract_patches_partitions_pixels(seed):
    rng = np.random.default_rng(seed)
    pixels = rng.random((3, 8, 8))
    out = extract_patches(pixels, 4)
    assert out.shape == (4, 48)
    assert np.isclose(out.sum(), pixels.sum())
    back = out.reshape(2, 2, 3, 4, 4)
    recon = np.moveaxis(back, 2, 0).reshape(3, 2, 2, 4, 4)
    recon = recon.transpose(0, 1, 3, 2, 4).reshape(3, 8, 8)
    assert np.array_equal(recon, pixels)
