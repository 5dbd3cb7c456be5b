import json

import numpy as np
import pytest

from framefuse.errors import BadConfig
from framefuse.rng import derive_seed
from framefuse.synthclips import (AO_OPTIONS, CANVAS, CATEGORY_ORDER, COUNTS,
                                  DIR_STEPS, MR_KINDS, PALETTE, QUESTION_LEN,
                                  RECORD_FIELDS, VOCAB, DatasetStats, GenConfig,
                                  TaskCategory, encode_question, gen_dataset,
                                  gen_sample, load_dataset, max_repetitions,
                                  question_length, save_dataset, _paint,
                                  _shape_mask)
from oracles import rc_transition_count, sprite_bbox

GCFG = GenConfig(frames=16)
SMALL = GenConfig(frames=8)


def answer(sample) -> str:
    return sample.options[sample.answer_idx]


def extent(box) -> tuple[int, int]:
    """(height, width) of a sprite_bbox box."""
    return box[2] - box[0], box[3] - box[1]


def test_gen_config_validation():
    with pytest.raises(BadConfig):
        GenConfig(frames=2)


def test_vocab_is_compact_and_unique():
    assert len(VOCAB) == 38
    assert len(set(VOCAB)) == 38
    assert VOCAB[0] == "<pad>"
    assert QUESTION_LEN == 5


def test_encode_question_layout():
    ids = encode_question(TaskCategory.RC, ("count:1", "count:2", "count:3", "count:4"))
    assert ids.shape == (5,)
    assert VOCAB[ids[0]] == "ask:rc"
    assert [VOCAB[i] for i in ids[1:]] == ["count:1", "count:2", "count:3", "count:4"]


def test_palette_and_directions():
    assert len(PALETTE) == 6
    assert DIR_STEPS == {"left": (0, -1), "right": (0, 1),
                         "up": (-1, 0), "down": (1, 0)}


def test_gen_sample_deterministic():
    a = gen_sample(TaskCategory.MR, 123, GCFG)
    b = gen_sample(TaskCategory.MR, 123, GCFG)
    assert np.array_equal(a.clip.pixels.data, b.clip.pixels.data)
    assert a.options == b.options
    assert a.answer_idx == b.answer_idx
    c = gen_sample(TaskCategory.MR, 124, GCFG)
    assert not np.array_equal(a.clip.pixels.data, c.clip.pixels.data)


@pytest.mark.parametrize("category", CATEGORY_ORDER)
def test_each_category_yields_valid_samples(category):
    for seed in range(12):
        s = gen_sample(category, seed, GCFG)
        assert s.clip.pixels.shape == (16, 3, 28, 28)
        assert np.all(s.clip.pixels.data >= 0.0)
        assert np.all(s.clip.pixels.data <= 1.0)
        assert len(s.options) == 4
        assert len(set(s.options)) == 4
        assert 0 <= s.answer_idx <= 3
        assert s.question_ids.shape == (QUESTION_LEN,)
        assert [VOCAB[i] for i in s.question_ids[1:]] == list(s.options)


def test_mr_covers_all_kinds_with_valid_scripts():
    kinds_seen = set()
    for seed in range(60):
        s = gen_sample(TaskCategory.MR, seed, GCFG)
        kind = answer(s)
        kinds_seen.add(kind)
        boxes = [sprite_bbox(frame) for frame in s.clip.pixels.data]
        if kind == "mr:translate":
            # one sprite, carried at least 6 px along one axis
            assert {extent(box) for box in boxes} == {extent(boxes[0])}
            dy, dx = boxes[-1][0] - boxes[0][0], boxes[-1][1] - boxes[0][1]
            assert 0 in (dy, dx) and abs(dy + dx) >= 6
        elif kind == "mr:rotate":
            # a 3 px bar turning a quarter every 1 or 2 frames
            h, w = extent(boxes[0])
            assert h == 3 < w
            period = next(t for t, box in enumerate(boxes) if extent(box) != (h, w))
            assert period in (1, 2)
            assert [extent(box) for box in boxes] == [
                (h, w) if (t // period) % 2 == 0 else (w, h) for t in range(len(boxes))]
        elif kind == "mr:blink":
            shown = [box is not None for box in boxes]
            period = shown.index(False)
            assert period in (1, 2)
            assert shown == [(t // period) % 2 == 0 for t in range(len(boxes))]
            assert len({box for box in boxes if box}) == 1
        else:  # a square growing by at least 5 px
            (h0, w0), (h1, w1) = extent(boxes[0]), extent(boxes[-1])
            assert h0 == w0 and h1 == w1 and h1 - h0 >= 5
    assert kinds_seen == set(MR_KINDS)


def test_mr_first_frame_does_not_leak_grow():
    # grow starts at 3..5 px while translate/blink squares span 5..7, so a
    # small first-frame square cannot be read as "grow"
    start_sizes = set()
    square_sizes = set()
    for seed in range(120):
        s = gen_sample(TaskCategory.MR, seed, GCFG)
        h, w = extent(sprite_bbox(s.clip.pixels.data[0]))
        if answer(s) == "mr:grow":
            start_sizes.add(h)
        elif answer(s) in ("mr:translate", "mr:blink") and h == w:
            square_sizes.add(h)
    assert start_sizes <= {3, 4, 5}
    assert square_sizes & {5, 6, 7}


def test_lm_scripts_move_and_end_matches_truth():
    for seed in range(30):
        s = gen_sample(TaskCategory.LM, seed, GCFG)
        first, last = (sprite_bbox(frame) for frame in s.clip.pixels.data[[0, -1]])
        dy, dx = DIR_STEPS[answer(s).removeprefix("lm:")]
        moved = (last[0] - first[0], last[1] - first[1])
        # at least 3 px toward the answered side, and nowhere else
        travel = dy * moved[0] + dx * moved[1]
        assert travel >= 3
        assert moved == (dy * travel, dx * travel)
        assert extent(first) == extent(last)


def test_cm_shifts_whole_scene():
    s = gen_sample(TaskCategory.CM, 7, GCFG)
    assert s.options[s.answer_idx].startswith("cm:")
    # static content, moving window: consecutive frames overlap shifted
    px = s.clip.pixels.data
    assert not np.array_equal(px[0], px[-1])


def quadrants(frame) -> list:
    """The four [C, H/2, W/2] quadrants of a frame, row-major."""
    half = CANVAS // 2
    return [frame[:, r:r + half, c:c + half] for r in (0, half) for c in (0, half)]


def footprint(frame, box):
    """The lit pixels of `frame` [C, H, W] inside sprite_bbox `box`."""
    top, left, bottom, right = box
    return (frame[:, top:bottom, left:right] > 0.05).any(axis=0)


def test_cm_keeps_a_sprite_in_every_frame():
    # each quadrant of frame 0 holds one whole sprite or none, so a frame with
    # fewer lit pixels than the smallest of them shows no whole sprite
    for frames in range(17, 33):
        gcfg = GenConfig(frames=frames)
        for i in range(10):
            px = gen_sample(TaskCategory.CM, derive_seed(43, frames, i), gcfg).clip.pixels.data
            lit = (px > 0.05).any(axis=1)
            sprites = [q.sum() for q in quadrants(lit[0][None]) if q.any()]
            assert len(sprites) == 3
            assert lit.sum(axis=(1, 2)).min() >= min(sprites)


def test_mo_mover_is_one_of_four_onscreen_shapes():
    for seed in range(20):
        s = gen_sample(TaskCategory.MO, seed, GCFG)
        start = quadrants(s.clip.pixels.data[0])
        first = [sprite_bbox(q) for q in start]
        last = [sprite_bbox(q) for q in quadrants(s.clip.pixels.data[-1])]
        assert None not in first
        moved = [q for q in range(4) if first[q] != last[q]]
        assert len(moved) == 1  # one sprite moves, inside its own quadrant
        (q,) = moved
        a, b = first[q], last[q]
        assert extent(a) == extent(b)
        assert max(abs(b[0] - a[0]), abs(b[1] - a[1])) >= 2
        # and it has the answer's shape, at the mover's size of 4 or 5 px
        masks = [_shape_mask(answer(s), n, n)[None] for n in (4, 5)]
        assert any(np.array_equal(footprint(start[q], a), footprint(m, sprite_bbox(m)))
                   for m in masks)


def test_ao_needs_eight_frames():
    with pytest.raises(BadConfig):
        gen_sample(TaskCategory.AO, 0, GenConfig(frames=6))


def first_change(px, cols: slice) -> tuple[int, str]:
    """The first frame at which canvas columns `cols` differ from frame 0, and
    what their sprite did there: vanish, move, grow or shrink."""
    boxes = [sprite_bbox(frame[:, :, cols]) for frame in px]
    t = next(t for t, box in enumerate(boxes) if box != boxes[0])
    if boxes[t] is None:
        return t, "blink"
    area = [h * w for h, w in (extent(boxes[0]), extent(boxes[t]))]
    return t, "move" if area[1] == area[0] else "grow" if area[1] > area[0] else "shrink"


def test_ao_events_are_ordered():
    half = CANVAS // 2
    for seed in range(20):
        s = gen_sample(TaskCategory.AO, seed, GCFG)
        # one actor per canvas half; the answer names the one that acts first
        (t0, first), (t1, second) = sorted(
            first_change(s.clip.pixels.data, cols) for cols in (np.s_[:half], np.s_[half:]))
        assert t0 < t1
        assert first != second
        assert answer(s) == f"ao:{first}-first"


def test_ao_truth_covers_all_actions():
    seen = {answer(gen_sample(TaskCategory.AO, seed, GCFG)) for seed in range(120)}
    assert seen == set(AO_OPTIONS)


def test_max_repetitions():
    assert max_repetitions(16) == 6
    assert max_repetitions(8) == 3
    assert max_repetitions(3) == 1


def test_rc_first_frame_dark_and_count_in_options():
    for seed in range(20):
        s = gen_sample(TaskCategory.RC, seed, GCFG)
        assert not s.clip.pixels.data[0].any()
        assert answer(s) in COUNTS[:max_repetitions(16)]
        assert set(s.options) <= set(COUNTS)


@pytest.mark.parametrize("gcfg", [GCFG, SMALL])
def test_rc_pixel_oracle_recovers_count(gcfg):
    for seed in range(30):
        s = gen_sample(TaskCategory.RC, seed * 31 + 5, gcfg)
        assert f"count:{rc_transition_count(s.clip)}" == answer(s)


@pytest.mark.parametrize("category,frames", [
    (c, f) for c in CATEGORY_ORDER for f in (3, 8, 16, 32)
    if c is not TaskCategory.AO or f >= 8])
def test_scripts_move_from_a_first_frame_that_does_not_answer(category, frames):
    gcfg = GenConfig(frames=frames)
    for i in range(100):
        s = gen_sample(category, derive_seed(41, category.value, frames, i), gcfg)
        px = s.clip.pixels.data
        assert any(not np.array_equal(frame, px[0]) for frame in px[1:])
        # no sprite reaches an edge; CM's scene shifts off the canvas on purpose
        lit = (px[:1] if category is TaskCategory.CM else px) > 0.05
        assert not lit[..., [0, -1], :].any() and not lit[..., [0, -1]].any()
        if category is TaskCategory.LM:
            # the sprite does not start in the outer third the answer names
            top, left, bottom, right = sprite_bbox(px[0])
            dy, dx = DIR_STEPS[answer(s).removeprefix("lm:")]
            centre = (left + right) / 2 if dx else (top + bottom) / 2
            if dx + dy > 0:
                assert centre <= 2 * CANVAS / 3
            else:
                assert centre >= CANVAS / 3


def density(total_question_length, total_duration_seconds) -> float:
    return DatasetStats(samples=1, per_category={}, total_question_length=total_question_length,
                        total_duration_seconds=total_duration_seconds,
                        option_position_histogram=(1, 0, 0, 0)).annotation_density


def test_annotation_density_frozen_values():
    assert density(684, 10.0) == pytest.approx(68.4)
    assert density(1263, 100.0) == pytest.approx(12.63)
    assert density(0, 5.0) == 0.0


def test_question_length_units():
    s = gen_sample(TaskCategory.MR, 0, GCFG)
    assert question_length(s, "words") == 5
    joined = " ".join(VOCAB[i] for i in s.question_ids)
    assert question_length(s, "chars") == len(joined)
    with pytest.raises(BadConfig):
        question_length(s, "syllables")


def test_gen_dataset_shape_and_order():
    samples, stats = gen_dataset(4, 99, SMALL)
    assert len(samples) == 24
    cats = [s.category for s in samples]
    assert cats == [c for c in CATEGORY_ORDER for _ in range(4)]
    assert stats.samples == 24
    assert stats.per_category == {c.value: 4 for c in CATEGORY_ORDER}


def test_gen_dataset_deterministic():
    a, _ = gen_dataset(2, 7, SMALL)
    b, _ = gen_dataset(2, 7, SMALL)
    for x, y in zip(a, b):
        assert np.array_equal(x.clip.pixels.data, y.clip.pixels.data)
        assert x.options == y.options
        assert x.answer_idx == y.answer_idx


def test_dataset_stats_arithmetic():
    samples, stats = gen_dataset(3, 11, SMALL)
    assert stats.total_question_length == 18 * QUESTION_LEN
    expect_duration = 18 * 8 / 8.0
    assert stats.total_duration_seconds == pytest.approx(expect_duration)
    assert stats.annotation_density == pytest.approx(
        stats.total_question_length / expect_duration)
    assert sum(stats.option_position_histogram) == 18
    assert stats.unit == "words"


def test_dataset_stats_csv_layout():
    stats = DatasetStats(samples=2, per_category={"MR": 2},
                         total_question_length=10,
                         total_duration_seconds=4.0,
                         option_position_histogram=(1, 0, 1, 0))
    text = stats.to_csv()
    lines = text.splitlines()
    assert lines[0] == "field,value"
    assert lines[1] == "samples,2"
    assert "count_MR,2" in lines
    assert "count_RC,0" in lines
    assert "total_question_length,10" in lines
    assert "total_duration_seconds,4.000000" in lines
    assert "annotation_density,2.500000" in lines
    assert "answers_at_0,1" in lines
    assert lines[-1] == "unit,words"


def test_save_load_round_trip(tmp_path):
    samples, stats = gen_dataset(2, 17, SMALL)
    out = tmp_path / "ds"
    save_dataset(samples, out, SMALL, stats)
    assert (out / "records.csv").exists()
    assert (out / "stats.csv").exists()
    assert (out / "meta.json").exists()
    assert (out / "clips" / "00000.clp").exists()
    loaded, gcfg = load_dataset(out)
    assert gcfg == SMALL
    assert len(loaded) == len(samples)
    for orig, back in zip(samples, loaded):
        assert back.category is orig.category
        assert back.options == orig.options
        assert back.answer_idx == orig.answer_idx
        assert back.clip.pixels.data.dtype == orig.clip.pixels.data.dtype == np.float32
        assert np.array_equal(back.clip.pixels.data, orig.clip.pixels.data)
        assert np.array_equal(back.question_ids, orig.question_ids)
    # a meta.json written while GenConfig still had fps or canvas fields loads too
    meta = json.loads((out / "meta.json").read_text())
    assert sorted(meta) == ["frames"]
    (out / "meta.json").write_text(json.dumps({**meta, "fps": 8.0, "height": 28,
                                               "width": 28, "channels": 3}))
    assert load_dataset(out)[1] == SMALL


def test_load_rejects_wrong_schema(tmp_path):
    samples, stats = gen_dataset(1, 19, SMALL)
    out = tmp_path / "ds"
    save_dataset(samples, out, SMALL, stats)
    records = out / "records.csv"
    text = records.read_text().replace("answer_idx", "answer")
    records.write_text(text)
    with pytest.raises(BadConfig, match="records.csv columns"):
        load_dataset(out)


def test_record_fields_are_stable():
    assert RECORD_FIELDS == ("category", "seed", "answer_idx",
                             "opt0", "opt1", "opt2", "opt3", "clip")


@pytest.mark.parametrize("shape", ["shape:rect", "shape:cross", "shape:disc", "shape:ring",
                                   "shape:hbar", "shape:vbar"])
def test_cached_shape_mask_is_read_only_and_survives_painting(shape):
    mask = _shape_mask(shape, 7, 9)
    before = mask.copy()
    assert not mask.flags.writeable
    frame = np.zeros((3, 28, 28))
    for top, left in ((10, 10), (0, 19), (21, 0)):  # mid-canvas and in two corners
        _paint(frame, shape, top, left, 7, 9, (1.0, 0.5, 0.25))
    assert _shape_mask(shape, 7, 9) is mask
    assert np.array_equal(mask, before)
    assert frame[0].sum() > 0
