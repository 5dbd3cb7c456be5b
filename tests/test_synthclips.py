import numpy as np
import pytest

from framefuse.errors import BadConfig
from framefuse.synthclips import (CATEGORY_ORDER, COUNTS, DIR_STEPS, PALETTE,
                                  QUESTION_LEN, RECORD_FIELDS, VOCAB,
                                  DatasetStats, GenConfig, SyntheticSample,
                                  TaskCategory, annotation_density,
                                  dataset_stats, encode_question, gen_dataset,
                                  gen_sample, load_dataset, max_repetitions,
                                  question_length, save_dataset)
from oracles import rc_transition_count

GCFG = GenConfig(frames=16)
SMALL = GenConfig(frames=8)


def test_gen_config_validation():
    with pytest.raises(BadConfig):
        GenConfig(channels=1)
    with pytest.raises(BadConfig):
        GenConfig(height=10, width=28)
    with pytest.raises(BadConfig):
        GenConfig(frames=2)
    with pytest.raises(BadConfig):
        GenConfig(fps=0.0)


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
        kind = s.truth["kind"]
        kinds_seen.add(kind)
        assert s.options[s.answer_idx] == kind
        if kind == "mr:translate":
            assert s.truth["travel"] >= 6
        elif kind == "mr:rotate":
            assert s.truth["period"] in (1, 2)
        elif kind == "mr:grow":
            assert s.truth["s_end"] - s.truth["s0"] >= 5
    assert kinds_seen == {"mr:translate", "mr:rotate", "mr:blink", "mr:grow"}


def test_mr_first_frame_does_not_leak_grow():
    # grow starts at 3..5 px while translate/blink squares span 5..7, so a
    # small first-frame square cannot be read as "grow"
    start_sizes = set()
    square_sizes = set()
    for seed in range(120):
        s = gen_sample(TaskCategory.MR, seed, GCFG)
        if s.truth["kind"] == "mr:grow":
            start_sizes.add(s.truth["s0"])
        elif s.truth["kind"] in ("mr:translate", "mr:blink"):
            frame0 = s.clip.pixels.data[0]
            cols = np.where(frame0.any(axis=(0, 1)))[0]
            rows = np.where(frame0.any(axis=(0, 2)))[0]
            if len(rows) == len(cols):
                square_sizes.add(len(rows))
    assert start_sizes <= {3, 4, 5}
    assert square_sizes & {5, 6, 7}


def test_lm_scripts_move_and_end_matches_truth():
    for seed in range(30):
        s = gen_sample(TaskCategory.LM, seed, GCFG)
        direction = s.truth["direction"]
        assert s.options[s.answer_idx] == f"lm:{direction}"
        assert s.truth["travel"] >= 3
        first = s.clip.pixels.data[0]
        last = s.clip.pixels.data[-1]
        assert first.any() and last.any()
        assert not np.array_equal(first, last)


def test_cm_shifts_whole_scene():
    s = gen_sample(TaskCategory.CM, 7, GCFG)
    assert s.options[s.answer_idx].startswith("cm:")
    # static content, moving window: consecutive frames overlap shifted
    px = s.clip.pixels.data
    assert not np.array_equal(px[0], px[-1])


def test_mo_mover_is_one_of_four_onscreen_shapes():
    for seed in range(20):
        s = gen_sample(TaskCategory.MO, seed, GCFG)
        assert s.options[s.answer_idx] == s.truth["mover_shape"]
        assert s.truth["travel"] >= 2


def test_ao_needs_eight_frames():
    with pytest.raises(BadConfig):
        gen_sample(TaskCategory.AO, 0, GenConfig(frames=6))


def test_ao_events_are_ordered():
    for seed in range(20):
        s = gen_sample(TaskCategory.AO, seed, GCFG)
        first, second = s.truth["first"], s.truth["second"]
        assert first != second
        assert s.options[s.answer_idx] == f"ao:{first}-first"
        w1, w2 = s.truth["first_window"], s.truth["second_window"]
        assert w1[1] < w2[0]


def test_ao_truth_covers_all_actions():
    seen = set()
    for seed in range(120):
        seen.add(gen_sample(TaskCategory.AO, seed, GCFG).truth["first"])
    assert seen == {"blink", "move", "grow", "shrink"}


def test_max_repetitions():
    assert max_repetitions(16) == 6
    assert max_repetitions(8) == 3
    assert max_repetitions(3) == 1


def test_rc_first_frame_dark_and_count_in_options():
    for seed in range(20):
        s = gen_sample(TaskCategory.RC, seed, GCFG)
        assert not s.clip.pixels.data[0].any()
        r = s.truth["repetitions"]
        assert 1 <= r <= max_repetitions(16)
        assert s.options[s.answer_idx] == f"count:{r}"
        assert set(s.options) <= set(COUNTS)


@pytest.mark.parametrize("gcfg", [GCFG, SMALL])
def test_rc_pixel_oracle_recovers_count(gcfg):
    for seed in range(30):
        s = gen_sample(TaskCategory.RC, seed * 31 + 5, gcfg)
        assert rc_transition_count(s.clip) == s.truth["repetitions"]


def test_degenerate_scripts_rejected_on_tiny_canvas():
    # at 14x14 the centered sprites regularly have no room to move; those
    # scripts must be refused, never silently emitted as static clips
    tiny = GenConfig(frames=8, height=14, width=14)
    lm_rejects = 0
    mr_rejects = 0
    for seed in range(120):
        try:
            gen_sample(TaskCategory.LM, seed, tiny)
        except BadConfig:
            lm_rejects += 1
        try:
            gen_sample(TaskCategory.MR, seed, tiny)
        except BadConfig:
            mr_rejects += 1
    assert lm_rejects > 0
    assert mr_rejects > 0


def test_annotation_density_frozen_values():
    assert annotation_density(684, 10.0) == pytest.approx(68.4)
    assert annotation_density(1263, 100.0) == pytest.approx(12.63)
    assert annotation_density(0, 5.0) == 0.0


def test_annotation_density_zero_duration():
    with pytest.raises(BadConfig, match="duration 0.0s"):
        annotation_density(100, 0.0)
    with pytest.raises(BadConfig, match="duration -1.0s"):
        annotation_density(100, -1.0)


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
                         annotation_density=2.5,
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
        assert np.array_equal(
            back.clip.pixels.data,
            orig.clip.pixels.data.astype(np.float32).astype(np.float64))
        assert np.array_equal(back.question_ids, orig.question_ids)


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
