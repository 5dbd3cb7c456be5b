"""Scripted synthetic motion-QA clips with ground truth by construction.

Six task categories (MR motion kind, LM final location, CM camera shift,
MO moving object identity, AO action order, RC repetition count). Every
question is a fixed 5-token template [ask, opt0..opt3] over a small synthetic
vocabulary, so batches never need padding and the answer is the option
position holding the true value token.
"""
from __future__ import annotations

import csv
import enum
import functools
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (BadConfig, ValidationError, check_fields, read_json,
                     read_text)
from .frontend import ClipPixels, VideoClip, load_clip, save_clip
from .rng import RngState, derive_seed


class TaskCategory(enum.Enum):
    MR = "MR"  # which motion kind
    LM = "LM"  # where the sprite ends up
    CM = "CM"  # which way the whole scene shifts
    MO = "MO"  # which object moves
    AO = "AO"  # which event happens first
    RC = "RC"  # how many blink repetitions

CATEGORY_ORDER = (TaskCategory.MR, TaskCategory.LM, TaskCategory.CM,
                  TaskCategory.MO, TaskCategory.AO, TaskCategory.RC)


# every clip is RGB: the palette and the painters write three channels
CHANNELS = 3
# every clip is CANVAS x CANVAS pixels; the generators' sprite sizes, jitters
# and travels are chosen so that no sprite reaches an edge of this canvas
CANVAS = 28
# every clip plays at FPS frames a second: an F-frame clip lasts F / FPS
# seconds in the dataset statistics
FPS = 8.0


@dataclass(frozen=True)
class GenConfig:
    frames: int = 16

    def __post_init__(self):
        check_fields(self)
        if self.frames < 3:
            raise BadConfig(f"{self.frames} frames cannot show motion plus a lead-in")


# ---- question vocabulary ----

MR_KINDS = ("mr:translate", "mr:rotate", "mr:blink", "mr:grow")
LM_ENDS = ("lm:left", "lm:right", "lm:up", "lm:down")
CM_DIRS = ("cm:left", "cm:right", "cm:up", "cm:down")
SHAPES = ("shape:rect", "shape:cross", "shape:disc", "shape:ring",
          "shape:hbar", "shape:vbar")
# every action kind must be a possible truth, otherwise a random-init model's
# fixed token preference skews MCQ accuracy away from the 0.25 chance line
AO_ACTIONS = ("blink", "move", "grow", "shrink")
AO_OPTIONS = tuple(f"ao:{a}-first" for a in AO_ACTIONS)
# fewest frames that hold action order's two disjoint event windows
AO_MIN_FRAMES = 8
COUNTS = tuple(f"count:{i}" for i in range(1, 10))

VOCAB: tuple[str, ...] = (("<pad>",)
                          + tuple(f"ask:{c.value.lower()}" for c in CATEGORY_ORDER)
                          + MR_KINDS + LM_ENDS + CM_DIRS + SHAPES + AO_OPTIONS + COUNTS)
TOKEN_TO_ID = {name: i for i, name in enumerate(VOCAB)}
QUESTION_LEN = 5  # ask token + 4 options


def encode_question(category: TaskCategory, options) -> np.ndarray:
    ids = [TOKEN_TO_ID[f"ask:{category.value.lower()}"]]
    ids += [TOKEN_TO_ID[opt] for opt in options]
    return np.array(ids, dtype=np.int64)


@dataclass
class SyntheticSample:
    clip: VideoClip
    category: TaskCategory
    seed: int
    question_ids: np.ndarray
    options: tuple[str, str, str, str]
    answer_idx: int


# ---- sprite painting ----

PALETTE = ((1.0, 0.25, 0.25), (0.25, 1.0, 0.25), (0.25, 0.5, 1.0),
           (1.0, 1.0, 0.25), (1.0, 0.5, 0.25), (0.75, 0.25, 1.0))


@functools.cache
def _shape_mask(shape: str, h: int, w: int) -> np.ndarray:
    """The sprite's [h, w] boolean footprint, read-only: it is cached, and the
    generators' sprites are 3-13 px, so the keys stay few."""
    mask = _draw_mask(shape, h, w)
    mask.setflags(write=False)
    return mask


def _draw_mask(shape: str, h: int, w: int) -> np.ndarray:
    ys, xs = np.mgrid[0:h, 0:w]
    if shape == "shape:rect":
        return np.ones((h, w), dtype=bool)
    if shape == "shape:cross":
        return _draw_mask("shape:hbar", h, w) | _draw_mask("shape:vbar", h, w)
    if shape == "shape:disc":
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        return ((ys - cy) / (h / 2.0)) ** 2 + ((xs - cx) / (w / 2.0)) ** 2 <= 1.0
    if shape == "shape:ring":
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        rin_y, rin_x = max(h / 2.0 - 2.0, 1.0), max(w / 2.0 - 2.0, 1.0)
        inner = ((ys - cy) / rin_y) ** 2 + ((xs - cx) / rin_x) ** 2
        return _draw_mask("shape:disc", h, w) & (inner > 1.0)
    if shape == "shape:hbar":
        band = max(1, h // 3)
        return (ys >= (h - band) // 2) & (ys < (h - band) // 2 + band)
    if shape == "shape:vbar":
        band = max(1, w // 3)
        return (xs >= (w - band) // 2) & (xs < (w - band) // 2 + band)
    raise BadConfig(f"unknown shape {shape}")


def _paint(frame: np.ndarray, shape: str, top: int, left: int, h: int, w: int,
           color) -> None:
    """Paint onto one frame [C, H, W]. The sprite must lie inside the canvas;
    one that does not raises IndexError on the mask."""
    mask = _shape_mask(shape, h, w)
    for c in range(CHANNELS):
        frame[c, top:top + h, left:left + w][mask] = color[c]


def _blank(fcount: int) -> np.ndarray:
    return np.zeros((fcount, CHANNELS, CANVAS, CANVAS), dtype=np.float32)


DIR_STEPS = {"left": (0, -1), "right": (0, 1), "up": (-1, 0), "down": (1, 0)}


def _center_start(rng: RngState, size_h: int, size_w: int):
    """Top-left of a roughly centered sprite with a small jitter."""
    top = (CANVAS - size_h) // 2 + rng.randint(5) - 2
    left = (CANVAS - size_w) // 2 + rng.randint(5) - 2
    return top, left


def _travel_room(top: int, left: int, size_h: int, size_w: int, direction: str,
                 box=(1, 1, CANVAS - 2, CANVAS - 2)) -> int:
    """How far the sprite can slide toward `direction` and stay inside `box`
    (top, left, height, width); the default box is the canvas less a 1px margin."""
    box_top, box_left, box_h, box_w = box
    if direction == "left":
        return left - box_left
    if direction == "right":
        return box_left + box_w - size_w - left
    if direction == "up":
        return top - box_top
    return box_top + box_h - size_h - top


def _slide(px: np.ndarray, shape: str, top: int, left: int, size_h: int, size_w: int,
           color, direction: str, travel: int) -> None:
    """Paint the sprite on every frame, `travel` px further toward `direction` by the last."""
    dy, dx = DIR_STEPS[direction]
    fcount = px.shape[0]
    for t in range(fcount):
        off = round(t * travel / (fcount - 1))
        _paint(px[t], shape, top + dy * off, left + dx * off, size_h, size_w, color)


# ---- per-category scripts ----
# Each takes the frame count and returns (pixels, truth_token, three
# distractor tokens). No first frame answers its question: sprite families
# overlap across kinds, RC opens on a dark frame, an LM sprite starts between
# 11.5 and 16 px along its axis while the outer thirds begin at 9.33 and
# 18.67 px, and the other scenes start as a still image. On the fixed canvas
# every script's sizes, jitters and travels make its motion occur at any frame
# count from 3 (AO from 8). tests/test_synthclips.py checks both rules from
# the pixels of every category at 3, 8, 16 and 32 frames.


def _mr_sprite(rng: RngState):
    """Sprite family shared by translate and blink; squares overlap grow's
    start sizes and bars overlap rotate's lengths, so a first frame never
    names its kind."""
    if rng.randint(2):
        size = 5 + rng.randint(3)
        return size, size
    length = 7 + 2 * rng.randint(2)
    return (3, length) if rng.randint(2) else (length, 3)


def _gen_mr(rng: RngState, fcount: int):
    # every MR kind anchors at the canvas center: the model has no built-in
    # translation invariance, so a free position would turn kind recognition
    # into position memorization; the motion pattern stays the only cue
    kind = rng.choice(MR_KINDS)
    color = rng.choice(PALETTE)
    px = _blank(fcount)
    if kind == "mr:translate":
        sh, sw = _mr_sprite(rng)
        top, left = _center_start(rng, sh, sw)
        direction = rng.choice(tuple(DIR_STEPS))
        travel = _travel_room(top, left, sh, sw, direction)  # 6 to 14 px
        _slide(px, "shape:rect", top, left, sh, sw, color, direction, travel)
    elif kind == "mr:rotate":
        length = 9 + 2 * rng.randint(3)
        cy = CANVAS // 2 + rng.randint(3) - 1
        cx = CANVAS // 2 + rng.randint(3) - 1
        period = 1 + rng.randint(2)
        for t in range(fcount):
            sh, sw = (3, length) if (t // period) % 2 == 0 else (length, 3)
            _paint(px[t], "shape:rect", cy - sh // 2, cx - sw // 2, sh, sw, color)
    elif kind == "mr:blink":
        sh, sw = _mr_sprite(rng)
        top, left = _center_start(rng, sh, sw)
        period = 1 + rng.randint(2)  # shown at frame 0, hidden by frame 2
        for t in range(fcount):
            if (t // period) % 2 == 0:
                _paint(px[t], "shape:rect", top, left, sh, sw, color)
    else:  # mr:grow, by at least 5 px
        s0 = 3 + rng.randint(3)
        s_end = 10 + rng.randint(3)
        cy = cx = CANVAS // 2
        for t in range(fcount):
            st = s0 + round(t * (s_end - s0) / (fcount - 1))
            _paint(px[t], "shape:rect", cy - st // 2, cx - st // 2, st, st, color)
    return px, kind, [k for k in MR_KINDS if k != kind]


def _gen_lm(rng: RngState, fcount: int):
    shape = rng.choice(("shape:rect", "shape:disc"))
    color = rng.choice(PALETTE)
    size = 4 + rng.randint(3)
    top, left = _center_start(rng, size, size)
    direction = rng.choice(tuple(DIR_STEPS))
    travel = _travel_room(top, left, size, size, direction) - 1  # 7 to 12 px
    px = _blank(fcount)
    _slide(px, shape, top, left, size, size, color, direction, travel)
    truth = f"lm:{direction}"
    return px, truth, [e for e in LM_ENDS if e != truth]


def _gen_cm(rng: RngState, fcount: int):
    direction = rng.choice(tuple(DIR_STEPS))
    dy, dx = DIR_STEPS[direction]
    half = CANVAS // 2
    speed = 2 if (fcount - 1) * 2 <= half else 1
    # at most half + 1 px in all: that keeps a whole column (or row) of
    # quadrants on the canvas, so every frame shows at least one sprite
    travel = min(speed * (fcount - 1), half + 1)
    base = np.zeros((CHANNELS, CANVAS, CANVAS), dtype=np.float32)
    slots = [(2, 2), (2, half + 1), (half + 1, 2), (half + 1, half + 1)]
    for i, sh in enumerate(rng.sample(SHAPES, 3)):
        size = 4 + rng.randint(3)
        top, left = slots[i]
        top += rng.randint(half - size - 3)
        left += rng.randint(half - size - 3)
        _paint(base, sh, top, left, size, size, rng.choice(PALETTE))
    px = _blank(fcount)
    for t in range(fcount):
        shift = round(t * travel / (fcount - 1))
        oy, ox = dy * shift, dx * shift
        src_y = slice(max(0, -oy), min(CANVAS, CANVAS - oy))
        src_x = slice(max(0, -ox), min(CANVAS, CANVAS - ox))
        dst_y = slice(max(0, oy), min(CANVAS, CANVAS + oy))
        dst_x = slice(max(0, ox), min(CANVAS, CANVAS + ox))
        px[t][:, dst_y, dst_x] = base[:, src_y, src_x]
    truth = f"cm:{direction}"
    return px, truth, [d for d in CM_DIRS if d != truth]


def _gen_mo(rng: RngState, fcount: int):
    shapes = rng.sample(SHAPES, 4)
    mover = rng.randint(4)
    half = CANVAS // 2
    slots = [(1, 1), (1, half + 1), (half + 1, 1), (half + 1, half + 1)]
    order = rng.shuffle(list(range(4)))
    quad = half - 2
    placements = []
    for i in range(4):
        size = 4 + rng.randint(2)
        qt, ql = slots[order[i]]
        if i == mover:
            # centered in its quadrant so it can slide any direction
            top = qt + (quad - size) // 2
            left = ql + (quad - size) // 2
        else:
            top = qt + rng.randint(quad - size)
            left = ql + rng.randint(quad - size)
        placements.append((shapes[i], top, left, size, rng.choice(PALETTE)))
    direction = rng.choice(tuple(DIR_STEPS))
    _, mtop, mleft, msize, _ = placements[mover]
    # the mover slides to its quadrant's edge (3 or 4 px); the others stay still
    travel = _travel_room(mtop, mleft, msize, msize, direction,
                          slots[order[mover]] + (quad, quad))
    px = _blank(fcount)
    for i, (sh, top, left, size, color) in enumerate(placements):
        _slide(px, sh, top, left, size, size, color, direction, travel if i == mover else 0)
    pool = [p[0] for i, p in enumerate(placements) if i != mover]
    return px, shapes[mover], pool


def _gen_ao(rng: RngState, fcount: int):
    if fcount < AO_MIN_FRAMES:
        raise BadConfig(f"action order needs at least {AO_MIN_FRAMES} frames "
                        "for disjoint events")
    pair = rng.sample(AO_ACTIONS, 2)  # pair[0] acts in the earlier window
    shapes = rng.sample(SHAPES, 2)
    colors = (rng.choice(PALETTE), rng.choice(PALETTE))
    half = fcount // 2
    windows = ((1, half - 1), (half + 1, fcount - 2))  # gap frame between
    # which half of the canvas hosts the first actor is an independent coin,
    # so layout carries no cue about the order
    sides = (0, 1) if rng.randint(2) == 0 else (1, 0)
    grow_by = 2
    actors = []
    for i in (0, 1):
        x0 = 2 if sides[i] == 0 else CANVAS // 2 + 2
        x1 = CANVAS // 2 - 2 if sides[i] == 0 else CANVAS - 2
        size = 4 + rng.randint(2)
        big = size + grow_by
        top = 2 + rng.randint(CANVAS - big - 4)
        left = x0 + rng.randint(x1 - x0 - big)
        travel = x1 - size - left  # 3 to 6 px
        actors.append((pair[i], shapes[i], colors[i], windows[i],
                       top, left, size, travel))
    px = _blank(fcount)
    for t in range(fcount):
        for action, shape, color, win, top, left, size, travel in actors:
            span = win[1] - win[0]  # at least 1 from 8 frames
            progress = min(max(t - win[0], 0), span)
            if action == "blink":
                if win[0] <= t <= win[1]:
                    continue  # vanish for the window, then return
                _paint(px[t], shape, top, left, size, size, color)
            elif action == "move":
                off = round(progress * travel / span)
                _paint(px[t], shape, top, left + off, size, size, color)
            elif action == "grow":
                s = size + round(progress * grow_by / span)
                _paint(px[t], shape, top, left, s, s, color)
            else:  # shrink
                s = size + grow_by - round(progress * grow_by / span)
                _paint(px[t], shape, top, left, s, s, color)
    truth = f"ao:{pair[0]}-first"
    return px, truth, [o for o in AO_OPTIONS if o != truth]


def max_repetitions(frames: int) -> int:
    """Longest blink count that fits: one dark lead frame, then r on/off cycles."""
    return min(6, (frames - 1) // 2)


def _gen_rc(rng: RngState, fcount: int):
    r = 1 + rng.randint(max_repetitions(fcount))  # at least 1 from 3 frames
    budget = fcount - 1  # frame 0 stays dark
    d_on = 1 + rng.randint(2)
    d_off = 1 + rng.randint(2)
    if r * (d_on + d_off) > budget:
        d_on = d_off = 1
    shape = rng.choice(("shape:rect", "shape:disc", "shape:cross"))
    color = rng.choice(PALETTE)
    size = 5 + rng.randint(3)
    top = 1 + rng.randint(CANVAS - size - 2)
    left = 1 + rng.randint(CANVAS - size - 2)
    px = _blank(fcount)
    t = 1
    for _ in range(r):
        for _ in range(d_on):
            _paint(px[t], shape, top, left, size, size, color)
            t += 1
        t += d_off
    pool = rng.sample([c for c in COUNTS if c != f"count:{r}"], 3)
    return px, f"count:{r}", pool


_GENERATORS = {
    TaskCategory.MR: _gen_mr,
    TaskCategory.LM: _gen_lm,
    TaskCategory.CM: _gen_cm,
    TaskCategory.MO: _gen_mo,
    TaskCategory.AO: _gen_ao,
    TaskCategory.RC: _gen_rc,
}


def gen_sample(category: TaskCategory, seed: int, gcfg: GenConfig) -> SyntheticSample:
    """Deterministic sample: script, render, then place options.

    Draw order (fixed for reproducibility): script parameters and distractor
    selection inside the generator, then answer position, then distractor
    arrangement.
    """
    rng = RngState(seed)
    pixels, truth_token, distractors = _GENERATORS[category](rng, gcfg.frames)
    answer_idx = rng.randint(4)
    arranged = rng.shuffle(list(distractors))
    opts = tuple(arranged[:answer_idx] + [truth_token] + arranged[answer_idx:])
    return SyntheticSample(clip=VideoClip(pixels=ClipPixels(pixels)), category=category,
                           seed=seed, question_ids=encode_question(category, opts),
                           options=opts, answer_idx=answer_idx)


# ---- dataset assembly and statistics ----

def question_length(sample: SyntheticSample, unit: str = "words") -> int:
    if unit == "words":
        return QUESTION_LEN
    if unit == "chars":
        return len(" ".join(VOCAB[i] for i in sample.question_ids))
    raise BadConfig(f"unknown length unit {unit!r}")


@dataclass
class DatasetStats:
    samples: int
    per_category: dict[str, int]
    total_question_length: int
    total_duration_seconds: float
    option_position_histogram: tuple[int, int, int, int]
    unit: str = "words"

    @property
    def annotation_density(self) -> float:
        """Total question length over total clip duration (words per second)."""
        return self.total_question_length / self.total_duration_seconds

    def to_csv(self) -> str:
        lines = ["field,value", f"samples,{self.samples}"]
        for cat in CATEGORY_ORDER:
            lines.append(f"count_{cat.value},{self.per_category.get(cat.value, 0)}")
        lines.append(f"total_question_length,{self.total_question_length}")
        lines.append(f"total_duration_seconds,{self.total_duration_seconds:.6f}")
        lines.append(f"annotation_density,{self.annotation_density:.6f}")
        for i, n in enumerate(self.option_position_histogram):
            lines.append(f"answers_at_{i},{n}")
        lines.append(f"unit,{self.unit}")
        return "\n".join(lines) + "\n"


def dataset_stats(samples, unit: str = "words") -> DatasetStats:
    per_cat: dict[str, int] = {}
    hist = [0, 0, 0, 0]
    total_len = 0
    duration = 0.0
    for s in samples:
        per_cat[s.category.value] = per_cat.get(s.category.value, 0) + 1
        hist[s.answer_idx] += 1
        total_len += question_length(s, unit)
        duration += s.clip.pixels.shape[0] / FPS
    return DatasetStats(samples=len(samples), per_category=per_cat,
                        total_question_length=total_len,
                        total_duration_seconds=duration,
                        option_position_histogram=(hist[0], hist[1], hist[2], hist[3]),
                        unit=unit)


def gen_dataset(n_per_category: int, seed: int, gcfg: GenConfig):
    """n samples per category, deterministic in (seed, gcfg), and their stats."""
    if n_per_category < 1:
        raise BadConfig(f"n_per_category must be at least 1, got {n_per_category}")
    samples = []
    for cat in CATEGORY_ORDER:
        for i in range(n_per_category):
            samples.append(gen_sample(cat, derive_seed(seed, cat.value, i), gcfg))
    return samples, dataset_stats(samples)


# ---- on-disk layout: records.csv + clips/*.clp + stats.csv + meta.json ----

RECORD_FIELDS = ("category", "seed", "answer_idx", "opt0", "opt1", "opt2", "opt3", "clip")


def save_dataset(samples, out_dir, gcfg: GenConfig, stats: DatasetStats) -> None:
    out = Path(out_dir)
    try:
        (out / "clips").mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise BadConfig(f"cannot write dataset {out}: {err}") from err
    rows = []
    for i, s in enumerate(samples):
        rel = f"clips/{i:05d}.clp"
        save_clip(s.clip, out / rel)
        rows.append({"category": s.category.value, "seed": s.seed,
                     "answer_idx": s.answer_idx, "opt0": s.options[0],
                     "opt1": s.options[1], "opt2": s.options[2],
                     "opt3": s.options[3], "clip": rel})
    with open(out / "records.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    (out / "stats.csv").write_text(stats.to_csv())
    (out / "meta.json").write_text(json.dumps({"frames": gcfg.frames}, indent=2) + "\n")


def _load_record(src: Path, row: dict, gcfg: GenConfig) -> SyntheticSample:
    cat = TaskCategory(row["category"])
    opts = (row["opt0"], row["opt1"], row["opt2"], row["opt3"])
    if not set(opts) <= TOKEN_TO_ID.keys():
        raise BadConfig(f"unknown option in {opts}")
    answer_idx = int(row["answer_idx"])
    if not 0 <= answer_idx < 4:
        raise BadConfig(f"answer_idx {answer_idx} outside 0..3")
    path = src / row["clip"]
    if not path.resolve().is_relative_to(src.resolve()):
        raise BadConfig(f"clip {row['clip']!r} lies outside {src}")
    clip = load_clip(path)
    want = (gcfg.frames, CHANNELS, CANVAS, CANVAS)
    if clip.pixels.shape != want:
        raise BadConfig(f"clip shape {clip.pixels.shape}, expected {want}")
    return SyntheticSample(clip=clip, category=cat, seed=int(row["seed"]),
                           question_ids=encode_question(cat, opts), options=opts,
                           answer_idx=answer_idx)


def load_dataset(in_dir):
    src = Path(in_dir)
    meta = read_json(src / "meta.json", "dataset meta")
    records = read_text(src / "records.csv", "dataset records")
    try:
        gcfg = GenConfig(**{name: meta[name] for name in GenConfig.__dataclass_fields__})
    except (KeyError, TypeError) as err:
        raise BadConfig(f"{src / 'meta.json'}: missing or bad key {err}") from err
    reader = csv.DictReader(io.StringIO(records, newline=""))
    try:
        rows = list(reader)
    except csv.Error as err:  # e.g. a field past csv's size limit
        # DictReader.line_num skips the row that failed; its inner reader's does not
        raise BadConfig(f"{src / 'records.csv'} line {reader.reader.line_num}: {err}") from err
    if tuple(reader.fieldnames or ()) != RECORD_FIELDS:
        raise BadConfig(f"records.csv columns {reader.fieldnames}")
    if not rows:
        raise BadConfig(f"{src / 'records.csv'} holds no records")
    samples = []
    for n, row in enumerate(rows, 1):
        try:
            samples.append(_load_record(src, row, gcfg))
        except (ValidationError, OSError, TypeError, ValueError) as err:
            raise BadConfig(f"{src / 'records.csv'} row {n}: {err}") from err
    return samples, gcfg
