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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import (BadConfig, ValidationError, check_fields, read_json,
                     read_text)
from .frontend import VideoClip, load_clip, save_clip
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


@dataclass(frozen=True)
class GenConfig:
    frames: int = 16
    height: int = 28
    width: int = 28
    fps: float = 8.0

    def __post_init__(self):
        check_fields(self)
        if min(self.height, self.width) < 14:
            raise BadConfig(f"canvas {self.height}x{self.width} too small for sprites")
        if self.frames < 3:
            raise BadConfig(f"{self.frames} frames cannot show motion plus a lead-in")
        if self.fps <= 0:
            raise BadConfig("fps must be positive")


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
    truth: dict = field(default_factory=dict)


# ---- sprite painting ----

PALETTE = ((1.0, 0.25, 0.25), (0.25, 1.0, 0.25), (0.25, 0.5, 1.0),
           (1.0, 1.0, 0.25), (1.0, 0.5, 0.25), (0.75, 0.25, 1.0))


@functools.cache
def _shape_mask(shape: str, h: int, w: int) -> np.ndarray:
    """The sprite's [h, w] boolean footprint, read-only: it is cached, and the
    generators' sprites are 3-14 px, so the keys stay few."""
    mask = _draw_mask(shape, h, w)
    mask.setflags(write=False)
    return mask


def _draw_mask(shape: str, h: int, w: int) -> np.ndarray:
    ys, xs = np.mgrid[0:h, 0:w]
    if shape == "shape:rect":
        return np.ones((h, w), dtype=bool)
    if shape == "shape:cross":
        band_h, band_w = max(1, h // 3), max(1, w // 3)
        rows = (ys >= (h - band_h) // 2) & (ys < (h - band_h) // 2 + band_h)
        cols = (xs >= (w - band_w) // 2) & (xs < (w - band_w) // 2 + band_w)
        return rows | cols
    if shape == "shape:disc":
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        return ((ys - cy) / (h / 2.0)) ** 2 + ((xs - cx) / (w / 2.0)) ** 2 <= 1.0
    if shape == "shape:ring":
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        outer = ((ys - cy) / (h / 2.0)) ** 2 + ((xs - cx) / (w / 2.0)) ** 2
        rin_y, rin_x = max(h / 2.0 - 2.0, 1.0), max(w / 2.0 - 2.0, 1.0)
        inner = ((ys - cy) / rin_y) ** 2 + ((xs - cx) / rin_x) ** 2
        return (outer <= 1.0) & (inner > 1.0)
    if shape == "shape:hbar":
        band = max(1, h // 3)
        return (ys >= (h - band) // 2) & (ys < (h - band) // 2 + band)
    if shape == "shape:vbar":
        band = max(1, w // 3)
        return (xs >= (w - band) // 2) & (xs < (w - band) // 2 + band)
    raise BadConfig(f"unknown shape {shape}")


def _paint(frame: np.ndarray, shape: str, top: int, left: int, h: int, w: int,
           color) -> None:
    """Paint onto one frame [C, H, W]; clips silently at canvas edges."""
    ch, hh, ww = frame.shape
    if h > hh or w > ww:
        raise BadConfig(f"sprite {h}x{w} larger than canvas {hh}x{ww}")
    t0, l0 = max(top, 0), max(left, 0)
    t1, l1 = min(top + h, hh), min(left + w, ww)
    if t1 <= t0 or l1 <= l0:
        return
    mask = _shape_mask(shape, h, w)[t0 - top:t1 - top, l0 - left:l1 - left]
    for c in range(ch):
        frame[c, t0:t1, l0:l1][mask] = color[c]


def _blank(gcfg: GenConfig) -> np.ndarray:
    return np.zeros((gcfg.frames, CHANNELS, gcfg.height, gcfg.width))


DIR_STEPS = {"left": (0, -1), "right": (0, 1), "up": (-1, 0), "down": (1, 0)}


def _center_start(rng: RngState, gcfg: GenConfig, size_h: int, size_w: int):
    """Top-left of a roughly centered sprite with a small jitter."""
    top = (gcfg.height - size_h) // 2 + rng.randint(5) - 2
    left = (gcfg.width - size_w) // 2 + rng.randint(5) - 2
    return top, left


def _travel_room(gcfg: GenConfig, top: int, left: int, size_h: int, size_w: int,
                 direction: str) -> int:
    """How far the sprite can slide toward `direction` with a 1px margin."""
    if direction == "left":
        return left - 1
    if direction == "right":
        return gcfg.width - size_w - 1 - left
    if direction == "up":
        return top - 1
    return gcfg.height - size_h - 1 - top


# ---- per-category scripts ----
# Each returns (pixels, truth_token, three distractor tokens, truth_info).
# The answerable-from-frame-0 rule lives here structurally: first frames stay
# uninformative (sprite families overlap across kinds, dark lead-in, static
# scene) and degenerate scripts a single frame could answer (zero
# displacement, zero growth, zero shift) raise BadConfig instead of being
# emitted.


def _mr_sprite(rng: RngState):
    """Sprite family shared by translate and blink; squares overlap grow's
    start sizes and bars overlap rotate's lengths, so a first frame never
    names its kind."""
    if rng.randint(2):
        size = 5 + rng.randint(3)
        return size, size
    length = 7 + 2 * rng.randint(2)
    return (3, length) if rng.randint(2) else (length, 3)


def _gen_mr(rng: RngState, gcfg: GenConfig):
    # every MR kind anchors at the canvas center: the model has no built-in
    # translation invariance, so a free position would turn kind recognition
    # into position memorization; the motion pattern stays the only cue
    kind = rng.choice(MR_KINDS)
    color = rng.choice(PALETTE)
    fcount, hh, ww = gcfg.frames, gcfg.height, gcfg.width
    px = _blank(gcfg)
    info: dict = {"kind": kind}
    if kind == "mr:translate":
        sh, sw = _mr_sprite(rng)
        top, left = _center_start(rng, gcfg, sh, sw)
        direction = rng.choice(tuple(DIR_STEPS))
        dy, dx = DIR_STEPS[direction]
        travel = min(_travel_room(gcfg, top, left, sh, sw, direction), 16)
        if travel < 6:
            raise BadConfig("no room to translate: motion must occur")
        for t in range(fcount):
            off = round(t * travel / (fcount - 1))
            _paint(px[t], "shape:rect", top + dy * off, left + dx * off,
                   sh, sw, color)
        info.update(direction=direction, travel=travel)
    elif kind == "mr:rotate":
        length = 9 + 2 * rng.randint(3)
        if length + 2 >= min(hh, ww):
            raise BadConfig("no room to rotate the sprite")
        cy = hh // 2 + rng.randint(3) - 1
        cx = ww // 2 + rng.randint(3) - 1
        period = 1 + rng.randint(2)
        for t in range(fcount):
            sh, sw = (3, length) if (t // period) % 2 == 0 else (length, 3)
            _paint(px[t], "shape:rect", cy - sh // 2, cx - sw // 2, sh, sw, color)
        info.update(center=(cy, cx), length=length, period=period)
    elif kind == "mr:blink":
        sh, sw = _mr_sprite(rng)
        top, left = _center_start(rng, gcfg, sh, sw)
        period = 1 + rng.randint(2)
        shown = [((t // period) % 2) == 0 for t in range(fcount)]
        if all(shown) or not any(shown):
            raise BadConfig("blink script never toggles")
        for t in range(fcount):
            if shown[t]:
                _paint(px[t], "shape:rect", top, left, sh, sw, color)
        info.update(period=period)
    else:  # mr:grow
        s0 = 3 + rng.randint(3)
        s_end = min(min(hh, ww) - 2, 10 + rng.randint(3))
        if s_end < s0 + 5:
            raise BadConfig("no room to grow: motion must occur")
        cy, cx = hh // 2, ww // 2
        for t in range(fcount):
            st = s0 + round(t * (s_end - s0) / (fcount - 1))
            _paint(px[t], "shape:rect", cy - st // 2, cx - st // 2, st, st, color)
        info.update(s0=s0, s_end=s_end)
    return px, kind, [k for k in MR_KINDS if k != kind], info


def _gen_lm(rng: RngState, gcfg: GenConfig):
    fcount, hh, ww = gcfg.frames, gcfg.height, gcfg.width
    shape = rng.choice(("shape:rect", "shape:disc"))
    color = rng.choice(PALETTE)
    size = 4 + rng.randint(3)
    top, left = _center_start(rng, gcfg, size, size)
    direction = rng.choice(tuple(DIR_STEPS))
    dy, dx = DIR_STEPS[direction]
    travel = _travel_room(gcfg, top, left, size, size, direction) - 1
    if travel < 3:
        raise BadConfig("no displacement possible: motion must occur")
    # frame-0 filter: the centered start must not already sit in the target
    # third of the canvas, otherwise the first frame alone gives the answer
    axis_pos = left + size / 2 if dx else top + size / 2
    extent = ww if dx else hh
    target_low = (dx > 0) or (dy > 0)
    in_target_third = axis_pos > 2 * extent / 3 if target_low else axis_pos < extent / 3
    if in_target_third:
        raise BadConfig("start position already answers the question")
    px = _blank(gcfg)
    for t in range(fcount):
        off = round(t * travel / (fcount - 1))
        _paint(px[t], shape, top + dy * off, left + dx * off, size, size, color)
    truth = f"lm:{direction}"
    return px, truth, [e for e in LM_ENDS if e != truth], \
        {"direction": direction, "travel": travel, "shape": shape}


def _gen_cm(rng: RngState, gcfg: GenConfig):
    fcount, hh, ww = gcfg.frames, gcfg.height, gcfg.width
    direction = rng.choice(tuple(DIR_STEPS))
    dy, dx = DIR_STEPS[direction]
    speed = 2 if (fcount - 1) * 2 <= max(hh, ww) // 2 else 1
    if speed * (fcount - 1) < 2:
        raise BadConfig("camera shift would be invisible: motion must occur")
    base = np.zeros((CHANNELS, hh, ww))
    slots = [(2, 2), (2, ww // 2 + 1), (hh // 2 + 1, 2), (hh // 2 + 1, ww // 2 + 1)]
    for i, sh in enumerate(rng.sample(SHAPES, 3)):
        size = 4 + rng.randint(3)
        top, left = slots[i]
        top += rng.randint(max(hh // 2 - size - 3, 1))
        left += rng.randint(max(ww // 2 - size - 3, 1))
        _paint(base, sh, top, left, size, size, rng.choice(PALETTE))
    px = _blank(gcfg)
    for t in range(fcount):
        oy, ox = dy * speed * t, dx * speed * t
        src_y = slice(max(0, -oy), min(hh, hh - oy))
        src_x = slice(max(0, -ox), min(ww, ww - ox))
        dst_y = slice(max(0, oy), min(hh, hh + oy))
        dst_x = slice(max(0, ox), min(ww, ww + ox))
        if src_y.stop > src_y.start and src_x.stop > src_x.start:
            px[t][:, dst_y, dst_x] = base[:, src_y, src_x]
    truth = f"cm:{direction}"
    return px, truth, [d for d in CM_DIRS if d != truth], \
        {"direction": direction, "speed": speed}


def _gen_mo(rng: RngState, gcfg: GenConfig):
    fcount, hh, ww = gcfg.frames, gcfg.height, gcfg.width
    shapes = rng.sample(SHAPES, 4)
    mover = rng.randint(4)
    slots = [(1, 1), (1, ww // 2 + 1), (hh // 2 + 1, 1), (hh // 2 + 1, ww // 2 + 1)]
    order = rng.shuffle(list(range(4)))
    quad_h, quad_w = hh // 2 - 2, ww // 2 - 2
    placements = []
    for i in range(4):
        size = 4 + rng.randint(2)
        qt, ql = slots[order[i]]
        if i == mover:
            # centered in its quadrant so it can slide any direction
            top = qt + (quad_h - size) // 2
            left = ql + (quad_w - size) // 2
        else:
            top = qt + rng.randint(max(quad_h - size, 1))
            left = ql + rng.randint(max(quad_w - size, 1))
        placements.append((shapes[i], top, left, size, rng.choice(PALETTE), order[i]))
    direction = rng.choice(tuple(DIR_STEPS))
    dy, dx = DIR_STEPS[direction]
    msh, mtop, mleft, msize, mcolor, mquad = placements[mover]
    qt, ql = slots[mquad]
    if direction == "left":
        room = mleft - ql
    elif direction == "right":
        room = ql + quad_w - msize - mleft
    elif direction == "up":
        room = mtop - qt
    else:
        room = qt + quad_h - msize - mtop
    travel = min(room, 4)
    if travel < 2:
        raise BadConfig("mover has no room: motion must occur")
    px = _blank(gcfg)
    for t in range(fcount):
        off = round(t * travel / (fcount - 1))
        for i, (sh, top, left, size, color, _) in enumerate(placements):
            if i == mover:
                _paint(px[t], sh, top + dy * off, left + dx * off, size, size, color)
            else:
                _paint(px[t], sh, top, left, size, size, color)
    truth = shapes[mover]
    pool = [p[0] for i, p in enumerate(placements) if i != mover]
    return px, truth, pool, {"mover_shape": truth, "direction": direction, "travel": travel}


def _gen_ao(rng: RngState, gcfg: GenConfig):
    fcount, hh, ww = gcfg.frames, gcfg.height, gcfg.width
    if fcount < 8:
        raise BadConfig("action order needs at least 8 frames for disjoint events")
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
        x0 = 2 if sides[i] == 0 else ww // 2 + 2
        x1 = ww // 2 - 2 if sides[i] == 0 else ww - 2
        size = 4 + rng.randint(2)
        big = size + grow_by
        top = 2 + rng.randint(max(hh - big - 4, 1))
        left = x0 + rng.randint(max(x1 - x0 - big, 1))
        travel = min(x1 - size - left, 6)
        if pair[i] == "move" and travel < 2:
            raise BadConfig("no room for the move event: motion must occur")
        actors.append((pair[i], shapes[i], colors[i], windows[i],
                       top, left, size, travel))
    px = _blank(gcfg)
    for t in range(fcount):
        for action, shape, color, win, top, left, size, travel in actors:
            span = max(win[1] - win[0], 1)
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
    return px, truth, [o for o in AO_OPTIONS if o != truth], \
        {"first": pair[0], "second": pair[1],
         "first_window": windows[0], "second_window": windows[1]}


def max_repetitions(frames: int) -> int:
    """Longest blink count that fits: one dark lead frame, then r on/off cycles."""
    return min(6, (frames - 1) // 2)


def _gen_rc(rng: RngState, gcfg: GenConfig):
    fcount, hh, ww = gcfg.frames, gcfg.height, gcfg.width
    rmax = max_repetitions(fcount)
    if rmax < 1:
        raise BadConfig(f"{fcount} frames too few for even one repetition")
    r = 1 + rng.randint(rmax)
    budget = fcount - 1  # frame 0 stays dark
    d_on = 1 + rng.randint(2)
    d_off = 1 + rng.randint(2)
    if r * (d_on + d_off) > budget:
        d_on = d_off = 1
    shape = rng.choice(("shape:rect", "shape:disc", "shape:cross"))
    color = rng.choice(PALETTE)
    size = 5 + rng.randint(3)
    top = 1 + rng.randint(max(hh - size - 2, 1))
    left = 1 + rng.randint(max(ww - size - 2, 1))
    px = _blank(gcfg)
    t = 1
    for _ in range(r):
        for _ in range(d_on):
            _paint(px[t], shape, top, left, size, size, color)
            t += 1
        t += d_off
    pool = rng.sample([c for c in COUNTS if c != f"count:{r}"], 3)
    return px, f"count:{r}", pool, {"repetitions": r, "on": d_on, "off": d_off,
                                    "bbox": (top, left, size)}


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
    pixels, truth_token, distractors, info = _GENERATORS[category](rng, gcfg)
    if len(distractors) != 3:
        raise BadConfig(f"{category.value} produced {len(distractors)} distractors")
    answer_idx = rng.randint(4)
    arranged = rng.shuffle(list(distractors))
    options: list[str] = []
    di = 0
    for slot in range(4):
        if slot == answer_idx:
            options.append(truth_token)
        else:
            options.append(arranged[di])
            di += 1
    opts = (options[0], options[1], options[2], options[3])
    return SyntheticSample(clip=VideoClip(pixels=Tensor(pixels)), category=category,
                           seed=seed, question_ids=encode_question(category, opts),
                           options=opts, answer_idx=answer_idx, truth=info)


# ---- dataset assembly and statistics ----

def annotation_density(total_question_length: float, duration_seconds: float) -> float:
    """Total question length over total clip duration (words per second)."""
    if duration_seconds <= 0:
        raise BadConfig(f"duration {duration_seconds}s")
    return float(total_question_length) / float(duration_seconds)


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
    annotation_density: float
    option_position_histogram: tuple[int, int, int, int]
    unit: str = "words"

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


def dataset_stats(samples, gcfg: GenConfig, unit: str = "words") -> DatasetStats:
    per_cat: dict[str, int] = {}
    hist = [0, 0, 0, 0]
    total_len = 0
    duration = 0.0
    for s in samples:
        per_cat[s.category.value] = per_cat.get(s.category.value, 0) + 1
        hist[s.answer_idx] += 1
        total_len += question_length(s, unit)
        duration += s.clip.frames / gcfg.fps
    return DatasetStats(samples=len(samples), per_category=per_cat,
                        total_question_length=total_len,
                        total_duration_seconds=duration,
                        annotation_density=annotation_density(total_len, duration),
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
    return samples, dataset_stats(samples, gcfg)


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
    (out / "meta.json").write_text(json.dumps({
        "frames": gcfg.frames, "height": gcfg.height, "width": gcfg.width,
        "fps": gcfg.fps}, indent=2) + "\n")


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
    want = (gcfg.frames, CHANNELS, gcfg.height, gcfg.width)
    if clip.pixels.shape != want:
        raise BadConfig(f"clip shape {clip.pixels.shape}, meta.json says {want}")
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
    samples = []
    for n, row in enumerate(rows, 1):
        try:
            samples.append(_load_record(src, row, gcfg))
        except (ValidationError, OSError, TypeError, ValueError) as err:
            raise BadConfig(f"{src / 'records.csv'} row {n}: {err}") from err
    return samples, gcfg
