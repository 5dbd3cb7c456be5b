import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import scalar_normal_array, scalar_uniform_array

from framefuse.rng import _JUMP_ROWS, _LANE, RngState, derive_seed


def test_same_seed_same_stream():
    a = RngState(42)
    b = RngState(42)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_different_seeds_differ():
    a = [RngState(1).next_u64() for _ in range(8)]
    b = [RngState(2).next_u64() for _ in range(8)]
    assert a != b


def test_derive_seed_is_pure():
    assert derive_seed(7, "train", 3) == derive_seed(7, "train", 3)


def test_derive_seed_separates_labels():
    seen = {derive_seed(0, label) for label in ("front", "pos", "enc", "comp", "dec")}
    assert len(seen) == 5
    assert derive_seed(0, "a", 1) != derive_seed(0, "a", 2)
    assert derive_seed(0, "a") != derive_seed(1, "a")


def test_uniform_range_and_mean():
    xs = RngState(9).uniform_array((4000,))
    assert np.all((xs >= 0.0) & (xs < 1.0))
    assert abs(np.mean(xs) - 0.5) < 0.03


@given(st.integers(0, 2**63), st.integers(1, 1000))
def test_randint_bounds(seed, n):
    rng = RngState(seed)
    for _ in range(5):
        assert 0 <= rng.randint(n) < n


def test_randint_rejects_empty_range():
    with pytest.raises(ValueError):
        RngState(0).randint(0)


def test_randint_covers_small_range():
    rng = RngState(3)
    counts = [0, 0, 0]
    for _ in range(600):
        counts[rng.randint(3)] += 1
    assert min(counts) > 120


def test_shuffle_permutes_in_place():
    rng = RngState(5)
    items = list(range(30))
    out = rng.shuffle(items)
    assert out is items
    assert sorted(items) == list(range(30))
    assert items != list(range(30))


def test_sample_without_replacement():
    rng = RngState(11)
    pool = list(range(10))
    picked = rng.sample(pool, 4)
    assert len(picked) == len(set(picked)) == 4
    assert set(picked) <= set(range(10))
    assert pool == list(range(10))


def test_sample_too_many():
    with pytest.raises(ValueError):
        RngState(0).sample([1, 2], 3)


def test_choice_comes_from_pool():
    rng = RngState(2)
    pool = ("a", "b", "c")
    assert all(rng.choice(pool) in pool for _ in range(30))


def test_normal_moments():
    rng = RngState(17)
    xs = rng.normal_array((20000,), 1.0)
    assert abs(xs.mean()) < 0.03
    assert abs(xs.std() - 1.0) < 0.03


def test_normal_array_shape_and_scale():
    rng = RngState(4)
    arr = rng.normal_array((3, 5), 0.02)
    assert arr.shape == (3, 5)
    assert arr.dtype == np.float64
    assert np.all(np.abs(arr) < 0.2)


def test_uniform_array_shape():
    arr = RngState(8).uniform_array((2, 3, 4))
    assert arr.shape == (2, 3, 4)
    assert np.all((arr >= 0.0) & (arr < 1.0))


# Lengths around the lane layout: below one lane, one lane, and P lanes +- 1;
# the last example needs more lanes than one jump product takes.
_EDGE_LENGTHS = sorted({p * _LANE + d for p in (1, 2, 3, 64, 65) for d in (-1, 0, 1)})
_SHAPES = st.one_of(
    st.integers(0, 3 * _LANE).map(lambda n: (n,)),
    st.sampled_from(_EDGE_LENGTHS).map(lambda n: (n,)),
    st.integers(1, 5000).map(lambda n: (n,)),
    st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
)


@settings(max_examples=200)
@given(st.integers(0, 2**64 - 1), _SHAPES, st.booleans())
@example(0, (_LANE * 64 + 1,), True)
@example(2**64 - 1, (_LANE - 1,), False)
@example(5, (2 * _JUMP_ROWS * _LANE + 1,), False)
def test_array_draws_match_scalar_oracle(seed, shape, normal):
    """The lane kernel gives the scalar stream's values byte for byte and
    leaves the generator where the scalar draws would."""
    fast, slow = RngState(seed), RngState(seed)
    if normal:
        got, want = fast.normal_array(shape, 0.02), scalar_normal_array(slow, shape, 0.02)
    else:
        got, want = fast.uniform_array(shape), scalar_uniform_array(slow, shape)
    assert got.shape == want.shape == shape
    assert got.tobytes() == want.tobytes()
    assert [fast.next_u64() for _ in range(4)] == [slow.next_u64() for _ in range(4)]


@pytest.mark.parametrize("seed, draw, digest, next_word", [
    (0, lambda r: r.normal_array((4097,), 0.02),
     "aeb14ed2f276e8cdcfd2288503241bbdddb4c0a3e6e327c88fc99a7b097e4a9a", 11512699537418941161),
    (2**64 - 1, lambda r: r.normal_array((64, 257), 0.02),
     "178cb9edb8b2cf4f602e73d391baad0b5816e6168e24ccfe2e904048e8c6b865", 10185287140741030015),
    (8, lambda r: r.uniform_array((3, 5, 7, 11)),
     "0589a4108d7326b633de5f9ff43a9d34b54ae88261fd10c1bbfa9ac0f57f20e0", 2025636574672047843),
])
def test_array_draws_match_golden_digests(seed, draw, digest, next_word):
    """Digests recorded from the scalar implementation before the lane kernel."""
    rng = RngState(seed)
    assert hashlib.sha256(draw(rng).tobytes()).hexdigest() == digest
    assert rng.next_u64() == next_word


def test_numpy_cos_sin_match_math_on_stream_angles():
    """normal_array takes cos and sin from numpy; Box-Muller stays bit-exact
    only while they equal `math.cos` / `math.sin` on the angles it meets."""
    theta = (2.0 * math.pi) * RngState(31).uniform_array((100_000,))
    angles = theta.tolist()
    assert np.cos(theta).tobytes() == np.array([math.cos(t) for t in angles]).tobytes()
    assert np.sin(theta).tobytes() == np.array([math.sin(t) for t in angles]).tobytes()
