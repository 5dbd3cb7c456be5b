import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framefuse import autodiff
from framefuse.autodiff import (MASK_BLOCKED, RMS_EPS, Gradients, Tape, Tensor,
                                add, attention, backward, concat_axis, constant,
                                cross_entropy, embedding_lookup, gather, gelu,
                                linear, matmul, matmul_rebuilt, mean_over_axis,
                                multiply, narrow,
                                param, permute, reshape, rms_norm, scale,
                                softmax_lastdim, sum_all, swap_last_two)
from framefuse.errors import ShapeMismatch
from framefuse.frontend import FusionMethod
from framefuse.gradcheck import finite_diff_check
from framefuse.pipeline import ModelConfig, batch_loss, build_model
from framefuse.synthclips import GenConfig, gen_dataset
from framefuse.training import Adam, _batch_arrays

from oracles import (gelu_closed_form, gelu_grad_closed_form, softmax_closed_form,
                     softmax_grad_closed_form)

finite_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
    elements=st.floats(-10, 10, allow_nan=False))


def grad_of(f, *tensors):
    with Tape() as tape:
        loss = f(*tensors)
        grads = backward(tape, loss)
    return [grads[t] for t in tensors]


# ---- tensor basics ----

def test_tensor_is_float64_contiguous():
    t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3).T)
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]


def test_zero_dim_tensor_round_trip():
    t = Tensor(3.5)
    assert t.shape == ()
    assert t.item() == 3.5


def test_item_rejects_vectors():
    with pytest.raises(ShapeMismatch):
        Tensor(np.ones(3)).item()


def test_zero_sized_tensor_rejected():
    with pytest.raises(ShapeMismatch):
        Tensor(np.ones((2, 0)))


# ---- forward oracles ----

def test_matmul_identity():
    out = matmul(constant(np.eye(2)), constant([[3.0, 4.0], [5.0, 6.0]]))
    assert np.array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_hand_case():
    out = matmul(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


@pytest.mark.parametrize("a_shape, b_shape", [
    ((3,), (3, 2)),            # rank 1
    ((2, 3), (4, 2)),          # inner extents differ
    ((2, 2, 3), (3, 3, 2)),    # batch prefixes differ
    ((2, 3), (4, 3, 2)),       # a rank-2 a against a batched b
], ids=["rank1", "inner", "prefix", "rank2-a-batched-b"])
def test_matmul_rejects_shapes(a_shape, b_shape):
    with pytest.raises(ShapeMismatch):
        matmul(constant(np.ones(a_shape)), constant(np.ones(b_shape)))


def test_softmax_symmetry():
    out = softmax_lastdim(constant([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_is_stabilized():
    out = softmax_lastdim(constant([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert np.allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_softmax_frozen_values():
    out = softmax_lastdim(constant([1.0, 2.0, 3.0]))
    assert np.allclose(out.data, [0.0900306, 0.2447285, 0.6652410], atol=1e-6)


def test_rms_norm_constant_vector():
    out = rms_norm(constant([2.0, 2.0, 2.0]), constant(np.ones(3)))
    assert np.array_equal(out.data, np.full(3, 2.0 * (1.0 / np.sqrt(4.0 + RMS_EPS))))
    assert np.allclose(out.data, [1.0, 1.0, 1.0])


def test_rms_norm_zero_fixed_point():
    out = rms_norm(constant([0.0, 0.0]), constant(np.ones(2)))
    assert np.array_equal(out.data, [0.0, 0.0])


def test_rms_norm_frozen_values():
    out = rms_norm(constant([3.0, 4.0]), constant(np.ones(2)))
    r = 1.0 / np.sqrt(12.5 + RMS_EPS)
    assert np.array_equal(out.data, [3.0 * r, 4.0 * r])
    assert np.allclose(out.data, [0.84853, 1.13137], atol=1e-5)


def test_gelu_odd_point_and_asymptote():
    assert gelu(constant(0.0)).item() == 0.0
    assert abs(gelu(constant(10.0)).item() - 10.0) < 1e-6


def test_gelu_frozen_value():
    assert abs(gelu(constant(1.0)).item() - 0.841192) < 1e-6


def test_gelu_matches_closed_forms_bitwise():
    rng = np.random.default_rng(11)
    xd = np.concatenate([rng.normal(0.0, 3.0, 500), [0.0, -0.0, 1e-310, -1e-310, 1e-8,
                                                     -4.0, 30.0, -30.0, 1e30]])
    g = rng.normal(size=xd.shape)
    x = param(xd)
    with Tape() as tape:
        out = gelu(x)
        grads = backward(tape, sum_all(multiply(out, constant(g))))
    assert out.data.tobytes() == gelu_closed_form(xd).tobytes()
    assert grads[x].tobytes() == gelu_grad_closed_form(xd, g).tobytes()
    assert gelu(constant(0.7)).data.tobytes() == gelu_closed_form(np.array(0.7)).tobytes()


def test_softmax_matches_closed_forms_bitwise():
    rng = np.random.default_rng(12)
    xd = rng.normal(0.0, 4.0, (3, 5, 7))
    xd[0, :, 2] = MASK_BLOCKED  # blocked keys get exactly zero weight
    xd[1, 0] = [700.0, -700.0, 0.0, 1e-300, -0.0, 3.0, 700.0]
    g = rng.normal(size=xd.shape)
    x = param(xd)
    with Tape() as tape:
        out = softmax_lastdim(x)
        grads = backward(tape, sum_all(multiply(out, constant(g))))
    y = softmax_closed_form(xd)
    assert out.data.tobytes() == y.tobytes()
    assert grads[x].tobytes() == softmax_grad_closed_form(y, g).tobytes()
    assert not out.data[0, :, 2].any()


def test_attention_single_key_returns_value():
    q = constant(np.ones((1, 4)))
    k = constant(np.full((1, 4), 0.3))
    v = constant([[2.0, -1.0, 0.5, 7.0]])
    out = attention(q, k, v, constant(np.zeros((1, 1))))
    assert np.allclose(out.data, v.data)


def test_attention_uniform_keys_average_values():
    q = constant(np.ones((2, 4)))
    k = constant(np.ones((3, 4)))
    v = constant(np.arange(12, dtype=np.float64).reshape(3, 4))
    out = attention(q, k, v, constant(np.zeros((2, 3))))
    assert np.allclose(out.data, np.tile(v.data.mean(axis=0), (2, 1)))


def test_attention_blocked_rows_raise():
    q = constant(np.ones((2, 4)))
    k = constant(np.ones((2, 4)))
    v = constant(np.ones((2, 4)))
    mask = constant(np.full((2, 2), MASK_BLOCKED))
    with pytest.raises(ShapeMismatch, match="a query row blocks every key"):
        attention(q, k, v, mask)


def test_attention_mask_separates_blocks():
    rng = np.random.default_rng(0)
    q = constant(rng.normal(size=(4, 4)))
    k = constant(rng.normal(size=(4, 4)))
    v = constant(rng.normal(size=(4, 4)))
    block = np.where(np.arange(4)[:, None] // 2 == np.arange(4)[None, :] // 2,
                     0.0, MASK_BLOCKED)
    full = attention(q, k, v, constant(block)).data
    top = attention(constant(q.data[:2]), constant(k.data[:2]), constant(v.data[:2]),
                    constant(np.zeros((2, 2)))).data
    assert np.array_equal(full[:2], top)


def test_attention_rejects_head_dim_mismatch():
    q = constant(np.ones((2, 3, 4)))
    with pytest.raises(ShapeMismatch):
        attention(q, constant(np.ones((2, 5, 3))), constant(np.ones((2, 5, 4))))


def test_attention_rejects_key_value_count_mismatch():
    q = constant(np.ones((2, 3, 4)))
    with pytest.raises(ShapeMismatch):
        attention(q, constant(np.ones((2, 5, 4))), constant(np.ones((2, 6, 4))))


def test_cross_entropy_uniform_logits():
    loss = cross_entropy(constant(np.zeros((2, 4))), np.array([0, 3]))
    assert abs(loss.item() - np.log(4.0)) < 1e-12
    assert abs(loss.item() - 1.386294) < 1e-6


def test_cross_entropy_saturated():
    logits = np.zeros((1, 4))
    logits[0, 2] = 20.0
    assert cross_entropy(constant(logits), np.array([2])).item() < 1e-8


def test_cross_entropy_rejects_bad_targets():
    with pytest.raises(ShapeMismatch):
        cross_entropy(constant(np.zeros((2, 4))), np.array([0.5, 1.5]))
    with pytest.raises(ShapeMismatch):
        cross_entropy(constant(np.zeros((2, 4))), np.array([0, 4]))


# ---- reverse mode ----

def test_backward_sum_gives_ones():
    x = param(np.zeros((2, 2)))
    (g,) = grad_of(lambda t: sum_all(t), x)
    assert np.array_equal(g, np.ones((2, 2)))


def test_backward_square_at_three():
    x = param(3.0)
    (g,) = grad_of(lambda t: sum_all(multiply(t, t)), x)
    assert abs(float(g) - 6.0) < 1e-12


def test_backward_requires_scalar_loss():
    x = param(np.ones(3))
    with pytest.raises(ShapeMismatch, match=r"loss has shape \(3,\), expected a scalar"):
        with Tape() as tape:
            y = scale(x, 2.0)
            backward(tape, y)


def test_unreached_leaf_gets_zero_gradient():
    x = param(np.ones((2, 3)))
    dead = param(np.ones(4))
    with Tape() as tape:
        loss = sum_all(x)
        grads = backward(tape, loss)
    assert np.array_equal(grads[dead], np.zeros(4))


def test_add_broadcast_gradient_folds():
    x = param(np.ones((2, 3)))
    b = param(np.ones(3))
    gx, gb = grad_of(lambda a, c: sum_all(add(a, c)), x, b)
    assert np.array_equal(gx, np.ones((2, 3)))
    assert np.array_equal(gb, np.full(3, 2.0))


def test_gradient_accumulates_over_reuse():
    x = param(np.full(3, 2.0))
    (g,) = grad_of(lambda t: sum_all(add(t, t)), x)
    assert np.array_equal(g, np.full(3, 2.0))


def test_shape_ops_route_gradients():
    x = param(np.arange(24, dtype=np.float64).reshape(2, 3, 4))

    def f(t):
        y = permute(t, (1, 0, 2))
        y = reshape(y, (3, 8))
        y = narrow(y, 1, 2, 4)
        return sum_all(y)

    (g,) = grad_of(f, x)
    assert g.shape == (2, 3, 4)
    assert g.sum() == 12.0


def test_swap_last_two_matches_permute():
    x = constant(np.arange(12, dtype=np.float64).reshape(2, 3, 2))
    assert np.array_equal(swap_last_two(x).data, np.swapaxes(x.data, -1, -2))


def test_concat_then_narrow_recovers_parts():
    a = param(np.ones((2, 2)))
    b = param(np.full((2, 3), 2.0))
    out = concat_axis([a, b], 1)
    assert out.shape == (2, 5)
    ga, gb = grad_of(lambda x, y: sum_all(narrow(concat_axis([x, y], 1), 1, 0, 2)), a, b)
    assert np.array_equal(ga, np.ones((2, 2)))
    assert np.array_equal(gb, np.zeros((2, 3)))


def test_mean_over_axis_gradient():
    x = param(np.ones((2, 4, 3)))
    (g,) = grad_of(lambda t: sum_all(mean_over_axis(t, 1)), x)
    assert np.allclose(g, 0.25)


def test_embedding_lookup_scatters_gradient():
    table = param(np.zeros((5, 3)))
    ids = np.array([[1, 1], [4, 0]])
    (g,) = grad_of(lambda t: sum_all(embedding_lookup(t, ids)), table)
    expect = np.zeros((5, 3))
    expect[1] = 2.0
    expect[4] = 1.0
    expect[0] = 1.0
    assert np.array_equal(g, expect)


def test_gather_copies_rows_and_sums_their_gradients():
    x = param(np.arange(12.0).reshape(3, 2, 2))
    index = np.array([2, 0, 2, 2])
    out = gather(x, index)
    assert np.array_equal(out.data, x.data[index])
    weights = constant(np.arange(1.0, 5.0).reshape(4, 1, 1))
    (g,) = grad_of(lambda t: sum_all(multiply(gather(t, index), weights)), x)
    # row 2 feeds outputs 0, 2 and 3; row 1 feeds none
    expect = np.zeros((3, 2, 2))
    expect[0] = 2.0
    expect[2] = 1.0 + 3.0 + 4.0
    assert np.array_equal(g, expect)


def test_linear_without_bias():
    x = constant(np.ones((2, 3)))
    w = param(np.full((3, 2), 0.5))
    out = linear(x, w)
    assert np.allclose(out.data, 1.5)


@pytest.mark.parametrize("x_shape, w_shape, b_shape", [
    ((2, 3), (4, 2), None),      # inner extents differ: matmul's check
    ((2, 3), (3,), None),        # weight not rank 2
    ((2, 3), (3, 2), (3,)),      # bias is not [nout]
])
def test_linear_rejects_mismatched_shapes(x_shape, w_shape, b_shape):
    b = None if b_shape is None else constant(np.zeros(b_shape))
    with pytest.raises(ShapeMismatch):
        linear(constant(np.ones(x_shape)), param(np.ones(w_shape)), b)


# ---- a rank-2 weight shared across batch axes: one folded GEMM ----

@pytest.mark.parametrize("batch", [(3,), (2, 3)])
def test_folded_matmul_matches_per_slice_products(batch):
    rng = np.random.default_rng(5)
    a = rng.normal(size=batch + (4, 5))
    b = rng.normal(size=(5, 3))
    out = matmul(constant(a), constant(b)).data
    ref = np.stack([s @ b for s in a.reshape(-1, 4, 5)]).reshape(batch + (4, 3))
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("batch", [(3,), (2, 3)])
def test_folded_matmul_gradients_match_finite_differences(batch):
    rng = np.random.default_rng(6)
    a = param(rng.normal(size=batch + (4, 5)))
    b = param(rng.normal(size=(5, 3)))
    report = finite_diff_check(lambda: sum_all(multiply(matmul(a, b), matmul(a, b))),
                               {"a": a, "b": b}, tol=1e-6)
    assert report.passed, report.max_rel_err


def test_folded_matmul_skips_constant_input_gradient():
    rng = np.random.default_rng(7)
    a = constant(rng.normal(size=(2, 3, 4, 5)))
    b = param(rng.normal(size=(5, 3)))
    g = rng.normal(size=(2, 3, 4, 3))
    with Tape() as tape:
        matmul(a, b)
    (node,) = tape.nodes
    ga, gb = node.grad_fn(g)
    assert ga is None
    assert np.array_equal(gb, a.data.reshape(-1, 5).T @ g.reshape(-1, 3))


def test_gather_with_unique_rows_places_gradients():
    rng = np.random.default_rng(8)
    x = param(rng.normal(size=(5, 2, 3)))
    index = np.array([3, 0, 4])
    weights = constant(rng.normal(size=(3, 2, 3)))
    (g,) = grad_of(lambda t: sum_all(multiply(gather(t, index), weights)), x)
    # bitwise the one-hot GEMM that sums rows sharing a source row
    onehot = np.zeros((5, 3))
    onehot[index, np.arange(3)] = 1.0
    assert np.array_equal(g, (onehot @ weights.data.reshape(3, 6)).reshape(5, 2, 3))


# ---- lifetimes: a closure keeps what its gradient reads, backward frees it ----

def test_backward_frees_saved_arrays_and_closures(monkeypatch):
    refs = {}
    real_add = autodiff.add

    def spy_add(a, b):
        refs.setdefault("pre_bias", weakref.ref(a.data))
        out = real_add(a, b)
        refs.setdefault("post_bias", weakref.ref(out.data))
        return out

    monkeypatch.setattr(autodiff, "add", spy_add)
    rng = np.random.default_rng(9)
    x = constant(rng.normal(size=(4, 3)))
    w, b = param(rng.normal(size=(3, 5))), param(rng.normal(size=5))
    with Tape() as tape:
        loss = sum_all(gelu(linear(x, w, b)))
        # add's closure keeps shapes only; gelu's keeps its input for the sweep
        assert refs["pre_bias"]() is None
        assert refs["post_bias"]() is not None
        grads = backward(tape, loss)
    assert refs["post_bias"]() is None
    assert [node.op for node in tape.nodes] == ["matmul", "add", "gelu", "sum_all"]
    assert all(node.grad_fn is None for node in tape.nodes)
    assert grads[b].shape == (5,) and np.any(grads[w] != 0.0)


@pytest.mark.parametrize("op", [add, multiply], ids=["add", "multiply"])
def test_untracked_input_gets_no_gradient(op):
    x = param(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    c = constant(np.array([0.5, -1.0, 2.0]))
    with Tape() as tape:
        h = scale(x, 1.0)
        ref = weakref.ref(h.data)
        op(h, c)
    del h
    # add's gradients read no operand, and multiply's for the constant would be
    # the only one to read h: neither closure keeps h alive
    assert ref() is None
    gh, gc = tape.nodes[-1].grad_fn(np.ones((2, 3)))
    assert gc is None
    assert np.array_equal(gh, np.ones((2, 3)) if op is add else np.broadcast_to(c.data, (2, 3)))


def test_matmul_rebuilt_matches_matmul_bitwise_and_keeps_no_operand():
    rng = np.random.default_rng(4)
    a = rng.random((3, 5, 7)).astype(np.float32)
    w = param(rng.standard_normal((7, 4)))
    built = []

    def make_a():
        built.append(np.asarray(a, dtype=np.float64))
        return built[-1]

    with Tape() as tape:
        out = matmul_rebuilt(make_a, w)
        loss = sum_all(multiply(out, out))
    made = weakref.ref(built.pop())
    assert made() is None  # the tape holds make_a, not what it made
    grad = backward(tape, loss)[w]
    assert len(built) == 1  # the backward made the operand once more
    with Tape() as tape:
        want_out = matmul(constant(a), w)
        want = backward(tape, sum_all(multiply(want_out, want_out)))[w]
    assert out.data.tobytes() == want_out.data.tobytes()
    assert grad.tobytes() == want.tobytes()


def test_matmul_rebuilt_forward_is_a_matmul_call(monkeypatch):
    calls = []
    real = autodiff.matmul

    def counting(a, b):
        calls.append((a.shape, b.shape, a.requires_grad or b.requires_grad))
        return real(a, b)

    monkeypatch.setattr(autodiff, "matmul", counting)
    w = param(np.ones((6, 2)))
    with Tape() as tape:
        matmul_rebuilt(lambda: np.ones((2, 3, 6)), w)
    # one untracked product; the tape gets one node of its own
    assert calls == [((2, 3, 6), (6, 2), False)]
    assert [node.op for node in tape.nodes] == ["matmul_rebuilt"]


def test_train_step_peak_memory():
    """tracemalloc peak of one B=32 desk baseline step above its start: 44.7 MiB
    while closures held whole input Tensors and backward kept the tape, about
    18 MiB once the sweep frees it."""
    bundle = build_model(ModelConfig(method=FusionMethod.BASELINE, n_input=8), 3)
    samples, _ = gen_dataset(6, 4, GenConfig(frames=8))
    pixels, questions, answers = _batch_arrays(samples[:32])
    optimizer = Adam(bundle.params)

    def step():
        with Tape() as tape:
            grads = backward(tape, batch_loss(bundle, pixels, questions, answers))
        optimizer.step(bundle.params, grads, 1e-4)

    step()  # first-call allocations (Adam moments are already made)
    tracemalloc.start()  # traces only what is allocated from here on
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < 35.0


def test_pllava_train_step_peak_memory():
    """tracemalloc peak of one B=32 pllava-pool step at 16 frames above its
    start, in units of the batch's float64 patch-row bytes (9.2 MiB): 2.45
    while the tape kept the patch rows for the projection's weight gradient,
    1.45 once that gradient rebuilds them from the float32 pixels."""
    bundle = build_model(ModelConfig(method=FusionMethod.POST_POOL_PLLAVA, k=4, n_input=16), 3)
    samples, _ = gen_dataset(6, 4, GenConfig(frames=16))
    pixels, questions, answers = _batch_arrays(samples[:32])
    optimizer = Adam(bundle.params)

    def step():
        with Tape() as tape:
            grads = backward(tape, batch_loss(bundle, pixels, questions, answers))
        optimizer.step(bundle.params, grads, 1e-4)

    step()  # first-call allocations (Adam moments are already made)
    tracemalloc.start()  # traces only what is allocated from here on
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.9 * (32 * 16 * 3 * 28 * 28 * 8)


# ---- properties ----

@given(finite_arrays)
def test_softmax_rows_are_distributions(data):
    out = softmax_lastdim(constant(data)).data
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=-1), 1.0)


@given(finite_arrays)
def test_gelu_between_zero_and_identity_for_positive(data):
    pos = np.abs(data)
    out = gelu(constant(pos)).data
    assert np.all(out >= -1e-12)
    assert np.all(out <= pos + 1e-12)


@given(hnp.arrays(np.float64, st.integers(1, 6).map(lambda n: (4, n)),
                  elements=st.floats(0.1, 8, allow_nan=False)))
def test_rms_norm_unit_rms(data):
    out = rms_norm(constant(data), constant(np.ones(data.shape[-1]))).data
    rms = np.sqrt((out ** 2).mean(axis=-1))
    ms = (data ** 2).mean(axis=-1)
    assert np.allclose(rms, np.sqrt(ms / (ms + RMS_EPS)))


@given(st.integers(0, 10**6))
def test_backward_of_sum_is_ones_everywhere(seed):
    rng = np.random.default_rng(seed)
    x = param(rng.normal(size=(3, 2)))
    (g,) = grad_of(lambda t: sum_all(t), x)
    assert np.array_equal(g, np.ones((3, 2)))
