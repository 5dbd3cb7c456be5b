"""Dense float64 tensors with taped reverse-mode differentiation.

Forward ops execute eagerly on numpy arrays. When a Tape is active and an
input is connected to a watched leaf, the op appends a node (op name, input
ids, output id, gradient closure) to the tape. backward() walks the node list
once in reverse. With no active tape the ops are plain forward arithmetic,
which is what evaluation and finite differences use.

Lifetime rule: an array lives only as long as some gradient still needs it.
A closure holds only what its gradient reads (shapes rather than input
Tensors, and no operand whose partner input is untracked), and an input that
is not tracked on the tape gets a None gradient. backward() consumes the tape:
it drops each node's closure once the node has run and each adjoint once its
node has read it, so saved activations free as the sweep goes. The node list
itself (op names and ids) stays.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeMismatch

# Additive mask sentinel for blocked attention entries. exp(x - rowmax)
# underflows to exactly 0.0 for x this far below any finite row max, so
# blocked positions get weight exactly zero rather than merely small.
MASK_BLOCKED = -1e30

GELU_COEFF = 0.7978845608028654  # sqrt(2/pi)
RMS_EPS = 1e-6  # rms_norm's guard against a zero mean square
_GELU_CUBIC = 0.044715


class Tensor:
    """Dense row-major float64 array. Treated as immutable once built."""

    __slots__ = ("data", "requires_grad", "tid")
    _ids = itertools.count()

    def __init__(self, data, requires_grad: bool = False):
        # asarray with order="C" keeps 0-d shapes; ascontiguousarray would
        # promote scalars to shape (1,)
        arr = np.asarray(data, dtype=np.float64, order="C")
        if arr.ndim > 0 and min(arr.shape) < 1:
            raise ShapeMismatch(f"zero-sized extent in shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.tid = next(Tensor._ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch(f"item() on shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


class Node:
    __slots__ = ("op", "input_ids", "output_id", "grad_fn")

    def __init__(self, op: str, input_ids: tuple[int, ...], output_id: int,
                 grad_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]):
        self.op = op
        self.input_ids = input_ids
        self.output_id = output_id
        self.grad_fn = grad_fn


_TAPES: list["Tape"] = []


class Tape:
    """Wengert list. Use as a context manager around the forward pass."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._live: set[int] = set()  # watched leaves and taped results

    def watch(self, *tensors: Tensor) -> None:
        self._live.update(t.tid for t in tensors)

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _TAPES.pop()
        assert popped is self, "tapes must unwind in LIFO order"
        return False


def _active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _tracked(tape: Tape, t: Tensor) -> bool:
    """True if gradients flow to `t` on `tape`: a parameter or a taped result."""
    return t.requires_grad or t.tid in tape._live


def _finish(op: str, inputs: Sequence[Tensor], out_data: np.ndarray, grad_fn) -> Tensor:
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        if any(_tracked(tape, t) for t in inputs):
            for t in inputs:
                if t.requires_grad and t.tid not in tape._live:
                    tape.watch(t)
            tape.nodes.append(Node(op, tuple(t.tid for t in inputs), out.tid, grad_fn))
            tape._live.add(out.tid)
    return out


def _needs_grad(*inputs: Tensor) -> tuple[bool, ...]:
    """Per input: whether the active tape tracks it, so its gradient is used."""
    tape = _active_tape()
    return tuple(tape is not None and _tracked(tape, t) for t in inputs)


def _cross_operands(a: Tensor, b: Tensor) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(a's data if b's gradient is used, b's data if a's is): each input's
    gradient of a product reads the other operand, so keep only what is read."""
    need_a, need_b = _needs_grad(a, b)
    return (a.data if need_b else None), (b.data if need_a else None)


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Fold a broadcast gradient back onto `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class Gradients:
    """backward() result: per-leaf gradient arrays, zeros for unreached leaves."""

    def __init__(self, by_tid: dict[int, np.ndarray]):
        self._by_tid = by_tid

    def __getitem__(self, t: Tensor) -> np.ndarray:
        g = self._by_tid.get(t.tid)
        return np.zeros_like(t.data) if g is None else g


def backward(tape: Tape, loss: Tensor) -> Gradients:
    """Reverse sweep; every node visited exactly once.

    `loss` must be a rank-0 scalar. Each node pops its output's adjoint, so
    the adjoints left are the gradients of the leaves the loss reached; other
    leaves get zeros. Consumes the tape: every node's `grad_fn` is None after.
    """
    if loss.shape != ():
        raise ShapeMismatch(f"loss has shape {loss.shape}, expected a scalar")
    live = tape._live
    adjoint: dict[int, np.ndarray] = {loss.tid: np.array(1.0)} if loss.tid in live else {}
    for node in reversed(tape.nodes):
        g = adjoint.pop(node.output_id, None)
        grad_fn, node.grad_fn = node.grad_fn, None
        if g is None:
            continue
        for tid, gi in zip(node.input_ids, grad_fn(g)):
            if gi is None or tid not in live:
                continue
            acc = adjoint.get(tid)
            adjoint[tid] = gi if acc is None else acc + gi
    return Gradients(adjoint)


# ---- elementwise and structural ops ----

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeMismatch(f"add {a.shape} vs {b.shape}") from None
    need_a, need_b = _needs_grad(a, b)
    sa, sb = a.shape, b.shape

    def grad_fn(g):
        return (_sum_to(g, sa) if need_a else None), (_sum_to(g, sb) if need_b else None)

    return _finish("add", (a, b), out, grad_fn)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeMismatch(f"multiply {a.shape} vs {b.shape}") from None
    ad, bd = _cross_operands(a, b)
    sa, sb = a.shape, b.shape

    def grad_fn(g):
        return (None if bd is None else _sum_to(g * bd, sa),
                None if ad is None else _sum_to(g * ad, sb))

    return _finish("multiply", (a, b), out, grad_fn)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def grad_fn(g):
        return (g * s,)

    return _finish("scale", (a,), a.data * s, grad_fn)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(e) for e in shape)
    if math.prod(shape) != x.size:
        raise ShapeMismatch(f"reshape {x.shape} -> {shape}")
    old = x.shape

    def grad_fn(g):
        return (g.reshape(old),)

    return _finish("reshape", (x,), x.data.reshape(shape), grad_fn)


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeMismatch(f"permute axes {axes} for rank {x.ndim}")
    inv = tuple(np.argsort(axes))

    def grad_fn(g):
        return (g.transpose(inv),)

    return _finish("permute", (x,), np.ascontiguousarray(x.data.transpose(axes)), grad_fn)


def concat_axis(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeMismatch("concat of zero tensors")
    axis = axis % tensors[0].ndim
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeMismatch(f"concat shapes {[t.shape for t in tensors]} axis {axis}") from None
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return _finish("concat_axis", tuple(tensors), out, grad_fn)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    axis = axis % x.ndim
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeMismatch(f"narrow [{start}:{start + length}] on extent {x.shape[axis]}")
    idx = tuple(slice(None) if i != axis else slice(start, start + length)
                for i in range(x.ndim))
    shape = x.shape

    def grad_fn(g):
        full = np.zeros(shape, dtype=np.float64)
        full[idx] = g
        return (full,)

    return _finish("narrow", (x,), np.ascontiguousarray(x.data[idx]), grad_fn)


def gather(x: Tensor, index: np.ndarray) -> Tensor:
    """Rows of x picked along axis 0 by an integer array of any shape:
    x [N, ...], index [...] -> [*index.shape, ...]. When no row repeats, the
    backward puts each gradient row at its source row; otherwise it sums the
    gradient rows that share a source row as one one-hot GEMM, which is faster
    here than a scatter-add."""
    shape, flat = x.shape, index.reshape(-1)

    def grad_fn(g):
        g2 = g.reshape(flat.size, -1)
        if np.unique(flat).size == flat.size:
            full = np.zeros((shape[0], g2.shape[1]))
            full[flat] = g2
        else:
            full = np.zeros((shape[0], flat.size))
            full[flat, np.arange(flat.size)] = 1.0
            full = full @ g2
        return (full.reshape(shape),)

    return _finish("gather", (x,), x.data[index], grad_fn)


def mean_over_axis(x: Tensor, axis: int) -> Tensor:
    axis = axis % x.ndim
    n = x.shape[axis]

    def grad_fn(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _finish("mean_over_axis", (x,), x.data.mean(axis=axis), grad_fn)


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape

    def grad_fn(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _finish("sum_all", (x,), np.asarray(x.data.sum()), grad_fn)


# ---- linear algebra ----

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product. `b` is a rank-2 matrix shared across a's batch
    axes, or has exactly a's batch prefix."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch(f"matmul needs rank >= 2, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"matmul inner extents differ: {a.shape} x {b.shape}")
    sa = a.shape
    ad, bd = _cross_operands(a, b)
    if b.ndim == 2:
        # a weight shared across a's batch axes: fold them into the rows of one
        # GEMM, forward and backward, instead of one small GEMM per batch slice
        out = (a.data.reshape(-1, sa[-1]) @ b.data).reshape(sa[:-1] + (b.shape[-1],))

        def grad_fn(g):
            g2 = g.reshape(-1, g.shape[-1])
            return (None if bd is None else (g2 @ bd.T).reshape(sa),
                    None if ad is None else ad.reshape(-1, sa[-1]).T @ g2)
    elif sa[:-2] != b.shape[:-2]:
        raise ShapeMismatch(f"matmul batch prefixes differ: {a.shape} x {b.shape}")
    else:
        out = a.data @ b.data

        def grad_fn(g):
            return (None if bd is None else g @ np.swapaxes(bd, -1, -2),
                    None if ad is None else np.swapaxes(ad, -1, -2) @ g)

    return _finish("matmul", (a, b), out, grad_fn)


def matmul_rebuilt(make_a: Callable[[], np.ndarray], b: Tensor) -> Tensor:
    """make_a() [..., K] @ b [K, N], one `matmul` on untracked Tensors, taped
    without keeping the left operand: b's gradient calls make_a again (it must
    return the same array) and forms the product `matmul`'s gradient forms."""
    out = matmul(Tensor(make_a()), Tensor(b.data)).data

    def grad_fn(g):
        a = make_a()
        return (a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]),)

    return _finish("matmul_rebuilt", (b,), out, grad_fn)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x [..., nin] @ w [nin, nout] (+ b [nout])."""
    if w.ndim != 2:
        raise ShapeMismatch(f"linear {x.shape} @ {w.shape}")
    out = matmul(x, w)
    if b is not None:
        if b.shape != (w.shape[1],):
            raise ShapeMismatch(f"linear bias {b.shape} for {w.shape}")
        out = add(out, b)
    return out


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """table [V, h], ids int array [...] -> [..., h]."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeMismatch("embedding ids must be integers")
    if table.ndim != 2:
        raise ShapeMismatch(f"embedding table must be rank 2, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeMismatch(f"embedding id out of range for vocab {table.shape[0]}")
    return gather(table, ids)


# ---- nonlinearities and norms ----

def gelu(x: Tensor) -> Tensor:
    """tanh-form gelu: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3))).

    Forward and gradient work in place on two or three full-size buffers, in
    the operation order of the closed forms (a step at most swaps the operands
    of one + or *), so they match those forms bitwise."""
    xd = x.data
    t = np.multiply(xd, xd, out=np.empty_like(xd))  # out= keeps a 0-d input an array
    t *= xd
    t *= _GELU_CUBIC
    t += xd
    t *= GELU_COEFF
    np.tanh(t, out=t)
    out = 0.5 * xd
    out *= 1.0 + t

    def grad_fn(g):
        # 0.5*(1 + t) + 0.5*x * (1 - t^2) * c * (1 + 3*0.044715*x^2), times g
        local = np.multiply(t, t, out=np.empty_like(t))
        np.subtract(1.0, local, out=local)
        part = np.multiply(xd, 0.5, out=np.empty_like(xd))
        local *= part
        local *= GELU_COEFF
        np.multiply(xd, xd, out=part)
        part *= 3.0 * _GELU_CUBIC
        part += 1.0
        local *= part
        np.add(t, 1.0, out=part)
        part *= 0.5
        part += local
        part *= g
        return (part,)

    return _finish("gelu", (x,), out, grad_fn)


def softmax_lastdim(x: Tensor) -> Tensor:
    xd = x.data
    y = xd - xd.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        gx = g * y
        np.subtract(g, gx.sum(axis=-1, keepdims=True), out=gx)
        gx *= y
        return (gx,)

    return _finish("softmax_lastdim", (x,), y, grad_fn)


def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """x / sqrt(mean(x^2, last) + RMS_EPS) * gain, gain shaped [last extent]."""
    if gain.shape != (x.shape[-1],):
        raise ShapeMismatch(f"rms_norm gain {gain.shape} for input {x.shape}")
    xd = x.data
    h = x.shape[-1]
    ms = (xd * xd).mean(axis=-1, keepdims=True)
    r = 1.0 / np.sqrt(ms + RMS_EPS)
    gd, sg = gain.data, gain.shape
    out = xd * r * gd

    def grad_fn(g):
        u = g * gd
        gx = u * r - xd * (r ** 3 / h) * (u * xd).sum(axis=-1, keepdims=True)
        ggain = _sum_to(g * xd * r, sg)
        return gx, ggain

    return _finish("rms_norm", (x, gain), out, grad_fn)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood. logits [B, C], integer targets [B]."""
    ld = logits.data
    targets = np.asarray(targets)
    if not np.issubdtype(targets.dtype, np.integer):
        raise ShapeMismatch("cross_entropy targets must be integers")
    if ld.ndim != 2 or targets.shape != (ld.shape[0],):
        raise ShapeMismatch(f"cross_entropy logits {logits.shape} targets {targets.shape}")
    if targets.min() < 0 or targets.max() >= ld.shape[1]:
        raise ShapeMismatch(f"target class out of range for {ld.shape[1]} classes")
    bsz = ld.shape[0]
    m = ld.max(axis=-1, keepdims=True)
    ez = np.exp(ld - m)
    total = ez.sum(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(total[:, 0])
    nll = lse - ld[np.arange(bsz), targets]
    out = np.asarray(nll.mean())
    p = ez / total

    def grad_fn(g):
        gl = p.copy()
        gl[np.arange(bsz), targets] -= 1.0
        gl *= float(g) / bsz
        return (gl,)

    return _finish("cross_entropy", (logits,), out, grad_fn)


# ---- attention ----

def attention(q: Tensor, k: Tensor, v: Tensor, mask: Tensor | None = None) -> Tensor:
    """softmax(q k^T / sqrt(d) + mask) v with an additive 0/MASK_BLOCKED mask.

    q [..., Tq, d], k [..., Tk, d], v [..., Tk, dv]; mask broadcasts onto the
    score shape [..., Tq, Tk]. Raises ShapeMismatch if any query row has no
    allowed key. Blocked entries receive exactly zero weight.
    """
    if mask is not None:
        if mask.shape[-2:] != (q.shape[-2], k.shape[-2]):
            raise ShapeMismatch(f"mask {mask.shape} for scores [..., {q.shape[-2]}, {k.shape[-2]}]")
        if np.any(mask.data.max(axis=-1) <= MASK_BLOCKED * 0.5):
            raise ShapeMismatch("a query row blocks every key")
    d = q.shape[-1]
    axes = (*range(k.ndim - 2), k.ndim - 1, k.ndim - 2)
    scores = scale(matmul(q, permute(k, axes)), 1.0 / math.sqrt(d))
    if mask is not None:
        scores = add(scores, mask)
    return matmul(softmax_lastdim(scores), v)


# ---- construction helpers ----

def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)
