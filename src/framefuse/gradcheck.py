"""Central finite-difference gradient verification.

Relative error per coordinate is |a - n| / max(|a|, |n|, 1e-8) so tiny
gradients do not blow up the ratio; the reported figure is the max over all
coordinates of all checked parameters.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .pipeline import micro_gradcheck_cases
from .rng import RngState

REL_ERR_FLOOR = 1e-8


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    passed: bool
    step: float
    tol: float
    per_param: dict[str, float] = field(default_factory=dict)


def finite_diff_check(f: Callable[[], Tensor], params: Mapping[str, Tensor],
                      step: float = 1e-5, tol: float = 1e-6) -> FiniteDiffReport:
    """Compare taped gradients of the scalar f() against central differences.

    f must read the parameters' current .data each call. Each coordinate is
    perturbed in place by +/-step and restored bit-exactly afterwards.
    """
    with Tape() as tape:
        tape.watch(*params.values())
        loss = f()
    grads = backward(tape, loss)

    worst = 0.0
    per_param: dict[str, float] = {}
    for name, p in params.items():
        analytic = grads[p]
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f().item()
            flat[i] = orig - step
            fm = f().item()
            flat[i] = orig
            nflat[i] = (fp - fm) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_ERR_FLOOR)
        rel = float((np.abs(analytic - numeric) / denom).max()) if flat.size else 0.0
        per_param[name] = rel
        worst = max(worst, rel)
    return FiniteDiffReport(max_rel_err=worst, passed=worst < tol, step=step,
                            tol=tol, per_param=per_param)


# ---- op-level and composite suites (used by the CLI and the acceptance test) ----

def _op_cases(seed: int = 11):
    """Small seeded inputs, one scalar-valued closure per differentiable op."""
    rng = RngState(seed)

    def t(*shape, std=1.0):
        return Tensor(rng.normal_array(shape, std), requires_grad=True)

    cases: list[tuple[str, Callable[[], Tensor], dict]] = []

    a, b = t(3, 4), t(3, 4)
    cases.append(("add", lambda: ad.sum_all(ad.multiply(ad.add(a, b), ad.add(a, b))),
                  {"a": a, "b": b}))
    m1, m2 = t(3, 4), t(4, 2)
    cases.append(("matmul", lambda: ad.sum_all(ad.multiply(ad.matmul(m1, m2), ad.matmul(m1, m2))),
                  {"a": m1, "b": m2}))
    bm1, bm2 = t(2, 3, 4), t(2, 4, 3)
    cases.append(("matmul_batched", lambda: ad.sum_all(ad.multiply(ad.matmul(bm1, bm2), ad.matmul(bm1, bm2))),
                  {"a": bm1, "b": bm2}))
    sx = t(3, 5)
    sw = t(5, 1)
    cases.append(("softmax_lastdim", lambda: ad.sum_all(ad.matmul(ad.softmax_lastdim(sx), sw)),
                  {"x": sx, "w": sw}))
    rx, rg = t(4, 6), t(6, std=0.5)
    cases.append(("rms_norm", lambda: ad.sum_all(ad.multiply(ad.rms_norm(rx, rg), ad.rms_norm(rx, rg))),
                  {"x": rx, "gain": rg}))
    gx = t(4, 5)
    cases.append(("gelu", lambda: ad.sum_all(ad.multiply(ad.gelu(gx), gx)), {"x": gx}))
    q, k, v = t(2, 3, 4), t(2, 5, 4), t(2, 5, 4)
    mask = ad.constant(np.where(rng.uniform_array((3, 5)) < 0.3, ad.MASK_BLOCKED, 0.0))
    if np.any(mask.data.max(axis=-1) <= ad.MASK_BLOCKED * 0.5):  # keep every row alive
        mdata = mask.data.copy()
        mdata[:, 0] = 0.0
        mask = ad.constant(mdata)
    cases.append(("attention", lambda: ad.sum_all(ad.multiply(ad.attention(q, k, v, mask),
                                                              ad.attention(q, k, v, mask))),
                  {"q": q, "k": k, "v": v}))
    c1, c2 = t(2, 3), t(2, 2)
    cases.append(("concat_axis", lambda: ad.sum_all(ad.multiply(ad.concat_axis([c1, c2], 1),
                                                                ad.concat_axis([c1, c2], 1))),
                  {"a": c1, "b": c2}))
    px = t(2, 3, 4)
    cases.append(("permute_reshape", lambda: ad.sum_all(ad.multiply(
        ad.reshape(ad.permute(px, (1, 0, 2)), (6, 4)), ad.reshape(ad.permute(px, (1, 0, 2)), (6, 4)))),
        {"x": px}))
    nx = t(3, 6)
    cases.append(("narrow", lambda: ad.sum_all(ad.multiply(ad.narrow(nx, 1, 2, 3),
                                                           ad.narrow(nx, 1, 2, 3))),
                  {"x": nx}))
    mx = t(3, 4, 2)
    cases.append(("mean_over_axis", lambda: ad.sum_all(ad.multiply(ad.mean_over_axis(mx, 1),
                                                                   ad.mean_over_axis(mx, 1))),
                  {"x": mx}))
    emb = t(7, 3, std=0.5)
    ids = np.array([[0, 2, 5], [6, 2, 1]])
    cases.append(("embedding_lookup", lambda: ad.sum_all(ad.multiply(ad.embedding_lookup(emb, ids),
                                                                     ad.embedding_lookup(emb, ids))),
                  {"table": emb}))
    lx, lw, lb = t(4, 3), t(3, 2), t(2, std=0.1)
    cases.append(("linear", lambda: ad.sum_all(ad.multiply(ad.linear(lx, lw, lb),
                                                           ad.linear(lx, lw, lb))),
                  {"x": lx, "w": lw, "b": lb}))
    ce = t(5, 4)
    tg = np.array([0, 3, 1, 2, 2])
    cases.append(("cross_entropy", lambda: ad.cross_entropy(ce, tg), {"logits": ce}))
    chain_x, chain_g, chain_w = t(3, 6), t(6, std=0.5), t(6, 4)
    tg2 = np.array([1, 0, 3])
    cases.append(("norm_linear_softmax_ce", lambda: ad.cross_entropy(
        ad.linear(ad.rms_norm(chain_x, chain_g), chain_w), tg2),
        {"x": chain_x, "gain": chain_g, "w": chain_w}))
    return cases


def run_op_checks(step: float = 1e-5, tol: float = 1e-6) -> list[tuple[str, FiniteDiffReport]]:
    return [(name, finite_diff_check(f, params, step=step, tol=tol))
            for name, f, params in _op_cases()]


def run_composite_checks(step: float = 1e-5, tol: float = 1e-4) -> list[tuple[str, FiniteDiffReport]]:
    """One micro end-to-end forward per fusion paradigm family."""
    return [(name, finite_diff_check(f, params, step=step, tol=tol))
            for name, f, params in micro_gradcheck_cases()]


SUITE_GROUPS = ("ops", "composites")


def run_gradient_suite(groups: Sequence[str] = SUITE_GROUPS) -> list[tuple[str, FiniteDiffReport]]:
    results: list[tuple[str, FiniteDiffReport]] = []
    if "ops" in groups:
        results.extend(run_op_checks())
    if "composites" in groups:
        results.extend(run_composite_checks())
    return results
