"""Central finite-difference gradient verification.

Relative error per coordinate is |a - n| / max(|a|, |n|, 1e-8) so tiny
gradients do not blow up the ratio; the reported figure is the max over all
coordinates of all checked parameters.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .frontend import FusionMethod
from .pipeline import ModelConfig, batch_loss, build_model
from .rng import RngState, derive_seed
from .synthclips import TOKEN_TO_ID, VOCAB

REL_ERR_FLOOR = 1e-8
STEP = 1e-5  # central-difference half-width


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    passed: bool
    tol: float


def finite_diff_check(f: Callable[[], Tensor], params: Mapping[str, Tensor],
                      tol: float) -> FiniteDiffReport:
    """Compare taped gradients of the scalar f() against central differences.

    f must read the parameters' current .data each call. Each coordinate is
    perturbed in place by +/-STEP and restored bit-exactly afterwards.
    """
    with Tape() as tape:
        tape.watch(*params.values())
        loss = f()
    grads = backward(tape, loss)

    worst = 0.0
    for name, p in params.items():
        analytic = grads[p]
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            fp = f().item()
            flat[i] = orig - STEP
            fm = f().item()
            flat[i] = orig
            nflat[i] = (fp - fm) / (2.0 * STEP)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_ERR_FLOOR)
        rel = float((np.abs(analytic - numeric) / denom).max()) if flat.size else 0.0
        worst = max(worst, rel)
    return FiniteDiffReport(max_rel_err=worst, passed=worst < tol, tol=tol)


# ---- op-level and composite suites (used by the CLI and the acceptance test) ----

def _op_cases():
    """Small seeded inputs, one scalar-valued closure per differentiable op."""
    rng = RngState(11)

    def t(*shape, std=1.0):
        return Tensor(rng.normal_array(shape, std), requires_grad=True)

    def squared(name, op, **inputs):
        """sum(op(**inputs)^2), differentiated in every input."""
        def f():
            y = op(**inputs)
            return ad.sum_all(ad.multiply(y, y))
        return name, f, inputs

    cases = [squared("add", ad.add, a=t(3, 4), b=t(3, 4)),
             squared("matmul", ad.matmul, a=t(3, 4), b=t(4, 2)),
             squared("matmul_batched", ad.matmul, a=t(2, 3, 4), b=t(2, 4, 3))]
    sx, sw = t(3, 5), t(5, 1)
    cases.append(("softmax_lastdim", lambda: ad.sum_all(ad.matmul(ad.softmax_lastdim(sx), sw)),
                  {"x": sx, "w": sw}))
    cases.append(squared("rms_norm", ad.rms_norm, x=t(4, 6), gain=t(6, std=0.5)))
    gx = t(4, 5)
    cases.append(("gelu", lambda: ad.sum_all(ad.multiply(ad.gelu(gx), gx)), {"x": gx}))
    q, k, v = t(2, 3, 4), t(2, 5, 4), t(2, 5, 4)
    mask = ad.constant(np.where(rng.uniform_array((3, 5)) < 0.3, ad.MASK_BLOCKED, 0.0))
    cases += [
        squared("attention", lambda q, k, v: ad.attention(q, k, v, mask), q=q, k=k, v=v),
        squared("concat_axis", lambda a, b: ad.concat_axis([a, b], 1), a=t(2, 3), b=t(2, 2)),
        squared("permute_reshape", lambda x: ad.reshape(ad.permute(x, (1, 0, 2)), (6, 4)),
                x=t(2, 3, 4)),
        squared("narrow", lambda x: ad.narrow(x, 1, 2, 3), x=t(3, 6)),
        squared("mean_over_axis", lambda x: ad.mean_over_axis(x, 1), x=t(3, 4, 2))]
    ids = np.array([[0, 2, 5], [6, 2, 1]])
    cases += [
        squared("embedding_lookup", lambda table: ad.embedding_lookup(table, ids),
                table=t(7, 3, std=0.5)),
        squared("linear", ad.linear, x=t(4, 3), w=t(3, 2), b=t(2, std=0.1))]
    ce = t(5, 4)
    tg = np.array([0, 3, 1, 2, 2])
    cases.append(("cross_entropy", lambda: ad.cross_entropy(ce, tg), {"logits": ce}))
    chain_x, chain_g, chain_w = t(3, 6), t(6, std=0.5), t(6, 4)
    tg2 = np.array([1, 0, 3])
    cases.append(("norm_linear_softmax_ce", lambda: ad.cross_entropy(
        ad.linear(ad.rms_norm(chain_x, chain_g), chain_w), tg2),
        {"x": chain_x, "gain": chain_g, "w": chain_w}))
    rows = np.array([2, 0, 2, 1, 2])  # row 2 feeds three outputs
    cases.append(squared("gather", lambda x: ad.gather(x, rows), x=t(3, 2, 2)))
    return cases


def micro_gradcheck_cases():
    """Three end-to-end losses at toy size, one per structurally distinct
    path: channel merge, learned queries, through-encoder fusion."""
    methods = (FusionMethod.PRE_ENCODER_CHANNEL_MERGE, FusionMethod.POST_QFORMER,
               FusionMethod.THROUGH_ENCODER)
    cases = []
    for i, method in enumerate(methods):
        cfg = ModelConfig(method=method, k=2, n_input=2, height=4, width=4, patch=2,
                          enc_layers=1, enc_hidden=8, enc_heads=2, enc_ffn=12,
                          out_hidden=8, dec_layers=1, dec_hidden=8, dec_heads=2,
                          dec_ffn=12, vocab=len(VOCAB), qformer_layers=1, qformer_heads=2)
        # the 0.02 training init leaves attention too uniform: some projection
        # gradients drop below the ~1e-11 central-difference noise floor and
        # the relative comparison becomes meaningless; a livelier init keeps
        # every coordinate's gradient well above it
        bundle = build_model(cfg, derive_seed(23, method.value), init_std=0.35)
        rng = RngState(derive_seed(23, "data", i))
        pixels = rng.uniform_array((2, cfg.n_input, 3, 4, 4))
        q = np.array([[TOKEN_TO_ID["ask:mr"], TOKEN_TO_ID["mr:translate"],
                       TOKEN_TO_ID["mr:rotate"], TOKEN_TO_ID["mr:blink"],
                       TOKEN_TO_ID["mr:grow"]]] * 2)
        answers = np.array([0, 2])

        def f(bundle=bundle, pixels=pixels, q=q, answers=answers):
            return batch_loss(bundle, pixels, q, answers)

        cases.append((method.value, f, bundle.params))
    return cases


# group name -> (case builder, tolerance); `gradcheck --module` picks a group
SUITES = {"ops": (_op_cases, 1e-6), "composites": (micro_gradcheck_cases, 1e-4)}


def run_gradient_suite(groups: Iterable[str] = SUITES) -> list[tuple[str, FiniteDiffReport]]:
    """Check every case of the named groups, in order, at the group's tolerance."""
    results = []
    for group in groups:
        cases, tol = SUITES[group]
        results += [(name, finite_diff_check(f, params, tol)) for name, f, params in cases()]
    return results
