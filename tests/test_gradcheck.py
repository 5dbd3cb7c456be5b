import numpy as np
import pytest

from framefuse.autodiff import (Tensor, add, cross_entropy, linear, multiply,
                                rms_norm, softmax_lastdim, sum_all)
from framefuse.gradcheck import finite_diff_check, run_gradient_suite


def test_sum_of_squares_is_exact():
    params = {f"p{i}": Tensor(np.full(3, float(i + 1)), requires_grad=True)
              for i in range(5)}

    def f():
        total = None
        for p in params.values():
            sq = sum_all(multiply(p, p))
            total = sq if total is None else add(total, sq)
        return total

    report = finite_diff_check(f, params, 1e-6)
    assert report.passed
    assert report.max_rel_err < 1e-8


def test_dead_parameter_has_zero_error():
    # a leaf the loss never reads has a zero taped and a zero numeric gradient
    live = Tensor(np.full(2, 0.3), requires_grad=True)
    dead = Tensor(np.ones(2), requires_grad=True)

    def loss():  # cubic, so central differences of the live leaf are inexact
        return sum_all(multiply(live, multiply(live, live)))

    assert finite_diff_check(loss, {"dead": dead}, 1e-6).max_rel_err == 0.0
    assert finite_diff_check(loss, {"live": live, "dead": dead}, 1e-6).max_rel_err > 0.0


def test_norm_linear_softmax_ce_chain():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 6)))
    gain = Tensor(np.ones(6), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 4)) * 0.5, requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    targets = np.array([0, 1, 2, 3])

    def f():
        h = rms_norm(x, gain)
        return cross_entropy(linear(h, w, b), targets)

    report = finite_diff_check(f, {"gain": gain, "w": w, "b": b}, tol=1e-4)
    assert report.passed
    assert report.max_rel_err < 1e-4


def test_op_suite_passes():
    reports = run_gradient_suite(("ops",))
    assert len(reports) == 16
    for name, report in reports:
        assert report.passed, f"{name}: {report.max_rel_err}"
        assert report.max_rel_err < 1e-6


@pytest.mark.slow
def test_composite_suite_passes(gradient_suite):
    reports = [(name, report) for name, report in gradient_suite[0] if report.tol == 1e-4]
    assert {name for name, _ in reports} == {"channel-merge", "qformer",
                                             "through-encoder"}
    for name, report in reports:
        assert report.passed, f"{name}: {report.max_rel_err}"
        assert report.max_rel_err < 1e-4


def test_suite_group_selection():
    names = [name for name, _ in run_gradient_suite(("ops",))]
    assert "softmax_lastdim" in names
    assert "through-encoder" not in names
