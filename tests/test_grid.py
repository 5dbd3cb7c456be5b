import pytest

from framefuse.errors import BadConfig
from framefuse.frontend import COMPRESSION_METHODS, FusionMethod
from framefuse.grid import (ExperimentSpec, GridAxis, RunResult, _cells,
                            results_to_csv, run_cell, run_grid)
from framefuse.rng import derive_seed
from framefuse.synthclips import AO_MIN_FRAMES
from framefuse.training import TrainConfig

TINY_TRAIN = TrainConfig(total_steps=2, warmup_steps=1, batch=4)


def tiny_spec(axis, **kw):
    defaults = dict(train=TINY_TRAIN, train_per_category=2, eval_per_category=2)
    defaults.update(kw)
    return ExperimentSpec(axis=axis, **defaults)


def test_fixed_budget_needs_n_over_k():
    with pytest.raises(BadConfig, match="n_over_k"):
        ExperimentSpec(axis=GridAxis.FIXED_BUDGET)


def test_fixed_frames_needs_n_input():
    with pytest.raises(BadConfig, match="n_input"):
        ExperimentSpec(axis=GridAxis.FIXED_FRAMES)


def test_fixed_budget_rejects_n_input():
    with pytest.raises(BadConfig, match="takes n_over_k, not n_input"):
        ExperimentSpec(axis=GridAxis.FIXED_BUDGET, n_over_k=8, n_input=16)


def test_fixed_frames_rejects_n_over_k():
    with pytest.raises(BadConfig, match="takes n_input, not n_over_k"):
        ExperimentSpec(axis=GridAxis.FIXED_FRAMES, n_input=16, n_over_k=8)


def test_baseline_not_listable():
    with pytest.raises(BadConfig, match="implied"):
        ExperimentSpec(axis=GridAxis.FIXED_FRAMES, n_input=8,
                       methods=(FusionMethod.BASELINE,))


def test_bad_k_rejected():
    with pytest.raises(BadConfig):
        ExperimentSpec(axis=GridAxis.FIXED_BUDGET, n_over_k=4, k_values=(0,))


def test_fixed_frames_k_must_divide():
    with pytest.raises(BadConfig, match="divide"):
        ExperimentSpec(axis=GridAxis.FIXED_FRAMES, n_input=8, k_values=(3,))


def test_fixed_budget_cell_order():
    spec = tiny_spec(GridAxis.FIXED_BUDGET, n_over_k=8, k_values=(1, 2),
                     methods=(FusionMethod.POST_POOL_PLLAVA,
                              FusionMethod.THROUGH_ENCODER))
    cells = _cells(spec)
    # k=1 collapses to a single baseline row; each k keeps N_input = k * n_over_k
    assert cells == [
        (FusionMethod.BASELINE, 1, 8),
        (FusionMethod.POST_POOL_PLLAVA, 2, 16),
        (FusionMethod.THROUGH_ENCODER, 2, 16),
    ]


@pytest.mark.parametrize("axis, kw, n_input", [
    # the k=8 cells come first in the grid, so a run trained all five of them
    # before the baseline's 4 frames failed to generate
    (GridAxis.FIXED_BUDGET, dict(n_over_k=4, k_values=(8, 1)), 4),
    (GridAxis.FIXED_FRAMES, dict(n_input=4, k_values=(1, 2)), 4),
    (GridAxis.FIXED_FRAMES, dict(n_input=6, k_values=(2, 3)), 6),
])
def test_cells_below_the_action_order_floor_are_rejected(axis, kw, n_input):
    with pytest.raises(BadConfig, match=f"n_input={n_input}; action order needs "
                                        f"at least {AO_MIN_FRAMES} frames"):
        tiny_spec(axis, **kw)


@pytest.mark.parametrize("axis, kw", [
    (GridAxis.FIXED_FRAMES, dict(n_input=8, k_values=(2,))),
    (GridAxis.FIXED_BUDGET, dict(n_over_k=8, k_values=(1,))),
])
def test_a_grid_that_trains_no_step_is_rejected(axis, kw):
    # its rows would score untrained models, and report would render them as results
    untrained = TrainConfig(total_steps=0, warmup_steps=0, batch=4)
    with pytest.raises(BadConfig, match="train.total_steps must be at least 1, got 0"):
        tiny_spec(axis, train=untrained, **kw)


@pytest.mark.parametrize("axis, kw, named", [
    (GridAxis.FIXED_FRAMES, dict(n_input=8, k_values=(2, 2),
                                 methods=(FusionMethod.POST_POOL_PLLAVA,)), "k_values: 2"),
    (GridAxis.FIXED_BUDGET, dict(n_over_k=8, k_values=(1, 1)), "k_values: 1"),
    (GridAxis.FIXED_FRAMES, dict(n_input=8, k_values=(2,),
                                 methods=(FusionMethod.POST_POOL_PLLAVA,
                                          FusionMethod.POST_QFORMER,
                                          FusionMethod.POST_POOL_PLLAVA)),
     "methods: 'pllava-pool'"),
])
def test_a_repeated_method_or_k_is_rejected(axis, kw, named):
    # a repeat would train the same cells again and write twin rows
    with pytest.raises(BadConfig, match=f"{named} is listed twice"):
        tiny_spec(axis, **kw)


def test_fixed_frames_cell_order():
    spec = tiny_spec(GridAxis.FIXED_FRAMES, n_input=8, k_values=(1, 2, 4),
                     methods=(FusionMethod.POST_POOL_PLLAVA,
                              FusionMethod.THROUGH_ENCODER))
    cells = _cells(spec)
    assert cells == [
        (FusionMethod.BASELINE, 1, 8),
        (FusionMethod.POST_POOL_PLLAVA, 2, 8),
        (FusionMethod.POST_POOL_PLLAVA, 4, 8),
        (FusionMethod.THROUGH_ENCODER, 2, 8),
        (FusionMethod.THROUGH_ENCODER, 4, 8),
    ]


def test_full_method_sweep_size():
    spec = tiny_spec(GridAxis.FIXED_FRAMES, n_input=16, k_values=(2, 4, 8, 16))
    assert len(_cells(spec)) == len(COMPRESSION_METHODS) * 4


def test_cell_seeds_distinct():
    seeds = {derive_seed(0, m.value, k)
             for m in COMPRESSION_METHODS for k in (2, 4, 8, 16)}
    assert len(seeds) == 20


def fake_result(method="baseline", k=1, loss=1.25):
    cats = {c: 0.5 for c in ("MR", "LM", "CM", "MO", "AO", "RC")}
    return RunResult(method=method, k=k, n_input=8, l_decoder=16,
                     per_category=cats, accuracy=0.5, final_loss=loss,
                     flops_per_clip=1234, steps=2)


def test_csv_columns_and_formatting():
    text = results_to_csv([fake_result()])
    lines = text.split("\n")
    assert lines[0] == ("method,k,n_input,l_decoder,acc_mr,acc_lm,acc_cm,"
                        "acc_mo,acc_ao,acc_rc,avg_acc,final_loss")
    assert lines[1] == ("baseline,1,8,16,0.500000,0.500000,0.500000,0.500000,"
                        "0.500000,0.500000,0.500000,1.250000")
    assert text.endswith("\n")


def test_csv_excludes_wall_clock():
    assert "3.7" not in results_to_csv([fake_result()])
    assert "wall" not in results_to_csv([fake_result()])


def test_csv_optional_flops_column():
    text = results_to_csv([fake_result()], include_flops=True)
    lines = text.split("\n")
    assert lines[0].endswith(",flops_per_clip")
    assert lines[1].endswith(",1234")


@pytest.mark.slow
def test_run_cell_smoke():
    spec = tiny_spec(GridAxis.FIXED_FRAMES, n_input=8)
    r = run_cell(spec, FusionMethod.POST_POOL_PLLAVA, 2, 8, {})
    assert r.method == "pllava-pool"
    assert r.k == 2 and r.n_input == 8
    assert r.l_decoder == 4  # 8 frames * 1 token/frame / k=2
    assert r.steps == 2
    assert 0.0 <= r.accuracy <= 1.0
    assert set(r.per_category) == {"MR", "LM", "CM", "MO", "AO", "RC"}
    assert r.flops_per_clip > 0


@pytest.mark.slow
def test_run_grid_deterministic():
    spec = tiny_spec(GridAxis.FIXED_FRAMES, n_input=8, k_values=(1, 2),
                     methods=(FusionMethod.POST_POOL_PLLAVA,))
    first = results_to_csv(run_grid(spec))
    second = results_to_csv(run_grid(spec))
    assert first == second
    rows = first.strip().split("\n")[1:]
    assert len(rows) == 2
    assert rows[0].startswith("baseline,1,8,")
    assert rows[1].startswith("pllava-pool,2,8,")
