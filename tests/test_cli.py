import csv
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from framefuse import cli
from framefuse.autodiff import Tensor
from framefuse.checkpoint import load_checkpoint, load_checkpoint_meta, save_checkpoint
from framefuse.frontend import ClipPixels, FusionMethod, VideoClip, save_clip
from framefuse.gradcheck import FiniteDiffReport
from framefuse.grid import ExperimentSpec
from framefuse.pipeline import ModelConfig, build_model, config_to_dict
from framefuse.synthclips import GenConfig, gen_dataset, save_dataset
from framefuse.training import TrainConfig

FIXTURE = Path(__file__).parent / "data" / "ablation_16frame.csv"
EXPERIMENTS = sorted((Path(__file__).parents[1] / "experiments").glob("*.json"))

TINY_TRAIN = {"total_steps": 2, "warmup_steps": 1, "batch": 4, "seed": 0}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_budget_prints_row(capsys):
    code, out, _ = run(capsys, "budget", "--n-input", "16", "--l", "64", "--k", "4")
    assert code == 0
    assert out == "n_input,l,k,l_decoder\n16,64,4,256\n"


def test_budget_non_integral_is_validation_error(capsys):
    code, out, err = run(capsys, "budget", "--n-input", "16", "--l", "64", "--k", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("budget", "--n-input", "x", "--l", "1", "--k", "1"),
    ("gradcheck", "--module", "x"),
    (),
    ("bogus",),
])
def test_usage_errors_are_validation_errors(capsys, argv):
    """argparse's own exit code is 2, which the CLI keeps for numerical failures."""
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert err.count("error:") == 1 and err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: framefuse")


def test_gradcheck_ops_prints_pass_lines(capsys):
    code, out, _ = run(capsys, "gradcheck", "--module", "ops")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 16
    for line in lines:
        assert line.startswith("PASS ")
        assert "max rel err" in line and "(tol 1e-06)" in line


def test_gradcheck_failure_exits_2(capsys, monkeypatch):
    bad = FiniteDiffReport(max_rel_err=0.5, passed=False, tol=1e-6)
    monkeypatch.setattr(cli, "run_gradient_suite", lambda groups: [("broken", bad)])
    code, out, err = run(capsys, "gradcheck")
    assert code == 2
    assert out.startswith("FAIL broken:")
    assert err.startswith("numerical failure:")
    assert "broken" in err


def test_gen_data_writes_dataset_layout(capsys, tmp_path):
    out = tmp_path / "ds"
    code, text, _ = run(capsys, "gen-data", "--per-category", "2", "--seed", "5",
                        "--out", str(out), "--frames", "8")
    assert code == 0
    assert "wrote 12 samples" in text
    assert (out / "records.csv").exists()
    assert (out / "stats.csv").exists()
    assert (out / "meta.json").exists()
    clips = sorted((out / "clips").iterdir())
    assert len(clips) == 12
    assert clips[0].name == "00000.clp"


def test_stats_reports_density(capsys, tmp_path):
    out = tmp_path / "ds"
    run(capsys, "gen-data", "--per-category", "2", "--seed", "5",
        "--out", str(out), "--frames", "8")
    code, text, _ = run(capsys, "stats", "--data", str(out))
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "field,value"
    assert lines[1] == "samples,12"
    assert any(line.startswith("annotation_density,") for line in lines)
    assert lines[-1] == "unit,words"


def test_train_then_eval_round_trip(capsys, tmp_path):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(TINY_TRAIN))
    ckpt = tmp_path / "model.tfz"
    code, out, _ = run(capsys, "train", "--method", "baseline", "--k", "1",
                       "--n-input", "8", "--per-category", "2",
                       "--config", str(cfg_path), "--out", str(ckpt))
    assert code == 0
    assert "step 0 loss" in out
    assert f"saved {ckpt}" in out
    assert ckpt.exists()
    meta = load_checkpoint_meta(ckpt)
    assert meta["steps"] == 2
    assert meta["model"]["method"] == "baseline"

    data = tmp_path / "ds"
    run(capsys, "gen-data", "--per-category", "2", "--seed", "9",
        "--out", str(data), "--frames", "8")
    code, out, _ = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(data))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "category,accuracy,n"
    assert lines[-1].startswith("avg,")
    assert lines[-1].endswith(",12")


def test_zero_step_train_writes_a_strict_json_sidecar(capsys, tmp_path):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({"total_steps": 0}))
    ckpt = tmp_path / "model.tfz"
    code, _, _ = run(capsys, "train", "--method", "baseline", "--k", "1", "--n-input", "8",
                     "--per-category", "1", "--config", str(cfg_path), "--out", str(ckpt))
    assert code == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    meta = json.loads(Path(f"{ckpt}.json").read_text(), parse_constant=reject)
    assert (meta["steps"], meta["final_loss"]) == (0, None)
    data = tmp_path / "ds"
    run(capsys, "gen-data", "--per-category", "1", "--seed", "9",
        "--out", str(data), "--frames", "8")
    code, out, _ = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(data))
    assert code == 0
    assert out.strip().split("\n")[-1].startswith("avg,")


def test_eval_frame_mismatch_is_validation_error(capsys, tmp_path):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(TINY_TRAIN))
    ckpt = tmp_path / "model.tfz"
    run(capsys, "train", "--method", "baseline", "--k", "1", "--n-input", "8",
        "--per-category", "2", "--config", str(cfg_path), "--out", str(ckpt))
    data = tmp_path / "ds16"
    run(capsys, "gen-data", "--per-category", "2", "--seed", "9", "--out", str(data))
    code, _, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(data))
    assert code == 1
    assert "16 frames" in err


def test_train_unknown_config_key(capsys, tmp_path):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({"learning_rate": 1.0}))
    code, _, err = run(capsys, "train", "--method", "baseline", "--k", "1",
                       "--n-input", "8", "--config", str(cfg_path))
    assert code == 1
    assert "unknown train config keys" in err


def test_report_renders_markdown(capsys):
    code, out, _ = run(capsys, "report", "--in", str(FIXTURE))
    assert code == 0
    assert out.startswith("| method | k |")
    assert "**51.0**" in out


def test_report_writes_file(capsys, tmp_path):
    dest = tmp_path / "table.md"
    code, out, _ = run(capsys, "report", "--in", str(FIXTURE),
                       "--format", "md", "--out", str(dest))
    assert code == 0
    assert f"wrote {dest}" in out
    golden = Path(__file__).parent / "data" / "ablation_16frame_golden.md"
    assert dest.read_text() == golden.read_text()


def test_removed_spellings_are_usage_errors(capsys, tmp_path):
    for argv, fragment in ((("gen-data", "--per-category", "1", "--seed", "5", "--frames", "8",
                             "--fps", "8", "--out", str(tmp_path / "gen")), "--fps"),
                           (("report", "--in", str(FIXTURE), "--format", "markdown"), "markdown"),
                           (("grid", "--config", str(tmp_path / "missing.json"),
                             "--report", "markdown"), "markdown")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert_one_error_line(err, fragment)
    assert not (tmp_path / "gen").exists()


def test_stats_on_a_dataset_without_records_names_records_csv(capsys, tmp_path):
    data = tmp_path / "ds"
    run(capsys, "gen-data", "--per-category", "1", "--seed", "5", "--out", str(data),
        "--frames", "8")
    records = data / "records.csv"
    records.write_text(records.read_text().splitlines()[0] + "\n")
    code, out, err = run(capsys, "stats", "--data", str(data))
    assert (code, out) == (1, "")
    assert_one_error_line(err, f"{records} holds no records")


def test_report_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "report", "--in", str(tmp_path / "nope.csv"))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.slow
def test_grid_cli_writes_deterministic_csv(capsys, tmp_path):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps({
        "axis": "fixed-frames", "n_input": 8, "k_values": [2],
        "methods": ["pllava-pool", "through-encoder"],
        "train": TINY_TRAIN, "train_per_category": 2, "eval_per_category": 2}))
    args = ("grid", "--config", str(cfg_path))
    out_a = tmp_path / "a.csv"
    code, text, _ = run(capsys, *args, "--out", str(out_a))
    assert code == 0
    assert f"wrote 2 rows to {out_a}" in text
    out_b = tmp_path / "b.csv"
    code, _, _ = run(capsys, *args, "--out", str(out_b))
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    rows = out_a.read_text().strip().split("\n")
    assert rows[1].startswith("pllava-pool,2,8,4,")
    assert rows[2].startswith("through-encoder,2,8,4,")


def test_grid_unknown_config_key(capsys, tmp_path):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps({"axis": "fixed-frames", "n_input": 8,
                                    "optimizer": "sgd"}))
    code, _, err = run(capsys, "grid", "--config", str(cfg_path),
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "unknown experiment config keys" in err


@pytest.mark.parametrize("key", ("height", "width", "patch"))
def test_grid_config_cannot_set_the_canvas(capsys, tmp_path, monkeypatch, key):
    # every cell runs on the generators' fixed canvas at the default patch
    monkeypatch.setattr(cli, "run_grid", lambda spec: [])
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps({"axis": "fixed-frames", "n_input": 8, key: 28}))
    code, out, err = run(capsys, "grid", "--config", str(cfg_path),
                         "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert out == ""
    assert_one_error_line(err, "unknown experiment config keys", repr(key))


def test_grid_requires_axis(capsys, tmp_path):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps({"n_input": 8}))
    code, out, err = run(capsys, "grid", "--config", str(cfg_path),
                         "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert out == ""
    assert_one_error_line(err, '"axis"', "fixed-frames")


def assert_one_error_line(err, *fragments):
    assert err.startswith("error:")
    assert err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


def test_grid_unknown_method(capsys, tmp_path):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps({"axis": "fixed-frames", "n_input": 8,
                                    "methods": ["pllava-pool", "nope"]}))
    code, out, err = run(capsys, "grid", "--config", str(cfg_path),
                         "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert out == ""
    assert_one_error_line(err, "unknown method 'nope'")


@pytest.mark.parametrize("config", EXPERIMENTS, ids=lambda path: path.name)
def test_committed_experiment_configs_build_specs(capsys, tmp_path, monkeypatch, config):
    specs = []
    monkeypatch.setattr(cli, "run_grid", lambda spec: specs.append(spec) or [])
    code, _, err = run(capsys, "grid", "--config", str(config),
                       "--out", str(tmp_path / "x.csv"))
    assert (code, err) == (0, "")
    assert specs[0].axis.value == json.loads(config.read_text())["axis"]


def test_quick_configs_run_their_full_configs_grid():
    """A quick config is its full config with two-step training on tiny sets."""
    quick = [path for path in EXPERIMENTS if path.stem.endswith("_quick")]
    assert len(quick) == 2
    for path in quick:
        small = json.loads(path.read_text())
        full = json.loads(path.with_name(path.name.replace("_quick", "")).read_text())
        assert small["train"]["seed"] == full["train"]["seed"]
        for key in ("train", "train_per_category", "eval_per_category"):
            del small[key], full[key]
        assert small == full


@pytest.mark.parametrize("command", ("grid", "train", "report", "gen-data", "grid-dir",
                                     "train-sidecar"))
def test_bad_output_paths_are_validation_errors(capsys, tmp_path, monkeypatch, command):
    def trained(*args, **kwargs):
        raise AssertionError("trained before the output path was checked")

    monkeypatch.setattr(cli, "run_grid", trained)
    monkeypatch.setattr(cli, "train", trained)
    missing = tmp_path / "missing"
    existing_file = tmp_path / "file"
    existing_file.write_text("")
    (tmp_path / "m.tfz.json").mkdir()
    train = ("train", "--method", "baseline", "--k", "1", "--n-input", "8", "--per-category", "1")
    dest, argv = {
        "grid": (missing / "x.csv", ("grid", "--config", str(EXPERIMENTS[0]))),
        "grid-dir": (tmp_path, ("grid", "--config", str(EXPERIMENTS[0]))),
        "train": (missing / "m.tfz", train),
        "train-sidecar": (tmp_path / "m.tfz", train),
        "report": (missing / "x.md", ("report", "--in", str(FIXTURE))),
        "gen-data": (existing_file, ("gen-data", "--per-category", "1", "--seed", "5",
                                     "--frames", "8")),
    }[command]
    code, out, err = run(capsys, *argv, "--out", str(dest))
    assert code == 1
    assert out == ""
    assert_one_error_line(err, str(dest))
    assert not missing.exists()


@pytest.mark.parametrize("argv", (("gen-data", "--seed", "5", "--out", "unused"),
                                  ("train", "--method", "baseline", "--k", "1",
                                   "--n-input", "8")), ids=("gen-data", "train"))
@pytest.mark.parametrize("per_category", ("0", "-2"))
def test_per_category_below_one_is_validation_error(capsys, tmp_path, monkeypatch, argv,
                                                    per_category):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--per-category", per_category)
    assert code == 1
    assert out == ""
    assert_one_error_line(err, f"n_per_category must be at least 1, got {per_category}")
    assert list(tmp_path.iterdir()) == []


def test_eval_sidecar_unknown_method(capsys, tmp_path):
    ckpt = tmp_path / "model.tfz"
    (tmp_path / "model.tfz.json").write_text(json.dumps({"model": {"method": "nope"}}))
    code, out, err = run(capsys, "eval", "--ckpt", str(ckpt),
                         "--data", str(tmp_path / "ds"))
    assert code == 1
    assert out == ""
    assert_one_error_line(err, "unknown method 'nope'")


@pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
def test_eval_non_finite_checkpoint_is_validation_error(capsys, tmp_path, value):
    cfg_path, ckpt, data = tmp_path / "train.json", tmp_path / "m.tfz", tmp_path / "ds"
    cfg_path.write_text(json.dumps(TINY_TRAIN))
    run(capsys, "train", "--method", "baseline", "--k", "1", "--n-input", "8",
        "--per-category", "2", "--config", str(cfg_path), "--out", str(ckpt))
    run(capsys, "gen-data", "--per-category", "1", "--seed", "5", "--out", str(data),
        "--frames", "8")
    params = {name: Tensor(values) for name, values in load_checkpoint(ckpt).items()}
    params["dec.head_w"].data[0, 0] = value
    save_checkpoint(params, ckpt, load_checkpoint_meta(ckpt))
    code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(data))
    assert code == 1
    assert out == ""
    assert_one_error_line(err, "non-finite", "dec.head_w")


@pytest.mark.parametrize("case", ("repeated-tensor", "clip-trailing-bytes"))
def test_eval_extra_records_and_bytes_are_validation_errors(capsys, tmp_path, case):
    cfg_path, ckpt, data = tmp_path / "train.json", tmp_path / "m.tfz", tmp_path / "ds"
    cfg_path.write_text(json.dumps(TINY_TRAIN))
    run(capsys, "train", "--method", "baseline", "--k", "1", "--n-input", "8",
        "--per-category", "2", "--config", str(cfg_path), "--out", str(ckpt))
    run(capsys, "gen-data", "--per-category", "1", "--seed", "5", "--out", str(data),
        "--frames", "8")
    if case == "repeated-tensor":
        # the first record again: u32 name length, name, u32 rank, u64 extents, values
        name, values = next(iter(load_checkpoint(ckpt).items()))
        size = 4 + len(name) + 4 + 8 * values.ndim + 8 * values.size
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob + blob[4:4 + size])
        fragments = (name, "appears twice")
    else:
        clip = sorted((data / "clips").glob("*.clp"))[0]
        size = clip.stat().st_size
        clip.write_bytes(clip.read_bytes() + bytes(4))
        fragments = (clip.name, f"expected {size} bytes, found {size + 4}")
    code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(data))
    assert code == 1
    assert out == ""
    assert_one_error_line(err, *fragments)


def test_missing_input_paths_are_validation_errors(capsys, tmp_path):
    missing_ckpt = str(tmp_path / "missing.tfz")
    missing_data = str(tmp_path / "missing")
    # a sidecar whose binary checkpoint is missing
    sidecar_only = tmp_path / "missing_blob.tfz"
    model = config_to_dict(ModelConfig(method=FusionMethod.BASELINE))
    (tmp_path / "missing_blob.tfz.json").write_text(json.dumps({"model": model}))
    for argv in (("eval", "--ckpt", missing_ckpt, "--data", missing_data),
                 ("eval", "--ckpt", str(sidecar_only), "--data", missing_data),
                 ("stats", "--data", missing_data)):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert_one_error_line(err, "missing")


def test_mistyped_config_fields_are_validation_errors(capsys, tmp_path):
    model = config_to_dict(ModelConfig(method=FusionMethod.BASELINE))
    cases = []
    for i, (fields, key) in enumerate((({"k": "2"}, "k"), ({"patch": 0}, "patch"),
                                       ({"n_input": True}, "n_input"),
                                       ({"k": 2}, "baseline"),
                                       ({"enc_hidden": 10, "enc_heads": 4}, "enc_hidden"),
                                       ({"method": "qformer", "k": 2, "out_hidden": 6},
                                        "out_hidden"),
                                       # widths below 1
                                       ({"enc_hidden": -4}, "enc_hidden must be at least 1"),
                                       ({"enc_ffn": -3}, "enc_ffn must be at least 1"),
                                       ({"enc_ffn": 0}, "enc_ffn must be at least 1"),
                                       ({"out_hidden": -8}, "out_hidden must be at least 1"),
                                       ({"dec_hidden": -8}, "dec_hidden must be at least 1"),
                                       ({"dec_ffn": -2}, "dec_ffn must be at least 1"),
                                       # layer counts below 1
                                       ({"enc_layers": -2}, "enc_layers must be at least 1"),
                                       ({"dec_layers": 0}, "dec_layers must be at least 1"),
                                       ({"qformer_layers": -3},
                                        "qformer_layers must be at least 1"),
                                       # fields that no longer exist
                                       ({"max_seq": 512}, "max_seq"),
                                       ({"norm_eps": 1e-6}, "norm_eps"),
                                       ({"channels": 3}, "channels"))):
        (tmp_path / f"m{i}.tfz.json").write_text(json.dumps({"model": {**model, **fields}}))
        cases.append((key, ("eval", "--ckpt", str(tmp_path / f"m{i}.tfz"),
                            "--data", str(tmp_path / "ds"))))
    for i, (key, value) in enumerate((("total_steps", "5"), ("lr", False),
                                      ("lr", float("nan")))):
        cfg_path = tmp_path / f"train{i}.json"
        cfg_path.write_text(json.dumps({**TINY_TRAIN, key: value}))
        cases.append((key, ("train", "--method", "baseline", "--k", "1", "--n-input", "8",
                            "--config", str(cfg_path), "--out", str(tmp_path / "x.tfz"))))
    for i, (key, value) in enumerate((("train_per_category", "2"), ("eval_per_category", 0),
                                      ("n_input", "8"), ("k_values", ["2"]), ("k_values", 2),
                                      ("train", 5), ("axis", "bogus"), ("axis", 3),
                                      ("methods", "qformer"), ("methods", []),
                                      ("k_values", []))):
        cfg_path = tmp_path / f"grid{i}.json"
        cfg_path.write_text(json.dumps({"axis": "fixed-frames", "n_input": 8, key: value}))
        cases.append((key, ("grid", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))))
    for key, argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert_one_error_line(err, key)
    assert not (tmp_path / "x.csv").exists()


def test_train_negative_min_lr_is_validation_error(capsys, tmp_path):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({**TINY_TRAIN, "lr": -1.0, "min_lr": -2.0}))
    code, out, err = run(capsys, "train", "--method", "baseline", "--k", "1", "--n-input", "8",
                         "--per-category", "1", "--config", str(cfg_path),
                         "--out", str(tmp_path / "m.tfz"))
    assert (code, out) == (1, "")
    assert_one_error_line(err, "min_lr must be non-negative, got -2.0")
    assert not (tmp_path / "m.tfz").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_overflow_is_one_numerical_failure_line(capsys, tmp_path):
    # step 0 runs at lr 0 in warmup; step 1's update at lr 1e300 makes step 2
    # overflow
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({**TINY_TRAIN, "total_steps": 4, "lr": 1e300,
                                    "min_lr": 1e300}))
    code, out, err = run(capsys, "train", "--method", "baseline", "--k", "1", "--n-input", "8",
                         "--per-category", "2", "--config", str(cfg_path),
                         "--out", str(tmp_path / "m.tfz"))
    assert (code, out) == (2, "")
    assert err == "numerical failure: step 2: overflow encountered in multiply\n"


def test_broken_dataset_meta_is_validation_error(capsys, tmp_path):
    data = tmp_path / "ds"
    run(capsys, "gen-data", "--per-category", "1", "--seed", "5",
        "--out", str(data), "--frames", "8")
    meta = json.loads((data / "meta.json").read_text())
    for broken, fragment in (({"fps": 8.0}, "frames"), ({"frames": "8"}, "frames"),
                             ({"frames": 2}, "2 frames")):
        (data / "meta.json").write_text(json.dumps(broken))
        code, out, err = run(capsys, "stats", "--data", str(data))
        assert code == 1
        assert out == ""
        assert_one_error_line(err, fragment)
    (data / "meta.json").write_text(json.dumps(meta))
    records = data / "records.csv"
    with open(records, newline="") as fh:
        rows = list(csv.DictReader(fh))
    nan_pixels = np.zeros((8, 3, 28, 28))
    nan_pixels[3, 1, 5, 5] = np.nan
    save_clip(VideoClip(pixels=ClipPixels(nan_pixels)), data / "clips" / "nan.clp")
    save_clip(VideoClip(pixels=ClipPixels(np.zeros((6, 3, 28, 28)))), data / "clips" / "short.clp")
    # a valid clip outside the dataset directory
    shutil.copy(data / rows[0]["clip"], tmp_path / "x.clp")
    for key, value, fragment in (("clip", "clips/missing.clp", "missing.clp"),
                                 ("category", "XX", "XX"), ("seed", "abc", "abc"),
                                 ("opt0", "mr:bogus", "mr:bogus"), ("answer_idx", "7", "7"),
                                 ("clip", "clips/nan.clp", "non-finite"),
                                 ("clip", "clips/short.clp",
                                  "(6, 3, 28, 28), expected (8, 3, 28, 28)"),
                                 ("clip", "../x.clp", "outside")):
        with open(records, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
            writer.writeheader()
            writer.writerows(rows[:2] + [{**rows[2], key: value}] + rows[3:])
        code, out, err = run(capsys, "stats", "--data", str(data))
        assert code == 1
        assert out == ""
        assert_one_error_line(err, "records.csv", "row 3", fragment)


@pytest.mark.parametrize("case", ("records.csv", "report", "report-cr"))
def test_unparsable_csv_is_validation_error(capsys, tmp_path, case):
    # csv rejects a field longer than 131,072 characters, and a carriage return
    # inside an unquoted field of text not split on it
    long_field = "x" * 140_000
    if case == "records.csv":
        data = tmp_path / "ds"
        run(capsys, "gen-data", "--per-category", "1", "--seed", "5",
            "--out", str(data), "--frames", "8")
        records = data / "records.csv"
        with open(records, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[1]["opt0"] = long_field
        with open(records, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
            writer.writeheader()
            writer.writerows(rows)
        bad, argv = records, ("stats", "--data", str(data))
    else:
        bad = tmp_path / "t.csv"
        bad.write_bytes(b"x,y\n1,2\n3," + (b"4\r5" if case == "report-cr" else long_field.encode())
                        + b"\n")
        argv = ("report", "--in", str(bad))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert_one_error_line(err, str(bad), "line 3",
                          "new-line character" if case == "report-cr" else "field limit")


def test_train_checks_model_config_before_building_data(capsys, tmp_path, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("built the dataset before the model config was checked")

    monkeypatch.setattr(cli, "gen_dataset", built)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "train", "--method", "pllava-pool", "--k", "3",
                         "--n-input", "8")
    assert code == 1
    assert out == ""
    assert_one_error_line(err, "not divisible by k=3")


@pytest.mark.parametrize("case", ("records.csv", "meta.json", "sidecar", "config", "report",
                                  "checkpoint"))
def test_non_utf8_input_is_validation_error(capsys, tmp_path, case):
    data = tmp_path / "ds"
    if case in ("records.csv", "meta.json"):
        run(capsys, "gen-data", "--per-category", "1", "--seed", "5",
            "--out", str(data), "--frames", "8")
    ckpt, cfg_path, table = tmp_path / "m.tfz", tmp_path / "train.json", tmp_path / "t.csv"
    if case == "checkpoint":
        cfg_path.write_text(json.dumps(TINY_TRAIN))
        run(capsys, "train", "--method", "baseline", "--k", "1", "--n-input", "8",
            "--per-category", "2", "--config", str(cfg_path), "--out", str(ckpt))
    bad, argv = {
        "checkpoint": (ckpt, ("eval", "--ckpt", str(ckpt), "--data", str(data))),
        "records.csv": (data / "records.csv", ("stats", "--data", str(data))),
        "meta.json": (data / "meta.json", ("stats", "--data", str(data))),
        "sidecar": (tmp_path / "m.tfz.json", ("eval", "--ckpt", str(ckpt), "--data", str(data))),
        "config": (cfg_path, ("train", "--method", "baseline", "--k", "1", "--n-input", "8",
                              "--config", str(cfg_path), "--out", str(ckpt))),
        "report": (table, ("report", "--in", str(table))),
    }[case]
    if case == "records.csv":
        bad.write_bytes(bad.read_bytes() + b"\xff\xfe")
    elif case == "report":
        bad.write_bytes(b"x,y\n1,\xff\n")
    elif case == "checkpoint":  # the first byte of the first parameter name
        blob = bytearray(bad.read_bytes())
        blob[8] = 0xFF
        bad.write_bytes(bytes(blob))
    else:
        bad.write_bytes(b'{"frames": 8\xff}')
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert_one_error_line(err, bad.name, "utf-8")


def test_malformed_config_inputs_are_validation_errors(capsys, tmp_path):
    (tmp_path / "five.json").write_text("5")
    (tmp_path / "m.tfz.json").write_text(json.dumps({"model": 5}))
    out = ("--out", str(tmp_path / "x.out"))
    for fragment, argv in (
            ("must be a JSON object", ("grid", "--config", str(tmp_path / "five.json"), *out)),
            ("must be a JSON object", ("train", "--method", "baseline", "--k", "1",
                                       "--n-input", "8", "--config",
                                       str(tmp_path / "five.json"), *out)),
            ("model config", ("eval", "--ckpt", str(tmp_path / "m.tfz"),
                              "--data", str(tmp_path / "ds")))):
        code, stdout, err = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert_one_error_line(err, fragment)


SCALARS = (st.none() | st.booleans() | st.integers(-2, 20) | st.floats() | st.text(max_size=6)
           | st.sampled_from(["fixed-frames", "fixed-budget", "qformer", "baseline"]))


def json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)


JSON_VALUES = st.recursive(SCALARS, json_containers, max_leaves=6)


def one_field(fields, base=None):
    """JSON objects that hold `base` with one of `fields` set to any JSON value."""
    return st.builds(lambda key, value: {**(base or {}), key: value},
                     st.sampled_from(sorted(fields)), JSON_VALUES)


def assert_exit_contract(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code in (0, 1)
    if code == 1:
        assert_one_error_line(err)


FUZZ = settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(JSON_VALUES | one_field(ExperimentSpec.__dataclass_fields__,
                               {"axis": "fixed-frames", "n_input": 8}))
@example({"axis": "fixed-frames", "n_input": 8, "k_values": 2})
def test_grid_config_json_keeps_exit_contract(capsys, tmp_path, monkeypatch, config):
    monkeypatch.setattr(cli, "run_grid", lambda spec: [])
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(config))
    assert_exit_contract(capsys, ("grid", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "x.csv")))


@FUZZ
@given(JSON_VALUES | one_field(TrainConfig.__dataclass_fields__, TINY_TRAIN))
@example(5)
def test_train_config_json_keeps_exit_contract(capsys, tmp_path, config):
    # the data directory is missing, so a valid config also stops before training
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(config))
    assert_exit_contract(capsys, ("train", "--method", "baseline", "--k", "1",
                                  "--n-input", "8", "--config", str(cfg_path),
                                  "--data", str(tmp_path / "missing"),
                                  "--out", str(tmp_path / "x.tfz")))


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """An untrained 8-frame baseline checkpoint, a 6-clip dataset it can score and
    a one-step train config."""
    root = tmp_path_factory.mktemp("eval-inputs")
    (root / "one_step.json").write_text(json.dumps({**TINY_TRAIN, "total_steps": 1,
                                                    "warmup_steps": 0}))
    gcfg = GenConfig(frames=8)
    samples, stats = gen_dataset(1, 5, gcfg)
    save_dataset(samples, root / "ds", gcfg, stats)
    cfg = ModelConfig(method=FusionMethod.BASELINE)
    save_checkpoint(build_model(cfg, 0).params, root / "m.tfz", {"model": config_to_dict(cfg)})
    return root


# (kind, byte position modulo the file length, xor mask); positions below 64
# cover the clip header and the first checkpoint record's header
BYTE_MUTATIONS = st.tuples(st.sampled_from(("flip", "truncate")),
                           st.integers(0, 63) | st.integers(0, 1 << 20), st.integers(1, 255))


# pytest records warnings instead of printing them, so `err == ""` cannot see a
# numpy warning the CLI would print; the filter makes one fail the test instead
@pytest.mark.slow
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(("eval", "stats", "train")),
       st.sampled_from(("m.tfz", "m.tfz.json", "ds/clips/00000.clp", "ds/meta.json",
                        "ds/records.csv")),
       st.lists(BYTE_MUTATIONS, min_size=1, max_size=2))
def test_eval_binary_inputs_keep_exit_contract(capsys, eval_inputs, command, target, mutations):
    """`eval`, `stats --data` and `train --data` (one step) on mutated input bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "inputs"
        shutil.copytree(eval_inputs, work)
        blob = bytearray((work / target).read_bytes())
        for kind, at, mask in mutations:
            if not blob:
                break
            if kind == "flip":
                blob[at % len(blob)] ^= mask
            else:
                del blob[at % len(blob):]
        (work / target).write_bytes(bytes(blob))
        data = ("--data", str(work / "ds"))
        code, out, err = run(capsys, *{
            "eval": ("eval", "--ckpt", str(work / "m.tfz"), *data),
            "stats": ("stats", *data),
            "train": ("train", "--method", "baseline", "--k", "1", "--n-input", "8", *data,
                      "--config", str(eval_inputs / "one_step.json"),
                      "--out", str(Path(tmp) / "out.tfz")),
        }[command])
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert_one_failure_line(code, err)


def assert_one_failure_line(code, err):
    if code == 1:
        assert_one_error_line(err)
    else:
        assert err.startswith("numerical failure:")
        assert err.count("\n") == 1


# argv tokens: "{in}" stands for the read-only `eval_inputs` directory and "{work}"
# for a fresh one per example. ARG_TEXT is any short text but NUL, which no real
# argv holds.
ARG_TEXT = st.text(st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
                   max_size=6)


def or_text(values):
    """A token from `values`, or one time in eight any short text."""
    return st.integers(0, 7).flatmap(lambda i: values if i else ARG_TEXT)


def int_arg(lo, hi):
    return or_text(st.integers(lo, hi).map(str))


def path_arg(*choices):
    """One of `choices`, the first (a usable one) as often as all others together."""
    return st.sampled_from(choices[:1] * (len(choices) - 1) + choices[1:])


def opt(flag, values=None):
    """[flag, token from `values`], or [flag] alone for a bare flag."""
    return st.just([flag]) if values is None else values.map(lambda value: [flag, value])


DATA = opt("--data", path_arg("{in}/ds", "{in}/m.tfz", "{in}/ds/records.csv", "{work}/missing"))
OUT = opt("--out", path_arg("{work}/out", "{work}/file", "{work}", "{work}/missing/out"))
FORMATS = or_text(st.sampled_from(("md", "csv")))
PER_CATEGORY = opt("--per-category", int_arg(0, 2))
FRAMES = int_arg(0, 32)
K = or_text(st.sampled_from(("1", "2", "4")) | st.integers(-1, 33).map(str))
METHODS = or_text(st.sampled_from([m.value for m in FusionMethod]))
# a model config `train` accepts, as often as a free draw of the three flags
MODEL = st.sampled_from([("baseline", "1", "8"), ("pllava-pool", "2", "8"),
                         ("through-encoder", "4", "16")]) | st.tuples(METHODS, K, FRAMES)


@st.composite
def command_argv(draw, command, required, optional=(), always=()):
    """`command` and the tokens of its `always` options, of its `required` ones
    (each missing one time in ten) and of any of its `optional` ones."""
    argv = [command]
    for tokens in always + tuple(r for r in required if draw(st.integers(0, 9))):
        argv += draw(tokens)
    for tokens in optional:
        if draw(st.booleans()):
            argv += draw(tokens)
    return argv


# Every integer is small: at most 2 clips a category and 32 frames. `train` always
# gets a one-step --config (or a bad one) and --per-category, `gradcheck` always a
# --module, so no case runs the 2,000-step default, 50 clips a category or the
# composite gradient checks.
ARGV = st.one_of(
    command_argv("gen-data", (PER_CATEGORY, opt("--seed", int_arg(-2, 2 ** 64)), OUT),
                 (opt("--frames", FRAMES),)),
    command_argv("train", (MODEL.map(lambda m: ["--method", m[0], "--k", m[1], "--n-input", m[2]]),),
                 (DATA, OUT),
                 always=(opt("--config", path_arg("{in}/one_step.json", "{in}/ds/meta.json",
                                                  "{in}/m.tfz", "{work}/missing")),
                         PER_CATEGORY)),
    command_argv("eval", (opt("--ckpt", path_arg("{in}/m.tfz", "{in}/ds", "{work}/missing")),
                          DATA)),
    command_argv("grid", (opt("--config", path_arg("{work}/grid.json", "{in}/m.tfz",
                                                   "{work}/missing")),),
                 (OUT, opt("--flops"), opt("--report", FORMATS))),
    command_argv("budget", (opt("--n-input", FRAMES), opt("--l", int_arg(-1, 64)), opt("--k", K))),
    command_argv("gradcheck", (), always=(opt("--module", or_text(st.just("ops"))),)),
    command_argv("report", (opt("--in", path_arg(str(FIXTURE), "{in}/ds/records.csv",
                                                 "{in}/m.tfz", "{work}/missing")),),
                 (opt("--format", FORMATS), OUT)),
    command_argv("stats", (DATA,), (opt("--unit", or_text(st.sampled_from(("words", "chars")))),)),
    st.lists(ARG_TEXT, max_size=3))

# the grid.json that `grid --config` may read: a quick experiment config cut to
# one method and at most two k values, as is or with one key dropped or set to
# a small or mistyped value
CUT_K_VALUES = {"fixed-budget": [1, 2], "fixed-frames": [4]}
QUICK = [{**config, "methods": ["qformer"], "k_values": CUT_K_VALUES[config["axis"]]}
         for config in (json.loads(path.read_text()) for path in EXPERIMENTS
                        if path.stem.endswith("_quick"))]
GRID_CONFIGS = st.sampled_from(QUICK) | st.builds(
    lambda base, key, value: {k: v for k, v in {**base, key: value}.items() if v != "drop"},
    st.sampled_from(QUICK), st.sampled_from(sorted(ExperimentSpec.__dataclass_fields__)),
    st.sampled_from(("drop", -1, 0, 3, None, True, 1.5, "x", [], [1, 2], [2, 4],
                     ["pllava-pool"], ["qformer", "bogus"])))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ARGV, GRID_CONFIGS)
def test_argv_keeps_exit_contract(capsys, eval_inputs, tmp_path, monkeypatch, argv,
                                  grid_config):
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        (Path(tmp) / "file").write_text("")
        (Path(tmp) / "grid.json").write_text(json.dumps(grid_config))
        argv = [a.replace("{in}", str(eval_inputs)).replace("{work}", tmp) for a in argv]
        monkeypatch.chdir(tmp)  # where the default --out paths land
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help, or an abbreviation of it, exits 0
            code = exc.code
        finally:
            os.chdir(tmp_path)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert_one_failure_line(code, err)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_overflowing_checkpoint_is_numerical_failure(capsys, eval_inputs, tmp_path):
    # byte 62 is the top byte of a zero in the first record (comp.proj_b); xor
    # 0x70 makes it 2^769, finite but large enough to overflow rms_norm
    work = tmp_path / "inputs"
    shutil.copytree(eval_inputs, work)
    blob = bytearray((work / "m.tfz").read_bytes())
    blob[62] ^= 0x70
    (work / "m.tfz").write_bytes(bytes(blob))
    code, out, err = run(capsys, "eval", "--ckpt", str(work / "m.tfz"), "--data", str(work / "ds"))
    assert (code, out) == (2, "")
    assert_one_failure_line(code, err)
    assert "overflow" in err
