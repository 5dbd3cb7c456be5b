import csv
import json
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
from framefuse.frontend import FusionMethod, VideoClip, save_clip
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
                                        "out_hidden"))):
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
    for fps in ("nan", "inf"):
        cases.append(("fps", ("gen-data", "--per-category", "1", "--seed", "5", "--frames", "8",
                              "--fps", fps, "--out", str(tmp_path / "gen"))))
    for key, argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert_one_error_line(err, key)
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "gen").exists()


def test_broken_dataset_meta_is_validation_error(capsys, tmp_path):
    data = tmp_path / "ds"
    run(capsys, "gen-data", "--per-category", "1", "--seed", "5",
        "--out", str(data), "--frames", "8")
    meta = json.loads((data / "meta.json").read_text())
    for broken, fragment in (({"frames": 8}, "height"), ({**meta, "fps": "8"}, "fps")):
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
    save_clip(VideoClip(pixels=Tensor(nan_pixels)), data / "clips" / "nan.clp")
    save_clip(VideoClip(pixels=Tensor(np.zeros((6, 3, 28, 28)))), data / "clips" / "short.clp")
    # a valid clip outside the dataset directory
    shutil.copy(data / rows[0]["clip"], tmp_path / "x.clp")
    for key, value, fragment in (("clip", "clips/missing.clp", "missing.clp"),
                                 ("category", "XX", "XX"), ("seed", "abc", "abc"),
                                 ("opt0", "mr:bogus", "mr:bogus"), ("answer_idx", "7", "7"),
                                 ("clip", "clips/nan.clp", "non-finite"),
                                 ("clip", "clips/short.clp", "(6, 3, 28, 28)"),
                                 ("clip", "../x.clp", "outside")):
        with open(records, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
            writer.writeheader()
            writer.writerows(rows[:2] + [{**rows[2], key: value}] + rows[3:])
        code, out, err = run(capsys, "stats", "--data", str(data))
        assert code == 1
        assert out == ""
        assert_one_error_line(err, "records.csv", "row 3", fragment)


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
    """An untrained 8-frame baseline checkpoint and a 6-clip dataset it can score."""
    root = tmp_path_factory.mktemp("eval-inputs")
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


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(("m.tfz", "m.tfz.json", "ds/clips/00000.clp", "ds/meta.json",
                        "ds/records.csv")),
       st.lists(BYTE_MUTATIONS, min_size=1, max_size=2))
def test_eval_binary_inputs_keep_exit_contract(capsys, eval_inputs, target, mutations):
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
        code, out, err = run(capsys, "eval", "--ckpt", str(work / "m.tfz"),
                             "--data", str(work / "ds"))
    assert code in (0, 1)
    if code == 1:
        assert out == ""
        assert_one_error_line(err)
    else:
        assert err == ""
