import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import scanfisher
from scanfisher.cli import main
from scanfisher.fisher import read_scores
from scanfisher.util import read_json, sha256_file


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run_cli(
        "synth", "--out", out, "--seed", 5, "--readers", 3, "--texts", 4,
        "--lines", 2, "--words-per-line", 8, "--min-fixations", 5, "--max-fixations", 8,
    )
    assert code == 0
    return out


def test_synth_emits_all_artifacts(synth_dir):
    for name in ("texts.json", "freq.tsv", "scanpaths.jsonl", "ground_truth.json"):
        assert (synth_dir / name).exists()
    truth = read_json(synth_dir / "ground_truth.json")
    assert set(truth["reader_params"]) == {"r00", "r01", "r02"}
    prov = truth["_provenance"]
    assert prov["tool"] == "scanfisher"
    assert prov["seed"] == 5
    # ground truth is hash-linked to the emitted data files
    assert prov["input_hashes"]["texts"] == sha256_file(synth_dir / "texts.json")
    assert prov["input_hashes"]["scanpaths"] == sha256_file(synth_dir / "scanpaths.jsonl")
    rows = (synth_dir / "scanpaths.jsonl").read_text().strip().splitlines()
    assert len(rows) == 3 * 4 * 2


def test_synth_seed_reproducible(tmp_path, synth_dir):
    again = tmp_path / "again"
    assert run_cli(
        "synth", "--out", again, "--seed", 5, "--readers", 3, "--texts", 4,
        "--lines", 2, "--words-per-line", 8, "--min-fixations", 5, "--max-fixations", 8,
    ) == 0
    for name in ("texts.json", "freq.tsv", "scanpaths.jsonl", "ground_truth.json"):
        assert (again / name).read_bytes() == (synth_dir / name).read_bytes()


@pytest.fixture(scope="module")
def fitted_model(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit") / "model.json"
    code = run_cli(
        "fit",
        "--texts", synth_dir / "texts.json",
        "--freq", synth_dir / "freq.tsv",
        "--scanpaths", synth_dir / "scanpaths.jsonl",
        "--out", out,
        "--reg-lambda", 0.01,
    )
    assert code == 0
    return out


def test_fit_emits_valid_model_and_log(fitted_model):
    payload = read_json(fitted_model)
    pi = np.array(payload["pi"])
    assert pi.shape == (5,)
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(pi >= 0)
    assert payload["M"] == len(payload["feature_layout"])
    assert "norm_stats" in payload
    log = read_json(str(fitted_model) + ".log.json")
    assert len(log["groups"]) == 10
    for group in log["groups"]:
        assert group["final_objective"] <= group["initial_objective"] + 1e-9
        assert isinstance(group["converged"], bool)
        assert group["solver"] in ("newton", "lbfgs", "none")


@pytest.mark.parametrize("level,shown", [("debug", True), ("warning", True), ("error", False)])
def test_log_level_flag_filters_fit_warnings(synth_dir, tmp_path, capsys, monkeypatch, level, shown):
    # a step cap of 1 stops every Newton group, so each one logs its L-BFGS-B refit
    monkeypatch.setattr("scanfisher.fit._MAX_ITER", 1)
    code = run_cli(
        "--log-level", level, "fit",
        "--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
        "--scanpaths", synth_dir / "scanpaths.jsonl", "--out", tmp_path / "m.json",
    )
    assert code == 0
    err = capsys.readouterr().err
    assert ("WARNING scanfisher.fit: Newton stopped on " in err) == shown
    assert "scanfisher" not in err or shown
    assert not logging.getLogger("scanfisher").handlers


def test_fit_lambda_changes_weights(synth_dir, tmp_path):
    out0 = tmp_path / "m0.json"
    out1 = tmp_path / "m1.json"
    for out, lam in ((out0, "0"), (out1, "0.01")):
        assert run_cli(
            "fit", "--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
            "--scanpaths", synth_dir / "scanpaths.jsonl", "--out", out, "--lambda", lam,
        ) == 0
    a = read_json(out0)
    b = read_json(out1)
    assert a["alpha"] != b["alpha"]


def test_fit_rerun_byte_identical(synth_dir, tmp_path, fitted_model):
    out = tmp_path / "model2.json"
    assert run_cli(
        "fit", "--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
        "--scanpaths", synth_dir / "scanpaths.jsonl", "--out", out, "--reg-lambda", 0.01,
    ) == 0
    assert out.read_bytes() == Path(fitted_model).read_bytes()


@pytest.fixture(scope="module")
def scores_file(synth_dir, fitted_model, tmp_path_factory):
    out = tmp_path_factory.mktemp("score") / "scores.txt"
    code = run_cli(
        "score", "--model", fitted_model,
        "--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
        "--scanpaths", synth_dir / "scanpaths.jsonl", "--out", out,
    )
    assert code == 0
    return out


def test_score_matrix_shape(scores_file, fitted_model):
    scores = read_scores(scores_file)
    payload = read_json(fitted_model)
    d = 5 * (1 + 4 * payload["M"])
    assert scores.shape == (24, d)
    meta = read_json(str(scores_file) + ".meta.json")
    assert len(meta["instances"]) == 24
    assert {i["reader_id"] for i in meta["instances"]} == {"r00", "r01", "r02"}


def test_kernel_and_train_svm(scores_file, tmp_path):
    gram_path = tmp_path / "gram.csv"
    assert run_cli("kernel", "--scores", scores_file, "--out", gram_path) == 0
    lines = gram_path.read_text().strip().splitlines()
    assert lines[0].startswith("# provenance:")
    gram = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert gram.shape == (24, 24)
    np.testing.assert_allclose(gram, gram.T, atol=1e-12)
    metric = read_json(str(gram_path) + ".metric.json")
    assert metric["n_instances"] == 24

    svm_path = tmp_path / "svm.json"
    assert run_cli(
        "train-svm", "--scores", scores_file, "--meta", str(scores_file) + ".meta.json",
        "--out", svm_path, "--C", 1.0,
    ) == 0
    payload = read_json(svm_path)
    assert payload["classes"] == ["r00", "r01", "r02"]
    for model in payload["models"]:
        assert model["C"] == 1.0
        assert len(model["alphas"]) == len(model["support"])
    assert payload["references"]["scores"] == sha256_file(scores_file)


@pytest.mark.parametrize("scale", ["-1", "nan"])
def test_kernel_and_train_svm_reject_bad_ridge_scale(scores_file, tmp_path, capsys, scale):
    assert run_cli("kernel", "--scores", scores_file, "--out", tmp_path / "gram.csv",
                   f"--ridge-scale={scale}") == 3
    assert run_cli("train-svm", "--scores", scores_file, "--meta", str(scores_file) + ".meta.json",
                   "--out", tmp_path / "svm.json", f"--ridge-scale={scale}") == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ridge scale must be >= 0") for line in err)
    assert list(tmp_path.iterdir()) == []


def test_kernel_reports_an_overflowing_score_as_a_non_finite_information(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    scores.write_text("2 1\n1e200 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("kernel", "--scores", scores, "--out", tmp_path / "gram.csv") == 3
    assert capsys.readouterr().err == (
        "error: the Fisher information is not finite: a score is non-finite or too large\n")
    assert not (tmp_path / "gram.csv").exists()


@pytest.mark.parametrize("command, extra", [("kernel", []), ("train-svm", ["--meta", "m.json"])])
def test_zero_width_score_file_is_a_parse_error(tmp_path, capsys, command, extra):
    # a header "0 N" used to reach default_ridge and die there with a ZeroDivisionError
    scores = tmp_path / "scores.txt"
    scores.write_text("0 2\n\n\n")
    assert run_cli(command, "--scores", scores, "--out", tmp_path / "out", *extra) == 2
    assert capsys.readouterr().err == f"error: {scores}:1: a score has at least one component, the header gives D = 0\n"
    assert not (tmp_path / "out").exists()


def test_identify_pipeline(synth_dir, tmp_path, capsys):
    out = tmp_path / "report"
    code = run_cli(
        "identify",
        "--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
        "--scanpaths", synth_dir / "scanpaths.jsonl", "--out", out,
        "--lambda-grid", "0.01", "--c-grid", "1", "--ridge-grid", "1e-6",
        "--inner-folds", "1", "--no-elimination",
    )
    assert code == 0
    payload = read_json(out / "report.json")
    assert payload["mode"] == "identification"
    assert len(payload["folds"]) == 4
    assert (out / "report.csv").exists()
    assert "accuracy" in capsys.readouterr().out


def test_identify_without_inner_folds_writes_strict_json(synth_dir, tmp_path):
    out = tmp_path / "report"
    code = run_cli(
        "identify",
        "--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
        "--scanpaths", synth_dir / "scanpaths.jsonl", "--out", out,
        "--lambda-grid", "0.01", "--c-grid", "1", "--ridge-grid", "1e-6",
        "--inner-folds", "0", "--no-elimination", "--no-baseline",
    )
    assert code == 0

    def reject(token):
        raise ValueError(f"report.json holds the non-standard token {token}")

    payload = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert [fold["chosen"]["inner_accuracy"] for fold in payload["folds"]] == [None] * 4


def test_report_subcommand(synth_dir, tmp_path, capsys):
    out = tmp_path / "report"
    run_cli(
        "identify",
        "--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
        "--scanpaths", synth_dir / "scanpaths.jsonl", "--out", out,
        "--lambda-grid", "0.01", "--c-grid", "1", "--ridge-grid", "1e-6",
        "--inner-folds", "1", "--no-elimination", "--no-baseline",
    )
    capsys.readouterr()
    assert run_cli("report", "--report", out / "report.json") == 0
    assert "identification" in capsys.readouterr().out


def _relabeled(data_dir, tmp_path, label):
    """The synthetic scanpaths of `data_dir` with `label(row)` as their label, written under `tmp_path`."""
    rows = (data_dir / "scanpaths.jsonl").read_text().strip().splitlines()
    labeled = tmp_path / "labeled.jsonl"
    out_rows = []
    for row in rows:
        obj = json.loads(row)
        obj["label"] = label(obj)
        out_rows.append(json.dumps(obj, sort_keys=True))
    labeled.write_text("\n".join(out_rows) + "\n")
    return labeled


def test_comprehend_pipeline(synth_dir, tmp_path, capsys):
    # a binary class per (reader, text)
    labeled = _relabeled(synth_dir, tmp_path,
                         lambda row: (int(row["reader_id"][1:]) + int(row["text_id"][1:])) % 2)
    out = tmp_path / "report"
    code = run_cli(
        "comprehend",
        "--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
        "--scanpaths", labeled, "--out", out,
        "--lambda-grid", "0.01", "--c-grid", "1", "--ridge-grid", "1e-6",
        "--no-elimination",
    )
    assert code == 0
    payload = read_json(out / "report.json")
    assert payload["mode"] == "comprehension"
    assert len(payload["folds"]) == 4
    assert payload["majority_mean_accuracy"] is not None
    assert "auc" in capsys.readouterr().out


def test_comprehend_warns_when_a_split_cannot_be_tuned(tmp_path, capsys):
    # 4 readers with reader-parity labels: each split trains on two readers,
    # and its inner split on one reader, so on one label
    data = tmp_path / "data"
    assert run_cli("synth", "--out", data, "--seed", 7, "--readers", 4, "--texts", 4, "--lines", 2) == 0
    labeled = _relabeled(data, tmp_path, lambda row: int(row["reader_id"][1:]) % 2)
    out = tmp_path / "report"
    assert run_cli("comprehend", "--texts", data / "texts.json", "--freq", data / "freq.tsv",
                   "--scanpaths", labeled, "--out", out, "--c-grid", "0.1,1") == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("WARNING scanfisher.evaluate: ")] == [
        f"WARNING scanfisher.evaluate: split {split} is not tuned and takes the first grid values: "
        "the training lines of its inner split carry one label"
        for split in ("s0", "s1", "s2", "s3")
    ]
    folds = read_json(out / "report.json")["folds"]
    assert [(fold["chosen"]["C"], fold["chosen"]["inner_accuracy"]) for fold in folds] == [(0.1, None)] * 4


def test_scanpath_label_that_is_no_scalar_fails_loading(synth_dir, fitted_model, tmp_path, capsys):
    labeled = _relabeled(synth_dir, tmp_path, lambda row: [int(row["reader_id"][1:]) % 2])
    data = ["--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv", "--scanpaths", labeled]
    want = f"error: {labeled}:1: malformed scanpath record: label [0] is not a string, number or boolean\n"
    assert run_cli("comprehend", *data, "--out", tmp_path / "report") == 2
    assert capsys.readouterr().err == want
    # train-svm takes its labels from the score step's meta file
    assert run_cli("score", *data, "--model", fitted_model, "--out", tmp_path / "scores.txt") == 2
    assert capsys.readouterr().err == want
    assert not (tmp_path / "report").exists() and not (tmp_path / "scores.txt").exists()


def test_train_svm_rejects_unhashable_labels_in_meta(scores_file, tmp_path, capsys):
    meta = read_json(str(scores_file) + ".meta.json")
    for inst in meta["instances"]:
        inst["label"] = [inst["reader_id"]]
    meta_path = tmp_path / "meta.json"
    meta_path.write_text(json.dumps(meta))
    assert run_cli("train-svm", "--scores", scores_file, "--meta", meta_path, "--out", tmp_path / "svm.json") == 3
    assert capsys.readouterr().err == (
        "error: labels must be hashable and of types that compare, got types ['list']\n")


def test_train_svm_takes_labels_from_all_instances_or_none(scores_file, tmp_path, capsys):
    meta = read_json(str(scores_file) + ".meta.json")
    meta_path, svm_path = tmp_path / "meta.json", tmp_path / "svm.json"
    args = ["train-svm", "--scores", scores_file, "--meta", meta_path, "--out", svm_path]
    for i, inst in enumerate(meta["instances"]):
        inst["label"] = "slow" if i < 2 else None
    meta_path.write_text(json.dumps(meta))
    assert run_cli(*args) == 2
    assert capsys.readouterr().err == f"error: {meta_path}: 2 instances have a label and 22 have none\n"
    assert not svm_path.exists()
    # a file labelled throughout trains on its labels, one labelled nowhere on its readers
    for labels, classes in ((lambda inst: None, ["r00", "r01", "r02"]),
                            (lambda inst: "slow" if inst["reader_id"] == "r00" else "fast", ["fast", "slow"])):
        for inst in meta["instances"]:
            inst["label"] = labels(inst)
        meta_path.write_text(json.dumps(meta))
        assert run_cli(*args) == 0
        assert read_json(svm_path)["classes"] == classes


def _dropped(obj, *path):
    """`obj` without the entry at `path`, one key or index per level."""
    *parents, last = path
    inner = obj
    for key in parents:
        inner = inner[key]
    del inner[last]
    return obj


@pytest.mark.parametrize("command, path, problem", [
    ("report", None, "expected a JSON object, got list"),
    ("score", None, "expected a JSON object, got list"),
    ("train-svm", None, "expected a JSON object, got list"),
    ("report", ("mode",), "missing key 'mode'"),
    ("score", ("pi",), "missing key 'pi'"),
    ("score", ("norm_stats", "mean"), "missing key 'mean'"),
    ("train-svm", ("instances", 3, "label"), "missing key 'label'"),
], ids=["report-list", "score-list", "train-svm-list", "report-mode", "score-pi", "score-mean", "train-svm-label"])
def test_json_input_errors_name_the_file(synth_dir, fitted_model, scores_file, tmp_path, capsys, command, path,
                                         problem):
    report = {"mode": "identification", "mean_accuracy": 0.5, "stderr_accuracy": 0.1, "folds": []}
    read, args = {
        "report": (report, ["--report"]),
        "score": (read_json(fitted_model), ["--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
                                            "--scanpaths", synth_dir / "scanpaths.jsonl", "--out",
                                            tmp_path / "scores.txt", "--model"]),
        "train-svm": (read_json(str(scores_file) + ".meta.json"),
                      ["--scores", scores_file, "--out", tmp_path / "svm.json", "--meta"]),
    }[command]
    bad = tmp_path / "input.json"
    bad.write_text(json.dumps([1] if path is None else _dropped(read, *path)))
    assert run_cli(command, *args, bad) == 2
    assert capsys.readouterr().err == f"error: {bad}: {problem}\n"
    assert list(tmp_path.iterdir()) == [bad]


def test_labels_of_two_types_fail_by_name(synth_dir, fitted_model, tmp_path, capsys):
    labeled = _relabeled(synth_dir, tmp_path, lambda row: 1 if int(row["reader_id"][1:]) % 2 else "a")
    data = ["--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv", "--scanpaths", labeled]
    assert run_cli("comprehend", *data, "--out", tmp_path / "report") == 3
    assert capsys.readouterr().err == (
        "error: comprehension labels 'a' and 1 cannot be ordered: their types differ\n")
    scores = tmp_path / "scores.txt"
    assert run_cli("score", *data, "--model", fitted_model, "--out", scores) == 0
    assert run_cli("train-svm", "--scores", scores, "--meta", str(scores) + ".meta.json",
                   "--out", tmp_path / "svm.json") == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: labels must be hashable and of types that compare, got types ['int', 'str']")
    assert not (tmp_path / "svm.json").exists()


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run_cli(
        "fit", "--texts", bad, "--freq", bad, "--scanpaths", bad, "--out", tmp_path / "m.json",
    )
    assert code == 2


@pytest.mark.parametrize("command, required", [
    ("identify", ["--texts", "t.json", "--freq", "f.tsv", "--scanpaths", "s.jsonl", "--out", "report"]),
    ("comprehend", ["--texts", "t.json", "--freq", "f.tsv", "--scanpaths", "s.jsonl", "--out", "report"]),
    ("train-svm", ["--scores", "s.csv", "--meta", "m.json", "--out", "svm.json"]),
])
def test_svm_tolerance_is_not_an_option(command, required, capsys):
    # the solver's tolerance does not move its optimum, so no command sets it
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *required, "--svm-tol", "1e-3")
    assert exc.value.code == 2
    assert "unrecognized arguments: --svm-tol" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--inner-folds", "1"], ["--no-baseline"]])
def test_comprehend_takes_no_identification_options(option, capsys):
    # comprehension tunes on one inner split and runs no generative baseline
    with pytest.raises(SystemExit) as exc:
        run_cli("comprehend", "--texts", "t.json", "--freq", "f.tsv", "--scanpaths", "s.jsonl", "--out", "report",
                *option)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_fit_failure_exit_code(synth_dir, tmp_path):
    # scanpaths too short to produce events: fit fails with exit 3
    sp_path = tmp_path / "short.jsonl"
    sp_path.write_text(json.dumps({
        "reader_id": "r00", "text_id": "t00", "line_id": 0, "fixations": [[0, 100.0]],
    }) + "\n")
    code = run_cli(
        "fit", "--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
        "--scanpaths", sp_path, "--out", tmp_path / "m.json",
    )
    assert code == 3


@pytest.mark.parametrize("command", ["fit", "score"])
def test_empty_scanpath_file_fails_with_exit_3(synth_dir, fitted_model, tmp_path, capsys, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    args = [command, "--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
            "--scanpaths", empty, "--out", tmp_path / "out"]
    if command == "score":
        args += ["--model", fitted_model]
    assert run_cli(*args) == 3
    assert "no scanpaths" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("floor", [0.0, 2.0])
def test_score_refuses_a_model_of_another_amp_floor(synth_dir, fitted_model, tmp_path, capsys, floor):
    # fit always writes amp_floor 0.5; a model fitted with another floor
    # would score events it was not fitted on
    model = read_json(fitted_model)
    assert model["amp_floor"] == 0.5
    model["amp_floor"] = floor
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert run_cli("score", "--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
                   "--scanpaths", synth_dir / "scanpaths.jsonl", "--out", tmp_path / "out", "--model", path) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: amp_floor {floor!r} is not 0.5, the amplitude floor every model is fitted with\n")
    assert list(tmp_path.iterdir()) == [path]


def test_score_takes_a_model_without_amp_floor(synth_dir, fitted_model, scores_file, tmp_path):
    model = read_json(fitted_model)
    del model["amp_floor"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "scores.txt"
    assert run_cli("score", "--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
                   "--scanpaths", synth_dir / "scanpaths.jsonl", "--out", out, "--model", path) == 0
    assert out.read_bytes() == Path(scores_file).read_bytes()


@pytest.mark.parametrize("command, option", [
    (command, option) for command in ("identify", "comprehend") for option in ("--amp-floor", "--tol", "--max-iter")
] + [("fit", option) for option in ("--amp-floor", "--tol", "--max-iter")])
def test_fixed_settings_are_not_options(command, option, capsys):
    # the amplitude floor is events.AMP_FLOOR, and every fit stops at fit._TOL and fit._MAX_ITER
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--texts", "t.json", "--freq", "f.tsv", "--scanpaths", "s.jsonl", "--out", "out",
                option, "1")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_fit_rejects_bad_lambda_by_name(synth_dir, tmp_path, capsys, value):
    code = run_cli("fit", "--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
                   "--scanpaths", synth_dir / "scanpaths.jsonl", "--out", tmp_path / "model.json",
                   "--lambda", value)
    assert code == 3
    assert capsys.readouterr().err == f"error: lam must be >= 0, got {float(value)!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option, value, field", [
    ("--c-grid", "", "c_grid"),
    ("--lambda-grid", "", "lambda_grid"),
    ("--ridge-grid", "", "ridge_scales"),
    ("--c-grid", "0", "c_grid"),
    ("--lambda-grid", "-0.01", "lambda_grid"),
    ("--ridge-grid", "-1", "ridge_scales"),
])
def test_identify_rejects_bad_grid_before_fitting(synth_dir, tmp_path, capsys, monkeypatch, option, value, field):
    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fitted before the configuration was checked")

    monkeypatch.setattr("scanfisher.evaluate.fit_model", no_fit)
    grids = {"--lambda-grid": "0.01", "--c-grid": "1", "--ridge-grid": "1e-6", option: value}
    code = run_cli(
        "identify",
        "--texts", synth_dir / "texts.json", "--freq", synth_dir / "freq.tsv",
        "--scanpaths", synth_dir / "scanpaths.jsonl", "--out", tmp_path / "report",
        *[tok for pair in grids.items() for tok in pair],
    )
    assert code == 3
    assert capsys.readouterr().err.startswith(f"error: {field} ")
    assert not (tmp_path / "report").exists()


def test_cli_entry_point_via_module():
    # the child imports the same package as this process, installed or not
    src = str(Path(scanfisher.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "scanfisher", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "scanfisher" in proc.stdout


def test_package_import_loads_no_scipy_stats_and_no_test_module():
    # importing scipy.stats costs about 0.5 s and 22 MB of start-up; the test
    # oracles live under tests/ and must stay out of the package's imports
    src = str(Path(scanfisher.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # the scipy modules the package may load are those of the two subpackages
    # it imports (special, linalg), whatever they load themselves, and the one
    # compiled module of scipy.optimize it uses: importing that package costs
    # about 200 modules and 17 MB of start-up
    code = (
        "import sys, scipy.special, scipy.linalg\n"
        "allowed = set(sys.modules) | {'scipy.optimize._lbfgsb'}\n"
        "import scanfisher, scanfisher.cli\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
        "print('--')\n"
        "print('\\n'.join(sorted(m for m in set(sys.modules) - allowed if m.startswith('scipy'))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    listing, extra_scipy = proc.stdout.split("--\n")
    modules = listing.split()
    assert "scanfisher.evaluate" in modules
    assert not [m for m in modules if m == "scipy.stats" or m.startswith("scipy.stats.")]
    assert extra_scipy.split() == []
    assert [m for m in modules if m.split(".")[:2] == ["scipy", "optimize"]] == ["scipy.optimize._lbfgsb"]
    assert not [m for m in modules
                if m.split(".")[0] in ("tests", "conftest") or m.endswith("_reference")]
