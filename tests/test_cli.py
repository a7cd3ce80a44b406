import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import curvlens
from curvlens import serialize
from curvlens.cli import build_parser, cmd_spectrum, main
from curvlens.density import DiracMixture
from curvlens.models import (LogisticRegressionModel, MLPModel, checkpoint_dict,
                             model_from_checkpoint)
from curvlens.operators import SeedStream
from curvlens.rmt import PlantedSpectrumSpec, planted_matrix


SRC = str(Path(__file__).resolve().parents[1] / "src")
DATASET_SPEC = {"n_samples": 60, "d_in": 5, "n_c": 3, "blob_separation": 3.0, "seed": 1}


def _write_dataset(tmp_path):
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(DATASET_SPEC))
    return path


def _write_checkpoint(tmp_path):
    model = LogisticRegressionModel(5, 3, weight_decay=0.01)
    rng = np.random.default_rng(0)
    model.set_params(rng.standard_normal(model.n_params) * 0.2)
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(checkpoint_dict(model)))
    return path


def test_usage_error_exits_with_code_2():
    with pytest.raises(SystemExit) as err:
        main(["rmt", "--ensemble", "nosuch", "--out", "x"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["rmt", "--ensemble", "wigner"], "--dim"),
    (["rmt", "--ensemble", "wigner"], "--steps"),
    (["rmt", "--ensemble", "wigner"], "--seeds"),
    (["spectrum", "--checkpoint", "c.json", "--dataset", "d.json"], "--steps"),
    (["spectrum", "--checkpoint", "c.json", "--dataset", "d.json"], "--seeds"),
    (["compare-diag", "--source", "wigner"], "--dim"),
    (["compare-diag", "--source", "wigner"], "--steps"),
    (["train", "--dataset", "d.json", "--variant", "ssgd"], "--steps"),
    (["train", "--dataset", "d.json", "--variant", "ssgd"], "--batch"),
    (["train", "--dataset", "d.json", "--variant", "ssgd"], "--refresh"),
    (["train", "--dataset", "d.json", "--variant", "ssgd"], "--lanczos-steps"),
    (["landscape", "--checkpoint", "c.json", "--dataset", "d.json", "--spectrum", "s.json"],
     "--n-points"),
    (["landscape", "--checkpoint", "c.json", "--dataset", "d.json", "--spectrum", "s.json"],
     "--directions"),
])
def test_negative_counts_rejected_at_parse_time(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as err:
        main(argv + [flag, "-3", "--out", str(out)])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["compare-diag", "--source", "wigner"],
    ["train", "--dataset", "d.json", "--variant", "ssgd"],
    ["landscape", "--checkpoint", "c.json", "--dataset", "d.json", "--spectrum", "s.json"],
    ["spectrum", "--checkpoint", "c.json", "--dataset", "d.json"],
])
def test_format_is_a_usage_error_where_it_does_nothing(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as err:
        main(argv + ["--format", "json", "--out", str(out)])
    assert err.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


def test_negative_layers_rejected_at_parse_time(tmp_path, capsys):
    dataset = _write_dataset(tmp_path)
    checkpoint = _write_checkpoint(tmp_path)
    out = tmp_path / "o"
    for argv in (["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                  "--layers", "-3", "--out", str(out)],
                 ["train", "--dataset", str(dataset), "--variant", "ssgd", "--steps", "5",
                  "--layers", "-1", "--out", str(out)]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "--layers" in capsys.readouterr().err
        assert not out.exists()


def test_out_of_range_seed_fails_loudly(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["rmt", "--ensemble", "wigner", "--dim", "50", "--steps", "5", "--out", str(out)]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--seed", "-1"])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert main(argv + ["--seed", str(2 ** 64)]) == 1
    assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_theoretical_variant_for_mlp(tmp_path, capsys):
    out = tmp_path / "t"
    code = main(["train", "--dataset", str(_write_dataset(tmp_path)), "--model", "mlp",
                 "--variant", "sgdm_theoretical", "--steps", "5", "--out", str(out)])
    assert code == 1
    assert "logistic regression model" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_zero_width_layer(tmp_path, capsys):
    out = tmp_path / "t"
    code = main(["train", "--dataset", str(_write_dataset(tmp_path)), "--model", "mlp",
                 "--hidden", "0", "--variant", "ssgd", "--steps", "5", "--out", str(out)])
    assert code == 1
    assert "layer size must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_refuses_abs_hessian_over_its_parameter_cap(tmp_path, capsys):
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps({**DATASET_SPEC, "d_in": 40}))
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(checkpoint_dict(MLPModel([40, 50, 3], SeedStream(0)))))
    out = tmp_path / "s"
    assert main(["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--curvature", "abs_hessian", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("curvlens spectrum: abs_hessian requires "
                                       "n_params <= 2000, got 2203\n")
    assert not out.exists()


@pytest.mark.parametrize("ratio", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("argv", [["rmt", "--ensemble", "wishart"],
                                  ["compare-diag", "--source", "wishart"]])
def test_wishart_ratio_must_be_positive_and_finite(tmp_path, capsys, argv, ratio):
    out = tmp_path / "o"
    assert main(argv + ["--dim", "50", "--ratio", ratio, "--out", str(out)]) == 1
    assert "--ratio must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ratio, message", [("1e-310", "is not finite"),
                                            ("1.5e-4", "exceeds 16000000 entries")])
@pytest.mark.parametrize("argv", [["rmt", "--ensemble", "wishart"],
                                  ["compare-diag", "--source", "wishart"]])
def test_wishart_sample_is_capped(tmp_path, capsys, argv, ratio, message):
    out = tmp_path / "o"
    assert main(argv + ["--dim", "50", "--ratio", ratio, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["--gaps", "1.5", "--steps", "2000"], "gap 1.5 and m 2000 underflow"),
    (["--gaps", "inf"], "finite and exceed 1, got inf"),
    (["--gaps", "nan"], "finite and exceed 1, got nan"),
    (["--gaps", "1.5", "--steps", "272"], "gap 1.5 and m 272 underflow to 0"),
])
def test_bounds_table_refuses_gaps_without_finite_bounds(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert main(["bounds-table", *argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_inputs_that_give_empty_tables_are_refused(tmp_path, capsys):
    dataset = _write_dataset(tmp_path)
    checkpoint = _write_checkpoint(tmp_path)
    spec_out = tmp_path / "s"
    assert main(["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--steps", "6", "--save-vectors", "--out", str(spec_out)]) == 0
    landscape = ["landscape", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--spectrum", str(spec_out / "spectrum.json")]
    for argv, message in (
            (["rmt", "--ensemble", "wigner", "--dim", "20", "--seeds", "0"],
             "--seeds must be >= 1"),
            (["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
              "--seeds", "0"], "--seeds must be >= 1"),
            (["train", "--dataset", str(dataset), "--variant", "ssgd", "--steps", "0"],
             "total steps must be >= 1"),
            (landscape + ["--directions", "0"], "n_directions must be >= 1"),
            (landscape + ["--n-points", "1"], "n_points must be odd and >= 3"),
            (["bounds-table", "--gaps", ","], "at least one value"),
            (["bounds-table", "--steps", ","], "at least one value")):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


INPUT_FILES = {"--checkpoint": "checkpoint.json", "--dataset": "dataset.json",
               "--spec": "planted.json", "--spectrum": "spectrum.json"}


@pytest.mark.parametrize("content", [b'{"n_samples": 30,', b"\xff\xfe"],
                         ids=["truncated", "not-utf-8"])
@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--checkpoint", "checkpoint.json", "--dataset", "dataset.json", "--steps", "3"],
     "--checkpoint"),
    (["train", "--dataset", "dataset.json", "--variant", "ssgd", "--steps", "3"], "--dataset"),
    (["rmt", "--ensemble", "planted", "--spec", "planted.json", "--steps", "3"], "--spec"),
    (["landscape", "--checkpoint", "checkpoint.json", "--dataset", "dataset.json",
      "--spectrum", "spectrum.json"], "--spectrum"),
], ids=["spectrum", "train", "rmt", "landscape"])
def test_input_that_is_not_json_is_refused_naming_the_file(tmp_path, capsys, argv, flag,
                                                           content):
    _write_dataset(tmp_path)
    _write_checkpoint(tmp_path)
    bad = tmp_path / INPUT_FILES[flag]
    bad.write_bytes(content)
    out = tmp_path / "o"
    argv = [str(tmp_path / a) if a in INPUT_FILES.values() else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and err.count("\n") == 1, err
    assert not out.exists()


def test_runtime_error_exits_with_code_1(tmp_path, capsys):
    # planted ensemble without a spectrum description is a runtime failure
    code = main(["rmt", "--ensemble", "planted", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "curvlens rmt" in capsys.readouterr().err


def test_rmt_wigner_writes_spectrum_and_stem(tmp_path):
    out = tmp_path / "o"
    code = main(["rmt", "--ensemble", "wigner", "--dim", "120", "--steps", "15",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    document = serialize.read_spectrum(out / "spectrum.json")
    assert document["operator"]["kind"] == "wigner_normalized"
    assert len(document["atoms"]) <= 15
    with open(out / "stem.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["value", "weight"]
    assert len(rows) - 1 == len(document["atoms"])


def test_rmt_output_is_byte_identical_across_runs(tmp_path):
    args = ["rmt", "--ensemble", "wishart", "--dim", "80", "--ratio", "2.0",
            "--steps", "12", "--seed", "9"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "spectrum.json").read_bytes() == (out_b / "spectrum.json").read_bytes()
    assert (out_a / "stem.csv").read_bytes() == (out_b / "stem.csv").read_bytes()


def test_rmt_planted_with_spec_file(tmp_path):
    spec = {"dim": 60,
            "groups": [{"count": 40, "dist": "const", "lo": 0.0},
                       {"count": 18, "dist": "uniform", "lo": 0.0, "hi": 10.0},
                       {"count": 2, "dist": "uniform", "lo": 50.0, "hi": 60.0}]}
    spec_path = tmp_path / "planted.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "o"
    code = main(["rmt", "--ensemble", "planted", "--spec", str(spec_path),
                 "--steps", "20", "--out", str(out)])
    assert code == 0
    document = serialize.read_spectrum(out / "spectrum.json")
    assert document["analysis"]["lambda_max"] > 40.0


@pytest.mark.parametrize("group, message", [
    ({"dist": "uniform", "lo": 0, "hi": float("inf")}, "need finite lo <= hi, got lo=0.0, hi=inf"),
    ({"dist": "const", "lo": float("nan")}, "need finite lo <= hi, got lo=nan"),
    ({"dist": "uniform", "lo": 2, "hi": 1}, "need finite lo <= hi, got lo=2.0, hi=1.0"),
    ({"dist": "const", "lo": 1, "hi": 5}, "a const group needs hi == lo"),
    ({"dist": "gamma", "lo": 1}, "unknown dist 'gamma'"),
    ({"dist": "const", "lo": 1, "scale": 2}, "unknown keys ['scale']"),
    ({"count": 19.5, "dist": "const", "lo": 1}, "count must be an integer >= 1, got 19.5"),
    ({"count": 0, "dist": "const", "lo": 1}, "count must be an integer >= 1, got 0"),
    ({"dist": "const", "lo": None}, "lo must be a number, got None"),
    ({"dist": "const", "lo": 10**400}, "lo is an integer too large for a double"),
])
@pytest.mark.parametrize("argv", [["rmt", "--ensemble", "planted"],
                                  ["compare-diag", "--source", "planted"]])
def test_planted_spec_refuses_bad_groups(tmp_path, capsys, argv, group, message):
    spec_path = tmp_path / "planted.json"
    spec_path.write_text(json.dumps({"dim": 20, "groups": [{"count": 20, **group}]}))
    out = tmp_path / "o"
    assert main(argv + ["--spec", str(spec_path), "--steps", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"group 0: {message}" in err and err.count("\n") == 1
    assert not out.exists()


def test_planted_spec_seed_key_fails_loudly(tmp_path, capsys):
    spec_path = tmp_path / "planted.json"
    spec_path.write_text(json.dumps({"dim": 10, "seed": 4,
                                     "groups": [{"count": 10, "dist": "const", "lo": 1.0}]}))
    out = tmp_path / "o"
    code = main(["rmt", "--ensemble", "planted", "--spec", str(spec_path), "--out", str(out)])
    assert code == 1
    assert "'seed'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ({"dim": 3.9, "groups": [{"count": 3, "dist": "const", "lo": 1}]},
     "planted spectrum: dim must be an integer >= 1, got 3.9"),
    ({"dim": 3}, "planted spectrum: missing keys ['groups']"),
    ({"dim": 3, "groups": [{"dist": "const", "lo": 1}]}, "group 0: missing keys ['count']"),
    ({"dim": 3, "groups": 3}, "planted spectrum: groups must be a list, got 3"),
    ([3], "planted spectrum: expected a JSON object, got list"),
], ids=["fractional-dim", "no-groups", "no-count", "groups-not-a-list", "not-an-object"])
def test_malformed_planted_spec_is_refused(tmp_path, capsys, spec, message):
    spec_path = tmp_path / "planted.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "o"
    code = main(["rmt", "--ensemble", "planted", "--spec", str(spec_path), "--steps", "2",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"curvlens rmt: {message}\n"
    assert not out.exists()


# a None value drops the key
@pytest.mark.parametrize("change, message", [
    ({"n_c": 0}, "n_c must be an integer >= 1, got 0"),
    ({"n_samples": 2.7}, "n_samples must be an integer >= 1, got 2.7"),
    ({"d_in": "5"}, "d_in must be an integer >= 1, got '5'"),
    ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ({"blob_separation": "far"}, "blob_separation must be a number, got 'far'"),
    ({"sed": 3}, "unknown keys ['sed']; expected only n_samples, d_in, n_c, blob_separation, seed"),
    ({"n_samples": None}, "missing keys ['n_samples']"),
    ({"blob_separation": 10**400}, "blob_separation is an integer too large for a double"),
], ids=["zero-n_c", "fractional-n_samples", "string-d_in", "fractional-seed",
        "string-separation", "misspelled-seed", "no-n_samples", "oversized-separation"])
def test_malformed_dataset_spec_is_refused(tmp_path, capsys, change, message):
    spec = {key: value for key, value in {**DATASET_SPEC, **change}.items() if value is not None}
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps(spec))
    out = tmp_path / "t"
    code = main(["train", "--dataset", str(dataset), "--variant", "ssgd", "--steps", "2",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"curvlens train: dataset spec: {message}\n"
    assert not out.exists()


def test_rmt_pools_probes_that_break_down_at_different_steps(tmp_path):
    # eight 6-value clusters spread over 14 decades and 12 values near zero: which
    # step a probe's Lanczos run breaks down at depends on the probe
    groups = [{"count": 6, "dist": "uniform", "lo": 10.0 ** -k, "hi": 2 * 10.0 ** -k}
              for k in range(0, 16, 2)]
    groups.append({"count": 12, "dist": "uniform", "lo": 0.0, "hi": 1e-15})
    spec_path = tmp_path / "planted.json"
    spec_path.write_text(json.dumps({"dim": 60, "groups": groups}))
    for seed in ("1", "3"):
        out = tmp_path / seed
        code = main(["rmt", "--ensemble", "planted", "--spec", str(spec_path), "--steps", "60",
                     "--seeds", "4", "--seed", seed, "--out", str(out)])
        assert code == 0
        document = serialize.read_spectrum(out / "spectrum.json")
        assert document["lanczos"]["seeds"] == 4


def test_rmt_spectrum_file_records_the_steps_run_after_a_breakdown(tmp_path):
    # two distinct eigenvalues: every probe's run breaks down after 2 of the 30 steps
    spec_path = tmp_path / "planted.json"
    groups = [{"count": 20, "dist": "const", "lo": 1.0}, {"count": 20, "dist": "const", "lo": 5.0}]
    spec_path.write_text(json.dumps({"dim": 40, "groups": groups}))
    out = tmp_path / "o"
    assert main(["rmt", "--ensemble", "planted", "--spec", str(spec_path), "--steps", "30",
                 "--seeds", "2", "--out", str(out)]) == 0
    document = serialize.read_spectrum(out / "spectrum.json")
    assert document["lanczos"]["steps"] == 2 and document["lanczos"]["seeds"] == 2
    mixture = serialize.mixture_from_document(document)
    assert (mixture.steps, mixture.n_seeds) == (2, 2)
    np.testing.assert_allclose(mixture.locations, [1.0, 5.0], rtol=1e-12)


def test_dataset_with_fewer_samples_than_classes_is_refused(tmp_path, capsys):
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps({"n_samples": 2, "d_in": 3, "n_c": 3}))
    out = tmp_path / "t"
    code = main(["train", "--dataset", str(dataset), "--variant", "ssgd", "--steps", "3",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == ("curvlens train: n_samples 2 is less than n_c 3; "
                                       "every class needs a sample\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--alpha", "nan", "learning rate must be finite and positive, got nan"),
    ("--alpha", "inf", "learning rate must be finite and positive, got inf"),
    ("--gamma", "nan", "weight decay must be finite, got nan"),
])
def test_train_refuses_non_finite_alpha_and_gamma(tmp_path, capsys, flag, value, message):
    out = tmp_path / "t"
    code = main(["train", "--dataset", str(_write_dataset(tmp_path)), "--variant", "sgd_fixed",
                 "--steps", "3", flag, value, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"curvlens train: {message}\n"
    assert not out.exists()


LOGISTIC_CHECKPOINT = checkpoint_dict(LogisticRegressionModel(5, 3, weight_decay=0.01))


# a None value drops the key
@pytest.mark.parametrize("checkpoint, message", [
    ([1, 2], "expected a JSON object, got list"),
    ({"params": None}, "missing keys ['params']"),
    ({"d_in": 3.7}, "d_in must be an integer >= 1, got 3.7"),
    ({"weight_decy": 0.5}, "unknown keys ['weight_decy']; expected only kind, d_in, n_c, params, "
                           "weight_decay"),
    ({"weight_decay": "0.5"}, "weight_decay must be a number, got '0.5'"),
    ({"weight_decay": 10**400}, "weight_decay is an integer too large for a double"),
    ({"kind": "cnn"}, "kind must be one of logistic, mlp, got 'cnn'"),
    ({"params": [0.0] * 14}, "params must be a list of 15 numbers, got a list of 14"),
    ({"params": [0.0] * 14 + [None]}, "params entry 14 must be a number, got None"),
    ({"params": [0.0] * 14 + [10**400]}, "params entry 14 is an integer too large for a double"),
    ({"params": [0.0] * 13 + [float("nan")] * 2}, "params entry 13 must be finite, got nan"),
    ({"params": [0.0] * 14 + [float("inf")]}, "params entry 14 must be finite, got inf"),
    ({"params": [-float("inf")] + [0.0] * 14}, "params entry 0 must be finite, got -inf"),
    ({"kind": "mlp", "d_in": None, "n_c": None, "layer_sizes": [5, 2.5, 3]},
     "layer_sizes entry 1 must be an integer >= 1, got 2.5"),
    ({"kind": "mlp", "d_in": None, "n_c": None, "layer_sizes": 5},
     "layer_sizes must be a list, got 5"),
    ({"kind": "mlp"}, "unknown keys ['d_in', 'n_c']; expected only kind, layer_sizes, params, "
                      "weight_decay"),
], ids=["not-an-object", "no-params", "fractional-d_in", "misspelled-weight_decay",
        "string-weight_decay", "oversized-weight_decay", "unknown-kind", "short-params",
        "null-param", "oversized-param", "nan-params", "infinite-param", "negative-infinite-param",
        "fractional-layer-size", "layer_sizes-not-a-list", "logistic-keys-on-mlp"])
def test_malformed_checkpoint_is_refused(tmp_path, capsys, checkpoint, message):
    if isinstance(checkpoint, dict):
        checkpoint = {key: value for key, value in {**LOGISTIC_CHECKPOINT, **checkpoint}.items()
                      if value is not None}
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(checkpoint))
    out = tmp_path / "o"
    code = main(["spectrum", "--checkpoint", str(path), "--dataset", str(_write_dataset(tmp_path)),
                 "--steps", "3", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"curvlens spectrum: checkpoint: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("model", [LogisticRegressionModel(5, 3, weight_decay=0.01),
                                   MLPModel([5, 4, 3], stream=SeedStream(2), weight_decay=0.0)],
                         ids=["logistic", "mlp"])
def test_checkpoint_dict_output_loads(tmp_path, model):
    path = tmp_path / "checkpoint.json"
    serialize.write_json(path, checkpoint_dict(model))
    restored = model_from_checkpoint(json.loads(path.read_text()))
    assert type(restored) is type(model) and restored.layer_sizes == model.layer_sizes
    assert restored.weight_decay == model.weight_decay
    np.testing.assert_array_equal(restored.get_params(), model.get_params())
    assert main(["spectrum", "--checkpoint", str(path), "--dataset", str(_write_dataset(tmp_path)),
                 "--steps", "3", "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("layer_sizes", [[3, 5, 2], [4, 5, 3]], ids=["too-few-classes",
                                                                     "too-many-features"])
def test_checkpoint_that_does_not_fit_the_dataset_is_refused(tmp_path, capsys, layer_sizes):
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps({**DATASET_SPEC, "d_in": 3}))
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(checkpoint_dict(MLPModel(layer_sizes, stream=SeedStream(0)))))
    out = tmp_path / "o"
    code = main(["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--steps", "3", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == ("curvlens spectrum: data of shape (60, 3) with 3 classes "
                                       f"do not fit a model with layer sizes {layer_sizes}\n")
    assert not out.exists()


def _assert_refused(code, capsys, out, prefix):
    """Exit 1 with one stderr line that starts with ``prefix``, and no ``--out``."""
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert not out.exists()


# Each input below overflows inside numpy: the command stops at the first
# overflow with one line, not a RuntimeWarning (pytest makes warnings errors).
def test_train_refuses_a_dataset_that_overflows(tmp_path, capsys):
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps({**DATASET_SPEC, "blob_separation": 1e300}))
    out = tmp_path / "t"
    code = main(["train", "--dataset", str(dataset), "--variant", "ssgd", "--steps", "3",
                 "--lanczos-steps", "4", "--out", str(out)])
    _assert_refused(code, capsys, out, "curvlens train: overflow encountered in ")


def test_spectrum_refuses_a_checkpoint_that_overflows(tmp_path, capsys):
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps({**LOGISTIC_CHECKPOINT, "params": [1e308] * 15}))
    out = tmp_path / "o"
    code = main(["spectrum", "--checkpoint", str(path), "--dataset", str(_write_dataset(tmp_path)),
                 "--steps", "3", "--out", str(out)])
    _assert_refused(code, capsys, out, "curvlens spectrum: overflow encountered in ")


@pytest.mark.parametrize("lo", [1e300, -1e300, 1e308])
@pytest.mark.parametrize("argv", [["rmt", "--ensemble", "planted"],
                                  ["compare-diag", "--source", "planted"]])
def test_planted_spectrum_that_overflows_is_refused(tmp_path, capsys, argv, lo):
    spec_path = tmp_path / "planted.json"
    spec_path.write_text(json.dumps({"dim": 20, "groups": [{"count": 20, "dist": "const",
                                                            "lo": lo}]}))
    out = tmp_path / "o"
    code = main(argv + ["--spec", str(spec_path), "--steps", "5", "--out", str(out)])
    _assert_refused(code, capsys, out, f"curvlens {argv[0]}: overflow encountered in ")


def test_diverging_fixed_step_run_still_writes_its_trace(tmp_path, capsys):
    out = tmp_path / "t"
    assert main(["train", "--dataset", str(_write_dataset(tmp_path)), "--variant", "sgd_fixed",
                 "--alpha", "1e6", "--steps", "50", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out / "trace.csv") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) - 1 < 50 and float(rows[-1][1]) > 1e6
    manifest = json.loads((out / "manifest.json").read_text())
    assert "diverged" not in manifest["flags"]
    assert manifest["warnings"][-1] == (f"step {len(rows) - 2}: diverged (loss "
                                        f"{float(rows[-1][1]):.6g} > 1e+10); training stopped")
    assert (out / "checkpoint.json").exists()


def test_spectrum_command_round_trip(tmp_path):
    dataset = _write_dataset(tmp_path)
    checkpoint = _write_checkpoint(tmp_path)
    out = tmp_path / "o"
    code = main(["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--curvature", "ggn", "--steps", "10", "--probe", "gaussian",
                 "--save-vectors", "--out", str(out)])
    assert code == 0
    document = serialize.read_spectrum(out / "spectrum.json")
    assert document["operator"]["kind"] == "ggn"
    assert document["analysis"]["lambda_max"] > 0
    assert (out / "ritz_vectors.npz").exists()
    mixture = serialize.mixture_from_document(document)
    assert abs(mixture.weights.sum() - 1.0) < 1e-9
    ritz = serialize.read_ritz_vectors(out / "spectrum.json")
    assert ritz.vectors.shape == (15, ritz.steps) and len(ritz.values) == ritz.steps == 10
    np.testing.assert_allclose(ritz.vectors.T @ ritz.vectors, np.eye(10), atol=1e-10)
    assert abs(ritz.weights.sum() - 1.0) < 1e-9


def test_spectrum_keeps_a_basis_only_for_the_probe_it_saves(tmp_path, traced_peak):
    # 20,000 parameters: each run's 60 x P basis outweighs everything else the command holds
    model = LogisticRegressionModel(2000, 10, weight_decay=0.01)
    model.set_params(np.random.default_rng(0).standard_normal(model.n_params) * 0.01)
    checkpoint, dataset = tmp_path / "checkpoint.json", tmp_path / "dataset.json"
    checkpoint.write_text(json.dumps(checkpoint_dict(model)))
    dataset.write_text(json.dumps({**DATASET_SPEC, "n_samples": 30, "d_in": 2000, "n_c": 10}))
    args = build_parser().parse_args([
        "spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset), "--steps", "60",
        "--seeds", "3", "--probe", "gaussian", "--save-vectors", "--out", str(tmp_path / "o")])
    (artifacts, _), peak = traced_peak(lambda: cmd_spectrum(args))
    saved = [payload for name, _, *payload in artifacts if name == "ritz_vectors.npz"]
    assert [ritz.vectors.shape for ritz, in saved] == [(model.n_params, 60)]
    # one m x P array alive at a time: no second basis, no Ritz vectors beside their basis
    assert peak < 1.5 * 8 * 60 * model.n_params


def test_landscape_requires_saved_vectors(tmp_path, capsys):
    dataset = _write_dataset(tmp_path)
    checkpoint = _write_checkpoint(tmp_path)
    bare = tmp_path / "bare"
    assert main(["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--steps", "8", "--out", str(bare)]) == 0
    code = main(["landscape", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--spectrum", str(bare / "spectrum.json"), "--out", str(tmp_path / "l")])
    assert code == 1
    assert "save-vectors" in capsys.readouterr().err


def _truncated(path):
    path.write_bytes(path.read_bytes()[:200])


def _without_vectors(path):
    with np.load(path) as data:
        np.savez(path, values=data["values"], weights=data["weights"])


def _not_a_zip(path):
    path.write_bytes(b"not a zip archive")


def _resaved(path, change):
    with np.load(path) as data:
        arrays = dict(data)
    np.savez(path, **{**arrays, **change(arrays)})


def _fewer_vector_columns(path):
    _resaved(path, lambda data: {"vectors": data["vectors"][:, :3]})


def _one_dimensional_vectors(path):
    _resaved(path, lambda data: {"vectors": data["vectors"][:, 0]})


def _two_dimensional_values(path):
    _resaved(path, lambda data: {"values": data["values"][None], "weights": data["weights"][None]})


@pytest.mark.parametrize("damage", [_truncated, _without_vectors, _not_a_zip,
                                    _fewer_vector_columns, _one_dimensional_vectors,
                                    _two_dimensional_values],
                         ids=["truncated", "no-vectors", "not-a-zip", "fewer-vector-columns",
                              "1d-vectors", "2d-values"])
def test_landscape_refuses_an_unreadable_ritz_vector_archive(tmp_path, capsys, damage):
    dataset = _write_dataset(tmp_path)
    checkpoint = _write_checkpoint(tmp_path)
    spec_out = tmp_path / "s"
    # a Gaussian probe: seed 0's Rademacher probe lies in the softmax shift null space, where
    # the run stops after one step, and the archive would hold one value and one column
    assert main(["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--steps", "6", "--probe", "gaussian", "--save-vectors",
                 "--out", str(spec_out)]) == 0
    archive = spec_out / "ritz_vectors.npz"
    damage(archive)
    out = tmp_path / "o"
    assert main(["landscape", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--spectrum", str(spec_out / "spectrum.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(archive) in err and err.count("\n") == 1, err
    assert not out.exists()


def test_landscape_refuses_bad_dist_and_vectors_of_another_model(tmp_path, capsys):
    dataset = _write_dataset(tmp_path)
    checkpoint = _write_checkpoint(tmp_path)
    spec_out = tmp_path / "s"
    assert main(["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--steps", "6", "--save-vectors", "--out", str(spec_out)]) == 0
    other = tmp_path / "mlp.json"
    other.write_text(json.dumps(checkpoint_dict(MLPModel([5, 4, 3], stream=SeedStream(0)))))
    landscape = ["landscape", "--dataset", str(dataset),
                 "--spectrum", str(spec_out / "spectrum.json")]
    for argv, message in (
            (["--checkpoint", str(checkpoint), "--dist", "nan"],
             "dist must be finite and positive, got nan"),
            (["--checkpoint", str(other)],
             "Ritz vectors of length 15 do not fit a model with 39 parameters")):
        out = tmp_path / "o"
        assert main(landscape + argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_landscape_refuses_an_overflowing_distance(tmp_path, capsys):
    # at --dist 1e200 the hidden activations overflow: a one-line error, exit 1,
    # no --out directory and no numpy RuntimeWarning (pytest makes warnings errors)
    dataset = _write_dataset(tmp_path)
    checkpoint = tmp_path / "mlp.json"
    checkpoint.write_text(json.dumps(checkpoint_dict(MLPModel([5, 4, 3], stream=SeedStream(0)))))
    spec_out = tmp_path / "s"
    assert main(["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--steps", "6", "--save-vectors", "--out", str(spec_out)]) == 0
    out = tmp_path / "o"
    assert main(["landscape", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--spectrum", str(spec_out / "spectrum.json"), "--dist", "1e200",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("curvlens landscape: non-finite loss (") and err.count("\n") == 1
    assert not out.exists()


def test_landscape_refuses_a_spectrum_file_with_a_nan_atom(tmp_path, capsys):
    dataset = _write_dataset(tmp_path)
    checkpoint = _write_checkpoint(tmp_path)
    spec_out = tmp_path / "s"
    assert main(["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--steps", "6", "--save-vectors", "--out", str(spec_out)]) == 0
    document = json.loads((spec_out / "spectrum.json").read_text())
    document["atoms"][0]["value"] = float("nan")
    (spec_out / "spectrum.json").write_text(json.dumps(document))  # json writes NaN
    out = tmp_path / "o"
    assert main(["landscape", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--spectrum", str(spec_out / "spectrum.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"curvlens landscape: {spec_out / 'spectrum.json'}: "
                                       "atom locations and weights must be finite\n")
    assert not out.exists()


def test_landscape_writes_grid(tmp_path):
    dataset = _write_dataset(tmp_path)
    checkpoint = _write_checkpoint(tmp_path)
    spec_out = tmp_path / "s"
    assert main(["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--steps", "10", "--probe", "gaussian", "--save-vectors",
                 "--out", str(spec_out)]) == 0
    out = tmp_path / "l"
    code = main(["landscape", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--spectrum", str(spec_out / "spectrum.json"), "--n-points", "9",
                 "--directions", "2", "--out", str(out)])
    assert code == 0
    with open(out / "landscape.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["direction_index", "eigenvalue", "t", "train_loss", "test_loss"]
    assert len(rows) - 1 == 9 * min(4, 10)


def test_train_command_writes_trace_checkpoint_manifest(tmp_path):
    dataset = _write_dataset(tmp_path)
    out = tmp_path / "t"
    code = main(["train", "--dataset", str(dataset), "--variant", "ssgd",
                 "--steps", "60", "--refresh", "30", "--lanczos-steps", "8",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    with open(out / "trace.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["step", "loss", "alpha", "beta", "lambda_max", "lambda_b"]
    assert len(rows) - 1 == 60
    first_loss = float(rows[1][1])
    last_loss = float(rows[-1][1])
    assert last_loss < first_loss
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 2
    assert manifest["warnings"] == []
    restored = json.loads((out / "checkpoint.json").read_text())
    assert restored["kind"] == "logistic"


def test_train_manifest_records_trace_warnings(tmp_path, monkeypatch):
    import curvlens.optim as optim

    refresh, train, traces = optim.spectral_refresh, optim.train, []

    def clamping_refresh(*args, **kwargs):
        lam_max, _lam_bulk, schedule, _warning = refresh(*args, **kwargs)
        return lam_max, lam_max, schedule, f"bulk estimate >= lambda_max {lam_max:.6g}; clamped"

    def recording_train(*args, **kwargs):
        traces.append(train(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(optim, "spectral_refresh", clamping_refresh)
    monkeypatch.setattr(optim, "train", recording_train)
    out = tmp_path / "t"
    assert main(["train", "--dataset", str(_write_dataset(tmp_path)), "--variant", "ssgd",
                 "--steps", "20", "--refresh", "10", "--lanczos-steps", "8",
                 "--seed", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(traces[0].warnings) == 2
    assert manifest["warnings"] == traces[0].warnings


def test_train_survives_a_failed_refresh(tmp_path):
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps({**DATASET_SPEC, "n_samples": 120}))
    out = tmp_path / "t"
    assert main(["train", "--dataset", str(dataset), "--model", "mlp", "--hidden", "8,8",
                 "--batch", "32", "--variant", "ssgdm", "--steps", "60", "--refresh", "20",
                 "--lanczos-steps", "10", "--seed", "11", "--out", str(out)]) == 0
    with open(out / "trace.csv") as handle:
        assert len(list(csv.reader(handle))) - 1 == 60
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["warnings"]) == 2
    assert manifest["warnings"][0].startswith("step 23: loss 13.2")
    assert manifest["warnings"][1].startswith("step 40: refresh skipped (need more than")


RUNNER_CALLS = {
    "rmt": ["rmt", "--ensemble", "wishart", "--dim", "40", "--steps", "8"],
    "spectrum": ["spectrum", "--checkpoint", "checkpoint.json", "--dataset", "dataset.json",
                 "--steps", "6", "--save-vectors"],
    "compare-diag": ["compare-diag", "--source", "wigner", "--dim", "40", "--steps", "8"],
    "train": ["train", "--dataset", "dataset.json", "--variant", "ssgd", "--steps", "10",
              "--refresh", "5", "--lanczos-steps", "5"],
    "landscape": ["landscape", "--checkpoint", "checkpoint.json", "--dataset", "dataset.json",
                  "--spectrum", "s/spectrum.json", "--n-points", "3", "--directions", "1"],
    "bounds-table": ["bounds-table", "--format", "json"],
}


@pytest.mark.parametrize("command", list(RUNNER_CALLS))
def test_every_command_writes_its_manifest_last(tmp_path, command):
    dataset, checkpoint = _write_dataset(tmp_path), _write_checkpoint(tmp_path)
    assert main(["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--steps", "6", "--save-vectors", "--out", str(tmp_path / "s")]) == 0
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in RUNNER_CALLS[command]]
    out = tmp_path / "o"
    assert main(argv + ["--seed", "5", "--out", str(out)]) == 0
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    others = [path for path in out.iterdir() if path != manifest_path]
    assert sorted(manifest["artifacts"]) == sorted(path.name for path in others)
    assert all(path.stat().st_mtime_ns <= manifest_path.stat().st_mtime_ns for path in others)
    assert (manifest["command"], manifest["seed"]) == (command, 5)
    assert manifest["flags"]["out"] == str(out) and "command" not in manifest["flags"]
    assert manifest["wall_time_s"] >= 0
    assert isinstance(manifest["warnings"], list)
    runtime = manifest["runtime"]
    assert runtime["curvlens"] == curvlens.__version__
    assert runtime["numpy"] == np.__version__
    assert runtime["dense_kernels"] in ("openblas", "numpy")
    assert (runtime["openblas"] is None) == (runtime["blas_threads"] is None)
    assert runtime["blas_threads"] is None or runtime["blas_threads"] >= 1


def test_null_analysis_fields_carry_their_reasons(tmp_path):
    out = tmp_path / "o"
    assert main(["spectrum", "--checkpoint", str(_write_checkpoint(tmp_path)),
                 "--dataset", str(_write_dataset(tmp_path)), "--steps", "3",
                 "--probe", "gaussian", "--out", str(out)]) == 0
    analysis = json.loads((out / "spectrum.json").read_text())["analysis"]
    warnings = json.loads((out / "manifest.json").read_text())["warnings"]
    # spectrum never fits Marchenko-Pastur, so its null mp_fit is not a refusal
    refused = sorted(field for field, value in analysis.items()
                     if value is None and field != "mp_fit")
    assert refused == ["lambda_b", "lambda_b_median"]
    reasons = dict(warning.split(": ", 1) for warning in warnings)
    assert sorted(reasons) == [f"analysis.{field}" for field in refused]
    assert all(reason.startswith("need more than ") for reason in reasons.values())


def test_a_lanczos_breakdown_is_a_manifest_warning(tmp_path):
    # a Rademacher probe of this logistic GGN lies in an invariant subspace: one step only
    dataset, checkpoint = _write_dataset(tmp_path), _write_checkpoint(tmp_path)
    found = {}
    for probe in ("rademacher", "gaussian"):
        out = tmp_path / probe
        assert main(["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                     "--steps", "6", "--seed", "0", "--probe", probe, "--out", str(out)]) == 0
        warnings = json.loads((out / "manifest.json").read_text())["warnings"]
        found[probe] = [warning for warning in warnings if warning.startswith("lanczos.")]
    assert found == {
        "rademacher": ["lanczos.probe0: stopped after 1 of 6 steps; its Krylov space is "
                       "invariant, so it sees only 1 eigenvalue(s)"],
        "gaussian": []}


def test_bounds_table_csv_and_json(tmp_path):
    out_csv = tmp_path / "c"
    assert main(["bounds-table", "--out", str(out_csv)]) == 0
    with open(out_csv / "bounds_table.csv") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) - 1 == 12
    out_json = tmp_path / "j"
    assert main(["bounds-table", "--format", "json", "--out", str(out_json)]) == 0
    rows_json = json.loads((out_json / "bounds_table.json").read_text())
    assert len(rows_json) == 12
    assert all(r["lanczos_bound"] < r["power_bound"] for r in rows_json)


def test_compare_diag_reports_diag_deficit(tmp_path):
    out = tmp_path / "o"
    code = main(["compare-diag", "--source", "wigner", "--dim", "150", "--steps", "15",
                 "--out", str(out)])
    assert code == 0
    with open(out / "compare_diag.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[-1][0] == "max_abs_diag_over_lambda_max"
    assert float(rows[-1][1]) < 0.5


@pytest.mark.parametrize("source, sampler", [("wigner", "sample_wigner"),
                                             ("wishart", "sample_wishart")])
def test_compare_diag_refuses_a_dim_above_the_oracle_cap_before_sampling(
        tmp_path, capsys, monkeypatch, source, sampler):
    import curvlens.rmt as rmt

    def unexpected(*args):
        raise AssertionError(f"{sampler} was called")

    monkeypatch.setattr(rmt, sampler, unexpected)
    out = tmp_path / "o"
    code = main(["compare-diag", "--source", source, "--dim", "4001", "--out", str(out)])
    _assert_refused(code, capsys, out, "curvlens compare-diag: oracle eigendecomposition "
                                       "capped at P=4000, got 4001\n")


def test_rmt_above_the_oracle_cap_skips_the_oracle(tmp_path, monkeypatch):
    import curvlens.operators as operators

    monkeypatch.setattr(operators, "ORACLE_DIM_CAP", 30)
    out = tmp_path / "o"
    assert main(["rmt", "--ensemble", "wigner", "--dim", "40", "--steps", "5",
                 "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "spectrum.json",
                                                          "stem.csv"]
    assert main(["compare-diag", "--source", "wigner", "--dim", "40", "--steps", "5",
                 "--out", str(tmp_path / "d")]) == 1


def test_rmt_says_why_the_oracle_histogram_is_missing(tmp_path, monkeypatch):
    import curvlens.operators as operators

    monkeypatch.setattr(operators, "ORACLE_DIM_CAP", 10)
    said = {}
    for fmt in ("csv", "json", None):
        out = tmp_path / str(fmt)
        argv = ["rmt", "--ensemble", "wigner", "--dim", "20", "--steps", "5", "--out", str(out)]
        assert main(argv + (["--format", fmt] if fmt else [])) == 0
        warnings = json.loads((out / "manifest.json").read_text())["warnings"]
        said[fmt] = [w for w in warnings if w.startswith("oracle_hist.csv")]
    expected = ["oracle_hist.csv: not written; the dense oracle is capped at P=10, got P=20"]
    assert said == {"csv": expected, "json": [], None: expected}


@pytest.mark.parametrize("dsymv", [True, False], ids=["dsymv", "gemv"])
@pytest.mark.parametrize("argv", [
    ["rmt", "--ensemble", "wigner", "--dim", "60", "--steps", "8"],
    ["compare-diag", "--source", "wigner", "--dim", "60", "--steps", "8"],
    ["compare-diag", "--source", "wishart", "--dim", "60", "--steps", "8"],
], ids=["rmt-wigner", "compare-diag-wigner", "compare-diag-wishart"])
def test_consuming_oracle_leaves_every_artifact_byte_identical(tmp_path, monkeypatch, argv,
                                                               dsymv):
    """LAPACK dsyevd in the matrix's own buffer and numpy.linalg on a copy write the same
    bytes, so the oracle consumes the matrix only after its last other use.  The dense
    product stays the same within a pair: dsymv and the GEMV differ by round-off."""
    import curvlens.operators as operators

    def artifacts(out):
        assert main(argv + ["--seed", "3", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        return manifest["runtime"]["dense_kernels"], {
            path.name: path.read_bytes() for path in out.iterdir() if path != out / "manifest.json"}

    if not dsymv:
        monkeypatch.setattr(operators, "_dsymv", lambda: None)
    direct = operators._dsymv() is not None and operators._dsyevd() is not None
    kernels, found = artifacts(tmp_path / "dsyevd")
    assert kernels == ("openblas" if direct else "numpy")
    monkeypatch.setattr(operators, "_dsyevd", lambda: None)
    assert artifacts(tmp_path / "numpy") == ("numpy", found)


def test_train_offers_only_the_curvature_kinds_a_refresh_can_use(tmp_path, capsys):
    out = tmp_path / "t"
    with pytest.raises(SystemExit) as err:
        main(["train", "--dataset", str(_write_dataset(tmp_path)), "--variant", "ssgd",
              "--steps", "5", "--curvature", "hessian", "--out", str(out)])
    assert err.value.code == 2
    assert "--curvature: invalid choice: 'hessian'" in capsys.readouterr().err
    assert not out.exists()


def test_planted_oracle_is_the_drawn_spectrum(tmp_path):
    spec = {"dim": 300, "groups": [{"count": 290, "dist": "uniform", "lo": 0.0, "hi": 10.0},
                                   {"count": 10, "dist": "uniform", "lo": 95.0, "hi": 105.0}]}
    spec_path = tmp_path / "planted.json"
    spec_path.write_text(json.dumps(spec))
    matrix, drawn = planted_matrix(PlantedSpectrumSpec.from_json(spec), SeedStream(4))
    solved = np.linalg.eigvalsh(matrix.entries)
    assert np.max(np.abs(drawn - solved)) <= 1e-13 * np.max(np.abs(solved))
    for argv, name in ((["compare-diag", "--source", "planted"], "compare_diag.csv"),
                       (["rmt", "--ensemble", "planted", "--format", "csv"], "oracle_hist.csv")):
        out = tmp_path / name
        assert main(argv + ["--spec", str(spec_path), "--seed", "4", "--out", str(out)]) == 0
        with open(out / name) as handle:
            rows = list(csv.reader(handle))[1:]
        oracle = np.array([float(row[0]) for row in rows[:len(drawn)]])
        np.testing.assert_array_equal(oracle, drawn)


def test_compare_diag_csv_layout(tmp_path):
    from curvlens.density import DiracMixture

    path = tmp_path / "compare_diag.csv"
    mixture = DiracMixture(atoms=((-1.0, 0.25), (2.0, 0.75)))
    serialize.write_compare_diag_csv(path, np.array([-1.5, 0.1, 2.0]),
                                     np.array([-0.25, 0.0, 0.5]), mixture, np.float64(0.25))
    assert path.read_bytes() == (b"oracle_eigenvalue,diagonal_entry,lanczos_atom,lanczos_weight\r\n"
                                 b"-1.5,-0.25,-1.0,0.25\r\n"
                                 b"0.1,0.0,2.0,0.75\r\n"
                                 b"2.0,0.5,,\r\n"
                                 b"max_abs_diag_over_lambda_max,0.25,,\r\n")


def test_spectrum_file_validation_rejects_corruption(tmp_path):
    dataset = _write_dataset(tmp_path)
    checkpoint = _write_checkpoint(tmp_path)
    out = tmp_path / "o"
    assert main(["spectrum", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--steps", "8", "--out", str(out)]) == 0
    document = json.loads((out / "spectrum.json").read_text())
    document["atoms"][0]["weight"] += 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    with pytest.raises(ValueError):
        serialize.read_spectrum(bad)
    document["schema_version"] = 99
    bad.write_text(json.dumps(document))
    with pytest.raises(ValueError):
        serialize.read_spectrum(bad)


def test_spectrum_file_atoms_are_checked_as_a_mixture(tmp_path):
    path = tmp_path / "spectrum.json"
    # sorted, summing to 1, but one weight negative; then a sum off by 5e-10
    for weights in ((-0.5, 1.5), (0.5, 0.5 + 5e-10)):
        atoms = [{"value": 1.0, "weight": weights[0]}, {"value": 2.0, "weight": weights[1]}]
        serialize.write_json(path, {"schema_version": serialize.SCHEMA_VERSION, "operator": {},
                                    "lanczos": {"steps": 2}, "atoms": atoms, "analysis": {}})
        with pytest.raises(ValueError, match="atom weights"):
            serialize.read_spectrum(path)


@settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(-1e8, 1e8), min_size=1, max_size=60),
       weights=st.lists(st.floats(1e-6, 1.0), min_size=60, max_size=60),
       seeds=st.integers(1, 8), steps=st.integers(1, 60))
def test_spectrum_document_round_trips(tmp_path, values, weights, seeds, steps):
    mixture = DiracMixture.from_arrays(values, weights[:len(values)], n_seeds=seeds, steps=steps)
    document = serialize.spectrum_document(
        mixture, {"kind": "dense", "dim": 60, "label": "dense"},
        {"steps": steps, "seeds": seeds, "probe_kind": "gaussian"},
        {"lambda_max": mixture.atoms[-1][0], "lambda_b": None})
    path = tmp_path / "spectrum.json"
    serialize.write_json(path, document)
    read = serialize.read_spectrum(path)
    assert read == document
    assert serialize.mixture_from_document(read) == mixture


# Edge values for the CLI input contract.  JSON values: numbers at the edges of
# a double, an integer too large for one, "@1e400" (written as the bare
# literal 1e400, which reads as inf) and values of the wrong kind.
EDGE_VALUES = [0, -1, 0.5, 3, 1e-310, 1e300, -1e300, 1e308, float("inf"), -float("inf"),
               float("nan"), 10**400, "@1e400", "3", None, True]
EDGE_FLOATS = ["0", "-1", "0.5", "1e-310", "1e300", "-1e300", "1e308", "inf", "-inf", "nan", "x"]
EDGE_COUNTS = ["0", "1", "2", "5", "-1", "x"]
TINY_DATASET = {"n_samples": 6, "d_in": 2, "n_c": 2, "blob_separation": 3.0, "seed": 1}


@st.composite
def _cli_calls(draw):
    """(argv, files): one command on tiny inputs, with one edge value in a spec or a flag.

    ``files`` maps the file names that ``argv`` passes to their JSON documents.
    """
    family = draw(st.sampled_from(["train", "spectrum", "planted", "sampled"]))
    dataset = dict(TINY_DATASET)
    dataset_sites = [(dataset, key, EDGE_VALUES) for key in dataset]
    if family == "train":
        argv = ["train", "--dataset", "dataset.json", "--model",
                draw(st.sampled_from(["logistic", "mlp"])), "--hidden", "2",
                "--variant", draw(st.sampled_from(["sgd_fixed", "sgdm_fixed", "ssgd"])),
                "--steps", "3", "--refresh", "2", "--lanczos-steps", "3"]
        flags = {"--alpha": "0.05", "--beta": "0.9", "--gamma": "0.01"}
        sites = [(flags, flag, EDGE_FLOATS) for flag in flags] + dataset_sites
        files = {"dataset.json": dataset}
    elif family == "spectrum":
        argv = ["spectrum", "--checkpoint", "checkpoint.json", "--dataset", "dataset.json",
                "--steps", "3"]
        flags = {}
        checkpoint = {"kind": "logistic", "d_in": 2, "n_c": 2, "weight_decay": 0.01,
                      "params": [0.1, -0.2, 0.3, 0.4]}
        sites = [(checkpoint["params"], i, EDGE_VALUES) for i in range(4)] + [
            (checkpoint, "weight_decay", EDGE_VALUES)] + dataset_sites
        files = {"checkpoint.json": checkpoint, "dataset.json": dataset}
    elif family == "planted":
        argv = draw(st.sampled_from([["rmt", "--ensemble", "planted"],
                                     ["compare-diag", "--source", "planted"]]))
        argv += ["--spec", "planted.json", "--steps", "3"]
        flags = {}
        const = {"count": 2, "dist": "const", "lo": 1.0}
        uniform = {"count": 2, "dist": "uniform", "lo": 0.0, "hi": 2.0}
        sites = [(const, "lo", EDGE_VALUES), (uniform, "hi", EDGE_VALUES)]
        files = {"planted.json": {"dim": 4, "groups": [const, uniform]}}
    else:
        argv = draw(st.sampled_from([["rmt", "--ensemble", "wigner"],
                                     ["rmt", "--ensemble", "wishart"],
                                     ["compare-diag", "--source", "wishart"]]))
        flags = {"--dim": "5", "--ratio": "2", "--steps": "3"}
        sites = [(flags, "--dim", EDGE_COUNTS), (flags, "--ratio", EDGE_FLOATS),
                 (flags, "--steps", EDGE_COUNTS)]
        files = {}
    container, key, pool = draw(st.sampled_from(sites))
    container[key] = draw(st.sampled_from(pool))
    return argv + [word for flag in flags.items() for word in flag], files


def _huge_dataset_call():
    return (["train", "--dataset", "dataset.json", "--variant", "ssgd", "--steps", "3",
             "--refresh", "2", "--lanczos-steps", "3"],
            {"dataset.json": {**TINY_DATASET, "blob_separation": 1e300}})


def _checkpoint_call(param):
    return (["spectrum", "--checkpoint", "checkpoint.json", "--dataset", "dataset.json",
             "--steps", "3"],
            {"checkpoint.json": {"kind": "logistic", "d_in": 2, "n_c": 2,
                                 "params": [param, 0.0, 0.0, 0.0]},
             "dataset.json": TINY_DATASET})


def _planted_call(lo, command="rmt"):
    source = "--ensemble" if command == "rmt" else "--source"
    return ([command, source, "planted", "--spec", "planted.json", "--steps", "3"],
            {"planted.json": {"dim": 4, "groups": [{"count": 4, "dist": "const", "lo": lo}]}})


SPECTRUM = {"schema_version": 1, "operator": {}, "analysis": {},
            "lanczos": {"steps": 3, "seeds": 1, "probe_kind": "gaussian"},
            "atoms": [{"value": 1.0, "weight": 1.0}]}


TINY_CHECKPOINT = {"kind": "logistic", "d_in": 2, "n_c": 2, "params": [0.1, -0.2, 0.3, 0.4]}


def _landscape_call(spectrum, name="spectrum.json", *flags):
    return (["landscape", "--spectrum", name, "--checkpoint", "checkpoint.json",
             "--dataset", "dataset.json", *flags],
            {name: spectrum, "dataset.json": TINY_DATASET, "checkpoint.json": TINY_CHECKPOINT})


def _saved_vectors_call(*flags):
    """landscape along one saved Ritz vector that fits TINY_CHECKPOINT; all inputs valid."""
    argv, files = _landscape_call(
        {**SPECTRUM, "lanczos": {**SPECTRUM["lanczos"], "vectors_path": "ritz_vectors.npz"}},
        "saved.json", *flags)
    archive = io.BytesIO()
    np.savez(archive, values=[1.0], weights=[1.0], vectors=np.full((4, 1), 0.5))
    return argv, {**files, "ritz_vectors.npz": archive.getvalue()}


@settings(max_examples=100)
@example(call=_landscape_call([1]))
@example(call=_landscape_call({**SPECTRUM, "atoms": [1]}))
@example(call=_landscape_call({**SPECTRUM, "atoms": None}))
@example(call=_landscape_call({**SPECTRUM, "lanczos": [1]}))
@example(call=_landscape_call({**SPECTRUM, "lanczos": {"vectors_path": 5}}))
@example(call=_landscape_call({**SPECTRUM, "lanczos": {"steps": "@1e400"}}))
@example(call=_landscape_call({**SPECTRUM, "lanczos": {"seeds": [1]}}))
@example(call=_landscape_call({k: v for k, v in SPECTRUM.items() if k != "lanczos"}))
@example(call=_huge_dataset_call())
@example(call=_checkpoint_call(float("inf")))
@example(call=_checkpoint_call("@1e400"))
@example(call=_planted_call(1e300))
@example(call=_planted_call(0.0, "compare-diag"))
@example(call=_saved_vectors_call())
# allocations larger than the 128 TiB user address space fail before any memory is touched
@example(call=(["rmt", "--ensemble", "wigner", "--dim", "10000000"], {}))  # 728 TiB
@example(call=(_checkpoint_call(0.0)[0] + ["--seeds", "10000000000000"],  # 291 TiB of probes
               _checkpoint_call(0.0)[1]))
@example(call=_saved_vectors_call("--n-points", "1000000000000001"))  # 7.11 PiB
@given(call=_cli_calls())
def test_every_command_keeps_the_input_contract(call):
    # exit 0, exit 2 from argparse, or exit 1 with one stderr line; a refused
    # command creates no --out, and no exception or warning escapes main
    argv, files = call
    with tempfile.TemporaryDirectory() as tmp:
        for name, document in files.items():
            if isinstance(document, bytes):
                (Path(tmp) / name).write_bytes(document)
            else:
                (Path(tmp) / name).write_text(json.dumps(document).replace('"@1e400"', "1e400"))
        out = Path(tmp) / "out"
        argv = [str(Path(tmp) / a) if a in files else a for a in argv] + ["--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as usage:
                code = usage.code
        err = err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        if code == 0:
            assert err == "" and out.exists(), (argv, err)
        else:
            assert not out.exists(), argv
        if code == 1:
            assert err.count("\n") == 1, (argv, err)
        if code == 1 and "spectrum.json" in files:  # each spectrum-file example is malformed
            assert str(Path(tmp) / "spectrum.json") in err, (argv, err)


def _python(*argv):
    """``python *argv`` in a fresh interpreter that imports curvlens from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)


def _run_python(code):
    done = _python("-c", code)
    done.check_returncode()
    return done.stdout.strip()


def test_import_does_not_load_scipy():
    assert _run_python("import sys, curvlens.cli; print('scipy' in sys.modules)") == "False"


def test_import_loads_each_module_on_first_use():
    report = json.loads(_run_python("""
import json, sys, types, curvlens
def loaded():
    return sorted(name for name in sys.modules if name.startswith("curvlens."))
report = {"after_import": loaded()}
curvlens.DenseSymmetric
report["after_one_name"] = loaded()
report["cached"] = "DenseSymmetric" in vars(curvlens)
try:
    curvlens.no_such_name
except AttributeError:
    report["unknown"] = "AttributeError"
from curvlens import serialize
report["serialize"] = serialize is sys.modules["curvlens.serialize"]
report["mismatched"] = []
for name in curvlens.__all__:
    value = getattr(curvlens, name)
    if isinstance(value, types.ModuleType):  # one of the seven submodules
        owner = "curvlens." + name
        same = value is sys.modules[owner]
    else:  # a name defined in the submodule it is exported from
        owner = value.__module__
        same = getattr(sys.modules[owner], name) is value
    if not (same and owner.startswith("curvlens.")):
        report["mismatched"].append(name)
print(json.dumps(report))
"""))
    assert report == {"after_import": [], "after_one_name": ["curvlens.operators"],
                      "cached": True, "unknown": "AttributeError", "serialize": True,
                      "mismatched": []}


def test_module_entry_point_runs_without_warnings(tmp_path):
    # runpy warns here if importing the package has already imported curvlens.cli
    done = _python("-W", "error", "-m", "curvlens.cli", "bounds-table", "--out", str(tmp_path))
    assert (done.returncode, done.stderr) == (0, "")
    assert (tmp_path / "bounds_table.csv").exists()
