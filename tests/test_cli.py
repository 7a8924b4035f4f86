import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairdp import cli, harness
from fairdp.classifier import ModelParams, load_checkpoint, predict_label, save_checkpoint
from fairdp.cli import main
from fairdp.dataset import CHUNK_ROWS, load_csv
from fairdp.harness import (
    ExperimentConfig,
    SyntheticSpec,
    evaluate_metrics,
    plan_run,
    synth_dataset,
)
from fairdp.optimizer import dp_fermi_train
from fairdp.privacy import (
    SENSITIVE_ONLY,
    PrivacyBudget,
    SensitivityBounds,
    noise_multiplier,
    sensitivities,
)
from helpers import reference_write_csv


@pytest.fixture()
def synth_csv(tmp_path):
    path = tmp_path / "data.csv"
    code = main(
        [
            "synth", "--n", "300", "--d-x", "4", "--bias", "0.6",
            "--seed", "3", "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestSynth:
    def test_writes_loadable_csv(self, synth_csv):
        ds = load_csv(synth_csv, "label", "sensitive")
        assert ds.n == 300 and ds.d_x == 4
        assert ds.l == 2 and ds.k == 2

    def test_deterministic(self, tmp_path):
        out = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            main(["synth", "--n", "50", "--seed", "9", "--out", str(path)])
            out.append(path.read_bytes())
        assert out[0] == out[1]

    @pytest.mark.parametrize(
        "n, d_x, k, l",
        [(1, 1, 2, 2), (300, 4, 2, 2), (CHUNK_ROWS + 1, 3, 3, 4), (2 * CHUNK_ROWS, 7, 4, 3)],
    )
    def test_matches_reference_writer_byte_for_byte(self, n, d_x, k, l, tmp_path):
        path = tmp_path / "synth.csv"
        argv = ["synth", "--n", n, "--d-x", d_x, "--k", k, "--l", l, "--bias", 0.4,
                "--noise-scale", 3.7, "--seed", 5, "--out", path]
        assert main([str(a) for a in argv]) == 0
        ds = synth_dataset(SyntheticSpec(n=n, d_x=d_x, k=k, l=l, bias=0.4, noise_scale=3.7, seed=5))
        reference_write_csv(ds, tmp_path / "reference.csv")
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_noise_scale_must_be_positive_and_finite(self, value, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        argv = ["synth", "--n", "10", "--noise-scale", value, "--out", str(out)]
        assert main(argv) == 2
        expected = f"error: noise_scale must be positive and finite, got {float(value)}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_noise_scale_that_overflows_is_config_error_naming_it(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        argv = ["synth", "--n", "10", "--noise-scale", "1e308", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: noise_scale=1e+308 overflows the features\n"
        assert not out.exists()

    def test_negative_seed_is_config_error_naming_it(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--n", "10", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()


class TestCalibrate:
    def test_reference_row(self, capsys):
        code = main(
            [
                "calibrate", "--epsilon", "1", "--delta", "1e-5", "--n", "2000",
                "--batch-size", "100", "--rho", "0.4", "--epochs", "20",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["T"] == "400"
        assert float(row["sigma_w_sq"]) == pytest.approx(0.0460517, rel=1e-5)

    def test_iteration_floor_is_config_error(self, capsys):
        code = main(
            [
                "calibrate", "--epsilon", "1", "--n", "2000",
                "--batch-size", "10", "--rho", "0.4", "--epochs", "1",
            ]
        )
        assert code == 2

    def test_epsilon_over_cap_is_config_error(self):
        code = main(
            [
                "calibrate", "--epsilon", "30", "--n", "2000",
                "--batch-size", "1000", "--rho", "0.4", "--epochs", "200",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--epsilon", "nan"], "epsilon must be positive and finite, got nan"),
            (["--epsilon", "-1"], "epsilon must be positive and finite, got -1.0"),
            (["--epsilon", "1", "--delta", "nan"], "delta must lie in (0, 1)"),
            (["--epsilon", "1", "--delta", "7"], "delta must lie in (0, 1)"),
        ],
    )
    def test_budget_is_checked_without_privacy(self, tmp_path, capsys, flags, message):
        out = tmp_path / "table.csv"
        argv = ["calibrate", "--granularity", "none", *flags, "--n", "2000",
                "--batch-size", "100", "--rho", "0.4", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("granularity", ["sensitive", "all"])
    def test_epsilon_cap_is_reported_before_the_iteration_floor(self, capsys, granularity):
        # T = 200 is far below the floor for eps = 100, which also breaks the cap
        argv = ["calibrate", "--granularity", granularity, "--epsilon", "100", "--n", "2000",
                "--batch-size", "10", "--rho", "0.4", "--epochs", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: epsilon=100.0 exceeds 2 ln(1/delta)=23.0259\n"

    @pytest.mark.parametrize("flag", ["--batch-size", "--epochs"])
    def test_zero_batch_size_or_epochs_is_config_error(self, tmp_path, capsys, flag):
        out = tmp_path / "table.csv"
        argv = ["calibrate", "--epsilon", "1", "--n", "2000", "--batch-size", "100",
                "--rho", "0.4", "--epochs", "20", flag, "0", "--out", str(out)]
        assert main(argv) == 2
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {field} must be a positive integer, got 0\n"
        assert not out.exists()

    def test_batch_size_is_capped_at_n_as_in_train(self, capsys):
        argv = ["calibrate", "--epsilon", "1", "--n", "100", "--batch-size", "1000",
                "--rho", "0.4", "--epochs", "20"]
        assert main(argv) == 0
        header, line = capsys.readouterr().out.strip().splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        # the m and T a train run on 100 rows would use
        train = synth_dataset(SyntheticSpec(n=100, d_x=2, seed=0))
        config = ExperimentConfig(dataset="unused.csv", batch_size=1000, epochs=20)
        sgda, _ = plan_run(config, train, 1.0)
        assert (row["m"], row["T"]) == (str(sgda.m), str(sgda.T)) == ("100", "20")
        bound = sensitivities(SENSITIVE_ONLY, 1.0, 1.0, 100, 0.4).delta_theta
        assert float(row["delta_theta"]) == pytest.approx(bound, rel=1e-5)

    @pytest.mark.parametrize("granularity", ["none", "sensitive", "all"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_is_config_error(self, tmp_path, capsys, granularity, n):
        out = tmp_path / "table.csv"
        argv = ["calibrate", "--granularity", granularity, "--epsilon", "1", "--n", n,
                "--batch-size", "100", "--rho", "0.4", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: n must be a positive integer, got {n}\n"
        assert not out.exists()

    ALL_FEATURES = ["calibrate", "--epsilon", "1", "--n", "100", "--batch-size", "10",
                    "--rho", "0.4", "--epochs", "20", "--granularity", "all"]

    @pytest.mark.parametrize("labels", ["1", "0", "-5"])
    def test_labels_below_two_is_config_error(self, capsys, labels):
        assert main([*self.ALL_FEATURES, "--labels", labels]) == 2
        out = capsys.readouterr()
        expected = f"error: need at least two label classes, got l={labels}\n"
        assert (out.out, out.err) == ("", expected)

    def test_two_labels_table(self, capsysbinary):
        assert main([*self.ALL_FEATURES, "--labels", "2"]) == 0
        assert capsysbinary.readouterr().out == (
            b"epsilon,delta,T,n,m,rho,sigma_theta_sq,sigma_w_sq,delta_theta,delta_w\r\n"
            b"1,1e-05,200,100,10,0.4,66.3145,25.789,1.2,0.748331\r\n"
        )

    TABLE = ["calibrate", "--epsilon", "0.5", "1", "3", "--n", "2000", "--batch-size", "100",
             "--rho", "0.4", "--epochs", "20"]

    @pytest.mark.parametrize("labels", ["2", "3"])
    @pytest.mark.parametrize("granularity", ["sensitive", "all"])
    def test_every_row_shows_the_bounds_its_noise_used(self, capsys, granularity, labels):
        # sigma^2 = z^2 Delta^2 on both channels, with the z of the row's budget
        assert main([*self.TABLE, "--granularity", granularity, "--labels", labels]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 3
        for row in rows:
            budget = PrivacyBudget(float(row["epsilon"]), float(row["delta"]))
            z = noise_multiplier(budget, int(row["T"]), int(row["n"]), int(row["m"]))
            for channel in ("theta", "w"):
                ratio = float(row[f"sigma_{channel}_sq"]) / float(row[f"delta_{channel}"]) ** 2
                assert ratio == pytest.approx(z * z, rel=1e-5), (row, channel)

    def test_none_table_shows_the_sensitive_only_bounds(self, capsysbinary):
        assert main([*self.TABLE, "--granularity", "none", "--labels", "3"]) == 0
        assert capsysbinary.readouterr().out == (
            b"epsilon,delta,T,n,m,rho,sigma_theta_sq,sigma_w_sq,delta_theta,delta_w\r\n"
            b"0.5,1e-05,400,2000,100,0.4,0,0,0.0447214,0.0447214\r\n"
            b"1,1e-05,400,2000,100,0.4,0,0,0.0447214,0.0447214\r\n"
            b"3,1e-05,400,2000,100,0.4,0,0,0.0447214,0.0447214\r\n"
        )

    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsysbinary):
        assert main(self.TABLE) == 0
        stdout = capsysbinary.readouterr().out
        assert stdout.count(b"\r\n") == 4
        out = tmp_path / "table.csv"
        assert main([*self.TABLE, "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert out.read_bytes() == stdout


class TestTrainEvaluate:
    def test_train_then_evaluate(self, synth_csv, tmp_path, capsys):
        ckpt = tmp_path / "model.json"
        code = main(
            [
                "train", "--dataset", str(synth_csv), "--epsilon", "3",
                "--lambda", "1.0", "--epochs", "20", "--batch-size", "64",
                "--box-radius", "1", "--seed", "1", "--out", str(ckpt),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dp_violation=" in out and "error=" in out
        payload = json.loads(ckpt.read_text())
        assert payload["d_x"] == 4

        code = main(
            ["evaluate", "--dataset", str(synth_csv), "--checkpoint", str(ckpt)]
        )
        assert code == 0
        assert "ermi_hard=" in capsys.readouterr().out

    def test_missing_column_is_config_error(self, synth_csv, capsys):
        code = main(
            ["train", "--dataset", str(synth_csv), "--label-col", "nope"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "text, repeated",
        [
            ("x,x,label,sensitive\n" + "1,2,a,m\n2,1,b,f\n" * 8, "['x']"),
            ("label,x,label,sensitive\n" + "a,1,b,m\nb,2,a,f\n" * 8, "['label']"),
        ],
        ids=["feature", "label"],
    )
    def test_a_repeated_column_name_is_config_error(self, tmp_path, capsys, text, repeated):
        path = tmp_path / "repeated.csv"
        path.write_text(text)
        ckpt = tmp_path / "model.json"
        argv = ["train", "--dataset", str(path), "--epochs", "1", "--out", str(ckpt)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: header repeats the column name(s) {repeated}\n")
        assert not ckpt.exists()


class TestEvaluateLabelNames:
    """evaluate encodes labels through the checkpoint's label names and
    reads features by the checkpoint's feature names."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("evaluate")
        data, ckpt = tmp / "data.csv", tmp / "model.json"
        argv = ["synth", "--n", "3000", "--d-x", "5", "--bias", "0.6", "--seed", "1",
                "--out", data]
        assert main([str(a) for a in argv]) == 0
        argv = ["train", "--dataset", data, "--epsilon", "3", "--lambda", "1", "--epochs", "20",
                "--batch-size", "256", "--seed", "1", "--out", ckpt]
        assert main([str(a) for a in argv]) == 0
        header, *rows = data.read_text(encoding="utf-8").splitlines(keepends=True)
        # move the first row whose label differs from the first row's to the
        # top, so first-appearance order swaps the two label codes
        label = [row.split(",")[-2] for row in rows]
        moved = next(i for i in range(len(rows)) if label[i] != label[0])
        reordered = tmp / "reordered.csv"
        reordered.write_text(
            header + rows[moved] + "".join(rows[:moved] + rows[moved + 1 :]), encoding="utf-8"
        )
        return data, reordered, ckpt

    @staticmethod
    def _evaluate(capsys, data, ckpt):
        code = main(["evaluate", "--dataset", str(data), "--checkpoint", str(ckpt)])
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_reordered_rows_give_the_same_metrics(self, trained, capsys):
        data, reordered, ckpt = trained
        code, expected, _ = self._evaluate(capsys, data, ckpt)
        assert code == 0
        assert float(expected.split()[0].removeprefix("error=")) < 0.1
        assert self._evaluate(capsys, reordered, ckpt) == (0, expected, "")

    def test_unknown_label_is_config_error_naming_it(self, trained, tmp_path, capsys):
        data, _, ckpt = trained
        header, first, *rows = data.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = first.split(",")
        cells[-2] = "maybe"
        bad = tmp_path / "bad.csv"
        bad.write_text(header + ",".join(cells) + "".join(rows), encoding="utf-8")
        code, out, err = self._evaluate(capsys, bad, ckpt)
        assert (code, out) == (2, "")
        assert err.startswith("error: label 'maybe' is not one of the checkpoint's labels")

    @staticmethod
    def _filtered(data, path, column, value):
        """data's header and the rows whose `column` (-2 label, -1 group) is value."""
        header, *rows = data.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [row for row in rows if row.rstrip().split(",")[column] == value]
        path.write_text(header + "".join(kept), encoding="utf-8")
        return path, len(kept)

    def test_csv_with_one_label_class(self, trained, tmp_path, capsys):
        data, _, ckpt = trained
        one_label, n = self._filtered(data, tmp_path / "one_label.csv", -2, "2")
        assert 0 < n < 3000
        code, out, err = self._evaluate(capsys, one_label, ckpt)
        assert (code, err) == (0, "")
        metrics = dict(line.split("=") for line in out.splitlines())
        assert list(metrics) == ["error", "dp_violation", "ermi_hard", "eo_violation"]
        assert metrics["eo_violation"] == "nan"
        # the error is the share of those rows not predicted as label "2"
        theta, metadata = load_checkpoint(ckpt)
        ds = load_csv(data, "label", "sensitive")
        rows = np.array(ds.label_names)[ds.labels - 1] == "2"
        preds = predict_label(theta, ds.features[rows])
        expected = (preds != metadata["label_names"].index("2") + 1).mean()
        assert float(metrics["error"]) == pytest.approx(expected, rel=1e-5)

    def test_csv_with_one_group_is_config_error(self, trained, tmp_path, capsys):
        data, _, ckpt = trained
        one_group, n = self._filtered(data, tmp_path / "one_group.csv", -1, "1")
        assert 0 < n < 3000
        code, out, err = self._evaluate(capsys, one_group, ckpt)
        assert (code, out) == (2, "")
        assert err == "error: need at least two sensitive groups, got k=1\n"

    def test_checkpoint_without_names_uses_first_appearance(self, trained, tmp_path, capsys):
        _, reordered, ckpt = trained
        payload = json.loads(ckpt.read_text(encoding="utf-8"))
        payload["metadata"] = {}
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(payload), encoding="utf-8")
        theta = ModelParams(
            np.reshape(payload["weights"], (payload["l"], payload["d_x"])), payload["bias"]
        )
        metrics = evaluate_metrics(theta, load_csv(reordered, "label", "sensitive"))
        expected = "".join(f"{name}={value:.6g}\n" for name, value in metrics.items())
        assert self._evaluate(capsys, reordered, bare) == (0, expected, "")

    @pytest.mark.parametrize("model_l, data_l", [(3, 2), (2, 3)])
    def test_unnamed_checkpoint_with_another_label_count(self, model_l, data_l, tmp_path, capsys):
        data, bare = tmp_path / "data.csv", tmp_path / "bare.json"
        argv = ["synth", "--n", "600", "--d-x", "3", "--l", data_l, "--seed", "1", "--out", data]
        assert main([str(a) for a in argv]) == 0
        capsys.readouterr()
        payload = {"l": model_l, "d_x": 3, "weights": [0] * (3 * model_l),
                   "bias": [0] * (model_l - 1) + [5]}
        bare.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = self._evaluate(capsys, data, bare)
        assert (code, out) == (2, "")
        assert err == f"error: the checkpoint has {model_l} label classes, the dataset {data_l}\n"

    def test_checkpoint_with_another_feature_count(self, trained, tmp_path, capsys):
        # without feature names only the count can be checked
        data, unnamed = tmp_path / "data.csv", tmp_path / "unnamed.json"
        argv = ["synth", "--n", "600", "--d-x", "4", "--seed", "1", "--out", data]
        assert main([str(a) for a in argv]) == 0
        capsys.readouterr()
        payload = json.loads(trained[2].read_text(encoding="utf-8"))
        del payload["metadata"]["feature_names"]
        unnamed.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = self._evaluate(capsys, data, unnamed)
        assert (code, out) == (2, "")
        assert err == "error: the checkpoint has 5 features, the dataset 4\n"

    @staticmethod
    def _columns(data, path, order, header=None):
        """data's columns in the given order, under header if one is given."""
        with data.open(encoding="utf-8", newline="") as fh:
            rows = [[row[i] for i in order] for row in csv.reader(fh)]
        rows[0] = rows[0] if header is None else header
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return path

    def test_permuted_feature_columns_give_the_same_bytes(self, trained, tmp_path, capsys):
        data, _, ckpt = trained
        # the features reversed, behind the label and sensitive columns
        permuted = self._columns(data, tmp_path / "permuted.csv", [5, 6, 4, 3, 2, 1, 0])
        code, expected, _ = self._evaluate(capsys, data, ckpt)
        assert code == 0
        assert self._evaluate(capsys, permuted, ckpt) == (0, expected, "")

    @pytest.mark.parametrize(
        "order, features",
        [
            ([0, 1, 2, 3, 4, 5, 6], ["f0", "f1", "x2", "f3", "f4"]),
            ([0, 1, 2, 3, 4, 4, 5, 6], ["f0", "f1", "f2", "f3", "f4", "f4"]),
            ([0, 1, 3, 4, 5, 6], ["f0", "f1", "f3", "f4"]),
            ([0, 1, 2, 3, 4, 0, 5, 6], ["f0", "f1", "f2", "f3", "f4", "f5"]),
        ],
        ids=["renamed", "duplicated", "dropped", "added"],
    )
    def test_other_feature_columns_are_config_error_naming_both_lists(
        self, trained, tmp_path, capsys, order, features
    ):
        data, _, ckpt = trained
        header = [*features, "label", "sensitive"]
        other = self._columns(data, tmp_path / "other.csv", order, header)
        code, out, err = self._evaluate(capsys, other, ckpt)
        assert (code, out) == (2, "")
        names = ["f0", "f1", "f2", "f3", "f4"]
        message = f"feature columns {features} are not the checkpoint's features {names}"
        assert err == f"error: {message}\n"


class TestMalformedCheckpoint:
    """A checkpoint that is not UTF-8 JSON, lacks a field or holds a
    malformed one exits 2 with one error line naming the file or the field."""

    @staticmethod
    def _payload():
        theta = ModelParams(np.arange(8.0).reshape(2, 4) / 10, np.array([0.1, -0.1]))
        return {"l": 2, "d_x": 4, "weights": theta.weights.ravel().tolist(),
                "bias": theta.bias.tolist(), "metadata": {"label_names": ["1", "2"]}}

    def _evaluate(self, synth_csv, tmp_path, capsys, payload):
        ckpt = tmp_path / "model.json"
        ckpt.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["evaluate", "--dataset", str(synth_csv), "--checkpoint", str(ckpt)])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        return out.err

    def test_well_formed_payload_evaluates(self, synth_csv, tmp_path, capsys):
        ckpt = tmp_path / "model.json"
        ckpt.write_text(json.dumps(self._payload()), encoding="utf-8")
        assert main(["evaluate", "--dataset", str(synth_csv), "--checkpoint", str(ckpt)]) == 0

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"", "Expecting value: line 1 column 1 (char 0)"),
            (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ],
        ids=["not-json", "not-utf8"],
    )
    def test_unreadable_file_is_named(self, synth_csv, tmp_path, capsys, content, reason):
        ckpt = tmp_path / "model.json"
        ckpt.write_bytes(content)
        code = main(["evaluate", "--dataset", str(synth_csv), "--checkpoint", str(ckpt)])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err == f"error: checkpoint {ckpt} is not UTF-8 JSON: {reason}\n"

    def test_empty_object(self, synth_csv, tmp_path, capsys):
        err = self._evaluate(synth_csv, tmp_path, capsys, {})
        assert err == "error: checkpoint has no 'l' field\n"

    def test_not_an_object(self, synth_csv, tmp_path, capsys):
        err = self._evaluate(synth_csv, tmp_path, capsys, [1, 2])
        assert err == "error: checkpoint must be a JSON object\n"

    def test_missing_bias(self, synth_csv, tmp_path, capsys):
        payload = self._payload()
        del payload["bias"]
        err = self._evaluate(synth_csv, tmp_path, capsys, payload)
        assert err == "error: checkpoint has no 'bias' field\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("l", "2", "checkpoint fields 'l' and 'd_x' must be positive integers"),
            ("d_x", 0, "checkpoint fields 'l' and 'd_x' must be positive integers"),
            ("l", True, "checkpoint fields 'l' and 'd_x' must be positive integers"),
            ("weights", [0.0] * 7, "checkpoint field 'weights' must hold 8 numbers"),
            ("weights", [[0.0] * 4] * 2, "checkpoint field 'weights' must hold 8 numbers"),
            ("weights", ["a"] * 8, "checkpoint field 'weights' must hold 8 numbers"),
            ("bias", {"a": 1}, "checkpoint field 'bias' must hold 2 numbers"),
            ("bias", None, "checkpoint field 'bias' must hold 2 numbers"),
            ("metadata", [], "checkpoint field 'metadata' must be a JSON object"),
            # JSON numbers only: no strings or booleans numpy would convert,
            # and none of the non-finite values Python's json module accepts
            ("weights", ["0.5"] * 8, "checkpoint field 'weights' must hold 8 numbers"),
            ("weights", [True, False] * 4, "checkpoint field 'weights' must hold 8 numbers"),
            ("weights", [10 ** 400] + [0] * 7, "checkpoint field 'weights' must hold 8 numbers"),
            ("weights", [-math.inf] + [0.0] * 7, "checkpoint field 'weights' must hold 8 numbers"),
            ("bias", [math.nan, 0.0], "checkpoint field 'bias' must hold 2 numbers"),
            ("bias", [0.0, math.inf], "checkpoint field 'bias' must hold 2 numbers"),
        ],
    )
    def test_malformed_field(self, synth_csv, tmp_path, capsys, field, value, message):
        payload = self._payload()
        payload[field] = value
        assert self._evaluate(synth_csv, tmp_path, capsys, payload) == f"error: {message}\n"

    @pytest.mark.parametrize("names", [["1"], ["1", "1"], ["1", 2], "12", 5, [["1"], ["2"]]])
    def test_malformed_label_names(self, synth_csv, tmp_path, capsys, names):
        payload = self._payload()
        payload["metadata"]["label_names"] = names
        err = self._evaluate(synth_csv, tmp_path, capsys, payload)
        assert err == "error: checkpoint field 'label_names' must list 2 distinct names\n"

    @pytest.mark.parametrize(
        "names",
        [["f0"], ["f0", "f0", "f1", "f2"], ["f0", "f1", "f2", 3], "f0f1f2f3", 4, [["f0"]] * 4],
    )
    def test_malformed_feature_names(self, synth_csv, tmp_path, capsys, names):
        payload = self._payload()
        payload["metadata"]["feature_names"] = names
        err = self._evaluate(synth_csv, tmp_path, capsys, payload)
        assert err == "error: checkpoint field 'feature_names' must list 4 distinct names\n"


class TestExitCodes:
    @pytest.mark.filterwarnings("error")
    def test_evaluate_with_overflowing_logits_is_config_error(self, synth_csv, tmp_path, capsys):
        ckpt = tmp_path / "huge.json"
        save_checkpoint(ModelParams(np.full((2, 4), 1e308), np.zeros(2)), ckpt)
        code = main(["evaluate", "--dataset", str(synth_csv), "--checkpoint", str(ckpt)])
        assert code == 2
        assert "error: non-finite logits" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_logit_overflow_in_training_is_divergence(self, tmp_path, capsys):
        # features of 1e200 keep the first step finite, but its update makes
        # the second step's logits overflow while theta itself stays finite
        path = tmp_path / "huge.csv"
        rows = ["f0,f1,label,sensitive"]
        rows += [f"{(-1) ** i * 1e200},{1e200},{i % 2},{i // 2 % 2}" for i in range(40)]
        path.write_text("\n".join(rows) + "\n")
        code = main(
            [
                "train", "--dataset", str(path), "--granularity", "none", "--clip", "0",
                "--lambda", "1", "--epochs", "1", "--batch-size", "10",
            ]
        )
        assert code == 3
        assert "error: non-finite logits at iteration 2" in capsys.readouterr().err

    def test_overflow_prints_only_the_error_line(self, synth_csv, tmp_path):
        # a real interpreter, where numpy warnings reach stderr uncaptured
        ckpt = tmp_path / "huge.json"
        save_checkpoint(ModelParams(np.full((2, 4), 1e308), np.zeros(2)), ckpt)
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "fairdp", "evaluate", "--dataset", str(synth_csv),
             "--checkpoint", str(ckpt)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: non-finite logits\n"

    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep", "audit-sensitivity"])
    @pytest.mark.parametrize("where", ["row", "header"])
    def test_a_cell_over_the_field_size_limit_is_config_error(
        self, tmp_path, capsys, command, where
    ):
        # csv.reader refuses a cell longer than csv.field_size_limit()
        long_cell = "z" * 200_000
        path = tmp_path / "long.csv"
        if where == "row":
            path.write_text(f"x,label,sensitive\n1,a,m\n2,{long_cell},f\n")
            message = "error: field larger than field limit (131072) (row 1)\n"
        else:
            path.write_text(f"x,label,sensitive,{long_cell}\n1,a,m,2\n")
            message = "error: unreadable header: field larger than field limit (131072)\n"
        ckpt = tmp_path / "model.json"
        argv = {
            "train": ["--epochs", "1"],
            "evaluate": ["--checkpoint", str(ckpt)],
            "sweep": ["--epochs", "1", "--out", str(tmp_path / "records.csv")],
            "audit-sensitivity": [],
        }[command]
        if command == "evaluate":  # a checkpoint of the same columns
            good = tmp_path / "good.csv"
            good.write_text("x,label,sensitive\n" + "1,a,m\n2,b,f\n3,a,f\n4,b,m\n" * 4)
            train = ["train", "--dataset", str(good), "--epochs", "1", "--out", str(ckpt)]
            assert main(train) == 0
            capsys.readouterr()
        assert main([command, "--dataset", str(path), *argv]) == 2
        assert capsys.readouterr() == ("", message)

    def test_an_allocation_failure_is_config_error(self, tmp_path, capsys, monkeypatch):
        # numpy's message for `fairdp synth --n 100000000000`, without the
        # allocation: the stand-in raises before any memory is asked for
        def too_large(spec):
            raise MemoryError(
                f"Unable to allocate 745. GiB for an array with shape ({spec.n}, 1) and "
                "data type float64"
            )

        monkeypatch.setattr(cli, "synth_dataset", too_large)
        out = tmp_path / "big.csv"
        assert main(["synth", "--n", "100000000000", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: Unable to allocate 745. GiB for an array with shape "
            "(100000000000, 1) and data type float64\n"
        )
        assert not out.exists()

    def test_all_features_privacy_without_clip_is_config_error(self, synth_csv, capsys):
        code = main(
            [
                "train", "--dataset", str(synth_csv), "--granularity", "all",
                "--clip", "0", "--epsilon", "3", "--epochs", "20", "--batch-size", "64",
            ]
        )
        assert code == 2
        assert "requires loss-gradient clipping" in capsys.readouterr().err


class TestOverflow:
    """Finite parameters whose noise or sensitivity formulas overflow are
    configuration errors (exit 2) with one error line, not tracebacks."""

    CALIBRATE = ["calibrate", "--epsilon", "1", "--n", "2000", "--batch-size", "100",
                 "--rho", "0.4", "--epochs", "20"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--dataset", "{csv}", "--epochs", "5", "--batch-size", "64",
             "--box-radius", "1e200"],
            [*CALIBRATE, "--box-radius", "1e308"],
            [*CALIBRATE, "--l-theta", "1e200"],
            [*CALIBRATE, "--granularity", "all", "--box-radius", "1e200"],
            ["audit-sensitivity", "--dataset", "{csv}", "--box-radius", "1e300"],
            ["audit-sensitivity", "--dataset", "{csv}", "--box-radius", "1e308"],
        ],
        ids=["train", "calibrate_box_radius", "calibrate_l_theta", "calibrate_all",
             "audit_1e300", "audit_1e308"],
    )
    def test_exits_2_with_one_error_line(self, synth_csv, capsys, argv):
        assert main([a.format(csv=synth_csv) for a in argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--epsilon", "1e-300"], "epsilon=1e-300 is too small for the noise multiplier"),
            (["--epsilon", "1e-160"], "epsilon=1e-160 is too small for the noise multiplier"),
            (["--epochs", "1" + "0" * 319], "iteration count T overflows the noise multiplier"),
            (["--granularity", "all", "--labels", "1" + "0" * 399],
             "number of label classes l overflows the sensitivity bounds"),
            (["--n", "1" + "0" * 399], "n overflows the noise multiplier"),
            (["--n", "1" + "0" * 154, "--epsilon", "20"], "n overflows the iteration floor"),
            (["--epsilon", "1e-152", "--box-radius", "1e3"],
             "epsilon=1e-152 with box radius D=1000.0 overflows the noise variances"),
        ],
        ids=["epsilon_1e-300", "epsilon_1e-160", "epochs_320_digits", "labels_400_digits",
             "n_400_digits", "n_155_digits", "epsilon_1e-152"],
    )
    def test_error_line_names_the_parameter(self, capsys, flags, message):
        # epsilon ** 2 underflows; T * m * m, n * n and l are ints too large
        # for a float; n * n * epsilon and z^2 Delta^2 overflow
        argv = ["calibrate", "--epsilon", "1", "--n", "100", "--batch-size", "10",
                "--rho", "0.4", *flags]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"


class TestHyperparameterValidation:
    """Non-finite hyperparameters and a negative clip are configuration
    errors (exit 2) before any data is read, not silent defaults or
    divergences; the error line names the parameter and its value."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--clip", "nan", "clip_theta must be positive and finite, got nan"),
            ("--clip", "inf", "clip_theta must be positive and finite, got inf"),
            ("--clip", "-1", "clip_theta must be positive and finite, got -1.0"),
            ("--eta-w", "inf", "eta_w must be positive and finite, got inf"),
            ("--eta-theta", "nan", "eta_theta must be positive and finite, got nan"),
            ("--lambda", "nan", "lam must be finite and nonnegative"),
            ("--lambda", "inf", "lam must be finite and nonnegative"),
        ],
    )
    def test_train_rejects(self, synth_csv, tmp_path, capsys, flag, value, message):
        out = tmp_path / "model.json"
        code = main(
            [
                "train", "--dataset", str(synth_csv), "--epsilon", "3", "--epochs", "5",
                "--batch-size", "64", flag, value, "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--clip", "nan"], "clip_theta must be positive and finite, got nan"),
            (["--lambda", "0", "nan"], "lam must be finite and nonnegative"),
        ],
    )
    def test_sweep_rejects(self, synth_csv, tmp_path, capsys, flags, message):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--dataset", str(synth_csv), "--epsilon", "3", "--epochs", "5",
                "--batch-size", "64", *flags, "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestTrainAndSweepShareValidation:
    """train and sweep build one ExperimentConfig, so the same bad flags
    fail both before any data is read, with the same error line."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--batch-size", "0"], "batch_size must be a positive integer, got 0"),
            (["--epochs", "0"], "epochs must be a positive integer, got 0"),
            (["--granularity", "none", "--epsilon", "nan"],
             "epsilon must be positive and finite, got nan"),
            (["--granularity", "none", "--epsilon", "-1"],
             "epsilon must be positive and finite, got -1.0"),
            (["--granularity", "all", "--clip", "0"],
             "all-features privacy requires loss-gradient clipping"),
            (["--granularity", "none", "--delta", "nan"], "delta must lie in (0, 1)"),
            (["--granularity", "none", "--delta", "7"], "delta must lie in (0, 1)"),
            (["--granularity", "none", "--delta", "0"], "delta must lie in (0, 1)"),
            (["--seed", "-1"], "master_seed must be a non-negative integer, got -1"),
            (["--lambda", "nan"], "lam must be finite and nonnegative"),
        ],
    )
    def test_same_error_line(self, synth_csv, tmp_path, capsys, flags, message):
        for command in ("train", "sweep"):
            out = tmp_path / f"{command}.out"
            argv = [command, "--dataset", str(synth_csv), "--epochs", "5",
                    "--batch-size", "64", *flags, "--out", str(out)]
            assert main(argv) == 2, command
            assert capsys.readouterr().err == f"error: {message}\n", command
            assert not out.exists()


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("granularity", ["sensitive", "all", "none"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--eta-theta", "nan"], "eta_theta must be positive and finite, got nan"),
            (["--eta-w", "0"], "eta_w must be positive and finite, got 0.0"),
            (["--box-radius", "nan"], "box radius D must be positive and finite, got nan"),
            (["--box-radius", "-1"], "box radius D must be positive and finite, got -1.0"),
            (["--box-radius", "inf"], "box radius D must be positive and finite, got inf"),
            (["--clip", "-1"], "clip_theta must be positive and finite, got -1.0"),
            (["--clip", "nan"], "clip_theta must be positive and finite, got nan"),
            (["--clip", "inf"], "clip_theta must be positive and finite, got inf"),
        ],
    )
    def test_step_sizes_box_radius_and_clip_are_checked_first(
        self, tmp_path, capsys, granularity, flags, message
    ):
        # the dataset does not exist, so a check made after reading it would
        # print the missing file instead
        for command in ("train", "sweep"):
            out = tmp_path / f"{command}.out"
            argv = [command, "--dataset", str(tmp_path / "missing.csv"), "--granularity",
                    granularity, *flags, "--out", str(out)]
            assert main(argv) == 2, command
            assert capsys.readouterr().err == f"error: {message}\n", command
            assert not out.exists()

    @pytest.mark.parametrize("where", ["missing_directory", "in_a_file", "a_directory", "empty"])
    def test_out_is_checked_before_the_dataset_is_read(
        self, synth_csv, tmp_path, capsys, monkeypatch, where
    ):
        # every --out passes one check. train and sweep get a dataset that
        # does not exist, so a check made after reading it would print the
        # missing file instead; synth and calibrate must not start their work
        out = {
            "missing_directory": str(tmp_path / "missing" / "m.json"),
            "in_a_file": str(synth_csv / "m.json"),
            "a_directory": str(tmp_path),
            "empty": "",
        }[where]
        if not out:
            message = "--out must not be empty"
        elif os.path.isdir(out):
            message = f"--out {out} is a directory"
        else:
            message = f"--out {out}: {os.path.dirname(out)} is not a directory"

        def work(*args):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(cli, "synth_dataset", work)
        monkeypatch.setattr(cli, "run_length", work)
        missing = ["--dataset", str(tmp_path / "missing.csv")]
        for argv in (
            ["train", *missing],
            ["sweep", *missing],
            ["synth", "--n", "200"],
            ["calibrate", "--epsilon", "1", "--n", "100", "--batch-size", "10", "--rho", "0.4"],
        ):
            assert main([*argv, "--out", out]) == 2, argv[0]
            assert capsys.readouterr() == ("", f"error: {message}\n"), argv[0]

    @pytest.mark.parametrize("spelling", ["same_path", "symlink"])
    def test_out_that_is_the_dataset_is_refused_before_it_is_read(
        self, synth_csv, tmp_path, capsys, monkeypatch, spelling
    ):
        # the run would overwrite its own input
        out = synth_csv
        if spelling == "symlink":
            out = tmp_path / "link.csv"
            out.symlink_to(synth_csv)
        before = synth_csv.read_bytes()

        def work(*args):
            raise AssertionError("the dataset was read before --out was checked")

        monkeypatch.setattr(harness, "load_experiment_dataset", work)
        monkeypatch.setattr(cli, "run_sweep", work)
        for command in ("train", "sweep"):
            argv = [command, "--dataset", str(synth_csv), "--epochs", "5", "--batch-size", "64",
                    "--out", str(out)]
            assert main(argv) == 2, command
            assert capsys.readouterr() == ("", f"error: --out {out} is the --dataset file\n")
            assert synth_csv.read_bytes() == before

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_audit_prints_the_box_radius_line_of_train(self, synth_csv, tmp_path, capsys, value):
        argv = ["train", "--dataset", str(tmp_path / "missing.csv"), "--box-radius", value]
        assert main(argv) == 2
        line = capsys.readouterr().err
        assert line == f"error: box radius D must be positive and finite, got {float(value)}\n"
        argv = ["audit-sensitivity", "--dataset", str(synth_csv), "--box-radius", value]
        assert main(argv) == 2
        assert capsys.readouterr().err == line


class TestTestSplitLackingAGroup:
    @staticmethod
    def refused(synth_csv, tmp_path, monkeypatch, command, cells, *flags):
        """The exit code and training calls of `command` with flags on a copy
        of synth_csv whose cells (data row, column, value) are rewritten."""
        with synth_csv.open(newline="") as fh:
            rows = list(csv.reader(fh))
        for row, column, value in cells:
            rows[row + 1][column] = value
        path = tmp_path / "one-row-group.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        calls = []

        def training(*args):
            calls.append(args)
            return dp_fermi_train(*args)

        monkeypatch.setattr(cli, "dp_fermi_train", training)
        monkeypatch.setattr(harness, "dp_fermi_train", training)
        argv = [command, "--dataset", str(path), "--epochs", "5", "--batch-size", "64",
                "--out", str(tmp_path / "out"), *flags]
        return main(argv), calls

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_exits_2_before_any_run_trains(self, synth_csv, tmp_path, capsys, monkeypatch, command):
        # data row 1 becomes the one row of group "3", and the split at seed
        # 0 puts it in the train split, so the test split lacks the group
        code, calls = self.refused(synth_csv, tmp_path, monkeypatch, command, [(1, -1, "3")])
        assert code == 2
        message = "error: sensitive group(s) ['3'] have no samples in the test split\n"
        assert capsys.readouterr() == ("", message)
        assert calls == []

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_a_train_split_lacking_a_group_exits_2_before_any_run_trains(
        self, synth_csv, tmp_path, capsys, monkeypatch, command
    ):
        # data row 95 goes to the test split at seed 0, so the train split
        # lacks its group
        code, calls = self.refused(synth_csv, tmp_path, monkeypatch, command, [(95, -1, "3")])
        assert code == 2
        message = "error: sensitive group(s) ['3'] have no samples in the train split\n"
        assert capsys.readouterr() == ("", message)
        assert calls == []

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_an_eo_train_split_lacking_a_cell_exits_2_before_any_run_trains(
        self, synth_csv, tmp_path, capsys, monkeypatch, command
    ):
        # label "3", code 3 by first appearance, has two rows: data row 6, of
        # group "1", goes to the train split at seed 0 and data row 95, of
        # group "2", to the test split, so the train split lacks the (3, "2")
        # cell that equalized odds needs
        cells = [(6, -2, "3"), (6, -1, "1"), (95, -2, "3"), (95, -1, "2")]
        code, calls = self.refused(synth_csv, tmp_path, monkeypatch, command, cells)
        assert code == 0 and calls  # demographic parity needs no such cell
        capsys.readouterr()
        code, calls = self.refused(
            synth_csv, tmp_path, monkeypatch, command, cells, "--notion", "eo"
        )
        assert code == 2
        message = (
            "error: within label class '3': sensitive group(s) ['2'] have no samples"
            " in the train split\n"
        )
        assert capsys.readouterr() == ("", message)
        assert calls == []


class TestNonFinitePrivacyParameters:
    """NaN and infinite privacy parameters exit 2 with an error line that
    names the parameter, on every command that calibrates noise."""

    ARGV = {
        "train": ["train", "--dataset", "{csv}", "--epochs", "5", "--batch-size", "64",
                  "--out", "{out}"],
        "sweep": ["sweep", "--dataset", "{csv}", "--epochs", "5", "--batch-size", "64",
                  "--out", "{out}"],
        "calibrate": ["calibrate", "--n", "2000", "--batch-size", "100", "--rho", "0.4",
                      "--epochs", "20", "--out", "{out}"],
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", sorted(ARGV))
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--epsilon", "nan"], "epsilon must be positive and finite, got nan"),
            (["--epsilon", "inf"], "epsilon must be positive and finite, got inf"),
            (["--epsilon", "3", "--delta", "nan"], "delta must lie in (0, 1)"),
            (["--epsilon", "3", "--box-radius", "nan"],
             "box radius D must be positive and finite, got nan"),
            (["--epsilon", "3", "--box-radius", "inf"],
             "box radius D must be positive and finite, got inf"),
        ],
    )
    def test_exit_2_naming_the_parameter(
        self, synth_csv, tmp_path, capsys, command, flags, message
    ):
        out = tmp_path / "out"
        argv = [a.format(csv=synth_csv, out=out) for a in self.ARGV[command]]
        assert main(argv + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--rho", "rho must lie in (0, 1], got {}"),
            ("--l-theta", "Lipschitz constant L_theta must be positive and finite, got {}"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_calibrate_rejects_group_floor_and_lipschitz_constant(
        self, tmp_path, capsys, flag, message, value
    ):
        argv = [a.format(out=tmp_path / "out") for a in self.ARGV["calibrate"]]
        argv += ["--epsilon", "3", flag, value]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message.format(value)}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("train", ["--box-radius", "1e200"], "box radius D=1e+200"),
            ("calibrate", ["--l-theta", "1e200"], "Lipschitz constant L_theta=1e+200"),
            ("calibrate", ["--granularity", "all", "--box-radius", "1e100"], "box radius D=1e+100"),
        ],
    )
    def test_overflow_names_the_parameter(
        self, synth_csv, tmp_path, capsys, command, flags, message
    ):
        out = tmp_path / "out"
        argv = [a.format(csv=synth_csv, out=out) for a in self.ARGV[command]]
        assert main(argv + ["--epsilon", "3", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message} overflows the sensitivity bounds\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_audit_rejects_non_finite_box_radius(self, synth_csv, capsys, value):
        argv = ["audit-sensitivity", "--dataset", str(synth_csv), "--box-radius", value]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: box radius D must be positive and finite, got {value}\n"
        )


class TestSweep:
    def test_sweep_writes_deterministic_csv(self, synth_csv, tmp_path):
        args = [
            "sweep", "--dataset", str(synth_csv), "--epsilon", "3",
            "--lambda", "0", "1.0", "--trials", "2", "--epochs", "10",
            "--batch-size", "64", "--seed", "4", "--granularity", "sensitive",
        ]
        outputs = []
        for name in ("s1.csv", "s2.csv"):
            path = tmp_path / name
            assert main(args + ["--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        lines = outputs[0].decode().strip().splitlines()
        assert len(lines) == 1 + 2 * 2

    def test_none_granularity(self, synth_csv, tmp_path):
        path = tmp_path / "plain.csv"
        code = main(
            [
                "sweep", "--dataset", str(synth_csv), "--lambda", "0",
                "--trials", "1", "--epochs", "5", "--batch-size", "64",
                "--granularity", "none", "--out", str(path),
            ]
        )
        assert code == 0
        row = path.read_text().strip().splitlines()[1]
        assert ",0,0," in row  # zero noise variances


class TestAudit:
    def test_audit_passes_on_synthetic(self, synth_csv, capsys):
        code = main(
            [
                "audit-sensitivity", "--dataset", str(synth_csv),
                "--trials", "200", "--batch-size", "10", "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    @pytest.fixture()
    def saturated_csv(self, tmp_path):
        # features of +-1e308 saturate every prediction, so each flip moves the
        # dual gradient by exactly the W bound and only rounding decides
        path = tmp_path / "saturated.csv"
        x = np.random.default_rng(0).choice([-1e308, 1e308], size=40)
        rows = [f"{v!r},{i % 2 + 1},{i // 20 + 1}" for i, v in enumerate(x.tolist())]
        path.write_text("\n".join(["f0,label,sensitive", *rows]) + "\n")
        return path

    @pytest.mark.parametrize("seed", range(3))
    def test_bound_attained_up_to_rounding_passes(self, saturated_csv, seed, capsys):
        argv = ["audit-sensitivity", "--dataset", str(saturated_csv), "--trials", "200",
                "--batch-size", "10", "--seed", str(seed)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "observed_delta_w=0.4 bound=0.4\nPASS\n" in out

    def test_observed_above_bound_fails_with_exit_1(self, saturated_csv, monkeypatch, capsys):
        def shrunk(*args):
            bounds = sensitivities(*args)
            return SensitivityBounds(bounds.delta_theta_sq, bounds.delta_w_sq * (1.0 - 1e-9) ** 2)

        monkeypatch.setattr(cli, "sensitivities", shrunk)
        argv = ["audit-sensitivity", "--dataset", str(saturated_csv), "--trials", "200",
                "--batch-size", "10", "--seed", "0"]
        assert main(argv) == 1
        assert capsys.readouterr().out.endswith("FAIL\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("box_radius", ["1e150", "1e154"])
    def test_box_radius_too_large_for_a_verdict_is_config_error(
        self, synth_csv, capsys, box_radius
    ):
        # the rounding allowance 4 ulp m (1 + D) of the bound would swallow any
        # excess here: at 1e150 an observed 4e134 used to PASS against 0.42;
        # the bounds are computed first, and at 1e154 they overflow themselves
        messages = {
            "1e150": "--box-radius 1e+150 is too large for the audit to give a verdict",
            "1e154": "box radius D=1e+154 overflows the sensitivity bounds",
        }
        argv = ["audit-sensitivity", "--dataset", str(synth_csv), "--trials", "200",
                "--box-radius", box_radius]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {messages[box_radius]}\n"

    @pytest.mark.parametrize("observed", [(float("nan"), 0.0), (0.0, float("nan")),
                                          (float("inf"), 0.0)])
    def test_non_finite_observation_fails(self, saturated_csv, monkeypatch, capsys, observed):
        # the theta bound is infinite on saturated features, so only the
        # finiteness check can fail an infinite theta observation
        monkeypatch.setattr(cli, "empirical_sensitivity_audit", lambda *args: observed)
        argv = ["audit-sensitivity", "--dataset", str(saturated_csv), "--trials", "200",
                "--batch-size", "10", "--seed", "0"]
        assert main(argv) == 1
        assert capsys.readouterr().out.endswith("FAIL\n")

    def test_zero_box_radius_is_config_error(self, synth_csv, capsys):
        argv = ["audit-sensitivity", "--dataset", str(synth_csv), "--box-radius", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: box radius D must be positive and finite, got 0.0\n"
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trials", "0"], "trials must be a positive integer, got 0"),
            (["--batch-size", "0"], "batch size m must be a positive integer, got 0"),
            (["--batch-size", "1" + "0" * 400], "batch size m overflows the sensitivity bounds"),
            (["--box-radius", "-1"], "box radius D must be positive and finite, got -1.0"),
            (["--box-radius", "1e150"],
             "--box-radius 1e+150 is too large for the audit to give a verdict"),
            (["--box-radius", "1e154"], "box radius D=1e+154 overflows the sensitivity bounds"),
        ],
        ids=["trials", "batch_size", "batch_size_400_digits", "box_radius", "slack",
             "box_radius_overflow"],
    )
    def test_flags_are_refused_before_the_dataset_is_read(
        self, synth_csv, tmp_path, capsys, flags, message
    ):
        # the line on a missing dataset names the flag, as it does on a real one
        for dataset in (synth_csv, tmp_path / "missing.csv"):
            assert main(["audit-sensitivity", "--dataset", str(dataset), *flags]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n"), dataset

    def test_a_batch_larger_than_the_dataset_is_config_error(self, synth_csv, capsys):
        # checked once the dataset's n is known, so after the flags
        argv = ["audit-sensitivity", "--dataset", str(synth_csv), "--batch-size", "301"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: batch size 301 must satisfy 1 <= m <= n=300\n")

    def test_negative_seed_is_config_error_naming_it(self, synth_csv, capsys):
        argv = ["audit-sensitivity", "--dataset", str(synth_csv), "--seed", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
