import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairdp import cli
from fairdp.classifier import ModelParams, save_checkpoint
from fairdp.cli import main
from fairdp.dataset import CHUNK_ROWS, load_csv
from fairdp.harness import SyntheticSpec, synth_dataset
from fairdp.privacy import SensitivityBounds, sensitivity_bounds
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

    @pytest.mark.parametrize("flag", ["--batch-size", "--epochs"])
    def test_zero_batch_size_or_epochs_is_config_error(self, tmp_path, capsys, flag):
        out = tmp_path / "table.csv"
        argv = ["calibrate", "--epsilon", "1", "--n", "2000", "--batch-size", "100",
                "--rho", "0.4", "--epochs", "20", flag, "0", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: epochs and batch_size must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("granularity", ["none", "sensitive", "all"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_is_config_error(self, tmp_path, capsys, granularity, n):
        out = tmp_path / "table.csv"
        argv = ["calibrate", "--granularity", granularity, "--epsilon", "1", "--n", n,
                "--batch-size", "100", "--rho", "0.4", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: n must be positive, got {n}\n"
        assert not out.exists()


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

    def test_all_features_privacy_without_clip_is_config_error(self, synth_csv, capsys):
        code = main(
            [
                "train", "--dataset", str(synth_csv), "--granularity", "all",
                "--clip", "0", "--epsilon", "3", "--epochs", "20", "--batch-size", "64",
            ]
        )
        assert code == 2
        assert "requires loss-gradient clipping" in capsys.readouterr().err


class TestHyperparameterValidation:
    """Non-finite hyperparameters and a negative clip are configuration
    errors (exit 2) before any training step, not silent defaults or
    divergences."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--clip", "nan", "--clip must be finite and nonnegative"),
            ("--clip", "inf", "--clip must be finite and nonnegative"),
            ("--clip", "-1", "--clip must be finite and nonnegative"),
            ("--eta-w", "inf", "step sizes must be positive and finite"),
            ("--eta-theta", "nan", "step sizes must be positive and finite"),
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
            (["--clip", "nan"], "--clip must be finite and nonnegative"),
            (["--lambda", "0", "nan"], "lambda values must be finite, nonnegative and nonempty"),
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
            (["--batch-size", "0"], "epochs and batch_size must be positive"),
            (["--epochs", "0"], "epochs and batch_size must be positive"),
            (["--granularity", "none", "--epsilon", "nan"],
             "epsilon must be positive and finite, got nan"),
            (["--granularity", "none", "--epsilon", "-1"],
             "epsilon must be positive and finite, got -1.0"),
            (["--granularity", "all", "--clip", "0"],
             "all-features privacy requires loss-gradient clipping"),
            (["--granularity", "none", "--delta", "nan"], "delta must lie in (0, 1)"),
            (["--granularity", "none", "--delta", "7"], "delta must lie in (0, 1)"),
            (["--granularity", "none", "--delta", "0"], "delta must lie in (0, 1)"),
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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_audit_rejects_non_finite_box_radius(self, synth_csv, capsys, value):
        argv = ["audit-sensitivity", "--dataset", str(synth_csv), "--box-radius", value]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: box_radius must be finite\n"


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
            bounds = sensitivity_bounds(*args)
            return SensitivityBounds(bounds.delta_theta, bounds.delta_w * (1.0 - 1e-9))

        monkeypatch.setattr(cli, "sensitivity_bounds", shrunk)
        argv = ["audit-sensitivity", "--dataset", str(saturated_csv), "--trials", "200",
                "--batch-size", "10", "--seed", "0"]
        assert main(argv) == 1
        assert capsys.readouterr().out.endswith("FAIL\n")

    def test_zero_box_radius_is_config_error(self, synth_csv, capsys):
        argv = ["audit-sensitivity", "--dataset", str(synth_csv), "--box-radius", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: box_radius must be positive\n"
