import json
import os
import shutil

import numpy as np
import pytest

from mmdefense import attacks, cli, defense
from mmdefense.cli import main
from mmdefense.config import ConfigError, config_echo, parse_config
from mmdefense.dataio import load_model, save_model
from mmdefense.tensor import NonFiniteError

SMALL_DIGITS = """
# small but complete digit run
dataset = synth_digits
digits_n = 600
batch_size = 50
classifier_epochs = 12
kernel_epochs = 20
denoiser_epochs = 3
denoiser_decay_epochs = 2,3
train_attack_iters = 5
attack_iters = 5
attack_eot = 2
calibration_trials = 30
trials = 2
mixed_proportions = 0.0,1.0
batch_sizes = 10,20
domains = 3
domain_size = 6
"""


def write_config(tmp_path, text=SMALL_DIGITS, name="run.cfg"):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


class TestParsing:
    def test_minimal_config_keeps_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "dataset = synth_digits\n"))
        assert cfg.seed == 0
        assert cfg.batch_size == 100
        assert cfg.kernel_lambda == 1e-8
        assert cfg.mixed_proportions[0] == 0.0
        assert cfg.warnings == []

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "\n# full line comment\ndataset = synth_digits  # trailing\n\n"
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.dataset == "synth_digits"

    def test_unknown_key_names_line(self, tmp_path):
        for key in ("frobnicate", "threshold_mode", "threshold", "noise_mu"):
            text = f"dataset = synth_digits\n{key} = 3\n"
            with pytest.raises(ConfigError, match=f"line 2.*'{key}'"):
                parse_config(write_config(tmp_path, text))

    def test_malformed_value_names_line(self, tmp_path):
        text = "dataset = synth_digits\nseed = twelve\n"
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(write_config(tmp_path, text))

    def test_missing_equals_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(write_config(tmp_path, "dataset synth_digits\n"))

    def test_duplicate_key_last_wins_with_warning(self, tmp_path):
        text = "dataset = synth_digits\nseed = 1\nseed = 2\n"
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.seed == 2
        assert len(cfg.warnings) == 1 and "duplicate" in cfg.warnings[0]

    def test_dataset_required(self, tmp_path):
        with pytest.raises(ConfigError, match="dataset"):
            parse_config(write_config(tmp_path, "seed = 3\n"))

    def test_idx_requires_images_path(self, tmp_path):
        with pytest.raises(ConfigError, match="idx_images"):
            parse_config(write_config(tmp_path, "dataset = idx\n"))

    def test_tuple_values(self, tmp_path):
        text = ("dataset = synth_digits\n"
                "mixed_proportions = 0.0, 0.25, 1.0\n"
                "batch_sizes = 5,10\n")
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.mixed_proportions == (0.0, 0.25, 1.0)
        assert cfg.batch_sizes == (5, 10)

    def test_bool_values(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, "dataset = synth_digits\nattack_random_start = false\n"))
        assert cfg.attack_random_start is False
        with pytest.raises(ConfigError):
            parse_config(write_config(
                tmp_path, "dataset = synth_digits\nattack_random_start = 1\n"))

    def test_echo_round_trips(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        echoed = write_config(tmp_path, config_echo(cfg), "echo.cfg")
        cfg2 = parse_config(echoed)
        for name in ("seed", "dataset", "batch_size", "kernel_lambda",
                     "mixed_proportions", "denoiser_decay_epochs",
                     "attack_random_start", "alpha"):
            assert getattr(cfg, name) == getattr(cfg2, name)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One small end-to-end CLI run shared by the smoke assertions."""
    tmp = tmp_path_factory.mktemp("cli")
    cfgpath = write_config(tmp)
    out = str(tmp / "runs")
    codes = {}
    for command in ("train-classifier", "train-kernel", "calibrate",
                    "train-denoiser", "attack", "defend", "eval-mixed",
                    "eval-batch-size", "ablate", "verify-bound"):
        codes[command] = main([command, "--config", cfgpath, "--out", out])
    return tmp, cfgpath, out, codes


class TestCliChain:
    def test_every_subcommand_succeeds(self, full_run):
        _, _, _, codes = full_run
        assert all(code == 0 for code in codes.values()), codes

    def test_artifacts_written(self, full_run):
        _, _, out, _ = full_run
        for name in ("classifier.model", "kernel.model", "detector.model",
                     "denoiser.model", "reference.npy", "adversarial.model",
                     "classifier_report.csv", "kernel_trajectory.csv",
                     "denoiser_trajectory.csv", "attack_report.csv",
                     "defend_report.csv", "mixed_curve.csv",
                     "batch_size_curve.csv", "ablation.jsonl",
                     "bound_report.json", "config_echo.txt"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_manifests_written_per_command(self, full_run):
        _, _, out, codes = full_run
        for command in codes:
            path = os.path.join(out, f"manifest_{command}.json")
            with open(path) as fh:
                manifest = json.load(fh)
            assert manifest["command"] == command
            assert manifest["dataset"] == "synth_digits"
            assert np.isfinite(manifest["peak_rss_mb"])
            assert manifest["peak_rss_mb"] > 0
            # RUSAGE_CHILDREN covers only children already waited for, so
            # it may read 0 before the first PGD worker has run
            assert np.isfinite(manifest["peak_rss_children_mb"])
            assert manifest["peak_rss_children_mb"] >= 0
        for command in ("train-denoiser", "defend"):
            with open(os.path.join(out, f"manifest_{command}.json")) as fh:
                assert json.load(fh)["peak_rss_children_mb"] > 0

    def test_bound_report_clean(self, full_run):
        _, _, out, _ = full_run
        with open(os.path.join(out, "bound_report.json")) as fh:
            report = json.load(fh)
        assert report["violations"] == 0
        assert report["hypotheses_checked"] == 3 * 64

    def test_config_echo_is_reparsable(self, full_run):
        _, _, out, _ = full_run
        cfg = parse_config(os.path.join(out, "config_echo.txt"))
        assert cfg.dataset == "synth_digits"
        assert cfg.batch_size == 50

    def test_loaders_return_frozen_components(self, full_run):
        _, _, out, _ = full_run
        kernel, _ = cli._load_kernel(out)
        pipe = cli._build_pipeline(out)
        loaded = (kernel.raws + pipe.detector.kernel.raws
                  + pipe.denoiser.params + pipe.classifier.params)
        assert not any(t.requires_grad for t in loaded)
        clf = cli._load_classifier(out)
        assert cli._load_kernel(out, clf)[0].featurizer.classifier is clf

    def test_detector_round_trip(self, full_run):
        # detector.model is the kernel's layout plus threshold and batch-size
        # metadata, read back through the kernel's loader
        _, _, out, _ = full_run
        kernel_tensors, _ = load_model(os.path.join(out, "kernel.model"))
        tensors, meta = load_model(os.path.join(out, "detector.model"))
        assert list(tensors) == list(kernel_tensors) == [
            "kernel.raw_beta0", "kernel.raw_sigma_q", "kernel.raw_sigma_phi"]
        detector = cli._build_pipeline(out).detector
        assert detector.threshold == float(meta["threshold"])
        assert detector.batch_size == int(meta["batch_size"]) == 50
        for raw, saved in zip(detector.kernel.raws, kernel_tensors.values()):
            assert raw.data.tobytes() == saved.tobytes()

    def test_detector_metadata_records_run_settings(self, full_run):
        _, _, out, _ = full_run
        _, meta = load_model(os.path.join(out, "detector.model"))
        assert set(meta) == {"threshold", "batch_size", "lambda",
                             "far_target", "seed", "uses_featurizer"}
        assert meta["batch_size"] == "50"
        assert meta["lambda"] == repr(1e-08)
        assert meta["far_target"] == repr(0.05)
        assert meta["seed"] == "0"
        assert meta["uses_featurizer"] == "True"

    def test_mixed_curve_has_requested_proportions(self, full_run):
        _, _, out, _ = full_run
        with open(os.path.join(out, "mixed_curve.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "proportion,accuracy,std"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0.0", "1.0"]


class TestCliErrors:
    def test_config_error_is_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, "dataset = nope\n")
        code = main(["train-classifier", "--config", path,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_is_exit_1(self, tmp_path):
        code = main(["train-classifier", "--config",
                     str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
        assert code == 1

    def test_missing_artifact_is_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["calibrate", "--config", path,
                     "--out", str(tmp_path / "empty")])
        assert code == 2
        assert "train-kernel" in capsys.readouterr().err

    @pytest.mark.parametrize("source, target, named", [
        ("kernel.model", "detector.model", "threshold"),
        ("kernel.model", "denoiser.model", "denoiser.w1")])
    def test_malformed_model_is_exit_1(self, full_run, tmp_path, capsys,
                                       source, target, named):
        _, cfgpath, out, _ = full_run
        copy = str(tmp_path / "runs")
        shutil.copytree(out, copy)
        shutil.copyfile(os.path.join(copy, source), os.path.join(copy, target))
        code = main(["defend", "--config", cfgpath, "--out", copy])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and named in err

    def test_non_numeric_threshold_is_exit_1(self, full_run, tmp_path, capsys):
        _, cfgpath, out, _ = full_run
        copy = str(tmp_path / "runs")
        shutil.copytree(out, copy)
        path = os.path.join(copy, "detector.model")
        tensors, meta = load_model(path)
        save_model(path, tensors, {**meta, "threshold": "abc"})
        code = main(["defend", "--config", cfgpath, "--out", copy])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "detector.model" in err

    def test_zero_denoiser_epochs_is_exit_1(self, full_run, tmp_path, capsys):
        _, _, out, _ = full_run
        copy = str(tmp_path / "runs")
        shutil.copytree(out, copy)
        path = write_config(tmp_path, SMALL_DIGITS + "denoiser_epochs = 0\n")
        code = main(["train-denoiser", "--config", path, "--out", copy])
        assert code == 1
        assert "epochs must be >= 1" in capsys.readouterr().err

    def test_far_target_outside_unit_interval_is_exit_1(self, full_run,
                                                         tmp_path, capsys):
        _, _, out, _ = full_run
        copy = str(tmp_path / "runs")
        shutil.copytree(out, copy)
        path = write_config(tmp_path, SMALL_DIGITS + "far_target = 1.5\n")
        code = main(["calibrate", "--config", path, "--out", copy])
        assert code == 1
        assert "far_target must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("command, artifact", [
        ("eval-mixed", "mixed_curve.csv"),
        ("eval-batch-size", "batch_size_curve.csv"),
        ("ablate", "ablation.jsonl")])
    def test_zero_trials_is_exit_1(self, full_run, tmp_path, capsys, command,
                                   artifact):
        # an evaluation over no batch would write NaN accuracies
        _, _, out, _ = full_run
        copy = str(tmp_path / "runs")
        shutil.copytree(out, copy)
        os.remove(os.path.join(copy, artifact))
        path = write_config(tmp_path, SMALL_DIGITS + "trials = 0\n")
        code = main([command, "--config", path, "--out", copy])
        assert code == 1
        assert "trials must be >= 1, got 0" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(copy, artifact))

    def test_defend_without_a_full_test_batch_is_exit_1(self, full_run,
                                                        tmp_path, capsys):
        _, _, out, _ = full_run
        copy = str(tmp_path / "runs")
        shutil.copytree(out, copy)
        os.remove(os.path.join(copy, "defend_report.csv"))
        # 570 of 600 rows train: the 30 test rows hold no batch of 50
        path = write_config(tmp_path, SMALL_DIGITS + "train_fraction = 0.95\n")
        code = main(["defend", "--config", path, "--out", copy])
        assert code == 1
        assert "30 test rows, batch size 50" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(copy, "defend_report.csv"))

    def test_empty_test_split_is_exit_1(self, tmp_path, capsys, monkeypatch):
        # round(600 * 0.9995) = 600 rows train, none test: the split fails
        # before the classifier trains
        def no_training(*args):
            raise AssertionError("trained before the split was checked")

        monkeypatch.setattr(cli, "train_classifier", no_training)
        path = write_config(tmp_path, SMALL_DIGITS + "train_fraction = 0.9995\n")
        out = str(tmp_path / "runs")
        code = main(["train-classifier", "--config", path, "--out", out])
        assert code == 1
        assert ("train_fraction 0.9995 of 600 rows leaves no test rows"
                in capsys.readouterr().err)
        assert not os.path.exists(os.path.join(out, "classifier_report.csv"))

    def test_one_row_adaptive_attack_is_exit_1(self, full_run, tmp_path,
                                               capsys, monkeypatch):
        # round(0.02 * 50) = 1 adversarial row per mixed batch; the last
        # proportion fails before the first trial of the other two
        def no_trials(*args):
            raise AssertionError("a trial ran before every proportion was checked")

        monkeypatch.setattr(defense, "trial_accuracies", no_trials)
        _, _, out, _ = full_run
        copy = str(tmp_path / "runs")
        shutil.copytree(out, copy)
        os.remove(os.path.join(copy, "mixed_curve.csv"))
        path = write_config(tmp_path,
                            SMALL_DIGITS + "mixed_proportions = 0.0,1.0,0.02\n")
        code = main(["eval-mixed", "--config", path, "--out", copy])
        assert code == 1
        assert ("proportion 0.02 gives 1 adversarial row of 50"
                in capsys.readouterr().err)
        assert not os.path.exists(os.path.join(copy, "mixed_curve.csv"))

    def test_non_finite_pgd_in_the_worker_is_exit_3(self, full_run, tmp_path,
                                                   capsys, monkeypatch):
        _, cfgpath, out, _ = full_run
        copy = str(tmp_path / "runs")
        shutil.copytree(out, copy)

        def non_finite(*args):
            raise NonFiniteError("backward produced non-finite values")

        monkeypatch.setattr(attacks, "_ce_input_grad", non_finite)
        code = main(["train-denoiser", "--config", cfgpath, "--out", copy])
        assert code == 3
        assert ("numeric failure: backward produced non-finite values"
                in capsys.readouterr().err)

    def test_unknown_command_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["explode", "--config", write_config(tmp_path)])


class TestCliBlobs:
    def test_kernel_and_calibrate_without_classifier(self, tmp_path):
        text = ("dataset = synth_blobs\nblobs_n = 300\nbatch_size = 40\n"
                "kernel_epochs = 15\ncalibration_trials = 20\n")
        path = write_config(tmp_path, text)
        out = str(tmp_path / "blobruns")
        assert main(["train-kernel", "--config", path, "--out", out]) == 0
        assert main(["calibrate", "--config", path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "detector.model"))
        assert np.load(os.path.join(out, "reference.npy")).shape == (40, 2)
        kernel, _ = cli._load_kernel(out, name="detector.model")
        assert kernel.featurizer is None


class TestReproducibility:
    def test_same_seed_identical_artifacts(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert main(["train-classifier", "--config", path,
                         "--out", out]) == 0
            assert main(["train-kernel", "--config", path, "--out", out]) == 0
        for name in ("classifier.model", "kernel.model",
                     "kernel_trajectory.csv"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2, name

    def test_seed_override_changes_artifacts(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = str(tmp_path / "s0"), str(tmp_path / "s1")
        assert main(["train-classifier", "--config", path, "--out", out1]) == 0
        assert main(["train-classifier", "--config", path, "--out", out2,
                     "--seed", "1"]) == 0
        b1 = open(os.path.join(out1, "classifier.model"), "rb").read()
        b2 = open(os.path.join(out2, "classifier.model"), "rb").read()
        assert b1 != b2
