"""Tests of the benchmark itself, on a small configuration.

    python3 -m pytest perfbench
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mmdefense import tensor as T  # noqa: E402

SMALL = workloads.Config(images=400, batch=20, classifier_lr=1e-2, pool_iters=2, kernel_epochs=5,
                         calibration_trials=10, denoiser_epochs=2, setup_denoiser_epochs=1,
                         attack_iters=2, attack_eot=2)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMED = {"train": ["train_s"], "attack": ["attack_samples_per_s"],
         "serve": ["serve_samples_per_s", "defend_ms_p50", "defend_ms_p99"]}


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["train", "attack", "serve"])
def test_small_run_emits_every_metric_with_its_unit(workload, trace, capsys):
    result = bench.run(workload, 3, 0.3, trace, SMALL)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    printed = capsys.readouterr().out
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["models.features_forward.per_h_matrix"] == 6.0
        if workload == "serve":
            assert metrics["tensor.backward.calls"] == 0
            assert metrics["defense.BatchGate.push.calls"] == SMALL.batch
    else:
        for name in ["setup_s", "peak_rss_mb", "failed_share"] + NAMED[workload]:
            assert f"\n{name} = " in printed
        assert f"operations: {result['attempted']} attempted, 0 failed" in printed


def test_adversarial_row_outside_eps_ball_is_a_failure(monkeypatch):
    real = workloads.attacks.adaptive_pgd_eot

    def corrupted(*args, **kwargs):
        adv = real(*args, **kwargs)
        adv[0, 0] = args[3][0, 0] + 2 * SMALL.eps  # args[3] is the clean batch
        return adv

    monkeypatch.setattr(workloads.attacks, "adaptive_pgd_eot", corrupted)
    result = bench.run("attack", 3, 0.3, False, SMALL)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_verdict_against_its_statistic_is_a_failure(monkeypatch):
    real = workloads.defense.defend_batch

    def flipped(pipe, batch):
        preds, verdict = real(pipe, batch)
        verdict.label = (workloads.defense.ADVERSARIAL if verdict.label == workloads.defense.CLEAN
                         else workloads.defense.CLEAN)
        return preds, verdict

    monkeypatch.setattr(workloads.defense, "defend_batch", flipped)
    result = bench.run("serve", 3, 0.3, False, SMALL)
    assert result["failed"] == result["attempted"] >= 1


def test_gate_losing_a_sample_is_a_failure(monkeypatch):
    real = workloads.defense.BatchGate.push
    calls = []

    def lossy(self, sample):
        calls.append(1)
        return None if len(calls) == 5 else real(self, sample)

    monkeypatch.setattr(workloads.defense.BatchGate, "push", lossy)
    result = bench.run("serve", 3, 0.3, False, SMALL)
    assert result["failed"] >= 1 and not result["correct"]


def test_changed_classifier_fails_the_denoiser_stage(monkeypatch):
    real = workloads.defense.train_denoiser

    def mutating(clean, labels, kernel, classifier, *args, **kwargs):
        out = real(clean, labels, kernel, classifier, *args, **kwargs)
        classifier.b3.data = classifier.b3.data + 1.0
        return out

    monkeypatch.setattr(workloads.defense, "train_denoiser", mutating)
    result = bench.run("train", 3, 0.3, False, SMALL)
    assert result["attempted"] == len(workloads.STAGES) and result["failed"] == 1


def test_tape_stats_counts_adjoints_that_reach_a_grad_leaf():
    x = T.Tensor(np.ones(3), requires_grad=True)
    c = T.Tensor(np.full(3, 2.0))
    with T.GradTape() as tape:
        out = T.tsum(x * c + c * c)
    # sum <- y; y <- (x*c, c*c); x*c <- (x, c); c*c <- (c, c): 7 adjoints, of
    # which y, x*c and x lead to x
    assert spans.tape_stats(tape, out) == (4, 7, 3)


def test_tracer_restores_every_binding():
    import mmdefense.discrepancy as discrepancy
    import mmdefense.models as models
    before = (models.features_forward, discrepancy.features_forward)
    tracer = spans.Tracer()
    tracer.install()
    assert discrepancy.features_forward is models.features_forward is not before[0]
    tracer.uninstall()
    assert (models.features_forward, discrepancy.features_forward) == before
