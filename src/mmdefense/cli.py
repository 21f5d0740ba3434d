"""Command-line front end tying the modules into reproducible runs.

Exit codes: 0 success, 1 usage/config error, 2 missing artifact,
3 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .attacks import AttackConfig, NoiseConfig, adaptive_pgd_eot, pgd
from .config import ConfigError, RunConfig, config_echo, parse_config
from .dataio import (FormatError, ImageBatch, component_from_state,
                     component_state, load_idx, load_model, make_split,
                     save_model, synth_blobs, synth_digits)
from .defense import (DefensePipeline, ablate, defend_batch, eval_batch_size,
                      eval_mixed, train_denoiser)
from .discrepancy import (DeepKernelParams, DetectorModel, FeaturizerView,
                          calibrate_threshold, optimize_kernel)
from .models import ClassifierParams, DenoiserParams, accuracy, train_classifier
from .rng import Rng
from .tensor import NonFiniteError
from .theory import DiscreteDomain, tightness_probe, verify_theorem


class MissingArtifact(RuntimeError):
    def __init__(self, path: str, producer: str):
        super().__init__(
            f"missing artifact {path}; run the '{producer}' subcommand first")


def _artifact(out: str, name: str, producer: str) -> str:
    path = os.path.join(out, name)
    if not os.path.exists(path):
        raise MissingArtifact(path, producer)
    return path


def _peak_rss_mb(who: int) -> float:
    return round(resource.getrusage(who).ru_maxrss * 1024 / 1e6, 3)


def _write_json(path: str, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out: str, command: str, cfg: RunConfig, started: float):
    manifest = {
        "command": command,
        "seed": cfg.seed,
        "dataset": cfg.dataset,
        "version": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "wall_time_s": round(time.time() - started, 3),
        # peak resident memory of this process, and of the largest child it
        # has waited for so far (the workers of optimize_kernel,
        # calibrate_threshold, train_denoiser and adaptive_pgd_eot); the
        # latter is this command's own peak only when each command runs in
        # its own process.  Linux gives ru_maxrss in KiB
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
        "peak_rss_children_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    _write_json(os.path.join(out, f"manifest_{command}.json"), manifest)


def _write_csv(path: str, header: str, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _load_images(cfg: RunConfig, rng: Rng) -> ImageBatch:
    if cfg.dataset == "synth_digits":
        return synth_digits(rng, cfg.digits_n, cfg.digits_classes,
                            cfg.digits_size, cfg.digits_noise)
    if cfg.dataset == "idx":
        return load_idx(cfg.idx_images, cfg.idx_labels or None)
    raise ConfigError(f"subcommand needs an image dataset, got {cfg.dataset!r}")


def _split_images(cfg: RunConfig, rng: Rng):
    images = _load_images(cfg, rng.fork())
    split = make_split(len(images), cfg.train_fraction, cfg.batch_size,
                       rng.fork())
    return images, split


def _calibration_pool(images: ImageBatch, split) -> np.ndarray:
    """The clean rows the threshold is calibrated on: train + val_reference."""
    return images.subset(np.concatenate([split.train, split.val_reference])).flat


def _attack_cfg(cfg: RunConfig, iters: int, eot: int) -> AttackConfig:
    return AttackConfig(norm=cfg.attack_norm, eps=cfg.attack_eps,
                        step=cfg.attack_step, iters=iters, eot=eot,
                        random_start=cfg.attack_random_start)


def _load_classifier(out: str) -> ClassifierParams:
    tensors, _ = load_model(_artifact(out, "classifier.model", "train-classifier"))
    return component_from_state(ClassifierParams, tensors)


def _load_kernel(out: str, classifier=None, name: str = "kernel.model"):
    """(kernel, metadata) of a kernel-bearing file: `kernel.model` or
    `detector.model`, which adds threshold and batch-size metadata.  If the
    metadata says the kernel uses a featurizer, it wraps `classifier`, read
    from disk only when none is given."""
    producer = "calibrate" if name == "detector.model" else "train-kernel"
    tensors, meta = load_model(_artifact(out, name, producer))
    featurizer = None
    if meta.get("uses_featurizer") == "True":
        featurizer = FeaturizerView(classifier or _load_classifier(out))
    return component_from_state(DeepKernelParams, tensors, featurizer), meta


def _load_denoiser(out: str, name: str = "denoiser.model") -> DenoiserParams:
    tensors, _ = load_model(_artifact(out, name, "train-denoiser"))
    return component_from_state(DenoiserParams, tensors)


def _build_pipeline(out: str):
    classifier = _load_classifier(out)
    kernel, meta = _load_kernel(out, classifier, "detector.model")
    path = os.path.join(out, "detector.model")
    try:
        threshold, batch_size = float(meta["threshold"]), int(meta["batch_size"])
    except KeyError:
        raise FormatError(f"{path}: no threshold or batch_size metadata") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad threshold or batch_size metadata: "
                          f"{exc}") from None
    detector = DetectorModel(kernel, threshold, batch_size)
    denoiser = _load_denoiser(out)
    ref = np.load(_artifact(out, "reference.npy", "calibrate"))
    return DefensePipeline(detector, denoiser, classifier, ref)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train_classifier(cfg: RunConfig, out: str, rng: Rng):
    images, split = _split_images(cfg, rng)
    train = images.subset(split.train)
    params, acc = train_classifier(train, cfg.classifier_epochs,
                                   cfg.classifier_lr, rng.fork())
    test = images.subset(split.test)
    test_acc = accuracy(params, test.flat, test.labels)
    save_model(os.path.join(out, "classifier.model"), component_state(params),
               {"train_accuracy": repr(acc), "test_accuracy": repr(test_acc),
                "seed": str(cfg.seed)})
    _write_csv(os.path.join(out, "classifier_report.csv"),
               "metric,value", [("train_accuracy", acc),
                                ("clean_test_accuracy", test_acc)])
    print(f"classifier trained: train acc {acc:.4f}, test acc {test_acc:.4f}")


def cmd_train_kernel(cfg: RunConfig, out: str, rng: Rng):
    if cfg.dataset == "synth_blobs":
        clean, adv = synth_blobs(rng.fork(), cfg.blobs_n, cfg.blobs_dim,
                                 cfg.blobs_delta)
        featurizer = None
    else:
        images, split = _split_images(cfg, rng)
        classifier = _load_classifier(out)
        featurizer = FeaturizerView(classifier)
        train = images.subset(split.train)
        clean = train.flat
        adv = pgd(classifier, clean, train.labels,
                  _attack_cfg(cfg, cfg.train_attack_iters, 1), rng.fork())
    kernel, trajectory = optimize_kernel(
        clean, adv, featurizer, epochs=cfg.kernel_epochs, lr=cfg.kernel_lr,
        batch_size=min(cfg.batch_size, len(clean) // 2),
        lam=cfg.kernel_lambda, rng=rng.fork())
    save_model(os.path.join(out, "kernel.model"), component_state(kernel),
               {"lambda": repr(cfg.kernel_lambda), "seed": str(cfg.seed),
                "uses_featurizer": str(featurizer is not None)})
    _write_csv(os.path.join(out, "kernel_trajectory.csv"), "epoch,j_hat",
               [(i, float(j)) for i, j in enumerate(trajectory)])
    print(f"kernel optimized: monitor objective {trajectory[0]:.4f} -> "
          f"{max(trajectory):.4f}")


def cmd_calibrate(cfg: RunConfig, out: str, rng: Rng):
    kernel, _ = _load_kernel(out)
    if cfg.dataset == "synth_blobs":
        pool, _ = synth_blobs(rng.fork(), cfg.blobs_n, cfg.blobs_dim,
                              cfg.blobs_delta)
        reference = None  # no split: S_V is drawn from the pool below
    else:
        images, split = _split_images(cfg, rng)
        pool = _calibration_pool(images, split)
        reference = images.subset(split.val_reference).flat
    detector = calibrate_threshold(kernel, pool, cfg.batch_size,
                                   cfg.far_target, cfg.calibration_trials,
                                   rng.fork())
    save_model(os.path.join(out, "detector.model"), component_state(kernel),
               {"threshold": repr(detector.threshold),
                "batch_size": str(detector.batch_size),
                "lambda": repr(cfg.kernel_lambda),
                "far_target": repr(cfg.far_target), "seed": str(cfg.seed),
                "uses_featurizer": str(kernel.featurizer is not None)})
    if reference is None:
        reference = pool[rng.fork().choice(len(pool), cfg.batch_size)]
    np.save(os.path.join(out, "reference.npy"), reference)
    print(f"threshold calibrated: t = {detector.threshold:.6g} "
          f"(target FAR {cfg.far_target})")


def cmd_train_denoiser(cfg: RunConfig, out: str, rng: Rng):
    images, split = _split_images(cfg, rng)
    classifier = _load_classifier(out)
    kernel, _ = _load_kernel(out, classifier)
    train = images.subset(split.train)
    theta, trajectory = train_denoiser(
        train.flat, train.labels, kernel, classifier,
        _attack_cfg(cfg, cfg.train_attack_iters, 1),
        NoiseConfig(0.0, cfg.noise_sigma), rng.fork(),
        alpha=cfg.alpha, epochs=cfg.denoiser_epochs, lr=cfg.denoiser_lr,
        decay_epochs=cfg.denoiser_decay_epochs, batch_size=cfg.batch_size)
    name = "denoiser.model" if cfg.noise_sigma > 0 else "denoiser_nonoise.model"
    save_model(os.path.join(out, name), component_state(theta),
               {"alpha": repr(cfg.alpha), "noise_sigma": repr(cfg.noise_sigma),
                "seed": str(cfg.seed)})
    _write_csv(os.path.join(out, "denoiser_trajectory.csv"), "epoch,loss",
               [(i + 1, float(v)) for i, v in enumerate(trajectory)])
    print(f"denoiser trained: loss {trajectory[0]:.4f} -> {trajectory[-1]:.4f}")


def cmd_attack(cfg: RunConfig, out: str, rng: Rng):
    images, split = _split_images(cfg, rng)
    classifier = _load_classifier(out)
    test = images.subset(split.test)
    atk = _attack_cfg(cfg, cfg.attack_iters, cfg.attack_eot)
    adv = pgd(classifier, test.flat, test.labels, atk, rng.fork())
    clean_acc = accuracy(classifier, test.flat, test.labels)
    robust_acc = accuracy(classifier, adv, test.labels)
    save_model(os.path.join(out, "adversarial.model"),
               {"adversarial.batch": adv, "adversarial.labels":
                test.labels.astype(np.float64)},
               {"eps": repr(cfg.attack_eps), "norm": cfg.attack_norm,
                "iters": str(cfg.attack_iters), "seed": str(cfg.seed)})
    _write_csv(os.path.join(out, "attack_report.csv"), "metric,value",
               [("clean_accuracy", clean_acc),
                ("undefended_robust_accuracy", robust_acc)])
    print(f"attack: clean acc {clean_acc:.4f}, undefended robust acc "
          f"{robust_acc:.4f}")


def cmd_defend(cfg: RunConfig, out: str, rng: Rng):
    images, split = _split_images(cfg, rng)
    pipeline = _build_pipeline(out)
    test = images.subset(split.test)
    noise = NoiseConfig(0.0, cfg.noise_sigma)
    atk = _attack_cfg(cfg, cfg.attack_iters, cfg.attack_eot)
    b = pipeline.batch_size
    n_batches = len(test) // b
    if n_batches == 0:
        raise ValueError(f"defend needs a test split of at least one batch: "
                         f"{len(test)} test rows, batch size {b}")
    rows = []
    clean_accs, robust_accs, verdicts = [], [], []
    atk_rng = rng.fork()
    for i in range(n_batches):
        idx = np.arange(i * b, (i + 1) * b)
        xb, yb = test.flat[idx], test.labels[idx]
        pred, verdict = defend_batch(pipeline, xb)
        clean_accs.append(float((pred == yb).mean()))
        adv = adaptive_pgd_eot(pipeline.detector, pipeline.denoiser,
                               pipeline.classifier, xb, yb, atk, noise,
                               atk_rng)
        pred_a, verdict_a = defend_batch(pipeline, adv)
        robust_accs.append(float((pred_a == yb).mean()))
        verdicts.append((i, verdict.label, verdict.statistic,
                         verdict_a.label, verdict_a.statistic))
        for j, (p, pa, y) in enumerate(zip(pred, pred_a, yb)):
            rows.append((i, j, int(y), int(p), int(pa)))
    _write_csv(os.path.join(out, "defend_predictions.csv"),
               "batch,row,label,clean_prediction,adaptive_prediction", rows)
    _write_csv(os.path.join(out, "defend_verdicts.csv"),
               "batch,clean_verdict,clean_statistic,adaptive_verdict,"
               "adaptive_statistic", verdicts)
    _write_csv(os.path.join(out, "defend_report.csv"), "metric,value",
               [("defended_clean_accuracy", float(np.mean(clean_accs))),
                ("defended_robust_accuracy", float(np.mean(robust_accs)))])
    print(f"defend: clean acc {np.mean(clean_accs):.4f}, adaptive robust acc "
          f"{np.mean(robust_accs):.4f}")


def _pipeline_attack(cfg: RunConfig, pipeline: DefensePipeline, rng: Rng,
                     sigma: float):
    noise = NoiseConfig(0.0, sigma)
    atk = _attack_cfg(cfg, cfg.attack_iters, cfg.attack_eot)

    def attack(x, y):
        return adaptive_pgd_eot(pipeline.detector, pipeline.denoiser,
                                pipeline.classifier, x, y, atk, noise,
                                rng.fork())
    return attack


def cmd_eval_mixed(cfg: RunConfig, out: str, rng: Rng):
    images, split = _split_images(cfg, rng)
    pipeline = _build_pipeline(out)
    test = images.subset(split.test)
    attack = _pipeline_attack(cfg, pipeline, rng.fork(), cfg.noise_sigma)
    rows = eval_mixed(pipeline, test.flat, test.labels, cfg.mixed_proportions,
                      attack, cfg.trials, rng.fork())
    _write_csv(os.path.join(out, "mixed_curve.csv"),
               "proportion,accuracy,std", rows)
    print("eval-mixed: " + ", ".join(f"p={p:.1f}:{a:.3f}" for p, a, _ in rows))


def cmd_eval_batch_size(cfg: RunConfig, out: str, rng: Rng):
    images, split = _split_images(cfg, rng)
    classifier = _load_classifier(out)
    kernel, _ = _load_kernel(out, classifier)
    denoiser = _load_denoiser(out)
    test = images.subset(split.test)
    rows = eval_batch_size(kernel, denoiser, classifier, test.flat, test.labels,
                           _calibration_pool(images, split), cfg.batch_sizes,
                           cfg.trials, rng.fork(), cfg.far_target,
                           cfg.calibration_trials)
    _write_csv(os.path.join(out, "batch_size_curve.csv"),
               "batch_size,accuracy,std", rows)
    print("eval-batch-size: " + ", ".join(f"B={b}:{a:.3f}±{s:.3f}"
                                          for b, a, s in rows))


def cmd_ablate(cfg: RunConfig, out: str, rng: Rng):
    images, split = _split_images(cfg, rng)
    pipeline = _build_pipeline(out)
    no_noise = None
    if os.path.exists(os.path.join(out, "denoiser_nonoise.model")):
        no_noise = replace(
            pipeline, denoiser=_load_denoiser(out, "denoiser_nonoise.model"))
    test = images.subset(split.test)
    attack_rng = rng.fork()

    def factory(pipe):
        # the no-noise variant is deterministic; adapt its attack accordingly
        sigma = 0.0 if pipe is no_noise else cfg.noise_sigma
        return _pipeline_attack(cfg, pipe, attack_rng.fork(), sigma)

    table = ablate(pipeline, no_noise, test.flat, test.labels, factory,
                   cfg.trials, rng.fork())
    with open(os.path.join(out, "ablation.jsonl"), "w") as fh:
        for row in table:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    for row in table:
        print(f"ablate[{row['config']}]: clean {row['clean_accuracy']:.4f}, "
              f"robust {row['robust_accuracy']:.4f}")


def cmd_verify_bound(cfg: RunConfig, out: str, rng: Rng):
    total_checked = 0
    violations = 0
    min_slack = float("inf")
    for _ in range(cfg.domains):
        domain = DiscreteDomain.random(cfg.domain_size, rng.fork())
        report = verify_theorem(domain)
        total_checked += report["hypotheses_checked"]
        violations += report["violations"]
        min_slack = min(min_slack, report["min_slack"])
    probe_domain = DiscreteDomain.random(cfg.domain_size, rng.fork())
    target = rng.uniform((cfg.domain_size,))
    probe = tightness_probe(probe_domain, target / target.sum())
    _write_csv(os.path.join(out, "tightness_probe.csv"),
               "mix,l1_divergence,max_excess_risk", probe)
    report = {"domains": cfg.domains, "domain_size": cfg.domain_size,
              "hypotheses_checked": total_checked, "violations": violations,
              "min_slack": min_slack}
    _write_json(os.path.join(out, "bound_report.json"), report)
    print(f"verify-bound: {total_checked} hypotheses over {cfg.domains} "
          f"domains, {violations} violations, min slack {min_slack:.3e}")


COMMANDS = {
    "train-classifier": cmd_train_classifier,
    "train-kernel": cmd_train_kernel,
    "calibrate": cmd_calibrate,
    "train-denoiser": cmd_train_denoiser,
    "attack": cmd_attack,
    "defend": cmd_defend,
    "eval-mixed": cmd_eval_mixed,
    "eval-batch-size": cmd_eval_batch_size,
    "ablate": cmd_ablate,
    "verify-bound": cmd_verify_bound,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mmdefense",
        description="Batch-wise distributional adversarial detection and "
                    "defense experiments")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="key = value file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default="runs", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "config_echo.txt"), "w") as fh:
            fh.write(config_echo(cfg))
        started = time.time()
        COMMANDS[args.command](cfg, args.out, Rng(cfg.seed))
        _write_manifest(args.out, args.command, cfg, started)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MissingArtifact as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
