"""Bit-identity fingerprint of an mmdefense checkout: one line per output.

    python3 tools/fingerprint.py CHECKOUT

Prints, for the sources under CHECKOUT/src:
  * the perfbench digests of train, attack and serve on the small
    configuration `SMALL` of `perfbench/test_perfbench.py` (seed 3), each
    over the workload's full fixed prefix of operations;
  * the same digests on the benchmark's reference configuration at seeds 59
    and 71 (train's first operation, attack's first 4, serve's first 256),
    as `perfbench/run.py` prints them and `BENCH_*.json` records them;
  * the sha256 of every CLI artifact except the manifests (they hold wall
    times): the ten subcommands on `SMALL_DIGITS` of
    `tests/test_config_cli.py`, then `train-denoiser` at noise_sigma = 0 and
    `ablate` with that no-noise variant, then `train-kernel` and `calibrate`
    on `synth_blobs`.

Two checkouts compute the same bits when the `diff` of their outputs is
empty.  BLAS runs on one thread, as in the benchmark, and every file is
written under a temporary directory.  One run takes about 25 s on a 2-CPU
x86-64 Xeon, most of it the reference digests.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PERFBENCH_SEED = 3
REFERENCE_SEEDS = (59, 71)
CLI_CHAIN = ("train-classifier", "train-kernel", "calibrate", "train-denoiser", "attack",
             "defend", "eval-mixed", "eval-batch-size", "ablate", "verify-bound")
SMALL_BLOBS = """
dataset = synth_blobs
blobs_n = 200
batch_size = 50
kernel_epochs = 20
calibration_trials = 30
"""


def perfbench_digests(bench, workloads, cfg, seed: int, label: str = "") -> list[str]:
    lines = []
    for name, wl in workloads.WORKLOADS.items():
        rec = bench.Record(bench.DIGEST_OPS[name])
        st = wl.prepare(cfg, workloads.make_inputs(cfg, seed))
        for _ in range(rec.max_digest_ops):
            bench.measure(wl, st, 0.0, rec)  # one operation per call
        lines.append(f"perfbench {label}{name} {rec.digest.hexdigest()} "
                     f"over {rec.digest_ops} operations, {rec.failed} failed")
    return lines


def cli_digests(cli_main, small_digits: str, tmp: Path) -> list[str]:
    configs = {"digits": small_digits, "nonoise": small_digits + "noise_sigma = 0\n",
               "blobs": SMALL_BLOBS}
    for name, text in configs.items():
        (tmp / f"{name}.cfg").write_text(text, encoding="utf-8")
    steps = ([(command, "digits", "digits") for command in CLI_CHAIN]
             + [("train-denoiser", "nonoise", "digits"), ("ablate", "digits", "digits"),
                ("train-kernel", "blobs", "blobs"), ("calibrate", "blobs", "blobs")])
    for command, config, out in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([command, "--config", str(tmp / f"{config}.cfg"),
                             "--out", str(tmp / out)])
        if code != 0:
            raise SystemExit(f"{command} with {config}.cfg exited {code}")
    return [f"artifact {out}/{f.name} {hashlib.sha256(f.read_bytes()).hexdigest()}"
            for out in ("digits", "blobs") for f in sorted((tmp / out).iterdir())
            if not f.name.startswith("manifest_")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of an mmdefense checkout")
    checkout = parser.parse_args(argv).checkout.resolve()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if "numpy" in sys.modules:
        print("numpy was loaded before BLAS threads could be pinned", file=sys.stderr)
        return 2
    src = checkout / "src"
    sys.path[:0] = [str(src), str(checkout / "perfbench"), str(checkout / "tests")]
    import mmdefense
    if Path(mmdefense.__file__).resolve().parent != src / "mmdefense":
        print(f"mmdefense imported from {mmdefense.__file__}, not {src}", file=sys.stderr)
        return 2

    import bench
    import test_config_cli
    import test_perfbench
    import workloads
    from mmdefense.cli import main as cli_main
    with tempfile.TemporaryDirectory() as tmp:
        bench.OUT_DIR = Path(tmp) / "perfbench"
        lines = perfbench_digests(bench, workloads, test_perfbench.SMALL, PERFBENCH_SEED)
        for seed in REFERENCE_SEEDS:
            lines += perfbench_digests(bench, workloads, workloads.REFERENCE, seed,
                                       f"reference seed {seed} ")
        lines += cli_digests(cli_main, test_config_cli.SMALL_DIGITS, Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
