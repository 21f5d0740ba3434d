"""Benchmark of mmdefense: train, attack and serve workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 25 --trace 0

The last line of standard output is the JSON result.  With ``--trace 0`` it
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run.  Run records and spans are written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Pinned before numpy loads: a second BLAS thread spins on a 2-core box and
# makes the figures depend on the neighbours.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def seed_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def seconds_arg(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be positive")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "attack", "serve"))
    parser.add_argument("--seed", required=True, type=seed_arg)
    parser.add_argument("--seconds", required=True, type=seconds_arg)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if "numpy" in sys.modules:
        print("numpy was loaded before BLAS threads could be pinned", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "mmdefense" / "__init__.py").is_file():
        print(f"no mmdefense sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mmdefense
    if Path(mmdefense.__file__).resolve().parent != src / "mmdefense":
        print(f"mmdefense imported from {mmdefense.__file__}, not {src}", file=sys.stderr)
        return 2

    import bench
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
