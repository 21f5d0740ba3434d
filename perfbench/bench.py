"""Measured runs of one workload: set-up, the timed loop, the result line."""
from __future__ import annotations

import bisect
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import signal
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import spans
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"
# Operations hashed into the digest.  A fixed prefix keeps digests comparable
# between runs that complete different numbers of operations.
DIGEST_OPS = {"train": 1, "attack": 4, "serve": 256}

END_TO_END_UNITS = {"setup_s": "s", "latency_ms_p50": "ms", "samples_per_s": "samples/s",
                    "peak_rss_mb": "MB"}
NAMED_UNITS = {"setup_s": "s", "train_s": "s", "attack_samples_per_s": "samples/s",
               "serve_samples_per_s": "samples/s", "defend_ms_p50": "ms",
               "defend_ms_p99": "ms", "peak_rss_mb": "MB", "failed_share": "ratio",
               "machine_speed": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "tensor.tape.nodes":
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", ".self_s")):
        return "s"
    return "ratio"


class Record:
    """Attempted and failed operations, the first failure reasons, the digest."""

    def __init__(self, digest_ops: int):
        self.attempted = self.failed = 0
        self.reasons: list[str] = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0
        self.max_digest_ops = digest_ops

    def add(self, outcome: workloads.Outcome):
        self.attempted += outcome.units
        self.failed += len(outcome.problems)
        self.reasons.extend(outcome.problems[:max(0, 20 - len(self.reasons))])
        if self.digest_ops < self.max_digest_ops and not outcome.problems:
            for arr in outcome.outputs:
                self.digest.update(np.ascontiguousarray(arr).tobytes())
            self.digest_ops += 1


class Loop:
    """Timings of one measured loop."""

    def __init__(self):
        self.op_s: list[float] = []
        self.latency_s: list[float] = []
        self.when: list[tuple[float, float]] = []  # start and end of each operation
        self.samples = 0
        self.verdicts: list[str] = []

    def samples_per_s(self, speeds=None) -> float:
        """Samples per second of operation time, scaled by per-operation speeds."""
        if speeds is None:
            return self.samples / sum(self.op_s)
        return self.samples / sum(t * v for t, v in zip(self.op_s, speeds))


class SpeedSampler:
    """Samples how fast the machine runs while a measurement is in progress.

    On a shared machine the speed of the same code drifts by 20-30%, over
    milliseconds as well as minutes.  Every `interval` seconds a timer signal
    runs a fixed probe, shaped like the workloads' calls but independent of
    mmdefense, and records when it ran and how long it took.  `busy` tells
    callers how much of an interval went to probes, so they can subtract it
    from what they time.
    """

    NOMINAL_S = 5.5e-4  # median probe time on the 2-CPU Xeon the baselines used

    def __init__(self, interval: float = 0.02):
        gen = np.random.default_rng(0)
        self._a, self._b, self._w = gen.random((100, 64)), gen.random((100, 64)), gen.random((64, 32))
        self._offdiag = 1.0 - np.eye(100)
        self._small = gen.random((8, 8))
        self.interval = interval
        self.at: list[float] = []
        self.took: list[float] = []
        self._busy = False
        self._previous = None

    def probe(self, *_):
        if self._busy:
            return
        self._busy = True
        began = perf_counter()
        a, b = self._a, self._b
        for _ in range(2):  # kernel-shaped numpy calls, as in h_matrix
            h = np.maximum(a @ self._w, 0.0)
            d2 = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * (a @ b.T)
            float((np.exp(-d2 / 8.0) * self._offdiag).sum() + h.sum())
        # interpreter-bound work, as in the tape: a chain of small ops recorded
        # forward with closures, then replayed in reverse through a dict
        x, tape = self._small, []
        for _ in range(40):
            y = x * 1.0001 + 0.5
            tape.append((y, x, lambda g, x=x: g * x))
            x = np.maximum(y, 0.0)
        adjoint = {id(tape[-1][0]): np.ones_like(x)}
        for out, parent, grad in reversed(tape):
            g = adjoint.pop(id(out), None)
            if g is not None:
                adjoint[id(parent)] = grad(g)
        took = perf_counter() - began
        self.at.append(began + took / 2)
        self.took.append(took)
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()
        return False

    def busy(self, start: float, end: float) -> float:
        """Seconds of probes that ran between `start` and `end`."""
        return sum(self.took[bisect.bisect_left(self.at, start):
                             bisect.bisect_right(self.at, end)])

    def speed(self, start: float | None = None, end: float | None = None) -> float:
        """Mean of nominal over measured probe time between `start` and `end`
        (the nearest probe if none ran then; the whole run by default).

        Above 1 the machine ran faster than nominal, below 1 slower.  The mean
        of speeds, not the median of times, is what a wall time integrates.
        """
        lo, hi = 0, len(self.at)
        if start is not None:
            lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        if lo == hi:
            mid = (start + end) / 2
            lo = min((i for i in (lo - 1, lo) if 0 <= i < len(self.at)),
                     key=lambda i: abs(self.at[i] - mid))
            hi = lo + 1
        return self.NOMINAL_S * float(np.mean(1.0 / np.array(self.took[lo:hi])))


def _run_once(wl: workloads.Workload, st, tracer: spans.Tracer | None):
    if tracer is None:
        return wl.run(st)
    tracer.install()
    try:
        with tracer.span(spans.OP):
            return wl.run(st)
    finally:
        tracer.uninstall()


def _failed(wl: workloads.Workload) -> workloads.Outcome:
    """Every unit of the operation failed; call from an `except` block."""
    return workloads.Outcome(wl.units, [traceback.format_exc(limit=-2)] * wl.units, [], [])


def measure(wl: workloads.Workload, st, seconds: float, rec: Record,
            tracer: spans.Tracer | None = None,
            sampler: SpeedSampler | None = None) -> list[Loop]:
    """Repeat the operation closed-loop until the next one would end after
    `seconds`; returns [untraced, traced] loops.

    With a tracer, operations 1 and 2 of every 4 are traced, so traced and
    untraced operations see the same machine conditions and both halves of
    serve's alternating clean/PGD stream.
    """
    loops = [Loop(), Loop()]
    start = perf_counter()
    last = 0.0
    i = 0
    while i < (2 if tracer else 1) or perf_counter() - start + last <= seconds:
        loop = loops[1] if tracer and i % 4 in (1, 2) else loops[0]
        began = perf_counter()
        try:
            raw = _run_once(wl, st, tracer if loop is loops[1] else None)
        except Exception:  # a failed operation is counted, not fatal
            raw, outcome = None, _failed(wl)
        ended = perf_counter()
        op_s = ended - began - (sampler.busy(began, ended) if sampler else 0.0)
        if raw is not None:
            try:
                outcome = wl.check(st, raw)
            except Exception:  # a failed check is counted, not fatal
                outcome = _failed(wl)
            else:
                loop.samples += wl.samples(st)
        loop.op_s.append(op_s)
        loop.when.append((began, ended))
        if wl.latency and not outcome.problems:
            called, returned = wl.latency(raw)
            loop.latency_s.append(returned - called
                                  - (sampler.busy(called, returned) if sampler else 0.0))
        else:
            loop.latency_s.append(op_s)
        loop.verdicts.extend(outcome.verdicts)
        rec.add(outcome)
        last = perf_counter() - began
        i += 1
    return loops


def blas_threads() -> int | None:
    """Threads of the loaded OpenBLAS, asked through its own API."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run(workload: str, seed: int, seconds: float, trace: bool,
        cfg: workloads.Config = workloads.REFERENCE) -> dict:
    """Run one workload, print its metric table and return the result."""
    wl = workloads.WORKLOADS[workload]
    rec = Record(DIGEST_OPS[workload])
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            with tracer.span(spans.SETUP):
                inp = workloads.make_inputs(cfg, seed)
        finally:
            tracer.uninstall()
        st = wl.prepare(cfg, inp)
        plain, traced = measure(wl, st, seconds, rec, tracer)
        metrics = tracer.layer_metrics()
        verdicts = traced.verdicts
        metrics["defense.branch.adversarial_share"] = (
            verdicts.count("adversarial") / len(verdicts) if verdicts else 0.0)
        untraced_ms = 1e3 * median(plain.op_s)
        metrics["trace.overhead_ms"] = 1e3 * median(traced.op_s) - untraced_ms
        metrics["trace.overhead_share"] = metrics["trace.overhead_ms"] / untraced_ms
        units = {k: layer_unit(k) for k in metrics}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{workload}-seed{seed}.npz")
        named = {k: (v, units[k]) for k, v in metrics.items()}
    else:
        setup_s, setup_when = [], []
        with SpeedSampler() as sampler:
            for _ in range(wl.setup_repeats):
                began = perf_counter()
                st = wl.prepare(cfg, workloads.make_inputs(cfg, seed))
                ended = perf_counter()
                setup_s.append(ended - began - sampler.busy(began, ended))
                setup_when.append((began, ended))
            loop = measure(wl, st, seconds, rec, sampler=sampler)[0]
        speeds = [sampler.speed(*when) for when in loop.when]
        # wall-clock figures under the repository's names ...
        named = {"setup_s": median(setup_s)}
        if workload == "train":
            named["train_s"] = median(loop.op_s)
        elif workload == "attack":
            named["attack_samples_per_s"] = loop.samples_per_s()
        else:
            named["serve_samples_per_s"] = loop.samples_per_s()
            named["defend_ms_p50"] = 1e3 * median(loop.latency_s)
            named["defend_ms_p99"] = 1e3 * float(np.percentile(loop.latency_s, 99))
        named["peak_rss_mb"] = peak_rss_mb()
        named["failed_share"] = rec.failed / rec.attempted
        named["machine_speed"] = sampler.speed()
        named = {k: (v, NAMED_UNITS[k]) for k, v in named.items()}
        # ... and the gated ones: each time scaled by the machine speed
        # sampled while it ran
        metrics = {"setup_s": median(t * sampler.speed(*w) for t, w in zip(setup_s, setup_when)),
                   "latency_ms_p50": 1e3 * median(t * v for t, v in zip(loop.latency_s, speeds)),
                   "samples_per_s": loop.samples_per_s(speeds),
                   "peak_rss_mb": named["peak_rss_mb"][0]}
        units = END_TO_END_UNITS

    env = environment()
    print(f"workload {workload}, seed {seed}, {seconds} s, trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in named.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"operations: {rec.attempted} attempted, {rec.failed} failed")
    print(f"digest sha256:{rec.digest.hexdigest()} over the first {rec.digest_ops} operations")
    for reason in rec.reasons:
        print(f"FAILED: {reason.strip()}")
    result = {"correct": rec.failed == 0 and rec.attempted > 0,
              "attempted": rec.attempted, "failed": rec.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, "config": dataclasses.asdict(cfg),
              "named": {k: v for k, (v, _) in named.items()},
              "digest": rec.digest.hexdigest(), "digest_ops": rec.digest_ops,
              "failures": rec.reasons, "result": result}
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result
