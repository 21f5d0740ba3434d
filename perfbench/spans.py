"""In-memory spans around the calls into each layer of mmdefense.

The tracer replaces every traced function at each name that binds it in a
loaded mmdefense module and restores the originals on ``uninstall``.  Every
binding matters: ``discrepancy`` calls its own ``features_forward`` binding,
so wrapping ``models.features_forward`` alone would record nothing for the
kernel.  The benchmark installs the wrappers only while it holds a root span
open (`setup` or `op`), so every recorded span lies under one.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import mmdefense

# Layer functions, named as module.function or module.Class.method.
FUNCTIONS = (
    "tensor.backward",
    "models.features_forward",
    "models.classifier_forward",
    "models.denoiser_forward",
    "models.train_classifier",
    "discrepancy.h_matrix",
    "discrepancy.mmd_opt",
    "discrepancy.optimize_kernel",
    "discrepancy.calibrate_threshold",
    "attacks.pgd",
    "attacks.adaptive_pgd_eot",
    "rng.Rng.normal",
    "optim.adam_step",
    "defense.defend_batch",
    "defense.BatchGate.push",
    "defense.train_denoiser",
    "dataio.synth_digits",
    "dataio.make_split",
)
# Called while the inputs are generated; reported per set-up, not per operation.
SETUP_FUNCTIONS = frozenset({"dataio.synth_digits", "dataio.make_split"})

SETUP = "setup"
OP = "op"


def tape_stats(tape, output) -> tuple[int, int, int]:
    """(nodes, parent adjoints backward computes, those on a path to a leaf
    that requires grad), found by walking the tape the way backward does."""
    reaches = set()
    for node in tape.nodes:
        if any(p.requires_grad or id(p) in reaches for p in node.parents):
            reaches.add(id(node.out))
    live = {id(output)}
    total = useful = 0
    for node in reversed(tape.nodes):
        if id(node.out) not in live:
            continue
        for p in node.parents:
            total += 1
            useful += p.requires_grad or id(p) in reaches
            live.add(id(p))
    return len(tape.nodes), total, useful


class Tracer:
    """Spans (name, parent, start, end) in flat arrays, plus phase counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[tuple[str, str], int] = {}
        self._patches: list[tuple[object, str, object, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Root span opened by the benchmark: `setup` or `op`."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def count(self, key: str, value: int):
        phase = self.names[self.name[self._stack[1]]]
        self.counters[phase, key] = self.counters.get((phase, key), 0) + value

    def wrap(self, name: str, fn, before=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _count_tape(self, tape, output):
        nodes, total, useful = tape_stats(tape, output)
        self.count("tape.nodes", nodes)
        self.count("tape.adjoints", total)
        self.count("tape.reachable_adjoints", useful)

    def _bind(self):
        modules = [importlib.import_module(f"mmdefense.{m.name}")
                   for m in pkgutil.iter_modules(mmdefense.__path__)]
        for name in FUNCTIONS:
            module, *attrs = name.split(".")
            owner = importlib.import_module(f"mmdefense.{module}")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            orig = getattr(owner, attrs[-1])
            before = self._count_tape if name == "tensor.backward" else None
            traced = self.wrap(name, orig, before)
            if len(attrs) > 1:  # a method: its class is the only binding
                bindings = [(owner, attrs[-1])]
            else:
                bindings = [(m, a) for m in modules
                            for a, v in vars(m).items() if v is orig]
            self._patches += [(target, attr, orig, traced) for target, attr in bindings]

    def install(self):
        """Wrap every function in FUNCTIONS at all of its bindings."""
        if not self._patches:
            self._bind()
        for target, attr, _, traced in self._patches:
            setattr(target, attr, traced)

    def uninstall(self):
        for target, attr, orig, _ in self._patches:
            setattr(target, attr, orig)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures: calls, inclusive and self seconds per operation
        (per set-up for SETUP_FUNCTIONS) and the tape and kernel ratios."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n = len(name)
        nested = parent >= 0
        self_s = dur - np.bincount(parent[nested], weights=dur[nested],
                                   minlength=n)
        # spans nest and never overlap, so a span's root is the last root
        # opened at or before it
        root = np.maximum.accumulate(np.where(nested, 0, np.arange(n)))
        phase = name[root]
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)

        def ident(key):
            return self._ids.get(key, -1)

        roots = {p: int(np.sum(~nested & (name == ident(p)))) for p in (SETUP, OP)}
        out = {}
        for fn in FUNCTIONS:
            p = SETUP if fn in SETUP_FUNCTIONS else OP
            mask = (name == ident(fn)) & (phase == ident(p))
            per = max(roots[p], 1)
            out[f"{fn}.calls"] = int(mask.sum()) / per
            out[f"{fn}.s"] = float(dur[mask].sum()) / per
            out[f"{fn}.self_s"] = float(self_s[mask].sum()) / per
        per_op = max(roots[OP], 1)
        out["tensor.tape.nodes"] = self.counters.get((OP, "tape.nodes"), 0) / per_op
        adjoints = self.counters.get((OP, "tape.adjoints"), 0)
        reachable = self.counters.get((OP, "tape.reachable_adjoints"), 0)
        out["tensor.tape.grad_reachable_share"] = reachable / adjoints if adjoints else 0.0
        in_op = phase == ident(OP)
        h_calls = int(np.sum(in_op & (name == ident("discrepancy.h_matrix"))))
        ff_in_h = int(np.sum(in_op & (name == ident("models.features_forward"))
                             & (parent_name == ident("discrepancy.h_matrix"))))
        out["models.features_forward.per_h_matrix"] = ff_in_h / h_calls if h_calls else 0.0
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
