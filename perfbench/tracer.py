"""Span recording around normaug's public functions, from outside the package.

`Tracer.install()` rebinds module and class attributes to timing wrappers;
`Tracer.restore()` puts the originals back. This only sees calls that look
the name up at call time (`T.backward`, `nb.partitioned_forward`,
`inference.evaluate`, `bn_forward` inside `partitioned_forward`, methods of
`TwoPathNetwork` and so on), which is every call site the workloads reach.

Every span keeps the index of the span that was open when it started, so a
layer's self time is its duration minus that of its direct children. Spans
stay in memory until `summary()` / `dump()` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (dotted module path or module.Class, attribute, span name)
TARGETS = (
    ("normaug.tensor", "backward", "tensor.backward"),
    ("normaug.normbank", "partitioned_forward", "normbank.partitioned_forward"),
    ("normaug.normbank", "bn_forward", "normbank.bn_forward"),
    ("normaug.normbank", "on_forward", "normbank.on_forward"),
    ("normaug.model.TwoPathNetwork", "forward_main", "model.forward_main"),
    ("normaug.model.TwoPathNetwork", "forward_aux", "model.forward_aux"),
    ("normaug.model.TwoPathNetwork", "forward_subpath", "model.forward_subpath"),
    ("normaug.model", "save_checkpoint", "model.save_checkpoint"),
    ("normaug.model", "load_checkpoint", "model.load_checkpoint"),
    ("normaug.training", "train_step", "training.train_step"),
    ("normaug.training.EpochSampler", "next_batch", "training.next_batch"),
    ("normaug.training", "two_path_loss", "training.two_path_loss"),
    ("normaug.training.SGD", "step", "training.sgd_step"),
    ("normaug.inference", "evaluate", "inference.evaluate"),
    ("normaug.inference", "fuse", "inference.fuse"),
    ("normaug.datagen", "generate", "datagen.generate"),
    ("normaug.datagen", "save", "datagen.save"),
    ("normaug.datagen", "load", "datagen.load"),
    ("normaug.diagnostics", "divergence", "diagnostics.divergence"),
    ("normaug.diagnostics", "perturbation_probe", "diagnostics.perturbation_probe"),
)


def _resolve(path: str):
    """Module or class named by a dotted path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(path)


class Tracer:
    """In-memory span log. Span i is (name[i], parent[i], start_ns[i], end_ns[i]);
    parent is -1 for a root span. `notes` holds per-span annotations (the
    fusion strategy of an `evaluate` call), `counts` the tape-node ops."""

    def __init__(self):
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.notes: dict[int, str] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start[i] = perf_counter_ns()
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span (set-up, a training run, one call)."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _wrapper(self, func, name: str, note=None):
        open_, close = self._open, self._close

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            i = open_(name)
            try:
                return func(*args, **kwargs)
            finally:
                close(i)
                if note is not None:
                    self.notes[i] = note(args, kwargs)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("Tracer.install: already installed")
        for path, attr, name in TARGETS:
            owner = _resolve(path)
            original = inspect.getattr_static(owner, attr)
            note = _evaluate_note(original) if name == "inference.evaluate" else None
            setattr(owner, attr, self._wrapper(original, name, note))
            self._saved.append((owner, attr, original))
        # tape size: count the ops of every tape `backward` replays
        tape_cls = _resolve("normaug.tensor.Tape")
        original = inspect.getattr_static(tape_cls, "trace")
        trace, counts = original.__func__, self.counts

        def counted_trace(cls, root):
            tape = trace(cls, root)
            counts["tape"] += 1
            counts.update(t.node.op for t in tape.entries)
            return tape

        tape_cls.trace = classmethod(counted_trace)
        self._saved.append((tape_cls, "trace", original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- derived views -----------------------------------------------------

    def descendants_of(self, roots: tuple[str, ...]) -> list[int]:
        """Indices of spans lying under any span named in `roots`."""
        under = [False] * len(self.name)
        out = []
        for i, p in enumerate(self.parent):
            if p >= 0 and (under[p] or self.name[p] in roots):
                under[i] = True
                out.append(i)
        return out

    def self_ns(self) -> list[int]:
        own = [e - s for s, e in zip(self.start, self.end)]
        out = list(own)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= own[i]
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self milliseconds."""
        selfs = self.self_ns()
        out: dict[str, dict] = {}
        for i, name in enumerate(self.name):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (self.end[i] - self.start[i]) / 1e6
            row["self_ms"] += selfs[i] / 1e6
        return out

    def dump(self, path, extra: dict) -> None:
        """Write every span (columnar) plus a per-name summary as JSON."""
        doc = dict(extra)
        doc["summary"] = self.summary()
        doc["spans"] = {"name": self.name, "parent": self.parent,
                        "start_ns": self.start, "end_ns": self.end,
                        "notes": {str(k): v for k, v in self.notes.items()}}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def _evaluate_note(evaluate):
    """Records which fusion strategy an `evaluate` call used."""
    sig = inspect.signature(evaluate)

    def note(args, kwargs) -> str:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["strategy"].value

    return note
