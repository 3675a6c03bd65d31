"""Span recording around calls into the package, and self time.

A ``Tracer`` replaces module and class attributes with wrappers that
record one span per call: name, start, end and the span that was open
when the call began (its parent). Spans live in flat arrays in memory
and are written out once, at the end. ``StepClock`` is the single
wrapper an untraced run keeps: one timestamp per optimizer step.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# Tensor engine primitives; every one counts towards tensor.ops_per_step.
TENSOR_OPS = ("add", "sub", "mul", "div", "neg", "exp", "log", "relu", "pow_const",
              "sqrt", "matmul", "dot", "transpose", "reshape", "sum_", "mean",
              "concat", "gather", "l2_normalize", "stop_gradient")

# Modules that imported `derive` by name call it through their own
# namespace, so each namespace gets its own wrapper.
_DERIVE_USERS = ("rng", "augment", "train", "nets", "checks", "cli")


def _targets() -> list[tuple[str, str | None, str, str]]:
    """(module, class or None, attribute, span name) for every call site
    the package uses. One span name may cover several call sites."""
    t = [("tensor", None, op, f"tensor.{op}") for op in TENSOR_OPS]
    t += [(mod, None, "backward", "tensor.backward") for mod in ("tensor", "train", "checks")]
    t += [(mod, None, "finite_diff_check", "tensor.finite_diff_check")
          for mod in ("tensor", "checks")]
    t += [(mod, None, "derive", "rng.derive") for mod in _DERIVE_USERS]
    t += [(mod, None, "augment_view", "augment.augment_view") for mod in ("augment", "train")]
    t += [(mod, None, "generate_dataset", "augment.generate_dataset") for mod in ("cli", "checks")]
    t += [(mod, None, "bounded_sigmoid", "nets.bounded_sigmoid")
          for mod in ("nets", "losses", "train")]
    t += [(mod, None, "separability_report", "metrics.separability_report")
          for mod in ("train", "cli")]
    for fn in ("encode_features", "knn_eval", "linear_probe", "build_eval_pairs"):
        t += [(mod, None, fn, f"train.{fn}") for mod in ("train", "cli")]
    t += [
        ("train", None, "make_two_views", "augment.make_two_views"),
        ("cli", None, "load_dataset", "augment.load_dataset"),
        ("cli", None, "write_dataset", "augment.write_dataset"),
        ("nets", "Mlp", "__call__", "nets.mlp"),
        ("train", None, "save_bundle", "nets.save_bundle"),
        ("cli", None, "load_bundle", "nets.load_bundle"),
        ("losses", None, "nce_head_terms", "losses.nce_head_terms"),
        ("losses", None, "ntxent_terms", "losses.ntxent_terms"),
        ("cli", None, "pretrain", "train.pretrain"),
        ("checks", None, "reduction_check", "train.reduction_check"),
        ("train", "SgdMomentum", "step", "train.optimizer_step"),
        ("train", None, "evaluate", "train.evaluate"),
        ("train", None, "temperature_stats", "metrics.temperature_stats"),
        ("cli", None, "gradcheck_suite", "checks.gradcheck_suite"),
        ("cli", None, "mle_equivalence_suite", "checks.mle_equivalence_suite"),
        ("cli", None, "reduction_suite", "checks.reduction_suite"),
        ("cli", None, "load_config", "config.load_config"),
    ]
    return t


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = make(original)
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original, wrapper))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original, _ = self._saved.pop()
            setattr(owner, attr, original)

    @property
    def active(self) -> bool:
        return bool(self._saved)


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(f"contrastlab.{module}")
    return getattr(mod, cls) if cls else mod


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run_starts: list[int] = []
        self._stack: list[int] = []
        self._patches = _Patches()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        name_id, start, end, parent, stack = (self.name_id, self.start, self.end,
                                              self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the benchmark's own."""
        return self._wrap(fn, name)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every call site and open a new run id."""
        if self._patches.active:
            raise RuntimeError("tracer already installed")
        self.run_starts.append(len(self.start))
        for module, cls, attr, name in _targets():
            self._patches.replace(_owner(module, cls), attr,
                                  lambda fn, name=name: self._wrap(fn, name))

    def uninstall(self) -> None:
        self._patches.restore()

    def run_slice(self, run: int) -> slice:
        stop = self.run_starts[run + 1] if run + 1 < len(self.run_starts) else len(self.start)
        return slice(self.run_starts[run], stop)

    def spans(self, run: int) -> "SpanTable":
        sl = self.run_slice(run)
        base = sl.start
        parent = np.frombuffer(self.parent, dtype=np.int64)[sl].copy()
        parent[parent >= 0] -= base
        return SpanTable(self.names,
                         np.frombuffer(self.name_id, dtype=np.int32)[sl].copy(),
                         np.frombuffer(self.start, dtype=np.float64)[sl].copy(),
                         np.frombuffer(self.end, dtype=np.float64)[sl].copy(),
                         parent)

    def write(self, path: Path) -> None:
        """All spans, with their run ids, as one compressed npz file."""
        n = len(self.start)
        run = np.zeros(n, dtype=np.int32)
        for r, first in enumerate(self.run_starts):
            run[first:] = r
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64), run=run)


def current_attributes() -> dict[tuple[str, str | None, str], object]:
    """The present value of every traced attribute, to check that
    uninstalling put each original back."""
    out = {}
    for module, cls, attr, _ in _targets():
        owner = _owner(module, cls)
        out[(module, cls, attr)] = owner.__dict__[attr] if cls else getattr(owner, attr)
    return out


class SpanTable:
    """One run's spans with parent indices local to the run; a parent
    index is always smaller than its child's (spans are stored in start
    order)."""

    def __init__(self, names, name_id, start, end, parent):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.duration = self.end - self.start

    def __len__(self) -> int:
        return len(self.start)

    def ids(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def mask(self, name: str) -> np.ndarray:
        return self.name_id == self.ids(name)

    def self_time(self) -> np.ndarray:
        """Each span's duration minus the durations of its children."""
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                            minlength=len(self))
        return self.duration - child

    def outermost(self) -> np.ndarray:
        """True for spans with no ancestor of the same name, so that
        inclusive times of a recursive name are not counted twice."""
        nested = np.zeros(len(self), dtype=bool)
        anc = self.parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            nested[live] |= self.name_id[anc[live]] == self.name_id[live]
            anc[live] = self.parent[anc[live]]
        return ~nested

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def inclusive(self, name: str) -> float:
        return float(self.duration[self.mask(name) & self.outermost()].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time()[self.mask(name)].sum())


class StepClock:
    """Timestamps after every ``SgdMomentum.step``, grouped by command."""

    def __init__(self):
        self.groups: list[list[float]] = []
        self._patches = _Patches()

    def install(self) -> None:
        stamps = self

        def make(step):
            @functools.wraps(step)
            def timed(*args, **kwargs):
                out = step(*args, **kwargs)
                stamps.groups[-1].append(time.perf_counter())
                return out
            return timed

        self._patches.replace(_owner("train", "SgdMomentum"), "step", make)

    def uninstall(self) -> None:
        self._patches.restore()

    def begin(self) -> list[float]:
        self.groups.append([])
        return self.groups[-1]
