"""Spans around calls into the hestonfp layers, recorded from outside the package.

Every public function (no leading underscore) defined in one of the layer
modules is replaced, in every layer module namespace that binds it, by a
wrapper that opens a span.  Wrapping each binding matters: ``cli`` imports
``survival_exact`` by name, so only the name inside ``cli`` sees those calls.

Spans are aggregated as they close instead of being stored, because the
approx-scan workload opens a few hundred thousand of them per pass.  A span's
self time is its duration minus the durations of its direct child spans.
Spans are recorded on one thread: the layers call public functions only from
the caller's thread (Monte Carlo worker threads run private block kernels).
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("core", "quadrature", "asymptotics", "montecarlo", "cli")

# labels whose per-call durations are kept, for percentiles
KEEP_DURATIONS = frozenset(("quadrature.survival_exact", "quadrature.survival_averaged",
                            "asymptotics.crossing_level"))


class Tracer:
    """Per-label span totals, per-layer self times and work counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []          # [stat, start, child_s]
        self.stats: dict[str, list] = {}     # label -> [layer, calls, self_s, durations]
        self.counts: Counter = Counter()

    def _stat(self, layer: str, label: str) -> list:
        if label not in self.stats:
            keep = [] if label in KEEP_DURATIONS else None
            self.stats[label] = [layer, 0, 0.0, keep]
        return self.stats[label]

    def begin(self, layer: str, label: str) -> None:
        """Open a span; ``wrap`` inlines this for speed."""
        self.stack.append([self._stat(layer, label), self.clock(), 0.0])

    def end(self) -> None:
        stat, start, child_s = self.stack.pop()
        dur = self.clock() - start
        stat[1] += 1
        stat[2] += dur - child_s
        if stat[3] is not None:
            stat[3].append(dur)
        if self.stack:
            self.stack[-1][2] += dur

    @property
    def calls(self) -> dict[str, int]:
        return {label: st[1] for label, st in self.stats.items()}

    @property
    def label_self_s(self) -> dict[str, float]:
        return defaultdict(float, {label: st[2] for label, st in self.stats.items()})

    @property
    def layer_self_s(self) -> dict[str, float]:
        out = defaultdict(float)
        for layer, _, self_s, _ in self.stats.values():
            out[layer] += self_s
        return out

    def durations(self, label: str) -> list[float]:
        st = self.stats.get(label)
        return st[3] if st is not None and st[3] is not None else []

    def wrap(self, fn, layer: str, label: str):
        before, after = _BEFORE.get(label), _AFTER.get(label)
        stat = self._stat(layer, label)
        stack, clock = self.stack, self.clock

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self.counts, args, kwargs)
            stack.append([stat, clock(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(self.counts, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package_modules: dict) -> list:
        """Wrap every public layer function in every layer namespace.

        ``package_modules`` maps layer name to module.  Returns the list of
        ``(module, name, original)`` needed by :func:`uninstall`.
        """
        by_module = {m.__name__: layer for layer, m in package_modules.items()}
        wrappers: dict[int, object] = {}
        patched = []
        for module in package_modules.values():
            for name, value in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = by_module.get(value.__module__)
                if layer is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self.wrap(value, layer, f"{layer}.{value.__name__}")
                patched.append((module, name, value))
                setattr(module, name, wrappers[id(value)])
        return patched


def uninstall(patched: list) -> None:
    for module, name, original in patched:
        setattr(module, name, original)


def _count_leaves(counts, result) -> None:
    """The adaptive leaves: ``panels_used`` of every survival result."""
    counts["leaves"] += int(result.panels_used)


def _count_evals(counts, args, kwargs):
    """Counts calls of the ``F`` and ``log_f`` callables handed to
    ``sine_transform``; calls on one-element arrays are cutoff probes."""
    def counted(fn):
        def call(w):
            n = getattr(w, "size", 1)
            counts["f_evals"] += 1
            counts["f_nodes"] += n
            if n == 1:
                counts["cutoff_probes"] += 1
            return fn(w)
        return call

    args = (counted(args[0]),) + tuple(args[1:])
    if kwargs.get("log_f") is not None:
        kwargs = {**kwargs, "log_f": counted(kwargs["log_f"])}
    return args, kwargs


_BEFORE = {"quadrature.sine_transform": _count_evals}
_AFTER = {"quadrature.survival_exact": _count_leaves,
          "quadrature.survival_averaged": _count_leaves}
