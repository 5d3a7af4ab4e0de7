"""Span tracing of treecolor's public functions, installed from outside.

`Tracer.install()` wraps every public module-level function of every
treecolor module and rebinds each reference to it in all treecolor
modules, so calls through `from .x import f` bindings are traced too.
Private kernels stay unwrapped: their time lands in the self time of the
public function that calls them.

A span is (name, parent span, start, end).  Spans stay in memory as flat
arrays and are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "treecolor"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _samples(args, kwargs):
    return int(_arg(args, kwargs, 2, "n"))


def _blocks(args, kwargs):
    shape = _arg(args, kwargs, 0, "shape")
    return _samples(args, kwargs) * shape.branching ** (shape.depth - 1)


def _leaves(args, kwargs):
    shape = _arg(args, kwargs, 0, "shape")
    return _samples(args, kwargs) * shape.leaf_count


#: work counted per call, read off the arguments: span name -> counter
COUNTERS = {
    "broadcast_sampler.posterior_rows": _samples,
    "broadcast_sampler.sample_block_counts": _blocks,
    "broadcast_sampler.sample_leaf_rows": _leaves,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack
        name_of, parent, start, end, work = (
            self.name_of, self.parent, self.start, self.end, self.work)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_of.append(index)
            parent.append(stack[-1] if stack else -1)
            work.append(counter(args, kwargs) if counter else 0.0)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every loaded treecolor module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers = {}
        for module in modules:
            short = module.__name__[len(PACKAGE) + 1:]
            if not short:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for module in modules:
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((namespace, attr, obj))
                    namespace[attr] = hit[1]

    def uninstall(self) -> None:
        for namespace, attr, obj in reversed(self._restore):
            namespace[attr] = obj
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_of": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, work units."""
        a = self.arrays()
        n_names = len(self.names)
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        self_time = duration - child_time
        calls = np.bincount(a["name_of"], minlength=n_names)
        inclusive = np.bincount(a["name_of"], weights=duration, minlength=n_names)
        own = np.bincount(a["name_of"], weights=self_time, minlength=n_names)
        work = np.bincount(a["name_of"], weights=a["work"], minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "s": float(inclusive[i]),
                   "self_s": float(own[i]), "work": float(work[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
