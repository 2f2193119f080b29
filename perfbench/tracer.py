"""Span tracer for trimech's layer modules, applied from outside.

`Tracer` replaces every binding of each public function of the traced
modules (the defining module, the package namespace, and every other
trimech module that imported the name) with a wrapper that records one
span per call: calls, inclusive and self time, the exceptions raised,
and the caller, all aggregated in memory.  `numpy.linalg.eig` and
`eigvals` get counting wrappers, so eigen-solves can be attributed to
the enclosing span.  Leaving the `with` block restores every binding.

Functions imported lazily inside a function body (`from .validate import
lyapunov_direct`) read the module attribute at call time, so they are
traced through the module binding.
"""

import functools
import importlib
import inspect
import sys
import time

import numpy.linalg

LAYERS = ("params", "steady", "linear", "validate", "sweeps", "config", "cli")
COUNTED = ((numpy.linalg, "eig"), (numpy.linalg, "eigvals"))


class FunctionStats:
    """Aggregate of the spans of one function."""

    __slots__ = ("calls", "total_s", "self_s", "errors", "ok_calls",
                 "ok_eigs", "evaluations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = {}      # exception type name -> count
        self.ok_calls = 0     # calls that returned normally
        self.ok_eigs = 0      # eigen-solves inside those calls
        self.evaluations = 0  # sum of result.evaluations, where recorded

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Wrap the public functions of `trimech.<layer>` for every layer."""

    def __init__(self):
        self.stats = {}        # "layer.function" -> FunctionStats
        self.edges = {}        # (caller or None, callee) -> calls
        self.eig_calls = 0
        self.root_s = 0.0      # time covered by spans without a parent
        self._stack = []       # open frames: [name, child seconds, eigs]
        self.bindings = self._bind()

    def _bind(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"trimech.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._span(f"{layer}.{name}", obj)
        bindings = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "trimech"
                                      or modname.startswith("trimech.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    bindings.append((module, attr, obj, wrappers[obj]))
        for owner, attr in COUNTED:
            original = getattr(owner, attr)
            bindings.append((owner, attr, original, self._counter(original)))
        return bindings

    def _span(self, name, fn):
        stat = self.stats.setdefault(name, FunctionStats())
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        count_evaluations = name == "sweeps.optimize_scalar"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = type(exc).__name__
                stat.errors[key] = stat.errors.get(key, 0) + 1
                raise
            else:
                stat.ok_calls += 1
                stat.ok_eigs += frame[2]
                if count_evaluations:
                    stat.evaluations += result.evaluations
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent[2] += frame[2]
                    edge = (parent[0], name)
                else:
                    self.root_s += elapsed
                    edge = (None, name)
                edges[edge] = edges.get(edge, 0) + 1

        return traced

    def _counter(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.eig_calls += 1
            if stack:
                stack[-1][2] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self):
        for owner, attr, _, wrapper in self.bindings:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc_info):
        for owner, attr, original, _ in self.bindings:
            setattr(owner, attr, original)
        self._stack.clear()
        return False

    def stat(self, name):
        return self.stats.get(name) or FunctionStats()

    def layer_self_s(self, layer):
        return sum(s.self_s for name, s in self.stats.items()
                   if name.startswith(layer + "."))
