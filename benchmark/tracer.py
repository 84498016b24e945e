"""Spans and counters around igk's layers, installed from outside the package.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records a span, and rebinds every ``igk`` namespace that
holds the function by name (``infoloss`` imports its own ``k_norm``,
``induced_model`` and ``as_kernel``, for example). It also wraps
``ParametrizedMeasureModel.__init__``, so that each model's density and
gradient callables count their calls, and ``MarkovKernel.__init__``, which
counts dense kernel cells. ``uninstall`` restores every binding.

A span is ``[id, parent, layer, name, t0, t1]``, kept in memory and written
out by ``dump``. A direct recursive call (``serialize.dumps`` recursing into
a nested list) is counted but opens no span of its own. Self time is a
span's duration minus the durations of its children; calls run on one
thread, so children never overlap.

Spans of model callables: the density and gradient of a model built by
``models.induced_model`` are ``markov.push`` (the pushforward through the
kernel; their source model's callables are children), and those of a model
built inside ``igk.families`` are ``families.density``. Other models (DSL
models, normalized models) are counted but open no span; their work shows
up in their children, such as ``dsl.eval_on_grid``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "serialize", "families", "dsl", "models", "markov", "measures", "infoloss")

# (name, unit) of every per-layer metric, in the order printed
METRICS = (
    ("markov.self_s", "s"),
    ("markov.push_s", "s"),
    ("markov.kernel_of_statistic_calls", "count"),
    ("markov.dense_cells", "count"),
    ("markov.dense_mb", "MB-computed"),
    ("serialize.dumps_s", "s"),
    ("serialize.dumps_calls", "count"),
    ("serialize.bytes_out", "bytes"),
    ("serialize.load_s", "s"),
    ("serialize.bytes_in", "bytes"),
    ("dsl.parse_s", "s"),
    ("dsl.eval_s", "s"),
    ("dsl.eval_calls", "count"),
    ("models.self_s", "s"),
    ("models.density_calls", "count"),
    ("models.grad_calls", "count"),
    ("models.fd_density_calls", "count"),
    ("models.density_calls_per_point", "count/point"),
    ("models.evaluate_calls", "count"),
    ("models.log_derivative_calls", "count"),
    ("models.induced_model_calls", "count"),
    ("families.build_s", "s"),
    ("families.density_s", "s"),
    ("families.density_calls", "count"),
    ("infoloss.self_s", "s"),
    ("infoloss.loss_entries", "count"),
    ("measures.self_s", "s"),
    ("measures.lk_norm_calls", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# counters that must repeat exactly between two traced runs at one seed
EXACT_COUNTERS = (
    "models.density_calls",
    "models.fd_density_calls",
    "dsl.eval_calls",
    "markov.dense_cells",
    "serialize.bytes_out",
    "infoloss.loss_entries",
)


def _bytes_out(tracer, args, result):
    tracer.counts["serialize.bytes_out"] += len(result.encode("utf-8"))


def _bytes_in(tracer, args, result):
    tracer.counts["serialize.bytes_in"] += os.path.getsize(args[0])


def _loss_entries(tracer, args, result):
    tracer.counts["infoloss.loss_entries"] += len(result.entries)


def _point(tracer, args, result):
    tracer.points.add(tuple(float(v) for v in np.atleast_1d(args[1])))


# hooks run after a traced call returns: (tracer, args, result)
_HOOKS = {
    "serialize.dumps": _bytes_out,
    "serialize.write_csv": _bytes_out,
    "serialize.load_json": _bytes_in,
    "infoloss.loss_table": _loss_entries,
    "models.evaluate": _point,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = Counter()  # "layer.function" -> calls, recursive ones too
        self.counts = Counter()  # other counters, named as reported
        self.points = set()  # distinct parameter points passed to models.evaluate
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _open(self, layer, name):
        parent = self.stack[-1][0] if self.stack else -1
        span = [len(self.spans), parent, layer, name, perf_counter(), 0.0]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span[5] = perf_counter()
        self.stack.pop()

    def _call(self, layer, name, fn, args, kwargs):
        span = self._open(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, layer, name, fn):
        key = layer + "." + name
        hook = _HOOKS.get(key)
        calls, stack = self.calls, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            top = stack[-1] if stack else None
            if top is not None and top[3] == name and top[2] == layer:
                return fn(*args, **kwargs)
            result = self._call(layer, name, fn, args, kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _in_mass_gradient(self):
        return any(s[3] == "mass_gradient" and s[2] == "models" for s in self.stack)

    def _model_callable(self, fn, kind, layer, name):
        """Count calls of a model's density (kind "density") or gradient."""
        counts = self.counts

        def call(xi):
            counts["models.{}_calls".format(kind)] += 1
            if kind == "density" and self._in_mass_gradient():
                counts["models.fd_density_calls"] += 1
            if layer is None:
                return fn(xi)
            self.calls[layer + "." + name] += 1
            return self._call(layer, name, fn, (xi,), {})

        return call

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: importlib.import_module("igk." + layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(layer, attr, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "igk" and not modname.startswith("igk."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

        model_cls = modules["models"].ParametrizedMeasureModel
        model_init = model_cls.__init__

        def init_model(model, *args, **kwargs):
            model_init(model, *args, **kwargs)
            owner = self.stack[-1] if self.stack else None
            if owner is not None and owner[2:4] == ["models", "induced_model"]:
                layer, name = "markov", "push"
            elif owner is not None and owner[2] == "families":
                layer, name = "families", "density"
            else:
                layer = name = None
            model.density = self._model_callable(model.density, "density", layer, name)
            if model.density_grad is not None:
                model.density_grad = self._model_callable(
                    model.density_grad, "grad", layer, name)

        kernel_init = modules["markov"].MarkovKernel.__init__

        def init_kernel(kernel, *args, **kwargs):
            self._call("markov", "MarkovKernel", kernel_init, (kernel,) + args, kwargs)
            self.counts["markov.dense_cells"] += kernel.rows.size

        self._patch(model_cls, "__init__", init_model)
        self._patch(modules["markov"].MarkovKernel, "__init__", init_kernel)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def _outermost(self, pred):
        """Total duration of spans matching pred with no matching ancestor."""
        spans = self.spans
        total = 0.0
        for s in spans:
            if not pred(s):
                continue
            p = s[1]
            while p >= 0 and not pred(spans[p]):
                p = spans[p][1]
            if p < 0:
                total += s[5] - s[4]
        return total

    def self_times(self):
        """Self time per (layer, name) pair."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += s[5] - s[4]
        out = Counter()
        for s in self.spans:
            out[(s[2], s[3])] += (s[5] - s[4]) - child[s[0]]
        return out

    def metrics(self):
        """Every per-layer metric except trace.overhead_s, by name."""
        own = self.self_times()

        def layer_self(layer):
            return sum(v for (lay, _), v in own.items() if lay == layer)

        def named(layer, names):
            return lambda s: s[2] == layer and s[3] in names

        c, n = self.counts, self.calls
        density_calls = c["models.density_calls"]
        return {
            "markov.self_s": layer_self("markov"),
            "markov.push_s": own[("markov", "push")],
            "markov.kernel_of_statistic_calls": n["markov.kernel_of_statistic"],
            "markov.dense_cells": c["markov.dense_cells"],
            "markov.dense_mb": c["markov.dense_cells"] * 8 / 1e6,
            "serialize.dumps_s": self._outermost(named("serialize", ("dumps",))),
            "serialize.dumps_calls": n["serialize.dumps"],
            "serialize.bytes_out": c["serialize.bytes_out"],
            "serialize.load_s": self._outermost(
                lambda s: s[2] == "serialize"
                and (s[3] == "load_json" or s[3].endswith("_from_obj"))),
            "serialize.bytes_in": c["serialize.bytes_in"],
            "dsl.parse_s": self._outermost(named("dsl", ("parse", "differentiate"))),
            "dsl.eval_s": self._outermost(named("dsl", ("eval_on_grid", "eval_expr"))),
            "dsl.eval_calls": n["dsl.eval_on_grid"],
            "models.self_s": layer_self("models"),
            "models.density_calls": density_calls,
            "models.grad_calls": c["models.grad_calls"],
            "models.fd_density_calls": c["models.fd_density_calls"],
            "models.density_calls_per_point": density_calls / max(1, len(self.points)),
            "models.evaluate_calls": n["models.evaluate"],
            "models.log_derivative_calls": n["models.log_derivative"],
            "models.induced_model_calls": n["models.induced_model"],
            "families.build_s": self._outermost(
                lambda s: s[2] == "families" and s[3] != "density"),
            "families.density_s": self._outermost(named("families", ("density",))),
            "families.density_calls": n["families.density"],
            "infoloss.self_s": layer_self("infoloss"),
            "infoloss.loss_entries": c["infoloss.loss_entries"],
            "measures.self_s": layer_self("measures"),
            "measures.lk_norm_calls": n["measures.lk_norm"],
            "cli.self_s": layer_self("cli"),
        }

    def dump(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, layer, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                     "name": name, "start_s": start - t0,
                                     "end_s": end - t0}) + "\n")
