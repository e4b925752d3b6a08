"""Run-time span tracing of the xmodhash layers, kept in the benchmark's files.

``Tracer.install`` wraps every public function of each layer module, and the
public methods of the classes those modules define, then rebinds every
reference to the original that any ``xmodhash`` module holds: plain module
attributes (including names taken with ``from ... import``) and values of
module-level dicts such as the CLI's command table.  Nothing under ``src/``
changes; ``uninstall`` puts every original back.

Each call records one span: id, name, start, end, parent span and trace id
(the id of the root span, so all spans of one command or one lookup request
share it).  Spans stay in memory until ``summary`` aggregates them.
"""

import contextlib
import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("dataio", "kernelfeat", "labelspace", "trainer", "encoder", "retrieval", "cli")


def _count_kernelize(args, result):
    return {"cells": args["x"].n * args["km"].k}


def _count_update_latent(args, result):
    return {"accepted": float(result is not args.get("incumbent"))}


def _count_train(args, result):
    return {"sweeps": result[1].iterations_run}


def _count_encode(args, result):
    return {"rows": args["x_raw"].n}


def _count_rank(args, result):
    return {"pairs": args["db"].n}


def _count_save_model(args, result):
    return {"bytes": Path(args["path"]).stat().st_size}


# Work counters taken at the layer boundary from the call's arguments and
# result, keyed by span name.
COUNTERS = {
    "kernelfeat.kernelize": _count_kernelize,
    "trainer.update_latent": _count_update_latent,
    "trainer.train": _count_train,
    "encoder.encode": _count_encode,
    "retrieval.rank_by_hamming": _count_rank,
    "dataio.save_model": _count_save_model,
}


class Tracer:
    """Span recorder plus the rebinding of layer functions to traced wrappers."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, trace id)
        self.counters = defaultdict(float)
        self.enabled = True
        self._stack = []         # (span id, trace id) of the open spans
        self._next_id = 0
        self._patches = []       # (setter target, key, original, is_dict)

    def reset(self):
        self.spans = []
        self.counters = defaultdict(float)

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent, trace_id = self._stack[-1] if self._stack else (None, span_id)
        self._stack.append((span_id, trace_id))
        return span_id, parent, trace_id

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around benchmark code, e.g. one lookup request."""
        span_id, parent, trace_id = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, trace_id))

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id, parent, trace_id = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, trace_id))
            tracer.counters[f"{name}.calls"] += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in counter(bound, result).items():
                    tracer.counters[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap the public layer functions and rebind every reference to them."""
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"xmodhash.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            wrapped = self.wrap(f"{layer}.{attr}.{meth}", fn)
                            self._patches.append((obj, meth, fn, False))
                            setattr(obj, meth, wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "xmodhash" or mod_name.startswith("xmodhash.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj, False))
                    setattr(mod, attr, replace[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replace and replace[id(value)][0] is value:
                            self._patches.append((obj, key, value, True))
                            obj[key] = replace[id(value)][1]

    def uninstall(self):
        for target, key, original, is_dict in reversed(self._patches):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches = []

    def summary(self):
        """Per span name: calls, busy seconds, self seconds and parent names.

        Busy time sums the span durations; self time subtracts the durations
        of each span's direct children, which run inside it.
        """
        names = {}
        child_time = defaultdict(float)
        for span_id, name, start, end, parent, _ in self.spans:
            names[span_id] = name
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for span_id, name, start, end, parent, _ in self.spans:
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "parents": {}})
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child_time[span_id]
            parent_name = names.get(parent, "(root)")
            rec["parents"][parent_name] = rec["parents"].get(parent_name, 0) + 1
        return out
