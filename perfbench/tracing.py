"""Spans around mobiuswalk's public functions, recorded from outside.

`install` rebinds every public function of the traced modules, in every
mobiuswalk namespace that holds it, to a wrapper that records a span:
name, start, end, CPU time of its thread, parent span and thread.  A generator function gets one
span per next().  A few public methods are wrapped on their class, and a
few hot leaf functions are only counted.  Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time

PACKAGE = "mobiuswalk"
MODULES = ("seqgen", "numth", "mertens", "statcore", "battery", "extremes",
           "dirichlet", "cli")
METHODS = {
    "seqgen.BitSequence": ("slice_bits", "slice_mu"),
    "battery.BatteryReport": ("aggregate", "write_jsonl"),
}
# Called about 1400 times per 1.41e6-bit block (gf2_rank) or thousands of
# times per quadrature (mori_f): a span each would distort what it measures.
COUNT_ONLY = frozenset({"battery.gf2_rank", "extremes.mori_f"})


def _file_bytes(arg):
    return lambda bound, result: {"bytes": os.path.getsize(bound[arg])}


# name -> hooks: "rename" picks the span name from the bound arguments,
# "after" adds attributes once the call returned, "item" adds attributes
# from each value a generator yields.
HOOKS = {
    "battery.serial_frequency": {"rename": lambda b: f"battery.serial_m{b['m']}"},
    "battery.run_battery_on_blocks": {
        "after": lambda b, r: {"workers": max(1, b.get("workers") or 1)}},
    "seqgen.iter_mobius": {"item": lambda item: {"integers": item[1] - item[0]}},
    "seqgen.generate_sequence_file": {"after": _file_bytes("path")},
    "seqgen.write_sequence": {"after": _file_bytes("path")},
    "seqgen.read_sequence": {"after": _file_bytes("path")},
}


class Tracer:
    """Spans and counts recorded while `recording` is true."""

    def __init__(self):
        self.spans: list[dict] = []
        self.recording = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_counts: list[dict] = []

    def _state(self):
        state = self._local.__dict__
        if "stack" not in state:
            state["stack"] = []
            state["counts"] = {}
            with self._lock:
                self._thread_counts.append(state["counts"])
        return state

    def begin(self, name: str):
        if not self.recording:
            return None
        stack = self._state()["stack"]
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "cpu": time.thread_time(), "parent": stack[-1] if stack else None,
                "thread": threading.get_ident()}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def end(self, span) -> None:
        if span is not None:
            span["end"] = time.perf_counter()
            span["cpu"] = time.thread_time() - span["cpu"]
            self._local.stack.pop()

    def count(self, name: str) -> None:
        if self.recording:
            counts = self._state()["counts"]
            counts[name] = counts.get(name, 0) + 1

    def counts(self) -> dict:
        total: dict[str, int] = {}
        for counts in self._thread_counts:
            for name, n in counts.items():
                total[name] = total.get(name, 0) + n
        return total


def _wrap(tracer: Tracer, fn, name: str):
    if name in COUNT_ONLY:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return counted

    hooks = HOOKS.get(name, {})
    sig = inspect.signature(fn) if "rename" in hooks or "after" in hooks else None

    def bound(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    if inspect.isgeneratorfunction(fn):
        item_hook = hooks.get("item")

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    span = tracer.begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(span)
                    if span is not None and item_hook:
                        span.update(item_hook(item))
                    yield item
            finally:
                it.close()
        return traced_gen

    rename, after = hooks.get("rename"), hooks.get("after")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        span = tracer.begin(rename(bound(args, kwargs)) if rename else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after:
            span.update(after(bound(args, kwargs), result))
        return result
    return traced


def _is_public_function(obj, module) -> bool:
    return (getattr(obj, "__module__", None) == module.__name__
            and (inspect.isfunction(obj) or hasattr(obj, "cache_info")))


def install(tracer: Tracer) -> None:
    """Rebind the traced modules' public functions to span wrappers."""
    modules = {short: importlib.import_module(f"{PACKAGE}.{short}")
               for short in MODULES}
    wrapped = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and _is_public_function(obj, module):
                wrapped[id(obj)] = _wrap(tracer, obj, f"{short}.{attr}")
    for qualified, methods in METHODS.items():
        short, cls_name = qualified.split(".")
        cls = getattr(modules[short], cls_name)
        for method in methods:
            setattr(cls, method,
                    _wrap(tracer, getattr(cls, method), f"{qualified}.{method}"))
    for namespace in (importlib.import_module(PACKAGE), *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            if id(obj) in wrapped:
                setattr(namespace, attr, wrapped[id(obj)])
