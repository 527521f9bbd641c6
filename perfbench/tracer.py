"""In-memory tracer for the benchmark's traced run.

The tracer replaces each function named in ``layers.json`` by a wrapper, in
every ``mastereq`` module namespace that binds it (methods are replaced on the
class that defines them).  A wrapper counts calls, accumulates self time (its
duration minus the time of wrapped calls it made) and records a span
``(id, name, start, end, parent, op)``.  Spans stay in memory and are written
out by the caller at the end of the run.  Only spans of at least
``SPAN_MIN_S`` are kept, up to ``SPAN_BUDGET`` of them: a parent lasts at least
as long as its child, so every kept span's parent is kept too, while the
millions of microsecond leaf calls show only in the counts and self times,
which cover every call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

LAYERS_FILE = Path(__file__).with_name("layers.json")
SPAN_BUDGET = 200_000
SPAN_MIN_S = 50e-6


def load_layers() -> dict:
    with open(LAYERS_FILE, encoding="utf-8") as fh:
        return json.load(fh)["layers"]


def function_table(layers: dict) -> list[tuple[str, str, str, list[str]]]:
    """(layer, function, metric key, workloads that must call it) per traced function."""
    out = []
    for layer, spec in layers.items():
        for entry in spec["functions"]:
            if isinstance(entry, str):
                name, workloads = entry, spec["most_work"]
            else:
                name, workloads = entry["name"], [entry["workload"]]
            out.append((layer, name, f"{layer}.{name}", list(workloads)))
    return out


class Tracer:
    def __init__(self, observe: dict | None = None):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.observed: dict[str, float] = {}
        self.spans: list = []
        self.skipped = 0
        self._next_id = 0
        self.op = None
        self.active = False
        self._observe = observe or {}
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, layers: dict) -> dict[str, int]:
        """Wrap every listed function; returns the number of bindings replaced per key."""
        bindings = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mastereq" or name.startswith("mastereq."))]
        for layer, name, key, _ in function_table(layers):
            module = importlib.import_module(f"mastereq.{layer}")
            self.calls[key] = 0
            self.self_s[key] = 0.0
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(key, raw.__func__))
                else:
                    wrapped = self._wrap(key, raw)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                bindings[key] = 1
                continue
            original = getattr(module, name)
            wrapper = self._wrap(key, original)
            count = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                        count += 1
            bindings[key] = count
        return bindings

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.active = False

    def _wrap(self, key: str, fn):
        calls, self_s, stack, spans = self.calls, self.self_s, self._stack, self.spans
        observe = self._observe.get(key)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [0.0, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[key] += 1
                self_s[key] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if duration >= SPAN_MIN_S and len(spans) < SPAN_BUDGET:
                    spans.append((frame[1], key, start, end,
                                  parent[1] if parent is not None else -1, tracer.op))
                else:
                    tracer.skipped += 1
            if observe is not None:
                tracer.observed[key] = tracer.observed.get(key, 0) + observe(result)
            return result

        return wrapper

    # -- output -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        doc = {"fields": ["id", "name", "start", "end", "parent", "op"],
               "min_duration_s": SPAN_MIN_S, "skipped": self.skipped, "spans": self.spans}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
