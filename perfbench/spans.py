"""Layer spans for hallq, recorded from outside the package.

``Tracer.install`` replaces every public function of each layer module, and
every public method of the public classes defined there, by a wrapper that
records one span per call: name, parent span, start and end.  The wrapper is
bound wherever the original is looked up: on its module, and under every
name any hallq module imported it as (``from .gflinalg import mat_mul``).
Nothing under ``src/`` changes.

Generator functions are left unwrapped: their work happens while the caller
iterates, so it is charged to the caller's span.

Spans are kept in memory (four flat arrays) and written out once, by
``Tracer.write``, one text line per span.  A layer's self time is its span's duration minus the time
covered by its child spans; it is summed per name as the calls end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# Field-element arithmetic runs millions of times per round at about a
# microsecond each; a span per call would triple the traced run.  Its time is
# charged to the kernels that call it (mat_mul, rank, all_subspaces).
UNTRACED_CLASSES = ("gflinalg.FieldCtx",)


def _is_lru_cached(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_clear")


def cached_functions() -> list:
    """Every ``functools.lru_cache`` function in the loaded hallq modules,
    private ones included, so that a round can start with all caches cold."""
    seen = {}
    for mod in _hallq_modules():
        for obj in vars(mod).values():
            if _is_lru_cached(obj) and obj.__module__ == mod.__name__:
                seen[id(obj)] = obj
    return list(seen.values())


def _hallq_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "hallq" or name.startswith("hallq.")]


def _traceable(obj) -> bool:
    if inspect.isgeneratorfunction(obj):
        return False
    return inspect.isfunction(obj) or _is_lru_cached(obj)


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")  # perf_counter_ns
        self.span_end = array("q")
        self._stack: list[list] = []  # [span index, ns covered by children]

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        clock = time.perf_counter_ns
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        s_name, s_parent, s_start, s_end = self.span_name, self.span_parent, self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            start = clock()
            s_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                s_end[idx] = end
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]

        return traced

    def install(self, modules) -> None:
        """Wrap the public functions and methods of the given modules; the
        methods of UNTRACED_CLASSES stay unwrapped."""
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _traceable(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and f"{short}.{attr}" not in UNTRACED_CLASSES:
                    for meth, fn in sorted(vars(obj).items()):
                        if not meth.startswith("_") and _traceable(fn):
                            setattr(obj, meth, self._wrap(fn, f"{short}.{attr}.{meth}"))
        for mod in _hallq_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

    def snapshot(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per name so far."""
        return {n: (c, s / 1e9) for n, c, s in zip(self.names, self.calls, self.self_ns)}

    def write(self, path, count: int) -> None:
        """Write the first ``count`` spans.  The first line is a JSON header
        with the span names; then one line per span: name index, parent span
        (-1: no traced caller), and start and end in nanoseconds after the
        first span's start."""
        t0 = self.span_start[0] if count else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "columns": ["name", "parent", "start_ns", "end_ns"]}) + "\n")
            for i in range(count):
                fh.write(f"{self.span_name[i]} {self.span_parent[i]} "
                         f"{self.span_start[i] - t0} {self.span_end[i] - t0}\n")
