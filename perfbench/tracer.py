"""Outside-in tracing of objentropy: spans around module-level functions.

The tracer replaces each public function of the package's modules with a
timing wrapper at every module attribute that refers to it, which is where
callers look it up (``objentropy.cli.load_csv`` is the same function as
``objentropy.io.load_csv``). Calls made through a private table of function
objects (``likelihoods._FIT``) are not seen; their time stays in the
caller's self time. ``Dataset.subset`` and the cached flattening properties
are wrapped on the class. Every replaced name is restored on exit.

Spans live in memory. A span opened on a thread-pool worker takes as its
parent the innermost span open on the thread that submitted the task.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, NamedTuple

LAYERS = ("io", "data", "transforms", "likelihoods", "information",
          "diagnostics", "synthetic", "cli")
FLATTEN_PROPERTIES = ("observed", "predicted", "locations")

# counters[span][key](args, kwargs, result) is added to counts["<span>.<key>"].
Counters = dict[str, dict[str, Callable[[tuple, dict, Any], float]]]


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent_id: int  # 0 for a root


class Tracer:
    def __init__(self, counters: Counters | None = None) -> None:
        self.counts: dict[str, float] = defaultdict(float)
        self._counters = counters or {}
        self._count_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._names: list[str] = []
        # Five integers per span; an array is not scanned by the garbage
        # collector, so a long trace does not slow the traced program.
        self._records = array.array("q")
        self._restore: list[tuple[Any, str, Any]] = []

    @property
    def spans(self) -> list[Span]:
        r = self._records
        return [Span(self._names[r[i]], r[i + 1], r[i + 2], r[i + 3], r[i + 4])
                for i in range(0, len(r), 5)]

    def _stack(self) -> list[int]:
        """Open span ids on this thread; a pool task starts from its
        submitter's innermost span."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        code = len(self._names)
        self._names.append(name)
        counters = [(f"{name}.{key}", count)
                    for key, count in self._counters.get(name, {}).items()]
        record = self._records.extend
        clock = time.perf_counter_ns
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((code, start, end, span_id, parent))
            if counters:
                with self._count_lock:
                    for key, count in counters:
                        self.counts[key] += count(args, kwargs, result)
            return result

        return traced

    def _pool_class(self) -> type:
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0

                def run(*a, **kw):
                    worker = tracer._stack()
                    worker.append(parent)
                    try:
                        return fn(*a, **kw)
                    finally:
                        worker.pop()

                return super().submit(run, *args, **kwargs)

        return TracedPool

    # --- installing and removing wrappers ---

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self) -> None:
        modules = {layer: importlib.import_module(f"objentropy.{layer}")
                   for layer in LAYERS}
        lookups = [m for n, m in sorted(sys.modules.items())
                   if n == "objentropy" or n.startswith("objentropy.")]
        wrapped: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrapped[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        pool = self._pool_class()
        for module in lookups:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._replace(module, attr, wrapped[id(value)])
                elif value is ThreadPoolExecutor:
                    self._replace(module, attr, pool)
        dataset = modules["data"].Dataset
        self._replace(dataset, "subset",
                      self.wrap("data.Dataset.subset", dataset.subset))
        for attr in FLATTEN_PROPERTIES:
            prop = functools.cached_property(
                self.wrap(f"data.Dataset.{attr}", dataset.__dict__[attr].func)
            )
            prop.__set_name__(dataset, attr)
            self._replace(dataset, attr, prop)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time in seconds of each span.

    A span's self time is its duration minus the union of its children's
    intervals. Where spans on several threads are open without open
    children at the same instant, that instant is split evenly among them,
    so the self times under a root sum to the root's duration and time a
    thread spends waiting on a pool is charged to the pool's spans.
    """
    parent_of = {s.span_id: s.parent_id for s in spans}
    events = sorted(
        [(s.start_ns, 1, s.span_id) for s in spans]
        + [(s.end_ns, 0, s.span_id) for s in spans]
    )
    open_spans: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    frontier: set[int] = set()
    self_ns: dict[int, float] = defaultdict(float)
    last = 0
    for t, opening, span_id in events:
        if frontier and t > last:
            share = (t - last) / len(frontier)
            for s in frontier:
                self_ns[s] += share
        last = t
        parent = parent_of[span_id]
        if opening:
            open_spans.add(span_id)
            frontier.add(span_id)
            if parent in open_spans:
                open_children[parent] += 1
                frontier.discard(parent)
        else:
            open_spans.discard(span_id)
            frontier.discard(span_id)
            if parent in open_spans:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    frontier.add(parent)
    return {s.span_id: self_ns[s.span_id] / 1e9 for s in spans}


def root_of(spans: list[Span]) -> dict[int, int]:
    """Map each span id to the id of the root span above it."""
    parent_of = {s.span_id: s.parent_id for s in spans}
    roots: dict[int, int] = {}

    def find(span_id: int) -> int:
        path = []
        while span_id not in roots and parent_of.get(span_id, 0):
            path.append(span_id)
            span_id = parent_of[span_id]
        root = roots.get(span_id, span_id)
        for p in path:
            roots[p] = root
        roots[span_id] = root
        return root

    for s in spans:
        find(s.span_id)
    return roots
