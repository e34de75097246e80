"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions of the ``cdconf`` modules from outside the
library: each wrapper records one span (name, start, end, parent, thread,
scene id) per call.  A function is patched under every name it is bound to,
in its defining module and in every module that imported it, so calls made
through ``from .dcva import detect_pair`` are seen as well.

Spans started on a worker thread with nothing open on that thread take the
innermost span open on the tracer's main thread as their parent, which is the
call that handed out the work (``ensemble_counts_with`` under ``--threads``).

With ``memory=True`` each span also records its peak allocation: the highest
``tracemalloc`` reading while it was open, minus the reading when it opened.
NumPy reports its buffers to ``tracemalloc``, so array temporaries count.
``tracemalloc`` is process-wide, so under threads a span also sees what a
concurrent sibling allocated.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: str = ""
    scene: int | None = None
    peak_alloc: int = 0
    mb: float = 0.0
    gflop: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions while ``enabled`` is true."""

    def __init__(self, memory: bool = False):
        self.spans: list[Span] = []
        self.enabled = False
        self.scene: int | None = None
        self.memory = memory
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._open_mem: dict[int, list[int]] = {}

    # -- span bookkeeping -------------------------------------------------

    def begin(self, name: str) -> int:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks[ident]
            if stack:
                parent = stack[-1]
            elif ident != self._main and self._stacks[self._main]:
                parent = self._stacks[self._main][-1]
            else:
                parent = None
            idx = len(self.spans)
            span = Span(name, 0.0, parent=parent, thread=str(ident), scene=self.scene)
            self.spans.append(span)
            stack.append(idx)
            if self.memory:
                cur = self._mem_update()
                self._open_mem[idx] = [cur, cur]
            span.start = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        t = time.perf_counter()
        with self._lock:
            span = self.spans[idx]
            span.end = t
            self._stacks[threading.get_ident()].remove(idx)
            if self.memory:
                self._mem_update()
                base, high = self._open_mem.pop(idx)
                span.peak_alloc = high - base

    def _mem_update(self) -> int:
        """Fold the peak since the last event into every open span; restart the peak."""
        cur, peak = tracemalloc.get_traced_memory()
        for rec in self._open_mem.values():
            if peak > rec[1]:
                rec[1] = peak
        tracemalloc.reset_peak()
        return cur

    def span(self, name: str):
        """Context manager recording one span, whatever ``enabled`` says."""
        return _SpanContext(self, name)

    def add(self, span: Span) -> int:
        """Append a span recorded elsewhere (e.g. in a child process)."""
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, sizer: Callable | None = None) -> Callable:
        """Wrapper of ``fn`` that records a span named ``name`` when enabled.

        ``sizer(args, kwargs, result)`` may return ``{"mb": .., "gflop": ..}``
        to attach work counts to the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if sizer is not None:
                for key, value in sizer(args, kwargs, out).items():
                    setattr(self.spans[idx], key, value)
            return out

        return wrapper


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.idx = -1

    def __enter__(self) -> int:
        self.idx = self.tracer.begin(self.name)
        return self.idx

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.idx)


def instrument(tracer: Tracer, layers: dict[str, tuple[str, ...]],
               sizers: dict[str, Callable] | None = None) -> Callable[[], None]:
    """Patch every binding of each listed function; return an undo callable.

    ``layers`` maps a ``cdconf`` submodule name to its public functions.  Span
    names are ``<module>.<function>``.  Every module already imported whose
    namespace holds the original function object gets the wrapper in its
    place, so import the modules that call these functions first.
    """
    sizers = sizers or {}
    replace: dict[int, tuple[Callable, Callable]] = {}
    for module, names in layers.items():
        mod = importlib.import_module(f"cdconf.{module}")
        for fname in names:
            orig = getattr(mod, fname)
            qual = f"{module}.{fname}"
            replace[id(orig)] = (orig, tracer.wrap(qual, orig, sizers.get(qual)))
    patched: list[tuple[dict, str, Callable]] = []
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[attr] = hit[1]
                patched.append((namespace, attr, value))

    def undo() -> None:
        for namespace, attr, value in patched:
            namespace[attr] = value

    return undo


# -- arithmetic over recorded spans ----------------------------------------


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children that overlap each other (worker threads) are counted once, so a
    parent waiting on two parallel children is charged only for the time
    when neither ran.
    """
    kids = children_of(spans)
    out = []
    for i, s in enumerate(spans):
        covered = union_length(
            [(max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in kids[i]]
        )
        out.append(s.duration - covered)
    return out


def overlap_time(spans: list[Span], only: list[int] | None = None) -> float:
    """Time counted twice by self times because sibling spans ran at once.

    The self times of a tree sum to its root's duration plus this amount.
    ``only`` restricts the parents considered to these indices.
    """
    kids = children_of(spans)
    total = 0.0
    for i in range(len(spans)) if only is None else only:
        s = spans[i]
        if kids[i]:
            clipped = [(max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in kids[i]]
            total += sum(max(0.0, e - b) for b, e in clipped) - union_length(clipped)
    return total


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and all its descendants."""
    kids = children_of(spans)
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids[i])
    return sorted(out)


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]


def spans_from_json(rows: list[dict]) -> list[Span]:
    return [Span(**row) for row in rows]
