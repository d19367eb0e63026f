"""Span tracing from outside the program.

The traced benchmark run wraps the public entry points of each layer
(class attributes and module functions, patched for the run and
restored afterwards) and ``os.fsync``. A span is ``(id, name, start_ns,
end_ns, parent id, op id, n)`` — *n* is a count taken at the boundary
(bytes, rows), 0 where none is; spans stay in memory until the run ends
and are then written as JSON-lines. A layer's *self time* is its spans'
duration minus the part their child spans cover, so the self times of
everything below a root span sum exactly to the root's duration.

Four shapes of callable are wrapped:

* plain functions and methods — one span per call;
* generator functions — one span per generator, whose duration is the
  time spent *inside* the generator (the consumer's work between two
  ``next`` calls belongs to the consumer, not to the generator);
* ``@contextmanager`` methods — one span from ``__enter__`` to
  ``__exit__`` (the body's own spans are its children);
* coroutine functions — one parentless span per call that adopts no
  children: coroutines interleave on the event-loop thread, so a
  per-thread stack cannot tell whose child a span is. Only their
  inclusive time is meaningful.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

__all__ = ["Tracer", "Span", "self_times", "load_spans", "calibrate_span_ns"]

#: (id, name, start_ns, end_ns, parent id or -1, op id, n)
Span = tuple[int, str, int, int, int, int, int]

_clock = time.perf_counter_ns


class Tracer:
    """Collects spans from wrapped callables; owns the patches it made."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: finished spans as (id, name id, start, end, parent, op, n)
        self._spans: list[tuple[int, int, int, int, int, int, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        #: while set, only wrappers made with ``always=True`` record:
        #: set-up creates hundreds of thousands of items whose per-item
        #: spans no metric reads
        self.quiet = False

    # -- per-thread state ---------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.op = 0
            return self._local.stack

    def set_op(self, op_id: int) -> None:
        """Tag spans opened by this thread with *op_id* from now on."""
        self._stack()
        self._local.op = op_id

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    # -- wrapping -----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        kind: str = "fn",
        measure: Optional[Callable[[tuple, Any], int]] = None,
        always: bool = False,
    ) -> Callable:
        """A traced stand-in for *fn* (*kind*: ``fn``, ``gen``, ``cm``
        or ``async``). *measure* ``(args, result) -> n`` takes a count
        at the boundary of a plain function (after its span closed).
        Unless *always*, the wrapper records nothing while the tracer
        is :attr:`quiet`."""
        nid = self._intern(name)
        if kind == "gen":
            return self._quietable(fn, self._wrap_generator(nid, fn), always)
        if kind == "cm":
            return self._quietable(fn, self._wrap_context_manager(nid, fn), always)
        if kind == "async":
            return self._quietable(fn, self._wrap_coroutine(nid, fn), always)
        tracer = self
        stack_of, local, spans, ids = self._stack, self._local, self._spans, self._ids

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.quiet and not always:
                return fn(*args, **kwargs)
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            n = 0
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                end = _clock()
                if measure is not None:
                    n = measure(args, result)
                return result
            except BaseException:
                end = _clock()
                raise
            finally:
                stack.pop()
                spans.append((sid, nid, start, end, parent, local.op, n))

        return traced

    def _quietable(self, fn: Callable, traced: Callable, always: bool) -> Callable:
        """*traced*, or *fn* itself while the tracer is quiet."""
        if always:
            return traced
        tracer = self

        @functools.wraps(fn)
        def dispatch(*args: Any, **kwargs: Any) -> Any:
            return (fn if tracer.quiet else traced)(*args, **kwargs)

        return dispatch

    def _wrap_coroutine(self, nid: int, fn: Callable) -> Callable:
        spans, ids = self._spans, self._ids

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            sid = next(ids)
            start = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                spans.append((sid, nid, start, _clock(), -1, 0, 0))

        return traced

    def _wrap_generator(self, nid: int, fn: Callable) -> Callable:
        stack_of, local, spans, ids = self._stack, self._local, self._spans, self._ids

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            inner = fn(*args, **kwargs)
            first: Optional[int] = None
            busy = 0
            try:
                while True:
                    stack = stack_of()  # the consumer may be another thread
                    stack.append(sid)
                    start = _clock()
                    if first is None:
                        first = start
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += _clock() - start
                        stack.pop()
                    yield item
            finally:
                inner.close()
                if first is not None:
                    spans.append((sid, nid, first, first + busy, parent, local.op, 0))

        return traced

    def _wrap_context_manager(self, nid: int, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> "_SpanContext":
            return _SpanContext(tracer, nid, fn(*args, **kwargs))

        return traced

    def span(self, name: str) -> "_SpanContext":
        """An explicit span around benchmark code: ``with tracer.span(n):``."""
        return _SpanContext(self, self._intern(name), None)

    # -- patching -----------------------------------------------------------

    def patch(
        self,
        name: str,
        target: str,
        kind: str = "fn",
        measure: Optional[Callable[[tuple, Any], int]] = None,
        always: bool = False,
    ) -> None:
        """Wrap ``module:Class.attr`` or ``module:function`` for the run.

        A module function is replaced in every loaded ``repro`` or
        ``bench`` module that imported it by name, so callers inside
        the program reach the wrapper too. ``classmethod``/``staticmethod`` attributes
        keep their binding.
        """
        module_name, __, path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(
                    self.wrap(name, raw.__func__, kind, measure, always)
                )
            else:
                wrapped = self.wrap(name, raw, kind, measure, always)
            self._set(owner, attr, wrapped)
            return
        original = getattr(module, path)
        wrapped = self.wrap(name, original, kind, measure, always)
        self._set(module, path, wrapped)
        for other_name, other in list(sys.modules.items()):
            if other is None or other is module or not other_name.startswith(
                ("repro.", "bench.")
            ):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._set(other, attr, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        """Restore everything :meth:`patch` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def spans(self) -> Iterator[Span]:
        names = self._names
        for sid, nid, start, end, parent, op, n in self._spans:
            yield (sid, names[nid], start, end, parent, op, n)

    def span_count(self) -> int:
        return len(self._spans)

    def dump(self, path: Path, header: dict) -> None:
        """Write *header* then one ``[id,name,start,end,parent,op,n]`` per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for span in self.spans():
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


class _SpanContext:
    """One span from ``__enter__`` to ``__exit__`` (optionally around an
    inner context manager)."""

    __slots__ = ("_tracer", "_nid", "_inner", "_sid", "_parent", "_start")

    def __init__(self, tracer: Tracer, nid: int, inner: Any) -> None:
        self._tracer = tracer
        self._nid = nid
        self._inner = inner

    def __enter__(self) -> Any:
        tracer = self._tracer
        stack = tracer._stack()
        self._sid = next(tracer._ids)
        self._parent = stack[-1] if stack else -1
        stack.append(self._sid)
        self._start = _clock()
        if self._inner is None:
            return self
        try:
            return self._inner.__enter__()
        except BaseException:
            self._finish()
            raise

    def __exit__(self, *exc_info: Any) -> Any:
        try:
            if self._inner is not None:
                return self._inner.__exit__(*exc_info)
            return None
        finally:
            self._finish()

    def _finish(self) -> None:
        tracer = self._tracer
        end = _clock()
        tracer._stack().pop()
        tracer._spans.append(
            (self._sid, self._nid, self._start, end, self._parent, tracer._local.op, 0)
        )


def self_times(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_ns`` (inclusive), ``self_ns``, ``n``.

    ``roots_ns`` under the key ``""`` is the summed duration of the
    parentless spans — what all self times add up to.
    """
    spans = list(spans)
    covered: dict[int, int] = defaultdict(int)
    for __, __, start, end, parent, __, __ in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    roots = 0
    for sid, name, start, end, parent, __, n in spans:
        row = table.setdefault(
            name, {"calls": 0, "total_ns": 0, "self_ns": 0, "n": 0}
        )
        duration = end - start
        row["calls"] += 1
        row["n"] += n
        row["total_ns"] += duration
        row["self_ns"] += duration - covered.get(sid, 0)
        if parent < 0:
            roots += duration
    table[""] = {"calls": 0, "total_ns": roots, "self_ns": roots, "n": 0}
    return table


def load_spans(path: Path) -> tuple[dict, list[Span]]:
    """Read a file written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())["header"]
        spans = [tuple(json.loads(line)) for line in handle if line.strip()]
    return header, spans  # type: ignore[return-value]


def calibrate_span_ns(samples: int = 20000) -> float:
    """Cost of one span on this box: traced minus bare call of a no-op."""
    tracer = Tracer()

    def noop() -> None:
        return None

    traced = tracer.wrap("calibrate", noop)
    start = _clock()
    for __ in range(samples):
        noop()
    bare = _clock() - start
    start = _clock()
    for __ in range(samples):
        traced()
    return max(0.0, (_clock() - start - bare) / samples)

