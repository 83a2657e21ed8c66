"""Span tracer that times calls into the program's layers from outside.

The tracer patches class attributes and module functions of ``repro`` with
thin wrappers; the program itself is not edited.  Each wrapped call records
a span ``(id, name, start, end, parent, request, self_s, wait_s)`` in memory,
timed with process CPU time so that scheduler waits on a shared machine do
not count.  A span's self time is its duration minus the time its child
spans cover.  Coroutines are timed step by step: only the time a coroutine
actually runs counts as its duration, and the wall time it spends suspended
is kept apart as its wait.

Install wrappers before the system under test is built: the program binds
some methods at construction time (completion callbacks, the gateway's
interceptor chain), and those bindings keep whatever the class held then.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

CLOCK = time.process_time
WALL = time.perf_counter


class Tracer:
    """Collects spans in memory; :meth:`write` dumps them at the end."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        #: Per-span-name counters filled by observers (hits, delays, ...).
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._restore: list[tuple] = []

    # ------------------------------------------------------------------ #
    # Installing wrappers
    # ------------------------------------------------------------------ #
    def install(self, module: str, path: str, name: str, observe=None, request_arg=None) -> None:
        """Wrap ``module.path`` (``Class.attr`` or ``function``) as span ``name``.

        ``observe(tracer, args, kwargs, result)`` may update :attr:`counts`
        after each call; ``request_arg`` is the positional index of an
        argument carrying a request id (a ``Request`` or a ``CompletedRequest``).  A target the
        program no longer has is recorded in :attr:`missing` and skipped;
        the traced run then fails its checks, so a refactor that renames a
        layer function has to update ``layers.TARGETS`` instead of silently
        reading zero for that layer.
        """
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{path}")
            return
        if isinstance(original, property):
            replacement = property(
                self._wrap_sync(original.fget, name, observe, request_arg),
                original.fset,
                original.fdel,
                original.__doc__,
            )
        elif inspect.iscoroutinefunction(original):
            replacement = self._wrap_async(original, name)
        elif callable(original):
            replacement = self._wrap_sync(original, name, observe, request_arg)
        else:
            self.missing.append(f"{module}.{path}")
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install_iterator(self, module: str, path: str, name: str) -> None:
        """Wrap ``module.path`` (an ``__iter__``) so that every ``next()`` on
        the iterator it returns is a span ``name``."""
        try:
            owner = getattr(importlib.import_module(module), path.split(".")[0])
            attr = path.split(".")[1]
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError, IndexError):
            self.missing.append(f"{module}.{path}")
            return
        tracer = self

        @functools.wraps(original)
        def traced_iter(obj):
            inner = iter(original(obj))
            return _TimedIterator(tracer._wrap_sync(inner.__next__, name, None, None))

        self._restore.append((owner, attr, original))
        setattr(owner, attr, traced_iter)

    def wrap_instance(self, obj, attr: str, name: str) -> None:
        """Wrap an instance attribute holding a coroutine-returning callable."""
        original = getattr(obj, attr, None)
        if original is None:
            self.missing.append(f"{type(obj).__name__}.{attr}")
            return
        setattr(obj, attr, self._wrap_async(original, name))

    def wrap(self, fn, name: str):
        """``fn`` timed as span ``name`` on every call."""
        return self._wrap_sync(fn, name, None, None)

    def uninstall(self) -> None:
        """Put back every patched attribute (newest first)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def _wrap_sync(self, fn, name, observe, request_arg):
        stack, spans, ids = self._stack, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), CLOCK(), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = CLOCK()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                rid = None
                if request_arg is not None and len(args) > request_arg:
                    rid = _request_id(args[request_arg])
                spans.append((frame[0], name, frame[1], end, parent, rid, duration - frame[2], 0.0))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def _wrap_async(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            return await _TimedAwaitable(tracer, name, fn(*args, **kwargs))

        return traced

    # ------------------------------------------------------------------ #
    # Aggregation and output
    # ------------------------------------------------------------------ #
    def totals(self, since: float = float("-inf"), until: float = float("inf")):
        """Per span name: (calls, self seconds, wait seconds) for spans that
        started inside ``[since, until]`` (process-CPU timestamps)."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        wait_s: dict[str, float] = defaultdict(float)
        for _sid, name, start, _end, _parent, _rid, own, waited in self.spans:
            if since <= start <= until:
                calls[name] += 1
                self_s[name] += own
                wait_s[name] += waited
        return calls, self_s, wait_s

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(
                json.dumps(["id", "name", "start", "end", "parent", "request", "self_s", "wait_s"])
                + "\n"
            )
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class _TimedIterator:
    """Iterator whose ``__next__`` is the traced ``next`` of another."""

    __slots__ = ("_next",)

    def __init__(self, timed_next) -> None:
        self._next = timed_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class _TimedAwaitable:
    """Drives a coroutine, timing each step it runs as part of one span."""

    __slots__ = ("tracer", "name", "coro")

    def __init__(self, tracer: Tracer, name: str, coro) -> None:
        self.tracer, self.name, self.coro = tracer, name, coro

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        stack = tracer._stack
        span_id = next(tracer._ids)
        parent = stack[-1][0] if stack else None
        first = None
        last = None
        active = 0.0
        children = 0.0
        wall_start = WALL()
        value, error = None, None
        while True:
            frame = [span_id, CLOCK(), 0.0]
            if first is None:
                first = frame[1]
            stack.append(frame)
            done, result = False, None
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                done, result = True, stop.value
            except BaseException:
                done = True
                raise
            finally:
                stack.pop()
                last = CLOCK()
                step = last - frame[1]
                active += step
                children += frame[2]
                if stack:
                    stack[-1][2] += step
                if done:
                    waited = max(0.0, (WALL() - wall_start) - active)
                    tracer.spans.append(
                        (span_id, self.name, first, last, parent, None, active - children, waited)
                    )
            if done:
                return result
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # delivered by the task: cancellation included
                value, error = None, exc


def _request_id(arg) -> int | None:
    rid = getattr(arg, "request_id", None)
    if rid is None:
        request = getattr(arg, "request", None)
        rid = getattr(request, "request_id", None)
    return rid
