"""Run-time span tracer that attributes wall time to the engine's layers.

Nothing under ``src/`` is edited: :class:`LayerTracer` rebinds selected
functions and methods of the ``repro`` package to timing wrappers while
a traced run is in progress, and :meth:`LayerTracer.uninstall` restores
the originals.

Every wrapped call opens a *frame* on one global stack.  The engine runs
on a single thread, so synchronous calls and coroutine steps nest
strictly in time even when many transactions interleave:

* a synchronous call is one frame;
* a coroutine is wrapped in :class:`_TimedCoroutine`, and each ``send``
  / ``throw`` step is one frame.  The span of a coroutine runs from its
  creation to its return, its *busy* time is the sum of its steps, and
  the rest of the span is time spent *waiting* at ``await`` points.

A frame's self time is its duration minus the part of it covered by
child frames.  The tracer's own work around a frame (counting, stack
pushes, span records) is read off the clock too and charged to
:attr:`LayerTracer.bookkeeping_s`, not to the enclosing frame, so the
self times of all layers, the bookkeeping and the unwrapped residual
add up to the traced wall time.  Spans (name, start, end,
parent, transaction id) are kept in memory, up to :data:`MAX_SPANS`,
and written once by :meth:`LayerTracer.write_spans`.
"""

from __future__ import annotations

import collections.abc
import copy as _copy_module
import inspect
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: spans kept in memory; later ones are only counted as dropped.
MAX_SPANS = 50_000


class _Frame:
    __slots__ = ("name", "span_id", "child", "txn")

    def __init__(self, name: str, span_id: int, txn: int):
        self.name = name
        self.span_id = span_id
        self.child = 0.0
        self.txn = txn


def _txn_from(args: tuple) -> Optional[int]:
    """The engine transaction id an argument list names, if any."""
    for arg in args:
        tid = getattr(arg, "tid", None)
        if isinstance(tid, int):
            return tid
    return None


class LayerTracer:
    """Collects per-function call counts, self/busy/wait time and spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: List[_Frame] = []
        self._next_span = 0
        #: (span id, name, start, end, parent span id, txn id)
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.dropped_spans = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.raised: Dict[str, int] = defaultdict(int)
        #: self time per wrapped name (frame duration minus children).
        self.self_s: Dict[str, float] = defaultdict(float)
        #: inclusive busy time per name (sum of frame durations; for a
        #: coroutine, the sum of its steps).
        self.busy_s: Dict[str, float] = defaultdict(float)
        #: coroutine span duration minus busy time: time spent awaiting.
        self.wait_s: Dict[str, float] = defaultdict(float)
        #: extra counters fed by ``on_call`` hooks.
        self.counters: Dict[str, float] = defaultdict(float)
        #: the tracer's own time around frames (excluded from every
        #: frame's self time).
        self.bookkeeping_s = 0.0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- frames ---------------------------------------------------------------
    def _open(self, name: str, txn: Optional[int]) -> Tuple[_Frame, Optional[_Frame]]:
        parent = self._stack[-1] if self._stack else None
        if txn is None:
            txn = parent.txn if parent is not None else -1
        self._next_span += 1
        frame = _Frame(name, self._next_span, txn)
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame: _Frame, parent: Optional[_Frame],
               start: float) -> float:
        """Pop ``frame``; return the clock reading that ended it."""
        end = self.clock()
        duration = end - start
        popped = self._stack.pop()
        if popped is not frame:  # pragma: no cover - tracer bug guard
            raise RuntimeError(f"span stack corrupted at {frame.name}")
        self.self_s[frame.name] += duration - frame.child
        self.busy_s[frame.name] += duration
        if parent is not None:
            parent.child += duration
        return end

    def _settle(self, parent: Optional[_Frame], enter: float, start: float,
                end: float) -> None:
        """Charge the wrapper's time outside ``[start, end]`` to the
        bookkeeping rather than to ``parent``."""
        own = start - enter + self.clock() - end
        self.bookkeeping_s += own
        if parent is not None:
            parent.child += own

    def _span(self, span_id: int, name: str, start: float, end: float,
              parent: Optional[_Frame], txn: int) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end,
                               parent.span_id if parent else 0, txn))
        else:
            self.dropped_spans += 1

    # -- wrappers -------------------------------------------------------------
    def wrap_sync(self, fn: Callable, name: str,
                  on_call: Optional[Callable[..., None]] = None) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            enter = tracer.clock()
            tracer.calls[name] += 1
            if on_call is not None:
                on_call(*args, **kwargs)
            frame, parent = tracer._open(name, _txn_from(args))
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                raise
            finally:
                end = tracer._close(frame, parent, start)
                tracer._span(frame.span_id, name, start, end, parent,
                             frame.txn)
                tracer._settle(parent, enter, start, end)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_async(self, fn: Callable, name: str,
                   on_call: Optional[Callable[..., None]] = None) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> "_TimedCoroutine":
            enter = tracer.clock()
            tracer.calls[name] += 1
            if on_call is not None:
                on_call(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            txn = _txn_from(args)
            if txn is None:
                txn = parent.txn if parent is not None else -1
            coro = _TimedCoroutine(tracer, fn(*args, **kwargs), name,
                                   parent, txn)
            tracer._settle(parent, enter, enter, enter)
            return coro

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap(self, fn: Callable, name: str,
             on_call: Optional[Callable[..., None]] = None) -> Callable:
        if inspect.iscoroutinefunction(fn):
            return self.wrap_async(fn, name, on_call)
        return self.wrap_sync(fn, name, on_call)

    # -- patching -------------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str,
              on_call: Optional[Callable[..., None]] = None) -> None:
        """Rebind ``owner.attr`` (a class or module) to a traced wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_call))

    def patch_deepcopy(self, module: Any, name: str) -> None:
        """Time the ``copy.deepcopy`` calls ``module`` makes.

        The module's ``copy`` global is replaced by a proxy, so only the
        outermost calls it makes are counted — the recursion inside the
        ``copy`` module itself is untouched."""
        self._patches.append((module, "copy", module.copy))
        setattr(module, "copy",
                _CopyProxy(self.wrap_sync(_copy_module.deepcopy, name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines, once, at the end of a run."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"spans": len(self.spans),
                                  "dropped": self.dropped_spans}) + "\n")
            for span_id, name, start, end, parent, txn in self.spans:
                out.write(json.dumps(
                    {"id": span_id, "name": name, "start": start,
                     "end": end, "parent": parent, "txn": txn}) + "\n")


class _CopyProxy:
    """Stands in for the ``copy`` module inside one traced module."""

    def __init__(self, deepcopy: Callable):
        self.deepcopy = deepcopy

    def __getattr__(self, attr: str) -> Any:
        return getattr(_copy_module, attr)


class _TimedCoroutine(collections.abc.Coroutine):
    """A coroutine whose every step is a frame of the tracer's stack."""

    __slots__ = ("_tracer", "_coro", "_name", "_parent", "_txn",
                 "_created", "_busy", "_span_id", "_done")

    def __init__(self, tracer: LayerTracer, coro: Any, name: str,
                 parent: Optional[_Frame], txn: int):
        self._tracer = tracer
        self._coro = coro
        self._name = name
        self._parent = parent
        self._txn = txn
        self._created = tracer.clock()
        self._busy = 0.0
        tracer._next_span += 1
        self._span_id = tracer._next_span
        self._done = False

    def _step(self, method: Callable, *args: Any) -> Any:
        tracer = self._tracer
        enter = tracer.clock()
        parent = tracer._stack[-1] if tracer._stack else None
        frame = _Frame(self._name, self._span_id, self._txn)
        tracer._stack.append(frame)
        start = tracer.clock()
        try:
            return method(*args)
        except StopIteration:
            self._done = True
            raise
        except BaseException:
            tracer.raised[self._name] += 1
            self._done = True
            raise
        finally:
            end = tracer._close(frame, parent, start)
            self._busy += end - start
            if self._done:
                tracer.wait_s[self._name] += max(
                    0.0, end - self._created - self._busy)
                tracer._span(self._span_id, self._name, self._created, end,
                             self._parent, self._txn)
            tracer._settle(parent, enter, start, end)

    def send(self, value: Any) -> Any:
        return self._step(self._coro.send, value)

    def throw(self, *args: Any) -> Any:
        return self._step(self._coro.throw, *args)

    def close(self) -> None:
        self._coro.close()

    def __await__(self) -> "_TimedCoroutine":
        return self

    def __iter__(self) -> "_TimedCoroutine":
        return self

    def __next__(self) -> Any:
        return self.send(None)
