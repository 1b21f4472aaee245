"""In-memory span recorder and the wrappers that feed it.

A span is one timed interval at a layer boundary: a name, a start, an
end, and the span that was open when it began (its parent).  Spans are
appended to compact per-thread arrays while the benchmark runs and are
only written out (``dump``) when it ends.

Two wrapper shapes cover every entry point the benchmark times:

* ``wrap_sync`` — a plain call becomes one span;
* ``wrap_gen`` — a generator (a simulation process body such as
  ``CacheController.read``) is wrapped in a pass-through generator that
  times each *resumption* as its own span and forwards ``send``,
  ``throw``, ``close`` and the return value unchanged.  Resumptions run
  synchronously inside the kernel's single thread, so they nest
  correctly under whatever span was open when the kernel resumed them.

A layer's *self time* is the sum of its spans' durations minus the part
covered by their child spans (:func:`aggregate`).

The recorder patches methods on classes (``Patcher``): wrappers must be
installed before the objects that use them are built, because hot paths
bind methods to locals at construction time, and ``Patcher.restore``
puts every original back afterwards.
"""

from __future__ import annotations

import json
import os
import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Recorder", "Patcher", "aggregate", "load"]

_clock = time.perf_counter


class _Buffer:
    """One thread's spans: parallel arrays plus the open-span stack."""

    __slots__ = ("names", "parents", "starts", "ends", "stack")

    def __init__(self):
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = []


class Recorder:
    """Collects spans and call counts; thread-safe via per-thread buffers."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self._buffers: List[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Drop every span and count (names stay registered)."""
        self._buffers = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = {name: 0 for name in self.names}

    # -- registration ------------------------------------------------------
    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
                self.calls[name] = 0
            return nid

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    # -- the hot path ------------------------------------------------------
    def open(self, nid: int) -> Tuple[_Buffer, int]:
        buf = self._buffer()
        idx = len(buf.names)
        stack = buf.stack
        buf.names.append(nid)
        buf.parents.append(stack[-1] if stack else -1)
        buf.ends.append(0.0)
        stack.append(idx)
        buf.starts.append(_clock())
        return buf, idx

    @staticmethod
    def close(buf: _Buffer, idx: int) -> None:
        buf.ends[idx] = _clock()
        buf.stack.pop()

    def count_call(self, nid: int) -> None:
        """Count one call, unless it re-enters the same span name
        (a subclass override calling ``super()``)."""
        buf = self._buffer()
        stack = buf.stack
        if stack and buf.names[stack[-1]] == nid:
            return
        name = self.names[nid]
        self.calls[name] += 1

    # -- output ------------------------------------------------------------
    def spans(self) -> Iterator[Tuple[str, float, float, Optional[int], int]]:
        """Every closed span as ``(name, start, end, parent, thread)``;
        ``parent`` indexes the same thread's span list (None at top)."""
        for t, buf in enumerate(self._buffers):
            for i in range(len(buf.names)):
                parent = buf.parents[i]
                yield (self.names[buf.names[i]], buf.starts[i], buf.ends[i],
                       None if parent < 0 else parent, t)

    def span_count(self) -> int:
        return sum(len(buf.names) for buf in self._buffers)

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "calls": self.calls,
                  "threads": [len(buf.names) for buf in self._buffers]}
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for buf in self._buffers:
                for arr in (buf.names, buf.parents, buf.starts, buf.ends):
                    arr.tofile(handle)
        os.replace(tmp, path)


def load(path: str) -> Recorder:
    """Read a file written by :meth:`Recorder.dump` back into a recorder
    (closed spans only; the open-span stacks start empty)."""
    rec = Recorder()
    with open(path, "rb") as handle:
        header = json.loads(handle.readline().decode("utf-8"))
        for name in header["names"]:
            rec.name_id(name)
        rec.calls.update(header["calls"])
        for n in header["threads"]:
            buf = _Buffer()
            for arr in (buf.names, buf.parents, buf.starts, buf.ends):
                arr.fromfile(handle, n)
            rec._buffers.append(buf)
    return rec


def aggregate(rec: Recorder) -> Dict[str, Dict[str, float]]:
    """Per span name: ``self_s`` (duration minus direct children),
    ``total_s`` (duration of spans not nested in the same name) and
    ``spans`` (how many intervals were recorded)."""
    out: Dict[str, Dict[str, float]] = {
        name: {"self_s": 0.0, "total_s": 0.0, "spans": 0}
        for name in rec.names
    }
    for buf in rec._buffers:
        n = len(buf.names)
        child = [0.0] * n
        names, parents, starts, ends = buf.names, buf.parents, buf.starts, buf.ends
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        for i in range(n):
            dur = ends[i] - starts[i]
            entry = out[rec.names[names[i]]]
            entry["self_s"] += dur - child[i]
            entry["spans"] += 1
            p = parents[i]
            if p < 0 or names[p] != names[i]:
                entry["total_s"] += dur
    return out


# -- wrappers ---------------------------------------------------------------
def wrap_sync(fn: Callable, rec: Recorder, name: str,
              on_return: Optional[Callable] = None) -> Callable:
    """``fn`` timed as one span per call.  ``on_return(args, result,
    seconds)`` runs after the span closes."""
    nid = rec.name_id(name)
    open_, close, count = rec.open, rec.close, rec.count_call

    def wrapper(*args, **kwargs):
        count(nid)
        buf, idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(buf, idx)
        if on_return is not None:
            on_return(args, result, buf.ends[idx] - buf.starts[idx])
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def wrap_gen(fn: Callable, rec: Recorder, name: str,
             on_start: Optional[Callable] = None) -> Callable:
    """``fn`` (a generator function) with every resumption timed.

    ``on_start(args)`` runs once per call, before the first resumption.
    """
    nid = rec.name_id(name)
    open_, close, count = rec.open, rec.close, rec.count_call

    def passthrough(gen):
        value = None
        exc: Optional[BaseException] = None
        while True:
            buf, idx = open_(nid)
            try:
                if exc is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                close(buf, idx)
            exc = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:  # forwarded into ``gen``
                exc = thrown
                value = None

    def wrapper(*args, **kwargs):
        count(nid)
        if on_start is not None:
            on_start(args)
        gen = fn(*args, **kwargs)
        if not hasattr(gen, "send"):
            return gen
        return passthrough(gen)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


class Patcher:
    """Replaces attributes on classes or modules and restores them."""

    def __init__(self):
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (which ``owner`` must define itself,
        not inherit) with ``make(original)``."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
