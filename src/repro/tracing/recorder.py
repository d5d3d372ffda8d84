"""The in-process trace recorder.

A :class:`TraceRecorder` holds a stack of open spans.  Opening a span
while the stack is empty starts a **new trace**: a fresh trace ID, a
fresh epoch (``time.perf_counter()`` at that instant), an empty event
list.  Closing the root span finishes the trace — it is appended to
:attr:`TraceRecorder.traces` (a bounded in-memory ring) and, when the
recorder has a :class:`~repro.tracing.storage.TraceStore`, queued for a
JSONL flush that runs *off* the traced call's critical path: on the next
trace start, on :attr:`last_trace_path` access, on :meth:`flush` (the
engine calls it from ``close()``), or at interpreter exit.

Design constraints, in order:

* **Never fail the traced work.**  ``event()`` outside any open trace is
  a silent no-op (an engine used standalone emits events only inside its
  own batch span); storage write failures are counted, not raised.
* **Cheap when present, free when absent.**  Consumers guard emit sites
  with ``if tracer is not None`` — a disabled engine pays one attribute
  load per batch.  An enabled recorder appends plain field tuples
  (materialized into :class:`~repro.tracing.events.TraceEvent` only on
  read); no locks (the engine is single-threaded per instance), no I/O
  on the traced call's critical path.
* **Exception-transparent.**  The :meth:`span` context manager closes
  the span with ``status="raised"`` and re-raises, so a batch aborted by
  a terminal fault still yields a complete, persisted trace.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import time
import weakref
from typing import Any, Iterator

from .events import TraceEvent
from .storage import TraceStore

__all__ = ["TraceRecorder", "maybe_span"]


def _flush_ref(ref: "weakref.ref[TraceRecorder]") -> None:
    recorder = ref()
    if recorder is not None:
        recorder.flush()


class _OpenSpan:
    __slots__ = ("span_id", "parent_id", "name", "start", "attrs")

    def __init__(
        self, span_id: str, parent_id: str | None, name: str, start: float, attrs: dict
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.attrs = attrs


class TraceRecorder:
    """Collects spans/events into traces; optionally persists them.

    Parameters
    ----------
    store:
        Destination for finished traces (``None`` keeps them in memory
        only).
    keep:
        How many finished traces the in-memory ring retains.
    """

    def __init__(self, store: TraceStore | None = None, keep: int = 16) -> None:
        self.store = store
        self.keep = int(keep)
        # Finished traces, oldest first: [(trace_id, [raw record, ...])].
        # Records are stored as plain field tuples and materialized into
        # :class:`TraceEvent` only on access (:meth:`trace_events`) or at
        # flush — dataclass construction is measurable at hot-loop event
        # rates and the benchmark gates the emit path, not the read path.
        self.traces: list[tuple[str, list[tuple]]] = []
        self.last_trace_id: str | None = None
        self._last_trace_path: str | None = None
        self._stack: list[_OpenSpan] = []
        self._events: list[tuple] = []
        self._trace_id: str | None = None
        self._epoch = 0.0
        self._seq = 0
        self._trace_count = 0
        # Ring-overflow accounting: traces (and the events they carried)
        # evicted from the bounded ring.  Before these counters existed
        # the loss was silent; stats() reports them with the store's
        # write_errors.
        self.dropped_traces = 0
        self.dropped_events = 0
        # Finished-but-unflushed trace.  The JSONL encode + write (~1-2 ms)
        # is deferred off the traced call's critical path — the same move
        # production tracers make with batched span exporters — and runs on
        # the next trace start, on path access, on flush(), or at interpreter
        # exit (weakref so the atexit hook never pins a dead recorder).
        self._pending: tuple[str, list[tuple]] | None = None
        if store is not None:
            atexit.register(_flush_ref, weakref.ref(self))

    # ------------------------------------------------------------------
    # Trace/span lifecycle
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while a trace is open (at least one span on the stack)."""
        return bool(self._stack)

    @property
    def current_trace_id(self) -> str | None:
        """The open trace's ID, or ``None`` between traces."""
        return self._trace_id if self._stack else None

    @property
    def last_trace_path(self) -> str | None:
        """Path of the most recent persisted trace (forces a pending flush)."""
        self.flush()
        return self._last_trace_path

    def flush(self) -> None:
        """Write any finished-but-unflushed trace to the store."""
        pending = self._pending
        if pending is None or self.store is None:
            self._pending = None
            return
        self._pending = None
        # A failed flush degrades to in-memory-only for this trace; the
        # store counts the error and the traced run is unaffected.
        trace_id, raw_events = pending
        events = [TraceEvent(*raw) for raw in raw_events]
        self._last_trace_path = self.store.write(trace_id, events)

    def start_span(self, name: str, **attrs: Any) -> _OpenSpan:
        """Open a span; opening with an empty stack starts a new trace."""
        if not self._stack and self._pending is not None:
            self.flush()  # one deferred artifact at a time
        now = time.perf_counter()
        if not self._stack:
            self._trace_count += 1
            self._trace_id = (
                f"{time.time_ns():016x}-{os.getpid():x}-{self._trace_count:x}"
            )
            self._epoch = now
            self._events = []
            self._seq = 0
        parent_id = self._stack[-1].span_id if self._stack else None
        # attrs is already a fresh dict (**kwargs) — no defensive copy.
        span = _OpenSpan(self._next_id(), parent_id, name, now, attrs)
        self._stack.append(span)
        return span

    def end_span(self, span: _OpenSpan, **attrs: Any) -> None:
        """Close ``span`` (and any deeper spans left open by an abort)."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        merged = span.attrs
        if attrs:
            merged = {**merged, **attrs}
        self._events.append(
            (
                self._trace_id or "",
                span.span_id,
                span.parent_id,
                span.name,
                "span",
                span.start - self._epoch,
                now - span.start,
                merged,
            )
        )
        if not self._stack:
            self._finish_trace()

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[_OpenSpan]:
        span = self.start_span(name, **attrs)
        try:
            yield span
        except BaseException as exc:
            self.end_span(span, status="raised", error=type(exc).__name__)
            raise
        else:
            self.end_span(span)

    def event(self, name: str, duration: float | None = None, **attrs: Any) -> None:
        """Record a point event under the current span.

        A measured ``duration`` backdates the event's start so the record
        covers the interval it describes.  Outside any open trace this is
        a no-op — tracing must never invent implicit traces.
        """
        self.emit(name, attrs, duration)

    def emit(self, name: str, attrs: dict, duration: float | None = None) -> None:
        """:meth:`event` taking a prebuilt attrs dict — the hot-loop variant.

        The per-slot emitters build their attrs dict incrementally, so
        routing it through ``**kwargs`` would repack it for nothing; at a
        hundred-plus events per batch that repack shows up in the traced
        arm of the overhead benchmark.  The dict is owned by the trace
        from here on — callers must not mutate it afterwards.
        """
        if not self._stack:
            return
        self._seq += 1
        self._events.append(
            (
                self._trace_id or "",
                f"s{self._seq}",
                self._stack[-1].span_id,
                name,
                "event",
                (time.perf_counter() - self._epoch) - (duration or 0.0),
                duration,
                attrs,
            )
        )

    def emit_many(self, name: str, attrs_list: list[dict]) -> None:
        """:meth:`emit` for a run of point events recorded at one instant.

        One clock read and one list extension for the whole run: the
        engine's per-slot ``request`` events, a hundred-plus per batch, all
        describe a batch that has just ended.
        """
        if not self._stack:
            return
        trace_id = self._trace_id or ""
        parent_id = self._stack[-1].span_id
        start = time.perf_counter() - self._epoch
        first = self._seq + 1
        self._seq += len(attrs_list)
        self._events.extend(
            (trace_id, f"s{seq}", parent_id, name, "event", start, None, attrs)
            for seq, attrs in enumerate(attrs_list, first)
        )

    # ------------------------------------------------------------------
    # Finished-trace access
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Recorder health snapshot, in the subsystem ``stats()`` idiom.

        Surfaces what used to vanish silently: ring evictions
        (``dropped_traces`` / ``dropped_events``) and the store's
        ``write_errors``.
        """
        return {
            "traces": self._trace_count,
            "retained": len(self.traces),
            "dropped_traces": self.dropped_traces,
            "dropped_events": self.dropped_events,
            "pending_flush": self._pending is not None,
            "write_errors": self.store.write_errors if self.store is not None else 0,
        }

    def trace_events(self, trace_id: str | None = None) -> list[TraceEvent]:
        """Events of a finished trace (default: the most recent one)."""
        if not self.traces:
            return []
        if trace_id is None:
            return [TraceEvent(*raw) for raw in self.traces[-1][1]]
        for tid, events in reversed(self.traces):
            if tid == trace_id:
                return [TraceEvent(*raw) for raw in events]
        return []

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _next_id(self) -> str:
        self._seq += 1
        return f"s{self._seq}"

    def _finish_trace(self) -> None:
        trace_id = self._trace_id or ""
        events = self._events
        self.traces.append((trace_id, events))
        if len(self.traces) > self.keep:
            overflow = self.traces[: len(self.traces) - self.keep]
            self.dropped_traces += len(overflow)
            self.dropped_events += sum(len(raw) for _, raw in overflow)
            del self.traces[: len(self.traces) - self.keep]
        self.last_trace_id = trace_id
        self._trace_id = None
        self._events = []
        if self.store is not None:
            self._pending = (trace_id, events)


@contextlib.contextmanager
def maybe_span(
    tracer: TraceRecorder | None, name: str, **attrs: Any
) -> Iterator[_OpenSpan | None]:
    """``tracer.span(...)`` when a tracer is present; a no-op otherwise.

    Lets optionally-traced consumers (QuTracer) instrument one code path
    instead of two.
    """
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as span:
        yield span
