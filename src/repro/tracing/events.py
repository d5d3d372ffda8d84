"""Trace event schema.

One :class:`TraceEvent` is one record in a trace: either a **span** (a
named interval with a start offset and a duration, nested under a parent
span) or a point **event** (a fact attached to the enclosing span —
typically an after-the-fact measurement such as "this execution took
1.3 ms in pool worker 4242").

Offsets are relative to the trace's epoch, which is the
``time.perf_counter()`` reading when the root span opened — monotonic
within one process, so per-stage deltas between events of one trace are
meaningful.  Events produced in *other* processes (pool workers) cannot
share that clock; they report their own measured ``duration`` plus the
worker ``pid`` inside ``attrs`` and are stitched into the parent's tree
by the dispatching event (see ``docs/architecture.md``).

Everything in ``attrs`` must be JSON-serializable; events round-trip
through JSON bit-identically (``json`` preserves floats via shortest
round-trip repr), which the tracing tests assert.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any

__all__ = ["TRACE_FORMAT", "TRACE_FORMAT_VERSION", "TraceEvent", "result_digest"]

# Written into the header line of every persisted trace; bumped when the
# on-disk schema changes incompatibly.  Loaders reject unknown versions.
TRACE_FORMAT = "repro-trace"
TRACE_FORMAT_VERSION = 1


@dataclasses.dataclass
class TraceEvent:
    """One record of a trace (a span interval or a point event).

    ``start`` is seconds since the trace epoch; ``duration`` is seconds
    (``None`` for point events that carry no measurement).  ``parent_id``
    is the enclosing span's ``span_id`` (``None`` only for the root
    span), which is what lets a flat JSONL file reconstruct the tree.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    kind: str  # "span" | "event"
    start: float
    duration: float | None
    attrs: dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceEvent":
        return cls(
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_id=payload["parent_id"],
            name=payload["name"],
            kind=payload["kind"],
            start=payload["start"],
            duration=payload["duration"],
            attrs=dict(payload.get("attrs") or {}),
        )


def result_digest(payload: Any) -> str:
    """Short content digest of a cached execution payload.

    Stamped onto ``cache-put`` events so a trace replay can verify that
    the entry a key serves *today* is bit-identical to what the traced
    run stored.  The engine stores three payload kinds:

    * an ``ExecutionResult`` under a result key;
    * the readout-free ``ExecutionResult`` of a seeded sampled run under a
      ``traj-state`` key (the same shape, so the same digest);
    * a ``(distribution, measured_qubits)`` tuple under a ``dm-state`` key.

    ``repr`` of the outcome/probability pairs round-trips floats exactly,
    so equal results digest equally across processes and sessions.
    """
    if hasattr(payload, "distribution"):
        counts = getattr(payload, "counts", None)
        body = (
            sorted(payload.distribution.items()),
            sorted(counts.items()) if counts is not None else None,
            list(payload.measured_qubits),
            getattr(payload, "method", None),
            getattr(payload, "shots", None),
        )
    else:
        distribution, measured_qubits = payload
        body = (sorted(distribution.items()), None, list(measured_qubits), "dm-state", None)
    return hashlib.sha256(repr(body).encode()).hexdigest()[:16]
