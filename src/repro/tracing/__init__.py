"""Structured execution tracing and provenance.

Every pipeline stage — submit, compile, cache lookup, execute (in-process
or in a pool worker), deliver, mitigate — can record what happened and
how long it took into one per-batch trace: a tree of spans and events
with cache-tier attribution, resolved backend methods and fault
annotations (isolated failures) sourced from the fault layer.
Traces persist as versioned JSONL artifacts, and ``python -m
repro.tracing`` summarizes a trace, replays a traced batch against the
persistent result cache, and diffs two traces.

The package is deliberately dependency-free within ``repro``: the engine
imports it, never the other way round (the CLI imports the cache layer
lazily), so tracing can wrap any layer without import cycles.

See ``docs/architecture.md`` ("Execution tracing & provenance") for the
event schema and the pool-boundary propagation contract.
"""

from .events import TRACE_FORMAT, TRACE_FORMAT_VERSION, TraceEvent, result_digest
from .recorder import TraceRecorder, maybe_span
from .storage import TraceStore, load_trace

__all__ = [
    "TRACE_FORMAT",
    "TRACE_FORMAT_VERSION",
    "TraceEvent",
    "TraceRecorder",
    "TraceStore",
    "load_trace",
    "maybe_span",
    "result_digest",
]
