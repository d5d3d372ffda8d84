"""Command-line tooling for persisted traces.

``python -m repro.tracing <command>``:

* ``summarize <trace>`` — per-stage timing lines (greppable
  ``stage <name>  n=... total=... mean=...``), cache-tier and
  backend-method histograms, and a fault summary.
* ``diff <a> <b>`` — per-stage timing deltas, tier-count shifts, and a
  per-slot drift check on ``(fingerprint, method, tier)``.  Exits 1 when
  any slot's method or hit attribution drifted; otherwise prints the
  sentinel ``no method or hit-attribution drift``.
* ``replay <trace> --cache-dir DIR`` — re-fetches every cached key the
  traced run wrote (from its ``cache-put`` provenance) out of the
  persistent result cache and verifies the stored payloads are
  bit-identical to what the trace recorded.  Exits 1 on a digest
  mismatch.
* ``list <dir>`` — trace artifact paths, oldest first.

The module imports nothing from the rest of ``repro`` at import time;
``replay`` loads the cache layer lazily so tracing stays dependency-free
within the package.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Sequence

from .events import TraceEvent
from .storage import TraceStore, load_trace

__all__ = ["main"]

# Canonical print order; stages outside this list sort after it.
_STAGE_ORDER = ["prepare", "compile", "cache", "dispatch", "execute", "deliver", "total"]


def _stage_timings(events: list[TraceEvent]) -> dict[str, list[float]]:
    """Seconds spent per pipeline stage, one sample per measurement."""
    stages: dict[str, list[float]] = {}
    for event in events:
        if event.kind == "event" and event.name == "request":
            for stage in ("prepare", "cache", "deliver"):
                timing = event.attrs.get(f"t_{stage}")
                if timing is not None:
                    stages.setdefault(stage, []).append(float(timing))
        elif event.kind == "event" and event.name in ("execute", "compile", "dispatch"):
            if event.duration is not None:
                stages.setdefault(event.name, []).append(float(event.duration))
        elif event.kind == "span" and event.parent_id is None and event.duration is not None:
            stages.setdefault("total", []).append(float(event.duration))
    return stages


def _request_events(events: list[TraceEvent]) -> list[TraceEvent]:
    requests = [e for e in events if e.kind == "event" and e.name == "request"]
    requests.sort(key=lambda event: event.attrs.get("slot", 0))
    return requests


def _counts(values: list) -> dict:
    counts: dict = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return counts


def _stage_key(name: str) -> tuple[int, str]:
    try:
        return (_STAGE_ORDER.index(name), name)
    except ValueError:
        return (len(_STAGE_ORDER), name)


def _ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f}ms"


def _print_stages(stages: dict[str, list[float]]) -> None:
    for name in sorted(stages, key=_stage_key):
        samples = stages[name]
        total = sum(samples)
        print(
            f"stage {name:<10} n={len(samples):<5d} "
            f"total={_ms(total)} mean={_ms(total / len(samples))}"
        )


def _cmd_summarize(args: argparse.Namespace) -> int:
    header, events = load_trace(args.trace)
    print(f"trace {header.get('trace_id')}  events={len(events)}  file={args.trace}")
    stages = _stage_timings(events)
    if stages:
        _print_stages(stages)
    requests = _request_events(events)
    for label, field in (("tier", "tier"), ("method", "method")):
        for value, count in sorted(_counts([r.attrs.get(field) for r in requests]).items(),
                                   key=lambda item: str(item[0])):
            print(f"{label} {str(value):<14} n={count}")
    executes = [e for e in events if e.kind == "event" and e.name == "execute"]
    for value, count in sorted(
        _counts([e.attrs.get("location") for e in executes]).items(),
        key=lambda item: str(item[0]),
    ):
        print(f"location {str(value):<10} n={count}")
    failed_slots = sum(1 for r in requests if r.attrs.get("ok") is False)
    print(f"faults failed_slots={failed_slots}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    header_a, events_a = load_trace(args.trace_a)
    header_b, events_b = load_trace(args.trace_b)
    print(f"diff a={header_a.get('trace_id')} b={header_b.get('trace_id')}")

    stages_a = _stage_timings(events_a)
    stages_b = _stage_timings(events_b)
    for name in sorted(set(stages_a) | set(stages_b), key=_stage_key):
        total_a = sum(stages_a.get(name, []))
        total_b = sum(stages_b.get(name, []))
        delta = total_b - total_a
        relative = f" ({delta / total_a:+.1%})" if total_a > 0 else ""
        sign = "+" if delta >= 0 else ""
        print(
            f"stage {name:<10} a={_ms(total_a)} b={_ms(total_b)} "
            f"delta={sign}{_ms(delta)}{relative}"
        )

    requests_a = _request_events(events_a)
    requests_b = _request_events(events_b)
    tiers_a = _counts([r.attrs.get("tier") for r in requests_a])
    tiers_b = _counts([r.attrs.get("tier") for r in requests_b])
    for tier in sorted(set(tiers_a) | set(tiers_b), key=str):
        count_a = tiers_a.get(tier, 0)
        count_b = tiers_b.get(tier, 0)
        print(f"tier {str(tier):<14} a={count_a} b={count_b} delta={count_b - count_a:+d}")

    drift = 0
    if len(requests_a) != len(requests_b):
        print(f"drift slots a={len(requests_a)} b={len(requests_b)}")
        drift += 1
    for slot_a, slot_b in zip(requests_a, requests_b):
        slot = slot_a.attrs.get("slot")
        for field in ("fingerprint", "method", "tier"):
            value_a = slot_a.attrs.get(field)
            value_b = slot_b.attrs.get(field)
            if value_a != value_b:
                print(f"drift slot={slot} field={field} a={value_a!r} b={value_b!r}")
                drift += 1
    if drift:
        print(f"drift: {drift} divergence(s)")
        return 1
    print(f"slots compared={len(requests_a)}")
    print("no method or hit-attribution drift")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    # Lazy import: the tracing package must not depend on the simulator
    # layer at import time (the engine imports tracing, not vice versa).
    from ..simulators.cache import PersistentResultCache

    from .events import result_digest

    _, events = load_trace(args.trace)
    # cache-put provenance digests the exact payload the traced run
    # stored; request-event keys without one (served from a pre-existing
    # entry the traced run never wrote) get a presence check only.
    digests: dict[str, str | None] = {}
    for event in events:
        if event.kind == "event" and event.name == "cache-put":
            digests[event.attrs["key"]] = event.attrs.get("digest")
    for request in _request_events(events):
        if request.attrs.get("ok") is not True:
            continue
        key_repr = request.attrs.get("key")
        if key_repr is not None:
            digests.setdefault(key_repr, None)

    cache = PersistentResultCache(args.cache_dir)
    verified = present = missing = mismatched = 0
    for key_repr, expected in sorted(digests.items()):
        key = ast.literal_eval(key_repr)
        payload = cache.get(key)
        if payload is None:
            missing += 1
            print(f"missing {key_repr}")
        elif expected is None:
            present += 1
        elif result_digest(payload) == expected:
            verified += 1
        else:
            mismatched += 1
            print(f"mismatch {key_repr} expected={expected} got={result_digest(payload)}")
    print(
        f"replay keys={len(digests)} verified={verified} present={present} "
        f"missing={missing} mismatched={mismatched}"
    )
    if mismatched or (missing and args.strict):
        return 1
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for path in TraceStore(args.trace_dir).list():
        print(path)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tracing",
        description="Summarize, diff and replay persisted execution traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser("summarize", help="per-stage timings and attributions")
    summarize.add_argument("trace", help="path to a trace-<id>.jsonl artifact")
    summarize.set_defaults(func=_cmd_summarize)

    diff = sub.add_parser("diff", help="compare two traces; exit 1 on drift")
    diff.add_argument("trace_a")
    diff.add_argument("trace_b")
    diff.set_defaults(func=_cmd_diff)

    replay = sub.add_parser(
        "replay", help="verify the persistent cache against a trace's provenance"
    )
    replay.add_argument("trace")
    replay.add_argument("--cache-dir", required=True, help="persistent result cache directory")
    replay.add_argument(
        "--strict", action="store_true", help="also fail when a traced key was evicted"
    )
    replay.set_defaults(func=_cmd_replay)

    listing = sub.add_parser("list", help="list trace artifacts, oldest first")
    listing.add_argument("trace_dir")
    listing.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. ``list | head -1``) closed the pipe;
        # that is not an error.  Detach stdout so the interpreter's exit
        # flush does not raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
