"""Command-line tooling for persisted metrics snapshots.

``python -m repro.metrics <command>``:

* ``summarize <snapshot>`` — per-stage latency lines (greppable
  ``stage <name>  n=... p50=... p95=... p99=...``), the engine hit-rate
  line, then every counter and gauge sample.
* ``diff <a> <b>`` — per-counter deltas and histogram count/sum shifts.
  Counters are monotone, so a counter that went *down* between two
  snapshots of one process is a regression (a reset, a double-flush from
  a stale process, or an accounting bug); any such series exits 1,
  otherwise the sentinel ``no counter regressions`` is printed.
* ``watch <dir>`` — poll a snapshot directory and print a one-line health
  summary whenever a new snapshot lands (``--interval``, and
  ``--iterations`` to bound the loop for scripts and tests).
* ``list <dir>`` — snapshot artifact paths, oldest first.

The module imports only the metrics package, never the simulator layer:
the CLI must work on a snapshot directory with nothing else installed
around it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Sequence

from .snapshot import MetricsStore, load_snapshot

__all__ = ["main"]

# Canonical print order for engine stage rows; labels outside this list
# sort after it.
_STAGE_ORDER = ["prepare", "cache", "deliver", "execute"]

_HIT_RATE_METRICS = (
    "repro_engine_requests_total",
    "repro_engine_cache_hits_total",
    "repro_engine_batch_dedup_hits_total",
)


def _families_by_name(families: list[dict]) -> dict[str, dict]:
    return {family["name"]: family for family in families}


def _series_signature(name: str, labels: dict) -> str:
    if not labels:
        return name
    body = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{body}}}"


def _stage_rows(families: list[dict]) -> list[tuple[str, dict]]:
    """``(row_name, series_payload)`` for every histogram series.

    ``repro_engine_stage_seconds{stage=prepare}`` rows surface as plain
    ``prepare``; other histograms read ``<short-name>[<label values>]``.
    """
    rows: list[tuple[str, dict]] = []
    for family in families:
        if family.get("type") != "histogram":
            continue
        name = family["name"]
        short = name
        if short.startswith("repro_"):
            short = short[len("repro_"):]
        if short.endswith("_seconds"):
            short = short[: -len("_seconds")]
        for series in family.get("series", []):
            if not series.get("count"):
                continue
            labels = series.get("labels", {})
            if name == "repro_engine_stage_seconds" and "stage" in labels:
                row = labels["stage"]
            elif name == "repro_engine_execute_seconds" and "method" in labels:
                row = f"execute[{labels['method']}]"
            elif labels:
                row = f"{short}[{','.join(labels[key] for key in sorted(labels))}]"
            else:
                row = short
            rows.append((row, series))
    return rows


def _stage_key(row: str) -> tuple[int, str]:
    head = row.split("[", 1)[0]
    for index, stage in enumerate(_STAGE_ORDER):
        if head == stage or head.startswith(f"{stage}_") or head.startswith(f"engine_{stage}"):
            return (index, row)
    return (len(_STAGE_ORDER), row)


def _ms(seconds: float | None) -> str:
    if seconds is None:
        return "n/a"
    return f"{seconds * 1000.0:.3f}ms"


def _print_stage_rows(families: list[dict]) -> None:
    for row, series in sorted(_stage_rows(families), key=lambda item: _stage_key(item[0])):
        quantiles = series.get("quantiles", {})
        print(
            f"stage {row:<28} n={series['count']:<6d} "
            f"p50={_ms(quantiles.get('0.5'))} "
            f"p95={_ms(quantiles.get('0.95'))} "
            f"p99={_ms(quantiles.get('0.99'))} "
            f"total={_ms(series['sum'])}"
        )


def _counter_value(by_name: dict[str, dict], name: str) -> float | None:
    family = by_name.get(name)
    if family is None:
        return None
    for series in family.get("series", []):
        if not {k: v for k, v in series.get("labels", {}).items() if k != "tenant"}:
            return series.get("value")
    return None


def _print_hit_rate(by_name: dict[str, dict]) -> None:
    requests, hits, dedup = (_counter_value(by_name, name) for name in _HIT_RATE_METRICS)
    if not requests:
        return
    served = (hits or 0) + (dedup or 0)
    print(
        f"hit-rate requests={int(requests)} hits={int(hits or 0)} "
        f"dedup={int(dedup or 0)} rate={served / requests:.1%}"
    )


def _scalar_series(families: list[dict], kind: str) -> list[tuple[str, float]]:
    samples = []
    for family in families:
        if family.get("type") != kind:
            continue
        for series in family.get("series", []):
            samples.append(
                (_series_signature(family["name"], series.get("labels", {})), series["value"])
            )
    return samples


def _cmd_summarize(args: argparse.Namespace) -> int:
    header, families = load_snapshot(args.snapshot)
    print(
        f"snapshot {header.get('snapshot_id')}  created={header.get('created_at')}  "
        f"file={args.snapshot}"
    )
    _print_stage_rows(families)
    by_name = _families_by_name(families)
    _print_hit_rate(by_name)
    for kind in ("counter", "gauge"):
        for signature, value in _scalar_series(families, kind):
            print(f"{kind} {signature} {value:g}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    header_a, families_a = load_snapshot(args.snapshot_a)
    header_b, families_b = load_snapshot(args.snapshot_b)
    print(f"diff a={header_a.get('snapshot_id')} b={header_b.get('snapshot_id')}")

    counters_a = dict(_scalar_series(families_a, "counter"))
    counters_b = dict(_scalar_series(families_b, "counter"))
    regressions = 0
    for signature in sorted(counters_a.keys() | counters_b.keys()):
        value_a = counters_a.get(signature)
        value_b = counters_b.get(signature)
        if value_a is None:
            print(f"counter {signature} a=absent b={value_b:g}")
            continue
        if value_b is None:
            print(f"regression {signature} a={value_a:g} b=absent")
            regressions += 1
            continue
        delta = value_b - value_a
        if delta < 0:
            print(f"regression {signature} a={value_a:g} b={value_b:g} delta={delta:+g}")
            regressions += 1
        elif delta != 0 or args.all:
            print(f"counter {signature} a={value_a:g} b={value_b:g} delta={delta:+g}")

    hist_a = {
        _series_signature(f["name"], s.get("labels", {})): s
        for f in families_a if f.get("type") == "histogram" for s in f.get("series", [])
    }
    hist_b = {
        _series_signature(f["name"], s.get("labels", {})): s
        for f in families_b if f.get("type") == "histogram" for s in f.get("series", [])
    }
    for signature in sorted(hist_a.keys() | hist_b.keys()):
        series_a = hist_a.get(signature, {"count": 0, "sum": 0.0})
        series_b = hist_b.get(signature, {"count": 0, "sum": 0.0})
        delta_n = series_b["count"] - series_a["count"]
        if delta_n == 0 and not args.all:
            continue
        print(
            f"histogram {signature} n={series_a['count']}->{series_b['count']} "
            f"total={_ms(series_a['sum'])}->{_ms(series_b['sum'])}"
        )

    if regressions:
        print(f"regressions: {regressions} counter(s) went backwards")
        return 1
    print("no counter regressions")
    return 0


def _watch_line(path: str) -> str:
    header, families = load_snapshot(path)
    by_name = _families_by_name(families)
    requests = _counter_value(by_name, "repro_engine_requests_total") or 0
    hits = _counter_value(by_name, "repro_engine_cache_hits_total") or 0
    dedup = _counter_value(by_name, "repro_engine_batch_dedup_hits_total") or 0
    rate = f"{(hits + dedup) / requests:.1%}" if requests else "n/a"
    p95 = None
    for row, series in _stage_rows(families):
        if row.startswith("execute"):
            p95 = series.get("quantiles", {}).get("0.95")
            break
    return (
        f"watch {os.path.basename(path)} created={header.get('created_at')} "
        f"requests={int(requests)} hit-rate={rate} p95[execute]={_ms(p95)}"
    )


def _cmd_watch(args: argparse.Namespace) -> int:
    store = MetricsStore(args.snapshot_dir)
    seen: str | None = None
    iterations = 0
    while True:
        snapshots = store.list()
        if not snapshots:
            print(f"watch no snapshots in {args.snapshot_dir}")
        else:
            newest = snapshots[-1]
            if newest != seen:
                seen = newest
                print(_watch_line(newest))
        sys.stdout.flush()
        iterations += 1
        if args.iterations and iterations >= args.iterations:
            return 0
        time.sleep(args.interval)


def _cmd_list(args: argparse.Namespace) -> int:
    for path in MetricsStore(args.snapshot_dir).list():
        print(path)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics",
        description="Summarize, diff and watch persisted metrics snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser("summarize", help="per-stage quantiles, hit rates, counters")
    summarize.add_argument("snapshot", help="path to a metrics-<id>.jsonl artifact")
    summarize.set_defaults(func=_cmd_summarize)

    diff = sub.add_parser("diff", help="compare two snapshots; exit 1 on counter regressions")
    diff.add_argument("snapshot_a")
    diff.add_argument("snapshot_b")
    diff.add_argument("--all", action="store_true", help="also print unchanged series")
    diff.set_defaults(func=_cmd_diff)

    watch = sub.add_parser("watch", help="poll a snapshot dir, print health lines")
    watch.add_argument("snapshot_dir")
    watch.add_argument("--interval", type=float, default=2.0, help="poll period in seconds")
    watch.add_argument(
        "--iterations", type=int, default=0,
        help="stop after N polls (0 = run until interrupted)",
    )
    watch.set_defaults(func=_cmd_watch)

    listing = sub.add_parser("list", help="list snapshot artifacts, oldest first")
    listing.add_argument("snapshot_dir")
    listing.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        # Downstream consumer (e.g. ``watch | head -1``) closed the pipe;
        # that is not an error.  Detach stdout so the interpreter's exit
        # flush does not raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
