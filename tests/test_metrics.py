"""Unit and integration tests for the unified metrics subsystem.

Four layers, matching the package:

* the registry primitives (counter/gauge/histogram families, labels,
  P² streaming quantiles, collectors);
* exposition (Prometheus text v0.0.4 and the JSON document);
* JSONL snapshot persistence and the ``repro.metrics`` CLI round-trip
  (summarize / diff exit codes, the regression sentinel, watch);
* engine integration — the load-bearing invariant is that ``EngineStats``
  and the registry **agree at every scrape** (the engine's collector
  publishes the plain dataclass's counts, so a shared registry holds the
  sum over its engines), pinned by a mixed hit/miss/fault batch; plus
  scrape-while-executing thread safety and the dark ``metrics=False`` arm.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    METRICS_FORMAT,
    METRICS_FORMAT_VERSION,
    MetricsRegistry,
    MetricsStore,
    get_global_registry,
    load_snapshot,
    to_json,
    to_prometheus,
)
from repro.metrics.cli import main as metrics_cli
from repro.metrics.registry import HistogramSeries, _P2Quantile
from repro.mitigation import build_subset_circuit
from repro.noise import NoiseModel
from repro.simulators import (
    ExecutionEngine,
    FailedResult,
    FaultInjector,
    RetryPolicy,
    get_default_engine,
)
from repro.simulators.engine import _STAT_METRICS
from repro.tracing import TraceRecorder

NOISE = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)
FAST_RETRY = RetryPolicy(base_delay=0.0, jitter=0.0)


def _distinct(count: int) -> list[QuantumCircuit]:
    """``count`` circuits that share no cache line or state key."""
    circuits = []
    for index in range(count):
        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.rx(0.1 * (index + 1), 1)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.measure_all()
        circuits.append(circuit)
    return circuits


def _workload(repeats: int = 3) -> list[QuantumCircuit]:
    base = QuantumCircuit(6, 6)
    for q in range(6):
        base.h(q)
    for q in range(5):
        base.cx(q, q + 1)
    base.measure_all()
    unique = [build_subset_circuit(base, subset) for subset in ([0, 1], [2, 3], [4, 5])]
    return [circuit for circuit in unique for _ in range(repeats)]


# ----------------------------------------------------------------------
# Registry primitives
# ----------------------------------------------------------------------


class TestP2Quantile:
    def test_small_sample_is_exact(self):
        estimator = _P2Quantile(0.5)
        assert estimator.value is None
        for x in (5.0, 1.0, 3.0):
            estimator.observe(x)
        assert estimator.value == 3.0  # exact median below 5 observations

    def test_streaming_accuracy_on_lognormal(self):
        import numpy as np

        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-6.0, sigma=1.0, size=5000)
        for p in (0.5, 0.95, 0.99):
            estimator = _P2Quantile(p)
            for x in samples:
                estimator.observe(float(x))
            exact = float(np.quantile(samples, p))
            assert abs(estimator.value - exact) / exact < 0.05, (p, estimator.value, exact)


class TestDeferredHistogram:
    """``observe`` buffers; every read sees what eager observation would."""

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 80.0, allow_subnormal=False), max_size=200),
        reads=st.sets(st.integers(0, 199)),
    )
    def test_deferred_equals_eager_at_every_read(self, values, reads):
        eager = HistogramSeries({}, DEFAULT_LATENCY_BUCKETS)
        deferred = HistogramSeries({}, DEFAULT_LATENCY_BUCKETS)
        for index, value in enumerate(values):
            eager.observe(value)
            eager._snapshot()  # a read folds at once: eager observation
            deferred.observe(value)
            if index in reads:
                assert deferred._snapshot() == eager._snapshot()
        assert deferred._snapshot() == eager._snapshot()
        for p in HistogramSeries.QUANTILES:
            assert deferred.quantile(p) == eager.quantile(p)
        total = 0.0
        for value in values:
            total += value
        assert deferred.count == len(values) and deferred.sum == total
        assert deferred.min == (min(values) if values else None)
        assert deferred.max == (max(values) if values else None)

    def test_pending_buffer_never_exceeds_its_bound(self):
        series = HistogramSeries({}, (1.0, 5.0))
        limit = HistogramSeries.PENDING_LIMIT
        observed = 3 * limit + 5
        for index in range(observed):
            series.observe(float(index % 7))
            assert len(series._pending) < limit
        assert series.count == observed
        assert not series._pending

    def test_racing_observes_and_scrapes_lose_nothing(self):
        import sys

        series = HistogramSeries({}, (0.5, 1.5))
        per_thread = HistogramSeries.PENDING_LIMIT + 1000
        errors: list[BaseException] = []
        regressions: list[tuple[int, int]] = []
        done = threading.Event()

        def observe():
            for _ in range(per_thread):
                series.observe(1.0)

        def scrape():
            seen = 0
            while not done.is_set():
                try:
                    count = series._snapshot()["count"]
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return
                if count < seen:
                    regressions.append((seen, count))
                seen = count

        observers = [threading.Thread(target=observe) for _ in range(4)]
        scrapers = [threading.Thread(target=scrape) for _ in range(2)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in scrapers + observers:
                thread.start()
            for thread in observers:
                thread.join(timeout=30)
        finally:
            done.set()
            for thread in scrapers:
                thread.join(timeout=30)
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in observers + scrapers)
        assert not errors and not regressions, regressions[:5]
        snapshot = series._snapshot()
        total = 4 * per_thread
        assert snapshot["count"] == total and snapshot["sum"] == float(total)
        assert snapshot["buckets"] == [[0.5, 0], [1.5, total]]


class TestRegistry:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "help text")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_counter_set_is_the_bridge_write(self):
        registry = MetricsRegistry()
        counter = registry.counter("bridged_total")
        counter.set(41)
        counter.inc()
        assert counter.value == 42
        assert isinstance(counter.value, int)  # ints stay ints for stats reprs

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_registration_is_idempotent_and_kind_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total")
        assert registry.counter("x_total") is first
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("x_total")

    def test_labels_must_match_labelnames(self):
        registry = MetricsRegistry()
        family = registry.counter("by_kind_total", labelnames=("kind",))
        family.labels(kind="a").inc()
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(wrong="a")
        with pytest.raises(ValueError, match="takes labels"):
            family.labels()

    def test_label_values_are_stringified_and_series_cached(self):
        registry = MetricsRegistry()
        family = registry.counter("by_code_total", labelnames=("code",))
        series = family.labels(code=404)
        assert family.labels(code="404") is series
        assert series.labels == {"code": "404"}

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        ((_, snap),) = hist.series_snapshots()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)
        assert snap["min"] == 0.05 and snap["max"] == 50.0
        assert snap["buckets"] == [[0.1, 1], [1.0, 3], [10.0, 4]]  # +Inf implied by count
        assert snap["quantiles"]["0.5"] == 0.5

    def test_default_latency_buckets_shape(self):
        assert len(DEFAULT_LATENCY_BUCKETS) == 24
        assert DEFAULT_LATENCY_BUCKETS[0] == 1e-6
        assert DEFAULT_LATENCY_BUCKETS[-1] == 50.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)

    def test_base_labels_stamped_on_every_series(self):
        registry = MetricsRegistry(base_labels={"tenant": "acme"})
        family = registry.counter("t_total", labelnames=("kind",))
        family.labels(kind="a").inc()
        ((labels, _),) = family.series_snapshots()
        assert labels == {"tenant": "acme", "kind": "a"}
        text = to_prometheus(registry)
        assert 'tenant="acme"' in text

    def test_collectors_refresh_and_broken_collector_is_counted(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("bridged")
        source = {"value": 0}
        registry.add_collector(lambda: gauge.set(source["value"]))

        def broken():
            raise RuntimeError("scrape must survive this")

        registry.add_collector(broken)
        source["value"] = 7
        registry.collect()
        assert gauge.value == 7
        assert registry.collector_errors == 1
        registry.remove_collector(broken)
        registry.collect()
        assert registry.collector_errors == 1

    def test_info_gauge_clear_idiom(self):
        registry = MetricsRegistry()
        info = registry.gauge("state_info", labelnames=("reason",))
        info.labels(reason="pool down").set(1)
        info.clear()
        info.labels(reason="fork blocked").set(1)
        ((labels, payload),) = info.series_snapshots()
        assert labels == {"reason": "fork blocked"} and payload["value"] == 1

    def test_global_registry_is_a_singleton(self):
        assert get_global_registry() is get_global_registry()


# ----------------------------------------------------------------------
# Exposition
# ----------------------------------------------------------------------


class TestExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests.").inc(3)
        registry.gauge("temp", "Temperature.").set(1.5)
        hist = registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        return registry

    def test_prometheus_text_format(self):
        text = to_prometheus(self._registry())
        lines = text.splitlines()
        assert "# HELP req_total Requests." in lines
        assert "# TYPE req_total counter" in lines
        assert "req_total 3" in lines
        assert "# TYPE lat_seconds histogram" in lines
        assert 'lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{le="1"} 1' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 2' in lines
        assert "lat_seconds_sum 5.05" in lines
        assert "lat_seconds_count 2" in lines
        assert text.endswith("\n")

    def test_prometheus_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("esc_total", labelnames=("msg",)).labels(
            msg='say "hi"\nback\\slash'
        ).inc()
        text = to_prometheus(registry)
        assert r'msg="say \"hi\"\nback\\slash"' in text

    def test_json_document(self):
        document = to_json(self._registry(), snapshot_id="s1")
        assert document["format"] == METRICS_FORMAT
        assert document["version"] == METRICS_FORMAT_VERSION
        assert document["snapshot_id"] == "s1"
        by_name = {family["name"]: family for family in document["metrics"]}
        hist = by_name["lat_seconds"]["series"][0]
        assert hist["count"] == 2
        assert set(hist["quantiles"]) == {"0.5", "0.95", "0.99"}
        json.dumps(document)  # fully serializable


# ----------------------------------------------------------------------
# Snapshot store
# ----------------------------------------------------------------------


class TestSnapshotStore:
    def test_write_list_load_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("n_total").inc(5)
        store = MetricsStore(str(tmp_path))
        path = store.write(registry, snapshot_id="alpha")
        assert path == store.last_path and os.path.exists(path)
        assert store.list() == [path]
        header, families = load_snapshot(path)
        assert header["snapshot_id"] == "alpha"
        assert header["metrics"] == len(families) == 1
        assert families[0]["series"][0]["value"] == 5
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    def test_write_never_raises(self, tmp_path):
        store = MetricsStore(str(tmp_path))
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        store.root = str(blocker / "sub")  # mkstemp hits NotADirectoryError
        assert store.write(MetricsRegistry()) is None
        assert store.write_errors == 1

    def test_load_is_strict_on_header(self, tmp_path):
        alien = tmp_path / "metrics-alien.jsonl"
        alien.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError, match="not a repro-metrics file"):
            load_snapshot(str(alien))
        versioned = tmp_path / "metrics-v9.jsonl"
        versioned.write_text('{"format": "repro-metrics", "version": 99}\n')
        with pytest.raises(ValueError, match="unsupported metrics version"):
            load_snapshot(str(versioned))
        empty = tmp_path / "metrics-empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_snapshot(str(empty))


# ----------------------------------------------------------------------
# EngineStats <-> registry agreement (the single-source-of-truth invariant)
# ----------------------------------------------------------------------


def _stats_vs_registry(engine) -> list[tuple[str, float, float]]:
    """(field, stats value, registry value) for every published stat, after a scrape."""
    engine.metrics.collect()
    rows = []
    for field, (metric_name, _) in _STAT_METRICS.items():
        family = engine.metrics.get(metric_name)
        registry_value = family.value if family is not None else None
        rows.append((field, getattr(engine.stats, field), registry_value))
    return rows


class TestEngineStatsView:
    def test_agreement_after_mixed_hit_miss_fault_batch(self):
        """EngineStats and the registry agree at every scrape.

        One batch with cache hits, dedup hits, misses, a retried transient
        fault and an isolated persistent failure; after a scrape, every
        numeric stat field must read identically from the dataclass and
        from its counter series, then again after a second (warm) batch.
        """
        circuits = _workload(repeats=3)  # 3 unique x 3
        with ExecutionEngine(retry_policy=FAST_RETRY) as engine:
            engine.install_fault_injector(FaultInjector(fail_tasks={0}, poison_tasks={1}))
            results = engine.execute_many(circuits, NOISE, shots=64, seed=11, on_error="isolate")
            assert any(isinstance(r, FailedResult) for r in results)
            assert engine.stats.requests == len(circuits)
            assert engine.stats.retries >= 1
            assert engine.stats.isolated_failures >= 1
            for field, stat, registry_value in _stats_vs_registry(engine):
                assert stat == registry_value, (field, stat, registry_value)

            engine.execute_many(circuits, NOISE, shots=64, seed=11, on_error="isolate")
            assert engine.stats.requests == 2 * len(circuits)
            for field, stat, registry_value in _stats_vs_registry(engine):
                assert stat == registry_value, (field, stat, registry_value)

    def test_reset_zeroes_both_views(self):
        with ExecutionEngine() as engine:
            engine.execute_many(_workload(), NOISE, shots=64, seed=3)
            assert engine.stats.requests > 0
            engine.stats.reset()
            for field, stat, registry_value in _stats_vs_registry(engine):
                assert stat == 0 == registry_value, field
            assert engine.stats.fallback_reason is None

    def test_stats_dataclass_api_is_preserved(self):
        with ExecutionEngine() as engine:
            engine.execute_many(_workload(repeats=2), NOISE, shots=64, seed=5)
            stats = engine.stats
            snapshot = stats.to_dict()
            assert snapshot["requests"] == stats.requests
            assert isinstance(stats.requests, int)
            assert 0.0 <= stats.hit_rate <= 1.0
            assert f"requests={stats.requests}" in repr(stats)
            assert {f.name for f in dataclasses.fields(stats)} >= set(_STAT_METRICS)

    def test_engines_sharing_a_registry_keep_their_own_stats(self):
        registry = MetricsRegistry()
        with ExecutionEngine(metrics=registry) as first, ExecutionEngine(metrics=registry) as second:
            first.execute_many(_distinct(3), NOISE, shots=64, seed=1)
            second.execute_many(_distinct(5), NOISE, shots=64, seed=2)
            assert (first.stats.requests, second.stats.requests) == (3, 5)
            requests = registry.get("repro_engine_requests_total")
            registry.collect()
            assert requests.value == 8  # the registry sums its engines
            first.stats.reset()
            assert second.stats.requests == 5
            registry.collect()
            assert requests.value == 5  # the reset shows at the next scrape

    def test_engine_on_a_shared_registry_can_be_collected(self):
        import gc
        import weakref

        registry = MetricsRegistry()
        engine = ExecutionEngine(metrics=registry)
        engine.execute_many(_distinct(3), NOISE, shots=64, seed=1)
        engine.close()
        dropped = weakref.ref(engine)
        del engine
        gc.collect()
        assert dropped() is None  # the registry holds no strong reference
        registry.collect()
        assert registry.get("repro_engine_requests_total").value == 3  # published at close

    def test_every_stat_field_has_a_metric(self):
        field_names = {
            f.name for f in dataclasses.fields(ExecutionEngine(metrics=False).stats)
        }
        assert field_names - {"fallback_reason"} == set(_STAT_METRICS)

    def test_dark_engine_has_plain_stats_and_no_registry(self):
        with ExecutionEngine(metrics=False) as engine:
            assert engine.metrics is None
            results = engine.execute_many(_workload(), NOISE, shots=64, seed=2)
            assert len(results) == 9
            assert engine.stats.requests == 9
            assert engine.stats.cache_misses == 3
            assert engine.stats.batch_dedup_hits == 6
            assert "_series" not in engine.stats.__dict__
        with pytest.raises(ValueError, match="metrics_dir requires metrics"):
            ExecutionEngine(metrics=False, metrics_dir="/tmp/never")

    def test_default_engine_publishes_to_global_registry(self):
        engine = get_default_engine()
        assert engine.metrics is get_global_registry()


# ----------------------------------------------------------------------
# Per-stage instrumentation
# ----------------------------------------------------------------------


class TestInstrumentation:
    def test_stage_and_execute_histograms_populate(self):
        circuits = _workload(repeats=3)
        with ExecutionEngine() as engine:
            engine.execute_many(circuits, NOISE, shots=64, seed=11)
            stage = engine.metrics.get("repro_engine_stage_seconds")
            by_stage = {labels["stage"]: snap for labels, snap in stage.series_snapshots()}
            assert set(by_stage) == {"prepare", "cache", "deliver"}
            assert by_stage["prepare"]["count"] == len(circuits)
            assert by_stage["deliver"]["count"] == len(circuits)
            assert by_stage["cache"]["count"] > 0
            for snap in by_stage.values():
                assert snap["sum"] >= 0
                assert all(v is not None and v >= 0 for v in snap["quantiles"].values())

            execute = engine.metrics.get("repro_engine_execute_seconds")
            by_method = {labels["method"]: snap for labels, snap in execute.series_snapshots()}
            assert by_method  # at least one backend method observed
            assert sum(snap["count"] for snap in by_method.values()) == engine.stats.executed

            tiers = engine.metrics.get("repro_engine_requests_by_tier_total")
            by_tier = {labels["tier"]: snap["value"] for labels, snap in tiers.series_snapshots()}
            assert by_tier.get("executed") == engine.stats.executed
            assert by_tier.get("batch-dedup") == engine.stats.batch_dedup_hits
            assert sum(by_tier.values()) == engine.stats.requests

    def test_pool_executions_feed_the_execute_histogram(self):
        """Untraced pool runs record one execute sample each, like serial runs."""

        def samples(engine) -> int:
            family = engine.metrics.get("repro_engine_execute_seconds")
            return sum(snap["count"] for _, snap in family.series_snapshots())

        with ExecutionEngine() as serial, ExecutionEngine(workers=2) as pooled:
            for engine in (serial, pooled):
                engine.execute_many(_distinct(6), NOISE, shots=64, seed=3)
                assert engine.tracer is None
                assert engine.stats.executed == 6
            assert samples(pooled) == samples(serial) == 6

    def test_fault_counters_labeled_by_error_class(self):
        with ExecutionEngine(retry_policy=FAST_RETRY) as engine:
            engine.install_fault_injector(FaultInjector(fail_tasks={0}, poison_tasks={1}))
            engine.execute_many(_workload(), NOISE, shots=64, seed=11, on_error="isolate")
            faults = engine.metrics.get("repro_engine_faults_total")
            samples = {
                (labels["kind"], labels["error"]): snap["value"]
                for labels, snap in faults.series_snapshots()
            }
            assert sum(v for (kind, _), v in samples.items() if kind == "retried") == (
                engine.stats.retries
            )
            assert sum(v for (kind, _), v in samples.items() if kind == "isolated") == (
                engine.stats.isolated_failures
            )
            assert all(error for (_, error) in samples)  # every sample names a class

    def test_cache_and_compilation_gauges_bridge_on_scrape(self, tmp_path):
        with ExecutionEngine(cache_dir=str(tmp_path / "cache")) as engine:
            engine.execute_many(_workload(), NOISE, shots=64, seed=11)
            engine.metrics.collect()  # runs the health collector
            events = engine.metrics.get("repro_result_cache_events_total")
            by_event = {
                labels["event"]: snap["value"] for labels, snap in events.series_snapshots()
            }
            cache_stats = engine.persistent_cache.stats()
            for event, value in by_event.items():
                assert cache_stats[event] == value, event
            approx = engine.metrics.get("repro_result_cache_approx_bytes")
            assert approx.value == cache_stats["approx_bytes"]

    def test_sharder_counters_and_fallback_info(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no /dev/shm")

        monkeypatch.setattr("repro.simulators.parallel.ProcessPoolExecutor", refuse)
        with ExecutionEngine(workers=2) as engine:
            registry = engine.metrics
            registry.collect()
            assert registry.get("repro_parallel_fallback_info").series_snapshots() == []
            # Three distinct circuits: three sharded tasks, all run in the
            # parent because the pool cannot be created.
            engine.execute_many(_workload(repeats=1), NOISE, shots=64, seed=1)
            registry.collect()
            assert registry.get("repro_parallel_inprocess_total").value == 3
            assert registry.get("repro_parallel_dispatched_total").value == 0
            assert registry.get("repro_parallel_respawns_total").value == 0
            ((labels, payload),) = registry.get(
                "repro_parallel_fallback_info"
            ).series_snapshots()
            assert labels["reason"].startswith("pool creation failed: OSError")
            assert payload["value"] == 1

    def test_recorder_drop_counts_surface_in_stats_and_registry(self, tmp_path):
        recorder = TraceRecorder(keep=2)
        for index in range(5):
            with recorder.span(f"t{index}"):
                recorder.event("e")
        stats = recorder.stats()
        assert stats["traces"] == 5 and stats["retained"] == 2
        assert stats["dropped_traces"] == 3
        assert stats["dropped_events"] == 6  # 3 evicted traces x (event + span)
        assert stats["write_errors"] == 0

        with ExecutionEngine(trace_dir=str(tmp_path / "traces")) as engine:
            engine.tracer.keep = 1
            engine.execute_many(_workload(repeats=1), NOISE, shots=64, seed=1)
            engine.execute_many(_workload(repeats=1), NOISE, shots=64, seed=2)
            engine.metrics.collect()
            dropped = engine.metrics.get("repro_trace_dropped_traces_total")
            assert dropped.value == engine.tracer.stats()["dropped_traces"] >= 1
            write_errors = engine.metrics.get("repro_trace_write_errors_total")
            assert write_errors.value == 0


# ----------------------------------------------------------------------
# Concurrency: scrape while executing
# ----------------------------------------------------------------------


class TestConcurrentScrape:
    def test_scrapes_are_safe_during_execution(self):
        """A scraper thread hammering every read API during execute_many."""
        with ExecutionEngine() as engine:
            errors: list[BaseException] = []
            stop = threading.Event()

            def scrape():
                while not stop.is_set():
                    try:
                        text = to_prometheus(engine.metrics)
                        assert text.endswith("\n")
                        to_json(engine.metrics)
                        engine.stats.to_dict()
                    except BaseException as exc:  # pragma: no cover - failure path
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=scrape) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                for seed in range(6):
                    engine.execute_many(_workload(repeats=2), NOISE, shots=64, seed=seed)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
            assert not errors
            for field, stat, registry_value in _stats_vs_registry(engine):
                assert stat == registry_value, field


    def test_racing_publishes_never_lose_or_reverse_a_count(self):
        """Publishers racing on one engine's counts: the counter never goes back."""
        import sys
        import time

        with ExecutionEngine() as engine:
            series = engine.metrics.get("repro_engine_requests_total").labels()
            stop = threading.Event()
            errors: list[BaseException] = []
            regressions: list[tuple[float, float]] = []

            def publish():
                while not stop.is_set():
                    try:
                        engine._publish_counts()
                    except BaseException as exc:  # pragma: no cover - failure path
                        errors.append(exc)
                        return

            def watch():
                seen = 0
                while not stop.is_set():
                    value = series.value
                    if value < seen:
                        regressions.append((seen, value))
                    seen = max(seen, value)

            threads = [threading.Thread(target=publish) for _ in range(4)]
            threads.append(threading.Thread(target=watch))
            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                deadline = time.perf_counter() + 0.5
                while time.perf_counter() < deadline:
                    engine.stats.requests += 1
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
                sys.setswitchinterval(previous)
            assert not errors
            assert not any(thread.is_alive() for thread in threads)
            assert not regressions, regressions[:5]
            engine.metrics.collect()
            assert series.value == engine.stats.requests > 0


# ----------------------------------------------------------------------
# Snapshot-on-close and the CLI round trip
# ----------------------------------------------------------------------


class TestSnapshotAndCLI:
    def _snapshot_pair(self, tmp_path):
        """Two snapshots of one engine: cold batch, then warm batch."""
        metrics_dir = str(tmp_path / "metrics")
        engine = ExecutionEngine(metrics_dir=metrics_dir)
        engine.execute_many(_workload(), NOISE, shots=64, seed=11)
        first = engine._metrics_store.write(engine.metrics)
        engine.execute_many(_workload(), NOISE, shots=64, seed=11)
        engine.close()
        store = MetricsStore(metrics_dir)
        paths = store.list()
        assert paths[0] == first and len(paths) == 2
        return paths

    def test_close_flushes_a_snapshot(self, tmp_path):
        metrics_dir = str(tmp_path / "m")
        with ExecutionEngine(metrics_dir=metrics_dir) as engine:
            engine.execute_many(_workload(repeats=1), NOISE, shots=64, seed=1)
        paths = MetricsStore(metrics_dir).list()
        assert len(paths) == 1
        header, families = load_snapshot(paths[0])
        assert header["format"] == METRICS_FORMAT
        names = {family["name"] for family in families}
        assert "repro_engine_requests_total" in names
        assert "repro_engine_stage_seconds" in names

    def test_summarize_reports_stages_and_hit_rate(self, tmp_path, capsys):
        first, second = self._snapshot_pair(tmp_path)
        assert metrics_cli(["summarize", second]) == 0
        out = capsys.readouterr().out
        assert out.startswith("snapshot ")
        for stage in ("prepare", "cache", "deliver"):
            assert f"stage {stage}" in out
        assert "hit-rate requests=18" in out
        assert "rate=" in out
        assert "counter repro_engine_requests_total 18" in out

    def test_summarize_agrees_with_engine_stats(self, tmp_path):
        metrics_dir = str(tmp_path / "m")
        with ExecutionEngine(metrics_dir=metrics_dir) as engine:
            engine.execute_many(_workload(), NOISE, shots=64, seed=11)
            expected = engine.stats.to_dict()
        (path,) = MetricsStore(metrics_dir).list()
        _, families = load_snapshot(path)
        by_name = {family["name"]: family for family in families}
        for field, (metric_name, _) in _STAT_METRICS.items():
            value = by_name[metric_name]["series"][0]["value"]
            assert value == expected[field], field

    def test_diff_forward_clean_and_reverse_regression(self, tmp_path, capsys):
        first, second = self._snapshot_pair(tmp_path)
        assert metrics_cli(["diff", first, second]) == 0
        out = capsys.readouterr().out
        assert "no counter regressions" in out
        assert "regression" not in out.replace("no counter regressions", "")
        assert "repro_engine_requests_total" in out  # the warm batch moved it

        assert metrics_cli(["diff", second, first]) == 1
        out = capsys.readouterr().out
        assert "regression repro_engine_requests_total" in out
        assert "counter(s) went backwards" in out

    def test_watch_and_list(self, tmp_path, capsys):
        first, second = self._snapshot_pair(tmp_path)
        snapshot_dir = os.path.dirname(first)
        assert metrics_cli(["list", snapshot_dir]) == 0
        assert capsys.readouterr().out.splitlines() == [first, second]
        assert metrics_cli(["watch", snapshot_dir, "--iterations", "2", "--interval", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1  # newest printed once, second poll sees nothing new
        assert lines[0].startswith(f"watch {os.path.basename(second)}")
        assert "requests=18" in lines[0]
        assert "hit-rate=" in lines[0]

    def test_watch_empty_dir(self, tmp_path, capsys):
        empty = str(tmp_path / "empty")
        assert metrics_cli(["watch", empty, "--iterations", "1"]) == 0
        assert "watch no snapshots in" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        metrics_dir = str(tmp_path / "m")
        with ExecutionEngine(metrics_dir=metrics_dir) as engine:
            engine.execute_many(_workload(repeats=1), NOISE, shots=64, seed=1)
        (path,) = MetricsStore(metrics_dir).list()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.metrics", "summarize", path],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "hit-rate" in proc.stdout
