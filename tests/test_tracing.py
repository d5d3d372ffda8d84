"""Tests for the execution tracing & provenance layer.

Invariants pinned here:

*slot ledger*: every slot of every traced batch appears in the trace as
exactly one ``request`` event — served, executed, isolated or
failed-in-prepare, whatever fails (the fault tests below poison circuits,
time out a slow one and kill pool workers through the
:class:`~test_faults.FakeBackend`, and fail a prepare through
:class:`~test_faults.FailingPrepare`, on the serial route and the pool).

*attribution*: cache tiers (batch-dedup / memory / persistent), resolved
backend methods, fault annotations and pool worker pids all land on trace
events and agree with the engine's own counters.

*round-trip*: persisted JSONL traces reload bit-identically (dataclass
equality against the in-memory events), and worker trace fragments never
leak into cached results.

The CLI (``python -m repro.tracing``) is exercised in-process through
``repro.tracing.cli.main``.
"""

import collections
import json
import os
import re

import pytest

from repro.circuits import QuantumCircuit
from repro.mitigation import build_subset_circuit
from repro.noise import NoiseModel
from repro.simulators import ExecutionEngine, FailedResult, PersistentResultCache
from repro.tracing import (
    TRACE_FORMAT,
    TRACE_FORMAT_VERSION,
    TraceRecorder,
    TraceStore,
    load_trace,
    maybe_span,
    result_digest,
)
from repro.tracing.cli import main as cli_main
from test_faults import EVERY_TASK, FailingPrepare, FakeBackend, fingerprint
from test_parallel import POOL_AVAILABLE, requires_pool

NOISE = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)
ROUTES = pytest.mark.parametrize("workers", [None, 2], ids=["serial", "pool"])


def _subset_workload(num_qubits: int = 6, repeats: int = 3) -> list[QuantumCircuit]:
    base = QuantumCircuit(num_qubits, num_qubits)
    for q in range(num_qubits):
        base.h(q)
    for q in range(num_qubits - 1):
        base.cx(q, q + 1)
    for q in range(num_qubits):
        base.rz(0.1 * (q + 1), q)
    base.measure_all()
    subsets = [[0, 1], [2, 3], [4, 5]]
    unique = [build_subset_circuit(base, subset) for subset in subsets]
    return [circuit for circuit in unique for _ in range(repeats)]


def _traced_batch(trace_dir, circuits, *, workers=None, on_error="isolate", **engine_kwargs):
    """One batch through a fresh traced engine; returns (results, events, path)."""
    with ExecutionEngine(trace_dir=str(trace_dir), workers=workers, **engine_kwargs) as engine:
        results = engine.execute_many(circuits, NOISE, shots=64, seed=11, on_error=on_error)
        return results, engine.tracer.trace_events(), engine.tracer.last_trace_path


def _requests(events):
    requests = [e for e in events if e.kind == "event" and e.name == "request"]
    requests.sort(key=lambda event: event.attrs["slot"])
    return requests


def _assert_slot_ledger(events, results):
    """Every slot exactly once, with ok/fault attribution matching results."""
    requests = _requests(events)
    assert [r.attrs["slot"] for r in requests] == list(range(len(results)))
    for request, result in zip(requests, results):
        if isinstance(result, FailedResult):
            assert request.attrs["ok"] is False
            assert request.attrs["error"]  # fault annotation present
            assert request.attrs["stage"]
        else:
            assert request.attrs["ok"] is True
            assert request.attrs["method"] == result.method


class TestRecorder:
    def test_span_nesting_and_root_flush(self):
        recorder = TraceRecorder()
        with recorder.span("root", batch=1):
            assert recorder.active
            assert recorder.current_trace_id is not None
            with recorder.span("child"):
                recorder.event("leaf", duration=0.25, detail="x")
        assert not recorder.active
        assert recorder.current_trace_id is None
        events = recorder.trace_events()
        by_name = {event.name: event for event in events}
        root, child, leaf = by_name["root"], by_name["child"], by_name["leaf"]
        assert root.parent_id is None and root.kind == "span"
        assert child.parent_id == root.span_id
        assert leaf.parent_id == child.span_id and leaf.kind == "event"
        assert leaf.duration == 0.25
        assert {event.trace_id for event in events} == {recorder.last_trace_id}

    def test_event_outside_any_trace_is_noop(self):
        recorder = TraceRecorder()
        recorder.event("orphan", value=1)
        assert recorder.traces == []
        assert recorder.last_trace_id is None

    def test_emit_many_records_one_event_per_attrs_at_one_instant(self):
        recorder = TraceRecorder()
        recorder.emit_many("orphan", [{"slot": 0}])  # outside any trace: no-op
        with recorder.span("root"):
            recorder.event("before")
            recorder.emit_many("request", [{"slot": 0}, {"slot": 1}, {"slot": 2}])
            recorder.event("after")
        events = recorder.trace_events()
        assert [e.name for e in events] == ["before", "request", "request", "request", "after", "root"]
        requests = [e for e in events if e.name == "request"]
        assert [e.attrs for e in requests] == [{"slot": 0}, {"slot": 1}, {"slot": 2}]
        assert len({e.span_id for e in events}) == len(events)
        root = events[-1]
        assert all(e.parent_id == root.span_id and e.kind == "event" for e in requests)
        assert len({e.start for e in requests}) == 1 and requests[0].duration is None

    def test_exception_closes_trace_with_status(self):
        recorder = TraceRecorder()
        with pytest.raises(ValueError):
            with recorder.span("root"):
                raise ValueError("boom")
        assert not recorder.active  # trace finished despite the abort
        [root] = recorder.trace_events()
        assert root.attrs["status"] == "raised"
        assert root.attrs["error"] == "ValueError"

    def test_end_span_pops_abandoned_children(self):
        recorder = TraceRecorder()
        root = recorder.start_span("root")
        recorder.start_span("abandoned")
        recorder.end_span(root)
        assert not recorder.active
        assert {e.name for e in recorder.trace_events()} == {"root"}

    def test_ring_is_bounded(self):
        recorder = TraceRecorder(keep=2)
        for index in range(4):
            with recorder.span(f"t{index}"):
                if index == 0:
                    recorder.event("e")
        assert len(recorder.traces) == 2
        assert recorder.trace_events()[0].name == "t3"
        # Evictions are counted, with every event the evicted traces held
        # (t0: its event and span, t1: its span).
        stats = recorder.stats()
        assert stats["traces"] == 4 and stats["retained"] == 2
        assert stats["dropped_traces"] == 2
        assert stats["dropped_events"] == 3
        assert stats["write_errors"] == 0

    def test_maybe_span_without_tracer_is_noop(self):
        with maybe_span(None, "anything") as span:
            assert span is None


class TestStorage:
    def test_round_trip_is_bit_identical(self, tmp_path):
        recorder = TraceRecorder(store=TraceStore(str(tmp_path)))
        with recorder.span("root", shots=64):
            recorder.event("request", duration=0.0012345678901234, slot=0, tier="memory")
            recorder.event("execute", duration=None, status="ok")
        header, loaded = load_trace(recorder.last_trace_path)
        assert header["format"] == TRACE_FORMAT
        assert header["version"] == TRACE_FORMAT_VERSION
        assert header["trace_id"] == recorder.last_trace_id
        assert loaded == recorder.trace_events()  # dataclass equality: bit-identical

    def test_load_rejects_alien_and_versioned_files(self, tmp_path):
        empty = tmp_path / "trace-empty.jsonl"
        empty.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            load_trace(str(empty))
        alien = tmp_path / "trace-alien.jsonl"
        alien.write_text(json.dumps({"format": "other"}) + "\n")
        with pytest.raises(ValueError, match="not a"):
            load_trace(str(alien))
        future = tmp_path / "trace-future.jsonl"
        future.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": TRACE_FORMAT_VERSION + 1}) + "\n"
        )
        with pytest.raises(ValueError, match="unsupported"):
            load_trace(str(future))

    def test_write_failure_is_counted_not_raised(self, tmp_path):
        store = TraceStore(str(tmp_path))
        store.root = str(tmp_path / "vanished" / "deeper")  # mkstemp will fail
        recorder = TraceRecorder(store=store)
        with recorder.span("root"):
            pass  # the traced work itself must not raise
        # The flush is deferred; path access forces it and must not raise.
        assert recorder.last_trace_path is None
        assert store.write_errors == 1
        assert recorder.trace_events()  # in-memory copy survives

    def test_list_orders_oldest_first(self, tmp_path):
        store = TraceStore(str(tmp_path))
        first = store.write("aaa", [])
        second = store.write("bbb", [])
        os.utime(second, (2_000_000_000, 2_000_000_000))
        assert store.list() == [first, second]


class TestEngineTraces:
    def test_serial_slot_ledger_and_tiers(self, tmp_path):
        circuits = _subset_workload()
        results, events, path = _traced_batch(tmp_path / "traces", circuits)
        assert all(result.ok for result in results)
        _assert_slot_ledger(events, results)
        tiers = [request.attrs["tier"] for request in _requests(events)]
        assert tiers.count("executed") == 3  # one per unique circuit
        assert tiers.count("batch-dedup") == 6  # duplicates share the execution
        # Stage timings land on the slots that passed through each stage.
        for request in _requests(events):
            assert request.attrs["t_prepare"] >= 0.0
            assert request.attrs["t_deliver"] >= 0.0
        # The artifact on disk equals the in-memory trace bit-for-bit.
        _, loaded = load_trace(path)
        assert loaded == events

    def test_memory_and_persistent_tier_attribution(self, tmp_path):
        circuits = _subset_workload(repeats=1)
        cache_dir = str(tmp_path / "cache")
        trace_dir = str(tmp_path / "traces")
        with ExecutionEngine(cache_dir=cache_dir, trace_dir=trace_dir) as engine:
            engine.execute_many(circuits, NOISE, shots=64, seed=11)
            engine.execute_many(circuits, NOISE, shots=64, seed=11)
            second = engine.tracer.trace_events()
        assert {r.attrs["tier"] for r in _requests(second)} == {"memory"}
        # A fresh engine sharing only the on-disk cache attributes the
        # persistent tier.
        with ExecutionEngine(cache_dir=cache_dir, trace_dir=trace_dir) as engine:
            engine.execute_many(circuits, NOISE, shots=64, seed=11)
            third = engine.tracer.trace_events()
        assert {r.attrs["tier"] for r in _requests(third)} == {"persistent"}

    def test_execute_events_attribute_method_and_location(self, tmp_path):
        circuits = _subset_workload(repeats=1)
        _, events, _ = _traced_batch(tmp_path / "traces", circuits)
        executes = [e for e in events if e.name == "execute"]
        assert len(executes) == len(circuits)
        for event in executes:
            assert event.attrs["status"] == "ok"
            assert event.attrs["location"] == "in-process"
            assert event.duration is not None and event.duration >= 0.0

    def test_cache_put_provenance_digests_stored_payloads(self, tmp_path):
        circuits = _subset_workload(repeats=1)
        cache_dir = str(tmp_path / "cache")
        with ExecutionEngine(cache_dir=cache_dir, trace_dir=str(tmp_path / "traces")) as engine:
            engine.execute_many(circuits, NOISE, shots=64, seed=11)
            events = engine.tracer.trace_events()
        puts = [e for e in events if e.name == "cache-put"]
        assert puts
        cache = PersistentResultCache(cache_dir)
        for event in puts:
            import ast

            payload = cache.get(ast.literal_eval(event.attrs["key"]))
            assert payload is not None
            assert result_digest(payload) == event.attrs["digest"]

    def test_tracing_disabled_emits_nothing(self):
        with ExecutionEngine() as engine:
            results = engine.execute_many(_subset_workload(repeats=1), NOISE, shots=64, seed=11)
            assert all(result.ok for result in results)
            assert engine.tracer is None

    @requires_pool
    def test_pool_trace_stitches_worker_fragments(self, tmp_path):
        circuits = _subset_workload()
        results, events, _ = _traced_batch(tmp_path / "traces", circuits, workers=2)
        assert all(result.ok for result in results)
        _assert_slot_ledger(events, results)
        [dispatch] = [e for e in events if e.name == "dispatch"]
        assert dispatch.attrs["tasks"] == 3
        executes = [e for e in events if e.name == "execute"]
        pool_executes = [e for e in executes if e.attrs["location"] == "pool"]
        if dispatch.attrs["fallback"] is None:  # pool actually ran
            assert pool_executes
            for event in pool_executes:
                assert event.attrs["worker_pid"] != os.getpid()
                assert event.duration is not None

    @requires_pool
    def test_worker_fragments_never_reach_the_cache(self, tmp_path):
        import ast

        circuits = _subset_workload()
        cache_dir = str(tmp_path / "cache")
        with ExecutionEngine(
            cache_dir=cache_dir, trace_dir=str(tmp_path / "traces"), workers=2
        ) as engine:
            results = engine.execute_many(circuits, NOISE, shots=64, seed=11)
            assert all(result.ok for result in results)
            events = engine.tracer.trace_events()
        for result in results:
            assert "trace_fragment" not in result.metadata
        cache = PersistentResultCache(cache_dir)
        puts = [e for e in events if e.name == "cache-put"]
        assert puts
        for event in puts:
            payload = cache.get(ast.literal_eval(event.attrs["key"]))
            assert payload is not None
            metadata = getattr(payload, "metadata", None)
            assert not metadata or "trace_fragment" not in metadata

        # Untraced, every pool result still comes back with a fragment;
        # none may reach a caller or a persisted line.
        untraced_dir = str(tmp_path / "untraced")
        with ExecutionEngine(cache_dir=untraced_dir, workers=2) as engine:
            results = engine.execute_many(circuits, NOISE, shots=64, seed=11)
            assert all(result.ok for result in results)
        for result in results:
            assert "trace_fragment" not in result.metadata
        lines = [
            os.path.join(root, name)
            for root, _, names in os.walk(untraced_dir)
            for name in names
            if name.endswith(".pkl")
        ]
        assert lines
        for line in lines:
            with open(line, "rb") as handle:
                assert b"trace_fragment" not in handle.read()


class TestFaultTraceIntegrity:
    """Trace integrity when tasks fail or pool workers die."""

    @ROUTES
    def test_poison_slots_traced_once_with_fault_annotation(self, workers, tmp_path, monkeypatch):
        circuits = _subset_workload()
        poisoned = fingerprint(circuits[0])
        FakeBackend(poison={poisoned}).install(monkeypatch)
        results, events, path = _traced_batch(tmp_path / "traces", circuits, workers=workers)
        _assert_slot_ledger(events, results)
        failed = [r for r in _requests(events) if r.attrs["ok"] is False]
        assert len(failed) == 3  # the poisoned circuit and its dedup twins
        for request in failed:
            assert request.attrs["error"] == "SimulationError"
        # The poison ran once, and its one execute event says it failed.
        [execute] = [e for e in events if e.name == "execute" and e.attrs["status"] != "ok"]
        assert execute.attrs["status"] == "failed"
        assert execute.attrs["fingerprint"] == poisoned
        assert execute.attrs["error"] == "SimulationError"
        # Fault traces round-trip bit-identically too.
        _, loaded = load_trace(path)
        assert loaded == events

    @ROUTES
    def test_terminal_fault_still_persists_the_trace(self, workers, tmp_path, monkeypatch):
        from repro.simulators import ExecutionFault

        circuits = _subset_workload(repeats=1)
        FakeBackend(poison={fingerprint(circuits[0])}).install(monkeypatch)
        with ExecutionEngine(trace_dir=str(tmp_path / "traces"), workers=workers) as engine:
            with pytest.raises(ExecutionFault):
                engine.execute_many(circuits, NOISE, shots=64, seed=11, on_error="raise")
            events = engine.tracer.trace_events()
            path = engine.tracer.last_trace_path
        [root] = [e for e in events if e.parent_id is None]
        assert root.attrs["status"] == "raised"
        assert root.attrs["error"] == "SimulationError"
        _, loaded = load_trace(path)
        assert loaded == events

    @requires_pool
    def test_pool_kill_trace_integrity(self, tmp_path, monkeypatch):
        circuits = _subset_workload()
        FakeBackend(tmp_path, kill={EVERY_TASK}, kill_once=True).install(monkeypatch)
        results, events, path = _traced_batch(tmp_path / "traces", circuits, workers=2)
        assert all(result.ok for result in results)  # recovered transparently
        _assert_slot_ledger(events, results)
        [dispatch] = [e for e in events if e.name == "dispatch"]
        # The sharder heals a killed worker internally (respawn + re-dispatch),
        # so the fault surfaces on the dispatch event's respawn counter
        # rather than as a failed execute event.
        assert dispatch.attrs["respawns"] == 1
        assert all(e.attrs["status"] == "ok" for e in events if e.name == "execute")
        _, loaded = load_trace(path)
        assert loaded == events


def _ghz(width: int, num_qubits: int | None = None, offset: int = 0) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits or width, width)
    circuit.h(offset)
    for q in range(offset, offset + width - 1):
        circuit.cx(q, q + 1)
    for index in range(width):
        circuit.measure(offset + index, index)
    return circuit


class _Batches:
    """Runs traced batches on engines it builds; keeps (events, stats delta, results).

    Every batch isolates its failures.  A scenario that fails tasks
    installs a :class:`~test_faults.FakeBackend` with ``monkeypatch``, and
    one that fails prepares a :class:`~test_faults.FailingPrepare`.
    """

    def __init__(self, tmp_path, workers, monkeypatch):
        self.tmp_path = tmp_path
        self.workers = workers
        self.monkeypatch = monkeypatch
        self.engines: list[ExecutionEngine] = []
        self.batches: list[tuple] = []

    def engine(self, **kwargs) -> ExecutionEngine:
        engine = ExecutionEngine(
            workers=self.workers,
            trace_dir=str(self.tmp_path / f"traces{len(self.engines)}"),
            **kwargs,
        )
        self.engines.append(engine)
        return engine

    def run(self, engine, circuits, noise=NOISE, **kwargs):
        before = engine.stats.to_dict()
        results = engine.execute_many(circuits, noise, on_error="isolate", **kwargs)
        after = engine.stats.to_dict()
        delta = {key: after[key] - before[key] for key, value in after.items() if type(value) is int}
        self.batches.append((engine.tracer.trace_events(), delta, results))
        return results

    def close(self):
        for engine in self.engines:
            engine.close()


def _sampled(batches):
    batches.run(batches.engine(), _subset_workload(), shots=64, seed=11)


def _memory(batches):
    engine = batches.engine()
    for _ in range(2):
        batches.run(engine, _subset_workload(), shots=64, seed=11)


def _persistent(batches):
    cache_dir = str(batches.tmp_path / "cache")
    for _ in range(2):  # the second, fresh engine is served from disk
        batches.run(batches.engine(cache_dir=cache_dir), _subset_workload(), shots=64, seed=11)


def _no_memory_cache(batches):
    engine = batches.engine(cache_size=0)
    for _ in range(2):
        batches.run(engine, _subset_workload(), shots=64, seed=11)


def _unseeded(batches):
    batches.run(batches.engine(), _subset_workload(), shots=64)


def _unseeded_trajectories(batches):
    circuits = [c.compact_qubits()[0] for c in _subset_workload(repeats=2)]
    batches.run(batches.engine(), circuits, shots=64, method="trajectory", max_trajectories=20)


def _readout_sweep(batches):
    engine = batches.engine()
    for scale in (1.0, 2.0):
        batches.run(engine, _subset_workload(), NOISE.with_readout_scaled(scale), shots=64, seed=11)


def _trajectory_readout_sweep(batches):
    engine = batches.engine()
    circuits = [c.compact_qubits()[0] for c in _subset_workload(repeats=2)]
    for scale in (1.0, 2.0):
        batches.run(
            engine, circuits, NOISE.with_readout_scaled(scale), shots=64, seed=11,
            method="trajectory", max_trajectories=20,
        )


def _embeddings(batches):
    # One compact circuit on wires 0-1 and 4-5 under per-qubit readout:
    # two result keys, one readout-free run.
    noise = NoiseModel.depolarizing(
        p1=0.005, p2=0.02, readout={q: 0.01 + 0.005 * q for q in range(6)}
    )
    circuits = [_ghz(2, 6, offset) for offset in (0, 4)]
    batches.run(batches.engine(), circuits + circuits, noise, shots=64, seed=3)


def _ideal(batches):
    batches.run(batches.engine(), _subset_workload(), None)


def _poison(batches):
    circuits = _subset_workload()
    FakeBackend(poison={fingerprint(circuits[0])}).install(batches.monkeypatch)
    batches.run(batches.engine(), circuits, shots=64, seed=11)


def _kill(batches):
    # Pool route only: the first pool worker to run a task exits.
    FakeBackend(batches.tmp_path, kill={EVERY_TASK}, kill_once=True).install(batches.monkeypatch)
    batches.run(batches.engine(), _subset_workload(), shots=64, seed=11)


def _timeout(batches):
    # On the pool the slow circuit's task times out and its worker is
    # stopped; in-process nothing preempts it and it completes.
    circuits = _subset_workload()
    FakeBackend(sleep={fingerprint(circuits[0]): 2.0}).install(batches.monkeypatch)
    batches.run(batches.engine(task_timeout=1.0), circuits, shots=64, seed=11)


def _failed_prepare(batches):
    # One circuit's prepare raises, in both batches; the repeat serves the
    # healthy slots from memory.
    circuits = _subset_workload()
    FailingPrepare({fingerprint(circuits[0])}).install(batches.monkeypatch)
    engine = batches.engine()
    for _ in range(2):
        batches.run(engine, circuits, shots=64, seed=11)


SCENARIOS = {
    "sampled": _sampled,
    "memory": _memory,
    "persistent": _persistent,
    "no-memory-cache": _no_memory_cache,
    "unseeded": _unseeded,
    "unseeded-trajectories": _unseeded_trajectories,
    "readout-sweep": _readout_sweep,
    "trajectory-readout-sweep": _trajectory_readout_sweep,
    "embeddings": _embeddings,
    "ideal": _ideal,
    "poison": _poison,
    "kill": _kill,
    "timeout": _timeout,
    "failed-prepare": _failed_prepare,
}

# Pool respawns a scenario's batches take on a working pool: one for the
# killed worker, one to stop the timed-out worker.
POOL_RESPAWNS = {"kill": 1, "timeout": 1}


def _scenario_batches(name, tmp_path, monkeypatch, workers=None):
    batches = _Batches(tmp_path, workers, monkeypatch)
    try:
        SCENARIOS[name](batches)
    finally:
        batches.close()
    return batches.batches


class TestTraceAgreesWithStats:
    """The trace and ``EngineStats`` are the engine's only telemetry.

    One pipeline feeds both, so for every batch the trace's events add up
    to the change in the engine's counts: request events by tier, execute
    events by status, and dispatch events.  Each scenario runs
    serially and on a two-worker pool (which falls back in-process where
    no pool can start; the counts must agree either way), except ``kill``,
    which only a pool worker can undergo.
    """

    @pytest.mark.parametrize(
        "scenario, workers",
        [
            pytest.param(scenario, workers, id=f"{scenario}-{route}")
            for scenario in sorted(SCENARIOS)
            for workers, route in ((None, "serial"), (2, "pool"))
            if workers or scenario != "kill"
        ],
    )
    def test_batch_trace_matches_stats(self, scenario, workers, tmp_path, monkeypatch):
        batches = _scenario_batches(scenario, tmp_path, monkeypatch, workers)
        assert batches
        for events, delta, results in batches:
            _assert_slot_ledger(events, results)
            requests = _requests(events)
            tiers = collections.Counter(r.attrs["tier"] for r in requests)
            assert len(requests) == delta["requests"] == len(results)
            assert tiers["batch-dedup"] == delta["batch_dedup_hits"]
            assert tiers["memory"] + tiers["persistent"] == delta["cache_hits"]
            assert tiers["persistent"] == delta["persistent_hits"]
            assert tiers["executed"] == delta["cache_misses"]
            assert tiers["uncacheable"] == delta["uncacheable"]
            failed = sum(not r.attrs["ok"] for r in requests)
            assert failed == delta["isolated_failures"]
            assert failed == sum(isinstance(r, FailedResult) for r in results)
            # Every consumer that got a result counts as executed; those
            # served by a readout-free run they did not trigger are state
            # hits, so the rest are the successful runs.
            executes = [e for e in events if e.name == "execute"]
            ok_runs = sum(e.attrs["status"] == "ok" for e in executes)
            assert ok_runs == delta["executed"] - delta["state_cache_hits"]
            assert not any("retries" in e.attrs for e in executes)
            dispatches = [e for e in events if e.name == "dispatch"]
            assert sum(e.attrs["dispatched"] for e in dispatches) == delta["parallel_executed"]
            assert sum(e.attrs["respawns"] for e in dispatches) == delta["pool_respawns"]
        # Respawns are also checked against what the scenario did to the pool.
        respawns = sum(delta["pool_respawns"] for _, delta, _ in batches)
        expected = POOL_RESPAWNS.get(scenario, 0) if workers and POOL_AVAILABLE else 0
        assert respawns == expected

    @pytest.mark.parametrize(
        "scenario, tier, ok, stages",
        [
            ("sampled", "executed", True, {"t_prepare", "t_cache", "t_deliver"}),
            ("sampled", "batch-dedup", True, {"t_prepare", "t_deliver"}),
            ("memory", "memory", True, {"t_prepare", "t_cache", "t_deliver"}),
            ("persistent", "persistent", True, {"t_prepare", "t_cache", "t_deliver"}),
            ("unseeded", "uncacheable", True, {"t_prepare", "t_deliver"}),
            ("failed-prepare", "failed-prepare", False, {"t_prepare"}),
            ("poison", "executed", False, {"t_prepare", "t_cache"}),
            ("poison", "batch-dedup", False, {"t_prepare"}),
        ],
    )
    def test_request_events_time_the_stages_a_slot_ran(
        self, scenario, tier, ok, stages, tmp_path, monkeypatch
    ):
        """A slot is timed in prepare, in a cache lookup if it made one,
        and in delivery if it got a result; ``repro.tracing summarize``
        reads its stage lines from these timings."""
        requests = [
            request
            for events, _, _ in _scenario_batches(scenario, tmp_path, monkeypatch)
            for request in _requests(events)
            if request.attrs["tier"] == tier and request.attrs["ok"] is ok
        ]
        assert requests
        for request in requests:
            timed = {key for key in request.attrs if key.startswith("t_")}
            assert timed == stages, request.attrs
            assert all(request.attrs[key] >= 0.0 for key in timed)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "pool"])
    def test_only_a_traced_engine_reads_the_clock(self, workers, traced, tmp_path, monkeypatch):
        """Timings exist only for the trace: an untraced batch takes none."""
        import time as real_time

        from repro.simulators import engine as engine_module

        reads = []

        class Clock:
            @staticmethod
            def perf_counter():
                reads.append(None)
                return real_time.perf_counter()

        monkeypatch.setattr(engine_module, "time", Clock)
        trace_dir = str(tmp_path / "traces") if traced else None
        with ExecutionEngine(workers=workers, trace_dir=trace_dir) as engine:
            results = engine.execute_many(_subset_workload(), NOISE, shots=64, seed=11)
        assert all(result.ok for result in results)
        assert bool(reads) is traced


class TestCLI:
    def _two_traces(self, tmp_path):
        circuits = _subset_workload()
        _, _, path_a = _traced_batch(tmp_path / "a", circuits)
        _, _, path_b = _traced_batch(tmp_path / "b", circuits)
        return path_a, path_b

    def test_summarize_prints_stage_lines(self, tmp_path, capsys):
        path, _ = self._two_traces(tmp_path)
        assert cli_main(["summarize", path]) == 0
        out = capsys.readouterr().out
        for stage in ("prepare", "execute", "deliver", "total"):
            assert f"stage {stage}" in out
        assert "tier batch-dedup" in out and "tier executed" in out
        assert "faults failed_slots=0" in out

    def test_summarize_prints_the_stages_in_pipeline_order(self, tmp_path, capsys):
        # A pool batch runs every stage; summarize lists them in the order a
        # request meets them, then the batch total.
        _, _, path = _traced_batch(tmp_path / "traces", _subset_workload(repeats=1), workers=2)
        assert cli_main(["summarize", path]) == 0
        stages = re.findall(r"^stage (\S+)", capsys.readouterr().out, re.M)
        assert stages == ["prepare", "cache", "dispatch", "execute", "deliver", "total"]

    def test_summarize_counts_failed_slots(self, tmp_path, capsys, monkeypatch):
        circuits = _subset_workload()
        FakeBackend(poison={fingerprint(circuits[0])}).install(monkeypatch)
        _, _, path = _traced_batch(tmp_path / "traces", circuits)
        assert cli_main(["summarize", path]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^faults failed_slots=3$", out, re.M), out

    @requires_pool
    def test_summarize_prints_pool_locations(self, tmp_path, capsys):
        # Pool executions are recorded like in-process ones.
        circuits = _subset_workload(repeats=1)
        results, _, path = _traced_batch(tmp_path / "traces", circuits, workers=2)
        assert all(result.ok for result in results)
        assert cli_main(["summarize", path]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^stage execute +n=3 ", out, re.M), out
        assert re.search(r"^location pool +n=3$", out, re.M), out

    def test_diff_same_seeded_batches_report_zero_drift(self, tmp_path, capsys):
        path_a, path_b = self._two_traces(tmp_path)
        assert cli_main(["diff", path_a, path_b]) == 0
        out = capsys.readouterr().out
        assert "no method or hit-attribution drift" in out
        assert "stage execute" in out  # timing deltas still reported

    def test_diff_detects_method_drift(self, tmp_path, capsys):
        path_a, path_b = self._two_traces(tmp_path)
        lines = open(path_b).read().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            if record.get("name") == "request" and record["attrs"].get("slot") == 0:
                record["attrs"]["method"] = "statevector"
            doctored.append(json.dumps(record, sort_keys=True))
        forged = tmp_path / "b" / "trace-forged.jsonl"
        forged.write_text("\n".join(doctored) + "\n")
        assert cli_main(["diff", path_a, str(forged)]) == 1
        out = capsys.readouterr().out
        assert "drift slot=0 field=method" in out

    def test_replay_verifies_digests(self, tmp_path, capsys):
        circuits = _subset_workload()
        cache_dir = str(tmp_path / "cache")
        _, _, path = _traced_batch(tmp_path / "traces", circuits, cache_dir=cache_dir)
        assert cli_main(["replay", path, "--cache-dir", cache_dir, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "mismatched=0" in out and "missing=0" in out

    def test_replay_flags_digest_mismatch(self, tmp_path, capsys):
        circuits = _subset_workload(repeats=1)
        cache_dir = str(tmp_path / "cache")
        _, _, path = _traced_batch(tmp_path / "traces", circuits, cache_dir=cache_dir)
        lines = open(path).read().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            if record.get("name") == "cache-put":
                record["attrs"]["digest"] = "0" * 16
            doctored.append(json.dumps(record, sort_keys=True))
        forged = tmp_path / "traces" / "trace-forged.jsonl"
        forged.write_text("\n".join(doctored) + "\n")
        assert cli_main(["replay", str(forged), "--cache-dir", cache_dir]) == 1
        assert "mismatch" in capsys.readouterr().out

    def test_replay_strict_flags_missing_entries(self, tmp_path, capsys):
        circuits = _subset_workload(repeats=1)
        cache_dir = str(tmp_path / "cache")
        _, _, path = _traced_batch(tmp_path / "traces", circuits, cache_dir=cache_dir)
        empty = str(tmp_path / "empty-cache")
        assert cli_main(["replay", path, "--cache-dir", empty]) == 0  # lenient default
        capsys.readouterr()
        assert cli_main(["replay", path, "--cache-dir", empty, "--strict"]) == 1
        assert "missing" in capsys.readouterr().out

    def test_list_prints_traces_oldest_first(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        circuits = _subset_workload(repeats=1)
        _, _, first = _traced_batch(trace_dir, circuits)
        _, _, second = _traced_batch(trace_dir, circuits)
        os.utime(second, (2_000_000_000, 2_000_000_000))
        assert cli_main(["list", str(trace_dir)]) == 0
        assert capsys.readouterr().out.splitlines() == [first, second]


class TestQuTracerSpans:
    def test_mitigation_run_nests_engine_batches(self, tmp_path):
        from repro.core import QuTracer

        circuit = QuantumCircuit(3, 3)
        circuit.h(0).cx(0, 1).cx(1, 2)
        for q in range(3):
            circuit.rz(0.1 * (q + 1), q)
        circuit.measure_all()
        engine = ExecutionEngine(trace_dir=str(tmp_path / "traces"))
        tracer = QuTracer(
            noise_model=NOISE, shots=2000, shots_per_circuit=200, seed=1, engine=engine
        )
        with tracer:
            tracer.run(circuit, subset_size=1)
        events = engine.tracer.trace_events()
        names = {event.name for event in events}
        assert {"qutracer.run", "qutracer.global", "qutracer.subset", "qutracer.update"} <= names
        # The whole mitigation run is ONE trace: engine batches nest
        # inside the qutracer.run root rather than starting new traces.
        roots = [e for e in events if e.parent_id is None]
        assert len(roots) == 1 and roots[0].name == "qutracer.run"
        assert [e.name for e in events if e.name == "engine.execute_many"]
        subset_spans = [e for e in events if e.name == "qutracer.subset"]
        assert len(subset_spans) == 3  # one per traced subset
