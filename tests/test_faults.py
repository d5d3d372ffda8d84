"""Chaos suite for the fault-tolerant execution layer.

The acceptance contract of ``on_error="isolate"`` is *containment with
bit-identity*: under any injected fault schedule, every slot whose circuit
did not fail must return exactly the result a fault-free run produces, and
every failed slot must carry a structured :class:`ExecutionFault` naming the
circuit, method and stage.  These tests drive the
:class:`~repro.simulators.faults.FaultInjector` through every directive kind
— transient faults, sticky poison, worker kills, injected latency, cache
corruption and cache write failures — and pin the engine's recovery
semantics (retry accounting, the pool and cache degradation ladders,
failure dedup, pool respawn) plus the determinism of the retry schedule.

Ordinal semantics matter throughout: fault directives name the Nth
*executed* task in dispatch order — cache hits and batch-dedup duplicates do
not consume ordinals — so a schedule replays bit-identically regardless of
how much of the batch was served from cache.

This module is intentionally run *serially* in CI (outside xdist): the
worker-kill and timeout tests own a process pool whose crash/respawn timing
must not compete with sibling test processes for cores.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.mitigation import build_subset_circuit
from repro.noise import NoiseModel
from repro.simulators import (
    CacheCorruptionError,
    EngineInvariantError,
    ExecutionEngine,
    ExecutionFault,
    FailedResult,
    FaultInjector,
    PersistentResultCache,
    RetryPolicy,
    SimulationError,
    TaskTimeoutError,
    TranspilationError,
    TransientSimulationError,
    WorkerCrashError,
)
from repro.simulators.faults import (
    TaskFailureMarker,
    apply_injected_directive,
    fault_from_marker,
    marker_from_exception,
)
from test_parallel import requires_pool

NOISE = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)

# A retry policy that never sleeps: chaos tests exercise the *logic* of the
# recovery loop, not its pacing (the backoff arithmetic is pinned separately
# in TestRetryPolicy).
FAST_RETRY = RetryPolicy(base_delay=0.0, jitter=0.0)


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


def _results_identical(a, b) -> bool:
    return (
        a.distribution.items() == b.distribution.items()
        and a.measured_qubits == b.measured_qubits
        and a.method == b.method
        and a.shots == b.shots
        and (a.counts is None) == (b.counts is None)
        and (a.counts is None or a.counts.items() == b.counts.items())
    )


def _run_batch(circuits, *, injector=None, workers=None, on_error="isolate", **engine_kwargs):
    """One batch through a fresh engine with an optional fault schedule."""
    engine_kwargs.setdefault("retry_policy", FAST_RETRY)
    with ExecutionEngine(workers=workers, **engine_kwargs) as engine:
        if injector is not None:
            engine.install_fault_injector(injector)
        results = engine.execute_many(circuits, NOISE, shots=64, seed=11, on_error=on_error)
        return results, engine.stats


# Fault-free reference results for the shared workload, computed once.
_REFERENCE_CACHE: dict = {}


def _reference():
    if "results" not in _REFERENCE_CACHE:
        _REFERENCE_CACHE["results"], _ = _run_batch(_subset_workload())
    return _REFERENCE_CACHE["results"]


class TestTaxonomy:
    def test_context_fields_and_str(self):
        fault = SimulationError(
            "backend blew up", fingerprint="abcdef0123456789", method="trajectory",
            stage="simulate",
        )
        assert fault.fingerprint == "abcdef0123456789"
        assert fault.method == "trajectory"
        assert fault.stage == "simulate"
        text = str(fault)
        assert "backend blew up" in text
        assert "stage=simulate" in text
        assert "method=trajectory" in text
        assert "abcdef012345" in text  # truncated fingerprint

    def test_legacy_base_classes(self):
        # Pre-taxonomy call sites catch RuntimeError / TimeoutError; the
        # structured classes must keep matching those handlers.
        assert issubclass(SimulationError, RuntimeError)
        assert issubclass(TranspilationError, RuntimeError)
        assert issubclass(WorkerCrashError, RuntimeError)
        assert issubclass(EngineInvariantError, RuntimeError)
        assert issubclass(TaskTimeoutError, TimeoutError)
        # Classification subtree used by RetryPolicy.
        assert issubclass(TransientSimulationError, SimulationError)

    @pytest.mark.parametrize(
        "cls", [SimulationError, TransientSimulationError, TranspilationError,
                WorkerCrashError, TaskTimeoutError, CacheCorruptionError],
    )
    def test_pickling_preserves_context(self, cls):
        # Exceptions pickle through (cls, args) by default, which would drop
        # the keyword-only context crossing a process boundary.
        fault = cls("boom", fingerprint="fp", method="trajectory", stage="dispatch")
        clone = pickle.loads(pickle.dumps(fault))
        assert type(clone) is cls
        assert clone.args == fault.args
        assert clone.fingerprint == "fp"
        assert clone.method == "trajectory"
        assert clone.stage == "dispatch"

    def test_engine_invariant_error_names_lost_work(self):
        fault = EngineInvariantError(
            "a request was dispatched without a result",
            undelivered=[("key", 1), "fingerprint"],
            stage="deliver",
        )
        assert fault.undelivered == [("key", 1), "fingerprint"]
        clone = pickle.loads(pickle.dumps(fault))
        assert clone.undelivered == fault.undelivered

    def test_marker_roundtrip(self):
        fault = TransientSimulationError(
            "flaky", fingerprint="fp", method="trajectory", stage="simulate"
        )
        marker = marker_from_exception(fault, fingerprint="outer", method="outer")
        rebuilt = fault_from_marker(marker)
        assert type(rebuilt) is TransientSimulationError
        assert rebuilt.fingerprint == "fp"  # the fault's own context wins
        assert rebuilt.method == "trajectory"

    def test_marker_flattens_foreign_exceptions(self):
        marker = marker_from_exception(
            ValueError("bad amplitude"), fingerprint="fp", method="statevector"
        )
        rebuilt = fault_from_marker(marker)
        assert type(rebuilt) is SimulationError
        assert "ValueError: bad amplitude" in str(rebuilt)
        assert rebuilt.fingerprint == "fp"

    def test_marker_unknown_kind_degrades_to_simulation_error(self):
        marker = TaskFailureMarker(kind="FutureFaultClass", message="??")
        assert type(fault_from_marker(marker)) is SimulationError


class TestRetryPolicy:
    def test_schedule_is_deterministic_per_seed(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.01, backoff=2.0, jitter=0.5)
        schedule_a = [policy.delay(k, seed=42) for k in range(1, 5)]
        schedule_b = [policy.delay(k, seed=42) for k in range(1, 5)]
        assert schedule_a == schedule_b  # exact replay under a fixed seed

    def test_distinct_seeds_decorrelate(self):
        policy = RetryPolicy(base_delay=0.01, jitter=0.5)
        assert [policy.delay(k, seed=1) for k in (1, 2)] != [
            policy.delay(k, seed=2) for k in (1, 2)
        ]

    def test_backoff_arithmetic_without_jitter(self):
        policy = RetryPolicy(base_delay=0.02, backoff=2.0, max_delay=0.05, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.02)
        assert policy.delay(2) == pytest.approx(0.04)
        assert policy.delay(3) == pytest.approx(0.05)  # capped

    def test_jitter_is_bounded(self):
        policy = RetryPolicy(base_delay=0.02, backoff=2.0, max_delay=1.0, jitter=0.25)
        for attempt in range(1, 6):
            base = min(0.02 * 2.0 ** (attempt - 1), 1.0)
            delay = policy.delay(attempt, seed=7)
            assert base <= delay <= base * 1.25

    def test_retryable_filter(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientSimulationError("x"))
        assert policy.is_retryable(WorkerCrashError("x"))
        assert not policy.is_retryable(SimulationError("x"))  # poison fails once
        assert not policy.is_retryable(TaskTimeoutError("x"))

    def test_none_policy_and_validation(self):
        assert RetryPolicy.none().max_attempts == 1
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay(0)


class TestFaultInjector:
    def test_directives_are_consumed_by_ordinal(self):
        injector = FaultInjector(fail_tasks={1}, latency={2: 0.5}, kill_tasks={3})
        assert injector.take_directive("a") is None
        assert injector.take_directive("b") == ("fail", None)
        assert injector.take_directive("c") == ("latency", 0.5)
        assert injector.take_directive("d") == ("kill", None)
        assert injector.take_directive("e") is None
        assert injector.tasks_dispatched == 5
        assert injector.faults_injected == 3

    def test_poison_is_sticky_by_fingerprint(self):
        injector = FaultInjector(poison_tasks={0})
        assert injector.take_directive("fp") == ("poison", None)
        # A retry on the poisoned circuit re-fires without a fresh ordinal...
        assert injector.retry_directive("fp") == ("poison", None)
        # ...and so does any later dispatch of the same fingerprint.
        assert injector.take_directive("fp") == ("poison", None)
        # Other circuits are unaffected; transient faults never re-fire.
        assert injector.retry_directive("other") is None

    def test_cache_hooks_count_ordinals(self):
        injector = FaultInjector(corrupt_reads={1}, fail_writes={0})
        assert injector.on_cache_read() is False
        assert injector.on_cache_read() is True
        assert injector.on_cache_write() is True
        assert injector.on_cache_write() is False
        assert injector.cache_reads == 2 and injector.cache_writes == 2

    def test_corrupt_file_flips_one_byte(self, tmp_path):
        path = tmp_path / "entry.pkl"
        path.write_bytes(b"0123456789")
        FaultInjector.corrupt_file(str(path))
        data = path.read_bytes()
        assert len(data) == 10
        assert sum(a != b for a, b in zip(data, b"0123456789")) == 1

    def test_apply_directive_raises_the_right_taxonomy(self):
        with pytest.raises(TransientSimulationError):
            apply_injected_directive(("fail", None), fingerprint="fp")
        with pytest.raises(SimulationError):
            apply_injected_directive(("poison", None))
        with pytest.raises(WorkerCrashError):
            # In-process, a kill raises instead of taking the parent down.
            apply_injected_directive(("kill", None), in_worker=False)
        with pytest.raises(ValueError, match="unknown fault directive"):
            apply_injected_directive(("warp", None))
        start = time.perf_counter()
        apply_injected_directive(("latency", 0.01))  # sleeps, then no-op
        assert time.perf_counter() - start >= 0.01
        apply_injected_directive(None)  # healthy tasks carry no directive


class TestSerialChaos:
    def test_transient_fault_is_retried_to_bit_identity(self):
        results, stats = _run_batch(_subset_workload(), injector=FaultInjector(fail_tasks={0}))
        assert stats.retries == 1
        assert stats.isolated_failures == 0
        assert all(r.ok for r in results)
        assert all(_results_identical(a, b) for a, b in zip(results, _reference()))

    def test_worker_crash_inprocess_is_retried(self):
        # The in-process path converts a kill directive to WorkerCrashError,
        # which the default retryable set re-attempts.
        results, stats = _run_batch(_subset_workload(), injector=FaultInjector(kill_tasks={0}))
        assert stats.retries == 1
        assert all(_results_identical(a, b) for a, b in zip(results, _reference()))

    def test_retry_exhaustion_reports_attempts(self):
        # Ordinal 0 fires fresh; the sticky-poison-only retry path never
        # re-fires a transient, so exhaustion needs max_attempts=1.
        injector = FaultInjector(fail_tasks={0})
        results, stats = _run_batch(
            _subset_workload(), injector=injector, retry_policy=RetryPolicy.none()
        )
        failed = [r for r in results if not r.ok]
        assert len(failed) == 3  # every duplicate of the poisoned circuit
        assert all(isinstance(f.error, TransientSimulationError) for f in failed)
        assert all(f.attempts == 1 for f in failed)
        assert stats.retries == 0

    def test_poison_isolation_dedups_the_failure(self):
        circuits = _subset_workload()  # 3 unique x 3 repeats
        results, stats = _run_batch(circuits, injector=FaultInjector(poison_tasks={0}))
        failed = [(i, r) for i, r in enumerate(results) if not r.ok]
        # Slots 0-2 are the three occurrences of the first unique circuit
        # (the workload repeats contiguously).
        assert [i for i, _ in failed] == [0, 1, 2]
        assert stats.isolated_failures == 3
        # ...but the poison executed once: the duplicates were failed from
        # the batch-level failure table, not re-run.
        assert all(isinstance(r.error, SimulationError) for _, r in failed)
        assert all(r.stage == "simulate" for _, r in failed)
        assert all(r.fingerprint for _, r in failed)
        # Healthy slots are bit-identical to the fault-free run.
        for i, result in enumerate(results):
            if result.ok:
                assert _results_identical(result, _reference()[i])

    def test_ordinals_name_executions_not_slots(self):
        unique = _subset_workload(repeats=1)
        circuits = [unique[0], unique[0], unique[1]]  # slot 2 is execution 1
        results, _ = _run_batch(circuits, injector=FaultInjector(poison_tasks={1}))
        assert results[0].ok and results[1].ok
        assert not results[2].ok

    def test_raise_mode_aborts_with_the_structured_fault(self):
        with pytest.raises(SimulationError) as excinfo:
            _run_batch(
                _subset_workload(), injector=FaultInjector(poison_tasks={0}), on_error="raise"
            )
        assert excinfo.value.fingerprint
        assert excinfo.value.stage == "simulate"

    def test_isolate_wraps_foreign_exceptions(self):
        # statevector + noise raises a bare ValueError deep in the backend;
        # isolate mode converts it into a structured slot failure with the
        # original exception chained as the cause.
        circuit = _subset_workload(repeats=1)[0]
        with ExecutionEngine() as engine:
            [result] = engine.execute_many(
                [circuit], NOISE, shots=64, seed=11, method="statevector", on_error="isolate"
            )
        assert not result.ok
        assert isinstance(result.error, SimulationError)
        assert isinstance(result.error.__cause__, ValueError)
        # The historical contract is untouched in raise mode.
        with ExecutionEngine() as engine, pytest.raises(ValueError):
            engine.execute_many([circuit], NOISE, shots=64, seed=11, method="statevector")

    def test_on_error_validation_always_raises(self):
        with pytest.raises(ValueError, match="on_error"):
            ExecutionEngine(on_error="retry")
        with ExecutionEngine() as engine:
            with pytest.raises(ValueError, match="on_error"):
                engine.execute_many(_subset_workload(repeats=1), NOISE, on_error="ignore")
            # Batch-wide argument errors doom the call even when isolating.
            with pytest.raises(ValueError, match="unknown method"):
                engine.execute_many(
                    _subset_workload(repeats=1), NOISE, method="warp", on_error="isolate"
                )
            with pytest.raises(ValueError, match="shots"):
                engine.execute_many(
                    _subset_workload(repeats=1), NOISE, shots=0, on_error="isolate"
                )

    def test_failed_result_surface(self):
        results, _ = _run_batch(
            _subset_workload(repeats=1), injector=FaultInjector(poison_tasks={0})
        )
        failed = results[0]
        assert isinstance(failed, FailedResult)
        assert failed.ok is False
        with pytest.raises(SimulationError):
            failed.raise_error()

    def test_check_delivered_raises_engine_invariant_error(self):
        with ExecutionEngine() as engine:
            [result] = engine.execute_many(_subset_workload(repeats=1)[:1], NOISE, seed=1)
            assert result.ok
            prepared = engine._prepare(
                _subset_workload(repeats=1)[0], NOISE, None, 1, "auto",
                engine.max_trajectories, None,
            )
            with pytest.raises(EngineInvariantError) as excinfo:
                engine._check_delivered([None], [prepared])
            assert excinfo.value.undelivered == [prepared.key]
            assert excinfo.value.stage == "deliver"


class TestChaosProperty:
    """Any injected fault schedule isolates cleanly — hypothesis-driven."""

    @settings(max_examples=20, deadline=None)
    @given(
        fail=st.sets(st.integers(min_value=0, max_value=3), max_size=2),
        poison=st.sets(st.integers(min_value=0, max_value=3), max_size=2),
    )
    def test_healthy_slots_are_bit_identical_under_any_schedule(self, fail, poison):
        circuits = _subset_workload()  # 3 unique x 3 repeats
        reference = _reference()
        results, stats = _run_batch(
            circuits,
            injector=FaultInjector(fail_tasks=fail, poison_tasks=poison),
        )
        assert len(results) == len(circuits)
        for result, expected in zip(results, reference):
            if result.ok:
                assert _results_identical(result, expected)
            else:
                assert isinstance(result.error, ExecutionFault)
                assert result.fingerprint
        assert stats.isolated_failures == sum(1 for r in results if not r.ok)
        # Replay: the same schedule fails the same slots with the same faults.
        replay, _ = _run_batch(
            circuits,
            injector=FaultInjector(fail_tasks=fail, poison_tasks=poison),
        )
        assert [r.ok for r in replay] == [r.ok for r in results]
        for a, b in zip(replay, results):
            if not a.ok:
                assert type(a.error) is type(b.error)


class TestParallelChaos:
    def test_parallel_poison_isolation_matches_serial(self):
        circuits = _subset_workload()
        parallel, stats = _run_batch(
            circuits, injector=FaultInjector(poison_tasks={0}), workers=2
        )
        assert [i for i, r in enumerate(parallel) if not r.ok] == [0, 1, 2]
        assert stats.isolated_failures == 3
        for i, result in enumerate(parallel):
            if result.ok:
                assert _results_identical(result, _reference()[i])

    @requires_pool
    def test_worker_kill_is_respawned_and_retried(self):
        circuits = _subset_workload()
        with ExecutionEngine(workers=2, retry_policy=FAST_RETRY) as engine:
            engine.install_fault_injector(FaultInjector(kill_tasks={0}))
            results = engine.execute_many(
                circuits, NOISE, shots=64, seed=11, on_error="isolate"
            )
            # The kill directive dies with the worker; the requeued task runs
            # clean, so every slot completes and the crash shows up only in
            # the respawn/fallback telemetry.
            assert all(r.ok for r in results)
            assert engine.stats.pool_respawns >= 1
        assert all(_results_identical(a, b) for a, b in zip(results, _reference()))

    @requires_pool
    def test_task_timeout_fails_only_the_slow_slot(self):
        circuits = _subset_workload(repeats=1)
        with ExecutionEngine(workers=2, retry_policy=FAST_RETRY, task_timeout=1.0) as engine:
            engine.install_fault_injector(FaultInjector(latency={0: 30.0}))
            results = engine.execute_many(
                circuits, NOISE, shots=64, seed=11, on_error="isolate"
            )
        failed = [r for r in results if not r.ok]
        assert len(failed) == 1
        assert isinstance(failed[0].error, TaskTimeoutError)
        healthy = [r for r in results if r.ok]
        assert len(healthy) == len(circuits) - 1

    @requires_pool
    def test_timeout_raise_mode(self):
        circuits = _subset_workload(repeats=1)
        with ExecutionEngine(workers=2, retry_policy=FAST_RETRY, task_timeout=1.0) as engine:
            engine.install_fault_injector(FaultInjector(latency={0: 30.0}))
            with pytest.raises(TaskTimeoutError):
                engine.execute_many(circuits, NOISE, shots=64, seed=11, on_error="raise")

    @requires_pool
    def test_timed_out_worker_is_stopped_with_its_pool(self):
        # The stuck worker sleeps 30 s; recycling the pool must stop it, not
        # leave it for the interpreter's exit hook to join.
        circuits = _subset_workload(repeats=1)
        before = set(multiprocessing.active_children())
        with ExecutionEngine(workers=2, retry_policy=FAST_RETRY, task_timeout=1.0) as engine:
            engine.install_fault_injector(FaultInjector(latency={0: 30.0}))
            engine.execute_many(circuits, NOISE, shots=64, seed=11, on_error="isolate")
            assert engine.stats.pool_respawns >= 1
        deadline = time.monotonic() + 5.0
        while set(multiprocessing.active_children()) - before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert set(multiprocessing.active_children()) - before == set()


def _basis_copies() -> list[QuantumCircuit]:
    """Z, X and Y measurement-basis copies of one density-matrix body."""
    copies = []
    for basis in ("Z", "X", "Y"):
        qc = QuantumCircuit(3, 2)
        qc.h(0).cx(0, 1).rz(0.4, 1).cx(1, 2)
        for q in (0, 1):
            if basis == "Y":
                qc.sdg(q)
            if basis != "Z":
                qc.h(q)
        copies.append(qc.measure_subset([0, 1]))
    return copies


class TestSharedBodyChaos:
    """Body-mates share one body evolution, never one another's faults."""

    @pytest.mark.parametrize(
        "route", [{}, {"workers": 2, "chunk_size": 3}], ids=["serial", "one-chunk"]
    )
    @pytest.mark.parametrize("ordinal", [0, 1])
    def test_poisoned_body_mate_fails_only_its_own_slots(self, route, ordinal):
        copies = _basis_copies()
        circuits = [copies[0], copies[1], copies[1], copies[2]]  # tasks 0, 1, 2
        reference, _ = _run_batch(circuits)
        results, stats = _run_batch(
            circuits, injector=FaultInjector(poison_tasks={ordinal}), **route
        )
        # Ordinal 0 fails before the body ever evolved, so the next mate
        # evolves it itself; ordinal 1 fails after task 0 stored it.
        failed = [0] if ordinal == 0 else [1, 2]
        assert [i for i, r in enumerate(results) if not r.ok] == failed
        assert stats.isolated_failures == len(failed)
        for i, result in enumerate(results):
            if result.ok:
                assert _results_identical(result, reference[i])


class TestCacheChaos:
    def test_corrupt_read_is_quarantined(self, tmp_path):
        cache = PersistentResultCache(tmp_path)
        cache.put(("k",), "value")
        cache.fault_injector = FaultInjector(corrupt_reads={0})
        assert cache.get(("k",)) is None  # corrupt -> miss
        assert cache.corrupt_entries == 1
        import os

        assert len(os.listdir(cache.quarantine_dir)) == 1  # kept for post-mortem
        stats = cache.stats()
        assert stats["corrupt_entries"] == 1 and stats["disabled"] is False
        cache.fault_injector = None
        cache.put(("k",), "value2")  # the slot heals
        assert cache.get(("k",)) == "value2"

    def test_mid_payload_bit_rot_is_detected(self, tmp_path):
        # Regression: a flipped byte deep inside a large pickled payload can
        # still unpickle cleanly — into silently wrong data.  The entry
        # checksum must catch it; before v4 this was served as a valid hit.
        cache = PersistentResultCache(tmp_path)
        cache.put(("k",), b"\x00" * 4096)
        [(path, _, _)] = list(cache._entries())
        FaultInjector.corrupt_file(path)  # flips the byte at len(data)//2
        assert cache.get(("k",)) is None
        assert cache.corrupt_entries == 1

    def test_repeated_write_failures_degrade_to_memory_only(self, tmp_path):
        from repro.simulators.cache import MAX_CONSECUTIVE_WRITE_FAILURES

        cache = PersistentResultCache(tmp_path)
        cache.fault_injector = FaultInjector(
            fail_writes=range(MAX_CONSECUTIVE_WRITE_FAILURES)
        )
        for index in range(MAX_CONSECUTIVE_WRITE_FAILURES):
            cache.put((index,), index)  # swallowed, counted
        assert cache.write_errors == MAX_CONSECUTIVE_WRITE_FAILURES
        assert cache.disabled is True
        # Memory-only rung: the disk layer is out of the loop entirely.
        cache.fault_injector = None
        cache.put(("after",), 1)
        assert cache.get(("after",)) is None
        assert cache.stats()["disabled"] is True

    def test_one_write_failure_does_not_disable(self, tmp_path):
        cache = PersistentResultCache(tmp_path)
        cache.fault_injector = FaultInjector(fail_writes={0})
        cache.put(("a",), 1)
        cache.put(("b",), 2)  # success resets the consecutive counter
        assert cache.disabled is False
        assert cache.get(("b",)) == 2

    def test_engine_wires_injector_into_persistent_cache(self, tmp_path):
        injector = FaultInjector(corrupt_reads={0})
        with ExecutionEngine(cache_dir=str(tmp_path)) as engine:
            engine.install_fault_injector(injector)
            assert engine._persistent.fault_injector is injector
            circuit = _subset_workload(repeats=1)[0]
            engine.execute_many([circuit], NOISE, shots=64, seed=11)
        # The warm engine's first disk read hits the corrupted entry,
        # quarantines it, recomputes and re-publishes.  Fresh injector:
        # read ordinals are per-injector, and the cold run's own misses
        # already consumed ordinal 0 above.
        with ExecutionEngine(cache_dir=str(tmp_path)) as warm:
            warm.install_fault_injector(FaultInjector(corrupt_reads={0}))
            [result] = warm.execute_many([circuit], NOISE, shots=64, seed=11)
            assert result.ok
            assert warm.stats.executed >= 1  # recomputed, not served corrupt
            assert warm._persistent.corrupt_entries >= 1


class TestModuleLevelSurface:
    def test_execute_many_passes_through_isolation(self):
        circuits = _subset_workload(repeats=1)
        results = ExecutionEngine().execute_many(
            circuits, NOISE, shots=64, seed=11, method="statevector", on_error="isolate"
        )
        assert all(not r.ok for r in results)  # statevector cannot apply noise
        assert all(isinstance(r.error, SimulationError) for r in results)
