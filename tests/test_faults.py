"""Fault handling of the execution engine, driven through a test fake.

The acceptance contract of ``on_error="isolate"`` is *containment with
bit-identity*: every slot whose circuit did not fail must return exactly
the result a fault-free run produces, and every failed slot must carry a
structured :class:`ExecutionFault` naming the circuit, method and stage.
A task runs once: a failed task fails once, and the only work that runs
again is a task whose pool worker died.

The faults come from :class:`FakeBackend`, which stands in for
``run_compact_task`` in ``repro.simulators.engine`` and
``repro.simulators.parallel``; pool workers forked after it is installed
inherit it.  It poisons, slows down or kills the worker of chosen
circuits, by fingerprint, and runs the real ``run_compact_task`` for every
other task.  :class:`FailingPrepare` makes a chosen circuit fail before
any task exists, in the engine's prepare step.  The persistent cache's
faults are real ones: corrupt bytes written into an entry file, and a
stand-in ``os`` whose publish step fails like a full disk.

This module is intentionally run *serially* in CI (outside xdist): the
worker-kill and timeout tests own a process pool whose crash/respawn timing
must not compete with sibling test processes for cores.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit, circuit_fingerprint
from repro.mitigation import build_subset_circuit
from repro.noise import NoiseModel
from repro.simulators import (
    EngineInvariantError,
    ExecutionEngine,
    ExecutionFault,
    FailedResult,
    PersistentResultCache,
    SimulationError,
    TaskTimeoutError,
)
from repro.simulators import cache as cache_module
from repro.simulators import engine as engine_module
from repro.simulators import parallel as parallel_module
from repro.simulators.faults import (
    TaskFailureMarker,
    fault_annotation,
    fault_from_marker,
    marker_from_exception,
)
from test_parallel import requires_pool

NOISE = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)

ROUTES = pytest.mark.parametrize("workers", [None, 2], ids=["serial", "pool"])

# A fake selector matching every task.
EVERY_TASK = "*"

_REAL_RUN = parallel_module.run_compact_task
_REAL_RESOLVE = engine_module.resolve_method


class FakeBackend:
    """A stand-in for ``run_compact_task`` that fails chosen tasks.

    :meth:`install` puts it in place of ``run_compact_task`` in the engine
    (the in-process route) and in the sharder's module (its worker loop and
    in-process rungs).  Tasks are chosen by circuit fingerprint, or all of
    them with :data:`EVERY_TASK`:

    * ``poison``: raise :class:`SimulationError`, as a backend that fails
      deterministically on that circuit would;
    * ``kill``: the pool worker running the task exits (in the parent
      process the task runs normally); with ``kill_once`` only the first
      such exit happens, across all processes;
    * ``sleep``: ``{fingerprint: seconds}`` to sleep first (before a kill
      too).

    A task it does not fail runs the real ``run_compact_task``.  With
    ``log_dir`` every call appends its fingerprint to a file there, so a
    test can count the runs made in any process.
    """

    def __init__(self, log_dir=None, *, poison=(), kill=(), kill_once=False, sleep=None):
        self.poison = frozenset(poison)
        self.kill = frozenset(kill)
        self.sleep = dict(sleep or {})
        self.log = None if log_dir is None else os.path.join(log_dir, "runs.log")
        self.kill_token = os.path.join(log_dir, "killed") if kill_once else None
        self.parent = os.getpid()

    def __call__(self, task, memo=None):
        fingerprint = task.fingerprint
        if self.log is not None:
            with open(self.log, "a") as handle:
                handle.write(fingerprint + "\n")
        delay = self.sleep.get(fingerprint, self.sleep.get(EVERY_TASK, 0.0))
        if delay:
            time.sleep(delay)
        if os.getpid() != self.parent and self._chosen(self.kill, fingerprint):
            if self._claim_kill():
                os._exit(86)
        if self._chosen(self.poison, fingerprint):
            raise SimulationError(
                "poison circuit", fingerprint=fingerprint, method=task.method, stage="simulate"
            )
        return _REAL_RUN(task, memo)

    @staticmethod
    def _chosen(selected, fingerprint) -> bool:
        return EVERY_TASK in selected or fingerprint in selected

    def _claim_kill(self) -> bool:
        if self.kill_token is None:
            return True
        try:
            os.close(os.open(self.kill_token, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return False
        return True

    def runs(self) -> list[str]:
        """Fingerprints of every call so far, in any process."""
        if not os.path.exists(self.log):
            return []
        with open(self.log) as handle:
            return handle.read().split()

    def install(self, monkeypatch) -> "FakeBackend":
        monkeypatch.setattr(parallel_module, "run_compact_task", self)
        monkeypatch.setattr(engine_module, "run_compact_task", self)
        return self


class PrepareError(Exception):
    """What :class:`FailingPrepare` raises: no taxonomy class, on purpose."""


class FailingPrepare:
    """A stand-in for the engine's ``resolve_method`` that fails chosen circuits.

    The engine resolves each request's method while preparing it, so a
    chosen circuit (by the fingerprint of its compacted form, as
    :func:`fingerprint` gives it) raises :class:`PrepareError` in prepare,
    before any task exists.  Every other circuit resolves as usual.
    """

    def __init__(self, fingerprints) -> None:
        self.fingerprints = frozenset(fingerprints)

    def __call__(self, method, circuit, noise, density_matrix_threshold):
        if circuit_fingerprint(circuit) in self.fingerprints:
            raise PrepareError("cannot prepare this circuit")
        return _REAL_RESOLVE(method, circuit, noise, density_matrix_threshold)

    def install(self, monkeypatch) -> "FailingPrepare":
        monkeypatch.setattr(engine_module, "resolve_method", self)
        return self


class FullDisk:
    """Stands in for the cache module's ``os``: the first ``failures``
    publishes (``os.replace``) fail as on a full disk, the rest succeed."""

    def __init__(self, failures: int | None = None) -> None:
        self.failures = failures

    def __getattr__(self, name):
        return getattr(os, name)

    def replace(self, source, destination):
        if self.failures is None or self.failures > 0:
            if self.failures is not None:
                self.failures -= 1
            raise OSError(errno.ENOSPC, "No space left on device")
        os.replace(source, destination)


def fingerprint(circuit: QuantumCircuit) -> str:
    """The fingerprint the engine gives ``circuit``'s task."""
    return circuit_fingerprint(circuit.compact_qubits()[0])


def flip_byte(path, offset: int | None = None) -> None:
    """Corrupt ``path`` in place: invert one byte, by default the middle one."""
    data = bytearray(open(path, "rb").read())
    position = len(data) // 2 if offset is None else offset
    data[position] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(data))


def _entry_files(cache_dir) -> list[str]:
    return sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(cache_dir)
        for name in names
        if name.endswith(".pkl") and "quarantine" not in root
    )


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


def _distinct_circuits(count: int) -> list[QuantumCircuit]:
    """``count`` three-qubit circuits that differ in one rotation angle."""
    circuits = []
    for index in range(count):
        circuit = QuantumCircuit(3, 3)
        circuit.h(0).rz(0.1 * (index + 1), 0).cx(0, 1).cx(1, 2)
        circuits.append(circuit.measure_all())
    return circuits


def _results_identical(a, b) -> bool:
    return (
        a.distribution.items() == b.distribution.items()
        and a.measured_qubits == b.measured_qubits
        and a.method == b.method
        and a.shots == b.shots
        and (a.counts is None) == (b.counts is None)
        and (a.counts is None or a.counts.items() == b.counts.items())
    )


def _run_batch(circuits, *, workers=None, on_error="isolate", **engine_kwargs):
    """One batch through a fresh engine; returns (results, stats)."""
    with ExecutionEngine(workers=workers, **engine_kwargs) as engine:
        results = engine.execute_many(circuits, NOISE, shots=64, seed=11, on_error=on_error)
        return results, engine.stats


# Fault-free serial results for the shared workload, computed once.
_REFERENCE_CACHE: dict = {}


def _reference():
    if "results" not in _REFERENCE_CACHE:
        # The real backend, even when a test installed a fake before asking.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel_module, "run_compact_task", _REAL_RUN)
            patch.setattr(engine_module, "run_compact_task", _REAL_RUN)
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
        assert issubclass(EngineInvariantError, RuntimeError)
        assert issubclass(TaskTimeoutError, TimeoutError)

    @pytest.mark.parametrize(
        "cls", [ExecutionFault, SimulationError, TaskTimeoutError, EngineInvariantError]
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
        fault = TaskTimeoutError("slow", fingerprint="fp", method="trajectory", stage="dispatch")
        marker = marker_from_exception(fault, fingerprint="outer", method="outer")
        rebuilt = fault_from_marker(marker)
        assert type(rebuilt) is TaskTimeoutError
        assert rebuilt.fingerprint == "fp"  # the fault's own context wins
        assert rebuilt.method == "trajectory"
        assert rebuilt.stage == "dispatch"

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

    def test_fault_annotation_names_class_stage_and_method(self):
        fault = SimulationError("boom", fingerprint="fp", method="trajectory", stage="simulate")
        assert fault_annotation(fault) == {
            "error": "SimulationError",
            "error_stage": "simulate",
            "error_method": "trajectory",
        }
        assert fault_annotation(ValueError("bare")) == {"error": "ValueError"}


class TestIsolation:
    """A failed task fails its own slots once, on either route."""

    @ROUTES
    def test_poisoned_circuit_fails_only_its_own_slots(self, workers, monkeypatch):
        circuits = _subset_workload()  # 3 unique x 3 repeats, contiguous
        FakeBackend(poison={fingerprint(circuits[0])}).install(monkeypatch)
        results, stats = _run_batch(circuits, workers=workers)
        failed = [(i, r) for i, r in enumerate(results) if not r.ok]
        assert [i for i, _ in failed] == [0, 1, 2]
        assert stats.isolated_failures == 3
        assert all(isinstance(r.error, SimulationError) for _, r in failed)
        assert all(r.stage == "simulate" for _, r in failed)
        assert all(r.fingerprint == fingerprint(circuits[0]) for _, r in failed)
        # Healthy slots are bit-identical to the fault-free run.
        for i, result in enumerate(results):
            if result.ok:
                assert _results_identical(result, _reference()[i])

    @ROUTES
    def test_a_failed_task_runs_once(self, workers, monkeypatch, tmp_path):
        """The duplicates of a poison circuit fail from its one execution."""
        circuits = _subset_workload()
        poisoned = fingerprint(circuits[0])
        fake = FakeBackend(tmp_path, poison={poisoned}).install(monkeypatch)
        results, _ = _run_batch(circuits, workers=workers)
        assert [r.ok for r in results] == [False] * 3 + [True] * 6
        runs = fake.runs()
        assert runs.count(poisoned) == 1
        assert sorted(set(runs)) == sorted({fingerprint(c) for c in circuits})
        assert len(runs) == 3  # every task ran once

    @ROUTES
    def test_raise_mode_aborts_with_the_structured_fault(self, workers, monkeypatch):
        circuits = _subset_workload()
        FakeBackend(poison={fingerprint(circuits[3])}).install(monkeypatch)
        with pytest.raises(SimulationError) as excinfo:
            _run_batch(circuits, workers=workers, on_error="raise")
        assert excinfo.value.fingerprint == fingerprint(circuits[3])
        assert excinfo.value.stage == "simulate"

    @ROUTES
    def test_isolate_wraps_foreign_exceptions(self, workers):
        # statevector + noise raises a bare ValueError deep in the backend;
        # isolate mode converts it into a structured slot failure.
        circuits = _subset_workload(repeats=1)
        with ExecutionEngine(workers=workers) as engine:
            results = engine.execute_many(
                circuits, NOISE, shots=64, seed=11, method="statevector", on_error="isolate"
            )
        assert all(not r.ok for r in results)
        for result in results:
            assert isinstance(result.error, SimulationError)
            if workers is None:
                # In-process the original exception is chained as the cause.
                assert isinstance(result.error.__cause__, ValueError)
            else:
                # A worker's exception crosses the pool boundary as text.
                assert "ValueError" in str(result.error)
        with ExecutionEngine(workers=workers) as engine:
            if workers is None:
                # In-process, raise mode keeps the bare exception type.
                with pytest.raises(ValueError):
                    engine.execute_many(circuits, NOISE, shots=64, seed=11, method="statevector")
            else:
                with pytest.raises(SimulationError, match="ValueError"):
                    engine.execute_many(circuits, NOISE, shots=64, seed=11, method="statevector")

    @ROUTES
    def test_failed_result_surface(self, workers, monkeypatch):
        circuits = _subset_workload(repeats=1)
        FakeBackend(poison={fingerprint(circuits[0])}).install(monkeypatch)
        results, _ = _run_batch(circuits, workers=workers)
        failed = results[0]
        assert isinstance(failed, FailedResult)
        assert failed.ok is False
        with pytest.raises(SimulationError):
            failed.raise_error()

    def test_on_error_validation_always_raises(self):
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

    def test_check_delivered_raises_engine_invariant_error(self):
        with ExecutionEngine() as engine:
            [result] = engine.execute_many(_subset_workload(repeats=1)[:1], NOISE, seed=1)
            assert result.ok
            prepared = engine._prepare(
                _subset_workload(repeats=1)[0], NOISE, None, 1, "auto", engine.max_trajectories
            )
            with pytest.raises(EngineInvariantError) as excinfo:
                engine._check_delivered([None], [prepared])
            assert excinfo.value.undelivered == [prepared.key]
            assert excinfo.value.stage == "deliver"


class TestPrepareFaults:
    """A circuit that fails in prepare fails its own slots, and runs nothing."""

    @ROUTES
    def test_isolated_prepare_failure_fails_only_its_own_slots(self, workers, monkeypatch):
        circuits = _subset_workload()  # 3 unique x 3 repeats, contiguous
        FailingPrepare({fingerprint(circuits[3])}).install(monkeypatch)
        results, stats = _run_batch(circuits, workers=workers)
        assert [r.ok for r in results] == [True] * 3 + [False] * 3 + [True] * 3
        assert stats.isolated_failures == 3
        for result in results[3:6]:
            assert isinstance(result.error, SimulationError)
            assert result.stage == result.error.stage == "prepare"
            assert result.method is None  # no method was resolved
            assert result.fingerprint == circuit_fingerprint(circuits[3])
            # The original exception is chained as the cause.
            assert isinstance(result.error.__cause__, PrepareError)
        # Healthy slots are bit-identical to the fault-free run.
        for i, result in enumerate(results):
            if result.ok:
                assert _results_identical(result, _reference()[i])

    @ROUTES
    def test_raise_mode_propagates_the_original_exception(self, workers, monkeypatch, tmp_path):
        circuits = _subset_workload()
        FailingPrepare({fingerprint(circuits[3])}).install(monkeypatch)
        fake = FakeBackend(tmp_path).install(monkeypatch)
        with pytest.raises(PrepareError):
            _run_batch(circuits, workers=workers, on_error="raise")
        # Every slot is prepared before any task runs.
        assert fake.runs() == []


class TestIsolationProperty:
    """Any poison set isolates cleanly — hypothesis-driven."""

    @settings(max_examples=20, deadline=None)
    @given(poison=st.sets(st.integers(min_value=0, max_value=2), max_size=3))
    def test_healthy_slots_are_bit_identical_under_any_poison_set(self, poison):
        circuits = _subset_workload()  # 3 unique x 3 repeats
        unique = circuits[::3]
        poisoned = {fingerprint(unique[index]) for index in poison}
        reference = _reference()
        with pytest.MonkeyPatch.context() as patch:
            FakeBackend(poison=poisoned).install(patch)
            results, stats = _run_batch(circuits)
            replay, _ = _run_batch(circuits)
        assert len(results) == len(circuits)
        for circuit, result, expected in zip(circuits, results, reference):
            assert result.ok is (fingerprint(circuit) not in poisoned)
            if result.ok:
                assert _results_identical(result, expected)
            else:
                assert isinstance(result.error, ExecutionFault)
                assert result.fingerprint == fingerprint(circuit)
        assert stats.isolated_failures == sum(1 for r in results if not r.ok)
        # Replay: the same poison set fails the same slots with the same faults.
        assert [r.ok for r in replay] == [r.ok for r in results]
        for a, b in zip(replay, results):
            if not a.ok:
                assert type(a.error) is type(b.error)


@requires_pool
class TestPoolCrashes:
    """Work runs again only when its pool worker died."""

    def test_killed_worker_is_respawned_to_bit_identity(self, monkeypatch, tmp_path):
        circuits = _subset_workload()
        fake = FakeBackend(tmp_path, kill={EVERY_TASK}, kill_once=True).install(monkeypatch)
        with ExecutionEngine(workers=2) as engine:
            results = engine.execute_many(
                circuits, NOISE, shots=64, seed=11, on_error="isolate"
            )
            # The crash shows up only in the respawn count; the tasks lost
            # with the pool ran again in the new one.
            assert all(r.ok for r in results)
            assert engine.stats.pool_respawns == 1
            assert engine.stats.fallback_reason is None
            assert engine.stats.parallel_executed == 3
        assert all(_results_identical(a, b) for a, b in zip(results, _reference()))
        assert len(fake.runs()) > 3

    def test_only_the_tasks_lost_with_the_pool_run_again(self, monkeypatch, tmp_path):
        """Tasks that finished on a healthy worker keep their results when
        another worker dies; only the work lost with the pool runs again."""
        circuits = _distinct_circuits(6)
        serial, _ = _run_batch(circuits)
        doomed = fingerprint(circuits[0])
        # The doomed task's worker dies after half a second, by when the
        # other worker has finished the other five tasks.
        fake = FakeBackend(
            tmp_path, kill={doomed}, kill_once=True, sleep={doomed: 0.5}
        ).install(monkeypatch)
        with ExecutionEngine(workers=2, chunk_size=1) as engine:
            results = engine.execute_many(circuits, NOISE, shots=64, seed=11)
            assert engine.stats.pool_respawns == 1
            assert engine.stats.parallel_executed == 6
        runs = fake.runs()
        assert runs.count(doomed) == 2
        assert len(runs) == 7
        assert all(_results_identical(a, b) for a, b in zip(results, serial))

    def test_batch_whose_every_worker_dies_completes_in_process(self, monkeypatch):
        circuits = _distinct_circuits(6)
        serial, _ = _run_batch(circuits)
        FakeBackend(kill={EVERY_TASK}).install(monkeypatch)
        with ExecutionEngine(workers=2) as engine:
            results = engine.execute_many(circuits, NOISE, shots=64, seed=11)
            stats = engine.stats
        # Three pool attempts, then the sharder's serial rung runs the batch.
        assert stats.pool_respawns == 3
        assert stats.parallel_executed == 0
        assert stats.fallback_reason == "process pool broke 3x in one batch"
        assert all(_results_identical(a, b) for a, b in zip(results, serial))

    def test_a_crashing_task_is_split_from_its_chunk_mates(self, monkeypatch, tmp_path):
        """A chunk lost with the pool runs again as singletons, so the
        healthy chunk-mates of a task that always kills its worker finish
        in the pool, and the killer finishes in the serial rung."""
        circuits = _subset_workload(repeats=1)
        serial, _ = _run_batch(circuits)
        killer = fingerprint(circuits[2])
        fake = FakeBackend(tmp_path, kill={killer}).install(monkeypatch)
        with ExecutionEngine(workers=2, chunk_size=3) as engine:
            results = engine.execute_many(circuits, NOISE, shots=64, seed=11)
            stats = engine.stats
        assert stats.pool_respawns == 3
        assert 1 <= stats.parallel_executed <= 2
        assert stats.fallback_reason == "process pool broke 3x in one batch"
        assert fake.runs().count(killer) == 4  # three dead workers, then the parent
        assert all(_results_identical(a, b) for a, b in zip(results, serial))

    def test_next_batch_re_probes_the_pool(self, monkeypatch):
        circuits = _distinct_circuits(4)
        with ExecutionEngine(workers=2) as engine:
            with monkeypatch.context() as patch:
                FakeBackend(kill={EVERY_TASK}).install(patch)
                engine.execute_many(circuits[:2], NOISE, shots=64, seed=11)
            assert engine.stats.parallel_executed == 0
            # A healthy backend again: the next batch forks a fresh pool.
            results = engine.execute_many(circuits[2:], NOISE, shots=64, seed=11)
            assert all(r.ok for r in results)
            assert engine.stats.parallel_executed == 2
            assert engine.stats.fallback_reason is None


class TestTimeouts:
    @requires_pool
    def test_slow_task_fails_only_its_own_slot(self, monkeypatch):
        circuits = _subset_workload(repeats=1)
        FakeBackend(sleep={fingerprint(circuits[0]): 30.0}).install(monkeypatch)
        with ExecutionEngine(workers=2, task_timeout=1.0) as engine:
            results = engine.execute_many(
                circuits, NOISE, shots=64, seed=11, on_error="isolate"
            )
        assert not results[0].ok
        assert isinstance(results[0].error, TaskTimeoutError)
        assert results[0].fingerprint == fingerprint(circuits[0])
        reference = _reference()[::3]
        for result, expected in zip(results[1:], reference[1:]):
            assert result.ok and _results_identical(result, expected)

    @requires_pool
    def test_timeout_raise_mode(self, monkeypatch):
        circuits = _subset_workload(repeats=1)
        FakeBackend(sleep={fingerprint(circuits[0]): 30.0}).install(monkeypatch)
        with ExecutionEngine(workers=2, task_timeout=1.0) as engine:
            with pytest.raises(TaskTimeoutError):
                engine.execute_many(circuits, NOISE, shots=64, seed=11, on_error="raise")

    @requires_pool
    def test_timed_out_worker_is_stopped_with_its_pool(self, monkeypatch):
        # The stuck worker sleeps 30 s; recycling the pool must stop it, not
        # leave it for the interpreter's exit hook to join.
        circuits = _subset_workload(repeats=1)
        FakeBackend(sleep={fingerprint(circuits[0]): 30.0}).install(monkeypatch)
        before = set(multiprocessing.active_children())
        with ExecutionEngine(workers=2, task_timeout=1.0) as engine:
            engine.execute_many(circuits, NOISE, shots=64, seed=11, on_error="isolate")
            assert engine.stats.pool_respawns >= 1
        deadline = time.monotonic() + 5.0
        while set(multiprocessing.active_children()) - before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert set(multiprocessing.active_children()) - before == set()

    @requires_pool
    def test_queued_tasks_do_not_spend_their_budget_waiting(self, monkeypatch):
        """Each task's budget starts when a worker can run it.

        Eight 0.4 s tasks on two workers take 1.6 s in all, so a budget
        counted from a common submission would time out the last four.
        """
        circuits = _distinct_circuits(8)
        serial, _ = _run_batch(circuits)
        FakeBackend(sleep={EVERY_TASK: 0.4}).install(monkeypatch)
        with ExecutionEngine(workers=2, task_timeout=1.0) as engine:
            results = engine.execute_many(
                circuits, NOISE, shots=64, seed=11, on_error="isolate"
            )
            assert engine.stats.pool_respawns == 0
            assert engine.stats.parallel_executed == 8
        assert [r.ok for r in results] == [True] * 8
        assert all(_results_identical(a, b) for a, b in zip(results, serial))

    def test_in_process_route_does_not_preempt(self, monkeypatch):
        """The in-process route cannot stop a running simulation: a slow
        task under ``task_timeout`` completes."""
        circuits = _subset_workload(repeats=1)
        FakeBackend(sleep={fingerprint(circuits[0]): 0.5}).install(monkeypatch)
        results, stats = _run_batch(circuits, task_timeout=0.2)
        assert all(r.ok for r in results)
        assert stats.pool_respawns == 0
        assert all(_results_identical(a, b) for a, b in zip(results, _reference()[::3]))


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


class TestSharedBodyFaults:
    """Body-mates share one body evolution, never one another's faults."""

    @pytest.mark.parametrize(
        "route", [{}, {"workers": 2, "chunk_size": 3}], ids=["serial", "one-chunk"]
    )
    @pytest.mark.parametrize("poisoned", [0, 1])
    def test_poisoned_body_mate_fails_only_its_own_slots(self, route, poisoned, monkeypatch):
        copies = _basis_copies()
        circuits = [copies[0], copies[1], copies[1], copies[2]]  # tasks 0, 1, 2
        reference, _ = _run_batch(circuits)
        FakeBackend(poison={fingerprint(copies[poisoned])}).install(monkeypatch)
        results, stats = _run_batch(circuits, **route)
        # Task 0 failing leaves the body unevolved, so the next mate evolves
        # it itself; task 1 failing comes after task 0 stored it.
        failed = [0] if poisoned == 0 else [1, 2]
        assert [i for i, r in enumerate(results) if not r.ok] == failed
        assert stats.isolated_failures == len(failed)
        for i, result in enumerate(results):
            if result.ok:
                assert _results_identical(result, reference[i])


class TestCacheFaults:
    def test_corrupt_read_is_quarantined(self, tmp_path):
        cache = PersistentResultCache(tmp_path)
        cache.put(("k",), "value")
        [path] = _entry_files(tmp_path)
        flip_byte(path)
        assert cache.get(("k",)) is None  # corrupt -> miss
        assert cache.corrupt_entries == 1
        assert len(os.listdir(cache.quarantine_dir)) == 1  # kept for post-mortem
        stats = cache.stats()
        assert stats["corrupt_entries"] == 1 and stats["disabled"] is False
        cache.put(("k",), "value2")  # the slot heals
        assert cache.get(("k",)) == "value2"

    def test_mid_payload_bit_rot_is_detected(self, tmp_path):
        # Regression: a flipped byte deep inside a large pickled payload can
        # still unpickle cleanly — into silently wrong data.  The entry
        # checksum must catch it; before v4 this was served as a valid hit.
        cache = PersistentResultCache(tmp_path)
        cache.put(("k",), b"\x00" * 4096)
        [path] = _entry_files(tmp_path)
        flip_byte(path)
        assert cache.get(("k",)) is None
        assert cache.corrupt_entries == 1

    def test_repeated_write_failures_degrade_to_memory_only(self, tmp_path, monkeypatch):
        from repro.simulators.cache import MAX_CONSECUTIVE_WRITE_FAILURES

        cache = PersistentResultCache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "os", FullDisk())
            for index in range(MAX_CONSECUTIVE_WRITE_FAILURES):
                cache.put((index,), index)  # swallowed, counted
        assert cache.write_errors == MAX_CONSECUTIVE_WRITE_FAILURES
        assert cache.disabled is True
        assert _entry_files(tmp_path) == []  # no temp file left behind
        # Memory-only rung: the disk layer is out of the loop entirely.
        cache.put(("after",), 1)
        assert cache.get(("after",)) is None
        assert cache.stats()["disabled"] is True

    def test_one_write_failure_does_not_disable(self, tmp_path, monkeypatch):
        cache = PersistentResultCache(tmp_path)
        monkeypatch.setattr(cache_module, "os", FullDisk(failures=1))
        cache.put(("a",), 1)
        cache.put(("b",), 2)  # success resets the consecutive counter
        assert cache.write_errors == 1
        assert cache.disabled is False
        assert cache.get(("b",)) == 2

    @ROUTES
    def test_corrupt_entries_are_quarantined_and_recomputed(self, workers, tmp_path):
        circuits = _subset_workload()
        cache_dir = str(tmp_path / "cache")
        cold, _ = _run_batch(circuits, cache_dir=cache_dir)
        entries = _entry_files(cache_dir)
        assert entries
        for path in entries:
            flip_byte(path)
        with ExecutionEngine(workers=workers, cache_dir=cache_dir) as warm:
            results = warm.execute_many(circuits, NOISE, shots=64, seed=11)
            # Every entry read was corrupt: quarantined, none served.
            assert warm.persistent_cache.corrupt_entries == len(entries)
            assert warm.stats.persistent_hits == 0
            assert warm.stats.executed > 0
        assert len(os.listdir(os.path.join(cache_dir, "quarantine"))) == len(entries)
        assert all(_results_identical(a, b) for a, b in zip(results, cold))
        # The recomputed results were published again: the slots healed.
        with ExecutionEngine(cache_dir=cache_dir) as healed:
            served = healed.execute_many(circuits, NOISE, shots=64, seed=11)
            assert healed.stats.executed == 0
        assert all(_results_identical(a, b) for a, b in zip(served, cold))

    @ROUTES
    def test_write_failures_leave_the_engine_memory_only(self, workers, tmp_path, monkeypatch):
        from repro.simulators.cache import MAX_CONSECUTIVE_WRITE_FAILURES

        circuits = _subset_workload()
        monkeypatch.setattr(cache_module, "os", FullDisk())
        with ExecutionEngine(workers=workers, cache_dir=str(tmp_path)) as engine:
            results = engine.execute_many(circuits, NOISE, shots=64, seed=11)
            cache = engine.persistent_cache
            assert cache.disabled is True
            assert cache.write_errors == MAX_CONSECUTIVE_WRITE_FAILURES
            # The in-memory tier still serves a repeat.
            again = engine.execute_many(circuits, NOISE, shots=64, seed=11)
            assert engine.stats.cache_hits == len(circuits)
        assert _entry_files(tmp_path) == []
        assert all(_results_identical(a, b) for a, b in zip(results, _reference()))
        assert all(_results_identical(a, b) for a, b in zip(again, _reference()))


class TestModuleLevelSurface:
    def test_execute_many_passes_through_isolation(self):
        circuits = _subset_workload(repeats=1)
        results = ExecutionEngine().execute_many(
            circuits, NOISE, shots=64, seed=11, method="statevector", on_error="isolate"
        )
        assert all(not r.ok for r in results)  # statevector cannot apply noise
        assert all(isinstance(r.error, SimulationError) for r in results)
