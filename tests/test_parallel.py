"""Process-parallel sharding and the persistent on-disk result cache.

The acceptance contract for both subsystems is *bit-identity*: an
``execute_many`` batch sharded across worker processes, or served from the
persistent cache by a fresh engine, must return exactly the results the
serial in-memory path produces — same probabilities, same counts, same
measured-qubit labels.  These tests pin that contract, plus the cache's
durability properties (versioned format, corruption tolerance, atomic
publish, LRU size cap).
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.circuits import QuantumCircuit
from repro.mitigation import build_subset_circuit
from repro.noise import NoiseModel
from repro.simulators import (
    CompactTask,
    ExecutionEngine,
    ParallelSharder,
    PersistentResultCache,
    run_compact_task,
)
from repro.simulators.cache import CACHE_FORMAT_VERSION, canonical_key_bytes


def _pool_available() -> bool:
    """Can this platform actually run a process pool?

    ``ParallelSharder`` is documented to fall back to in-process execution
    (bit-identical, just serial) on platforms that cannot spawn workers —
    sandboxes without /dev/shm, restricted containers.  Assertions about
    *dispatch counts* only make sense when a pool exists, so they skip on
    such platforms; the bit-identity assertions run everywhere.
    """
    from concurrent.futures import ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=1) as executor:
            return executor.submit(int, 1).result(timeout=120) == 1
    except Exception:
        return False


POOL_AVAILABLE = _pool_available()

requires_pool = pytest.mark.skipif(
    not POOL_AVAILABLE, reason="process pools unavailable; sharder falls back in-process"
)


def _results_identical(a, b) -> bool:
    return (
        a.distribution.items() == b.distribution.items()
        and a.measured_qubits == b.measured_qubits
        and a.method == b.method
        and a.shots == b.shots
        and (a.counts is None) == (b.counts is None)
        and (a.counts is None or a.counts.items() == b.counts.items())
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


NOISE = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)


class TestParallelBitIdentity:
    """Acceptance: parallel results equal serial in-memory results exactly."""

    @requires_pool
    def test_density_matrix_batch(self):
        circuits = _subset_workload()
        serial = ExecutionEngine().execute_many(circuits, NOISE, shots=512, seed=17)
        with ExecutionEngine(workers=4) as engine:
            parallel = engine.execute_many(circuits, NOISE, shots=512, seed=17)
            assert engine.stats.parallel_executed == 3  # unique circuits only
            assert engine.stats.batch_dedup_hits == len(circuits) - 3
        assert all(_results_identical(a, b) for a, b in zip(serial, parallel))

    def test_trajectory_batch(self):
        circuits = [c.compact_qubits()[0] for c in _subset_workload()]
        serial = ExecutionEngine().execute_many(
            circuits, NOISE, shots=256, seed=5, method="trajectory", max_trajectories=50
        )
        with ExecutionEngine(workers=2) as engine:
            parallel = engine.execute_many(
                circuits, NOISE, shots=256, seed=5, method="trajectory", max_trajectories=50
            )
        assert all(_results_identical(a, b) for a, b in zip(serial, parallel))

    def test_statevector_batch(self):
        circuits = _subset_workload()
        serial = ExecutionEngine().execute_many(circuits, None, shots=128, seed=3)
        with ExecutionEngine(workers=2) as engine:
            parallel = engine.execute_many(circuits, None, shots=128, seed=3)
        assert all(_results_identical(a, b) for a, b in zip(serial, parallel))

    def test_exact_unsampled_batch(self):
        circuits = _subset_workload()
        serial = ExecutionEngine().execute_many(circuits, NOISE)
        with ExecutionEngine(workers=2) as engine:
            parallel = engine.execute_many(circuits, NOISE)
        assert all(_results_identical(a, b) for a, b in zip(serial, parallel))

    @requires_pool
    def test_engine_builds_one_sharder_from_its_workers(self):
        # The engine's ``workers`` is the only process-count setting: every
        # parallel batch reuses the one sharder built from it.
        circuits = _subset_workload()
        with ExecutionEngine(workers=2) as engine:
            first = engine.execute_many(circuits, NOISE, shots=512, seed=17)
            sharder = engine._sharder
            assert sharder is not None and sharder.workers == 2
            other_noise = NoiseModel.depolarizing(p1=0.01, p2=0.03, readout=0.02)
            engine.execute_many(circuits, other_noise, shots=512, seed=17)
            assert engine._sharder is sharder
            assert engine.stats.parallel_executed == 6
        serial = ExecutionEngine().execute_many(circuits, NOISE, shots=512, seed=17)
        assert all(_results_identical(a, b) for a, b in zip(serial, first))

    @requires_pool
    def test_unseeded_requests_are_dispatched_not_cached(self):
        circuits = _subset_workload(repeats=2)  # 3 unique x 2 occurrences
        with ExecutionEngine(workers=2) as engine:
            results = engine.execute_many(circuits, NOISE, shots=64)  # no seed
            assert engine.stats.uncacheable == len(circuits)
            # Density-matrix requests shard their *gate-noise evolution*
            # once per unique circuit; each occurrence is finished in the
            # parent with its own independent readout sampling (matching
            # serial, where occurrences after the first hit the state cache).
            assert engine.stats.parallel_executed == 3
            assert engine.stats.executed == len(circuits)
            # No *result* keys are cached for unseeded sampling — only the
            # deterministic pre-readout dm-state entries (as serially).
            assert engine.cache_len == 3
            assert len(results) == len(circuits)
            # Independent draws: occurrences of the same circuit should not
            # be byte-equal in general (3 x 64 shots over 4 outcomes makes a
            # collision astronomically unlikely but not impossible; allow
            # equality only if all three pairs collide — i.e. never).
            pairs = [(results[i], results[i + 1]) for i in (0, 2, 4)]
            assert any(
                a.counts.items() != b.counts.items() for a, b in pairs
            )

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionEngine(workers=0)

    @pytest.mark.parametrize("workers", [None, 1, 2])
    @pytest.mark.parametrize(
        "name, value",
        [("chunk_size", 0), ("chunk_size", -1), ("task_timeout", 0), ("task_timeout", -1)],
    )
    def test_pool_settings_are_validated_at_construction(self, name, value, workers):
        # A bad pool setting fails the constructor, not the first batch
        # (which would already have counted its requests), and is not
        # ignored just because this engine runs in-process.
        with pytest.raises(ValueError, match=name):
            ExecutionEngine(workers=workers, **{name: value})


class TestSerialPoolDifferential:
    """Serial and pool engines run one batch pipeline; only the executor differs.

    The same mixed batch sequence must end with bit-identical results, the
    same cache lines and the same accounting on both routes, apart from
    the fields that describe the route itself.
    """

    ROUTE_FIELDS = ("parallel_executed", "pool_respawns", "fallback_reason")

    @staticmethod
    def _sequence(engine: ExecutionEngine) -> list:
        # Per-qubit readout, so two embeddings of one compact circuit get
        # different result keys but share a gate-noise evolution.
        noise = NoiseModel.depolarizing(
            p1=0.005, p2=0.02, readout={q: 0.01 + 0.005 * q for q in range(6)}
        )
        circuits = _subset_workload()  # 3 unique circuits x 3 occurrences
        pair = []
        for wire in (0, 5):
            circuit = QuantumCircuit(6, 1)
            circuit.rx(0.3, wire)
            circuit.measure(wire, 0)
            pair.append(circuit)
        trajectories = [circuit.compact_qubits()[0] for circuit in circuits]
        # A Bell pair (one compact circuit on wires 0-1 and 4-5, so one
        # traj-state line serves both) plus a GHZ circuit.
        entangled = []
        for wires in ((0, 1), (4, 5)):
            circuit = QuantumCircuit(6, 2)
            circuit.h(wires[0])
            circuit.cx(*wires)
            circuit.measure(wires[0], 0)
            circuit.measure(wires[1], 1)
            entangled.append(circuit)
        ghz = QuantumCircuit(3, 3)
        ghz.h(0)
        ghz.s(0)
        ghz.cx(0, 1)
        ghz.cx(1, 2)
        ghz.measure_all()
        entangled.append(ghz)
        return [
            engine.execute_many(circuits + pair, noise, shots=256, seed=9),
            engine.execute_many(circuits, noise.with_readout_scaled(2.0), shots=256, seed=9),
            engine.execute_many(circuits, noise.with_readout_scaled(1.5)),
            engine.execute_many(circuits, None, shots=128, seed=3),
            engine.execute_many(
                trajectories, noise, shots=256, seed=5, method="trajectory", max_trajectories=50
            ),
            engine.execute_many(
                trajectories, noise.with_readout_scaled(2.0), shots=256, seed=5,
                method="trajectory", max_trajectories=50,
            ),
            engine.execute_many(entangled, noise, shots=256, seed=7, method="trajectory"),
            engine.execute_many(
                entangled, noise.with_readout_scaled(2.0), shots=256, seed=7, method="trajectory"
            ),
        ]

    def test_results_cache_lines_and_stats_agree(self):
        serial = ExecutionEngine()
        with ExecutionEngine(workers=2) as pooled:
            expected = self._sequence(serial)
            observed = self._sequence(pooled)
            for batch_a, batch_b in zip(expected, observed):
                assert len(batch_a) == len(batch_b)
                assert all(_results_identical(a, b) for a, b in zip(batch_a, batch_b))
            assert set(serial._cache) == set(pooled._cache)
            stats = [
                {k: v for k, v in engine.stats.to_dict().items() if k not in self.ROUTE_FIELDS}
                for engine in (serial, pooled)
            ]
        assert stats[0] == stats[1]
        # The accounting rule both routes follow.  A duplicate of a key that
        # missed earlier in the same batch is a batch-dedup hit, never a
        # cache hit: 6 batches x 6 duplicates (the Bell/GHZ batches have
        # none).
        assert stats[0]["cache_hits"] == 0
        assert stats[0]["batch_dedup_hits"] == 36
        # Every density-matrix or seeded sampled consumer served by a
        # readout-free run it did not trigger is one state-cache hit.
        # Density matrix: the second wire of the pair, then 3 circuits at
        # each of the two later readout points (7).  Trajectory: 3 circuits
        # at the second readout (3), and for the Bell/GHZ batches the second
        # wire of the Bell pair, then all 3 circuits at the second readout
        # (4).
        assert stats[0]["state_cache_hits"] == 7 + 3 + 4
        assert sum(key[0] == "traj-state" for key in serial._cache) == 3 + 2


class TestParallelSharder:
    def test_single_task_runs_in_process(self):
        sharder = ParallelSharder(workers=4)
        circuit = _subset_workload()[0].compact_qubits()[0]
        task = CompactTask(
            circuit=circuit, noise=NOISE, method="density_matrix",
            shots=None, seed=1, max_trajectories=10,
        )
        result = sharder.run([task])
        assert sharder._executor is None  # no pool for a single task
        assert _results_identical(result[0], run_compact_task(task))
        sharder.shutdown()

    def test_chunked_map_matches_task_order(self):
        circuits = [c.compact_qubits()[0] for c in _subset_workload(repeats=1)]
        tasks = [
            CompactTask(
                circuit=circuit, noise=NOISE, method="density_matrix",
                shots=None, seed=index, max_trajectories=10,
            )
            for index, circuit in enumerate(circuits * 2)
        ]
        with ParallelSharder(workers=2, chunk_size=1) as sharder:
            outputs = sharder.run(tasks)
        expected = [run_compact_task(task) for task in tasks]
        assert all(_results_identical(a, b) for a, b in zip(outputs, expected))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_returns_faults_in_their_slots(self, workers):
        """A failed task's slot holds its fault; the sharder never raises it.

        Whether a fault raises or is isolated is the engine's decision, so
        the sharder returns every task's result or fault, in task order.
        """
        from repro.simulators import SimulationError

        circuits = [c.compact_qubits()[0] for c in _subset_workload(repeats=1)]
        tasks = [
            CompactTask(
                circuit=circuit, noise=NOISE, method=method,
                shots=None, seed=index, max_trajectories=10, fingerprint=f"fp{index}",
            )
            for index, (circuit, method) in enumerate(
                zip(circuits, ["density_matrix", "statevector", "density_matrix"])
            )
        ]
        with ParallelSharder(workers=workers) as sharder:
            outputs = sharder.run(tasks)
        assert isinstance(outputs[1], SimulationError)  # statevector cannot apply noise
        assert outputs[1].fingerprint == "fp1"
        assert "ValueError" in str(outputs[1])
        for position in (0, 2):
            assert _results_identical(outputs[position], run_compact_task(tasks[position]))

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelSharder(workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            ParallelSharder(workers=2, chunk_size=0)

    def test_engine_reports_why_it_ran_without_a_pool(self, monkeypatch):
        """A pool that cannot be created degrades in-process, visibly.

        The batch still completes bit-identically to a serial engine, and
        ``EngineStats.fallback_reason`` says why nothing was dispatched.
        """
        def refuse(*args, **kwargs):
            raise OSError("no /dev/shm")

        circuits = _subset_workload(repeats=1)
        serial = ExecutionEngine().execute_many(circuits, NOISE, shots=64, seed=1)
        monkeypatch.setattr("repro.simulators.parallel.ProcessPoolExecutor", refuse)
        with ExecutionEngine(workers=2) as engine:
            assert engine.stats.fallback_reason is None
            pooled = engine.execute_many(circuits, NOISE, shots=64, seed=1)
            assert engine.stats.fallback_reason.startswith("pool creation failed: OSError")
            assert engine.stats.parallel_executed == 0
        assert all(_results_identical(a, b) for a, b in zip(serial, pooled))

    @staticmethod
    def _tasks() -> list[CompactTask]:
        circuits = [c.compact_qubits()[0] for c in _subset_workload(repeats=1)]
        return [
            CompactTask(
                circuit=circuit, noise=NOISE, method="density_matrix",
                shots=None, seed=None, max_trajectories=10,
            )
            for circuit in circuits
        ]

    def test_capped_pool_creation_names_the_cap(self, monkeypatch):
        """After MAX_CREATION_FAILURES refusals the sharder stops probing,
        and each later run still says why it ran in-process."""
        from repro.simulators import parallel

        attempts = []

        def refuse(*args, **kwargs):
            attempts.append(None)
            raise OSError("no /dev/shm")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
        tasks = self._tasks()
        with ParallelSharder(workers=2) as sharder:
            for _ in range(parallel.MAX_CREATION_FAILURES):
                sharder.run(tasks)
                assert sharder.fallback_reason.startswith("pool creation failed: OSError")
            outputs = sharder.run(tasks)
            assert len(attempts) == parallel.MAX_CREATION_FAILURES  # not probed again
            assert sharder.fallback_reason == (
                f"pool creation failed {parallel.MAX_CREATION_FAILURES}x; no longer re-probed"
            )
            assert sharder.last_dispatched == 0
        assert all(_results_identical(a, run_compact_task(t)) for a, t in zip(outputs, tasks))

    def test_a_run_that_needs_no_pool_reports_no_fallback(self, monkeypatch):
        """Only pool trouble is a fallback: a lone task runs in-process by
        design, so it clears the reason a refused pool left."""
        def refuse(*args, **kwargs):
            raise OSError("no /dev/shm")

        monkeypatch.setattr("repro.simulators.parallel.ProcessPoolExecutor", refuse)
        tasks = self._tasks()
        with ParallelSharder(workers=2) as sharder:
            sharder.run(tasks)
            assert sharder.fallback_reason is not None
            sharder.run(tasks[:1])
            assert sharder.fallback_reason is None

    @requires_pool
    def test_fallback_reason_clears_once_the_pool_recovers(self, monkeypatch):
        """A batch the pool runs whole reports no fallback, even right after
        a batch that could not create its pool."""
        from repro.simulators import parallel

        real = parallel.ProcessPoolExecutor
        refusals = [OSError("no /dev/shm")]

        def flaky(*args, **kwargs):
            if refusals:
                raise refusals.pop()
            return real(*args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", flaky)
        circuits = _subset_workload(repeats=1)
        with ExecutionEngine(workers=2) as engine:
            engine.execute_many(circuits, NOISE, shots=64, seed=1)
            assert engine.stats.fallback_reason.startswith("pool creation failed: OSError")
            assert engine.stats.parallel_executed == 0
            other_noise = NoiseModel.depolarizing(p1=0.01, p2=0.03, readout=0.02)
            engine.execute_many(circuits, other_noise, shots=64, seed=1)
            assert engine.stats.parallel_executed == len(circuits)
            assert engine.stats.fallback_reason is None


class TestPersistentCache:
    """Durability contract of the on-disk layer."""

    def test_warm_start_across_engines(self, tmp_path):
        circuits = _subset_workload()
        cold = ExecutionEngine(cache_dir=str(tmp_path))
        cold_results = cold.execute_many(circuits, NOISE, shots=512, seed=17)
        assert cold.stats.executed == 3

        warm = ExecutionEngine(cache_dir=str(tmp_path))  # fresh memory cache
        warm_results = warm.execute_many(circuits, NOISE, shots=512, seed=17)
        assert warm.stats.executed == 0  # nothing recomputed
        assert warm.stats.persistent_hits == 3
        # Acceptance: persistent-cache results are bit-identical to computed.
        assert all(_results_identical(a, b) for a, b in zip(cold_results, warm_results))

    def test_warm_start_under_parallel_engine(self, tmp_path):
        circuits = _subset_workload()
        with ExecutionEngine(cache_dir=str(tmp_path), workers=2) as cold:
            cold_results = cold.execute_many(circuits, NOISE, shots=512, seed=17)
        with ExecutionEngine(cache_dir=str(tmp_path), workers=2) as warm:
            warm_results = warm.execute_many(circuits, NOISE, shots=512, seed=17)
            assert warm.stats.executed == 0
        assert all(_results_identical(a, b) for a, b in zip(cold_results, warm_results))

    def test_parallel_readout_sweep_uses_state_cache(self):
        # Regression: the parallel path must keep the readout-factored
        # state cache — a measurement-error sweep with workers>1 evolves
        # each circuit's gate noise once, not once per readout setting.
        circuits = _subset_workload(repeats=1)
        with ExecutionEngine(workers=2) as engine:
            engine.execute_many(circuits, NOISE, shots=256, seed=9)
            evolutions_after_first = engine.stats.parallel_executed
            for factor in (1.5, 2.0):
                hits_before = engine.stats.state_cache_hits
                engine.execute_many(
                    circuits, NOISE.with_readout_scaled(factor), shots=256, seed=9
                )
                # Every sweep point after the first: one hit per circuit.
                assert engine.stats.state_cache_hits - hits_before == len(circuits)
            # Later sweep points re-apply confusion in the parent only.
            assert engine.stats.parallel_executed == evolutions_after_first
            assert engine.stats.state_cache_hits > 0
            # One dm-state entry per circuit: the pool writes the same key
            # the serial route reads.
            dm_state_keys = [key for key in engine._cache if key[0] == "dm-state"]
            assert len(dm_state_keys) == len(circuits)

        # And the parallel sweep matches the serial sweep bit for bit.
        serial = ExecutionEngine()
        with ExecutionEngine(workers=2) as parallel:
            for factor in (1.0, 2.0):
                model = NOISE.with_readout_scaled(factor)
                a = serial.execute_many(circuits, model, shots=256, seed=9)
                b = parallel.execute_many(circuits, model, shots=256, seed=9)
                assert all(_results_identical(x, y) for x, y in zip(a, b))

    def test_dm_state_entries_warm_readout_sweeps(self, tmp_path):
        # The readout-factored density-matrix state entries persist too: a
        # sweep over measurement-error rates in a *new* engine re-simulates
        # no gate noise.
        circuit = _subset_workload()[0]
        ExecutionEngine(cache_dir=str(tmp_path)).execute(circuit, NOISE)
        warm = ExecutionEngine(cache_dir=str(tmp_path))
        warm.execute(circuit, NOISE.with_readout_scaled(2.0))
        assert warm.stats.state_cache_hits == 1

    def test_roundtrip_and_miss(self, tmp_path):
        cache = PersistentResultCache(tmp_path)
        key = ("fp", "noise-fp", "density_matrix", None, 7, None, None)
        assert cache.get(key) is None
        cache.put(key, {"payload": [1.0, 2.0]})
        assert cache.get(key) == {"payload": [1.0, 2.0]}
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (1, 1, 0)
        assert (stats["write_errors"], stats["corrupt_entries"], stats["disabled"]) == (0, 0, False)

    def test_canonical_keys_are_content_addressed(self, tmp_path):
        # Equal tuples produce equal addresses regardless of process/py-hash
        # salt; different tuples must not collide on repr.
        key_a = ("fp", ("a", 1), None, True)
        key_b = ("fp", ("a", 1), None, True)
        assert canonical_key_bytes(key_a) == canonical_key_bytes(key_b)
        assert canonical_key_bytes(key_a) != canonical_key_bytes(("fp", ("a", 1), None, False))

    def test_corrupt_entry_is_a_miss_and_heals(self, tmp_path):
        cache = PersistentResultCache(tmp_path)
        key = ("k",)
        cache.put(key, "value")
        [(path, _, _)] = list(cache._entries())
        with open(path, "wb") as handle:
            handle.write(b"garbage that is not a cache entry")
        assert cache.get(key) is None  # corrupt -> miss
        assert not os.path.exists(path)  # and the bad file is removed
        cache.put(key, "value2")  # the slot heals
        assert cache.get(key) == "value2"

    def test_truncated_pickle_is_a_miss(self, tmp_path):
        cache = PersistentResultCache(tmp_path)
        key = ("k",)
        cache.put(key, {"big": list(range(100))})
        [(path, _, _)] = list(cache._entries())
        payload = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        assert cache.get(key) is None

    def test_format_version_is_part_of_the_path(self, tmp_path):
        cache = PersistentResultCache(tmp_path)
        assert f"v{CACHE_FORMAT_VERSION}" in cache.root
        # A foreign/old tree next to the versioned one is never read.
        alien = os.path.join(str(tmp_path), "v0")
        os.makedirs(alien)
        with open(os.path.join(alien, "x.pkl"), "wb") as handle:
            pickle.dump("old-format", handle)
        assert cache.get(("k",)) is None

    def test_atomic_publish_leaves_no_temp_files(self, tmp_path):
        cache = PersistentResultCache(tmp_path)
        for index in range(10):
            cache.put((index,), index)
        leftovers = [
            name
            for _, _, names in os.walk(str(tmp_path))
            for name in names
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_lru_size_cap_evicts_oldest(self, tmp_path):
        cache = PersistentResultCache(tmp_path, max_bytes=4096)
        # Write far more than the cap allows in aggregate.
        for index in range(70):
            cache.put((index,), "x" * 256)
        assert cache.total_bytes() <= 4096
        assert cache.evictions > 0
        # The size-capped writes keep the running estimate stats() reports.
        stats = cache.stats()
        assert stats["evictions"] == cache.evictions
        assert 0 < stats["approx_bytes"] <= 4096

    def test_overwrite_does_not_inflate_size_accounting(self, tmp_path):
        # Regression: put() added the new payload's size without
        # subtracting the replaced entry's, so rewriting one hot key
        # inflated _approx_bytes until spurious evictions kicked in.
        cache = PersistentResultCache(tmp_path, max_bytes=64 * 1024)
        for _ in range(50):
            cache.put(("hot",), "x" * 1024)
        assert len(cache) == 1
        assert cache._approx_bytes == cache.total_bytes()
        assert cache.evictions == 0

    def test_overwrite_accounting_tracks_shrinking_payloads(self, tmp_path):
        cache = PersistentResultCache(tmp_path, max_bytes=64 * 1024)
        cache.put(("k",), "x" * 4096)
        cache.put(("k",), "x")  # replacement smaller than the original
        assert cache._approx_bytes == cache.total_bytes()
        assert cache._approx_bytes < 4096

    def test_write_failure_is_swallowed(self, tmp_path, monkeypatch):
        # An unusable cache directory must cost recomputation, never an
        # exception out of a successful simulation.
        import tempfile as tempfile_module

        cache = PersistentResultCache(tmp_path)

        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(tempfile_module, "mkstemp", refuse)
        cache.put(("k",), "value")  # must not raise
        assert cache.write_errors == 1
        monkeypatch.undo()
        assert cache.get(("k",)) is None  # nothing was stored
        cache.put(("k",), "value")  # healthy again
        assert cache.get(("k",)) == "value"

    def test_orphaned_temp_files_are_reaped(self, tmp_path):
        # A writer killed between mkstemp and os.replace leaves a .tmp the
        # ordinary read/evict paths never touch; clear() and eviction reap
        # them so crashes cannot accumulate untracked disk usage.
        cache = PersistentResultCache(tmp_path)
        cache.put(("a",), 1)
        shard = os.path.dirname(cache._path(("a",)))
        orphan = os.path.join(shard, "deadbeef.tmp")
        with open(orphan, "wb") as handle:
            handle.write(b"half-written entry")
        old = 1_000_000_000  # well past any reaping age floor
        os.utime(orphan, (old, old))
        cache._reap_temp_files()
        assert not os.path.exists(orphan)

    def test_clear(self, tmp_path):
        cache = PersistentResultCache(tmp_path)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        shard = os.path.dirname(cache._path(("a",)))
        with open(os.path.join(shard, "fresh.tmp"), "wb") as handle:
            handle.write(b"x")
        cache.clear()
        assert len(cache) == 0
        assert cache.get(("a",)) is None
        # clear() reaps temp files regardless of age.
        assert not any(
            name.endswith(".tmp")
            for _, _, names in os.walk(str(tmp_path))
            for name in names
        )
