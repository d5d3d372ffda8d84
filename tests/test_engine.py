"""Tests for the batched, cached :class:`repro.simulators.ExecutionEngine`."""

import json

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.noise import NoiseModel
from repro.simulators import (
    ExecutionEngine,
    circuit_fingerprint,
    execute,
    get_default_engine,
    simulate_trajectories_batched,
)


def ghz(num_qubits: int = 3) -> QuantumCircuit:
    qc = QuantumCircuit(num_qubits, num_qubits)
    qc.h(0)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    qc.measure_all()
    return qc


def noisy_model() -> NoiseModel:
    return NoiseModel.depolarizing(p1=0.01, p2=0.05, readout=0.03)


def _field_default(field):
    import dataclasses

    if field.default is not dataclasses.MISSING:
        return field.default
    return field.default_factory()


class TestFingerprints:
    def test_identical_structure_same_fingerprint(self):
        assert circuit_fingerprint(ghz()) == circuit_fingerprint(ghz())

    def test_name_is_ignored(self):
        a, b = ghz(), ghz()
        b.name = "other"
        assert circuit_fingerprint(a) == circuit_fingerprint(b)

    def test_different_gates_differ(self):
        other = ghz()
        other.x(0)
        assert circuit_fingerprint(ghz()) != circuit_fingerprint(other)

    def test_parameter_changes_differ(self):
        a = QuantumCircuit(1)
        a.rx(0.3, 0)
        b = QuantumCircuit(1)
        b.rx(0.4, 0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_noise_fingerprint_content_addressed(self):
        assert noisy_model().fingerprint() == noisy_model().fingerprint()
        assert noisy_model().fingerprint() != NoiseModel.depolarizing(p2=0.01).fingerprint()
        assert NoiseModel.ideal().fingerprint() == NoiseModel.ideal().fingerprint()


class TestNoiseRemap:
    def test_remap_moves_per_qubit_entries(self):
        model = NoiseModel.depolarizing(p1=0.01, readout={5: 0.2})
        remapped = model.remap_qubits({5: 0})
        assert remapped.readout_error(0) is not None
        assert remapped.readout_error(5) is None

    def test_remap_drops_absent_qubits(self):
        model = NoiseModel.depolarizing(readout={3: 0.1, 7: 0.2})
        remapped = model.remap_qubits({3: 0})
        assert remapped.readout_error(0) is not None
        assert remapped.readout_error(1) is None


class TestCacheAccounting:
    def test_hits_and_misses(self):
        engine = ExecutionEngine()
        circuit = ghz()
        engine.execute(circuit, noisy_model(), shots=500, seed=3)
        assert engine.stats.cache_misses == 1
        assert engine.stats.cache_hits == 0
        engine.execute(circuit, noisy_model(), shots=500, seed=3)
        assert engine.stats.cache_misses == 1
        assert engine.stats.cache_hits == 1
        assert engine.stats.executed == 1
        assert engine.stats.hit_rate == pytest.approx(0.5)
        snapshot = engine.stats.to_dict()
        assert snapshot["requests"] == 2 and snapshot["executed"] == 1
        assert snapshot["hit_rate"] == 0.5
        assert snapshot["fallback_reason"] is None
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert "requests=2" in repr(engine.stats)

    def test_different_key_misses(self):
        engine = ExecutionEngine()
        circuit = ghz()
        engine.execute(circuit, noisy_model(), shots=500, seed=3)
        engine.execute(circuit, noisy_model(), shots=500, seed=4)
        engine.execute(circuit, noisy_model(), shots=600, seed=3)
        engine.execute(circuit, NoiseModel.depolarizing(p2=0.2), shots=500, seed=3)
        assert engine.stats.cache_misses == 4
        assert engine.stats.cache_hits == 0

    def test_unseeded_sampling_is_uncacheable(self):
        engine = ExecutionEngine()
        circuit = ghz()
        engine.execute(circuit, noisy_model(), shots=500)
        engine.execute(circuit, noisy_model(), shots=500)
        assert engine.stats.uncacheable == 2
        assert engine.stats.executed == 2

    def test_exact_unsampled_is_cacheable_without_seed(self):
        engine = ExecutionEngine()
        circuit = ghz()
        engine.execute(circuit, noisy_model())
        engine.execute(circuit, noisy_model())
        assert engine.stats.cache_hits == 1
        assert engine.stats.executed == 1

    def test_lru_eviction(self):
        engine = ExecutionEngine(cache_size=2)
        circuits = []
        for i in range(3):
            qc = QuantumCircuit(2, 2)
            qc.rx(0.1 * (i + 1), 0).cx(0, 1).measure_all()
            circuits.append(qc)
        for qc in circuits:
            engine.execute(qc, noisy_model())
        assert engine.cache_len == 2
        engine.execute(circuits[0], noisy_model())  # evicted -> miss
        assert engine.stats.cache_misses == 4

    def test_stats_reset_restores_every_field_default(self):
        # Regression: reset() used to hand-list fields, so a counter added
        # to EngineStats could silently survive a reset.  It is now driven
        # by dataclasses.fields, pinned here over every current field.
        import dataclasses

        engine = ExecutionEngine()
        engine.execute(ghz(), noisy_model(), shots=100, seed=3)
        engine.execute(ghz(), noisy_model(), shots=100, seed=3)
        stats = engine.stats
        assert any(
            getattr(stats, field.name) != _field_default(field)
            for field in dataclasses.fields(stats)
        )
        stats.reset()
        for field in dataclasses.fields(stats):
            assert getattr(stats, field.name) == _field_default(field), field.name


class TestBatchDeduplication:
    def test_duplicates_executed_once(self):
        engine = ExecutionEngine()
        batch = [ghz(), ghz(), ghz(), ghz()]
        results = engine.execute_many(batch, noisy_model(), shots=400, seed=11)
        assert engine.stats.executed == 1
        assert engine.stats.batch_dedup_hits == 3
        reference = results[0].distribution.to_dict()
        for result in results[1:]:
            assert result.distribution.to_dict() == reference

    def test_dedup_matches_sequential_execution(self):
        model = noisy_model()
        batch = [ghz(), ghz(4), ghz()]
        engine = ExecutionEngine()
        batched = engine.execute_many(batch, model, shots=400, seed=7)
        sequential = [
            ExecutionEngine().execute(circuit, model, shots=400, seed=7)
            for circuit in batch
        ]
        for a, b in zip(batched, sequential):
            assert a.distribution.to_dict() == b.distribution.to_dict()
            assert a.measured_qubits == b.measured_qubits

    def test_exact_method_matches_plain_execute(self):
        circuit = ghz()
        model = noisy_model()
        engine_result = ExecutionEngine().execute(circuit, model)
        plain_result = execute(circuit, model)
        assert engine_result.method == plain_result.method == "density_matrix"
        for outcome, probability in plain_result.distribution.items():
            assert engine_result.distribution[outcome] == pytest.approx(probability)

    def test_results_are_independent_shells(self):
        engine = ExecutionEngine()
        first, second = engine.execute_many([ghz(), ghz()], noisy_model(), shots=100, seed=1)
        first.metadata["tag"] = "mine"
        assert "tag" not in second.metadata

    def test_miss_path_result_cannot_poison_cache(self):
        engine = ExecutionEngine()
        first = engine.execute(ghz(), noisy_model(), shots=100, seed=3)
        first.metadata["tag"] = "mine"
        first.measured_qubits.reverse()
        hit = engine.execute(ghz(), noisy_model(), shots=100, seed=3)
        assert engine.stats.cache_hits == 1
        assert hit.metadata == {}
        assert hit.measured_qubits == sorted(hit.measured_qubits)

    def test_cache_hit_across_embeddings_keeps_own_wire_labels(self):
        # Same compact structure (H + measure on one wire of three) embedded
        # on different wires shares a cache line, but each requester must get
        # measured_qubits for its own embedding — a hit used to replay the
        # first requester's labels.
        def embedded(wire):
            qc = QuantumCircuit(3, 1)
            qc.h(wire)
            qc.measure(wire, 0)
            return qc

        model = noisy_model()
        engine = ExecutionEngine()
        on_wire_2 = engine.execute(embedded(2), model)
        on_wire_0 = engine.execute(embedded(0), model)
        assert engine.stats.cache_hits == 1  # embeddings really collide
        assert on_wire_2.measured_qubits == [2]
        assert on_wire_0.measured_qubits == [0]
        assert on_wire_0.bit_for_qubit(0) == 0

    def test_cache_hit_across_embeddings_with_seeded_shots(self):
        def embedded(wire):
            qc = QuantumCircuit(3, 1)
            qc.h(wire)
            qc.measure(wire, 0)
            return qc

        model = noisy_model()
        engine = ExecutionEngine()
        on_wire_2 = engine.execute(embedded(2), model, shots=300, seed=8)
        on_wire_0 = engine.execute(embedded(0), model, shots=300, seed=8)
        assert engine.stats.cache_hits == 1
        assert on_wire_2.measured_qubits == [2]
        assert on_wire_0.measured_qubits == [0]
        assert on_wire_0.counts.to_dict() == on_wire_2.counts.to_dict()

    def test_unmeasured_circuit_matches_sequential_width(self):
        # No measurements: sequential execute() reports a full-width
        # distribution over all qubits; the engine must expand its compacted
        # result back (idle wires read 0) instead of returning 1 bit.
        qc = QuantumCircuit(3)
        qc.h(1)
        sequential = execute(qc)
        engine_result = ExecutionEngine().execute(qc)
        assert engine_result.distribution.num_bits == 3
        assert engine_result.measured_qubits == [0, 1, 2]
        assert engine_result.distribution == sequential.distribution

    def test_payload_mutation_cannot_poison_cache(self):
        engine = ExecutionEngine()
        model = noisy_model()
        first = engine.execute(ghz(), model, shots=200, seed=4)
        first.counts._counts.clear()
        first.distribution._probs.clear()
        hit = engine.execute(ghz(), model, shots=200, seed=4)
        assert engine.stats.cache_hits == 1
        assert hit.counts.shots == 200
        assert hit.distribution.total == pytest.approx(1.0)

    def test_in_place_noise_mutation_invalidates_memos(self):
        from repro.noise.readout import ReadoutError

        engine = ExecutionEngine()
        model = NoiseModel.depolarizing(p1=0.01, p2=0.05)
        before = engine.execute(ghz(), model).distribution
        model.set_readout_error(ReadoutError(0.3, 0.3))
        after = engine.execute(ghz(), model).distribution
        fresh = ExecutionEngine().execute(ghz(), model).distribution
        assert after.to_dict() == fresh.to_dict()
        assert after.to_dict() != before.to_dict()


class TestCompaction:
    def test_remapped_noise_is_memoised_per_subset(self):
        wide = QuantumCircuit(8, 2)
        wide.h(2).cx(2, 5)
        wide.measure(2, 0)
        wide.measure(5, 1)
        engine = ExecutionEngine()
        model = noisy_model()
        first = engine._prepare(wide, model, None, 1, "auto", 600)
        second = engine._prepare(wide, model, None, 1, "auto", 600)
        assert first.noise is second.noise  # one remap + one fingerprint hash
        model.set_default_1q_error(model._default_1q[0])
        third = engine._prepare(wide, model, None, 1, "auto", 600)
        assert third.noise is not first.noise  # mutation invalidates the memo

    def test_idle_wires_do_not_widen_simulation(self):
        wide = QuantumCircuit(24, 24)
        wide.h(3).cx(3, 17)
        wide.measure(3, 3)
        wide.measure(17, 17)
        engine = ExecutionEngine()
        result = engine.execute(wide, noisy_model(), shots=500, seed=2)
        # Two active wires -> exact density-matrix simulation, not trajectories.
        assert result.method == "density_matrix"
        assert result.measured_qubits == [3, 17]
        assert result.bit_for_qubit(17) == 1

    def test_compaction_preserves_distribution(self):
        # Narrow enough that the engine and the uncompacted one-shot
        # execute() both use the exact density-matrix method, so the two
        # distributions must agree to rounding error.
        wide = QuantumCircuit(8, 8)
        wide.h(5).cx(5, 2)
        wide.measure(5, 5)
        wide.measure(2, 2)
        compact_result = ExecutionEngine().execute(wide, noisy_model())
        plain_result = execute(wide, noisy_model())
        assert compact_result.method == plain_result.method == "density_matrix"
        for outcome in range(4):
            assert compact_result.distribution[outcome] == pytest.approx(
                plain_result.distribution[outcome], abs=1e-9
            )

    def test_per_qubit_noise_follows_compaction(self):
        # Readout error lives on qubit 11; after compaction it must still
        # apply to that logical wire.
        wide = QuantumCircuit(12, 12)
        wide.x(11)
        wide.measure(11, 11)
        model = NoiseModel.depolarizing(readout={11: 0.25})
        result = ExecutionEngine().execute(wide, model)
        assert result.distribution[0] == pytest.approx(0.25)
        assert result.distribution[1] == pytest.approx(0.75)


class TestVectorizedTrajectories:
    def wide_noisy_circuit(self) -> QuantumCircuit:
        qc = QuantumCircuit(12, 12)
        for q in range(12):
            qc.h(q)
        for q in range(11):
            qc.cx(q, q + 1)
        qc.t(0)
        qc.measure_all()
        return qc

    def test_seed_reproducibility(self):
        circuit = self.wide_noisy_circuit()
        model = noisy_model()
        counts_a, qubits_a = simulate_trajectories_batched(
            circuit, model, shots=400, seed=21, max_trajectories=50
        )
        counts_b, qubits_b = simulate_trajectories_batched(
            circuit, model, shots=400, seed=21, max_trajectories=50
        )
        assert qubits_a == qubits_b
        assert counts_a.to_dict() == counts_b.to_dict()

    def test_engine_uses_batched_path_reproducibly(self):
        circuit = self.wide_noisy_circuit()
        model = noisy_model()
        a = ExecutionEngine().execute(circuit, model, shots=300, seed=5)
        b = ExecutionEngine().execute(circuit, model, shots=300, seed=5)
        assert a.method == "trajectory"
        assert a.counts.to_dict() == b.counts.to_dict()

    def test_default_shots_share_cache_line_with_explicit_4096(self):
        # The trajectory path always samples; shots=None means the default
        # budget of 4096, so the two spellings are identical work and must
        # hit the same cache entry.
        circuit = self.wide_noisy_circuit()
        model = noisy_model()
        engine = ExecutionEngine()
        implicit = engine.execute(circuit, model, seed=6)
        explicit = engine.execute(circuit, model, shots=4096, seed=6)
        assert implicit.method == "trajectory"
        assert engine.stats.cache_hits == 1
        assert implicit.counts.to_dict() == explicit.counts.to_dict()

    def test_non_positive_shots_rejected(self):
        engine = ExecutionEngine()
        with pytest.raises(ValueError, match="shots"):
            engine.execute(ghz(), noisy_model(), shots=0)
        with pytest.raises(ValueError, match="shots"):
            engine.execute(self.wide_noisy_circuit(), noisy_model(), shots=-5)

    def test_non_positive_max_trajectories_rejected(self):
        # A zero budget used to fall back to the engine default, and a
        # negative one to fail inside the task; both are argument errors.
        engine = ExecutionEngine()
        for budget in (0, -3):
            with pytest.raises(ValueError, match="max_trajectories must be positive"):
                engine.execute(
                    self.wide_noisy_circuit(), noisy_model(), shots=64, seed=1,
                    max_trajectories=budget,
                )
        assert engine.stats.executed == 0
        with pytest.raises(ValueError, match="max_trajectories must be positive"):
            ExecutionEngine(max_trajectories=0)

    def test_matches_loop_implementation_statistically(self):
        # Bell pair with depolarizing noise: compare the batched sampler with
        # the exact density-matrix distribution.
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1).measure_all()
        model = noisy_model()
        exact = execute(qc, model, method="density_matrix").distribution
        counts, _ = simulate_trajectories_batched(
            qc, model, shots=20000, seed=3, max_trajectories=300
        )
        sampled = counts.to_distribution()
        for outcome in range(4):
            assert sampled[outcome] == pytest.approx(exact[outcome], abs=0.02)

    def test_general_channels_supported(self):
        # Amplitude damping is not a unitary mixture; the batched sampler
        # must fall back to exact Born sampling and still match.
        from repro.noise.channels import amplitude_damping_channel

        model = NoiseModel()
        model.set_default_1q_error(amplitude_damping_channel(0.3))
        qc = QuantumCircuit(1, 1)
        qc.x(0)
        qc.measure(0, 0)
        exact = execute(qc, model, method="density_matrix").distribution
        counts, _ = simulate_trajectories_batched(
            qc, model, shots=20000, seed=9, max_trajectories=400
        )
        sampled = counts.to_distribution()
        assert sampled[0] == pytest.approx(exact[0], abs=0.02)
        assert sampled[1] == pytest.approx(exact[1], abs=0.02)


def _identical(a, b) -> bool:
    return (
        a.distribution.items() == b.distribution.items()
        and a.counts.items() == b.counts.items()
        and a.measured_qubits == b.measured_qubits
        and a.method == b.method
        and a.shots == b.shots
    )


class TestSampledStateCache:
    """Seeded sampled requests share one readout-free run per ``traj-state``
    key; each requester's readout flips are applied on top."""

    SHOTS = 1000
    TRAJECTORIES = 40

    @staticmethod
    def _circuit() -> QuantumCircuit:
        # Wider than the density-matrix threshold: auto-selection runs the
        # trajectory ensemble.
        qc = QuantumCircuit(12, 12)
        for q in range(12):
            qc.rx(0.3 + 0.1 * q, q)
        for q in range(11):
            qc.cx(q, q + 1)
        qc.t(3)
        qc.measure_all()
        return qc

    @staticmethod
    def _count_ensembles(monkeypatch) -> list:
        from repro.simulators import parallel

        calls = []
        original = parallel.simulate_trajectories_ensemble

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(parallel, "simulate_trajectories_ensemble", counting)
        return calls

    def _execute(self, engine, noise, **kwargs):
        kwargs.setdefault("seed", 7)
        return engine.execute(
            self._circuit(), noise, shots=self.SHOTS, max_trajectories=self.TRAJECTORIES, **kwargs
        )

    def test_readout_sweep_runs_one_ensemble_and_matches_fresh_runs(self, monkeypatch):
        base = NoiseModel.depolarizing(p1=0.002, p2=0.01, readout=0.01)
        noises = [base.with_readout_scaled(factor) for factor in (1.0, 4.0, 16.0)]
        engine = ExecutionEngine()
        calls = self._count_ensembles(monkeypatch)
        swept = [self._execute(engine, noise) for noise in noises]
        assert len(calls) == 1
        assert [key[0] for key in engine._cache].count("traj-state") == 1
        assert engine.stats.state_cache_hits == 2
        assert engine.stats.executed == 3
        assert swept[0].method == "trajectory"
        assert swept[0].counts.items() != swept[-1].counts.items()
        from repro.simulators.engine import _derive_seed

        seed = _derive_seed(7, circuit_fingerprint(self._circuit()))
        for noise, result in zip(noises, swept):
            fresh = self._execute(ExecutionEngine(), noise)
            plain = execute(
                self._circuit(), noise, shots=self.SHOTS, seed=seed,
                max_trajectories=self.TRAJECTORIES, kernel_backend=engine.kernel_backend,
            )
            assert _identical(result, fresh)
            assert _identical(result, plain)

    def test_state_line_warm_starts_a_new_engine(self, tmp_path, monkeypatch):
        noise = NoiseModel.depolarizing(p1=0.002, p2=0.01, readout=0.02)
        self._execute(ExecutionEngine(cache_dir=str(tmp_path)), noise)
        calls = self._count_ensembles(monkeypatch)
        warm = ExecutionEngine(cache_dir=str(tmp_path))
        result = self._execute(warm, noise.with_readout_scaled(3.0))
        assert calls == []  # no simulation: the state line came from disk
        assert warm.stats.state_cache_hits == 1
        assert warm.stats.persistent_hits == 1
        monkeypatch.undo()
        assert _identical(result, self._execute(ExecutionEngine(), noise.with_readout_scaled(3.0)))

    def test_unseeded_requests_write_no_state_line(self, monkeypatch):
        noise = NoiseModel.depolarizing(p1=0.002, p2=0.01, readout=0.02)
        engine = ExecutionEngine()
        self._execute(engine, noise)
        assert [key[0] for key in engine._cache].count("traj-state") == 1
        calls = self._count_ensembles(monkeypatch)
        first = self._execute(engine, noise.with_readout_scaled(2.0), seed=None)
        second = self._execute(engine, noise.with_readout_scaled(2.0), seed=None)
        # Each unseeded request runs its own full-noise ensemble: it neither
        # reads the seeded state line nor writes one of its own.
        assert len(calls) == 2
        assert [key[0] for key in engine._cache].count("traj-state") == 1
        assert engine.cache_len == 2
        assert engine.stats.state_cache_hits == 0
        assert engine.stats.uncacheable == 2
        assert first.counts.items() != second.counts.items()


class TestReadOut:
    """The shared readout tail of the sampled methods."""

    @staticmethod
    def _noise() -> NoiseModel:
        from repro.noise import ReadoutError

        noise = NoiseModel()
        noise.set_readout_error(ReadoutError(0.02, 0.05), qubit=0)
        noise.set_readout_error(ReadoutError(0.10, 0.20), qubit=1)
        return noise  # qubit 2 reads out perfectly

    def test_per_bit_flip_frequencies(self):
        from repro.distributions import Counts
        from repro.simulators.trajectory import read_out

        shots = 20000
        zeros = read_out(Counts({0b000: shots}, 3), self._noise(), [0, 1, 2], seed=11)
        ones = read_out(Counts({0b111: shots}, 3), self._noise(), [0, 1, 2], seed=12)
        assert zeros.shots == ones.shots == shots
        # Each frequency is a mean of N = 20000 Bernoulli flips; Hoeffding
        # gives P(|freq - p| >= 0.016) <= 2 exp(-2 N 0.016^2) ~= 7e-5, so
        # the four assertions fail under re-seeding with probability < 3e-4.
        for bit, (p_1_given_0, p_0_given_1) in enumerate([(0.02, 0.05), (0.10, 0.20)]):
            up = sum(n for outcome, n in zeros.items() if outcome >> bit & 1) / shots
            down = sum(n for outcome, n in ones.items() if not outcome >> bit & 1) / shots
            assert up == pytest.approx(p_1_given_0, abs=0.016)
            assert down == pytest.approx(p_0_given_1, abs=0.016)
        # The error-free bit never flips.
        assert all(not outcome & 0b100 for outcome, _ in zeros.items())
        assert all(outcome & 0b100 for outcome, _ in ones.items())

    def test_same_seed_same_flips(self):
        from repro.distributions import Counts
        from repro.simulators.trajectory import read_out

        counts = Counts({0b000: 300, 0b101: 700, 0b111: 1000}, 3)
        flipped = read_out(counts, self._noise(), [0, 1, 2], seed=3)
        # Outcomes are expanded in sorted order, so the input's order
        # does not matter.
        reordered = Counts({0b111: 1000, 0b101: 700, 0b000: 300}, 3)
        assert read_out(reordered, self._noise(), [0, 1, 2], seed=3).items() == flipped.items()
        assert read_out(counts, self._noise(), [0, 1, 2], seed=4).items() != flipped.items()
        assert read_out(counts, NoiseModel(), [0, 1, 2], seed=3) is counts


def _body_batch() -> list[QuantumCircuit]:
    """Circuits that share bodies, body-mates adjacent as QSPC emits them.

    QSPC-style basis copies (preparation outer, measurement basis inner),
    Jigsaw-style measured subsets of one circuit, and empty tails: a body
    ending in a noisy cx with only measurements (or nothing) after it.
    """
    circuits = []
    for prep in ("0", "1", "+"):
        for basis in ("Z", "X", "Y"):
            qc = QuantumCircuit(3, 2)
            if prep != "0":
                qc.prepare(prep, 0)
            qc.h(1).cx(0, 1).rz(0.4, 1).cx(1, 2).rx(0.2, 2)
            for q in (0, 1):
                if basis == "Y":
                    qc.sdg(q)
                if basis != "Z":
                    qc.h(q)
            qc.measure_subset([0, 1])
            circuits.append(qc)
    for subset in ([0, 1], [1, 2], [0, 2], [0, 1, 2]):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).ry(0.7, 2).cx(1, 2).h(0).s(2)
        circuits.append(qc.measure_subset(subset))
    for subset in ([0, 1], [2], None):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).rx(0.3, 2).cx(1, 2)
        circuits.append(qc if subset is None else qc.measure_subset(subset))
    return circuits


def _body_noise(kind: str) -> NoiseModel:
    if kind == "readout-only":
        from repro.noise import ReadoutError

        return NoiseModel().set_readout_error(ReadoutError(0.03, 0.06))
    return NoiseModel.depolarizing(p1=0.01, p2=0.05, readout=0.03)


class TestSharedBodies:
    """Density-matrix tasks of a batch that share a body evolve it once.

    Each body-mate's task carries the shared body and its own tail, and
    continues from the executor memo's body state; the results must be
    exactly those of each circuit run alone.
    """

    @pytest.mark.parametrize("noise_kind", ["depolarizing", "readout-only"])
    @pytest.mark.parametrize(
        "route", [{}, {"workers": 2}, {"workers": 2, "chunk_size": 1}], ids=["serial", "pool", "chunk1"]
    )
    @pytest.mark.parametrize("sampling", [{}, {"shots": 512, "seed": 11}], ids=["exact", "shots"])
    def test_every_slot_equals_its_circuit_run_alone(self, noise_kind, route, sampling):
        noise = _body_noise(noise_kind)
        circuits = _body_batch()
        with ExecutionEngine(**route) as engine:
            batch = engine.execute_many(circuits, noise, **sampling)
        for circuit, result in zip(circuits, batch):
            with ExecutionEngine() as alone:
                expected = alone.execute(circuit, noise, **sampling)
            assert result.distribution.items() == expected.distribution.items()
            assert result.measured_qubits == expected.measured_qubits
            assert (result.counts is None) == (expected.counts is None)
            assert result.counts is None or result.counts.items() == expected.counts.items()

    def test_basis_copies_evolve_their_body_once(self, monkeypatch):
        from repro.simulators import parallel

        evolved = []
        evolve = parallel.simulate_density_matrix

        def counting(circuit, *args, **kwargs):
            evolved.append(circuit)
            return evolve(circuit, *args, **kwargs)

        monkeypatch.setattr(parallel, "simulate_density_matrix", counting)
        copies = _body_batch()[:9]  # three preparations x three bases
        with ExecutionEngine() as engine:
            results = engine.execute_many(copies, _body_noise("depolarizing"))
        assert all(result.ok for result in results)
        assert engine.stats.executed == 9
        # One body per preparation, each evolved once for its three bases.
        assert len(evolved) == 3
        assert len({circuit_fingerprint(body) for body in evolved}) == 3

    def test_body_state_is_read_only(self, monkeypatch):
        from repro.simulators import density_matrix
        from repro.simulators.fusion import split_body
        from repro.simulators.parallel import CompactTask, run_compact_task

        noise = _body_noise("depolarizing")
        body, tail = split_body(_body_batch()[1], noise)
        task = CompactTask(
            circuit=tail, noise=noise, method="density_matrix", shots=None, seed=None,
            max_trajectories=1, body=body,
        )
        memo: dict = {}
        run_compact_task(task, memo)
        assert memo["body"] is body
        assert not memo["state"].data.flags.writeable

        def in_place(rho, plan, backend="numpy"):
            rho *= 1.0
            return rho

        # A tail kernel writing into its input raises instead of corrupting
        # the body state the next body-mate continues from.
        monkeypatch.setattr(density_matrix, "apply_plan_to_density_matrix", in_place)
        with pytest.raises(ValueError, match="read-only"):
            run_compact_task(task, memo)


class TestDefaultEngine:
    def test_default_engine_is_shared(self):
        assert get_default_engine() is get_default_engine()

    def test_default_engine_is_a_plain_in_process_engine(self):
        engine = get_default_engine()
        assert engine.workers is None
        assert engine.tracer is None
        assert engine.persistent_cache is None
        assert engine.kernel_backend == "numpy"


CONSUMERS = ["QuTracer", "virtual_pauli_check", "run_jigsaw", "run_pcs", "run_sqem"]


def _qutracer(engine: ExecutionEngine | None):
    """A QuTracer on ``engine`` (its own when ``None``)."""
    from repro.core import QuTracer

    return QuTracer(
        noise_model=noisy_model(), shots=1000, shots_per_circuit=256, seed=1, engine=engine
    )


def _run_consumer(name: str, engine: ExecutionEngine) -> None:
    """One small run of an engine consumer, given ``engine``."""
    from repro.core import virtual_pauli_check
    from repro.mitigation import PauliCheck, run_jigsaw, run_pcs, run_sqem

    noise = noisy_model()
    if name == "QuTracer":
        _qutracer(engine).run(ghz(), subset_size=1)
    elif name == "virtual_pauli_check":
        segment = QuantumCircuit(1)
        segment.x(0)
        rho = np.diag([1.0, 0.0]).astype(complex)
        virtual_pauli_check(segment, [0], rho, ["Z"], noise, observables=["Z"], seed=1, engine=engine)
    elif name == "run_jigsaw":
        run_jigsaw(ghz(), noise, shots=1000, subset_size=1, seed=1, engine=engine)
    elif name == "run_pcs":
        run_pcs(ghz(), [PauliCheck(pauli={0: "Z"}, region=(1, 3))], noise, seed=1, engine=engine)
    else:
        run_sqem(ghz(), noise, shots=1000, shots_per_circuit=256, seed=1, engine=engine)


class TestConsumersTakeAnEngine:
    """The QuTracer and mitigation consumers are configured by the engine
    they are given: every request goes through it."""

    @pytest.mark.parametrize("name", CONSUMERS)
    def test_every_request_goes_through_the_given_engine(self, name):
        default = get_default_engine()
        default_requests = default.stats.requests
        engine = ExecutionEngine()
        _run_consumer(name, engine)
        assert engine.stats.requests > 0
        assert engine.stats.executed > 0
        assert default.stats.requests == default_requests

    def test_close_leaves_a_passed_engine_to_its_owner(self, monkeypatch):
        closed = []
        passed = ExecutionEngine()
        monkeypatch.setattr(passed, "close", lambda: closed.append("passed"))
        with _qutracer(passed) as owner:
            assert owner.engine is passed
        assert closed == []
        # An engine the object built itself is closed with it.
        owner = _qutracer(None)
        assert owner.engine is not passed
        monkeypatch.setattr(owner.engine, "close", lambda: closed.append("owned"))
        owner.close()
        assert closed == ["owned"]


class TestArchitecture:
    """Guardrails on the shape of ``engine.py``, checked on its syntax tree.

    The engine plans, caches and delivers; it never computes.  Serial and
    pool execution agree because they share code, and these rules keep
    that code single: one builder for the readout-factored state keys
    (``dm-state`` and ``traj-state``), and
    :func:`~repro.simulators.parallel.run_compact_task` as the only
    simulator entry point the engine can reach.  Instrumentation has one
    path too: ``EngineStats`` is a plain dataclass that holds the counts,
    and one function records every execution into the trace.
    """

    BACKEND_MODULES = ("density_matrix", "ensemble", "statevector", "trajectory")

    @staticmethod
    def _engine_tree():
        import ast
        import pathlib

        from repro.simulators import engine

        return ast.parse(pathlib.Path(engine.__file__).read_text())

    def test_one_function_builds_dm_state_keys(self):
        import ast

        builders: list[tuple[str, str | None]] = []

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if (
                isinstance(node, ast.Tuple)
                and node.elts
                and isinstance(node.elts[0], ast.Constant)
                and node.elts[0].value in ("dm-state", "traj-state")
            ):
                builders.append((node.elts[0].value, function))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(self._engine_tree(), None)
        # Both kinds of state key exist, and one function builds them all.
        assert {kind for kind, _ in builders} == {"dm-state", "traj-state"}, builders
        assert len({function for _, function in builders}) == 1, builders

    def test_only_run_compact_task_computes(self):
        import ast
        import importlib
        import inspect

        entry_points = {"run_compact_task", *self.BACKEND_MODULES}
        for name in (*self.BACKEND_MODULES, "execute"):
            module = importlib.import_module(f"repro.simulators.{name}")
            entry_points.update(
                symbol for symbol in module.__all__ if inspect.isfunction(getattr(module, symbol))
            )
        imported = {
            alias.name
            for node in ast.walk(self._engine_tree())
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert imported & entry_points == {"run_compact_task"}

    def test_engine_stats_is_a_plain_dataclass(self):
        import ast

        (stats,) = [
            node
            for node in ast.walk(self._engine_tree())
            if isinstance(node, ast.ClassDef) and node.name == "EngineStats"
        ]
        methods = {node.name for node in stats.body if isinstance(node, ast.FunctionDef)}
        assert not methods & {"__getattribute__", "__getattr__", "__setattr__", "_bind"}, methods

    def test_one_function_records_executions(self):
        """Every route's execute events come from one writer."""
        import ast

        emitters: set[str] = set()
        for function in ast.walk(self._engine_tree()):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("emit", "event")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "execute"
                ):
                    emitters.add(function.name)
        assert emitters == {"_record_execute"}, emitters

    def test_execution_options_live_on_the_engine(self):
        """Execution is configured on the engine and nowhere else.

        No public callable of the simulator, core or mitigation packages
        takes a fusion, fusion-width or compaction toggle: every simulator
        fuses at the cost-model width and the engine always compacts.  Only
        the engine, and the sharder and persistent cache it builds from
        them, take the process-count, cache-directory and retry settings;
        the engine's consumers take an engine.
        """
        import dataclasses
        import importlib
        import inspect

        from repro import simulators
        from repro.simulators import CompactTask

        toggles = {"fusion", "fusion_max_qubits", "compact"}
        settings = {"workers", "cache_dir", "retry_policy"}
        owners = {
            "ExecutionEngine.__init__",
            "ParallelSharder.__init__",
            "PersistentResultCache.__init__",
        }
        violations = []
        for package in ("simulators", "core", "mitigation"):
            module = importlib.import_module(f"repro.{package}")
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj):
                    callables = [(name, obj)]
                elif inspect.isclass(obj):
                    callables = [
                        (f"{name}.{attr}", getattr(obj, attr))
                        for attr in vars(obj)
                        if attr == "__init__" or not attr.startswith("_")
                    ]
                else:
                    continue
                for qualname, function in callables:
                    if not (inspect.isfunction(function) or inspect.ismethod(function)):
                        continue
                    params = set(inspect.signature(function).parameters)
                    banned = toggles if qualname in owners else toggles | settings
                    if params & banned:
                        violations.append((f"repro.{package}.{qualname}", sorted(params & banned)))
        assert not violations, violations
        fields = {field.name for field in dataclasses.fields(CompactTask)}
        assert not fields & (toggles | settings), fields
        assert not hasattr(simulators, "execute_many")

    def test_retired_backends_stay_gone(self, tmp_path):
        """No calibration subsystem, stabilizer backend, metrics registry,
        fault injector or retry policy.

        No paper workload learns a noise model, simulates a Clifford
        tableau, reads a metrics registry, injects a fault or retries a
        simulation, so all five were deleted; neither the packages, the
        module, the method name, the classes, the engine stats nor the
        engine's and cache's parameters and hooks may come back.
        """
        import dataclasses
        import importlib.util
        import inspect
        import pathlib

        from repro import simulators
        from repro.simulators import EngineStats, PersistentResultCache
        from repro.simulators.parallel import METHODS

        assert importlib.util.find_spec("repro.calibration") is None
        assert importlib.util.find_spec("repro.metrics") is None
        assert not (pathlib.Path(simulators.__file__).parent / "stabilizer.py").exists()
        assert "stabilizer" not in METHODS
        assert "stabilizer_executed" not in {f.name for f in dataclasses.fields(EngineStats)}
        params = set(inspect.signature(ExecutionEngine.__init__).parameters)
        assert not params & {"metrics", "metrics_dir", "retry_policy", "on_error"}, params
        retired = {
            "FaultInjector",
            "RetryPolicy",
            "TransientSimulationError",
            "CacheCorruptionError",
            "WorkerCrashError",
        }
        assert not {name for name in retired if hasattr(simulators, name)}
        assert not hasattr(ExecutionEngine, "install_fault_injector")
        assert "retries" not in {f.name for f in dataclasses.fields(EngineStats)}
        assert not hasattr(PersistentResultCache(tmp_path), "fault_injector")

    def test_engine_runs_each_task_once(self):
        """The engine calls ``run_compact_task`` at one site, outside any loop.

        Running a pure function again gives the same failure, so nothing
        in the engine re-runs a task; only the sharder runs work again,
        when a pool worker died.
        """
        import ast

        sites = []

        def visit(node, function, loops):
            if isinstance(node, ast.FunctionDef):
                function, loops = node.name, 0
            if isinstance(node, (ast.For, ast.While, ast.comprehension)):
                loops += 1
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "run_compact_task"
            ):
                sites.append((function, loops))
            for child in ast.iter_child_nodes(node):
                visit(child, function, loops)

        visit(self._engine_tree(), None, 0)
        assert sites == [("_execute_task", 0)], sites

    @pytest.mark.parametrize("method", ["trajectory_loop", "auto"])
    def test_run_compact_task_runs_only_resolved_methods(self, method):
        """A task runs the method the engine resolved for it, or nothing."""
        from repro.simulators import CompactTask, run_compact_task

        task = CompactTask(
            circuit=ghz(2), noise=noisy_model(), method=method,
            shots=64, seed=1, max_trajectories=10,
        )
        with pytest.raises(ValueError, match="unresolved method"):
            run_compact_task(task)
