"""Tests for the calibration & noise-learning subsystem.

Statistical assertions follow the conftest deflake policy: every stochastic
quantity is seeded, and each tolerance documents its failure probability
under re-seeding (binomial/Hoeffding for counts, fit-residual bookkeeping
for decay rates — see tests/conftest.py).
"""

import numpy as np
import pytest

from repro.calibration import (
    CALIBRATION_FORMAT_VERSION,
    CalibrationRecord,
    CalibrationRunner,
    LearnedDeviceModel,
    average_infidelity_from_pauli_fidelities,
    clifford_1q_group,
    confusion_matrix_from_counts,
    fit_exponential_decay,
    interleaved_gate_error,
    pair_readout_circuits,
    pauli_learning_circuits,
    rb_circuits,
    readout_calibration_circuits,
    survival_to_epc,
)
from repro.algorithms import iqft_benchmark_circuit
from repro.core import QuTracer
from repro.distributions import Counts
from repro.mitigation import PauliCheck, run_jigsaw, run_pcs
from repro.noise import (
    DeviceModel,
    EdgeCalibration,
    NoiseModel,
    QubitCalibration,
    ReadoutError,
    as_noise_model,
    depolarizing_channel,
    depolarizing_from_average_infidelity,
    joint_confusion_matrix,
)
from repro.simulators import ExecutionEngine, ideal_distribution


def tiny_device(readout=(0.03, 0.06, 0.02), sq=(3e-4, 5e-4, 2e-4), cx=(8e-3, 1.2e-2)):
    qubit_calibrations = {
        q: QubitCalibration(
            t1=120e3, t2=150e3, readout_error=readout[q], sq_error=sq[q], sq_gate_time=35.56
        )
        for q in range(3)
    }
    edge_calibrations = {
        (0, 1): EdgeCalibration(cx_error=cx[0], gate_time=400.0),
        (1, 2): EdgeCalibration(cx_error=cx[1], gate_time=450.0),
    }
    return DeviceModel("tiny", 3, [(0, 1), (1, 2)], qubit_calibrations, edge_calibrations)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


class TestExperiments:
    def test_clifford_group_closure_and_unitarity(self):
        group = clifford_1q_group()
        assert len(group) == 24
        for names, matrix in group:
            assert np.allclose(matrix @ matrix.conj().T, np.eye(2))
        # The identity element compiles to zero gates.
        assert any(len(names) == 0 for names, _ in group)

    def test_rb_sequences_invert_to_identity(self, make_rng):
        # The inverting Clifford makes ideal survival exactly 1 — validates
        # both the group's inverse lookup and the gate compilation.
        rng = make_rng(3)
        for spec in rb_circuits(1, (1, 5, 17), 2, rng, 3, interleaved_gate=None):
            assert ideal_distribution(spec.circuit)[0] == pytest.approx(1.0)
        for spec in rb_circuits(0, (4, 9), 2, rng, 2, interleaved_gate="x"):
            assert ideal_distribution(spec.circuit)[0] == pytest.approx(1.0)

    def test_pauli_learning_ideal_expectation_is_one(self, make_rng):
        # Sign tracking + basis rotations: for every spec, the noiseless
        # expectation of the ideally-evolved Pauli is exactly +1.
        rng = make_rng(5)
        specs = pauli_learning_circuits(
            (0, 1), ("XX", "YZ", "ZI", "IY", "XZ"), (1, 2, 4), 2, rng, 2
        )
        for spec in specs:
            value = spec.sign * ideal_distribution(spec.circuit).expectation_z(spec.parity_bits)
            assert value == pytest.approx(1.0), (spec.pauli, spec.depth, spec.interleaved)

    def test_pauli_learning_pairs_interleaved_with_reference(self, make_rng):
        specs = pauli_learning_circuits((0, 2), ("XX",), (2,), 1, make_rng(0), 3)
        assert len(specs) == 2
        interleaved = next(s for s in specs if s.interleaved)
        reference = next(s for s in specs if not s.interleaved)
        # Paired design: same twirls, so the circuits differ only by the CXs.
        assert interleaved.circuit.count_ops()["cx"] == 2
        assert "cx" not in reference.circuit.count_ops()

    def test_readout_chunking_bounds_circuit_width(self):
        specs = readout_calibration_circuits(range(27), 27, chunk_size=6)
        assert len(specs) == 2 * 5  # ceil(27/6) chunks, two basis states each
        for spec in specs:
            compact, _ = spec.circuit.compact_qubits()
            assert compact.num_qubits <= 6

    def test_pair_readout_patterns(self):
        specs = pair_readout_circuits([(4, 2)], 5)
        assert [s.pattern for s in specs] == [0, 1, 2, 3]
        # pattern bit i prepares pair[i]: pattern 1 flips qubit 4 only.
        ops = specs[1].circuit.count_ops()
        assert ops.get("x", 0) == 1
        assert specs[1].circuit.data[0].qubits == (4,)

    def test_invalid_inputs_rejected(self, make_rng):
        rng = make_rng(0)
        with pytest.raises(ValueError):
            pauli_learning_circuits((0, 0), ("XX",), (1,), 1, rng, 2)
        with pytest.raises(ValueError):
            pauli_learning_circuits((0, 1), ("II",), (1,), 1, rng, 2)
        with pytest.raises(ValueError):
            rb_circuits(0, (0,), 1, rng, 1)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


class TestFitting:
    def test_exponential_fit_recovers_clean_decay(self):
        lengths = np.array([1, 4, 16, 40, 80], dtype=float)
        truth = 0.55 * 0.991**lengths + 0.45
        fit = fit_exponential_decay(lengths, truth)
        assert fit.rate == pytest.approx(0.991, abs=1e-4)
        assert fit.amplitude == pytest.approx(0.55, abs=1e-3)
        assert fit.offset == pytest.approx(0.45, abs=1e-3)
        assert fit.residual_rms < 1e-6

    def test_exponential_fit_with_fixed_offset_and_noise(self, make_rng):
        rng = make_rng(9)
        lengths = np.repeat([2.0, 6.0, 12.0, 20.0], 3)
        truth = 0.97 * 0.985**lengths
        noisy = truth + rng.normal(0.0, 0.01, size=lengths.shape)
        fit = fit_exponential_decay(lengths, noisy, fixed_offset=0.0)
        # 12 points with sigma=0.01 put ~3e-3 of noise on the rate; the
        # seeded draw lands well inside 5 standard errors.
        assert fit.offset == 0.0
        assert fit.rate == pytest.approx(0.985, abs=5 * max(fit.rate_stderr, 1e-3))
        lo, hi = fit.confidence_interval()
        assert lo < fit.rate < hi

    def test_fit_input_validation(self):
        with pytest.raises(ValueError):
            fit_exponential_decay([1.0], [0.5])
        with pytest.raises(ValueError):
            fit_exponential_decay([1, 2], [0.5, 0.4], rate_bounds=(0.0, 2.0))

    def test_rb_conversions_match_depolarizing_conventions(self):
        # survival_to_epc and the Pauli-fidelity average must agree with the
        # KrausChannel fidelity conventions used everywhere else.
        for p, n in ((0.02, 1), (0.05, 2)):
            channel = depolarizing_channel(p, n)
            infidelity = 1.0 - channel.average_gate_fidelity()
            d2 = 4**n
            fidelities = [1.0 - p] * (d2 - 1)
            assert average_infidelity_from_pauli_fidelities(
                fidelities, num_qubits=n
            ) == pytest.approx(infidelity, rel=1e-10)
            # Round-trip through the device-model conversion as well.
            assert depolarizing_from_average_infidelity(infidelity, n) == pytest.approx(p)

    def test_interleaved_gate_error(self):
        assert interleaved_gate_error(0.99, 0.99 * 0.996) == pytest.approx(0.002)
        # Sampling noise cannot drive the estimate negative.
        assert interleaved_gate_error(0.99, 0.995) == 0.0
        with pytest.raises(ValueError):
            interleaved_gate_error(0.0, 0.5)
        assert survival_to_epc(0.99) == pytest.approx(0.005)

    def test_confusion_matrix_from_counts_is_column_stochastic(self):
        counts = {
            0: Counts({0: 90, 1: 6, 2: 4}, 2),
            1: Counts({1: 95, 0: 5}, 2),
            2: Counts({2: 97, 3: 3}, 2),
            3: Counts({3: 100}, 2),
        }
        matrix = confusion_matrix_from_counts(counts, bits=(0, 1))
        assert matrix.shape == (4, 4)
        assert np.allclose(matrix.sum(axis=0), 1.0)
        assert matrix[0, 0] == pytest.approx(0.90)
        assert matrix[1, 1] == pytest.approx(0.95)
        with pytest.raises(ValueError):
            confusion_matrix_from_counts({0: counts[0]}, bits=(0, 1))


# ---------------------------------------------------------------------------
# Record + learned model
# ---------------------------------------------------------------------------


class TestRecordAndLearnedModel:
    def test_record_round_trips_through_json(self, tmp_path):
        device = tiny_device()
        with CalibrationRunner(
            device, shots=1024, seed=3, rb_lengths=(2, 8), rb_samples=1,
            pauli_depths=(1, 3), pauli_samples=1, pauli_strings=("ZZ", "XX"),
        ) as runner:
            record = runner.run()
        path = tmp_path / "record.json"
        record.save(str(path))
        loaded = CalibrationRecord.load(str(path))
        assert loaded.to_dict() == record.to_dict()
        assert loaded.format_version == CALIBRATION_FORMAT_VERSION
        assert loaded.seed == 3 and loaded.shots == 1024
        assert loaded.calibrated_qubits == [0, 1, 2]
        assert loaded.calibrated_pairs == [(0, 1), (1, 2)]
        # The learned models built from the original and reloaded records
        # derive identical noise models.
        original = LearnedDeviceModel.from_record(record)
        reloaded = LearnedDeviceModel.from_record(loaded)
        assert original.noise_model().fingerprint() == reloaded.noise_model().fingerprint()

    def test_record_version_gate(self):
        data = {"format_version": 999, "device_name": "x", "num_qubits": 1,
                "coupling_edges": [], "created_at": "now", "seed": 0, "shots": 1}
        with pytest.raises(ValueError, match="version"):
            CalibrationRecord.from_dict(data)

    def test_learned_model_uses_asymmetric_readout(self):
        record = CalibrationRecord(
            device_name="tiny", num_qubits=2, coupling_edges=[(0, 1)],
            created_at="t", seed=0, shots=100,
            qubits={0: {"readout": {"prob_1_given_0": 0.1, "prob_0_given_1": 0.3}}},
            pairs={},
        )
        learned = LearnedDeviceModel.from_record(record)
        model = learned.noise_model()
        error = model.readout_error(0)
        assert error.prob_1_given_0 == pytest.approx(0.1)
        assert error.prob_0_given_1 == pytest.approx(0.3)
        # Uncalibrated qubit 1 falls back to the median learned average.
        fallback = model.readout_error(1)
        assert fallback.prob_1_given_0 == pytest.approx(0.2)

    def test_learned_t1_sentinel_keeps_channels_depolarizing(self):
        # The learned 1q channel's infidelity must equal the learned error
        # rate itself: relaxation is already folded in, never added twice.
        record = CalibrationRecord(
            device_name="tiny", num_qubits=1, coupling_edges=[], created_at="t",
            seed=0, shots=100, qubits={0: {"gate_error": 2e-3}}, pairs={},
        )
        learned = LearnedDeviceModel.from_record(record)
        channel = learned._single_qubit_channel(learned.qubit_calibrations[0])
        assert 1.0 - channel.average_gate_fidelity() == pytest.approx(2e-3, rel=1e-6)


# ---------------------------------------------------------------------------
# Runner end-to-end
# ---------------------------------------------------------------------------


class TestRunnerEndToEnd:
    def test_learns_tiny_device_within_tolerance(self):
        # Full pipeline against a 3-qubit reference.  Tolerances follow the
        # example's bookkeeping: at 8192 shots the binomial error on each
        # confusion entry is <= 0.0055, RB/Pauli decay ratios land within
        # ~10-20% of the channel infidelities (verified across seeds 5/11/23
        # during development; the pinned seed is deterministic).
        device = tiny_device()
        runner = CalibrationRunner(device, shots=8192, seed=5, rb_samples=3)
        learned = runner.learn()
        report = learned.compare_to(device)
        assert report["median_2q_channel_infidelity"]["relative_error"] <= 0.35
        assert report["median_readout_error"]["relative_error"] <= 0.25
        assert report["median_1q_channel_infidelity"]["relative_error"] <= 0.60
        for q in range(3):
            truth = device.qubit_calibrations[q].readout_error
            assert learned.readout_errors[q].prob_1_given_0 == pytest.approx(truth, abs=0.03)
            assert learned.readout_errors[q].prob_0_given_1 == pytest.approx(truth, abs=0.03)

    def test_pair_confusion_matches_tensor_of_qubit_confusions(self):
        # The measured 4x4 joint confusion must agree with the tensor of the
        # learned per-qubit errors (the simulator's readout is uncorrelated
        # by construction) — validating joint_confusion_matrix as the single
        # source of truth for correlated readout.
        device = tiny_device()
        runner = CalibrationRunner(
            device, rb_qubits=[], shots=8192, seed=7,
            pauli_depths=(1,), pauli_samples=1, pauli_strings=("ZZ",),
        )
        record = runner.run()
        for pair in ((0, 1), (1, 2)):
            measured = np.array(record.pairs[pair]["joint_confusion"])
            expected = joint_confusion_matrix(
                [record.readout_error(pair[0]), record.readout_error(pair[1])]
            )
            # Entries are binomial means of 8192 shots (sigma <= 0.0055) and
            # the two sides use independent samples: 0.03 is > 4 combined
            # sigmas per entry.
            assert np.max(np.abs(measured - expected)) <= 0.03

    def test_plan_is_deterministic_and_memoised(self):
        device = tiny_device()
        runner_a = CalibrationRunner(device, shots=64, seed=9, rb_samples=1)
        runner_b = CalibrationRunner(device, shots=64, seed=9, rb_samples=1)
        plan_a, plan_b = runner_a.plan(), runner_b.plan()
        assert runner_a.plan() is plan_a  # memoised
        assert len(plan_a) == len(plan_b)
        # Equal parameters share one cached build, so determinism in the
        # seed is checked against a second build that bypasses the cache.
        from repro.calibration.runner import _build_plan
        from repro.simulators import circuit_fingerprint

        rebuilt = _build_plan.__wrapped__(
            device.num_qubits,
            tuple(runner_a.qubits),
            tuple(runner_a.rb_qubits),
            tuple(runner_a.pairs),
            runner_a.rb_lengths,
            runner_a.rb_samples,
            runner_a.interleaved_gate,
            runner_a.pauli_strings,
            runner_a.pauli_depths,
            runner_a.pauli_samples,
            runner_a.readout_chunk_size,
            runner_a.seed,
        )
        assert len(rebuilt) == len(plan_a)
        for spec_a, spec_b, spec_c in zip(plan_a, plan_b, rebuilt):
            assert spec_c is not spec_a
            assert (
                circuit_fingerprint(spec_a.circuit)
                == circuit_fingerprint(spec_b.circuit)
                == circuit_fingerprint(spec_c.circuit)
            )

    def test_shared_engine_and_warm_rerun(self):
        # Re-calibration through the same engine is served from the cache:
        # the second run executes nothing new and reproduces the record.
        device = tiny_device()
        engine = ExecutionEngine()
        runner = CalibrationRunner(
            device, shots=512, seed=13, rb_lengths=(2, 6), rb_samples=1,
            pauli_depths=(1, 2), pauli_samples=1, pauli_strings=("ZZ", "XX"),
            engine=engine,
        )
        first = runner.run()
        executed_after_first = engine.stats.executed
        second = CalibrationRunner(
            device, shots=512, seed=13, rb_lengths=(2, 6), rb_samples=1,
            pauli_depths=(1, 2), pauli_samples=1, pauli_strings=("ZZ", "XX"),
            engine=engine,
        ).run()
        assert engine.stats.executed == executed_after_first
        assert first.qubits == second.qubits
        assert first.pairs == second.pairs
        # Provenance is per-run, not engine-lifetime: both records saw the
        # same number of requests, but the warm rerun executed nothing.
        first_stats = first.metadata["engine_stats"]
        second_stats = second.metadata["engine_stats"]
        assert first_stats["requests"] == second_stats["requests"] > 0
        assert first_stats["executed"] > 0
        assert second_stats["executed"] == 0
        assert second_stats["hit_rate"] == 1.0

    def test_runner_validates_topology(self):
        device = tiny_device()
        with pytest.raises(ValueError):
            CalibrationRunner(device, qubits=[7])
        with pytest.raises(ValueError):
            CalibrationRunner(device, pairs=[(0, 2)])
        with pytest.raises(ValueError):
            CalibrationRunner(device, shots=0)

    def test_duration_is_monotonic_and_non_negative(self):
        # Regression: duration_seconds used to come from time.time(),
        # which an NTP step can run backwards; it is now perf_counter
        # based and can never go negative.
        device = tiny_device()
        record = CalibrationRunner(
            device, shots=128, seed=3, rb_lengths=(2,), rb_samples=1,
            pauli_depths=(1,), pauli_samples=1, pauli_strings=("ZZ",),
        ).run()
        assert record.metadata["duration_seconds"] >= 0.0

    def test_record_links_its_execution_trace(self, tmp_path):
        # A traced engine stamps the calibration batch's trace ID into the
        # record, tying provenance to the persisted JSONL artifact.
        device = tiny_device()
        engine = ExecutionEngine(trace_dir=str(tmp_path / "traces"))
        record = CalibrationRunner(
            device, shots=128, seed=3, rb_lengths=(2,), rb_samples=1,
            pauli_depths=(1,), pauli_samples=1, pauli_strings=("ZZ",),
            engine=engine,
        ).run()
        assert record.metadata["trace_id"] == engine.tracer.last_trace_id
        assert engine.tracer.last_trace_path is not None
        # An untraced engine leaves no dangling key behind.
        untraced = CalibrationRunner(
            device, shots=128, seed=3, rb_lengths=(2,), rb_samples=1,
            pauli_depths=(1,), pauli_samples=1, pauli_strings=("ZZ",),
        ).run()
        assert "trace_id" not in untraced.metadata


# ---------------------------------------------------------------------------
# Wiring: learned models anywhere a NoiseModel is accepted
# ---------------------------------------------------------------------------


class TestLearnedModelWiring:
    def test_as_noise_model_coercion(self):
        device = tiny_device()
        model = as_noise_model(device)
        assert isinstance(model, NoiseModel)
        assert as_noise_model(model) is model
        with pytest.raises(TypeError):
            as_noise_model(42)

    def test_engine_and_mitigation_accept_devices_directly(self):
        device = tiny_device()
        circuit = iqft_benchmark_circuit(3, value=5)
        engine = ExecutionEngine()
        result = engine.execute(circuit, device, shots=256, seed=1)
        assert result.counts.shots == 256
        jig = run_jigsaw(circuit, device, shots=512, subset_size=1, seed=1, engine=engine)
        assert jig.mitigated_distribution.num_bits == 3

    def test_device_noise_model_is_memoised(self):
        # Repeated coercions (passing the device per engine call) must reuse
        # one derived model, not rebuild every channel.
        device = tiny_device()
        assert device.noise_model() is device.noise_model()
        assert as_noise_model(device) is as_noise_model(device)

    def test_none_noise_model_still_means_ideal(self):
        # Coercion must not break the pre-existing None -> ideal contract.
        circuit = iqft_benchmark_circuit(3, value=5)
        jig = run_jigsaw(circuit, None, shots=256, subset_size=1, seed=1)
        assert jig.mitigated_distribution.num_bits == 3
        # (ideal_checks=True requires a real model — it derives a
        # perfect-ancilla variant — so None is only meaningful without it.)
        pcs = run_pcs(circuit, [PauliCheck(pauli={0: "Z"}, region=(0, 1))], None)
        assert pcs.mitigated_distribution.num_bits == 3

    def test_qutracer_runs_against_learned_device(self):
        device = tiny_device()
        runner = CalibrationRunner(
            device, shots=2048, seed=5, rb_lengths=(2, 10), rb_samples=1,
            pauli_depths=(1, 4), pauli_samples=1, pauli_strings=("ZZ", "XX"),
        )
        learned = runner.learn()
        circuit = iqft_benchmark_circuit(3, value=5)
        with QuTracer(device=learned, shots=2048, shots_per_circuit=512, seed=7) as tracer:
            outcome = tracer.run(circuit, subset_size=1)
        assert 0.0 <= outcome.mitigated_fidelity <= 1.0
        # QuTracer's QSPC mitigation is structural: a comfortable margin
        # over the unmitigated run even on the learned stand-in.
        assert outcome.mitigated_fidelity > outcome.unmitigated_fidelity
