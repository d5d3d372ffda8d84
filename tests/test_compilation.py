"""Hardware-aware compilation: pass pipeline, CompilationCache, engine wiring.

Three contracts are guarded here:

* **Compilation correctness** — transpiling onto a real coupling map (layout
  + SABRE routing + basis translation) never changes the measured ideal
  distribution: classical bits carry each logical qubit through the routed
  permutation, and for unmeasured circuits the reported ``final_layout`` is
  exactly the permutation needed to read the output.  Property-tested over
  random 2–5 qubit circuits on the falcon / heavy-hex couplings.
* **Cache-key hygiene** — device-compiled and plain logical submissions can
  never collide in the engine's result cache, and compiled artifacts are
  content-addressed by (circuit, device, pipeline) so devices with
  different calibration get different addresses.
* **End-to-end device mode** — QuTracer / Jigsaw / PCS / SQEM accept
  ``device=`` and execute routed, basis-translated circuits through the
  engine's CompilationCache.
"""

import numpy as np
import pytest

from repro.algorithms import iqft_benchmark_circuit, qft_circuit, vqe_circuit
from repro.circuits import QuantumCircuit
from repro.distributions import hellinger_fidelity
from repro.mitigation import PauliCheck, run_jigsaw, run_pcs, run_sqem
from repro.noise import (
    NoiseModel,
    ReadoutError,
    fake_hanoi,
    fake_mumbai,
    falcon_27_coupling,
    heavy_hex_coupling,
)
from repro.core import QuTracer
from repro.simulators import ExecutionEngine, ideal_distribution
from repro.transpiler import (
    BASIS_GATES,
    AnalysisPass,
    ApplyLayout,
    BasisTranslation,
    CompilationCache,
    CouplingMap,
    GateCountAnalysis,
    PassManager,
    Peephole1QMerge,
    PropertySet,
    SabreRouting,
    TrivialLayoutPass,
    build_preset_pipeline,
    transpile,
)


def random_circuit(num_qubits: int, rng, depth: int = 4) -> QuantumCircuit:
    """Random 1q rotations + arbitrary-pair CXs, measured on every qubit."""
    qc = QuantumCircuit(num_qubits, num_qubits, f"random_{num_qubits}")
    for _ in range(depth):
        for q in range(num_qubits):
            qc.u(*(rng.uniform(0, 2 * np.pi, size=3)), q)
        if num_qubits >= 2:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            qc.cx(int(a), int(b))
    qc.measure_all()
    return qc


class TestCompilationPreservesDistributions:
    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "coupling_builder",
        [falcon_27_coupling, heavy_hex_coupling],
        ids=["falcon", "heavy-hex"],
    )
    def test_random_circuits_on_real_couplings(self, make_rng, num_qubits, coupling_builder):
        rng = make_rng(100 + num_qubits)
        coupling = CouplingMap(coupling_builder())
        for trial in range(3):
            circuit = random_circuit(num_qubits, rng)
            result = transpile(circuit, coupling_map=coupling)
            for inst in result.circuit.data:
                if inst.is_gate:
                    assert inst.name in BASIS_GATES
                if inst.is_two_qubit_gate:
                    assert coupling.are_adjacent(*inst.qubits)
            fidelity = hellinger_fidelity(
                ideal_distribution(circuit), ideal_distribution(result.circuit)
            )
            assert fidelity == pytest.approx(1.0, abs=1e-9), (num_qubits, trial)

    def test_device_pipeline_preserves_distribution(self, make_rng):
        rng = make_rng(7)
        device = fake_hanoi()
        for num_qubits in (3, 4):
            circuit = random_circuit(num_qubits, rng)
            result = transpile(circuit, device=device)
            fidelity = hellinger_fidelity(
                ideal_distribution(circuit), ideal_distribution(result.circuit)
            )
            assert fidelity == pytest.approx(1.0, abs=1e-9)

    def test_final_layout_reads_unmeasured_outputs(self, make_rng):
        # Without measurements there are no clbits to absorb the routed
        # permutation: final_layout must be exactly the map that reads the
        # physical output back into logical order.
        rng = make_rng(21)
        coupling = CouplingMap([(0, 1), (1, 2), (2, 3)])
        circuit = random_circuit(4, rng).remove_final_measurements()
        result = transpile(circuit, coupling_map=coupling, basis=False)
        physical = ideal_distribution(result.circuit)
        logical_view = physical.marginal(
            [result.final_layout.physical(q) for q in range(4)]
        )
        assert hellinger_fidelity(ideal_distribution(circuit), logical_view) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_qft_on_falcon_needs_and_survives_routing(self):
        # All-to-all interactions on a sparse map force real SWAP work.
        circuit = qft_circuit(5)
        circuit.measure_all()
        result = transpile(circuit, coupling_map=CouplingMap(falcon_27_coupling()))
        assert result.swaps_inserted > 0
        assert hellinger_fidelity(
            ideal_distribution(circuit), ideal_distribution(result.circuit)
        ) == pytest.approx(1.0, abs=1e-9)


class TestPassPipeline:
    def test_property_set_records_pass_stats(self):
        circuit = qft_circuit(4)
        circuit.measure_all()
        result = transpile(circuit, coupling_map=CouplingMap([(0, 1), (1, 2), (2, 3)]))
        properties = result.property_set
        assert properties["routing"]["swaps_inserted"] == result.swaps_inserted
        assert "gates_merged" in properties["peephole"]
        assert properties["two_qubit_gate_count"] == result.two_qubit_gate_count
        assert properties["basis"]["two_qubit_gates"] == result.two_qubit_gate_count
        assert properties["depth"] == result.circuit.depth()

    def test_custom_pass_manager(self):
        manager = PassManager([TrivialLayoutPass(), ApplyLayout(), Peephole1QMerge()])
        circuit = QuantumCircuit(1)
        for _ in range(6):
            circuit.h(0).t(0)
        compiled, properties = manager.run(circuit, PropertySet())
        assert len(compiled.gates) == 1  # twelve 1q gates merged into one unitary
        assert properties["peephole"]["gates_merged"] == 11

    def test_analysis_pass_must_not_rewrite(self):
        class Broken(AnalysisPass):
            name = "broken"

            def run(self, circuit, properties):
                return circuit

        with pytest.raises(TypeError, match="broken"):
            PassManager([Broken()]).run(QuantumCircuit(1))

    def test_pipeline_signature_identifies_configuration(self):
        default = build_preset_pipeline()
        assert default.signature() == build_preset_pipeline().signature()
        assert default.signature() != build_preset_pipeline(seed=3).signature()
        assert default.signature() != build_preset_pipeline(basis=False).signature()
        assert "sabre_routing" in default.signature()

    def test_two_qubit_gate_count_is_arity_based(self):
        # A routed SWAP that survives (basis=False) is two-qubit work; the
        # old {cx, cz} name filter counted it as zero.  QFT's all-to-all
        # interaction graph cannot be embedded in a line, so SWAPs survive
        # even after bidirectional preconditioning.
        qc = qft_circuit(4)
        qc.measure_all()
        result = transpile(qc, coupling_map=CouplingMap([(0, 1), (1, 2), (2, 3)]), basis=False)
        ops = result.circuit.count_ops()
        swaps = ops.get("swap", 0)
        assert swaps > 0
        assert result.two_qubit_gate_count == swaps + ops.get("cp", 0)

    def test_basis_false_preserves_gate_names(self):
        # basis=False must leave the input gate stream inspectable
        # name-for-name (plus routed SWAPs): no peephole u1q rewriting.
        qc = qft_circuit(4)
        qc.measure_all()
        result = transpile(qc, coupling_map=CouplingMap([(0, 1), (1, 2), (2, 3)]), basis=False)
        original_ops = qc.count_ops()
        routed_ops = result.circuit.count_ops()
        assert "u1q" not in routed_ops
        for name, count in original_ops.items():
            if name == "swap":  # routing adds SWAPs on top of QFT's own
                assert routed_ops[name] >= count
            else:
                assert routed_ops[name] == count


class TestCompilationCache:
    def test_warm_hits_and_content_addressing(self):
        device = fake_hanoi()
        cache = CompilationCache()
        circuit = vqe_circuit(4, 1, seed=3)
        first = cache.get_or_compile(circuit, device)
        second = cache.get_or_compile(circuit.copy(), device)
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1
        assert second is first

    def test_key_separates_devices_and_pipelines(self):
        circuit = vqe_circuit(4, 1, seed=3)
        circuit.measure_all()
        hanoi, mumbai = fake_hanoi(), fake_mumbai()
        cache_a, cache_b = CompilationCache(), CompilationCache(seed=9)
        key_hanoi = cache_a.key_for(circuit, hanoi)
        key_mumbai = cache_a.key_for(circuit, mumbai)
        assert key_hanoi != key_mumbai  # device fingerprint differs
        assert cache_a.key_for(circuit, hanoi) != cache_b.key_for(circuit, hanoi)  # pipeline seed

    def test_recalibrated_device_gets_its_own_address(self):
        import dataclasses

        from repro.noise import DeviceModel

        device = fake_hanoi()
        calibrations = dict(device.qubit_calibrations)
        calibrations[0] = dataclasses.replace(
            calibrations[0], readout_error=calibrations[0].readout_error + 0.01
        )
        recalibrated = DeviceModel(
            device.name, device.num_qubits, device.coupling_edges,
            calibrations, device.edge_calibrations,
        )
        assert recalibrated.fingerprint() != device.fingerprint()
        assert recalibrated.coupling_map().edges == device.coupling_map().edges
        circuit = vqe_circuit(4, 1, seed=3)
        cache = CompilationCache()
        assert cache.key_for(circuit, recalibrated) != cache.key_for(circuit, device)

    def test_engine_persistent_compilation_warm_start(self, tmp_path):
        device = fake_hanoi()
        circuit = iqft_benchmark_circuit(3, value=5)
        with ExecutionEngine(cache_dir=str(tmp_path)) as engine:
            engine.execute(circuit, device=device, shots=256, seed=1)
            assert engine.stats.compile_misses == 1
        with ExecutionEngine(cache_dir=str(tmp_path)) as fresh:
            fresh.execute(circuit, device=device, shots=256, seed=1)
            assert fresh.stats.compile_misses == 0
            assert fresh.stats.compile_hits == 1


class TestEngineDeviceMode:
    def test_device_and_logical_submissions_never_collide(self):
        device = fake_hanoi()
        circuit = iqft_benchmark_circuit(3, value=5)
        engine = ExecutionEngine()
        compiled_result = engine.execute(circuit, device=device)
        logical_result = engine.execute(circuit, device.noise_model())
        # Each submission executed fresh: no cross-talk between the
        # device-compiled key and the logical key.
        assert engine.stats.cache_misses == 2
        assert engine.stats.cache_hits == 0
        # And each is served from its own cache line thereafter.
        engine.execute(circuit, device=device)
        engine.execute(circuit, device.noise_model())
        assert engine.stats.cache_hits == 2
        assert engine.stats.cache_misses == 2
        # The compiled run executed routed/translated gates on good qubits,
        # so the two distributions are genuinely different objects.
        assert compiled_result.measured_qubits == logical_result.measured_qubits

    def test_measured_qubits_are_logical(self):
        device = fake_hanoi()
        qc = QuantumCircuit(3, 3)
        qc.h(0).cx(0, 1).cx(1, 2)
        qc.measure(1, 1)
        qc.measure(2, 2)
        result = ExecutionEngine().execute(qc, device=device)
        assert result.measured_qubits == [1, 2]
        assert result.distribution.num_bits == 2

    def test_unmeasured_submission_is_measure_alled(self):
        device = fake_hanoi()
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        result = ExecutionEngine().execute(qc, device=device)
        assert result.measured_qubits == [0, 1]
        assert result.distribution.num_bits == 2

    def test_noise_override_is_physical_wire_space(self):
        # An explicit noise_model passed with device= applies to the
        # *compiled physical* circuit — logical-qubit-indexed channels do
        # not follow their qubits through layout/routing (they drift wire
        # to wire through SWAPs, so they can't).  The documented contract:
        # noise applies to the circuit being executed.  Per-physical-wire
        # readout noise on the wire the layout actually picks shows up;
        # the same noise on a wire the layout avoids does not.
        device = fake_hanoi()
        qc = QuantumCircuit(1, 1)
        qc.x(0)
        qc.measure(0, 0)
        compiled = ExecutionEngine().compile(qc, device)
        chosen_wire = compiled.layout[0]
        flip_chosen = NoiseModel()
        flip_chosen.set_readout_error(ReadoutError(0.5, 0.5), chosen_wire)
        result = ExecutionEngine().execute(qc, flip_chosen, device=device)
        assert result.distribution.to_dict()[1] == pytest.approx(0.5)
        idle_wire = next(w for w in range(device.num_qubits) if w != chosen_wire)
        flip_idle = NoiseModel()
        flip_idle.set_readout_error(ReadoutError(0.5, 0.5), idle_wire)
        result = ExecutionEngine().execute(qc, flip_idle, device=device)
        assert result.distribution.to_dict().get(1, 0.0) == pytest.approx(1.0)

    def test_device_mode_distribution_matches_logical_semantics(self):
        # With an ideal override the compiled circuit must reproduce the
        # logical circuit's exact distribution: routing + basis translation
        # + clbit delivery is semantics-preserving end to end.
        device = fake_hanoi()
        circuit = iqft_benchmark_circuit(3, value=5)
        result = ExecutionEngine().execute(circuit, NoiseModel.ideal(), device=device)
        assert hellinger_fidelity(
            result.distribution, ideal_distribution(circuit)
        ) == pytest.approx(1.0, abs=1e-9)

    def test_parallel_device_batch_matches_serial(self, make_rng):
        device = fake_hanoi()
        circuits = [random_circuit(n, make_rng(n)) for n in (2, 3, 2, 3)]
        engine = ExecutionEngine()
        serial = engine.execute_many(circuits, shots=256, seed=5, device=device)
        parallel = ExecutionEngine(workers=2).execute_many(
            circuits, shots=256, seed=5, device=device
        )
        for a, b in zip(serial, parallel):
            assert a.distribution.to_dict() == b.distribution.to_dict()
            assert a.measured_qubits == b.measured_qubits


class TestMitigationDeviceMode:
    def test_qutracer_compile_mode_end_to_end(self):
        device = fake_hanoi()
        circuit = iqft_benchmark_circuit(3, value=5)
        tracer = QuTracer(device=device, shots=4000, shots_per_circuit=512, seed=7, compile=True)
        outcome = tracer.run(circuit, subset_size=1)
        assert outcome.mitigated_fidelity > outcome.unmitigated_fidelity
        # Post-transpile gate counts are measured on compiled copies.
        assert outcome.average_copy_two_qubit_gates > 0
        # Every execution went through the compilation cache.
        assert tracer.engine.stats.compile_misses + tracer.engine.stats.compile_hits > 0

    def test_qutracer_compile_requires_device(self):
        with pytest.raises(ValueError, match="compile"):
            QuTracer(noise_model=NoiseModel.depolarizing(0.001, 0.01), compile=True)

    def test_jigsaw_and_pcs_accept_device(self):
        device = fake_hanoi()
        circuit = iqft_benchmark_circuit(3, value=5)
        engine = ExecutionEngine()
        jig = run_jigsaw(circuit, None, shots=2048, subset_size=1, seed=1, device=device, engine=engine)
        assert jig.mitigated_distribution.num_bits == 3
        pcs = run_pcs(
            circuit,
            [PauliCheck(pauli={0: "Z"}, region=(0, 3))],
            None,
            shots=2048,
            seed=2,
            device=device,
            engine=engine,
        )
        assert 0.0 <= pcs.post_selection_rate <= 1.0
        assert engine.stats.compile_misses > 0

    def test_pcs_ideal_checks_rejects_device(self):
        device = fake_hanoi()
        circuit = iqft_benchmark_circuit(3, value=5)
        with pytest.raises(ValueError, match="ideal_checks"):
            run_pcs(
                circuit,
                [PauliCheck(pauli={0: "Z"}, region=(0, 3))],
                None,
                ideal_checks=True,
                device=device,
            )

    def test_sqem_compile_passthrough(self):
        device = fake_hanoi()
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1).measure_all()
        result = run_sqem(qc, device=device, shots=1024, shots_per_circuit=256, seed=3, compile=True)
        assert 0.0 <= result.mitigated_fidelity <= 1.0
