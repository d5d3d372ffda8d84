"""Tests for the QuTracer core: analysis, optimizations, QSPC and the driver."""

import itertools

import numpy as np
import pytest

from repro.algorithms import (
    iqft_benchmark_circuit,
    qaoa_maxcut_circuit,
    qpe_circuit,
    ring_graph,
    vqe_circuit,
)
from repro.circuits import QuantumCircuit, circuit_fingerprint
from repro.core import (
    QSPCOptions,
    QuTracer,
    QuTracerOptions,
    all_pauli_strings,
    analyse_subset,
    apply_local_unitary,
    conjugate_observables_through,
    default_subsets,
    false_dependency_removal,
    virtual_pauli_check,
)
from repro.core import tracer as tracer_module
from repro.core.qspc import _prepared_circuits
from repro.cutting import PREPARATION_LABELS, REDUCED_PREPARATION_LABELS
from repro.distributions import hellinger_fidelity
from repro.noise import NoiseModel, fake_hanoi, fake_mumbai
from repro.simulators import ExecutionEngine, execute, ideal_distribution, simulate_statevector
from repro.transpiler import noise_aware_layout


class TestAnalysis:
    def test_vqe_segmentation(self):
        circuit = vqe_circuit(4, 2, seed=1, measure=False)
        analysis = analyse_subset(circuit, [0])
        kinds = [s.kind for s in analysis.segments]
        # local Ry, entangling layer (+context), local Ry, entangling, local Ry(+ trailing context)
        assert kinds.count("local") >= 3
        assert sum(1 for s in analysis.segments if s.kind == "checked" and s.touches_subset([0])) == 2
        assert analysis.num_checked_layers >= 2

    def test_cz_layers_are_checkable(self):
        qc = QuantumCircuit(3)
        qc.cz(0, 1).cz(1, 2)
        analysis = analyse_subset(qc, [0])
        assert all(s.kind == "checked" for s in analysis.segments)

    def test_cx_target_on_subset_is_unchecked(self):
        qc = QuantumCircuit(2)
        qc.cx(1, 0)  # target on subset qubit 0: X-type action, not Z-checkable
        analysis = analyse_subset(qc, [0])
        assert analysis.segments[0].kind == "unchecked"

    def test_validation(self):
        qc = QuantumCircuit(2)
        with pytest.raises(ValueError):
            analyse_subset(qc, [0, 0])
        with pytest.raises(ValueError):
            analyse_subset(qc, [5])

    def test_default_subsets(self):
        assert default_subsets([0, 1, 2], 1) == [[0], [1], [2]]
        assert default_subsets([0, 1, 2, 3], 2) == [[0, 1], [2, 3]]
        with pytest.raises(ValueError):
            default_subsets([0], 0)


class TestOptimizations:
    def test_false_dependency_removal_qpe_pattern(self):
        # Controlled-phase gates that commute to the end and act outside the
        # subset must be removed (the paper's Fig. 5(c) -> (d) step).
        qc = QuantumCircuit(4)
        qc.cp(0.3, 0, 3)
        qc.cp(0.5, 1, 3)
        qc.cp(0.7, 2, 3)
        pruned = false_dependency_removal(qc, [2])
        assert pruned.count_ops().get("cp", 0) == 1
        assert pruned.data[0].qubits == (2, 3)

    def test_false_dependency_removal_keeps_needed_gates(self):
        qc = QuantumCircuit(3)
        qc.h(1)
        qc.cx(1, 0)  # affects the subset directly
        qc.cx(1, 2)
        pruned = false_dependency_removal(qc, [0])
        names = [(inst.name, inst.qubits) for inst in pruned.data]
        assert ("cx", (1, 0)) in names
        assert ("h", (1,)) in names
        assert ("cx", (1, 2)) not in names

    def test_false_dependency_removal_plain_cone(self):
        qc = QuantumCircuit(3)
        qc.h(2).cx(2, 1)
        pruned = false_dependency_removal(qc, [0])
        assert len(pruned.data) == 0

    def test_apply_local_unitary(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        flipped = apply_local_unitary(rho, qc.data, [0])
        assert flipped[1, 1] == pytest.approx(1.0)

    def test_conjugate_observables_through_hadamard(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        mapping = conjugate_observables_through(["Z"], qc.data, [0])
        assert set(mapping["Z"]) == {"X"}
        assert mapping["Z"]["X"] == pytest.approx(1.0)

    def test_conjugate_observables_no_gates(self):
        assert conjugate_observables_through(["Z"], [], [0]) == {"Z": {"Z": 1.0}}


class TestVirtualPauliCheck:
    def test_mitigates_readout_error_on_z(self):
        segment = QuantumCircuit(1)
        segment.id(0)
        noise = NoiseModel.depolarizing(readout=0.25)
        rho_one = np.array([[0, 0], [0, 1]], dtype=complex)
        checked = virtual_pauli_check(segment, [0], rho_one, ["Z"], noise, observables=["Z"])
        unchecked = virtual_pauli_check(segment, [0], rho_one, [], noise, observables=["Z"])
        assert checked.expectations["Z"] == pytest.approx(-1.0, abs=0.02)
        assert unchecked.expectations["Z"] == pytest.approx(-0.5, abs=0.02)

    def test_mitigates_bit_flip_gate_errors(self):
        from repro.noise import bit_flip_channel

        segment = QuantumCircuit(2)
        segment.cz(0, 1)
        noise = NoiseModel()
        noise.set_default_2q_error(bit_flip_channel(0.2).tensor(bit_flip_channel(0.0)))
        rho_zero = np.array([[1, 0], [0, 0]], dtype=complex)
        checked = virtual_pauli_check(segment, [0], rho_zero, ["Z"], noise, observables=["Z"])
        unchecked = virtual_pauli_check(segment, [0], rho_zero, [], noise, observables=["Z"])
        assert checked.expectations["Z"] == pytest.approx(1.0, abs=0.02)
        assert unchecked.expectations["Z"] < 0.7

    def test_noiseless_check_is_exact(self):
        segment = QuantumCircuit(2)
        segment.h(1).cz(0, 1)
        rho_plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        result = virtual_pauli_check(segment, [0], rho_plus, ["Z"], NoiseModel.ideal())
        # Ideal output: qubit 0 becomes maximally mixed after entangling.
        assert np.allclose(result.density_matrix, np.eye(2) / 2, atol=1e-6)

    def test_circuit_count_bounded_by_paper_limit(self):
        segment = QuantumCircuit(2)
        segment.cz(0, 1)
        noise = NoiseModel.depolarizing(p2=0.01)
        result = virtual_pauli_check(
            segment, [0], np.eye(2) / 2, ["Z"], noise, observables=all_pauli_strings(1)
        )
        # Paper Sec. IV-B: at most 30 circuits for all three bases; the
        # reduced preparation basis needs 4 preps x 3 bases = 12 here.
        assert result.num_circuits <= 30

    def test_full_basis_option_costs_more(self):
        segment = QuantumCircuit(2)
        segment.cz(0, 1)
        noise = NoiseModel.depolarizing(p2=0.01)
        reduced = virtual_pauli_check(segment, [0], np.eye(2) / 2, ["Z"], noise, observables=["Z"])
        full = virtual_pauli_check(
            segment,
            [0],
            np.eye(2) / 2,
            ["Z"],
            noise,
            observables=["Z"],
            options=QSPCOptions(state_preparation_reduction=False, restrict_measurement_bases=False),
        )
        assert full.num_circuits > reduced.num_circuits

    def test_subset_size_two_checks(self):
        segment = QuantumCircuit(3)
        segment.cz(0, 1).cz(1, 2)
        noise = NoiseModel.depolarizing(p2=0.02, readout=0.1)
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        result = virtual_pauli_check(
            segment, [0, 1], rho, ["ZI", "IZ"], noise, observables=["ZI", "IZ", "ZZ"]
        )
        assert result.expectations["ZI"] == pytest.approx(1.0, abs=0.05)
        assert result.expectations["IZ"] == pytest.approx(1.0, abs=0.05)
        assert result.z_distribution[0] == pytest.approx(1.0, abs=0.05)

    @staticmethod
    def _reference_copy(segment, subset, labels, basis):
        """A prepare/run/measure copy appended instruction by instruction."""
        circuit = QuantumCircuit(segment.num_qubits, segment.num_clbits, f"{segment.name}_qspc")
        for qubit, label in zip(subset, labels):
            if label != "0":
                circuit.prepare(label, qubit)
        for inst in segment.data:
            if not inst.is_measurement:
                circuit.append_instruction(inst)
        for qubit, axis in zip(subset, basis):
            if axis == "X":
                circuit.h(qubit)
            elif axis == "Y":
                circuit.sdg(qubit).h(qubit)
        return circuit.measure_subset(subset)

    def _assert_copies_match(self, segment, subset, variants, copies):
        assert len(copies) == len(variants)
        for (labels, basis), copy in zip(variants, copies):
            reference = self._reference_copy(segment, subset, labels, basis)
            assert circuit_fingerprint(copy) == circuit_fingerprint(reference)
            assert copy.num_qubits == reference.num_qubits
            assert copy.num_clbits == reference.num_clbits
            assert copy.measurement_layout() == reference.measurement_layout()
            assert copy.name == reference.name

    @pytest.mark.parametrize("subset", [[2], [0, 2], [3, 1]])
    def test_shared_piece_copies_match_a_reference_build(self, subset):
        segment = QuantumCircuit(4, 2, "seg")
        segment.h(0).cx(0, 2).rz(0.3, 2).barrier().cz(2, 3).cx(1, 3).measure(3, 1)
        variants = [
            (labels, basis)
            for labels in itertools.product(PREPARATION_LABELS, repeat=len(subset))
            for basis in itertools.product("XYZ", repeat=len(subset))
        ]
        copies = _prepared_circuits(segment, subset, variants)
        self._assert_copies_match(segment, subset, variants, copies)
        # Every copy carries the segment's own instructions, but each copy
        # owns its instruction list.
        payload = [inst for inst in segment.data if not inst.is_measurement]
        for copy in copies:
            start = copy.data.index(payload[0])
            assert all(a is b for a, b in zip(copy.data[start:], payload))
        lengths = [len(copy.data) for copy in copies]
        copies[0].data.append(copies[0].data[0])
        assert [len(copy.data) for copy in copies[1:]] == lengths[1:]

    @pytest.mark.parametrize("reduction", [True, False])
    @pytest.mark.parametrize("subset", [[1], [0, 2]])
    def test_submitted_copies_match_a_reference_build(self, subset, reduction):
        class Recording(ExecutionEngine):
            def execute_many(self, circuits, *args, **kwargs):
                batches.append(list(circuits))
                return super().execute_many(circuits, *args, **kwargs)

        batches = []
        segment = QuantumCircuit(3)
        segment.h(1).cz(0, 1).cx(1, 2).ry(0.4, 0).cz(0, 2)
        rho = np.full((2 ** len(subset),) * 2, 0.1, dtype=complex)
        rho[np.diag_indices_from(rho)] = 1.0 / len(rho)
        checks = ["".join("Z" if i == j else "I" for i in range(len(subset))) for j in range(len(subset))]
        result = virtual_pauli_check(
            segment, subset, rho, checks, NoiseModel.depolarizing(p2=0.02, readout=0.05),
            options=QSPCOptions(
                shots_per_circuit=256,
                state_preparation_reduction=reduction,
                restrict_measurement_bases=reduction,
            ),
            seed=3, engine=Recording(),
        )
        variants = list(zip(result.executed_prep_labels, result.executed_bases))
        labels = {label for prepared, _ in variants for label in prepared}
        # The full basis prepares |-> or |-i> too; the reduction never does.
        assert labels <= set(REDUCED_PREPARATION_LABELS if reduction else PREPARATION_LABELS)
        assert reduction or labels & {"-", "-i"}
        (copies,) = batches
        self._assert_copies_match(segment, subset, variants, copies)

    def test_prepared_copies_reject_a_subset_wire_outside_the_segment(self):
        with pytest.raises(ValueError, match="out of range"):
            _prepared_circuits(QuantumCircuit(2), [2], [(("1",), ("Z",))])

    def test_input_validation(self):
        segment = QuantumCircuit(1)
        with pytest.raises(ValueError):
            virtual_pauli_check(segment, [0], np.eye(4) / 4, ["Z"], NoiseModel.ideal())
        with pytest.raises(ValueError):
            virtual_pauli_check(segment, [0], np.eye(2) / 2, ["ZZ"], NoiseModel.ideal())
        with pytest.raises(ValueError):
            virtual_pauli_check(segment, [0], np.eye(2) / 2, ["Z"], NoiseModel.ideal(), observables=["ZZ"])


class TestQuTracerDriver:
    def setup_method(self):
        self.noise = NoiseModel.depolarizing(p1=0.002, p2=0.02, readout=0.08)

    def test_improves_iqft_fidelity(self):
        circuit = iqft_benchmark_circuit(3, value=5)
        tracer = QuTracer(noise_model=self.noise, shots=8000, shots_per_circuit=None, seed=1)
        result = tracer.run(circuit, subset_size=1)
        assert result.mitigated_fidelity > result.unmitigated_fidelity
        assert result.mitigated_fidelity > 0.7

    def test_improves_vqe_fidelity(self):
        circuit = vqe_circuit(5, 1, seed=2)
        tracer = QuTracer(noise_model=self.noise, shots=8000, shots_per_circuit=None, seed=1)
        result = tracer.run(circuit, subset_size=1)
        assert result.mitigated_fidelity >= result.unmitigated_fidelity

    def test_local_distributions_are_accurate(self):
        circuit = vqe_circuit(5, 1, seed=2)
        stripped = circuit.remove_final_measurements()
        state = simulate_statevector(stripped)
        tracer = QuTracer(noise_model=self.noise, shots=4000, shots_per_circuit=None, seed=1)
        for qubit in range(3):
            result = tracer.trace_subset(stripped, [qubit])
            ideal_local = state.probability_distribution([qubit])
            assert hellinger_fidelity(result.local_distribution, ideal_local) > 0.98

    def test_overhead_accounting(self):
        circuit = vqe_circuit(4, 1, seed=0)
        tracer = QuTracer(noise_model=self.noise, shots=4000, shots_per_circuit=400, seed=1)
        result = tracer.run(circuit, subset_size=1)
        assert result.num_circuits > 1
        assert result.normalized_shots > 1.0
        assert result.average_copy_two_qubit_gates < circuit.num_two_qubit_gates()

    def test_checked_layers_parameter(self):
        circuit = vqe_circuit(4, 2, seed=0)
        tracer = QuTracer(noise_model=self.noise, shots=4000, shots_per_circuit=None, seed=1)
        all_layers = tracer.run(circuit, subset_size=1)
        none_checked = tracer.run(circuit, subset_size=1, checked_layers=0)
        assert all_layers.subset_results[0].num_checked_layers == 2
        assert none_checked.subset_results[0].num_checked_layers == 0
        assert all_layers.mitigated_fidelity >= none_checked.mitigated_fidelity - 0.05

    def test_subset_size_two(self):
        circuit = vqe_circuit(4, 1, seed=0)
        tracer = QuTracer(noise_model=self.noise, shots=4000, shots_per_circuit=None, seed=1)
        result = tracer.run(circuit, subset_size=2)
        assert len(result.subset_results) == 2
        assert result.mitigated_fidelity >= result.unmitigated_fidelity - 0.05

    def test_device_mode_remaps_to_good_qubits(self):
        device = fake_hanoi()
        circuit = vqe_circuit(4, 1, seed=0)
        tracer = QuTracer(device=device, shots=4000, shots_per_circuit=None, seed=1)
        result = tracer.run(circuit, subset_size=1)
        assert result.mitigated_fidelity >= result.unmitigated_fidelity - 0.02

    def test_device_noise_follows_the_layout_of_the_used_wires(self):
        # Qubit remapping: the wires a copy uses are placed with
        # noise_aware_layout, and the copy runs under the calibration of
        # the device qubits they land on.
        device = fake_hanoi()
        tracer = QuTracer(device=device, shots=1000)
        circuit = QuantumCircuit(5, 2)
        circuit.h(1).cx(1, 3).measure(1, 0).measure(3, 1)
        compact = QuantumCircuit(2, 2)
        compact.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        layout = noise_aware_layout(compact, device)
        expected = device.noise_model_for_assignment(
            {1: layout.physical(0), 3: layout.physical(1)}
        )
        model = tracer._noise_for(circuit)
        assert model.fingerprint() == expected.fingerprint()
        # Every copy on the same wires shares the one derived model.
        assert tracer._noise_for(circuit.copy()) is model
        assert QuTracer(noise_model=self.noise)._noise_for(circuit) is self.noise

    @staticmethod
    def _record_noise_for(tracer, monkeypatch):
        circuits = []
        original = tracer._noise_for

        def recording(circuit):
            circuits.append(circuit)
            return original(circuit)

        monkeypatch.setattr(tracer, "_noise_for", recording)
        return circuits

    @pytest.mark.parametrize("nodes,layers", [(3, 1), (3, 2), (4, 1), (4, 2)])
    def test_layout_memo_matches_a_fresh_layout(self, nodes, layers, monkeypatch):
        # Every circuit the tracer places gets the assignment a fresh
        # noise_aware_layout of its compacted circuit would give.
        device = fake_mumbai()
        tracer = QuTracer(device=device, shots=512, shots_per_circuit=256, seed=1)
        circuits = self._record_noise_for(tracer, monkeypatch)
        tracer.run(qaoa_maxcut_circuit(ring_graph(nodes), layers), subset_size=2)
        monkeypatch.undo()
        assert len(tracer._shape_layouts) < len(circuits)
        for circuit in circuits:
            used = sorted(circuit.qubits_used() | set(circuit.measured_qubits))
            compact = circuit.remap_qubits({q: i for i, q in enumerate(used)}, num_qubits=len(used))
            fresh = noise_aware_layout(compact, device)
            assignment = tuple((q, fresh.physical(i)) for i, q in enumerate(used))
            assert tracer._noise_for(circuit) is tracer._assignment_noise[assignment]

    def test_layout_search_runs_once_per_interaction_shape(self, monkeypatch):
        # The perfbench qaoa_device shape: 13 placements of 8 distinct shapes.
        searched = []

        def counting(circuit, device):
            searched.append(circuit)
            return noise_aware_layout(circuit, device)

        monkeypatch.setattr(tracer_module, "noise_aware_layout", counting)
        tracer = QuTracer(device=fake_mumbai(), shots=512, shots_per_circuit=256, seed=1)
        circuits = self._record_noise_for(tracer, monkeypatch)
        tracer.run(qaoa_maxcut_circuit(ring_graph(3), 2), subset_size=2)
        assert (len(searched), len(circuits)) == (8, 13)
        assert len(tracer._shape_layouts) == 8
        # Another tracer keeps its own memo and searches again.
        other = QuTracer(device=fake_mumbai(), shots=512, shots_per_circuit=256, seed=1)
        assert other._shape_layouts == {}
        other._noise_for(circuits[0])
        assert len(searched) == 9
        assert len(tracer._shape_layouts) == 8 and len(other._shape_layouts) == 1

    def test_layout_shape_keeps_first_occurrence_order(self, monkeypatch):
        # The same pairs with the same counts, met in another order, are
        # another shape: the interaction graph's edge order differs.
        searched = []
        monkeypatch.setattr(
            tracer_module, "noise_aware_layout",
            lambda circuit, device: searched.append(circuit) or noise_aware_layout(circuit, device),
        )
        tracer = QuTracer(device=fake_hanoi(), shots=1000)
        first, second = QuantumCircuit(3, 3), QuantumCircuit(3, 3)
        first.cx(0, 1).cx(1, 2).measure_all()
        second.cx(1, 2).cx(0, 1).measure_all()
        tracer._noise_for(first)
        tracer._noise_for(first.copy())
        tracer._noise_for(second)
        assert len(searched) == 2

    def test_copy_gate_counts_do_not_depend_on_placement(self):
        # Each copy's two-qubit count is taken on its logical circuit, so a
        # device run and a plain-noise run of one circuit count alike.
        circuit = vqe_circuit(4, 1, seed=0)
        runs = [
            QuTracer(shots=2000, shots_per_circuit=256, seed=1, **source).run(circuit)
            for source in ({"device": fake_hanoi()}, {"noise_model": self.noise})
        ]
        counts = [[r.two_qubit_gate_counts for r in run.subset_results] for run in runs]
        assert counts[0] == counts[1]
        for subset in runs[0].subset_results:
            assert len(subset.two_qubit_gate_counts) == subset.num_circuits
            assert all(count > 0 for count in subset.two_qubit_gate_counts)

    def test_requires_noise_or_device(self):
        with pytest.raises(ValueError):
            QuTracer()

    def test_subset_must_be_measured(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).measure_subset([0])
        tracer = QuTracer(noise_model=self.noise, shots=1000)
        with pytest.raises(ValueError):
            tracer.run(circuit, subsets=[[2]])

    def test_options_dataclass_defaults(self):
        options = QuTracerOptions()
        assert options.enable_checks and options.false_dependency_removal
