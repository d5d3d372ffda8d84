"""Correctness tests for the gate-fusion pre-pass (:mod:`repro.simulators.fusion`).

Fusion must be observationally invisible: the fused program yields the same
state (ideal) and the same exact noisy distribution (density matrix) as the
gate-by-gate reference, with noise sites slotted between fused blocks exactly
where they sat in the original circuit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.noise import NoiseModel
from repro.noise.channels import amplitude_damping_channel, depolarizing_channel
from repro.noise.readout import ReadoutError
from repro.simulators import (
    DensityMatrix,
    Statevector,
    fuse_circuit,
    noisy_distribution_density_matrix,
    simulate_statevector,
)
from repro.simulators.density_matrix import apply_readout_confusion, simulate_density_matrix
from repro.simulators.fusion import choose_fusion_width, split_body


def gate_by_gate_statevector(circuit: QuantumCircuit) -> Statevector:
    """Unfused reference: each gate's matrix applied on its own wires."""
    state = Statevector.zero_state(circuit.num_qubits)
    for inst in circuit.data:
        if inst.is_gate:
            state = state.evolve_matrix(inst.operation.matrix, inst.qubits)
    return state


def gate_by_gate_distribution(circuit: QuantumCircuit, noise: NoiseModel):
    """Unfused noisy reference: each gate, then every channel the model puts after it."""
    rho = DensityMatrix.zero_state(circuit.num_qubits)
    for inst in circuit.data:
        if inst.is_gate:
            rho = rho.evolve_matrix(inst.operation.matrix, inst.qubits)
            for channel, qubits in noise.channels_for(inst):
                rho = rho.apply_channel(channel, qubits)
    qubits = circuit.measurement_layout()
    return apply_readout_confusion(rho.probability_distribution(qubits), qubits, noise), qubits


def random_circuit(
    rng: np.random.Generator,
    num_qubits: int,
    num_gates: int = 25,
    barriers: bool = False,
) -> QuantumCircuit:
    qc = QuantumCircuit(num_qubits, num_qubits)
    one_q = ["h", "x", "s", "t", "sx"]
    for _ in range(num_gates):
        kind = rng.integers(0, 4)
        if kind == 0:
            getattr(qc, one_q[rng.integers(0, len(one_q))])(int(rng.integers(0, num_qubits)))
        elif kind == 1:
            qc.rz(float(rng.uniform(0, 2 * np.pi)), int(rng.integers(0, num_qubits)))
        elif kind == 2 and num_qubits >= 2:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            qc.cx(int(a), int(b))
        else:
            if num_qubits >= 2:
                a, b = rng.choice(num_qubits, size=2, replace=False)
                qc.cz(int(a), int(b))
        if barriers and rng.random() < 0.15:
            qc.barrier()
    qc.measure_all()
    return qc


class TestFusedProgramStructure:
    def test_ideal_circuit_fuses_to_fewer_ops(self):
        qc = QuantumCircuit(3, 3)
        qc.h(0).cx(0, 1).rz(0.3, 1).cx(1, 2).h(2)
        program = fuse_circuit(qc)
        assert program.num_gates == 5
        assert len(program.operations) < 5

    def test_max_qubits_zero_disables_fusion(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).h(0).cx(0, 1)
        program = fuse_circuit(qc, max_qubits=0)
        assert len(program.operations) == 3
        assert all(not op.sites for op in program.operations)

    def test_support_bound_respected(self, make_rng):
        rng = make_rng(7)
        qc = random_circuit(rng, 5, num_gates=40)
        for max_qubits in (1, 2, 3):
            program = fuse_circuit(qc, max_qubits=max_qubits)
            assert all(len(op.qubits) <= max(max_qubits, 2) for op in program.operations)

    def test_wide_gate_forms_its_own_block(self):
        qc = QuantumCircuit(3, 3)
        qc.h(0).ccx(0, 1, 2).h(2)
        program = fuse_circuit(qc, max_qubits=2)
        assert any(len(op.qubits) == 3 for op in program.operations)

    def test_barrier_is_a_fusion_boundary(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.barrier()
        qc.h(0)
        program = fuse_circuit(qc)
        assert len(program.operations) == 2

    def test_measurement_is_a_fusion_boundary(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.h(1)
        qc.measure(1, 1)
        program = fuse_circuit(qc)
        assert len(program.operations) == 2

    def test_noisy_gate_terminates_its_block(self):
        model = NoiseModel()
        model.set_gate_error("cx", depolarizing_channel(0.05, 2))
        qc = QuantumCircuit(2, 2)
        qc.rz(0.1, 0)
        qc.cx(0, 1)
        qc.rz(0.2, 1)
        program = fuse_circuit(qc, model)
        # rz+cx fuse into one block that must end at the noisy cx; the
        # trailing rz starts a fresh block after the noise site.
        assert len(program.operations) == 2
        assert len(program.operations[0].sites) == 1
        channel, wires = program.operations[0].sites[0]
        assert wires == (0, 1)
        assert not program.operations[1].sites

    def test_identity_channels_are_dropped(self):
        from repro.noise.channels import identity_channel

        model = NoiseModel()
        model.set_gate_error("h", identity_channel(1))
        qc = QuantumCircuit(1, 1)
        qc.h(0).h(0)
        program = fuse_circuit(qc, model)
        assert all(not op.sites for op in program.operations)
        # With no real noise the two h gates still fuse.
        assert len(program.operations) == 1

    def test_non_gate_instruction_rejected(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.reset(0)
        with pytest.raises(ValueError, match="cannot simulate"):
            fuse_circuit(qc)


class TestFusionCorrectness:
    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    def test_ideal_state_matches_reference(self, num_qubits, make_rng):
        rng = make_rng(100 + num_qubits)
        for trial in range(5):
            qc = random_circuit(rng, num_qubits, barriers=(trial % 2 == 0))
            stripped = qc.remove_final_measurements()
            fused = simulate_statevector(stripped)
            reference = gate_by_gate_statevector(stripped)
            assert fused.fidelity(reference) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_noisy_distribution_matches_reference(self, num_qubits, make_rng):
        # The exact density-matrix path makes noise-site placement visible:
        # moving a channel across a gate changes the distribution.
        rng = make_rng(200 + num_qubits)
        model = NoiseModel.depolarizing(p1=0.01, p2=0.04, readout=0.03)
        for _ in range(4):
            qc = random_circuit(rng, num_qubits)
            fused, qubits_fused = noisy_distribution_density_matrix(qc, model)
            reference, qubits_ref = gate_by_gate_distribution(qc, model)
            assert qubits_fused == qubits_ref
            for outcome in range(2**num_qubits):
                assert fused.get(outcome) == pytest.approx(reference.get(outcome), abs=1e-10)

    def test_partial_noise_site_placement(self, make_rng):
        # Noise only on cx: 1q runs around each cx fuse freely, yet the
        # distribution must equal the unfused reference exactly — a noise
        # site slid across a neighbouring gate would show up here.
        model = NoiseModel()
        model.set_gate_error("cx", depolarizing_channel(0.1, 2))
        rng = make_rng(42)
        for _ in range(5):
            qc = random_circuit(rng, 3)
            fused, _ = noisy_distribution_density_matrix(qc, model)
            reference, _ = gate_by_gate_distribution(qc, model)
            for outcome in range(8):
                assert fused.get(outcome) == pytest.approx(reference.get(outcome), abs=1e-10)

    def test_unsorted_wire_order_embedding(self):
        # cx(1, 0) has wires in descending order; the embedded matrix must
        # respect the wire tuple, not the sorted support.
        qc = QuantumCircuit(2, 2)
        qc.x(1)
        qc.cx(1, 0)
        state = simulate_statevector(qc)
        assert abs(state.data[0b11]) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Body/tail split: a cut at a fusion-block boundary
# ----------------------------------------------------------------------

_ONE_QUBIT = ("h", "x", "s", "sdg", "sx", "t")


def _split_noise(kind: str) -> NoiseModel:
    """The noise shapes whose gate sites move (or pin) the cut."""
    if kind == "depolarizing":
        return NoiseModel.depolarizing(p1=0.01, p2=0.04, readout=0.02)
    if kind == "two-qubit-only":  # p1 = 0: one-qubit gates are noiseless
        return NoiseModel.depolarizing(p2=0.04, readout=0.02)
    if kind == "readout-only":
        return NoiseModel().set_readout_error(ReadoutError(0.05))
    if kind == "damping-on-rx":  # a per-name Kraus override
        model = NoiseModel.depolarizing(p2=0.03)
        return model.set_gate_error("rx", amplitude_damping_channel(0.05))
    if kind == "h-sdg-noise-free":
        model = NoiseModel.depolarizing(p1=0.01, p2=0.04)
        return model.add_noise_free_gate("h").add_noise_free_gate("sdg")
    return NoiseModel.ideal()


@st.composite
def _split_cases(draw):
    """A random circuit, then a basis-rotation tail and final measurements."""
    num_qubits = draw(st.integers(1, 4))
    qubit = st.integers(0, num_qubits - 1)
    qc = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("1q", "rx", "cx", "barrier", "measure")))
        if kind == "cx" and num_qubits > 1:
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            qc.cx(a, b)
        elif kind == "rx":
            qc.rx(draw(st.floats(0.0, 6.0)), draw(qubit))
        elif kind == "barrier":
            qc.barrier()
        elif kind == "measure":  # mid-circuit
            q = draw(qubit)
            qc.measure(q, q)
        else:
            getattr(qc, draw(st.sampled_from(_ONE_QUBIT)))(draw(qubit))
    for _ in range(draw(st.integers(0, 4))):
        getattr(qc, draw(st.sampled_from(_ONE_QUBIT)))(draw(qubit))
    for q in draw(st.lists(qubit, unique=True)):
        qc.measure(q, q)
    noise = draw(
        st.sampled_from(
            ("depolarizing", "two-qubit-only", "readout-only", "damping-on-rx",
             "h-sdg-noise-free", "ideal")
        )
    )
    return qc, _split_noise(noise)


class TestSplitBody:
    @settings(max_examples=150, deadline=None)
    @given(_split_cases())
    def test_fused_halves_equal_the_fused_circuit(self, case):
        qc, noise = case
        split = split_body(qc, noise)
        if split is None:
            return
        body, tail = split
        assert body.data + tail.data == qc.data
        assert body.num_clbits == 0 and tail.num_clbits == qc.num_clbits
        assert not any(inst.is_measurement for inst in body.data)
        for width in {0, 2, 3, choose_fusion_width(qc.num_qubits)}:
            whole = fuse_circuit(qc, noise, max_qubits=width).operations
            halves = (
                fuse_circuit(body, noise, max_qubits=width).operations
                + fuse_circuit(tail, noise, max_qubits=width).operations
            )
            assert len(halves) == len(whole)
            for got, want in zip(halves, whole):
                assert got.qubits == want.qubits
                assert got.sites == want.sites
                assert got.kernel.kind == want.kernel.kind
                assert got.matrix.tobytes() == want.matrix.tobytes()
        # So the tail, evolved from the body's state, is the circuit's own
        # evolution bit for bit.
        state = simulate_density_matrix(body, noise)
        rest = simulate_density_matrix(tail, noise, initial_state=state)
        assert np.array_equal(rest.data, simulate_density_matrix(qc, noise).data)

    def test_cut_falls_before_the_basis_rotations(self):
        qc = QuantumCircuit(3, 3)
        qc.h(0).cx(0, 1).rz(0.3, 1).cx(1, 2)
        qc.sdg(1).h(1).h(2)
        qc.measure_subset([1, 2])
        body, tail = split_body(qc, NoiseModel.depolarizing(p1=0.01, p2=0.04))
        assert [inst.name for inst in body.data] == ["h", "cx", "rz", "cx"]
        assert [inst.name for inst in tail.data] == ["sdg", "h", "h", "measure", "measure"]

    def test_cut_moves_left_past_noiseless_gates(self):
        # p2 = 0: the last cx has no noise site and would fuse with the
        # rotations after it, so the body ends at the noisy h before it.
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1).h(1)
        qc.measure_all()
        body, tail = split_body(qc, NoiseModel.depolarizing(p1=0.01))
        assert [inst.name for inst in body.data] == ["h"]
        assert [inst.name for inst in tail.data] == ["cx", "h", "measure", "measure"]

    def test_readout_only_circuits_stay_whole(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1).h(1)
        qc.measure_all()
        assert split_body(qc, _split_noise("readout-only")) is None

    def test_mid_circuit_measurement_stays_whole(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1)
        qc.measure(0, 0)
        qc.cx(0, 1).h(1)
        qc.measure(1, 1)
        assert split_body(qc, NoiseModel.depolarizing(p1=0.01, p2=0.04)) is None

    def test_barrier_ends_a_body(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1)
        qc.barrier()
        qc.h(1)
        qc.measure_all()
        body, _ = split_body(qc, _split_noise("two-qubit-only"))
        assert [inst.name for inst in body.data] == ["h", "cx", "barrier"]
