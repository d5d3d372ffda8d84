"""Tests for the benchmark circuit constructions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    bernstein_vazirani_circuit,
    cut_value,
    cut_value_distribution_expectation,
    default_qaoa_angles,
    fourier_state_preparation,
    hardware_efficient_ansatz,
    iqft_benchmark_circuit,
    iqft_circuit,
    maxcut_brute_force,
    qaoa_maxcut_circuit,
    qft_adder_circuit,
    qft_circuit,
    qft_multiplier_circuit,
    qpe_circuit,
    qpe_ideal_distribution_peak,
    random_regular_maxcut_graph,
    random_vqe_parameters,
    ring_graph,
    vqe_circuit,
)
from repro.simulators import ideal_distribution, simulate_statevector


class TestQFT:
    def test_qft_matrix_is_dft(self):
        n = 3
        dim = 2**n
        omega = np.exp(2j * np.pi / dim)
        dft = np.array([[omega ** (j * k) for j in range(dim)] for k in range(dim)]) / math.sqrt(dim)
        assert np.allclose(qft_circuit(n).to_matrix(), dft)

    def test_iqft_is_inverse(self):
        n = 3
        product = qft_circuit(n).compose(iqft_circuit(n)).to_matrix()
        assert np.allclose(product, np.eye(2**n))

    def test_approximate_qft_has_fewer_gates(self):
        full = qft_circuit(5).count_ops()["cp"]
        approx = qft_circuit(5, approximation_degree=2).count_ops()["cp"]
        assert approx < full

    @pytest.mark.parametrize("value", [0, 1, 5, 7])
    def test_fourier_state_round_trip(self, value):
        qc = fourier_state_preparation(3, value).compose(iqft_circuit(3))
        dist = simulate_statevector(qc).probability_distribution()
        assert dist[value] == pytest.approx(1.0)

    def test_iqft_benchmark_peak(self):
        qc = iqft_benchmark_circuit(3, value=6)
        assert ideal_distribution(qc)[6] == pytest.approx(1.0)
        assert qc.metadata["ideal_value"] == 6

    def test_iqft_benchmark_default_value(self):
        qc = iqft_benchmark_circuit(4)
        assert qc.metadata["ideal_value"] == 0b0101

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            qft_circuit(0)
        with pytest.raises(ValueError):
            fourier_state_preparation(2, 4)


class TestQPE:
    @pytest.mark.parametrize("num_counting, phase", [(3, 0.125), (4, 5 / 16), (4, 11 / 16)])
    def test_exactly_representable_phase_gives_single_peak(self, num_counting, phase):
        qc = qpe_circuit(num_counting, phase=phase)
        dist = ideal_distribution(qc)
        peak = qpe_ideal_distribution_peak(num_counting, phase)
        assert dist[peak] == pytest.approx(1.0, abs=1e-9)

    def test_non_representable_phase_peaks_nearby(self):
        qc = qpe_circuit(4, phase=0.3)
        dist = ideal_distribution(qc)
        best = max(dict(dist.items()), key=lambda k: dist[k])
        assert best == qpe_ideal_distribution_peak(4, 0.3)
        assert dist[best] > 0.4

    def test_only_counting_register_is_measured(self):
        qc = qpe_circuit(4, phase=0.25)
        assert qc.measured_qubits == [0, 1, 2, 3]
        assert qc.num_qubits == 5

    def test_explicit_unitary(self):
        unitary = np.diag([1.0, np.exp(2j * np.pi * 0.5)])
        qc = qpe_circuit(3, unitary=unitary)
        assert ideal_distribution(qc)[4] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            qpe_circuit(0)
        with pytest.raises(ValueError):
            qpe_circuit(3, phase=0.1, unitary=np.eye(2))
        with pytest.raises(ValueError):
            qpe_circuit(3, unitary=np.eye(4))


class TestBernsteinVazirani:
    @pytest.mark.parametrize("secret", ["1011", "0000", "1111"])
    def test_recovers_secret_string(self, secret):
        qc = bernstein_vazirani_circuit(secret)
        assert ideal_distribution(qc)[int(secret, 2)] == pytest.approx(1.0)

    def test_integer_secret_requires_width(self):
        with pytest.raises(ValueError):
            bernstein_vazirani_circuit(5)
        qc = bernstein_vazirani_circuit(5, num_qubits=4)
        assert ideal_distribution(qc)[5] == pytest.approx(1.0)

    def test_secret_too_wide(self):
        with pytest.raises(ValueError):
            bernstein_vazirani_circuit(9, num_qubits=3)

    def test_table2_shape_is_nine_qubits(self):
        qc = bernstein_vazirani_circuit("10110101")
        assert qc.num_qubits == 9

    @given(st.integers(min_value=0, max_value=31))
    @settings(max_examples=12, deadline=None)
    def test_any_secret_recovered(self, secret):
        qc = bernstein_vazirani_circuit(secret, num_qubits=5)
        assert ideal_distribution(qc)[secret] == pytest.approx(1.0)


class TestArithmetic:
    @pytest.mark.parametrize("a, b", [(0, 0), (3, 6), (7, 15), (5, 11)])
    def test_two_register_adder(self, a, b):
        qc = qft_adder_circuit(4, a=a, b=b)
        expected = qc.metadata["expected_sum"]
        assert ideal_distribution(qc)[expected] == pytest.approx(1.0)

    def test_adder_is_seven_qubits_for_table2(self):
        assert qft_adder_circuit(4, a=3, b=6).num_qubits == 7

    @pytest.mark.parametrize("a, b", [(0, 1), (1, 1), (3, 2), (3, 3)])
    def test_multiplier(self, a, b):
        qc = qft_multiplier_circuit(2, 2, a=a, b=b)
        assert ideal_distribution(qc)[a * b] == pytest.approx(1.0)

    def test_multiplier_is_four_qubits_for_table2(self):
        assert qft_multiplier_circuit(1, 1, a=1, b=1).num_qubits == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            qft_adder_circuit(0, 1, 1)
        with pytest.raises(ValueError):
            qft_multiplier_circuit(0, 1, 0, 0)


class TestVQE:
    def test_structure_counts(self):
        qc = vqe_circuit(5, 2)
        ops = qc.count_ops()
        assert ops["ry"] == 15  # (layers + 1) * n
        assert ops["cz"] == 8  # layers * (n - 1)
        assert ops["measure"] == 5

    def test_entanglement_repetitions_scale_cnot_depth(self):
        shallow = vqe_circuit(4, 1, entanglement_repetitions=1)
        deep = vqe_circuit(4, 1, entanglement_repetitions=5)
        assert deep.count_ops()["cz"] == 5 * shallow.count_ops()["cz"]

    def test_cx_entangler(self):
        qc = vqe_circuit(4, 1, entangler="cx")
        assert "cx" in qc.count_ops()

    def test_parameters_shape_validation(self):
        with pytest.raises(ValueError):
            vqe_circuit(4, 2, parameters=np.zeros((2, 4)))
        with pytest.raises(ValueError):
            hardware_efficient_ansatz(1, 1)
        with pytest.raises(ValueError):
            hardware_efficient_ansatz(4, -1)
        with pytest.raises(ValueError):
            hardware_efficient_ansatz(4, 1, entangler="iswap")

    def test_deterministic_with_seed(self):
        a = vqe_circuit(4, 2, seed=3)
        b = vqe_circuit(4, 2, seed=3)
        assert [i.operation.params for i in a.data] == [i.operation.params for i in b.data]

    def test_random_parameters_shape(self):
        assert random_vqe_parameters(6, 3, seed=0).shape == (4, 6)

    def test_zero_layer_ansatz_is_product_state(self):
        qc = vqe_circuit(3, 0, measure=False)
        assert "cz" not in qc.count_ops()


class TestMaxCutAndQAOA:
    def test_ring_graph_cut_values(self):
        graph = ring_graph(4)
        assert cut_value(graph, 0b0101) == pytest.approx(4.0)
        assert cut_value(graph, 0b0011) == pytest.approx(2.0)
        assert cut_value(graph, 0) == pytest.approx(0.0)

    def test_cut_value_input_forms(self):
        graph = ring_graph(4)
        assert cut_value(graph, "0101") == cut_value(graph, 0b0101)
        assert cut_value(graph, [1, 0, 1, 0]) == cut_value(graph, 0b0101)
        with pytest.raises(ValueError):
            cut_value(graph, "01")

    def test_brute_force_ring(self):
        best, assignments = maxcut_brute_force(ring_graph(6))
        assert best == pytest.approx(6.0)
        assert 0b010101 in assignments and 0b101010 in assignments

    def test_regular_graph_properties(self):
        graph = random_regular_maxcut_graph(10, degree=3, seed=1)
        assert all(d == 3 for _, d in graph.degree())
        assert graph.number_of_edges() == 15

    def test_qaoa_structure(self):
        graph = ring_graph(6)
        qc = qaoa_maxcut_circuit(graph, 2)
        ops = qc.count_ops()
        assert ops["h"] == 6
        assert ops["cx"] == 2 * 2 * graph.number_of_edges()
        assert ops["rx"] == 12
        assert qc.metadata["layers"] == 2

    def test_qaoa_rzz_variant(self):
        qc = qaoa_maxcut_circuit(ring_graph(4), 1, use_rzz=True)
        assert "rzz" in qc.count_ops()

    def test_qaoa_output_is_z2_symmetric(self):
        graph = ring_graph(4)
        dist = ideal_distribution(qaoa_maxcut_circuit(graph, 2))
        for outcome in range(16):
            assert dist[outcome] == pytest.approx(dist[outcome ^ 0b1111], abs=1e-9)

    def test_qaoa_beats_random_guessing(self):
        graph = ring_graph(6)
        dist = ideal_distribution(qaoa_maxcut_circuit(graph, 2))
        expectation = cut_value_distribution_expectation(graph, dist)
        assert expectation > graph.number_of_edges() / 2  # random guessing baseline

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            qaoa_maxcut_circuit(ring_graph(4), 2, gammas=[0.1], betas=[0.1, 0.2])
        with pytest.raises(ValueError):
            default_qaoa_angles(0)

    def test_graph_labels_must_be_contiguous(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_edge(2, 5)
        with pytest.raises(ValueError):
            qaoa_maxcut_circuit(graph, 1)

    def test_default_angles_seeded(self):
        g1 = default_qaoa_angles(3, seed=2)
        g2 = default_qaoa_angles(3, seed=2)
        assert g1 == g2
