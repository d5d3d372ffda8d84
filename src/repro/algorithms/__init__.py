"""Benchmark circuit constructions used throughout the paper's evaluation."""

from .arithmetic import qft_adder_circuit, qft_multiplier_circuit
from .bv import bernstein_vazirani_circuit
from .maxcut import (
    cut_value,
    cut_value_distribution_expectation,
    maxcut_brute_force,
    random_regular_maxcut_graph,
    ring_graph,
)
from .qaoa import default_qaoa_angles, qaoa_cost_layer, qaoa_maxcut_circuit, qaoa_mixer_layer
from .qft import (
    fourier_state_preparation,
    iqft_benchmark_circuit,
    iqft_circuit,
    qft_circuit,
)
from .qpe import qpe_circuit, qpe_ideal_distribution_peak
from .vqe import hardware_efficient_ansatz, random_vqe_parameters, vqe_circuit

__all__ = [
    "qft_circuit",
    "iqft_circuit",
    "fourier_state_preparation",
    "iqft_benchmark_circuit",
    "qpe_circuit",
    "qpe_ideal_distribution_peak",
    "bernstein_vazirani_circuit",
    "qft_adder_circuit",
    "qft_multiplier_circuit",
    "hardware_efficient_ansatz",
    "vqe_circuit",
    "random_vqe_parameters",
    "qaoa_maxcut_circuit",
    "default_qaoa_angles",
    "qaoa_cost_layer",
    "qaoa_mixer_layer",
    "ring_graph",
    "random_regular_maxcut_graph",
    "cut_value",
    "maxcut_brute_force",
    "cut_value_distribution_expectation",
]
