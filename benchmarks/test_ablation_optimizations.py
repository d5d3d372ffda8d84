"""Ablation of the QuTracer optimizations (Sec. V-B, Fig. 4).

Not a table in the paper, but DESIGN.md calls out the six optimizations as
design choices; this benchmark toggles them individually on a single-layer
VQE workload and reports fidelity and cost so their contribution is visible:

* false dependency removal  -> fewer 2-qubit gates per copy,
* state traceback / basis restriction -> fewer circuit copies,
* state preparation reduction -> fewer circuit copies,
* everything disabled -> the SQEM configuration.
"""

import pytest

# Full paper-reproduction suite: skip with `pytest -m "not slow"`.
pytestmark = pytest.mark.slow

from harness import print_table

from repro.algorithms import vqe_circuit
from repro.core import QuTracer, QuTracerOptions
from repro.noise import NoiseModel

SHOTS = 8000
SEED = 37


def _configurations():
    return {
        "full QuTracer": QuTracerOptions(),
        "no false dep. removal": QuTracerOptions(false_dependency_removal=False),
        "no state traceback": QuTracerOptions(state_traceback=False),
        "no prep reduction": QuTracerOptions(state_preparation_reduction=False),
        "no basis restriction": QuTracerOptions(restrict_measurement_bases=False),
        "no checks (cut only)": QuTracerOptions(enable_checks=False),
        "all off (SQEM-like)": QuTracerOptions(
            false_dependency_removal=False,
            state_traceback=False,
            state_preparation_reduction=False,
            restrict_measurement_bases=False,
        ),
    }


def _run():
    circuit = vqe_circuit(6, 1, seed=3)
    noise = NoiseModel.depolarizing(p1=0.001, p2=0.01, readout=0.08)
    rows = []
    results = {}
    for name, options in _configurations().items():
        tracer = QuTracer(
            noise_model=noise,
            shots=SHOTS,
            shots_per_circuit=SHOTS // 10,
            seed=SEED,
            options=options,
        )
        result = tracer.run(circuit, subset_size=1)
        results[name] = result
        rows.append(
            {
                "configuration": name,
                "fidelity": result.mitigated_fidelity,
                "circuit copies": float(result.num_circuits - 1),
                "2q gates/copy": result.average_copy_two_qubit_gates,
            }
        )
    print_table(
        "Ablation — QuTracer optimizations (6-q VQE, 1 layer)",
        rows,
        ["configuration", "fidelity", "circuit copies", "2q gates/copy"],
    )
    return results


def test_ablation_optimizations(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    full = results["full QuTracer"]
    # Disabling false dependency removal inflates the copies' gate counts.
    assert (
        results["no false dep. removal"].average_copy_two_qubit_gates
        >= full.average_copy_two_qubit_gates
    )
    # Disabling the basis/preparation reductions inflates the circuit count.
    assert results["no prep reduction"].num_circuits >= full.num_circuits
    assert results["no basis restriction"].num_circuits >= full.num_circuits
    # Checks matter: disabling them should not beat the full configuration by much.
    assert full.mitigated_fidelity >= results["no checks (cut only)"].mitigated_fidelity - 0.05
    # The all-off configuration is the most expensive.
    assert results["all off (SQEM-like)"].num_circuits >= full.num_circuits
