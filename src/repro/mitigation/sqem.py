"""SQEM: classical simulators as quantum error mitigators via circuit cutting [28].

SQEM virtualises the PCS checks the same way QSPC does — the checks become a
classically-recombined ensemble of prepare/run/measure circuits — but it
predates QuTracer's circuit optimizations: its copies run without false
dependency removal or state traceback, every measurement basis is run, and
the full six-state wire-cutting preparation basis is used.  That is
QuTracer with those optimizations disabled, which is how it is implemented
here.  One divergence from the paper's SQEM: QuTracer always simulates the
subset's single-qubit segments classically (localized simulation), so
these copies do too instead of executing them.  The qualitative
consequences match the paper (SQEM mitigates both gate and measurement
errors, but its copies are larger and more numerous, so QuTracer overtakes
it as circuits deepen, Fig. 7/8).

SQEM's cost scales exponentially with the number of checked layers, so —
like the paper — the benchmarks only apply it to single-layer circuits.
"""

from __future__ import annotations

from typing import Sequence

from ..circuits import QuantumCircuit
from ..core import QuTracer, QuTracerOptions, QuTracerResult
from ..noise import DeviceModel, NoiseModel
from ..simulators import ExecutionEngine

__all__ = ["run_sqem"]


def run_sqem(
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None = None,
    device: DeviceModel | None = None,
    shots: int = 8192,
    shots_per_circuit: int | None = None,
    subsets: Sequence[Sequence[int]] | None = None,
    subset_size: int = 1,
    seed: int | None = None,
    max_trajectories: int = 300,
    engine: ExecutionEngine | None = None,
) -> QuTracerResult:
    """Run the SQEM baseline and return the refined global distribution.

    The result object is a :class:`~repro.core.QuTracerResult`; its overhead
    fields (circuit copies, two-qubit gate counts) reflect SQEM's larger
    cost.  SQEM's many full-width copies all flow through ``engine``, where
    its heavy duplication (every basis, every preparation, re-run per layer)
    becomes cache hits.  With a ``device``, every copy is placed and given
    its noise as in :class:`~repro.core.QuTracer`.
    """
    options = QuTracerOptions(
        enable_checks=True,
        false_dependency_removal=False,
        state_traceback=False,
        state_preparation_reduction=False,
        restrict_measurement_bases=False,
    )
    runner = QuTracer(
        noise_model=noise_model,
        device=device,
        shots=shots,
        shots_per_circuit=shots_per_circuit,
        seed=seed,
        options=options,
        max_trajectories=max_trajectories,
        engine=engine,
    )
    try:
        return runner.run(circuit, subsets=subsets, subset_size=subset_size)
    finally:
        # Closes the engine when the tracer built its own; a
        # caller-supplied engine is left untouched.
        runner.close()
