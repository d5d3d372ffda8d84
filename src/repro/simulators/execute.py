"""One-shot circuit execution: the uncached single-circuit primitive.

:func:`execute` picks the cheapest simulation method that is exact enough:

* no noise → statevector;
* noisy and narrow (``num_qubits <= density_matrix_threshold``) → exact
  density-matrix simulation (readout errors applied as exact confusion);
* noisy, wide and **Clifford** under Pauli noise → the stabilizer tableau
  backend (:func:`~repro.simulators.stabilizer.simulate_stabilizer_trajectories`),
  which samples the same trajectory statistics at polynomial cost;
* noisy and wide otherwise → Monte-Carlo trajectories with sampled readout
  flips, via the batched ensemble backend
  (:func:`~repro.simulators.ensemble.simulate_trajectories_ensemble`).

Callers that need reproducible statistics pass ``seed``; all stochastic paths
derive their randomness from it.

Most of the codebase should **not** call this directly: the mitigation and
QuTracer layers submit their subset/check-variant circuits through
:class:`repro.simulators.engine.ExecutionEngine`, which batches, deduplicates
and caches executions (and compacts idle wires) on top of this primitive.
See ``docs/architecture.md`` for how the two layers fit together.
"""

from __future__ import annotations

from ..circuits import QuantumCircuit
from ..noise import NoiseModel, as_noise_model
from .parallel import METHODS, CompactTask, resolve_method, run_compact_task
from .result import ExecutionResult

__all__ = ["execute", "DEFAULT_DENSITY_MATRIX_THRESHOLD"]

DEFAULT_DENSITY_MATRIX_THRESHOLD = 10


def execute(
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None = None,
    shots: int | None = None,
    seed: int | None = None,
    method: str = "auto",
    density_matrix_threshold: int = DEFAULT_DENSITY_MATRIX_THRESHOLD,
    max_trajectories: int = 600,
    kernel_backend: str | None = None,
) -> ExecutionResult:
    """Run a circuit and return its measured-output distribution.

    Parameters
    ----------
    circuit:
        The circuit to run.  If it has measurement instructions, the result
        distribution is over those clbits; otherwise over all qubits.
    noise_model:
        Gate and readout noise: anything :func:`~repro.noise.as_noise_model`
        accepts, such as a :class:`~repro.noise.DeviceModel`; ``None`` means
        ideal execution.
    shots:
        If given, the returned distribution is estimated from this many
        samples (and ``counts`` is populated).  Exact methods return the
        exact distribution when ``shots`` is ``None``.
    method:
        ``"auto"`` (default), ``"statevector"``, ``"density_matrix"``,
        ``"trajectory"`` or ``"stabilizer"``.  An explicit ``"stabilizer"``
        request falls back transparently to the auto-selected dense method
        when the circuit (or its noise) is not Clifford/Pauli.
    """
    noise_model = as_noise_model(noise_model) if noise_model is not None else NoiseModel.ideal()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")

    # Method resolution and the execution arithmetic each live in exactly
    # one place — :func:`repro.simulators.parallel.resolve_method` and
    # :func:`~repro.simulators.parallel.run_compact_task`, shared with the
    # engine and every pool worker — which is what keeps the "engine
    # results are bit-identical to sequential execute" contract a
    # structural property rather than a maintenance promise.
    return run_compact_task(
        CompactTask(
            circuit=circuit,
            noise=noise_model,
            method=resolve_method(method, circuit, noise_model, density_matrix_threshold),
            shots=shots,
            seed=seed,
            max_trajectories=max_trajectories,
            kernel_backend=kernel_backend,
        )
    )

