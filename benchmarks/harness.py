"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation (Sec. VII).  The workloads are scaled-down versions of the
paper's (see EXPERIMENTS.md for the mapping): the original experiments use
10-15 qubit circuits, 100k shots and IBM hardware; here everything runs on
the bundled simulators in a few minutes while preserving the comparisons the
paper makes (which method wins, how the gap changes with noise/depth).

Each benchmark prints the rows/series it reproduces so the harness output
can be compared side by side with the paper's tables and figures.
"""

from __future__ import annotations

import dataclasses

from repro.circuits import QuantumCircuit
from repro.core import QuTracer, QuTracerOptions
from repro.distributions import hellinger_fidelity
from repro.mitigation import PauliCheck, run_jigsaw, run_pcs, run_sqem
from repro.noise import DeviceModel, NoiseModel
from repro.simulators import ExecutionEngine, get_default_engine, ideal_distribution

__all__ = [
    "MethodOutcome",
    "run_original",
    "run_all_methods",
    "print_table",
    "cz_block_region",
    "record_bench",
]


def record_bench(
    name: str,
    median_seconds: float,
    speedup: float | None = None,
    extra: dict | None = None,
) -> None:
    """Record one benchmark measurement in a ``BENCH_engine.json`` artifact.

    The file maps benchmark name -> ``{median_seconds, speedup, ...}`` and is
    the machine-readable performance trajectory of the engine hot path: CI
    uploads it on every run, so regressions show up as a diff rather than a
    vibe.  ``extra`` merges additional context into the entry (environment
    facts a reader needs to interpret the number — e.g. ``cpu_cores`` for a
    process-parallel measurement, cold/warm split for a cache ratio).

    By default the file is written under :func:`tempfile.gettempdir`, so a
    test run never rewrites the committed ``BENCH_engine.json`` at the
    repository root.  Set ``BENCH_ENGINE_JSON`` to write it anywhere else —
    including over the committed file, to refresh it on purpose.
    """
    import json
    import os
    import tempfile

    path = os.environ.get(
        "BENCH_ENGINE_JSON", os.path.join(tempfile.gettempdir(), "BENCH_engine.json")
    )
    data: dict = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):  # pragma: no cover - corrupt artifact
            data = {}
    entry: dict = {"median_seconds": round(float(median_seconds), 6)}
    if speedup is not None:
        entry["speedup"] = round(float(speedup), 2)
    if extra:
        for key, value in extra.items():
            entry[key] = round(value, 6) if isinstance(value, float) else value
    data[name] = entry
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


@dataclasses.dataclass
class MethodOutcome:
    name: str
    fidelity: float
    normalized_shots: float = 1.0
    avg_two_qubit_gates: float | None = None


def run_original(
    circuit: QuantumCircuit,
    noise: NoiseModel,
    shots: int,
    seed: int,
    engine: ExecutionEngine | None = None,
) -> MethodOutcome:
    engine = engine or get_default_engine()
    ideal = ideal_distribution(circuit)
    result = engine.execute(circuit, noise, shots=shots, seed=seed, max_trajectories=200)
    from repro.transpiler import count_two_qubit_basis_gates

    return MethodOutcome(
        name="Original",
        fidelity=hellinger_fidelity(result.distribution, ideal),
        normalized_shots=1.0,
        avg_two_qubit_gates=count_two_qubit_basis_gates(circuit),
    )


def cz_block_region(circuit: QuantumCircuit) -> tuple[int, int]:
    """Instruction range spanning every two-qubit gate (for PCS checks)."""
    payload = [inst for inst in circuit.data if not inst.is_measurement]
    positions = [i for i, inst in enumerate(payload) if inst.is_two_qubit_gate]
    if not positions:
        return (0, len(payload))
    return (min(positions), max(positions) + 1)


def run_all_methods(
    circuit: QuantumCircuit,
    noise: NoiseModel,
    shots: int = 8192,
    seed: int = 11,
    subset_size: int = 1,
    include_sqem: bool = True,
    include_ideal_pcs: bool = False,
    device: DeviceModel | None = None,
    shots_per_circuit: int | None = None,
    engine: ExecutionEngine | None = None,
) -> dict[str, MethodOutcome]:
    """Run Original / Jigsaw / (ideal PCS) / (SQEM) / QuTracer on one workload.

    All methods share one :class:`ExecutionEngine`, so circuits repeated
    across methods (the original circuit, shared subset circuits) are
    simulated once and served from the cache afterwards.  Sweeps should pass
    a sweep-level ``engine``: the engine's readout-factored state cache then
    reuses the expensive gate-noise simulations across datapoints that only
    differ in measurement error — the exact density matrices (``dm-state``,
    also across shot budgets) and the seeded trajectory ensembles such as
    ideal PCS (``traj-state``).
    """
    from repro.transpiler import count_two_qubit_basis_gates

    engine = engine or ExecutionEngine()
    ideal = ideal_distribution(circuit)
    outcomes: dict[str, MethodOutcome] = {}
    outcomes["Original"] = run_original(circuit, noise, shots, seed, engine=engine)

    jigsaw = run_jigsaw(
        circuit, noise, shots=shots, subset_size=max(subset_size, 2), seed=seed, engine=engine
    )
    outcomes["Jigsaw"] = MethodOutcome(
        name="Jigsaw",
        fidelity=hellinger_fidelity(jigsaw.mitigated_distribution, ideal),
        normalized_shots=1.0,
        avg_two_qubit_gates=outcomes["Original"].avg_two_qubit_gates,
    )

    if include_ideal_pcs:
        region = cz_block_region(circuit)
        checks = [PauliCheck(pauli={q: "Z"}, region=region) for q in circuit.measured_qubits]
        # The instrumented circuit doubles in width (one ancilla per check),
        # forcing the trajectory method; 150 noise realisations keep the
        # fidelity estimate stable at a quarter of the default cost.
        pcs = run_pcs(
            circuit, checks, noise, ideal_checks=True, seed=seed, engine=engine,
            max_trajectories=150,
        )
        outcomes["Ideal PCS"] = MethodOutcome(
            name="Ideal PCS",
            fidelity=hellinger_fidelity(pcs.mitigated_distribution, ideal),
        )

    if include_sqem:
        sqem = run_sqem(
            circuit,
            noise,
            device=device,
            shots=shots,
            shots_per_circuit=shots_per_circuit,
            subset_size=1,
            seed=seed,
            engine=engine,
        )
        outcomes["SQEM"] = MethodOutcome(
            name="SQEM",
            fidelity=sqem.mitigated_fidelity,
            normalized_shots=sqem.normalized_shots,
            avg_two_qubit_gates=sqem.average_copy_two_qubit_gates,
        )

    tracer = QuTracer(
        noise_model=noise,
        device=device,
        shots=shots,
        shots_per_circuit=shots_per_circuit,
        seed=seed,
        engine=engine,
    )
    result = tracer.run(circuit, subset_size=subset_size)
    outcomes["QuTracer"] = MethodOutcome(
        name="QuTracer",
        fidelity=result.mitigated_fidelity,
        normalized_shots=result.normalized_shots,
        avg_two_qubit_gates=result.average_copy_two_qubit_gates,
    )
    return outcomes


def print_table(title: str, rows: list[dict], columns: list[str]) -> None:
    print(f"\n=== {title} ===")
    header = " | ".join(f"{c:>18}" for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print(" | ".join(f"{_fmt(row.get(c, '')):>18}" for c in columns))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
