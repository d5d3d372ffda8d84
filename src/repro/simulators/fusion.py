"""Gate fusion: merge runs of adjacent gates into single classified blocks.

For the compacted 2-6 qubit circuits that dominate subset-tracing workloads
the cost of a simulation step is numpy dispatch, not arithmetic, so applying
one fused 3-qubit matrix beats applying the five small gates it replaces.
:func:`fuse_circuit` greedily merges adjacent gates whose combined support
stays within ``max_qubits`` wires into one unitary block, and attaches each
gate's noise-insertion sites *after the block that ends with that gate* —
noise placement is therefore unchanged: a gate followed by noise always
terminates its block, so its channels still act on exactly the state they
would have seen gate-by-gate.

Fusion runs in two passes.  Pass 1 segments the instruction stream into
blocks — a decision that depends only on gate supports, barriers and noise
sites, never on matrix values — and pass 2 materialises each block's matrix
exactly once at its final support by evolving a ``2**k`` identity basis
through the block's gates (one batched application per gate).  The earlier
single-pass spelling re-embedded the whole accumulated matrix every time a
new gate grew the support, which is quadratic in block length; the two-pass
form touches each gate matrix once.

Pass 2 also attaches a :class:`~repro.simulators.kernels.KernelPlan` to
every block — the structural classification (diag / perm / dense1q /
dense2q / generic) that routes the simulators' hot loops to specialized
kernels with zero per-application re-analysis.

Fusion *width* is chosen per program by :func:`choose_fusion_width` when the
caller does not pin it: wide (4-5 wire) blocks amortise dispatch when the
amplitude block ``T * 2**n`` is large, while narrow (3 wire) blocks keep
matrices structurally classifiable when dispatch dominates.

The output is a :class:`FusedProgram` — the common instruction stream
consumed by the ensemble, single-statevector and density-matrix simulators.
Barriers and measurements are fusion boundaries (gates are never merged
across them); measurements themselves are handled by the simulators'
measurement layout, not the program.

Because a noisy gate always ends its block, a circuit can be cut after any
gate with a noise site without changing its fused program:
:func:`split_body` uses that to cut a circuit into a *body*, which circuits
differing only in their final one-qubit rotations share, and a *tail*, so
the density-matrix simulator can evolve a shared body once.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..circuits import QuantumCircuit
from ..noise import KrausChannel, NoiseModel
from .apply import apply_matrix_to_statevector_batch
from .kernels import KernelPlan, build_plan

__all__ = [
    "FusedOperation",
    "FusedProgram",
    "fuse_circuit",
    "split_body",
    "choose_fusion_width",
    "DEFAULT_FUSION_MAX_QUBITS",
    "WIDE_FUSION_MAX_QUBITS",
    "WIDE_FUSION_THRESHOLD",
]

DEFAULT_FUSION_MAX_QUBITS = 3

# Cost-model constants: when the amplitude block T * 2**n meets the
# threshold, per-block dispatch overhead is amortised over enough data that
# wider (and denser) fused matrices win; below it, narrow blocks keep more
# of the stream on the one-pass diag/perm kernels.
WIDE_FUSION_MAX_QUBITS = 5
WIDE_FUSION_THRESHOLD = 1 << 16


def choose_fusion_width(
    num_qubits: int,
    batch_size: int = 1,
    max_qubits: int | None = None,
) -> int:
    """Pick the fusion width for a program: explicit pin wins, else cost model.

    ``max_qubits`` is the caller's explicit override (returned unchanged,
    including ``<= 0`` meaning fusion disabled).  Otherwise the width is
    chosen from the amplitude-block size ``batch_size * 2**num_qubits``:
    :data:`WIDE_FUSION_MAX_QUBITS` when it reaches
    :data:`WIDE_FUSION_THRESHOLD` (arithmetic-bound regime) and
    :data:`DEFAULT_FUSION_MAX_QUBITS` when dispatch dominates — both capped
    at the circuit width, since a block can never out-span the register.
    """
    if max_qubits is not None:
        return max_qubits
    if batch_size * (1 << num_qubits) >= WIDE_FUSION_THRESHOLD:
        return max(1, min(WIDE_FUSION_MAX_QUBITS, num_qubits))
    return max(1, min(DEFAULT_FUSION_MAX_QUBITS, num_qubits))


@dataclasses.dataclass
class FusedOperation:
    """One fused unitary block plus the noise sites that follow it.

    ``qubits`` is sorted ascending and the matrix is little-endian in it
    (first wire = least significant bit), matching the convention of
    :func:`repro.simulators.apply.apply_matrix_to_statevector`.  ``sites``
    are the ``(channel, wires)`` noise insertions of the block's final gate,
    in :meth:`~repro.noise.NoiseModel.channels_for` order.  ``kernel`` is
    the block's structural classification, computed once here so the
    simulators' hot loops never re-analyse the matrix.
    """

    matrix: np.ndarray
    qubits: tuple[int, ...]
    sites: list[tuple[KrausChannel, tuple[int, ...]]]
    kernel: KernelPlan | None = None


@dataclasses.dataclass
class FusedProgram:
    """A circuit lowered to fused unitary blocks with interleaved noise."""

    operations: list[FusedOperation]
    num_qubits: int
    num_gates: int  # gate count before fusion, for diagnostics


@dataclasses.dataclass
class _Segment:
    """Pass-1 output: one block's gates and final support, matrix-free."""

    gates: list  # list of circuit instructions, in order
    support: list[int]  # sorted final wires of the block
    sites: list[tuple[KrausChannel, tuple[int, ...]]]


def fuse_circuit(
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None = None,
    max_qubits: int = DEFAULT_FUSION_MAX_QUBITS,
) -> FusedProgram:
    """Lower ``circuit`` to a :class:`FusedProgram` under ``noise_model``.

    ``max_qubits`` bounds the support of a fused block; ``max_qubits <= 0``
    disables fusion entirely (every gate becomes its own block), which is
    the like-for-like spelling of an unfused program.  A gate wider than
    ``max_qubits`` always forms its own block — gates are never split.
    """
    noise_model = noise_model or NoiseModel.ideal()

    # Pass 1: segment the stream.  Merge decisions read only supports and
    # noise placement, so no matrix arithmetic happens here.
    segments: list[_Segment] = []
    open_seg: _Segment | None = None
    num_gates = 0

    def flush() -> None:
        nonlocal open_seg
        if open_seg is not None:
            segments.append(open_seg)
        open_seg = None

    for inst in circuit.data:
        if inst.is_barrier or inst.is_measurement:
            flush()
            continue
        if not inst.is_gate:
            raise ValueError(f"cannot simulate instruction {inst.name!r}")
        num_gates += 1
        gate_support = sorted(set(inst.qubits))
        if open_seg is None:
            open_seg = _Segment([inst], gate_support, [])
        else:
            merged = sorted(set(open_seg.support) | set(gate_support))
            if len(merged) <= max_qubits:
                open_seg.gates.append(inst)
                open_seg.support = merged
            else:
                flush()
                open_seg = _Segment([inst], gate_support, [])
        sites = _noise_sites(inst, noise_model)
        if sites:
            # Noise must act right after this gate, so the block ends here.
            open_seg.sites = sites
            flush()
    flush()

    # Pass 2: build each block's matrix once, at its final support, by
    # evolving the 2**k identity basis through the block's gates — one
    # batched application per gate, no intermediate re-embedding.
    operations = [
        FusedOperation(
            matrix := _block_matrix(seg),
            qubits := tuple(seg.support),
            seg.sites,
            build_plan(matrix, qubits, circuit.num_qubits),
        )
        for seg in segments
    ]
    return FusedProgram(operations, circuit.num_qubits, num_gates)


def _noise_sites(inst, noise_model: NoiseModel) -> list[tuple[KrausChannel, tuple[int, ...]]]:
    """The non-identity noise insertions that follow one gate."""
    return [
        (channel, qubits)
        for channel, qubits in noise_model.channels_for(inst)
        if not channel.is_identity()
    ]


def split_body(
    circuit: QuantumCircuit, noise_model: NoiseModel
) -> tuple[QuantumCircuit, QuantumCircuit] | None:
    """Cut ``circuit`` into ``(body, tail)`` at a fusion-block boundary.

    The cut starts before the trailing run of one-qubit gates (and the
    measurements among and after them), then moves left past every gate
    without a noise site, so the body ends on a noisy gate or a barrier,
    either of which ends a block.  ``fuse_circuit(body)`` followed by
    ``fuse_circuit(tail)`` therefore equals ``fuse_circuit(circuit)`` op
    for op, and evolving the tail from the body's final state reproduces
    the circuit's evolution bit for bit.  Circuits that differ only in
    their final one-qubit rotations, such as the measurement-basis copies
    of a Pauli check, share one body.  The body has no classical bits; the
    tail keeps the circuit's wires, clbits and measurements.  Returns
    ``None`` when the body would be empty or would hold a measurement,
    itself a fusion boundary the simulators read from the whole circuit.
    """
    data = circuit.data
    cut = len(data)
    while cut and (
        data[cut - 1].is_measurement
        or (data[cut - 1].is_gate and len(data[cut - 1].qubits) == 1)
    ):
        cut -= 1
    while cut and data[cut - 1].is_gate and not _noise_sites(data[cut - 1], noise_model):
        cut -= 1
    if not cut or any(inst.is_measurement for inst in data[:cut]):
        return None
    body = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    body.data = data[:cut]
    tail = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    tail.data = data[cut:]
    return body, tail


def _block_matrix(seg: _Segment) -> np.ndarray:
    """Product of the segment's gates, little-endian in its sorted support.

    Row ``i`` of the evolved basis is ``(G_m ... G_1)|i>`` — column ``i`` of
    the block matrix — so the transpose is the product.  A single-gate
    segment reduces to the exact embedding arithmetic of the previous
    implementation (identity basis through one batched application).
    """
    support = seg.support
    k = len(support)
    first = seg.gates[0]
    if len(seg.gates) == 1 and list(first.qubits) == support:
        return first.operation.matrix
    basis = np.eye(2**k, dtype=complex)
    for inst in seg.gates:
        positions = tuple(support.index(q) for q in inst.qubits)
        basis = apply_matrix_to_statevector_batch(
            basis, inst.operation.matrix, positions, k
        )
    return basis.T
