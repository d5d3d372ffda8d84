"""Specialized dense gate kernels: structural classification + pluggable backends.

The generic dense path (:func:`repro.simulators.apply.apply_matrix_to_statevector_batch`)
treats every fused block as an arbitrary ``2**k x 2**k`` matrix: reshape,
``np.tensordot``, ``moveaxis``, ``ascontiguousarray`` — three full passes
over the ``(T, 2**n)`` amplitude block plus a small-M GEMM, regardless of
what the matrix actually *is*.  For the compacted 2-7 qubit circuits of
subset-tracing workloads most fused blocks are structurally trivial:

* **diag** — products of Z/S/T/RZ/CZ-type gates are diagonal; applying one
  is an elementwise multiply by a precomputed ``2**n`` phase vector (one
  pass, ~10x the generic path on the ensemble workload).
* **perm** — products of X/Y/CX/SWAP/CZ chains are *generalized
  permutations* (exactly one nonzero per row and column); applying one is a
  single precomputed fancy-index gather, plus a phase multiply when any
  entry is not exactly 1.
* **dense1q / dense2q** — genuinely dense 1-2 qubit blocks are applied with
  axis-aligned elementwise kernels over bit-strided views, skipping the
  tensordot round-trip's transpose copies.
* **generic** — everything else (3+ qubit dense blocks) falls back to the
  always-correct tensordot path.

Classification happens **once per fused block at fusion time**
(:func:`repro.simulators.fusion.fuse_circuit` attaches a :class:`KernelPlan`
to every ``FusedOperation``), so the per-gate hot loop does zero
re-analysis; the plan lazily caches its full-index phase/gather vectors on
first application.

Backends
--------
The ``kernel_backend=`` argument of
:class:`~repro.simulators.engine.ExecutionEngine` and the simulator entry
points selects how classified kernels execute:

* ``"numpy"`` (default) — vectorized numpy kernels as described above.
* ``"generic"`` — force every block through the tensordot reference path
  (the control arm of the kernel-tier benchmarks).

Equivalence contract
--------------------
Every specialized kernel computes the same contraction as the generic
tensordot reference.  Agreement is **bit-identical** whenever the block's
entries make the arithmetic exact — permutation/diagonal entries in
``{0, ±1, ±i}``, i.e. X/Y/Z/S/CX/CZ/SWAP chains — and bounded by a few ulp
per amplitude otherwise (BLAS contracts multiply-adds with FMA; elementwise
numpy kernels round products individually).  The differential suite
(``tests/test_kernels.py``) pins both halves of this contract, and the
engine keys sampled/statevector cache entries by the backend so results
produced under different kernel routings never share a cache line.

Dispatch accounting
-------------------
``kernel_dispatch_counts()`` exposes per-kind counters incremented inside
:func:`apply_fused_operation` itself — the hot loop, not a parallel
bookkeeping path.  The engine stamps the effective backend into trace
events, so with these counts a BENCH regression can be attributed to
kernel routing.  Counters are per-process (pool workers count in their own
process, like every other hot-path tally).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

import numpy as np

from .apply import apply_matrix_to_statevector_batch

__all__ = [
    "KernelPlan",
    "classify_matrix",
    "build_plan",
    "apply_fused_operation",
    "apply_plan",
    "apply_plan_to_density_matrix",
    "resolve_backend",
    "kernel_dispatch_counts",
    "reset_kernel_dispatch_counts",
    "KERNEL_KINDS",
]

KERNEL_KINDS = ("diag", "perm", "dense1q", "dense2q", "generic")
_BACKEND_NAMES = ("numpy", "generic")

# Tolerance-free classification: an entry is "zero" only when it is exactly
# zero.  Gate matrices and their products are built from exact literals and
# rounded arithmetic — a dense block never has exactly-zero off-diagonals by
# accident, and an exact test keeps the specialized kernels bit-compatible
# with the tensordot reference (0 * x contributes exactly nothing).

_dispatch_counts: dict[str, int] = {kind: 0 for kind in KERNEL_KINDS}


def kernel_dispatch_counts() -> dict[str, int]:
    """Snapshot of per-kind kernel dispatches in this process (hot-loop tally)."""
    return dict(_dispatch_counts)


def reset_kernel_dispatch_counts() -> None:
    for kind in KERNEL_KINDS:
        _dispatch_counts[kind] = 0


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


def resolve_backend(name: str | None = None) -> str:
    """Resolve a backend request to the effective backend; ``None`` means ``"numpy"``."""
    name = "numpy" if name is None else name.lower()
    if name not in _BACKEND_NAMES:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {_BACKEND_NAMES}"
        )
    return name


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------


@dataclasses.dataclass
class KernelPlan:
    """Structural classification of one fused block, computed once at fusion.

    ``kind`` routes the hot loop; the ``diag``/``perm`` payloads are in the
    block's ``2**k`` subspace (little-endian in the block's sorted wire
    tuple) and the full-dimension phase/gather vectors are derived lazily on
    first application and cached — a program that is fused but never run
    (e.g. only inspected) pays nothing beyond classification.
    """

    kind: str
    qubits: tuple[int, ...]
    matrix: np.ndarray
    num_qubits: int
    # diag payload: the 2**k diagonal.
    diag: np.ndarray | None = None
    # perm payload: column index of the single nonzero per row, and the
    # nonzero values themselves (phases).
    perm: np.ndarray | None = None
    phases: np.ndarray | None = None
    trivial_phases: bool = False  # all phases exactly 1 -> pure gather
    # Lazy full-dimension caches (2**num_qubits):
    _phase_full: np.ndarray | None = dataclasses.field(default=None, repr=False)
    _source_full: np.ndarray | None = dataclasses.field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Lazy full-index payloads
    # ------------------------------------------------------------------

    def _derive_full_payloads(self) -> None:
        """Fill the ``2**n`` phase vector and, for ``perm``, the gather vector."""
        sub, spread = _wire_index(self.qubits, self.num_qubits)
        if self.kind == "diag":
            self._phase_full = self.diag[sub]
            return
        self._phase_full = self.phases[sub]
        self._source_full = np.arange(len(sub), dtype=np.intp) + (spread[self.perm] - spread)[sub]

    def phase_full(self) -> np.ndarray:
        """``2**n`` phase vector: entry ``i`` scales amplitude ``i``."""
        if self._phase_full is None:
            self._derive_full_payloads()
        return self._phase_full

    def source_full(self) -> np.ndarray:
        """``2**n`` gather vector: output amplitude ``i`` reads input ``source[i]``.

        ``matrix[r, perm[r]]`` is the only nonzero of row ``r``, so output
        sub-index ``r`` reads input sub-index ``perm[r]``; the non-block
        bits pass through unchanged.
        """
        if self._source_full is None:
            self._derive_full_payloads()
        return self._source_full


@functools.lru_cache(maxsize=32)
def _wire_index(qubits: tuple[int, ...], num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Index maps shared by every plan on ``qubits``: ``sub[i]`` is the
    little-endian block sub-index of basis state ``i``, and ``spread[s]`` the
    bits of sub-index ``s`` placed on their wires.  Read-only; the cache
    holds at most 32 ``2**n`` index vectors."""
    full = np.arange(2**num_qubits, dtype=np.intp)
    sub = np.zeros_like(full)
    for j, q in enumerate(qubits):
        sub |= ((full >> q) & 1) << j
    spread = np.zeros(2 ** len(qubits), dtype=np.intp)
    spread[sub] = full & sum(1 << q for q in qubits)
    sub.flags.writeable = spread.flags.writeable = False
    return sub, spread


def classify_matrix(matrix: np.ndarray) -> str:
    """Structural kind of a block matrix: diag / perm / dense1q / dense2q / generic."""
    dim = matrix.shape[0]
    nonzero = matrix != 0
    count = np.count_nonzero(nonzero)
    if count == np.count_nonzero(nonzero.diagonal()):
        return "diag"
    # dim nonzeros with at least one in every row and column: one in each.
    if count == dim and nonzero.any(axis=0).all() and nonzero.any(axis=1).all():
        return "perm"
    if dim == 2:
        return "dense1q"
    if dim == 4:
        return "dense2q"
    return "generic"


def build_plan(
    matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> KernelPlan:
    """Classify one fused block and precompute its kernel payload."""
    qubits = tuple(qubits)
    kind = classify_matrix(matrix)
    plan = KernelPlan(kind=kind, qubits=qubits, matrix=matrix, num_qubits=num_qubits)
    if kind == "diag":
        plan.diag = np.ascontiguousarray(np.diagonal(matrix))
    elif kind == "perm":
        # Exactly one nonzero per row, so the first nonzero column is it.
        perm = (matrix != 0).argmax(axis=1)
        plan.perm = perm.astype(np.intp)
        plan.phases = np.ascontiguousarray(matrix[np.arange(matrix.shape[0]), perm])
        plan.trivial_phases = bool(np.all(plan.phases == 1.0))
    return plan


# ----------------------------------------------------------------------
# numpy kernels — operate on a C-contiguous (B, 2**n) amplitude block
# ----------------------------------------------------------------------


def _np_diag(states: np.ndarray, plan: KernelPlan, inplace: bool) -> np.ndarray:
    phase = plan.phase_full()
    if inplace:
        states *= phase
        return states
    return states * phase


def _np_perm(states: np.ndarray, plan: KernelPlan) -> np.ndarray:
    out = states[:, plan.source_full()]
    if not plan.trivial_phases:
        out *= plan.phase_full()
    return out


def _np_dense1q(states: np.ndarray, plan: KernelPlan) -> np.ndarray:
    (q,) = plan.qubits
    m = plan.matrix
    batch, dim = states.shape
    view = states.reshape(batch, dim >> (q + 1), 2, 1 << q)
    lo, hi = view[:, :, 0, :], view[:, :, 1, :]
    out = np.empty_like(view)
    np.multiply(lo, m[0, 0], out=out[:, :, 0, :])
    out[:, :, 0, :] += m[0, 1] * hi
    np.multiply(lo, m[1, 0], out=out[:, :, 1, :])
    out[:, :, 1, :] += m[1, 1] * hi
    return out.reshape(batch, dim)


def _np_dense2q(states: np.ndarray, plan: KernelPlan) -> np.ndarray:
    q1, q2 = plan.qubits  # sorted ascending by the fusion layer
    m = plan.matrix
    batch, dim = states.shape
    mid = 1 << (q2 - q1 - 1)
    view = states.reshape(batch * (dim >> (q2 + 1)), 2, mid, 2, 1 << q1)
    sub = [view[:, j >> 1, :, j & 1, :] for j in range(4)]
    out = np.empty_like(view)
    for i in range(4):
        target = out[:, i >> 1, :, i & 1, :]
        np.multiply(sub[0], m[i, 0], out=target)
        for j in range(1, 4):
            target += m[i, j] * sub[j]
    return out.reshape(batch, dim)


def _np_generic(states: np.ndarray, plan: KernelPlan) -> np.ndarray:
    return apply_matrix_to_statevector_batch(
        states, plan.matrix, plan.qubits, plan.num_qubits
    )


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------


def apply_fused_operation(
    states: np.ndarray,
    plan: KernelPlan | None,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    backend: str = "numpy",
    inplace: bool = False,
) -> np.ndarray:
    """Apply one fused block to a ``(B, 2**n)`` amplitude batch.

    The single hot-loop entry point of the dense tier: routes on the plan's
    precomputed ``kind`` (zero re-analysis), counts the dispatch, and falls
    back to the generic tensordot path for unclassified blocks or the
    ``"generic"`` backend.  ``inplace=True`` lets the diag kernel scale the
    caller-owned buffer without allocating.
    """
    kind = "generic" if plan is None or backend == "generic" else plan.kind
    _dispatch_counts[kind] += 1
    return apply_plan(states, plan, matrix, qubits, num_qubits, backend, inplace)


def apply_plan(
    states: np.ndarray,
    plan: KernelPlan | None,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    backend: str = "numpy",
    inplace: bool = False,
) -> np.ndarray:
    """The routing of :func:`apply_fused_operation` without the dispatch count.

    For operators that are not fused blocks, such as the Pauli insertions of
    the trajectory ensemble, so the counters keep one tally per fused block.
    """
    if plan is None or backend == "generic":
        return apply_matrix_to_statevector_batch(states, matrix, qubits, num_qubits)
    kind = plan.kind
    if kind == "generic":
        return _np_generic(states, plan)
    if kind == "diag":
        return _np_diag(states, plan, inplace)
    if kind == "perm":
        return _np_perm(states, plan)
    if kind == "dense1q":
        return _np_dense1q(states, plan)
    return _np_dense2q(states, plan)


def apply_plan_to_density_matrix(
    rho: np.ndarray, plan: KernelPlan | None, backend: str = "numpy"
) -> np.ndarray | None:
    """Specialized ``M rho M^dagger`` for diag/perm blocks; ``None`` = no fast path.

    A diagonal block conjugates as an elementwise outer phase scaling
    (``rho_ij -> d_i rho_ij conj(d_j)``) and a generalized permutation as a
    row+column gather — both one or two passes instead of the generic
    conjugation's two contractions over the ``4**n`` matrix.  Dense blocks
    return ``None`` and the caller keeps the generic conjugation.
    """
    if plan is None or backend == "generic":
        return None
    if plan.kind == "diag":
        _dispatch_counts["diag"] += 1
        phase = plan.phase_full()
        return rho * np.outer(phase, phase.conj())
    if plan.kind == "perm":
        _dispatch_counts["perm"] += 1
        source = plan.source_full()
        out = rho[np.ix_(source, source)]
        if not plan.trivial_phases:
            phase = plan.phase_full()
            out *= np.outer(phase, phase.conj())
        return out
    return None
