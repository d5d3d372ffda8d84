"""Qubit remapping and two-qubit basis-gate counting.

:func:`noise_aware_layout` is QuTracer's *qubit remapping* (Sec. V-B): it
places a circuit copy on the best physical qubits of a
:class:`~repro.noise.DeviceModel`, whose calibration of those qubits then
supplies the copy's noise model.  :func:`count_two_qubit_basis_gates` is
the gate-count metric the paper's tables report, computed on the logical
circuit.
"""

from .basis import (
    BASIS_GATES,
    count_two_qubit_basis_gates,
    decompose_to_basis,
    euler_zyz_angles,
)
from .coupling import CouplingMap
from .layout import Layout, noise_aware_layout

__all__ = [
    "BASIS_GATES",
    "decompose_to_basis",
    "count_two_qubit_basis_gates",
    "euler_zyz_angles",
    "CouplingMap",
    "Layout",
    "noise_aware_layout",
]
