"""QFT-based arithmetic: the Draper adder and the Ruiz-Perez multiplier.

These are the QFTAdder (7-q) and QFTMultiplier (4-q) benchmarks of Table II.
Both follow the cited constructions:

* Draper [15]: add a value into a register by rotating in the Fourier basis;
* Ruiz-Perez & Garcia-Escartin [39]: out-of-place multiplication via
  controlled Fourier additions.
"""

from __future__ import annotations

import math

from ..circuits import QuantumCircuit
from .qft import iqft_circuit, qft_circuit

__all__ = [
    "qft_adder_circuit",
    "qft_multiplier_circuit",
]


def qft_adder_circuit(num_sum_bits: int, a: int, b: int, measure: bool = True) -> QuantumCircuit:
    """Two-register Draper adder: ``|a>|b> -> |a>|a + b mod 2^n>``.

    Register ``a`` occupies qubits ``0 .. n-1`` and register ``b`` (which
    receives the sum) occupies qubits ``n .. 2n-1``; only the sum register is
    measured.  The paper's 7-qubit QFTAdder corresponds to
    ``num_sum_bits = 4`` with a 3-bit ``a`` register (7 qubits total); we keep
    the register split general and default the benchmark harness to that
    shape.
    """
    if num_sum_bits < 1:
        raise ValueError("num_sum_bits must be positive")
    num_a_bits = num_sum_bits - 1
    a %= 2**max(num_a_bits, 1)
    b %= 2**num_sum_bits
    num_qubits = num_a_bits + num_sum_bits
    qc = QuantumCircuit(num_qubits, name=f"qft_adder_{num_qubits}")
    qc.metadata["expected_sum"] = (a + b) % 2**num_sum_bits

    a_register = list(range(num_a_bits))
    b_register = list(range(num_a_bits, num_qubits))
    for bit, q in enumerate(a_register):
        if (a >> bit) & 1:
            qc.x(q)
    for bit, q in enumerate(b_register):
        if (b >> bit) & 1:
            qc.x(q)

    qc = qc.compose(qft_circuit(num_sum_bits, with_swaps=False), qubits=b_register)
    # Controlled phase additions: control on a-bit j adds 2^j to the register.
    for j, control in enumerate(a_register):
        for k, target in enumerate(b_register):
            angle = 2.0 * math.pi * 2**j / 2 ** (k + 1)
            angle = math.remainder(angle, 2.0 * math.pi)
            if abs(angle) > 1e-12:
                qc.cp(angle, control, target)
    qc = qc.compose(iqft_circuit(num_sum_bits, with_swaps=False), qubits=b_register)
    if measure:
        qc.measure_subset(b_register)
    return qc


def qft_multiplier_circuit(
    num_a_bits: int, num_b_bits: int, a: int, b: int, measure: bool = True
) -> QuantumCircuit:
    """Out-of-place QFT multiplier: ``|a>|b>|0> -> |a>|b>|a*b>``.

    The output register has ``num_a_bits + num_b_bits`` qubits.  The paper's
    4-qubit QFTMultiplier is the ``1 x 1`` multiplier (1 + 1 + 2 qubits).
    Only the product register is measured.
    """
    if num_a_bits < 1 or num_b_bits < 1:
        raise ValueError("register sizes must be positive")
    a %= 2**num_a_bits
    b %= 2**num_b_bits
    num_out_bits = num_a_bits + num_b_bits
    num_qubits = num_a_bits + num_b_bits + num_out_bits
    qc = QuantumCircuit(num_qubits, name=f"qft_multiplier_{num_qubits}")
    qc.metadata["expected_product"] = (a * b) % 2**num_out_bits

    a_register = list(range(num_a_bits))
    b_register = list(range(num_a_bits, num_a_bits + num_b_bits))
    out_register = list(range(num_a_bits + num_b_bits, num_qubits))
    for bit, q in enumerate(a_register):
        if (a >> bit) & 1:
            qc.x(q)
    for bit, q in enumerate(b_register):
        if (b >> bit) & 1:
            qc.x(q)

    qc = qc.compose(qft_circuit(num_out_bits, with_swaps=False), qubits=out_register)
    # For every pair of set input bits (j, k) add 2^(j+k) to the product
    # register.  A doubly-controlled phase is decomposed into CP conjugated by
    # CX (standard CCP decomposition) to stay within the 1/2-qubit gate set.
    for j, control_a in enumerate(a_register):
        for k, control_b in enumerate(b_register):
            for m, target in enumerate(out_register):
                angle = 2.0 * math.pi * 2 ** (j + k) / 2 ** (m + 1)
                angle = math.remainder(angle, 2.0 * math.pi)
                if abs(angle) < 1e-12:
                    continue
                _append_ccp(qc, angle, control_a, control_b, target)
    qc = qc.compose(iqft_circuit(num_out_bits, with_swaps=False), qubits=out_register)
    if measure:
        qc.measure_subset(out_register)
    return qc


def _append_ccp(qc: QuantumCircuit, angle: float, control_a: int, control_b: int, target: int) -> None:
    """Doubly-controlled phase via the standard CP/CX decomposition."""
    qc.cp(angle / 2.0, control_b, target)
    qc.cx(control_a, control_b)
    qc.cp(-angle / 2.0, control_b, target)
    qc.cx(control_a, control_b)
    qc.cp(angle / 2.0, control_a, target)
