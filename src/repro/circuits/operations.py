"""Primitive circuit operations: gates, measurements, barriers and resets.

The circuit IR in :mod:`repro.circuits` is deliberately small.  An
:class:`Operation` is anything that can sit on a circuit wire; a
:class:`Gate` is a unitary operation with a concrete matrix; measurements,
barriers and resets are non-unitary bookkeeping operations that the
simulators and the QuTracer analysis passes treat specially.

All matrices follow the little-endian qubit convention used throughout the
package: for a gate acting on qubits ``(q0, q1)``, basis state ``|b1 b0>``
is indexed ``b1 * 2 + b0``, i.e. the *first* qubit in the tuple is the least
significant bit of the matrix index.  This matches the behaviour of Qiskit,
which the original QuTracer artifact was built on, so circuit constructions
can be ported literally.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Operation",
    "Gate",
    "UnitaryGate",
    "Measurement",
    "Barrier",
    "Reset",
    "StatePreparation",
    "standard_gate",
    "STANDARD_GATE_NAMES",
    "controlled_matrix",
    "is_hermitian",
    "is_unitary",
    "pauli_matrix",
]


class Operation:
    """Base class for anything that can appear in a circuit.

    Parameters
    ----------
    name:
        Lower-case mnemonic (``"h"``, ``"cx"``, ``"measure"`` ...).
    num_qubits:
        Number of qubit wires the operation touches.
    params:
        Real-valued parameters (rotation angles, phases).
    """

    def __init__(self, name: str, num_qubits: int, params: Sequence[float] = ()) -> None:
        if num_qubits < 0:
            raise ValueError(f"num_qubits must be non-negative, got {num_qubits}")
        self._name = str(name)
        self._num_qubits = int(num_qubits)
        self._params = tuple(float(p) for p in params)
        # This operation's part of a circuit fingerprint, encoded once by
        # repro.circuits.fingerprint (operations are never mutated).
        self._fingerprint_bytes: tuple[bytes, bytes] | None = None

    @property
    def name(self) -> str:
        return self._name

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def params(self) -> tuple[float, ...]:
        return self._params

    @property
    def is_gate(self) -> bool:
        return isinstance(self, Gate)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        if self._params:
            args = ", ".join(f"{p:.6g}" for p in self._params)
            return f"{type(self).__name__}({self._name}({args}), qubits={self._num_qubits})"
        return f"{type(self).__name__}({self._name}, qubits={self._num_qubits})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operation):
            return NotImplemented
        return (
            type(self) is type(other)
            and self._name == other._name
            and self._num_qubits == other._num_qubits
            and len(self._params) == len(other._params)
            and all(
                math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
                for a, b in zip(self._params, other._params)
            )
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._name, self._num_qubits, self._params))


class Gate(Operation):
    """A unitary operation.

    Subclasses (or :func:`standard_gate`) provide the matrix.  The matrix is
    cached on first access because many passes repeatedly query it, and it
    is read-only: the operation's cached fingerprint bytes include it.
    """

    def __init__(self, name: str, num_qubits: int, params: Sequence[float] = ()) -> None:
        super().__init__(name, num_qubits, params)
        self._matrix_cache: np.ndarray | None = None

    def _build_matrix(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix_cache is None:
            mat = np.asarray(self._build_matrix(), dtype=complex)
            dim = 2**self.num_qubits
            if mat.shape != (dim, dim):
                raise ValueError(
                    f"gate {self.name!r} matrix has shape {mat.shape}, expected {(dim, dim)}"
                )
            mat.setflags(write=False)
            self._matrix_cache = mat
        return self._matrix_cache

    def inverse(self) -> "Gate":
        """Return a gate implementing the adjoint of this gate."""
        inverse_name = _INVERSE_NAMES.get(self.name)
        if inverse_name is not None:
            return standard_gate(inverse_name, *self.params)
        if self.name in _PARAMETRIC_SELF_INVERSE_BY_NEGATION:
            return standard_gate(self.name, *(-p for p in self.params))
        return UnitaryGate(self.matrix.conj().T, name=f"{self.name}_dg")

    def is_two_qubit(self) -> bool:
        return self.num_qubits == 2

    def is_diagonal(self) -> bool:
        """True if the matrix is diagonal in the computational basis."""
        mat = self.matrix
        return bool(np.allclose(mat, np.diag(np.diagonal(mat))))


class UnitaryGate(Gate):
    """A gate defined directly by a unitary matrix."""

    def __init__(self, matrix: np.ndarray, name: str = "unitary") -> None:
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("unitary matrix must be square")
        dim = matrix.shape[0]
        num_qubits = int(round(math.log2(dim)))
        if 2**num_qubits != dim:
            raise ValueError(f"matrix dimension {dim} is not a power of two")
        if not is_unitary(matrix):
            raise ValueError("matrix is not unitary")
        super().__init__(name, num_qubits)
        self._matrix_cache = matrix.copy()
        self._matrix_cache.setflags(write=False)

    def _build_matrix(self) -> np.ndarray:  # pragma: no cover - cache always set
        return self._matrix_cache


class Measurement(Operation):
    """Computational-basis measurement of a single qubit into a classical bit."""

    def __init__(self) -> None:
        super().__init__("measure", 1)


class Barrier(Operation):
    """A scheduling barrier; also used to mark QuTracer cut points."""

    def __init__(self, num_qubits: int, label: str | None = None) -> None:
        super().__init__("barrier", num_qubits)
        self.label = label


class Reset(Operation):
    """Reset a qubit to |0>."""

    def __init__(self) -> None:
        super().__init__("reset", 1)


class StatePreparation(Gate):
    """Prepare a single qubit in a given pure state (assumes the wire is |0>).

    The gate matrix maps ``|0>`` to the target state; the image of ``|1>`` is
    the orthogonal complement so that the operation stays unitary.  QSPC uses
    these to prepare the wire-cut basis states |0>, |1>, |+>, |->, |i>, |-i>.
    """

    _LABELS = {
        "0": np.array([1.0, 0.0], dtype=complex),
        "1": np.array([0.0, 1.0], dtype=complex),
        "+": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
        "-": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2),
        "i": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2),
        "-i": np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2),
    }

    def __init__(self, state: str | np.ndarray) -> None:
        if isinstance(state, str):
            if state not in self._LABELS:
                raise ValueError(f"unknown state label {state!r}; expected one of {sorted(self._LABELS)}")
            target = self._LABELS[state]
            label = state
        else:
            target = np.asarray(state, dtype=complex).reshape(2)
            norm = np.linalg.norm(target)
            if norm < 1e-12:
                raise ValueError("cannot prepare the zero vector")
            target = target / norm
            label = "custom"
        super().__init__(f"prep_{label}", 1)
        self._target = target

    @property
    def target_state(self) -> np.ndarray:
        return self._target.copy()

    def _build_matrix(self) -> np.ndarray:
        a, b = self._target
        # Column 0 is the target state; column 1 is an orthonormal complement.
        return np.array([[a, -np.conj(b)], [b, np.conj(a)]], dtype=complex)


# ---------------------------------------------------------------------------
# Standard gate matrices
# ---------------------------------------------------------------------------

_SQRT2_INV = 1.0 / math.sqrt(2.0)

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
_T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)
_TDG = np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_SXDG = _SX.conj().T
_PAULIS = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


@functools.cache
def pauli_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli string, little-endian (first char = qubit 0).

    Built once per label and read-only: the noise channels, the wire-cutting
    algebra and the commutation checks all read the same matrices.

    >>> pauli_matrix("ZI").shape
    (4, 4)
    """
    letters = label.upper()
    if not letters or any(ch not in _PAULIS for ch in letters):
        raise ValueError(f"invalid Pauli label {label!r}")
    matrix = _PAULIS[letters[0]].copy()
    for ch in letters[1:]:
        # Little-endian: later characters act on higher-significance qubits.
        matrix = np.kron(_PAULIS[ch], matrix)
    matrix.setflags(write=False)
    return matrix


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]], dtype=complex
    )


def _phase(lam: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def controlled_matrix(base: np.ndarray, num_ctrl_qubits: int = 1) -> np.ndarray:
    """Build the matrix of a controlled gate in little-endian convention.

    The control qubits are the *last* qubits of the composite gate (highest
    significance), matching the qubit ordering ``(target..., control...)``
    used by :func:`standard_gate` for ``cx``/``cz``/``cp`` where the call
    convention is ``circuit.cx(control, target)`` and the instruction stores
    qubits ``(control, target)``.  See :meth:`Gate.matrix` docs.
    """
    base = np.asarray(base, dtype=complex)
    dim = base.shape[0]
    full = np.eye(dim * 2**num_ctrl_qubits, dtype=complex)
    # The controlled block acts on the subspace where all control qubits are 1.
    full[-dim:, -dim:] = base
    return full


def _two_qubit_from_blocks(control_first: bool, base: np.ndarray) -> np.ndarray:
    """Controlled single-qubit gate on qubits ``(control, target)``.

    Little-endian: qubit 0 of the pair is the first wire passed to the
    instruction.  With ``control_first=True`` the control is the first wire
    (least significant bit); the gate applies ``base`` to the target when
    that bit is 1.
    """
    full = np.eye(4, dtype=complex)
    if control_first:
        # control = bit 0, target = bit 1 -> states |t c> with index t*2 + c
        # control==1 means odd indices {1, 3}
        idx = [1, 3]
    else:
        idx = [2, 3]
    for r, i in enumerate(idx):
        for c, j in enumerate(idx):
            full[i, j] = base[r, c]
    # zero out the identity entries we overwrote incorrectly
    for i in idx:
        for j in range(4):
            if j not in idx:
                full[i, j] = 0.0
                full[j, i] = 0.0
    return full


_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


_FIXED_MATRICES: dict[str, np.ndarray] = {
    "id": _I,
    "x": _X,
    "y": _Y,
    "z": _Z,
    "h": _H,
    "s": _S,
    "sdg": _SDG,
    "t": _T,
    "tdg": _TDG,
    "sx": _SX,
    "sxdg": _SXDG,
    "swap": _SWAP,
}

_PARAMETRIC_BUILDERS: dict[str, tuple[int, int, object]] = {
    # name: (num_qubits, num_params, builder)
    "rx": (1, 1, _rx),
    "ry": (1, 1, _ry),
    "rz": (1, 1, _rz),
    "p": (1, 1, _phase),
    "u": (1, 3, _u3),
}

_CONTROLLED_BASES: dict[str, tuple[str, int]] = {
    # name: (base gate name, num params)
    "cx": ("x", 0),
    "cy": ("y", 0),
    "cz": ("z", 0),
    "ch": ("h", 0),
    "cp": ("p", 1),
    "crx": ("rx", 1),
    "cry": ("ry", 1),
    "crz": ("rz", 1),
}

_INVERSE_NAMES: dict[str, str] = {
    "id": "id",
    "x": "x",
    "y": "y",
    "z": "z",
    "h": "h",
    "s": "sdg",
    "sdg": "s",
    "t": "tdg",
    "tdg": "t",
    "sx": "sxdg",
    "sxdg": "sx",
    "swap": "swap",
    "cx": "cx",
    "cy": "cy",
    "cz": "cz",
    "ch": "ch",
    "ccx": "ccx",
    "cswap": "cswap",
}

_PARAMETRIC_SELF_INVERSE_BY_NEGATION = {"rx", "ry", "rz", "p", "cp", "crx", "cry", "crz", "rzz"}

STANDARD_GATE_NAMES: frozenset[str] = frozenset(
    set(_FIXED_MATRICES)
    | set(_PARAMETRIC_BUILDERS)
    | set(_CONTROLLED_BASES)
    | {"ccx", "cswap", "rzz"}
)


class _StandardGate(Gate):
    """A gate from the built-in library, identified by name + params."""

    def __init__(self, name: str, num_qubits: int, params: Sequence[float]) -> None:
        super().__init__(name, num_qubits, params)

    def _build_matrix(self) -> np.ndarray:
        name = self.name
        if name in _FIXED_MATRICES:
            return _FIXED_MATRICES[name]
        if name in _PARAMETRIC_BUILDERS:
            _, _, builder = _PARAMETRIC_BUILDERS[name]
            return builder(*self.params)
        if name in _CONTROLLED_BASES:
            base_name, _ = _CONTROLLED_BASES[name]
            base = standard_gate(base_name, *self.params).matrix
            return _two_qubit_from_blocks(control_first=True, base=base)
        if name == "rzz":
            (theta,) = self.params
            diag = [
                cmath.exp(-1j * theta / 2),
                cmath.exp(1j * theta / 2),
                cmath.exp(1j * theta / 2),
                cmath.exp(-1j * theta / 2),
            ]
            return np.diag(diag)
        if name == "ccx":
            full = np.eye(8, dtype=complex)
            # controls are qubits 0 and 1 (bits 0,1); target is qubit 2 (bit 2)
            i, j = 0b011, 0b111
            full[i, i] = 0.0
            full[j, j] = 0.0
            full[i, j] = 1.0
            full[j, i] = 1.0
            return full
        if name == "cswap":
            full = np.eye(8, dtype=complex)
            # control is qubit 0 (bit 0); swap qubits 1 and 2 when control==1
            i, j = 0b011, 0b101
            full[i, i] = 0.0
            full[j, j] = 0.0
            full[i, j] = 1.0
            full[j, i] = 1.0
            return full
        raise ValueError(f"unknown standard gate {name!r}")  # pragma: no cover


# Parameter-free standard gates are immutable, so every circuit shares one
# instance per name: building a circuit allocates no gate objects, and each
# gate's matrix is validated and cached once per process.
_FIXED_GATES: dict[str, Gate] = {
    name: _StandardGate(name, 1 if matrix.shape[0] == 2 else 2, ())
    for name, matrix in _FIXED_MATRICES.items()
}


def standard_gate(name: str, *params: float) -> Gate:
    """Construct a gate from the standard library by name.

    >>> standard_gate("h").matrix.shape
    (2, 2)
    >>> standard_gate("rz", 0.5).params
    (0.5,)
    """
    name = name.lower()
    if name in _FIXED_MATRICES:
        if params:
            raise ValueError(f"gate {name!r} takes no parameters")
        return _FIXED_GATES[name]
    if name in _PARAMETRIC_BUILDERS:
        num_qubits, num_params, _ = _PARAMETRIC_BUILDERS[name]
        if len(params) != num_params:
            raise ValueError(f"gate {name!r} takes {num_params} parameter(s), got {len(params)}")
        return _StandardGate(name, num_qubits, params)
    if name in _CONTROLLED_BASES:
        _, num_params = _CONTROLLED_BASES[name]
        if len(params) != num_params:
            raise ValueError(f"gate {name!r} takes {num_params} parameter(s), got {len(params)}")
        return _StandardGate(name, 2, params)
    if name == "rzz":
        if len(params) != 1:
            raise ValueError("gate 'rzz' takes 1 parameter")
        return _StandardGate(name, 2, params)
    if name in ("ccx", "cswap"):
        if params:
            raise ValueError(f"gate {name!r} takes no parameters")
        return _StandardGate(name, 3, ())
    raise ValueError(f"unknown gate name {name!r}")


# ---------------------------------------------------------------------------
# Small linear-algebra helpers used across the package
# ---------------------------------------------------------------------------

def is_unitary(matrix: np.ndarray, atol: float = 1e-9) -> bool:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, identity, atol=atol))


def is_hermitian(matrix: np.ndarray, atol: float = 1e-9) -> bool:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool(np.allclose(matrix, matrix.conj().T, atol=atol))
