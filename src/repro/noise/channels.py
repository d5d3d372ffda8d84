"""Quantum noise channels in Kraus form.

Every channel is a :class:`KrausChannel` — a completely-positive
trace-preserving map given by a list of Kraus operators.  The builders below
cover the noise the QuTracer paper simulates: depolarizing gate noise
(Sec. VII-A/B), and device-calibrated thermal relaxation + readout noise
(Sec. VII-C/D, the ``ibmq_mumbai`` model).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "KrausChannel",
    "identity_channel",
    "depolarizing_channel",
    "pauli_channel",
    "bit_flip_channel",
    "phase_flip_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "thermal_relaxation_channel",
]

_PAULIS_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class KrausChannel:
    """A CPTP map described by Kraus operators.

    Parameters
    ----------
    kraus_operators:
        Square matrices of equal dimension ``2**num_qubits``.
    name:
        Human-readable label used in reprs and error messages.
    atol:
        Tolerance for the trace-preservation check.
    """

    def __init__(
        self,
        kraus_operators: Sequence[np.ndarray],
        name: str = "kraus",
        atol: float = 1e-8,
    ) -> None:
        operators = [np.asarray(k, dtype=complex) for k in kraus_operators]
        if not operators:
            raise ValueError("a channel needs at least one Kraus operator")
        dim = operators[0].shape[0]
        for op in operators:
            if op.ndim != 2 or op.shape != (dim, dim):
                raise ValueError("all Kraus operators must be square matrices of equal size")
        num_qubits = int(round(math.log2(dim)))
        if 2**num_qubits != dim:
            raise ValueError(f"Kraus dimension {dim} is not a power of two")
        completeness = sum(op.conj().T @ op for op in operators)
        if not np.allclose(completeness, np.eye(dim), atol=atol):
            raise ValueError(f"channel {name!r} is not trace preserving")
        self.name = name
        self.num_qubits = num_qubits
        # Drop numerically-zero operators; they only slow simulation down.
        self.operators: list[np.ndarray] = [
            op for op in operators if np.linalg.norm(op) > 1e-14
        ]

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def is_identity(self, atol: float = 1e-12) -> bool:
        if len(self.operators) != 1:
            return False
        op = self.operators[0]
        phase = op[0, 0]
        if abs(abs(phase) - 1.0) > atol:
            return False
        return bool(np.allclose(op, phase * np.eye(self.dim), atol=atol))

    def apply_to_density_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel to a density matrix of matching dimension."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"density matrix shape {rho.shape} does not match channel dim {self.dim}")
        result = np.zeros_like(rho)
        for op in self.operators:
            result += op @ rho @ op.conj().T
        return result

    def compose(self, other: "KrausChannel") -> "KrausChannel":
        """Channel equal to applying ``self`` first, then ``other``."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("cannot compose channels on different qubit counts")
        operators = [b @ a for a in self.operators for b in other.operators]
        return KrausChannel(operators, name=f"{other.name}∘{self.name}")

    def tensor(self, other: "KrausChannel") -> "KrausChannel":
        """Channel acting as ``self`` on the low qubits and ``other`` on the high qubits."""
        operators = [np.kron(b, a) for a in self.operators for b in other.operators]
        return KrausChannel(operators, name=f"{other.name}⊗{self.name}")

    def reduced(self, atol: float = 1e-12) -> "KrausChannel":
        """Return an equivalent channel with at most ``dim**2`` Kraus operators.

        Composing and tensoring channels multiplies operator counts; this
        method rebuilds a minimal Kraus set from the eigendecomposition of
        the Choi matrix, which keeps density-matrix and trajectory simulation
        costs bounded.
        """
        dim = self.dim
        if len(self.operators) <= dim * dim:
            # Still worth pruning numerically tiny operators, but nothing to gain
            # from the eigendecomposition if the count is already minimal-ish.
            pass
        choi = np.zeros((dim * dim, dim * dim), dtype=complex)
        for op in self.operators:
            vec = op.reshape(-1, order="F")  # column-stacking vectorisation
            choi += np.outer(vec, vec.conj())
        eigenvalues, eigenvectors = np.linalg.eigh(choi)
        operators = []
        for value, vector in zip(eigenvalues, eigenvectors.T):
            if value > atol:
                operators.append(math.sqrt(value) * vector.reshape(dim, dim, order="F"))
        reduced = KrausChannel(operators, name=self.name)
        return reduced

    def superoperator(self) -> np.ndarray:
        """The channel's Liouville matrix ``sum_K kron(K, K.conj())``.

        Under row-major vectorisation (``vec(rho)[i * d + j] = rho[i, j]``)
        ``vec(K rho K^dagger) = kron(K, K.conj()) vec(rho)``, so this
        ``4**n x 4**n`` matrix applies the whole channel as one linear map —
        one contraction per noise site instead of two per Kraus operator.
        Cached on the instance like :meth:`unitary_mixture` and returned
        read-only, since every simulation of the noise model shares it.
        """
        cached = getattr(self, "_superoperator", None)
        if cached is not None:
            return cached
        superoperator = sum(np.kron(op, op.conj()) for op in self.operators)
        superoperator.flags.writeable = False
        self._superoperator = superoperator
        return superoperator

    def uniform_depolarizing_probability(self) -> float | None:
        """Probability ``p`` when this channel is exactly ``rho -> (1-p) rho +
        p I/d (x) tr(rho)``, else ``None``.

        A channel has that closed form iff it is a Pauli mixture whose
        ``4**n - 1`` non-identity Paulis all carry equal probability.  The
        density-matrix simulator then applies the closed form as sums over
        diagonal blocks of ``rho`` instead of contracting the superoperator
        against the whole register.  The answer is cached on the instance —
        channels live as long as their noise model and are queried once per
        gate site per simulation.
        """
        cached = getattr(self, "_uniform_depolarizing", "unset")
        if cached != "unset":
            return cached
        self._uniform_depolarizing = self._detect_uniform_depolarizing()
        return self._uniform_depolarizing

    def _detect_uniform_depolarizing(self, atol: float = 1e-10) -> float | None:
        dim = self.dim
        labels = _all_pauli_labels(self.num_qubits)
        paulis = {label: _pauli_string_matrix(label) for label in labels}
        identity_label = "I" * self.num_qubits
        weights: dict[str, float] = {}
        for op in self.operators:
            overlaps = {
                label: np.trace(p.conj().T @ op) / dim for label, p in paulis.items()
            }
            significant = {l: c for l, c in overlaps.items() if abs(c) > atol}
            if len(significant) != 1:
                return None
            label, coefficient = next(iter(significant.items()))
            weights[label] = weights.get(label, 0.0) + float(abs(coefficient) ** 2)
        non_identity = [weights.get(l, 0.0) for l in labels if l != identity_label]
        first = non_identity[0]
        if any(abs(w - first) > 1e-9 for w in non_identity):
            return None
        total = weights.get(identity_label, 0.0) + sum(non_identity)
        if abs(total - 1.0) > 1e-8:
            return None
        # Per-Pauli weight p/4**n over all 4**n Paulis (incl. identity's share)
        # corresponds to depolarizing probability p = first * dim**2 ... the
        # mixture (1-p) rho + p I/d tr(rho) has non-identity weights p/d^2.
        return float(first * dim * dim)

    def unitary_mixture(
        self,
    ) -> tuple[np.ndarray, list[np.ndarray], list[bool]] | None:
        """Decompose the channel into ``{p_k, U_k}`` when every Kraus operator
        is a scaled unitary (``K_k = sqrt(p_k) U_k``); return ``None``
        otherwise.

        Returns ``(probabilities, unitaries, identity_flags)`` where the
        identity flags mark operators proportional to the identity, whose
        application is a global phase and can be skipped.  For such channels
        the Born probability ``<psi|K^dagger K|psi> = p_k`` is
        state-independent, which is what lets the trajectory samplers
        pre-draw operator indices for a whole ensemble at once.

        Like :meth:`uniform_depolarizing_probability`, the answer is cached
        on the instance — operators are fixed at construction, channels live
        as long as their noise model, and the Gram-matrix decomposition is
        queried once per error site per simulation.
        """
        cached = getattr(self, "_unitary_mixture", "unset")
        if cached != "unset":
            return cached
        self._unitary_mixture = self._decompose_unitary_mixture()
        return self._unitary_mixture

    def _decompose_unitary_mixture(
        self, atol: float = 1e-10
    ) -> tuple[np.ndarray, list[np.ndarray], list[bool]] | None:
        probabilities = []
        unitaries = []
        identity_flags = []
        for op in self.operators:
            gram = op.conj().T @ op
            p = float(np.real(gram[0, 0]))
            if p <= atol:
                continue
            if not np.allclose(gram, p * np.eye(gram.shape[0]), atol=atol):
                return None
            unitary = op / np.sqrt(p)
            probabilities.append(p)
            unitaries.append(unitary)
            identity_flags.append(
                bool(
                    np.allclose(
                        unitary, unitary[0, 0] * np.eye(unitary.shape[0]), atol=atol
                    )
                )
            )
        total = sum(probabilities)
        if not probabilities or abs(total - 1.0) > 1e-8:
            return None
        return np.array(probabilities) / total, unitaries, identity_flags

    def average_gate_fidelity(self) -> float:
        """Average gate fidelity of the channel relative to the identity.

        Uses F_avg = (sum_k |tr K_k|^2 / d + 1) / (d + 1) with d = 2**n.
        Useful in tests to verify channel strengths.
        """
        d = self.dim
        entanglement_fidelity = sum(abs(np.trace(op)) ** 2 for op in self.operators) / d**2
        return float((d * entanglement_fidelity + 1) / (d + 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"KrausChannel({self.name!r}, num_qubits={self.num_qubits}, num_ops={len(self.operators)})"


def identity_channel(num_qubits: int = 1) -> KrausChannel:
    return KrausChannel([np.eye(2**num_qubits, dtype=complex)], name="identity")


def pauli_channel(probabilities: dict[str, float], num_qubits: int = 1) -> KrausChannel:
    """Channel that applies Pauli string ``P`` with probability ``probabilities[P]``.

    The identity probability is inferred so the probabilities sum to one.
    """
    total = sum(probabilities.values())
    if total > 1.0 + 1e-9:
        raise ValueError(f"Pauli error probabilities sum to {total} > 1")
    for label, prob in probabilities.items():
        if prob < 0:
            raise ValueError(f"negative probability for {label!r}")
        if len(label) != num_qubits:
            raise ValueError(f"Pauli label {label!r} has wrong length for {num_qubits} qubit(s)")
    operators = []
    identity_label = "I" * num_qubits
    identity_prob = max(1.0 - total, 0.0) + probabilities.get(identity_label, 0.0)
    if identity_prob > 0:
        operators.append(math.sqrt(identity_prob) * _pauli_string_matrix(identity_label))
    for label, prob in probabilities.items():
        if label == identity_label or prob == 0.0:
            continue
        operators.append(math.sqrt(prob) * _pauli_string_matrix(label))
    return KrausChannel(operators, name="pauli")


def _pauli_string_matrix(label: str) -> np.ndarray:
    matrix = _PAULIS_1Q[label[0].upper()]
    for ch in label[1:]:
        matrix = np.kron(_PAULIS_1Q[ch.upper()], matrix)
    return matrix


def depolarizing_channel(probability: float, num_qubits: int = 1) -> KrausChannel:
    """Depolarizing channel: with probability ``p`` replace the state by the
    maximally mixed state; equivalently apply each non-identity Pauli with
    probability ``p / (4**n - 1) * something`` — we use the standard
    parameterisation rho -> (1-p) rho + p I/d."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"depolarizing probability {probability} out of [0, 1]")
    dim = 4**num_qubits
    pauli_labels = _all_pauli_labels(num_qubits)
    per_pauli = probability / dim
    probabilities = {label: per_pauli for label in pauli_labels if label != "I" * num_qubits}
    channel = pauli_channel(probabilities, num_qubits=num_qubits)
    channel.name = f"depolarizing({probability:.4g})"
    return channel


def _all_pauli_labels(num_qubits: int) -> list[str]:
    labels = [""]
    for _ in range(num_qubits):
        labels = [label + pauli for label in labels for pauli in "IXYZ"]
    return labels


def bit_flip_channel(probability: float) -> KrausChannel:
    channel = pauli_channel({"X": probability})
    channel.name = f"bit_flip({probability:.4g})"
    return channel


def phase_flip_channel(probability: float) -> KrausChannel:
    channel = pauli_channel({"Z": probability})
    channel.name = f"phase_flip({probability:.4g})"
    return channel


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """Energy relaxation towards |0> with damping parameter ``gamma``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma {gamma} out of [0, 1]")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel([k0, k1], name=f"amplitude_damping({gamma:.4g})")


def phase_damping_channel(lam: float) -> KrausChannel:
    """Pure dephasing with parameter ``lam``."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam} out of [0, 1]")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex)
    k1 = np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex)
    return KrausChannel([k0, k1], name=f"phase_damping({lam:.4g})")


def thermal_relaxation_channel(t1: float, t2: float, gate_time: float) -> KrausChannel:
    """Thermal relaxation during ``gate_time`` for a qubit with times ``t1``/``t2``.

    Modelled as amplitude damping (rate ``1/t1``) composed with pure
    dephasing chosen so the total off-diagonal decay is ``exp(-gate_time/t2)``.
    Requires ``t2 <= 2 * t1`` (physical constraint).  Times can be in any
    consistent unit (the paper uses ns for gate times and µs for T1/T2; our
    device models convert to a single unit).
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("t1 and t2 must be positive")
    if t2 > 2 * t1 + 1e-9:
        raise ValueError(f"t2={t2} exceeds the physical limit 2*t1={2 * t1}")
    if gate_time < 0:
        raise ValueError("gate_time must be non-negative")
    if gate_time == 0:
        return identity_channel(1)
    gamma = 1.0 - math.exp(-gate_time / t1)
    # Amplitude damping alone decays coherences by exp(-t / (2 t1)); the
    # remaining dephasing must supply exp(-t (1/t2 - 1/(2 t1))).
    pure_dephasing_rate = max(1.0 / t2 - 1.0 / (2.0 * t1), 0.0)
    lam = 1.0 - math.exp(-2.0 * gate_time * pure_dephasing_rate)
    channel = amplitude_damping_channel(gamma).compose(phase_damping_channel(lam))
    channel.name = f"thermal_relaxation(t1={t1:.4g}, t2={t2:.4g}, t={gate_time:.4g})"
    return channel
