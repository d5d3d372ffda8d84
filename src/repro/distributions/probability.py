"""Probability distributions over measurement outcomes.

A :class:`ProbabilityDistribution` is a distribution over ``num_bits``-bit
outcomes.  Outcomes are stored as integers; bit ``i`` of the integer is
classical bit ``i`` (little-endian).  Bitstring representations follow the
Qiskit convention of printing the most-significant bit first, so the paper's
distributions and ours read the same way.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["ProbabilityDistribution", "Counts", "scatter_outcomes"]


def scatter_outcomes(
    items: Iterable[tuple[int, float]] | Iterable[tuple[int, int]],
    positions: Sequence[int],
) -> dict:
    """Move bit ``i`` of each outcome to bit ``positions[i]``.

    Weights of outcomes that land on the same expanded value accumulate
    (integer weights stay integers).  Used to expand a compacted result —
    probabilities or counts over the active wires only — back onto its
    original wire positions, with the dropped wires reading 0.  An outcome
    with a set bit beyond ``len(positions)`` has no defined destination and
    is rejected.
    """
    width = len(positions)
    expanded: dict[int, float | int] = {}
    for outcome, weight in items:
        if outcome >> width:
            raise ValueError(
                f"outcome {outcome} does not fit in {width} positions"
            )
        full = 0
        for bit, position in enumerate(positions):
            if (outcome >> bit) & 1:
                full |= 1 << position
        expanded[full] = expanded.get(full, 0) + weight
    return expanded


class ProbabilityDistribution:
    """A normalised (or normalisable) distribution over bitstring outcomes."""

    def __init__(
        self,
        data: Mapping[int, float] | Mapping[str, float] | np.ndarray | Sequence[float],
        num_bits: int,
    ) -> None:
        if num_bits < 0:
            raise ValueError("num_bits must be non-negative")
        self.num_bits = int(num_bits)
        self._probs: dict[int, float] = {}
        if isinstance(data, Mapping):
            for key, value in data.items():
                outcome = self._parse_key(key)
                if value < -1e-12:
                    raise ValueError(f"negative probability {value} for outcome {key}")
                value = max(float(value), 0.0)
                if value > 0.0:
                    self._probs[outcome] = self._probs.get(outcome, 0.0) + value
        else:
            array = np.asarray(data, dtype=float)
            if array.ndim != 1 or array.size != 2**self.num_bits:
                raise ValueError(
                    f"dense probability vector must have length {2**self.num_bits}"
                )
            for outcome, value in enumerate(array):
                if value < -1e-9:
                    raise ValueError(f"negative probability {value} at index {outcome}")
                if value > 0.0:
                    self._probs[outcome] = float(value)

    def _parse_key(self, key: int | str) -> int:
        if isinstance(key, str):
            if len(key) != self.num_bits:
                raise ValueError(
                    f"bitstring {key!r} has length {len(key)}, expected {self.num_bits}"
                )
            outcome = int(key, 2)
        else:
            outcome = int(key)
        if outcome < 0 or outcome >= 2**self.num_bits:
            raise ValueError(f"outcome {key!r} out of range for {self.num_bits} bits")
        return outcome

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def uniform(cls, num_bits: int) -> "ProbabilityDistribution":
        return cls(np.full(2**num_bits, 1.0 / 2**num_bits), num_bits)

    @classmethod
    def point(cls, outcome: int, num_bits: int) -> "ProbabilityDistribution":
        return cls({outcome: 1.0}, num_bits)

    # ------------------------------------------------------------------
    # Mapping-like access
    # ------------------------------------------------------------------

    def __getitem__(self, key: int | str) -> float:
        return self._probs.get(self._parse_key(key), 0.0)

    def get(self, key: int | str, default: float = 0.0) -> float:
        return self._probs.get(self._parse_key(key), default)

    def items(self) -> Iterable[tuple[int, float]]:
        return self._probs.items()

    def outcomes(self) -> list[int]:
        return sorted(self._probs)

    def __len__(self) -> int:
        return len(self._probs)

    def __contains__(self, key: int | str) -> bool:
        return self._parse_key(key) in self._probs

    @property
    def total(self) -> float:
        return float(sum(self._probs.values()))

    def to_dict(self, bitstrings: bool = False) -> dict:
        """Plain dict; with ``bitstrings=True`` keys are MSB-first strings."""
        if not bitstrings:
            return dict(self._probs)
        return {self.bitstring(k): v for k, v in self._probs.items()}

    def bitstring(self, outcome: int) -> str:
        return format(outcome, f"0{self.num_bits}b") if self.num_bits else ""

    def to_array(self) -> np.ndarray:
        dense = np.zeros(2**self.num_bits, dtype=float)
        for outcome, value in self._probs.items():
            dense[outcome] = value
        return dense

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    @classmethod
    def _trusted(cls, probs: dict[int, float], num_bits: int) -> "ProbabilityDistribution":
        """Wrap positive weights over in-range integer outcomes as they are."""
        new = cls.__new__(cls)
        new.num_bits = num_bits
        new._probs = probs
        return new

    def copy(self) -> "ProbabilityDistribution":
        """Independent copy; mutating one side never affects the other."""
        return ProbabilityDistribution._trusted(dict(self._probs), self.num_bits)

    def normalized(self) -> "ProbabilityDistribution":
        total = self.total
        if total <= 0:
            raise ValueError("cannot normalise an all-zero distribution")
        # The keys are parsed already; keep positive weights, as the constructor does.
        return ProbabilityDistribution._trusted(
            {k: p for k, v in self._probs.items() if (p := v / total) > 0}, self.num_bits
        )

    def marginal(self, bits: Sequence[int]) -> "ProbabilityDistribution":
        """Marginal distribution over ``bits`` (in the given order).

        Bit ``i`` of the marginal outcome is bit ``bits[i]`` of the original
        outcome.
        """
        bits = [int(b) for b in bits]
        for b in bits:
            if b < 0 or b >= self.num_bits:
                raise ValueError(f"bit index {b} out of range")
        if len(set(bits)) != len(bits):
            raise ValueError("duplicate bit indices")
        result: dict[int, float] = {}
        for outcome, value in self._probs.items():
            reduced = 0
            for i, b in enumerate(bits):
                if (outcome >> b) & 1:
                    reduced |= 1 << i
            result[reduced] = result.get(reduced, 0.0) + value
        return ProbabilityDistribution(result, len(bits))

    def expectation_z(self, bits: Sequence[int] | None = None) -> float:
        """Expectation of the parity observable ``Z`` on ``bits`` (default all)."""
        if bits is None:
            bits = range(self.num_bits)
        bits = list(bits)
        value = 0.0
        for outcome, prob in self._probs.items():
            parity = sum((outcome >> b) & 1 for b in bits) % 2
            value += prob * (1.0 - 2.0 * parity)
        return value

    def sample(self, shots: int, rng: np.random.Generator | None = None) -> "Counts":
        """Draw ``shots`` samples and return a :class:`Counts` object.

        The draw equals ``rng.choice(len(self), shots, p=probs)`` over the
        normalised probabilities in key order, bit for bit and on the same
        generator state: it inverts the same ``rng.random(shots)`` stream
        through the same normalised cumulative sum, without ``choice``'s
        per-call validation.  Keys come in order of first draw, as a
        per-shot tally would insert them: later float sums over the counts
        run in dict order.
        """
        if shots <= 0:
            raise ValueError("shots must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        dist = self.normalized()
        outcomes = list(dist._probs)
        probs = np.fromiter(dist._probs.values(), float, len(outcomes))
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        draws = cdf.searchsorted(rng.random(shots), side="right")
        tallies = np.bincount(draws, minlength=len(outcomes))
        first = np.full(len(outcomes), shots)
        np.minimum.at(first, draws, np.arange(shots))
        drawn = np.argsort(first)[: np.count_nonzero(tallies)]
        return Counts._trusted(
            {outcomes[i]: int(tallies[i]) for i in drawn.tolist()}, self.num_bits
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilityDistribution):
            return NotImplemented
        if self.num_bits != other.num_bits:
            return False
        keys = set(self._probs) | set(other._probs)
        return all(math.isclose(self[k], other[k], abs_tol=1e-9) for k in keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        items = ", ".join(
            f"{self.bitstring(k)}: {v:.4f}" for k, v in sorted(self._probs.items())
        )
        return f"ProbabilityDistribution({{{items}}}, num_bits={self.num_bits})"


class Counts:
    """Integer shot counts over bitstring outcomes."""

    def __init__(self, counts: Mapping[int, int] | Mapping[str, int], num_bits: int) -> None:
        self.num_bits = int(num_bits)
        self._counts: dict[int, int] = {}
        for key, value in counts.items():
            if isinstance(key, str):
                outcome = int(key, 2)
            else:
                outcome = int(key)
            if outcome < 0 or outcome >> self.num_bits:
                raise ValueError(f"outcome {key!r} out of range for {self.num_bits} bits")
            if value < 0:
                raise ValueError("counts must be non-negative")
            if value:
                self._counts[outcome] = self._counts.get(outcome, 0) + int(value)

    @property
    def shots(self) -> int:
        return sum(self._counts.values())

    def __getitem__(self, key: int | str) -> int:
        if isinstance(key, str):
            key = int(key, 2)
        return self._counts.get(int(key), 0)

    def items(self) -> Iterable[tuple[int, int]]:
        return self._counts.items()

    def to_dict(self, bitstrings: bool = False) -> dict:
        if not bitstrings:
            return dict(self._counts)
        return {format(k, f"0{self.num_bits}b"): v for k, v in self._counts.items()}

    @classmethod
    def _trusted(cls, counts: dict[int, int], num_bits: int) -> "Counts":
        """Wrap positive counts of in-range integer outcomes as they are."""
        new = cls.__new__(cls)
        new.num_bits = num_bits
        new._counts = counts
        return new

    def copy(self) -> "Counts":
        """Independent copy; mutating one side never affects the other."""
        return Counts._trusted(dict(self._counts), self.num_bits)

    def to_distribution(self) -> ProbabilityDistribution:
        """Shot frequencies, in this object's key order; keys are not re-parsed."""
        total = self.shots
        if total <= 0:
            raise ValueError("counts must contain at least one shot")
        return ProbabilityDistribution._trusted(
            {k: v / total for k, v in self._counts.items()}, self.num_bits
        )

    def merge(self, other: "Counts") -> "Counts":
        if other.num_bits != self.num_bits:
            raise ValueError("cannot merge counts with different widths")
        merged = dict(self._counts)
        for key, value in other.items():
            merged[key] = merged.get(key, 0) + value
        return Counts(merged, self.num_bits)

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Counts({self.to_dict(bitstrings=True)})"
