"""Classical readout (measurement) errors.

The paper models measurement errors as per-qubit classical bit flips applied
to the measured outcome (no crosstalk in the simulator noise models; the
real devices add crosstalk which Jigsaw targets).  A :class:`ReadoutError`
stores the asymmetric confusion matrix of a single qubit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReadoutError"]


class ReadoutError:
    """Single-qubit readout confusion.

    Parameters
    ----------
    prob_1_given_0:
        Probability of reading 1 when the qubit is in |0>.
    prob_0_given_1:
        Probability of reading 0 when the qubit is in |1>.  Defaults to the
        same value as ``prob_1_given_0`` (symmetric error).
    """

    def __init__(self, prob_1_given_0: float, prob_0_given_1: float | None = None) -> None:
        if prob_0_given_1 is None:
            prob_0_given_1 = prob_1_given_0
        for value in (prob_1_given_0, prob_0_given_1):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"readout error probability {value} out of [0, 1]")
        self.prob_1_given_0 = float(prob_1_given_0)
        self.prob_0_given_1 = float(prob_0_given_1)

    @property
    def confusion_matrix(self) -> np.ndarray:
        """2x2 matrix ``M[measured, actual]``."""
        return np.array(
            [
                [1.0 - self.prob_1_given_0, self.prob_0_given_1],
                [self.prob_1_given_0, 1.0 - self.prob_0_given_1],
            ]
        )

    @property
    def average_error(self) -> float:
        return 0.5 * (self.prob_1_given_0 + self.prob_0_given_1)

    def is_trivial(self) -> bool:
        return self.prob_1_given_0 == 0.0 and self.prob_0_given_1 == 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ReadoutError(p(1|0)={self.prob_1_given_0:.4g}, p(0|1)={self.prob_0_given_1:.4g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReadoutError):
            return NotImplemented
        return (
            abs(self.prob_1_given_0 - other.prob_1_given_0) < 1e-12
            and abs(self.prob_0_given_1 - other.prob_0_given_1) < 1e-12
        )

