"""Hellinger distance and fidelity between probability distributions.

Hellinger fidelity is the evaluation metric used throughout the QuTracer
paper (Sec. VI): for distributions ``p`` and ``q``,

    H(p, q)^2 = 1 - sum_i sqrt(p_i q_i)
    F(p, q)   = (1 - H^2)^2 = (sum_i sqrt(p_i q_i))^2

``F`` is 1 for identical distributions and 0 for distributions with disjoint
support, matching ``qiskit.quantum_info.hellinger_fidelity``.
"""

from __future__ import annotations

import math
from typing import Mapping

from .probability import Counts, ProbabilityDistribution

__all__ = ["hellinger_distance", "hellinger_fidelity", "total_variation_distance"]


def _as_distribution(
    dist: ProbabilityDistribution | Counts | Mapping[int, float], num_bits: int | None = None
) -> ProbabilityDistribution:
    if isinstance(dist, ProbabilityDistribution):
        return dist.normalized()
    if isinstance(dist, Counts):
        return dist.to_distribution()
    if num_bits is None:
        # A bitstring key's width is its length ("10" is two bits, not
        # decimal 10); integer keys take the widest key's bit length.
        widths = {len(k) for k in dist if isinstance(k, str)}
        if len(widths) > 1:
            raise ValueError(f"bitstring keys have different lengths {sorted(widths)}")
        if widths:
            (num_bits,) = widths
        else:
            num_bits = max(1, max((int(k) for k in dist), default=0).bit_length())
    return ProbabilityDistribution(dist, num_bits).normalized()


def hellinger_distance(
    p: ProbabilityDistribution | Counts | Mapping[int, float],
    q: ProbabilityDistribution | Counts | Mapping[int, float],
) -> float:
    """Hellinger distance H(p, q) in [0, 1]."""
    p_dist = _as_distribution(p)
    q_dist = _as_distribution(q, num_bits=p_dist.num_bits)
    if p_dist.num_bits != q_dist.num_bits:
        raise ValueError(
            f"distributions have different widths: {p_dist.num_bits} vs {q_dist.num_bits}"
        )
    bhattacharyya = 0.0
    for outcome, value in p_dist.items():
        bhattacharyya += math.sqrt(value * q_dist[outcome])
    bhattacharyya = min(bhattacharyya, 1.0)
    return math.sqrt(max(1.0 - bhattacharyya, 0.0))


def hellinger_fidelity(
    p: ProbabilityDistribution | Counts | Mapping[int, float],
    q: ProbabilityDistribution | Counts | Mapping[int, float],
) -> float:
    """Hellinger fidelity ``(1 - H^2)^2`` in [0, 1]; 1 means identical."""
    distance = hellinger_distance(p, q)
    return (1.0 - distance**2) ** 2


def total_variation_distance(
    p: ProbabilityDistribution | Counts | Mapping[int, float],
    q: ProbabilityDistribution | Counts | Mapping[int, float],
) -> float:
    """Total variation distance, provided as a secondary diagnostic metric."""
    p_dist = _as_distribution(p)
    q_dist = _as_distribution(q, num_bits=p_dist.num_bits)
    if p_dist.num_bits != q_dist.num_bits:
        raise ValueError("distributions have different widths")
    outcomes = set(dict(p_dist.items())) | set(dict(q_dist.items()))
    return 0.5 * sum(abs(p_dist[o] - q_dist[o]) for o in outcomes)
