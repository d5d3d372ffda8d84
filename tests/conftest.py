"""Shared test fixtures — seeded randomness for every stochastic test.

Deflake policy
--------------
Every test that draws randomness (random circuits, sampled distributions,
trajectory simulations) routes it through the :func:`make_rng` fixture
below instead of calling ``np.random.default_rng`` directly.  This keeps
all test entropy in one place, so:

* a test failure always reproduces — no test reads OS entropy;
* seeds are visible at the call site (``make_rng(7)``), greppable, and
  changeable in one sweep if a numpy upgrade ever shifts stream contents;
* new tests cannot silently introduce unseeded randomness without
  bypassing the fixture (reviewable in the diff).

Statistical tolerance policy
----------------------------
Seeded tests cannot flake, but their tolerances still document how much
slack the *statistics* need, so that re-seeding (or a numpy RNG change)
keeps them passing with overwhelming probability.  Every statistical
assertion carries a comment deriving its failure probability under
re-seeding, using one of:

* **Hoeffding** for sample means of bounded variables: ``P(|mean - mu| >=
  t) <= 2 exp(-2 N t^2)`` for N samples in [0, 1] (per-outcome frequency
  deviations, Pauli expectations rescaled to [0, 1]).
* **Total variation of an empirical distribution**: ``E[TV] <=
  sqrt((K - 1) / (4 N))`` for K outcomes and N samples, plus a
  McDiarmid tail ``P(TV >= E[TV] + t) <= exp(-2 N t^2)`` — each sample
  changes TV by at most 1/N.

A tolerance is considered deflaked when the documented bound puts the
failure probability at or below ~1e-3 under re-seeding (most are far
smaller); the pinned seed then makes the suite fully deterministic on any
given numpy version.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="session")
def make_rng():
    """Factory for seeded :class:`numpy.random.Generator` instances.

    Session-scoped because the factory itself is stateless (every call
    builds a fresh generator), which also lets hypothesis ``@given`` tests
    use it without tripping the function-scoped-fixture health check.

    Usage::

        def test_something(make_rng):
            rng = make_rng(7)

    The factory is intentionally a thin wrapper over
    ``np.random.default_rng(seed)`` — streams are identical to direct
    calls, so migrating a test to the fixture never changes its data.
    Passing ``None`` is rejected: that would read OS entropy and reintroduce
    flakes.
    """

    def _make(seed: int) -> np.random.Generator:
        if seed is None:
            raise ValueError("tests must pass an explicit seed (deflake policy)")
        return np.random.default_rng(seed)

    return _make


@pytest.fixture
def rng(make_rng) -> np.random.Generator:
    """A default seeded generator for tests that need just one stream."""
    return make_rng(0)
