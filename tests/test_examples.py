"""Smoke tests for the ``examples/`` scripts.

Each script is executed in-process (same interpreter, no subprocess
overhead) with stdout captured; the test asserts it completes and that
every fidelity it reports is a finite probability-like number.  This keeps
the examples honest: an API change that breaks a script, or a regression
that sends a fidelity to NaN/0, fails the suite instead of rotting in the
docs.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import runpy

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "examples")

# A fidelity value is whatever number follows the word "fidelity" on an
# output line ("QuTracer fidelity    : 0.93", "unmitigated: fidelity 0.903").
_FIDELITY = re.compile(r"fidelity\s*[:=]?\s*([0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)")

_EXAMPLES = [
    pytest.param("quickstart.py", 3, id="quickstart"),
    pytest.param("qpe_phase_readout.py", 2, id="qpe"),
    pytest.param("vqe_error_mitigation.py", 4, id="vqe"),
    # ~30s: a full subset-size-2 QuTracer run on a 6-qubit QAOA circuit.
    pytest.param("qaoa_maxcut.py", 2, id="qaoa", marks=pytest.mark.slow),
]


def _all_example_scripts() -> set[str]:
    return {name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")}


def test_every_example_is_covered():
    """A new example script must be added to the smoke-test table."""
    covered = {param.values[0] for param in _EXAMPLES}
    assert covered == _all_example_scripts()


def _assert_finite_fidelities(script: str, output: str, min_fidelity_lines: int) -> None:
    fidelities = [float(match) for match in _FIDELITY.findall(output)]
    assert len(fidelities) >= min_fidelity_lines, (
        f"{script} printed {len(fidelities)} fidelity value(s), "
        f"expected >= {min_fidelity_lines}:\n{output}"
    )
    for value in fidelities:
        assert math.isfinite(value), f"{script} reported a non-finite fidelity:\n{output}"
        assert -1e-9 <= value <= 1.0 + 1e-9, (
            f"{script} reported fidelity {value} outside [0, 1]:\n{output}"
        )


@pytest.mark.parametrize("script,min_fidelity_lines", _EXAMPLES)
def test_example_completes_with_finite_fidelities(script, min_fidelity_lines):
    path = os.path.join(EXAMPLES_DIR, script)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        runpy.run_path(path, run_name="__main__")
    _assert_finite_fidelities(script, buffer.getvalue(), min_fidelity_lines)
