import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilbertcm
from hilbertcm.quadcm import validate_cm_field


@pytest.fixture
def run_under_python_O():
    """Run pytest node ids in a `python -O` subprocess, where plain asserts
    are stripped; returns its summary output and fails if any test failed."""

    def run(*node_ids: str) -> str:
        paths = [str(Path(hilbertcm.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *node_ids],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return proc.stdout

    return run


@pytest.fixture(scope="session")
def field41():
    """D = 5, delta = (-13 + sqrt(5))/2, w = omega; Dtilde = 41."""
    return validate_cm_field(5, (-13, 1), (0, 1))


@pytest.fixture(scope="session")
def field61():
    """D = 5, delta = (-18 + 4*sqrt(5))/2, w = 1; Dtilde = 61."""
    return validate_cm_field(5, (-18, 4), (1, 0))


@pytest.fixture(scope="session")
def zeta5():
    """D = 5, delta = (-5 - sqrt(5))/2, w = 1 + omega; the cyclotomic field."""
    return validate_cm_field(5, (-5, -1), (1, 1))


@pytest.fixture(scope="session")
def field109():
    """D = 5, Dtilde = 109; the smallest D = 5 field where p = D arises."""
    return validate_cm_field(5, (-21, 1), (0, 1))


@pytest.fixture(scope="session")
def field145():
    """D = 5, Dtilde = 145; has an admissible n divisible by D (both signs)."""
    return validate_cm_field(5, (-30, 8), (1, 0))
