"""Fixtures shared by the test modules.

BLAS is pinned to one thread before `metalab` (and so numpy) is imported,
as the benchmark pins it: the arrays here are small, so BLAS threads only
add overhead. A value already set in the environment wins, and
`child_env` passes the pins on to child interpreters.
"""

import os
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

import metalab


@pytest.fixture
def child_env() -> dict[str, str]:
    """The environment for a child interpreter that must import this metalab.

    `PYTHONPATH` starts with the `src` directory of the package under test,
    so the child finds it whether or not it is installed and whatever
    `PYTHONPATH` the test run was started with.
    """
    src = str(Path(metalab.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src] + ([rest] if rest else []))}
