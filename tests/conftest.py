"""Fixtures shared by the test modules."""

import os
from pathlib import Path

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
