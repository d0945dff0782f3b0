"""Child processes started by the tests import barthslice from this checkout.

pyproject.toml puts `src` on pytest's own import path; the tests that run
`python -m barthslice.cli` in a fresh process need it on PYTHONPATH too.
"""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_pythonpath():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
        yield
