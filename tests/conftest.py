"""Suite-wide markers and settings.

Acceptance criteria 4 and 6 take most of the suite's wall time, so they
carry the ``slow`` marker: ``pytest -m "not slow"`` is the fast inner
loop, and a plain ``pytest`` still runs every test.

A test run writes no bytecode, in this process or in the ones it starts,
so it leaves no ``__pycache__`` in the checkout.  Pytest caches this file's
own bytecode before running it, so that one file is removed here.
"""

import contextlib
import os
import sys
from pathlib import Path

import pytest

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
_CACHE = Path(__file__).with_name("__pycache__")
for _pyc in _CACHE.glob("conftest.*.pyc"):
    _pyc.unlink()
with contextlib.suppress(OSError):  # kept when it holds other files
    _CACHE.rmdir()

SLOW_TESTS = {
    "test_criterion_4_pivot_oracle_equivalence",
    "test_criterion_6_model_recovery",
}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name in SLOW_TESTS:
            item.add_marker(pytest.mark.slow)
