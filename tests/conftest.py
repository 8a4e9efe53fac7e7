"""Suite-wide markers.

Acceptance criteria 4 and 6 take most of the suite's wall time, so they
carry the ``slow`` marker: ``pytest -m "not slow"`` is the fast inner
loop, and a plain ``pytest`` still runs every test.
"""

import pytest

SLOW_TESTS = {
    "test_criterion_4_pivot_oracle_equivalence",
    "test_criterion_6_model_recovery",
}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name in SLOW_TESTS:
            item.add_marker(pytest.mark.slow)
