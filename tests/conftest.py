"""Marks long-running tests ``slow`` so ``pytest -m "not slow"`` skips them.

The marker is applied here rather than in the test files, so the
acceptance suite stays byte-for-byte as written. A plain run still runs
every test.
"""

import pytest

# Training runs under several clip strategies: most of the suite's wall time.
SLOW_TESTS = {"test_7_training_dynamics_directions"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name in SLOW_TESTS:
            item.add_marker(pytest.mark.slow)
