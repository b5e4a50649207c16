"""Marks long-running tests ``slow`` so ``pytest -m "not slow"`` skips them,
and loads the one hypothesis profile every property test runs under.

The marker is applied here rather than in the test files, so the
acceptance suite stays byte-for-byte as written. A plain run still runs
every test.
"""

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite is deterministic; no deadline, since timings vary
# between machines. Each test sets only its own max_examples.
settings.register_profile("etrlab", derandomize=True, database=None, deadline=None)
settings.load_profile("etrlab")

# Training runs under several clip strategies: most of the suite's wall time.
SLOW_TESTS = {"test_7_training_dynamics_directions"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name in SLOW_TESTS:
            item.add_marker(pytest.mark.slow)
