"""Suite-wide checks."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread alive which was not alive before it started."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    assert not leaked, f"threads left running: {leaked}"
