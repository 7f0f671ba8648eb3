"""A time limit for each test, so that a loop that never ends fails its own
test instead of holding the whole run.  pytest-timeout is not a dependency;
this uses SIGALRM, where the platform has it (not on Windows)."""

import signal

import pytest

TEST_TIME_LIMIT_S = 120  # the slowest test takes about 2 s


def _out_of_time(signum, frame):
    raise TimeoutError(f"test ran longer than {TEST_TIME_LIMIT_S} s")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
