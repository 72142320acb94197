"""A time limit on every test, so that a hang fails its test instead of stalling Tier-1.

The limit covers a test's setup, call and teardown, and with them the
module-scoped fixtures its setup builds (criterion 5's ensembles are one):
an autouse fixture would start only after those. Where ``SIGALRM`` does not
exist the tests run with no limit. The previous handler is restored after
each test.
"""

import signal

import pytest

TIME_LIMIT_S = 300  # about 18x the slowest test, criterion 9


def _expire(signum, frame):
    raise TimeoutError(f"test ran past its {TIME_LIMIT_S} s limit")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not hasattr(signal, "SIGALRM"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
