import faulthandler
import os

import pytest

from treebed import validate_params

# Seconds one test may run before every thread's traceback is dumped and the
# run exits; the slowest test takes a few seconds.
WATCHDOG_S = 120

_watchdog_fd = -1


def pytest_configure(config):
    # Output capture is suspended here, so fd 2 is the real stderr. A dump
    # written to a captured fd would be lost when the process exits.
    global _watchdog_fd
    _watchdog_fd = os.dup(2)


def pytest_unconfigure(config):
    os.close(_watchdog_fd)


@pytest.fixture(autouse=True)
def _watchdog():
    """Turn a hanging test into a traceback and a failed run."""
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=_watchdog_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def p5():
    return validate_params(1, 5)


@pytest.fixture(scope="session")
def p7():
    return validate_params(2, 7)
