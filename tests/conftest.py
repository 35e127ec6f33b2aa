import faulthandler
import sys

import pytest
from _pytest.faulthandler import fault_handler_stderr_fd_key

from scimetrics.indices import CitationProfile

pytest_plugins = ["pytester"]

# Seconds one test may run before pytest exits with a traceback of every
# thread, so that a hang fails the run instead of blocking it. The whole suite
# takes about 30 s on a 2-vCPU host.
TEST_TIME_LIMIT = 120


@pytest.fixture(autouse=True)
def time_limit(request):
    # pytest's faulthandler plugin keeps a copy of the stderr that output
    # capture does not swallow; the traceback goes there.
    stderr = request.config.stash.get(fault_handler_stderr_fd_key, sys.stderr)
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


# Three demonstration profiles: a top paper that is not dominant (k=0),
# moderately dominant (k=2), and strongly dominant (k=3).
CASE_NO_WEIGHT = (15, 13, 10, 7, 3, 2, 1, 1, 1, 0)
CASE_WEIGHT_2 = (65, 9, 8, 7, 5, 5, 2, 2, 1, 0)
CASE_WEIGHT_3 = (205, 150, 85, 40, 25, 5, 4, 4, 2, 1)


@pytest.fixture
def golden_profiles():
    return {
        "case1": CitationProfile(CASE_NO_WEIGHT),
        "case2": CitationProfile(CASE_WEIGHT_2),
        "case3": CitationProfile(CASE_WEIGHT_3),
    }
