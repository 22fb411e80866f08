import signal
from fractions import Fraction
from math import isqrt

import pytest

from badsieve.rationals import ThetaForm

# Per-test wall-clock limit for tier-1; the slowest test takes a few seconds.
TEST_TIME_LIMIT_S = 60

ACCEPTANCE_LINES = []


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT_S. Not an Exception, so Hypothesis
    does not catch it, shrink and replay the example: the test just fails."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test did not finish within {TEST_TIME_LIMIT_S} s")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Fail a hung test (setup, call or teardown) instead of stalling the
    run. A hook rather than a fixture, so Hypothesis tests are covered
    without its health check for function-scoped fixtures."""
    if not hasattr(signal, "SIGALRM"):
        return (yield)
    old = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _time_limit_failure():
    """Re-raise TimeLimitExceeded without the frames it interrupted, naming
    the one the alarm landed in. The alarm can land on an instruction that
    has no line number (a loop's backward jump); a traceback entry with
    tb_lineno None makes pytest's report fail with an INTERNALERROR that
    ends the run, so the slow test would not count as one failure."""
    try:
        return (yield)
    except TimeLimitExceeded as e:
        tb = e.__traceback__
        while tb.tb_next is not None and tb.tb_next.tb_frame.f_code is not _expire.__code__:
            tb = tb.tb_next
        frame = tb.tb_frame
        where = f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}"
        raise TimeLimitExceeded(f"{e} (interrupted in {where})") from None


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    return (yield from _time_limit_failure())


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    return (yield from _time_limit_failure())


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    return (yield from _time_limit_failure())


def expand_rows(rows):
    """The set of children (i, j) that per-row closed i-ranges cover."""
    return {
        (i, j)
        for j, ranges in rows.items()
        for lo, hi in ranges
        for i in range(lo, hi + 1)
    }


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def sqrt_pair_truncated(digits: int) -> ThetaForm:
    """(sqrt2 - 1, sqrt3 - 1) truncated to `digits` decimals, with declared
    error 10^-digits."""
    S = 10**digits
    return ThetaForm(
        Fraction(isqrt(2 * S * S) - S, S),
        Fraction(isqrt(3 * S * S) - S, S),
        Fraction(1, S),
    )
