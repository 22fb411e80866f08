import linecache
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from badsieve.modmin import first_reaching, icbrt


def brute_first_reaching(a, c, m, s, limit=20000):
    if s < 0:
        return None
    for x in range(limit):
        if (a * x + c) % m <= s:
            return x
    return None


def descent_levels(*args):
    """(result, levels): first_reaching(*args) and how many times its
    descent went one level down, counted by tracing the stack push."""
    levels = 0

    def tracer(frame, event, arg):
        nonlocal levels
        if frame.f_code is not first_reaching.__code__:
            return None
        line = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
        if event == "line" and "stack.append" in line:
            levels += 1
        return tracer

    sys.settrace(tracer)
    try:
        res = first_reaching(*args)
    finally:
        sys.settrace(None)
    return res, levels


def test_first_reaching_limit_small_exhaustive():
    # every (a, c, m, s) with m <= 24 and every limit in [-1, 3m]: the capped
    # kernel returns the scan's answer when it is <= limit, else None
    for m in range(1, 25):
        for a in range(m):
            for c in range(m):
                for s in range(-1, m + 1):
                    want = brute_first_reaching(a, c, m, s, limit=3 * m + 2)
                    for limit in range(-1, 3 * m + 1):
                        got = first_reaching(a, c, m, s, limit)
                        exp = want if want is not None and want <= limit else None
                        assert got == exp, (a, c, m, s, limit)


@settings(max_examples=500, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=2**400),
    a=st.integers(min_value=0, max_value=2**400),
    c=st.integers(min_value=0, max_value=2**400),
    s=st.integers(min_value=-1, max_value=2**400),
    limit=st.one_of(
        st.integers(min_value=-2, max_value=2**64),
        st.integers(min_value=-2, max_value=2**400),
    ),
    data=st.data(),
)
def test_first_reaching_limit_matches_uncapped(m, a, c, s, limit, data):
    s >>= data.draw(st.integers(min_value=0, max_value=400))
    x = first_reaching(a, c, m, s, m - 1)
    want = x if x is not None and x <= limit else None
    assert first_reaching(a, c, m, s, limit) == want
    if x is not None:
        # the boundary on either side of the true answer
        assert first_reaching(a, c, m, s, x) == x
        assert first_reaching(a, c, m, s, x - 1) is None


def test_first_reaching_limit_liouville_modulus_stops_early():
    # Liouville-type coefficient: sum of 10^-k! for k <= 6 over m = 10^720.
    # The uncapped witness has about 714 digits and takes dozens of levels.
    m = 10**720
    a = sum(10 ** (720 - e) for e in (1, 2, 6, 24, 120, 720))
    c = a % m  # x = 0 is not a trivial witness: this searches a*(x+1)
    s = 10**10
    full, full_levels = descent_levels(a, c, m, s, m - 1)
    assert full is not None and full > 10**700
    assert full_levels > 30
    for limit in (0, 1, 10, 1000, 2**64):
        got, levels = descent_levels(a, c, m, s, limit)
        assert got is None
        # a <= m/2 after reflection, so the wrap bound at least halves per level
        assert levels <= min(limit.bit_length(), 8)
    assert descent_levels(a, c, m, s, full) == (full, full_levels)


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=10**6),
    a=st.integers(min_value=0, max_value=10**6),
    c=st.integers(min_value=0, max_value=10**6),
    s=st.integers(min_value=-2, max_value=10**6),
)
def test_first_reaching_matches_scan(m, a, c, s):
    got = first_reaching(a, c, m, s, m - 1)
    want = brute_first_reaching(a, c, m, s)
    if want is not None:
        assert got == want
    elif got is not None:
        # scan gave up early; the claimed x must at least satisfy the predicate
        # and nothing below the scan horizon may satisfy it
        assert (a * got + c) % m <= s
        assert got >= 20000


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=10**9),
    a=st.integers(min_value=0, max_value=10**9),
    c=st.integers(min_value=0, max_value=10**9),
    s=st.integers(min_value=0, max_value=10**9),
)
def test_first_reaching_is_minimal_witness(m, a, c, s):
    x = first_reaching(a, c, m, s, m - 1)
    if x is None:
        # no witness below a generous horizon either
        assert brute_first_reaching(a, c, m, s, limit=2000) is None
    else:
        assert (a * x + c) % m <= s
        if x > 0:
            # spot-check minimality just below x without a full scan
            for probe in range(max(0, x - 50), x):
                assert (a * probe + c) % m > s


def test_first_reaching_huge_modulus():
    # shift by one step so x = 0 is not a trivial witness: search x >= 1
    m = 10**51
    a = 414213562373095048801688724209698078569671875376948
    u = first_reaching(a, a % m, m, 10**40, m - 1)
    assert u is not None
    x = u + 1
    assert x > 1
    assert (a * x) % m <= 10**40
    for probe in range(1, 500):
        assert (a * probe) % m > 10**40


@pytest.mark.parametrize(
    "a,c,m,s,expect",
    [
        (3, 2, 10, 1, 3),
        (4, 3, 10, 0, None),
        (6, 5, 10, 1, 1),
        (0, 7, 9, 6, None),
        (0, 5, 9, 5, 0),
        (1, 0, 1, 0, 0),
    ],
)
def test_first_reaching_pinned(a, c, m, s, expect):
    assert first_reaching(a, c, m, s, m - 1) == expect


def test_icbrt_small_exhaustive():
    r = 0
    for n in range(10**5):
        while (r + 1) ** 3 <= n:
            r += 1
        got = icbrt(n)
        assert type(got) is int
        assert got == r, n


def test_icbrt_around_cubes_to_2_1000():
    # far past 2**1024, where a float seed would overflow
    ks = {2**e + d for e in range(1001) for d in (-1, 0, 1)} | {3**e for e in range(631)}
    for k in sorted(ks - {0}):
        for n, want in ((k**3 - 1, k - 1), (k**3, k), (k**3 + 1, k)):
            got = icbrt(n)
            assert type(got) is int
            assert got == want, k


def test_icbrt_past_512_bits():
    # from 512 bits the start is the root of n's leading half, recursively
    rng = random.Random(26)
    ns = [rng.getrandbits(rng.randrange(500, 6000)) for _ in range(2000)]
    for r in (rng.getrandbits(b) | 1 << (b - 1) for b in range(160, 2000, 7)):
        ns += [r**3 - 1, r**3, r**3 + 1]
    for n in ns:
        r = icbrt(n)
        assert type(r) is int
        assert r**3 <= n < (r + 1) ** 3, n


def test_icbrt_rejects_negative():
    with pytest.raises(ValueError):
        icbrt(-1)
