import random

import pytest

from badsieve.modmin import icbrt


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
