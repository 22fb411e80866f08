"""Exact minimization of an affine map modulo an integer.

  first_reaching(a, c, m, s, L)   minimal x in [0, L] with (a*x + c) % m <= s

answers "when does (a*x + c) mod m first come within s of 0" without
scanning x. It runs a Euclidean descent: the modulus at least halves per
step, so the cost is O(log m) big-integer operations regardless of how wild
the continued fraction of a/m is. That property is what keeps Liouville-type
coefficients tractable.

With a limit L the descent is also capped by the answer's size: each level
carries the largest wrap count that could still map back to an x <= L, and
the walk stops with None once that bound is negative. A caller that only
wants witnesses up to L therefore pays about log(L) levels, not the whole
continued fraction of a/m.

Nothing in the package calls it yet. It is the kernel of a planned
sublinear exact q-scan for verify: the next q that can set a new running
minimum is the first q whose residue falls in a window.
"""

from __future__ import annotations


def first_reaching(a: int, c: int, m: int, s: int, limit: int | None = None):
    """Smallest x >= 0 with (a*x + c) % m <= s, or None if no x works.

    s may be any integer; s < 0 always returns None, s >= m - 1 returns 0.
    With a limit, only x in [0, limit] count: the result is the uncapped
    answer when that is <= limit and None otherwise (so limit < 0 gives None).
    """
    if m <= 0:
        raise ValueError("modulus must be positive")
    if s < 0 or (limit is not None and limit < 0):
        return None
    a %= m
    c %= m
    stack = []
    res = None
    while True:
        if c <= s:
            res = 0
            break
        if a == 0:
            break
        # Now 0 <= s < c < m. Want minimal x >= 1 with (a*x) % m in [lo, hi].
        lo = m - c
        hi = m - c + s
        if 2 * a > m:
            # reflect: (a*x) % m in [lo, hi]  <=>  ((m-a)*x) % m in [m-hi, m-lo]
            a = m - a
            lo, hi = m - hi, m - lo
        x0 = (lo + a - 1) // a
        if limit is not None and x0 > limit:
            # every solution has a*x >= lo, so x >= x0; equivalently the
            # next level's wrap bound (limit*a - lo) // m would be negative
            break
        if a * x0 <= hi:
            res = x0
            break
        # No multiple of a lands in [lo, hi] before the first wrap. Count wraps:
        # need minimal k >= 0 with a multiple of a inside [m*k + lo, m*k + hi],
        # i.e. (-(m*k + lo)) % a <= hi - lo. Same problem one size down.
        # The answer x = ceil((m*k + lo) / a) is <= limit iff
        # k <= (limit*a - lo) // m, which caps the next level (and is >= 0
        # here because a*x0 >= lo).
        stack.append((m, a, lo))
        if limit is not None:
            limit = (limit * a - lo) // m
        a, c, m, s = (-m) % a, (-lo) % a, a, hi - lo
    if res is None:
        return None
    while stack:
        m, a, lo = stack.pop()
        res = (m * res + lo + a - 1) // a
    return res

