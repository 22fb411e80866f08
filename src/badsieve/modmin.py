"""Exact minimization of an affine map modulo an integer.

  first_reaching(a, c, m, s, L)   minimal x in [0, L] with (a*x + c) % m <= s

answers "when does (a*x + c) mod m first come within s of 0" without
scanning x. It runs a Euclidean descent: the modulus at least halves per
step, so the cost is O(log m) big-integer operations regardless of how wild
the continued fraction of a/m is. That property is what keeps Liouville-type
coefficients tractable.

The descent is also capped by the answer's size: each level carries the
largest wrap count that could still map back to an x <= L, and the walk
stops with None once that bound is negative. A caller that only wants
witnesses up to L therefore pays about log(L) levels, not the whole
continued fraction of a/m. Residues repeat with period m, so L = m - 1
finds the first x overall.

The kernel drives verify's weighted q-scan, weighted_min_scan: the next q
that can set a new running minimum is the first q whose residue falls in a
window around 0, so the scan jumps from candidate to candidate instead of
scoring every q. icbrt, the exact integer cube root, sizes that window.
"""

from __future__ import annotations


def first_reaching(a: int, c: int, m: int, s: int, limit: int):
    """Smallest x in [0, limit] with (a*x + c) % m <= s, or None if no such
    x exists. s may be any integer; s < 0 or limit < 0 returns None, and
    s >= m - 1 with limit >= 0 returns 0.
    """
    if m <= 0:
        raise ValueError("modulus must be positive")
    if s < 0 or limit < 0:
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
        if x0 > limit:
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
        limit = (limit * a - lo) // m
        a, c, m, s = (-m) % a, (-lo) % a, a, hi - lo
    if res is None:
        return None
    while stack:
        m, a, lo = stack.pop()
        res = (m * res + lo + a - 1) // a
    return res


def icbrt(n: int) -> int:
    """floor(n ** (1/3)) for an integer n >= 0, by integer Newton steps.

    No float is involved, so any size works (a float seed overflows past
    2**1024). The start 2**ceil(bits/3) lies above the root, and each step
    from above stays at or above the floor of the root while strictly
    decreasing, so the first step that does not decrease ends the walk."""
    if n < 0:
        raise ValueError("cube root of a negative number")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def weighted_min_scan(a1: int, c1: int, a2: int, c2: int, m: int, Q: int):
    """Exact min over 1 <= q <= Q of max(q^2 d1^3, q d2^3), where d1 and d2
    are the distances of (a1*q + c1) % m and (a2*q + c2) % m from 0 mod m.

    Returns (best, argmin, trace): the minimum, the first q attaining it, and
    every strict running-minimum record (q, value) in increasing q, stopping
    at the first exact 0. These are the records a scan of every q finds.

    After q, a later q' can set a new record only if q'^2 d1^3 < best, so
    d1 <= s = icbrt((best - 1) // (q + 1)^2), which means
    (a1*q' + c1 + s) % m <= 2*s. first_reaching jumps to the next such q';
    only those candidates are scored. s shrinks as q grows and after each
    record, so about Q^(1/3) candidates are scored in all."""
    if m <= 0:
        raise ValueError("modulus must be positive")
    if Q < 1:
        raise ValueError("scan bound must be >= 1")
    best = None
    best_q = None
    trace = []
    q = 1
    while True:
        r1 = (a1 * q + c1) % m
        r2 = (a2 * q + c2) % m
        d1 = min(r1, m - r1)
        d2 = min(r2, m - r2)
        cubed = max(q * q * d1**3, q * d2**3)
        if best is None or cubed < best:
            best = cubed
            best_q = q
            trace.append((q, cubed))
            if cubed == 0:
                break
        s = icbrt((best - 1) // (q + 1) ** 2)
        x = first_reaching(a1, a1 * (q + 1) + c1 + s, m, 2 * s, Q - q - 1)
        if x is None:
            break
        q += 1 + x
    return best, best_q, trace
