"""Exact minimization of affine maps modulo an integer.

  weighted_min_scan(a1, c1, a2, c2, m, Q)   verify's weighted q-scan
  icbrt(n)                                  exact integer cube root
  first_reaching(a, c, m, s, L)             minimal x in [0, L] with
                                            (a*x + c) % m <= s

weighted_min_scan finds every strict running-minimum record of
max(q^2 d1^3, q d2^3) over 1 <= q <= Q, d1 and d2 the distances of
(a1*q + c1) % m and (a2*q + c2) % m from 0, without scoring every q. It
splits (1, Q] into blocks of q. In a block only a q with both distances
below bounds that icbrt computes from the running minimum can set a
record, and those q are the points of a coset of the 3-D lattice spanned
by (1, a1, a2), (0, m, 0) and (0, 0, m) in a box: one exact box query of
the lattice module per block, sized to hold a few lattice points, lists
them and only they are scored. No float enters.

first_reaching runs a Euclidean descent: the modulus at least halves per
step, so the cost is O(log m) big-integer operations regardless of how wild
the continued fraction of a/m is, and each level carries the largest wrap
count that could still map back to an x <= L, so a caller that only wants
witnesses up to L pays about log(L) levels. Residues repeat with period m,
so L = m - 1 finds the first x overall. Nothing in the package calls it;
the benchmark's tracer wraps the name.
"""

from __future__ import annotations

from .lattice import _reduce, coset_points


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


def weighted_min_scan(
    a1: int, c1: int, a2: int, c2: int, m: int, Q: int, counts: dict | None = None
):
    """Exact min over 1 <= q <= Q of max(q^2 d1^3, q d2^3), where d1 and d2
    are the distances of (a1*q + c1) % m and (a2*q + c2) % m from 0 mod m.

    Returns (best, argmin, trace): the minimum, the first q attaining it, and
    every strict running-minimum record (q, value) in increasing q, stopping
    at the first exact 0. These are the records a scan of every q finds.
    A dict passed as counts receives the scan's work: blocks (box queries),
    listed (parallelepiped points listed) and scored (q scored, q = 1 too).

    q = 1 is scored directly; then the blocks lo <= q <= hi run from lo = 2
    up to Q. With best the running minimum when a block starts, a q in it
    sets a strict new record only if q^2 d1^3 < best and q d2^3 < best, so
    d1 <= s1 = icbrt((best - 1) // lo^2) and d2 <= s2 = icbrt((best - 1) // lo).
    With the block's centre qc and half-width h, those q are qc + x for the
    points (x, y1, y2) of the coset (0, t1, t2) + L in the box |x| <= h,
    |y1| <= s1, |y2| <= s2, where L is spanned by (1, a1, a2), (0, m, 0),
    (0, 0, m) and ti = (ai*qc + ci) % m, centred into (-m/2, m/2]. The basis
    of L is reduced on the weights that make the box a cube, warm-started
    from the previous block's basis (L never changes), and the coset's
    points in the box are listed exactly and scored exactly in increasing
    q. best only falls inside a block, so the box holds every q that could
    set a record. q = 1 scores at most (m // 2)^3, so s1 and s2 stay below
    m / 2 and each q is one point of the box.

    q + m has the distances of q and a larger score, so the scan stops at
    min(Q, m). A block is about 4*m^2 / ((2*s1 + 1)*(2*s2 + 1)) wide, so
    each box holds about 4 lattice points: wider blocks list more points per
    block, narrower ones pay more reductions."""
    if m <= 0:
        raise ValueError("modulus must be positive")
    if Q < 1:
        raise ValueError("scan bound must be >= 1")
    Q = min(Q, m)
    a1 %= m
    a2 %= m

    def score(q: int) -> int:
        r1 = (a1 * q + c1) % m
        r2 = (a2 * q + c2) % m
        d1 = min(r1, m - r1)
        d2 = min(r2, m - r2)
        return max(q * q * d1**3, q * d2**3)

    def centred(r: int) -> int:
        r %= m
        return r - m if 2 * r > m else r

    best = score(1)
    best_q = 1
    trace = [(1, best)]
    basis = [[1, a1, a2], [0, m, 0], [0, 0, m]]
    blocks = listed = 0
    scored = 1
    lo = 2
    while best and lo <= Q:
        s1 = icbrt((best - 1) // (lo * lo))
        s2 = icbrt((best - 1) // lo)
        hi = min(Q, lo - 1 + max(1, 4 * m * m // ((2 * s1 + 1) * (2 * s2 + 1))))
        qc = (lo + hi) // 2
        h = hi - qc
        t = (0, centred(a1 * qc + c1), centred(a2 * qc + c2))
        hw, w1, w2 = max(h, 1), max(s1, 1), max(s2, 1)
        _reduce(basis, ((w1 * w2) ** 2, (hw * w2) ** 2, (hw * w1) ** 2))
        points, n = coset_points(basis, t, (h, s1, s2))
        blocks += 1
        listed += n
        for q in sorted(qc + x for x, _, _ in points if qc + x >= lo):
            scored += 1
            cubed = score(q)
            if cubed < best:
                best = cubed
                best_q = q
                trace.append((q, cubed))
                if cubed == 0:
                    break
        lo = hi + 1
    if counts is not None:
        counts.update(blocks=blocks, listed=listed, scored=scored)
    return best, best_q, trace
