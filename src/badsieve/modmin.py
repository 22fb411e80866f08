"""Exact minimization of affine maps modulo an integer.

  weighted_min_scan(a1, c1, a2, c2, m, Q, counts)   verify's weighted q-scan
  icbrt(n)                                          exact integer cube root
  validate_scan_bound(Q)                            the one rule on Q: Q >= 1

weighted_min_scan finds every strict running-minimum record of
max(q^2 d1^3, q d2^3) over 1 <= q <= Q, d1 and d2 the distances of
(a1*q + c1) % m and (a2*q + c2) % m from 0, without scoring every q. It
splits (1, Q] into blocks of q. In a block only a q with both distances
below bounds that icbrt computes from the running minimum can set a
record, and those q are lo + x for the points (x, y1, y2) of the 3-D
lattice spanned by (1, a1, a2), (0, m, 0) and (0, 0, m) in a box: one
exact box query of the lattice module per block, sized to hold a few
lattice points, lists them and only they are scored. No float enters.
"""

from __future__ import annotations

from .errors import ConfigError
from .lattice import box_points


def icbrt(n: int) -> int:
    """floor(n ** (1/3)) for an integer n >= 0, by integer Newton steps.

    No float is involved, so any size works (a float seed overflows past
    2**1024). The start lies above the root: from 512 bits on it is
    (icbrt(n >> 3k) + 1) << k, k = bits // 6, which holds the root's leading
    half, so a few steps finish; below, 2**ceil(bits/3) is as fast. Each
    step from above stays at or above the floor of the root while strictly
    decreasing, so the first step that does not decrease ends the walk."""
    if n < 0:
        raise ValueError("cube root of a negative number")
    if n == 0:
        return 0
    bits = n.bit_length()
    if bits < 512:
        x = 1 << -(-bits // 3)
    else:
        k = bits // 6
        x = (icbrt(n >> 3 * k) + 1) << k
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def validate_scan_bound(Q: int) -> None:
    """The one rule on a q-scan's bound: Q >= 1. cli.cmd_verify
    checks it before any work, and each scan before its own."""
    if Q < 1:
        raise ConfigError("scan bound must be >= 1")


def weighted_min_scan(a1: int, c1: int, a2: int, c2: int, m: int, Q: int, counts: dict):
    """Exact min over 1 <= q <= Q of max(q^2 d1^3, q d2^3), where d1 and d2
    are the distances of (a1*q + c1) % m and (a2*q + c2) % m from 0 mod m.

    Returns (best, argmin, trace): the minimum, the first q attaining it, and
    every strict running-minimum record (q, value) in increasing q, stopping
    at the first exact 0. These are the records a scan of every q finds.
    The dict counts receives the scan's work: blocks (box queries),
    listed (parallelepiped points listed for the blocks' boxes) and scored
    (q scored, q = 1 too).

    q = 1 is scored directly; then the blocks lo <= q <= hi run from lo = 2
    up to Q. With best the running minimum when a block starts, a q in it
    sets a strict new record only if q^2 d1^3 < best and q d2^3 < best, so
    d1 <= s1 = icbrt((best - 1) // lo^2) and d2 <= s2 = icbrt((best - 1) // lo).
    Those q are lo + x for the points (x, y1, y2) of the lattice L spanned
    by (1, a1, a2), (0, m, 0), (0, 0, m) in the box 0 <= x <= hi - lo,
    |yi + ri| <= si, ri = (ai*lo + ci) % m centred into (-m/2, m/2].
    lattice.box_points lists them, its basis warm-started from the previous
    block's (L never changes), and they are scored exactly in increasing q.
    best only falls inside a block, so the box holds every q that could set
    a record. q = 1 scores at most (m // 2)^3, so s1 and s2 stay below m / 2
    and each q is one point of the box.

    q + m has the distances of q and a larger score, so the scan stops at
    min(Q, m). A block is about 4*m^2 / ((2*s1 + 1)*(2*s2 + 1)) wide, so
    each box holds about 4 lattice points: wider blocks list more points per
    block, narrower ones pay more reductions."""
    if m <= 0:
        raise ValueError("modulus must be positive")
    validate_scan_bound(Q)
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
        r1, r2 = centred(a1 * lo + c1), centred(a2 * lo + c2)
        box = (0, hi - lo), (-s1 - r1, s1 - r1), (-s2 - r2, s2 - r2)
        points, n = box_points(basis, box)
        blocks += 1
        listed += n
        for q in sorted(lo + x for x, _, _ in points):
            scored += 1
            cubed = score(q)
            if cubed < best:
                best = cubed
                best_q = q
                trace.append((q, cubed))
                if cubed == 0:
                    break
        lo = hi + 1
    counts.update(blocks=blocks, listed=listed, scored=scored)
    return best, best_q, trace
