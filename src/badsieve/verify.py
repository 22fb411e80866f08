"""Independent checks, and the exact weighted scores verify reports.

bad_theta_score and bad_alpha_beta_score call _weighted_score, which lists
the q that can set a new running minimum with one lattice box query per
block of q and scores only those, instead of scoring every q.
Everything else here is deliberately naive: exhaustive scans in exact integer
arithmetic, sharing with the clever implementations they audit only the
scaling to a common denominator and, for the q-scans, _scan_report.
linear_weighted_min_scan, which scores every q, is the naive oracle of the
two scores. The weighted scores use fractional exponents 2/3 and 1/3; those
never get evaluated as floats internally. max(q^(2/3) d1, q^(1/3) d2) is
compared across q by cubing: the cube is max(q^2 d1^3, q d2^3), an exact
rational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, isqrt

from .bestapprox import BestApproxSequence, BestApproxVector, vector_kind
from .errors import ConfigError, DegenerateForm
from .lattice import box_points
from .rationals import (
    ThetaForm,
    brief_rational,
    form_range,
    form_value,
    icbrt,
    over_common_denominator,
)


def validate_scan_bound(Q: int) -> None:
    """The one rule on a q-scan's bound: Q >= 1. cli.cmd_verify
    checks it before any work, and each scan before its own."""
    if Q < 1:
        raise ConfigError("scan bound must be >= 1")


def display_score(cubed: Fraction) -> float:
    """A weighted score's float view, libm's cube root of its exact cube, as
    verify's stdout and the verified certificate's "score" both show it."""
    return float(cubed) ** (1.0 / 3.0)


@dataclass(frozen=True)
class ScoreReport:
    """Exact minimum of a weighted quantity over a scan range.

    score_cubed is always the exact cube of the score. exact_score is set
    only when the score itself is rational (the unweighted linear-form case);
    for the q-weighted scores the cube is the exact object and `score` gives
    a float view of its cube root for display. work holds the fast q-scan's
    counters (blocks, listed for the blocks' boxes lo <= q <= hi, scored)
    and takes no part in comparisons.
    """

    bound: int
    score_cubed: Fraction
    argmin: object  # q (int) or a vector pair (m1, m2)
    running_min_trace: tuple[tuple[int, Fraction], ...]  # (position, cubed)
    exact_score: Fraction | None = None
    work: dict | None = field(default=None, compare=False)

    @property
    def score(self) -> float:
        if self.exact_score is not None:
            return float(self.exact_score)
        return display_score(self.score_cubed)


def _scan_report(Q: int, D: int, best: int, argmin: int, trace, work=None) -> ScoreReport:
    """The ScoreReport of a q-scan done in integers over the common
    denominator D: best and each trace value (q, cubed) are cubed scores
    times D^3."""
    D3 = D**3
    return ScoreReport(
        bound=Q,
        score_cubed=Fraction(best, D3),
        argmin=argmin,
        running_min_trace=tuple((q, Fraction(c, D3)) for q, c in trace),
        work=work,
    )


def linear_weighted_min_scan(
    t1: Fraction, t2: Fraction, e1: Fraction, e2: Fraction, Q: int
) -> ScoreReport:
    """Exact min over 1 <= q <= Q of max(q^(2/3)||q t1 - e1||, q^(1/3)||q t2 - e2||),
    scoring every q: the oracle of bad_theta_score and bad_alpha_beta_score.

    Scaled to a common denominator D: the cubed score at q is
    max(q^2 d1^3, q d2^3) / D^3 with d1, d2 the scaled distances, so the whole
    scan is integer-only. Residues advance incrementally; no per-q division.
    """
    validate_scan_bound(Q)
    D, (a1, a2, n1, n2) = over_common_denominator(t1, t2, e1, e2)
    r1, r2 = -n1 % D, -n2 % D
    best = None
    best_q = None
    trace = []
    for q in range(1, Q + 1):
        r1 = (r1 + a1) % D
        r2 = (r2 + a2) % D
        d1 = min(r1, D - r1)
        d2 = min(r2, D - r2)
        cubed = max(q * q * d1**3, q * d2**3)
        if best is None or cubed < best:
            best = cubed
            best_q = q
            trace.append((q, cubed))
            if cubed == 0:
                break
    return _scan_report(Q, D, best, best_q, trace)


def _half_width(n: int) -> int:
    """The q-scan's box half-width: icbrt(n) below 2^26, else icbrt(n) rounded
    up to 9 significant bits, (icbrt(n >> 3k) + 1) << k, k = (n.bit_length()
    - 24) // 3, at most icbrt(n)*(1 + 2^-7) as n >> 3k has 24 to 26 bits.
    Rounded widths share a power of two, which box_points divides out."""
    k = max(0, (n.bit_length() - 24) // 3)
    return (icbrt(n >> 3 * k) + (k > 0)) << k


def _weighted_score(
    t1: Fraction, t2: Fraction, e1: Fraction, e2: Fraction, Q: int
) -> ScoreReport:
    """linear_weighted_min_scan's report, with the scan's work counters,
    from scoring only the q that can set a record.

    Over the common denominator D the cubed score at q is
    max(q^2 d1^3, q d2^3) / D^3, d1 and d2 the distances of
    (a1*q + c1) % D and (a2*q + c2) % D from 0 mod D. q = 1 is scored
    directly; then the blocks lo <= q <= hi run from lo = 2 up to Q. With
    best the running minimum when a block starts, a q in it sets a strict
    new record only if q^2 d1^3 < best and q d2^3 < best, so
    d1 <= icbrt((best - 1) // lo^2) <= s1 and d2 <= icbrt((best - 1) // lo) <= s2,
    si those roots rounded up by _half_width. Those q are lo + x for the
    points (x, y1, y2) of the lattice L spanned by (1, a1, a2), (0, D, 0),
    (0, 0, D) in the box 0 <= x <= hi - lo, |yi + ri| <= si, ri = (ai*lo + ci)
    % D centred into (-D/2, D/2]. lattice.box_points lists them from the
    previous block's basis (L never changes), reduced only if it would list
    over 64 points, and they are scored exactly in increasing q. best only
    falls inside a block, so the box holds every q that could set a record.
    q = 1 scores at most (D // 2)^3 and lo >= 2, so even rounded up s1 and
    s2 stay below D / 2 and each q is one point of the box. A box of over
    2^20 points is a ConfigError naming the block.

    q + D has the distances of q and a larger score, so the scan stops at
    min(Q, D). A block is about 4*D^2 / ((2*s1 + 1)*(2*s2 + 1)) wide, so
    each box holds about 4 lattice points: wider blocks list more points per
    block, narrower ones pay more reductions."""
    validate_scan_bound(Q)
    D, (a1, a2, n1, n2) = over_common_denominator(t1, t2, e1, e2)
    c1, c2 = -n1, -n2
    last = min(Q, D)
    a1 %= D
    a2 %= D

    def score(q: int) -> int:
        r1 = (a1 * q + c1) % D
        r2 = (a2 * q + c2) % D
        d1 = min(r1, D - r1)
        d2 = min(r2, D - r2)
        return max(q * q * d1**3, q * d2**3)

    def centred(r: int) -> int:
        r %= D
        return r - D if 2 * r > D else r

    best = score(1)
    best_q = 1
    trace = [(1, best)]
    basis = [[1, a1, a2], [0, D, 0], [0, 0, D]]
    blocks = listed = 0
    scored = 1
    lo = 2
    while best and lo <= last:
        s1 = _half_width((best - 1) // (lo * lo))
        s2 = _half_width((best - 1) // lo)
        hi = min(last, lo - 1 + max(1, 4 * D * D // ((2 * s1 + 1) * (2 * s2 + 1))))
        r1, r2 = centred(a1 * lo + c1), centred(a2 * lo + c2)
        box = (0, hi - lo), (-s1 - r1, s1 - r1), (-s2 - r2, s2 - r2)
        try:
            points, n = box_points(basis, box)
        except ConfigError as e:
            block = f"{brief_rational(lo)} <= q <= {brief_rational(hi)}"
            raise ConfigError(f"q-scan block {block}: {e}") from None
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
    work = {"blocks": blocks, "listed": listed, "scored": scored}
    return _scan_report(Q, D, best, best_q, trace, work)


def bad_theta_score(theta: ThetaForm, eta: tuple[Fraction, Fraction], Q: int) -> ScoreReport:
    """Inhomogeneous two-weight approximation quality of the shift eta:
    exact min over 1 <= q <= Q of max(q^(2/3)||q theta1 - eta1||,
    q^(1/3)||q theta2 - eta2||). Positive and stable means eta dodges the
    orbit at every scale tested."""
    return _weighted_score(theta.theta1, theta.theta2, eta[0], eta[1], Q)


def bad_alpha_beta_score(theta: ThetaForm, Q: int) -> ScoreReport:
    """Homogeneous counterpart: min over q of max(q^(2/3)||q theta1||,
    q^(1/3)||q theta2||). Decay toward 0 exhibits a pair that is badly
    non-badly-approximable in the weighted sense."""
    zero = Fraction(0)
    return _weighted_score(theta.theta1, theta.theta2, zero, zero, Q)


def linear_form_score(
    theta: ThetaForm, eta: tuple[Fraction, Fraction], seq: BestApproxSequence
) -> ScoreReport:
    """Exact min over the sequence's vectors of ||eta1*m1 + eta2*m2||.

    This is the quantity the sieve certifies to exceed epsilon; here it is
    recomputed directly from eta and the vector list alone."""
    if not seq.vectors:
        raise ConfigError("empty sequence has no linear-form score")
    if seq.theta != theta:
        raise ConfigError("sequence was built for a different theta")
    D, (n1, n2) = over_common_denominator(*eta)
    best = None
    best_v = None
    trace = []
    for v in seq.vectors:
        r = (n1 * v.m1 + n2 * v.m2) % D
        d = min(r, D - r)
        if best is None or d < best:
            best = d
            best_v = v
            trace.append((v.height_sq, Fraction(d, D) ** 3))
    score = Fraction(best, D)
    return ScoreReport(
        bound=seq.height_sq_max,
        score_cubed=score**3,
        argmin=(best_v.m1, best_v.m2),
        running_min_trace=tuple(trace),
        exact_score=score,
    )


def brute_best_approx(theta: ThetaForm, height_sq_max: int) -> BestApproxSequence:
    """Ground-truth record extraction by exhaustive scan.

    Every canonical-sign class with max(|m1|, m2^2) <= bound is evaluated;
    per-height minima are bucketed, then records are read off in height
    order under the same strict-improvement and tie rules as the fast
    enumerator. Quadratic in the bound; keep bounds small."""
    H = height_sq_max
    if H < 0:
        raise ConfigError(f"negative height bound {brief_rational(H)}")
    vectors: list[BestApproxVector] = []
    if H >= 1:
        # no reduction mod D: ThetaForm keeps 0 < theta_i < 1, so 0 < A_i < D
        D, (A1, A2) = over_common_denominator(theta.theta1, theta.theta2)
        # slots[h] = [min_dist_scaled, argmin_m1, argmin_m2, tie_count]
        slots: list[list | None] = [None] * (H + 1)

        def feed(m1: int, m2: int, r: int) -> None:
            h = max(abs(m1), m2 * m2)
            d = min(r, D - r)
            slot = slots[h]
            if slot is None:
                slots[h] = [d, m1, m2, 1]
            elif d < slot[0]:
                slot[0], slot[1], slot[2], slot[3] = d, m1, m2, 1
            elif d == slot[0]:
                slot[3] += 1

        r = A1  # class (1, 0)
        for m1 in range(1, H + 1):
            feed(m1, 0, r)
            r = (r + A1) % D
        for m2 in range(1, isqrt(H) + 1):
            r = (A2 * m2 - H * A1) % D
            for m1 in range(-H, H + 1):
                feed(m1, m2, r)
                r = (r + A1) % D
        zbest = None
        for h in range(1, H + 1):
            slot = slots[h]
            if slot is None:
                continue
            d, m1, m2, ties = slot
            if zbest is not None and d >= zbest:
                continue
            if d == 0:
                raise DegenerateForm(
                    f"exact zero form value at height_sq={h}: class ({m1}, {m2})"
                )
            if ties > 1:
                raise DegenerateForm(
                    f"tied record at height_sq={h}: {ties} classes at distance "
                    f"{brief_rational(Fraction(d, D))}"
                )
            _, m0 = form_value(theta, m1, m2)
            vectors.append(
                BestApproxVector(
                    index=len(vectors) + 1,
                    m0=m0,
                    m1=m1,
                    m2=m2,
                    height_sq=h,
                    zeta=Fraction(d, D),
                    kind=vector_kind(m1, m2),
                )
            )
            zbest = d
    return BestApproxSequence(theta=theta, height_sq_max=H, vectors=tuple(vectors))


def grid_dangerous_children(B, v, cfg) -> dict[int, list[tuple[int, int]]]:
    """Full-grid reference marking: test every child rectangle directly.

    A child is dangerous when its closed form-value range meets the open
    strip (c - eps, c + eps) for some integer c. Returned in the strip
    walk's shape: rows[j] lists the runs of consecutive dangerous i in row j
    as closed ranges (i_lo, i_hi), and rows without any are absent. O(R^3)
    per vector; exists purely to audit the strip-walking implementation."""
    R = cfg.R
    w1, w2 = B.widths(cfg)
    cw1 = w1 / R**2
    cw2 = w2 / R
    eps = cfg.epsilon
    rows = {}
    for j in range(R):
        runs: list[tuple[int, int]] = []
        for i in range(R * R):
            lo, hi = form_range(
                v.m1, v.m2, B.b1 + i * cw1, B.b2 + j * cw2, cw1, cw2
            )
            c_lo = ceil(lo - eps)
            c_hi = floor(hi + eps)
            if any(lo < c + eps and hi > c - eps for c in range(c_lo, c_hi + 1)):
                if runs and runs[-1][1] == i - 1:
                    runs[-1] = (runs[-1][0], i)
                else:
                    runs.append((i, i))
        if runs:
            rows[j] = runs
    return rows
