"""Independent checks, and the exact weighted scores verify reports.

bad_theta_score and bad_alpha_beta_score call modmin.weighted_min_scan,
which lists the q that can set a new running minimum with one coset box
query per block of q and scores only those, instead of scoring every q.
Everything else here is deliberately naive: exhaustive scans in exact integer
arithmetic, no shared machinery with the clever implementations they audit.
linear_weighted_min_scan, which scores every q, is the naive oracle of the
two scores. The weighted scores use fractional exponents 2/3 and 1/3; those
never get evaluated as floats internally. max(q^(2/3) d1, q^(1/3) d2) is
compared across q by cubing: the cube is max(q^2 d1^3, q d2^3), an exact
rational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, isqrt, lcm

from .bestapprox import (
    BestApproxSequence,
    BestApproxVector,
    vector_kind,
)
from .errors import ConfigError, DegenerateForm
from .modmin import weighted_min_scan
from .rationals import ThetaForm, form_range, form_value


@dataclass(frozen=True)
class ScoreReport:
    """Exact minimum of a weighted quantity over a scan range.

    score_cubed is always the exact cube of the score. exact_score is set
    only when the score itself is rational (the unweighted linear-form case);
    for the q-weighted scores the cube is the exact object and `score` gives
    a float view of its cube root for display. work holds the fast q-scan's
    counters (blocks, listed, scored) and takes no part in comparisons.
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
        return float(self.score_cubed) ** (1.0 / 3.0)


def linear_weighted_min_scan(
    t1: Fraction, t2: Fraction, e1: Fraction, e2: Fraction, Q: int
) -> ScoreReport:
    """Exact min over 1 <= q <= Q of max(q^(2/3)||q t1 - e1||, q^(1/3)||q t2 - e2||),
    scoring every q: the oracle of bad_theta_score and bad_alpha_beta_score.

    Scaled to a common denominator D: the cubed score at q is
    max(q^2 d1^3, q d2^3) / D^3 with d1, d2 the scaled distances, so the whole
    scan is integer-only. Residues advance incrementally; no per-q division.
    """
    if Q < 1:
        raise ConfigError("scan bound must be >= 1")
    D = lcm(t1.denominator, t2.denominator, e1.denominator, e2.denominator)
    a1 = t1.numerator * (D // t1.denominator) % D
    a2 = t2.numerator * (D // t2.denominator) % D
    r1 = -e1.numerator * (D // e1.denominator) % D
    r2 = -e2.numerator * (D // e2.denominator) % D
    best = None
    best_q = None
    trace = []
    D3 = D**3
    for q in range(1, Q + 1):
        r1 = (r1 + a1) % D
        r2 = (r2 + a2) % D
        d1 = min(r1, D - r1)
        d2 = min(r2, D - r2)
        cubed = max(q * q * d1**3, q * d2**3)
        if best is None or cubed < best:
            best = cubed
            best_q = q
            trace.append((q, Fraction(cubed, D3)))
            if cubed == 0:
                break
    return ScoreReport(
        bound=Q,
        score_cubed=Fraction(best, D3),
        argmin=best_q,
        running_min_trace=tuple(trace),
    )


def _weighted_score(
    t1: Fraction, t2: Fraction, e1: Fraction, e2: Fraction, Q: int
) -> ScoreReport:
    """linear_weighted_min_scan's report, from modmin.weighted_min_scan on
    the numerators over the common denominator D, with the scan's work
    counters."""
    if Q < 1:
        raise ConfigError("scan bound must be >= 1")
    D = lcm(t1.denominator, t2.denominator, e1.denominator, e2.denominator)

    def scaled(x: Fraction) -> int:
        return x.numerator * (D // x.denominator)

    work = {}
    best, best_q, trace = weighted_min_scan(
        scaled(t1), -scaled(e1), scaled(t2), -scaled(e2), D, Q, work
    )
    D3 = D**3
    return ScoreReport(
        bound=Q,
        score_cubed=Fraction(best, D3),
        argmin=best_q,
        running_min_trace=tuple((q, Fraction(c, D3)) for q, c in trace),
        work=work,
    )


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
    e1, e2 = eta
    D = lcm(e1.denominator, e2.denominator)
    n1 = e1.numerator * (D // e1.denominator)
    n2 = e2.numerator * (D // e2.denominator)
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
        raise ConfigError(f"negative height bound {H}")
    vectors: list[BestApproxVector] = []
    if H >= 1:
        t1, t2 = theta.theta1, theta.theta2
        D = lcm(t1.denominator, t2.denominator)
        A1 = t1.numerator * (D // t1.denominator) % D
        A2 = t2.numerator * (D // t2.denominator) % D
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

        r = (A1 + 0) % D  # class (1, 0)
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
                    f"tied record at height_sq={h}: {ties} classes at distance {d}/{D}"
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
    n = B.level
    w1 = cfg.delta / R ** (2 * n)
    w2 = cfg.delta / R**n
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
