"""Best approximation vectors of a two-variable linear form under the
weighted height M^2 = max(|m1|, m2^2).

A nonzero class (m1, m2) (sign classes identified, canonical representative
has m2 > 0, or m2 = 0 and m1 > 0) is a best approximation when no other class
has both height <= its height and zeta <= its zeta, where
zeta = ||theta1*m1 + theta2*m2||. The full sequence is the Pareto staircase of
(height_sq, zeta): heights strictly increase, zetas strictly decrease.

Enumeration never scans the plane. Over a common denominator D the form
is z = A1*m1 + A2*m2 + D*m0 and zeta = min |z| / D, so the classes of
height <= h and zeta <= s/D are the points of the 3-D lattice
{(m1, m2, z)} in the box |m1| <= h, |m2| <= isqrt(h), |z| <= s. One exact
box query of the lattice module lists them: reduce the basis in the metric
in which the box is a cube (Gauss steps on two rows, Babai rounding of the
third, on a Gram matrix weighted by the squared column scales,
warm-started from the previous query's basis), bound each lattice
coordinate over the box by Cramer's rule (the adjugate of the reduced
basis), list that integer parallelepiped and filter the box exactly.

After a record (h0, z0) every class with |z| <= s = z0 - 1 lies above h0,
so the records in (h0, h] are the strict running minimum of |z| over the
height levels of the box (h, s), in increasing height: each one found
lowers s to its z - 1. The enumerator gallops h = 3*h0, 5*h0, 9*h0, ...
(capped at the bound) to the first non-empty box and takes every record it
holds. No float enters, and nothing is done per m2 or per height: the work
grows with the number of records and gallop steps and with the bit size of
the numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .errors import ConfigError, DegenerateForm, PrecisionExhausted
from .lattice import _reduce, parallelepiped
# unused here; the benchmark's tracer (perfbench/spans.py) wraps this name
from .modmin import first_reaching  # noqa: F401
from .rationals import (
    ThetaForm,
    ceil_isqrt,
    fingerprint,
    form_value,
    format_rational,
    validate_precision,
    weighted_height_sq,
)

TYPE1 = 1  # |m1| > m2^2: the first coordinate carries the height
TYPE2 = 2  # m2^2 >= |m1|


def canonical_class(m1: int, m2: int) -> tuple[int, int]:
    """Representative of {m, -m}: m2 > 0, or m2 == 0 and m1 > 0."""
    if m1 == 0 and m2 == 0:
        raise ConfigError("zero vector has no class")
    if m2 < 0 or (m2 == 0 and m1 < 0):
        return -m1, -m2
    return m1, m2


def vector_kind(m1: int, m2: int) -> int:
    return TYPE1 if abs(m1) > m2 * m2 else TYPE2


@dataclass(frozen=True)
class BestApproxVector:
    index: int  # 1-based ordinal in the sequence
    m0: int
    m1: int
    m2: int
    height_sq: int
    zeta: Fraction
    kind: int


@dataclass(frozen=True)
class BestApproxSequence:
    """All best approximation vectors with height_sq <= height_sq_max,
    in height order. height_sq_max is the completeness bound, not the last
    vector's height."""

    theta: ThetaForm
    height_sq_max: int
    vectors: tuple[BestApproxVector, ...]

    def validate(self) -> None:
        prev = None
        for i, v in enumerate(self.vectors, start=1):
            if v.index != i:
                raise ConfigError(f"sequence index gap at {v}")
            if (v.m1, v.m2) != canonical_class(v.m1, v.m2):
                raise ConfigError(f"non-canonical sign at index {i}")
            if v.height_sq != weighted_height_sq(v.m1, v.m2):
                raise ConfigError(f"height mismatch at index {i}")
            if v.kind != vector_kind(v.m1, v.m2):
                raise ConfigError(f"kind mismatch at index {i}")
            if v.height_sq > self.height_sq_max:
                raise ConfigError(f"vector beyond completeness bound at index {i}")
            if prev is not None:
                if not (v.height_sq > prev.height_sq and v.zeta < prev.zeta):
                    raise ConfigError(f"record structure broken at index {i}")
            prev = v


def _box(basis: list[list[int]], h: int, s: int) -> set[tuple[int, int, int]]:
    """The canonical classes (|z|, m1, m2) with |m1| <= h, |m2| <= isqrt(h),
    (m1, m2) != 0 and |z| <= s for some lattice point (m1, m2, z) spanned by
    the rows of basis. A set: a class with lattice points at z = D/2 and
    z = -D/2 (when s = D // 2 and D is even) is one class, not a tie.

    _reduce reduces basis in place, the warm start of the next query, on the
    Gram matrix weighted by w = ((g*s')^2, (h*s')^2, (h*g)^2), g = isqrt(h),
    s' = max(s, 1): the metric in which the box is a cube.
    lattice.parallelepiped bounds each coordinate u[i] of a point u*B of the
    box half = (h, g, s) by |u[i]| <= U_i (Cramer's rule on the adjugate).
    One of each +-u in that integer parallelepiped is listed and filtered
    exactly. It held at most 37 points per query on the catalog pairs to
    M^2 = 2^32, 52 on 120-digit pairs to 2^112, 62 on 340-digit pairs to
    2^448 and 67 on 700-digit pairs to 2^896."""
    g = isqrt(h)
    sp = max(s, 1)
    _reduce(basis, ((g * sp) ** 2, (h * sp) ** 2, (h * g) ** 2))
    (_, U0), (_, U1), (_, U2) = parallelepiped(basis, (h, g, s))
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = basis
    out = set()
    for u2 in range(U2 + 1):
        for u1 in range(-U1 if u2 else 0, U1 + 1):
            p0, p1, p2 = u1 * b0 + u2 * c0, u1 * b1 + u2 * c1, u1 * b2 + u2 * c2
            for u0 in range(-U0 if u1 or u2 else 1, U0 + 1):
                m1, m2, z = u0 * a0 + p0, u0 * a1 + p1, u0 * a2 + p2
                if (m1 or m2) and -h <= m1 <= h and -g <= m2 <= g and -s <= z <= s:
                    out.add((abs(z), *canonical_class(m1, m2)))
    return out


def _check_precision(theta: ThetaForm, h: int, zeta: Fraction, H: int) -> None:
    """validate_precision(theta, h, zeta), failing with the digits of theta
    that the requested bound H needs: the least N with
    10^N > 10*(H + ceil_isqrt(H))*H^(3/2). Some class of height <= H has
    zeta <= H^(-3/2) (Minkowski), so a declared error 10^-d passes the guard
    at H only when d >= N.
    """
    try:
        validate_precision(theta, h, zeta)
    except PrecisionExhausted as e:
        # 10^(2N) > 100*(H + ceil_isqrt(H))^2*H^3 =: X iff 2N >= digits of X
        X = 100 * (H + ceil_isqrt(H)) ** 2 * H**3
        need = (len(str(X)) + 1) // 2
        err = theta.declared_error
        have = len(str(err.denominator // err.numerator)) - 1  # 10^-have >= err
        extra = max(need - have, e.extra_digits or 1)
        raise PrecisionExhausted(
            f"declared truncation error {err} of theta is too coarse: the "
            f"guard fails at height_sq={h}, zeta={zeta}; height_sq_max={H} "
            f"needs at least {need} decimal digits of theta, the declared "
            f"error gives {have}: roughly {extra} more",
            extra_digits=extra,
        ) from None


def enumerate_best_approx(theta: ThetaForm, height_sq_max: int) -> BestApproxSequence:
    """All best approximation vectors with M^2 <= height_sq_max, exactly.

    Raises ConfigError on a negative height_sq_max, DegenerateForm on an
    exact zeta = 0 inside the range or on a tied record decision, and
    PrecisionExhausted when the declared truncation error cannot support a
    record's zeta at its height (checked before that record's zero and tie
    decision) or the last zeta at height_sq_max; its message and
    extra_digits name the digits of theta that height_sq_max needs.
    """
    H = height_sq_max
    if H < 0:
        raise ConfigError(f"negative height bound {H}")
    vectors: list[BestApproxVector] = []
    if H >= 1:
        t1, t2 = theta.theta1, theta.theta2
        D = lcm(t1.denominator, t2.denominator)
        A1 = t1.numerator * (D // t1.denominator)
        A2 = t2.numerator * (D // t2.denominator)
        # lattice points (m1, m2, z = A1*m1 + A2*m2 + D*m0); zeta is the
        # least |z| / D over m0
        basis = [[1, 0, A1], [0, 1, A2], [0, 0, D]]
        h0, s, k = 0, D // 2, 1  # last record's height, zeta bound, gallop step
        while True:
            h = min(H, max(1, h0 + (h0 << k)))
            box = _box(basis, h, s)
            if not box:
                if h == H:
                    break
                k += 1
                continue
            # every class in the box is above h0 (the record at h0 is the
            # least zeta up to h0), so the records in (h0, h] are the strict
            # running minimum of |z| over the box's height levels
            levels: dict[int, list[tuple[int, int, int]]] = {}
            for c in box:
                levels.setdefault(weighted_height_sq(c[1], c[2]), []).append(c)
            for hrec in sorted(levels):
                level = sorted(levels[hrec])
                z, m1, m2 = level[0]
                if z > s:
                    continue
                zeta = Fraction(z, D)
                _check_precision(theta, hrec, zeta, H)
                winners = [(c[1], c[2]) for c in level if c[0] == z]
                if z == 0:
                    raise DegenerateForm(
                        f"exact zero form value at height_sq={hrec}: classes {winners}"
                    )
                if len(winners) > 1:
                    raise DegenerateForm(
                        f"tied record at height_sq={hrec}, zeta={z}/{D}: {winners}"
                    )
                zeta_check, m0 = form_value(theta, m1, m2)
                if zeta_check != zeta:
                    raise RuntimeError("lattice/rational distance mismatch")
                vectors.append(
                    BestApproxVector(
                        index=len(vectors) + 1,
                        m0=m0,
                        m1=m1,
                        m2=m2,
                        height_sq=hrec,
                        zeta=zeta,
                        kind=vector_kind(m1, m2),
                    )
                )
                h0, s = hrec, z - 1
            if h == H:
                break
            k = 1

    seq = BestApproxSequence(theta=theta, height_sq_max=H, vectors=tuple(vectors))
    if vectors:
        _check_precision(theta, H, vectors[-1].zeta, H)
    return seq


def audit_minkowski(seq: BestApproxSequence) -> list[tuple[int, int]]:
    """Consecutive-record product check zeta_v * M_{v+1}^3 <= 1, exactly, as
    zeta^2 * (M^2)^3 <= 1. Returns the list of violating index pairs."""
    bad = []
    for a, b in zip(seq.vectors, seq.vectors[1:]):
        if a.zeta * a.zeta * Fraction(b.height_sq) ** 3 > 1:
            bad.append((a.index, b.index))
    return bad


def audit_growth(seq: BestApproxSequence, step: int = 28) -> list[tuple[str, int, int]]:
    """Height growth check: M^2 must at least quadruple every `step` records,
    globally and within each type subsequence. Returns violating
    (scope, index_a, index_b) triples."""
    bad = []

    def scan(vs, scope):
        for a, b in zip(vs, vs[step:]):
            if b.height_sq < 4 * a.height_sq:
                bad.append((scope, a.index, b.index))

    scan(seq.vectors, "global")
    scan([v for v in seq.vectors if v.kind == TYPE1], "type1")
    scan([v for v in seq.vectors if v.kind == TYPE2], "type2")
    return bad


# --- serialization ---------------------------------------------------------

def sequence_fingerprint(seq: BestApproxSequence) -> str:
    """Identity of a sequence's exact content and completeness bound."""
    text = f"height_sq_max={seq.height_sq_max}\n" + export_sequence_lines(seq)
    return fingerprint(text)


def export_sequence_lines(seq: BestApproxSequence) -> str:
    lines = []
    for v in seq.vectors:
        rec = {
            "index": v.index,
            "m0": v.m0,
            "m1": v.m1,
            "m2": v.m2,
            "height_sq": v.height_sq,
            "zeta": format_rational(v.zeta),
            "kind": v.kind,
        }
        lines.append(json.dumps(rec, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)
