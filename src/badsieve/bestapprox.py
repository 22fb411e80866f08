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
box query lists them: scale the columns so the box fits a cube, reduce the
basis (Gauss steps on two rows, Babai rounding of the third, warm-started
from the previous query's basis), bound each lattice coordinate over the
box by Cramer's rule (the adjugate of the reduced basis), list that
integer parallelepiped and filter the box exactly.

After a record (h0, z0) every class in the box with s = z0 - 1 lies above
h0, so the next record is the least-height class in the first non-empty
box of a gallop h = 2*h0, 3*h0, 5*h0, ... (capped at the bound), the
least zeta at that height. No float enters, and nothing is done per m2
or per height: the work grows with the number of records and gallop
steps and with the bit size of the numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .errors import ConfigError, DegenerateForm
# unused here; the benchmark's tracer (perfbench/spans.py) wraps this name
from .modmin import first_reaching  # noqa: F401
from .rationals import (
    ThetaForm,
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


def _reduce(b: list[list[int]]) -> None:
    """Reduce the three independent integer rows b in place on their Gram
    matrix G. A pass sorts the rows by norm, then Gauss-reduces row 1 by row 0
    or Babai-rounds row 2 against rows 0 and 1 (Cramer coordinates c/det).
    On return norms are sorted, rows 0, 1 Lagrange-reduced, |2*c[i]| <= det."""
    G = [[0] * 3 for _ in range(3)]
    for i, j in (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2):
        G[i][j] = G[j][i] = b[i][0] * b[j][0] + b[i][1] * b[j][1] + b[i][2] * b[j][2]

    def sub(i: int, j: int, q: int) -> None:  # row i -= q * row j
        if q:
            b[i] = [x - q * y for x, y in zip(b[i], b[j])]
            G[i][i] += q * q * G[j][j] - 2 * q * G[i][j]
            for k in {0, 1, 2} - {i}:
                G[i][k] = G[k][i] = G[i][k] - q * G[j][k]

    while True:
        order = sorted(range(3), key=lambda i: G[i][i])
        b[:] = [b[i] for i in order]
        G[:] = [[G[i][j] for j in order] for i in order]
        if 2 * abs(G[1][0]) > G[0][0]:
            sub(1, 0, (2 * G[1][0] + G[0][0]) // (2 * G[0][0]))
            continue
        det = G[0][0] * G[1][1] - G[0][1] ** 2
        c0 = G[1][1] * G[2][0] - G[0][1] * G[2][1]
        c1 = G[0][0] * G[2][1] - G[0][1] * G[2][0]
        sub(2, 0, (2 * c0 + det) // (2 * det))
        sub(2, 1, (2 * c1 + det) // (2 * det))
        if G[2][2] >= G[1][1]:  # else row 2 got shorter and the norm sum fell
            return


def _cross(p: list[int], q: list[int]) -> tuple[int, int, int]:
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


def _box(basis: list[list[int]], h: int, s: int) -> set[tuple[int, int, int]]:
    """The canonical classes (|z|, m1, m2) with |m1| <= h, |m2| <= isqrt(h),
    (m1, m2) != 0 and |z| <= s for some lattice point (m1, m2, z) spanned by
    the rows of basis. A set: a class with lattice points at z = D/2 and
    z = -D/2 (when s = D // 2 and D is even) is one class, not a tie.

    The columns are scaled by (g*s', h*s', h*g), g = isqrt(h), s' = max(s, 1),
    so the box becomes a cube, and _reduce reduces the scaled basis; basis
    is replaced by the reduced (unscaled) basis B, the warm start of the
    next query. A point x = u*B has u = x*adj(B)/det(B), and the column of
    adj(B) that gives u[i] is the cross product c of the other two rows, so
    in the box |u[i]| <= sum_j |c[j]|*half[j] // |det B|. One of each +-u
    in that integer parallelepiped is listed and filtered exactly; after
    reduction in the cube's metric it held at most 37 points in any query
    measured up to M^2 = 2^448."""
    g = isqrt(h)
    sp = max(s, 1)
    scale = (g * sp, h * sp, h * g)
    b = [[x * c for x, c in zip(row, scale)] for row in basis]
    _reduce(b)
    basis[:] = b0, b1, b2 = [[x // c for x, c in zip(row, scale)] for row in b]
    adj = [_cross(b1, b2), _cross(b2, b0), _cross(b0, b1)]  # columns of adj(B)
    det = abs(sum(x * y for x, y in zip(b0, adj[0])))
    U0, U1, U2 = (sum(abs(c) * w for c, w in zip(col, (h, g, s))) // det for col in adj)
    out = set()
    for u2 in range(U2 + 1):
        for u1 in range(-U1 if u2 else 0, U1 + 1):
            p = [u1 * x + u2 * y for x, y in zip(b1, b2)]
            for u0 in range(-U0 if u1 or u2 else 1, U0 + 1):
                m1, m2, z = (u0 * x + y for x, y in zip(b0, p))
                if (m1 or m2) and abs(m1) <= h and abs(m2) <= g and abs(z) <= s:
                    if (m1, m2) != canonical_class(m1, m2):
                        m1, m2 = -m1, -m2
                    out.add((abs(z), m1, m2))
    return out


def enumerate_best_approx(theta: ThetaForm, height_sq_max: int) -> BestApproxSequence:
    """All best approximation vectors with M^2 <= height_sq_max, exactly.

    Raises ConfigError on a negative height_sq_max, DegenerateForm on an
    exact zeta = 0 inside the range or on a tied record decision, and
    PrecisionExhausted when the declared truncation error cannot support a
    record's zeta at its height (checked before that record's zero and tie
    decision) or the last zeta at height_sq_max.
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
        h0, s, k = 0, D // 2, 0  # last record's height, zeta bound, gallop step
        while True:
            h = min(H, max(1, h0 + (h0 << k)))
            box = _box(basis, h, s)
            if not box:
                if h == H:
                    break
                k += 1
                continue
            # every class in the box is above h0 (the record at h0 is the
            # least zeta up to h0), and the smaller boxes tried before held
            # none, so the least height in it is the next record's
            hrec = min(weighted_height_sq(m1, m2) for _z, m1, m2 in box)
            level = sorted(c for c in box if weighted_height_sq(c[1], c[2]) == hrec)
            z, m1, m2 = level[0]
            zeta = Fraction(z, D)
            validate_precision(theta, hrec, zeta)
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
            h0, s, k = hrec, z - 1, 0

    seq = BestApproxSequence(theta=theta, height_sq_max=H, vectors=tuple(vectors))
    if vectors:
        validate_precision(theta, H, vectors[-1].zeta)
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
