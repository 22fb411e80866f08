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
{(m1, m2, z)} in the half box |m1| <= h, 0 <= m2 <= isqrt(h), |z| <= s
(every class has a point with m2 >= 0). One exact box query of the lattice
module lists them: from the previous query's basis, reduced if it would
list over 64 points in the metric in which the box is a cube (Gauss steps
on two rows, Babai rounding of the third, on a Gram matrix weighted by the
squared column scales), bound each lattice coordinate over the box by
Cramer's rule (the adjugate of the basis), list that integer
parallelepiped and filter the box exactly.

After a record (h0, z0) every class with |z| <= s = z0 - 1 lies above h0,
so the records in (h0, h] are the strict running minimum of |z| over the
height levels of the box (h, s), in increasing height: each one found
lowers s to its z - 1. The enumerator gallops h = 3*h0, 5*h0, 9*h0, ...
(capped at the bound) to the first non-empty box and takes every record it
holds. No float enters, and nothing is done per m2 or per height: the work
grows with the number of records and gallop steps and with the bit size of
the numbers. Each record's distance check and m0 are integer tests over
D. Its zeta is built as a Fraction once: rationals.validate_precision, the
package's one precision guard, checks it before the record's zero and tie
decisions, and the sequence emits it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .errors import ConfigError, DegenerateForm
from .lattice import box_points
from .rationals import (
    ThetaForm,
    brief_rational,
    fingerprint,
    format_rational,
    over_common_denominator,
    validate_precision,
    weighted_height_sq,
)

# nothing calls this; the benchmark's tracer (perfbench/spans.py) wraps the name
first_reaching = None

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
    vector's height. sieve_memo holds what sieve runs over the sequence
    share; it never enters a file."""

    theta: ThetaForm
    height_sq_max: int
    vectors: tuple[BestApproxVector, ...]

    @cached_property
    def fingerprint(self) -> str:
        """Identity of the exact content and completeness bound, computed
        once per sequence: the fields are frozen and vectors is a tuple."""
        text = f"height_sq_max={self.height_sq_max}\n" + export_sequence_lines(self)
        return fingerprint(text)

    @cached_property
    def sieve_memo(self) -> dict:
        """Sieve work that depends only on this sequence and R (see
        sieve._Shared), kept, like the fingerprint, as long as the sequence."""
        return {}

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
    """The canonical classes (|z|, m1, m2) of the lattice points (m1, m2, z)
    spanned by basis with |m1| <= h, |m2| <= isqrt(h), |z| <= s, (m1, m2) != 0.
    A set: a class with points at z = +-D/2 (s = D // 2, D even) is one
    class, not a tie. box_points lists the half box m2 >= 0, reducing basis
    in place (the next query's warm start) if it would list over 64 points;
    the set merges the signs of m1 listed at m2 = 0. Reduced on every query,
    a basis listed at most 48 points on the catalog pairs to M^2 = 2^32, 36
    on a 120-digit pair to 2^112, 60 on a 340-digit pair to 2^448."""
    points, _ = box_points(basis, ((-h, h), (0, isqrt(h)), (-s, s)))
    return {(abs(z), m1 if m2 else abs(m1), m2) for m1, m2, z in points if m1 or m2}


def _nearest(n: int, D: int) -> tuple[int, int]:
    """form_value over the denominator D > 0: (D*zeta, m0) with
    zeta = |m0 + n/D| least, and at a half-integer the m0 of smaller |m0|."""
    lo, r = divmod(n, D)
    if 2 * r < D or (2 * r == D and lo >= 0):
        return r, -lo
    return D - r, -lo - 1


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
        raise ConfigError(f"negative height bound {brief_rational(H)}")
    vectors: list[BestApproxVector] = []
    if H >= 1:
        D, (A1, A2) = over_common_denominator(theta.theta1, theta.theta2)
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
                validate_precision(theta, hrec, zeta, H)
                winners = [(c[1], c[2]) for c in level if c[0] == z]
                if z == 0:
                    raise DegenerateForm(
                        f"exact zero form value at height_sq={hrec}: classes {winners}"
                    )
                if len(winners) > 1:
                    raise DegenerateForm(
                        f"tied record at height_sq={hrec}, "
                        f"zeta={brief_rational(zeta)}: {winners}"
                    )
                zd, m0 = _nearest(A1 * m1 + A2 * m2, D)
                if zd != z:
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
    return seq.fingerprint


def export_sequence_lines(seq: BestApproxSequence) -> str:
    """One compact JSON object per vector. Every value is an int or a "p/q"
    string of digits, '-' and '/', so no escaping is ever needed."""
    return "".join(
        f'{{"index":{v.index},"m0":{v.m0},"m1":{v.m1},"m2":{v.m2},'
        f'"height_sq":{v.height_sq},"zeta":"{format_rational(v.zeta)}",'
        f'"kind":{v.kind}}}\n'
        for v in seq.vectors
    )
