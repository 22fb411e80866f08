"""Best approximation vectors of a two-variable linear form under the
weighted height M^2 = max(|m1|, m2^2).

A nonzero class (m1, m2) (sign classes identified, canonical representative
has m2 > 0, or m2 = 0 and m1 > 0) is a best approximation when no other class
has both height <= its height and zeta <= its zeta, where
zeta = ||theta1*m1 + theta2*m2||. The full sequence is the Pareto staircase of
(height_sq, zeta): heights strictly increase, zetas strictly decrease.

Enumeration never scans the plane. For each m2 the one-dimensional problem
"first |m1| in [x, H] with zeta below the current record" is answered by the
modmin kernel in O(log) exact integer steps, one walk per sign of m1, and a
height-ordered event queue merges the per-m2 streams. The two sides of the
distance to the nearest integer share one walk: with r the residue of the
form, min(r, D - r) <= s exactly when (r + s) mod D <= 2s. Every walk is
capped by its height bound, so the kernel stops as soon as no witness at or
below that bound can exist. Because the running record zeta only decreases,
a stream's next viable height only moves up, so requeueing a stale event is
sound and no candidate is ever skipped.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .errors import ConfigError, DegenerateForm, IncompleteSequence
from .modmin import congruence_solutions_in_range, first_reaching
from .rationals import (
    ThetaForm,
    form_value,
    format_rational,
    parse_rational,
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


class _ScaledForm:
    """theta over a common denominator: dist(m1, m2) = min(r, D - r) / D
    with r = (A1*m1 + A2*m2) mod D. All record comparisons happen on the
    scaled integer min(r, D - r), no Fraction churn in the hot path."""

    def __init__(self, theta: ThetaForm):
        t1, t2 = theta.theta1, theta.theta2
        self.D = lcm(t1.denominator, t2.denominator)
        self.A1 = t1.numerator * (self.D // t1.denominator) % self.D
        self.A2 = t2.numerator * (self.D // t2.denominator) % self.D

    def dist_scaled(self, m1: int, m2: int) -> int:
        r = (self.A1 * m1 + self.A2 * m2) % self.D
        return min(r, self.D - r)

    def branches(self, m2: int):
        """(a, c, sign, x_start): residue walks r(x) = (a*x + c) mod D with
        dist_scaled(sign*x, m2) = min(r, D - r) for x >= x_start. One walk
        per sign, covering both sides of the distance (see _branch_first);
        the negative sign is omitted for m2 == 0 since (-x, 0) ~ (x, 0)."""
        c = self.A2 * m2 % self.D
        if m2 == 0:
            return [(self.A1, c, 1, 1)]
        return [(self.A1, c, 1, 0), ((self.D - self.A1) % self.D, c, -1, 1)]


def _branch_first(sf: _ScaledForm, a: int, c: int, x_lo: int, s: int, x_hi: int):
    """Minimal x in [x_lo, x_hi] with min(r, D - r) <= s for
    r = (a*x + c) % D, or None.

    min(r, D - r) <= s  <=>  (r + s) % D <= 2s, exactly: for 2s < D the
    r <= s side lands in [s, 2s] and the r >= D - s side in [0, s - 1];
    for 2s >= D - 1 both sides always hold and the kernel returns 0."""
    c0 = (a * x_lo + c + s) % sf.D
    u = first_reaching(a, c0, sf.D, 2 * s, x_hi - x_lo)
    return None if u is None else x_lo + u


def _block_exists(sf: _ScaledForm, m2: int, s: int, T: int) -> bool:
    for a, c, _sign, x_start in sf.branches(m2):
        if _branch_first(sf, a, c, x_start, s, T) is not None:
            return True
    return False


def _block_min(sf: _ScaledForm, m2: int, ub: int):
    """(value, argmin_m1, class_count) for the exact minimum of dist over the
    block |m1| <= m2^2 at height m2^2, given a known attained upper bound ub."""
    T = m2 * m2
    lo, hi = 0, ub
    while lo < hi:
        mid = (lo + hi) // 2
        if _block_exists(sf, m2, mid, T):
            hi = mid
        else:
            lo = mid + 1
    v = lo
    base_c = sf.A2 * m2 % sf.D
    cnt, best = congruence_solutions_in_range(sf.A1, base_c, v, sf.D, T)
    other = (sf.D - v) % sf.D
    if other != v:
        cnt2, best2 = congruence_solutions_in_range(sf.A1, base_c, other, sf.D, T)
        cnt += cnt2
        if best2 is not None and (
            best is None or (abs(best2), best2 < 0) < (abs(best), best < 0)
        ):
            best = best2
    return v, best, cnt


_BLOCK, _STEP = 0, 1


def enumerate_best_approx(theta: ThetaForm, height_sq_max: int) -> BestApproxSequence:
    """All best approximation vectors with M^2 <= height_sq_max, exactly.

    Raises DegenerateForm on an exact zeta = 0 inside the range or on a tied
    record decision, and PrecisionExhausted when the declared truncation error
    cannot support the smallest record zeta encountered.
    """
    H = height_sq_max
    vectors: list[BestApproxVector] = []
    if H >= 1:
        sf = _ScaledForm(theta)
        D = sf.D
        zbest: int | None = None  # scaled; records must be strictly below

        heap: list[tuple[int, int, int]] = [(1, 0, _STEP)]
        for m2 in range(1, isqrt(H) + 1):
            heap.append((m2 * m2, m2, _BLOCK))
        heapq.heapify(heap)

        while heap:
            # the whole height-h group leaves the heap before any push, and
            # every event pushed below lies above h
            h = heap[0][0]
            group = []
            while heap and heap[0][0] == h:
                group.append(heapq.heappop(heap))
            s = D if zbest is None else zbest - 1
            # candidate records at height h: (dist_scaled, m1, m2, class_count)
            cands = []
            for _h, m2, kind in group:
                if kind == _BLOCK:
                    T = m2 * m2
                    block_ub = None
                    beyond = None
                    retry = []
                    for a, c, sign, x_start in sf.branches(m2):
                        x = _branch_first(sf, a, c, x_start, s, H)
                        if x is None:
                            continue
                        if x <= T:
                            d = sf.dist_scaled(sign * x, m2)
                            if block_ub is None or d < block_ub:
                                block_ub = d
                            retry.append((a, c))
                        elif beyond is None or x < beyond:
                            beyond = x
                    if block_ub is not None:
                        v, m1, cnt = _block_min(sf, m2, block_ub)
                        cands.append((v, m1, m2, cnt))
                        for a, c in retry:
                            x = _branch_first(sf, a, c, T + 1, s, H)
                            if x is not None and (beyond is None or x < beyond):
                                beyond = x
                    if beyond is not None:
                        heapq.heappush(heap, (beyond, m2, _STEP))
                else:
                    for m1 in ((h, -h) if m2 > 0 else (h,)):
                        d = sf.dist_scaled(m1, m2)
                        if d <= s:
                            cands.append((d, m1, m2, 1))
                    nxt = None
                    for a, c, _sign, _xs in sf.branches(m2):
                        x = _branch_first(sf, a, c, h + 1, s, H)
                        if x is not None and (nxt is None or x < nxt):
                            nxt = x
                    if nxt is not None:
                        heapq.heappush(heap, (nxt, m2, _STEP))
            if cands:
                dmin = min(c[0] for c in cands)
                winners = [c for c in cands if c[0] == dmin]
                n_classes = sum(c[3] for c in winners)
                if dmin == 0:
                    raise DegenerateForm(
                        f"exact zero form value at height_sq={h}: "
                        f"classes {[(c[1], c[2]) for c in winners]}"
                    )
                if n_classes > 1:
                    raise DegenerateForm(
                        f"tied record at height_sq={h}, zeta={dmin}/{D}: "
                        f"{[(c[1], c[2]) for c in winners]}"
                    )
                _, m1, m2, _ = winners[0]
                zeta = Fraction(dmin, D)
                zeta_check, m0 = form_value(theta, m1, m2)
                if zeta_check != zeta:
                    raise RuntimeError("scaled/rational distance mismatch")
                vectors.append(
                    BestApproxVector(
                        index=len(vectors) + 1,
                        m0=m0,
                        m1=m1,
                        m2=m2,
                        height_sq=h,
                        zeta=zeta,
                        kind=vector_kind(m1, m2),
                    )
                )
                zbest = dmin

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


def type_window(
    seq: BestApproxSequence, kind: int, R: int, n: int
) -> list[BestApproxVector]:
    """Vectors of the given kind with R^(2n) < height_sq <= R^(2(n+1))."""
    hi = R ** (2 * (n + 1))
    if seq.height_sq_max < hi:
        raise IncompleteSequence(
            f"need completeness to height_sq {hi}, have {seq.height_sq_max}"
        )
    lo = R ** (2 * n)
    return [v for v in seq.vectors if v.kind == kind and lo < v.height_sq <= hi]


# --- serialization ---------------------------------------------------------

_FIELDS = ("index", "m0", "m1", "m2", "height_sq", "zeta", "kind")


def sequence_fingerprint(seq: BestApproxSequence) -> str:
    """Identity of a sequence's exact content and completeness bound."""
    import hashlib

    text = f"height_sq_max={seq.height_sq_max}\n" + export_sequence_lines(seq)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:32]


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


def parse_sequence_lines(
    text: str, theta: ThetaForm, height_sq_max: int
) -> BestApproxSequence:
    vectors = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if list(rec.keys()) != list(_FIELDS):
            raise ConfigError(f"unexpected sequence record fields: {list(rec)}")
        vectors.append(
            BestApproxVector(
                index=rec["index"],
                m0=rec["m0"],
                m1=rec["m1"],
                m2=rec["m2"],
                height_sq=rec["height_sq"],
                zeta=parse_rational(rec["zeta"]),
                kind=rec["kind"],
            )
        )
    seq = BestApproxSequence(
        theta=theta, height_sq_max=height_sq_max, vectors=tuple(vectors)
    )
    seq.validate()
    return seq
