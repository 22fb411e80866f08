"""Nested-rectangle descent that manufactures a point eta whose linear form
stays off every resonance line of the best approximation vectors.

Level n holds a rectangle [b1, b1 + delta/R^(2n)] x [b2, b2 + delta/R^n]
with delta = 1/R^3, epsilon = 1/R^4. One step splits it into an
R^2 x R grid of children, kills every child whose closed form-value range
(for any vector in the current height window) meets an open strip
(c - eps, c + eps) around an integer, and descends into a surviving child.
After N steps the center of the final rectangle clears every vector with
M^2 <= R^(2N) by more than epsilon.

Killed children are located by walking the integer strip values c across
the rectangle's form range and intersecting each strip with the child grid
row by row. Each strip kills one contiguous i-range per row j, so a level
never lists its R^3 children: every vector's kills are kept as merged
closed i-ranges per row, the union is merged per row, and the survivor is
picked by a sweep over the range endpoints. Time and memory are
O(window x strips x R) per level; the full R^3 scan exists only as an
oracle in the verify module. Most window vectors meet no strip at all:
sieve_step builds the level's common-denominator frame (below) once, and a
vector whose strip range over it is empty costs O(1), with no row walk.

The strip walk and the base test put the rectangle's corner, child widths
and epsilon over one common denominator D and take each floor, ceil and
strict inequality of the same rational scaled by D > 0; the chosen child's
corner and the final centre are built from the same integers. The gap test
is an integer inequality in R, the level and |m|, wherever the rectangle is.

No seed changes the base, a level's window, its gap flags or its zero-kill
marks, so they are computed once per (sequence, R) or (sequence, R, level),
as is the base's level 0, and kept in the sequence's sieve_memo. Each run
draws its own picks and walks its own levels >= 1.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import lcm
from operator import attrgetter

from .bestapprox import (
    TYPE1,
    TYPE2,
    BestApproxSequence,
    BestApproxVector,
    sequence_fingerprint,
)
from .errors import (
    ConfigError,
    IncompleteSequence,
    InvariantViolation,
    NoBaseFound,
    NoSurvivor,
)
from .rationals import (
    ThetaForm,
    brief_rational,
    brief_repr,
    decimal_digits,
    validate_precision,
)
from .verify import linear_form_score

POLICIES = ("lex", "random")

# sort and bisect keys of the height-ordered records
_height = attrgetter("height_sq")
_kind = attrgetter("kind")


@dataclass(frozen=True)
class SieveConfig:
    R: int
    depth: int
    policy: str = "lex"
    seed: int = 0

    def __post_init__(self):
        for name in ("R", "depth", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, not {brief_repr(value)}")
        if not isinstance(self.policy, str):
            raise ConfigError(f"policy must be a string, not {brief_repr(self.policy)}")
        if self.R < 2:
            raise ConfigError("R must be at least 2")
        if self.depth < 0:
            raise ConfigError("depth must be at least 0")
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}")
        # Python's default int/str limit: the seed is written as text
        if decimal_digits(abs(self.seed)) > 4300:
            raise ConfigError("seed must have at most 4300 decimal digits")

    @property
    def delta(self) -> Fraction:
        return Fraction(1, self.R**3)

    @property
    def epsilon(self) -> Fraction:
        return Fraction(1, self.R**4)

    @property
    def log2R_ceil(self) -> int:
        return (self.R - 1).bit_length()

    @property
    def scale_valid(self) -> bool:
        """Whether the survivor-count guarantee 1000 R^2 ceil(log2 R) < R^3
        holds. False means runs are advisory: survivors must be checked, not
        assumed. Desk-scale R fails this by design."""
        return self.capacity_bounds()["union"] < self.R**3

    def height_sq_bound(self) -> int:
        return self.R ** (2 * self.depth)

    def capacity_bounds(self) -> dict[str, int]:
        """A-priori kill capacities per level, which depend only on R: per
        vector (h1 for Type1, h2 for Type2), per type total, and for the
        union. Journaled as each level record's "bounds"."""
        R2 = self.R**2
        lg = self.log2R_ceil
        return {
            "h1": 5 * R2,
            "h2": 6 * R2,
            "type1_total": 600 * R2 * lg,
            "type2_total": 400 * R2 * lg,
            "union": 1000 * R2 * lg,
        }


# the config fields, as journals and certificates store them and construct's flags name them
CONFIG_FIELDS = tuple(f.name for f in fields(SieveConfig))


@dataclass(frozen=True)
class Rectangle:
    b1: Fraction
    b2: Fraction
    level: int

    def widths(self, cfg: SieveConfig) -> tuple[Fraction, Fraction]:
        return (
            cfg.delta / cfg.R ** (2 * self.level),
            cfg.delta / cfg.R**self.level,
        )

    def center(self, cfg: SieveConfig) -> tuple[Fraction, Fraction]:
        # the widths are R^2 child widths along x1 and R along x2
        R = cfg.R
        D, X1, X2, C1, C2, _ = _frame(self, cfg)
        return Fraction(2 * X1 + R * R * C1, 2 * D), Fraction(2 * X2 + R * C2, 2 * D)


# (D, X1, X2, C1, C2, E): a rectangle over one common denominator, see _frame
Frame = tuple[int, int, int, int, int, int]


def child_rect(B: Rectangle, cfg: SieveConfig, i: int, j: int) -> Rectangle:
    R = cfg.R
    if not (0 <= i < R * R and 0 <= j < R):
        raise ConfigError(f"chosen child ({brief_rational(i)}, {brief_rational(j)}) "
                          f"is out of range for R={brief_rational(R)}")
    return _child(_frame(B, cfg), B.level, i, j)


def _child(frame: Frame, level: int, i: int, j: int) -> Rectangle:
    """Child (i, j) of the level-`level` rectangle whose _frame is frame."""
    D, X1, X2, C1, C2, _ = frame
    return Rectangle(Fraction(X1 + i * C1, D), Fraction(X2 + j * C2, D), level + 1)


def _frame(B: Rectangle, cfg: SieveConfig) -> Frame:
    """B over one common denominator D: the integers (D, X1, X2, C1, C2, E)
    with corner (X1/D, X2/D), child widths C1/D and C2/D, and epsilon E/D.
    The strip walk, base test, child corner and centre use this frame: the
    same rationals scaled by D > 0 keep each floor, ceil and strict comparison.
    """
    R, n = cfg.R, B.level
    b1, b2 = B.b1, B.b2
    D = lcm(b1.denominator, b2.denominator, R ** (5 + 2 * n))
    return (
        D,
        b1.numerator * (D // b1.denominator),
        b2.numerator * (D // b2.denominator),
        D // R ** (5 + 2 * n),
        D // R ** (4 + n),
        D // R**4,
    )


def _strip_ends(f00: int, step: int, rise: int, D: int, E: int, R: int) -> tuple[int, int]:
    """(first, stop): the integers c whose open strip (c-eps, c+eps) meets
    the closed form range over B are first <= c < stop, all in frame units.
    The form is f00 at B's corner and moves by step per child along i and by
    rise per child along j; over the R^2 x R children its range is [lo, hi],
    and c qualifies when lo - E < c*D < hi + E."""
    a, b = R * R * step, R * rise
    lo = f00 + (a if a < 0 else 0) + (b if b < 0 else 0)
    hi = f00 + (a if a > 0 else 0) + (b if b > 0 else 0)
    return (lo - E) // D + 1, -((-hi - E) // D)


def rect_clear(B: Rectangle, v, cfg: SieveConfig) -> bool:
    """True when the closed form-value range of v over B avoids every open
    strip, i.e. the whole rectangle keeps ||eta . m|| >= eps with equality
    possible only on the boundary."""
    return _clear(_frame(B, cfg), v, cfg.R)


def _clear(frame: Frame, v, R: int) -> bool:
    """rect_clear on a rectangle's _frame, so that one frame serves every
    vector of a level."""
    D, X1, X2, C1, C2, E = frame
    first, stop = _strip_ends(v.m1 * X1 + v.m2 * X2, v.m1 * C1, v.m2 * C2, D, E, R)
    return first >= stop


def merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted, disjoint, non-touching closed ranges covering the same
    integers as the given ones."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


# Children (i, j) as closed i-ranges per row: rows[j] lists sorted, disjoint,
# non-touching ranges (i_lo, i_hi); rows without any range are absent.
KillRows = dict[int, list[tuple[int, int]]]


def _count_covered(rows: KillRows) -> int:
    """Number of children covered by per-row merged ranges."""
    return sum(hi - lo + 1 for ranges in rows.values() for lo, hi in ranges)


def dangerous_children(B: Rectangle, v, cfg: SieveConfig) -> KillRows:
    """Children (i, j) of B whose closed form-value range for v meets an open
    strip (c - eps, c + eps), as KillRows. Each strip kills one contiguous
    i-range per row j."""
    R = cfg.R
    last = R * R - 1
    m1, m2 = v.m1, v.m2
    D, X1, X2, C1, C2, E = _frame(B, cfg)
    # child (i,j) spans [f_ij + neg, f_ij + pos] where f_ij = f00 + i*step
    # + j*rise is the form value at its lower-left corner
    f00 = m1 * X1 + m2 * X2
    step = m1 * C1
    rise = m2 * C2
    neg = (step if step < 0 else 0) + (rise if rise < 0 else 0)
    pos = (step if step > 0 else 0) + (rise if rise > 0 else 0)
    den = abs(step)
    rows: KillRows = {}
    for c in range(*_strip_ends(f00, step, rise, D, E, R)):
        # dangerous for this c  <=>  c - eps - pos < f_ij < c + eps - neg
        f_lo = c * D - E - pos
        f_hi = c * D + E - neg
        if m1 == 0:
            for j in range(R):
                if f_lo < f00 + j * rise < f_hi:
                    rows.setdefault(j, []).append((0, last))
            continue
        # row j kills the integers i strictly between (na - j*nd)/den and
        # (nb - j*nd)/den
        if step > 0:
            na, nb, nd = f_lo - f00, f_hi - f00, rise
        else:
            na, nb, nd = f00 - f_hi, f00 - f_lo, -rise
        for j in range(R):
            # floor of the lower end + 1 and ceil of the upper end - 1,
            # clipped to the row
            i_min = max((na - j * nd) // den + 1, 0)
            i_max = min(-((j * nd - nb) // den) - 1, last)
            if i_min <= i_max:
                rows.setdefault(j, []).append((i_min, i_max))
    return {j: merge_ranges(r) for j, r in rows.items()}


def gap_condition(B: Rectangle, v, cfg: SieveConfig) -> bool:
    """Exact check that consecutive strips of v are spaced widely enough,
    relative to this rectangle, that any fixed row (Type1) or column (Type2)
    can meet at most one strip. Recorded per vector per level; the supporting
    asymptotic bounds only promise it for large R, so it is measured, never
    assumed.

    Type1: strips cut the x1 axis every 1/|m1|; the footprint is widened by
    the child size and the slope |m2|/|m1| sweeping across one row, and
    1/|m1| - 2 (eps/|m1| + cw1 + (|m2|/|m1|) cw2) > w1 must hold. Type2 swaps
    the axes. As w1 = R^-(3+2n), w2 = R^-(3+n) and eps = R^-4 at level n,
    both are multiplied through by |m| R^(5+2n): integers in R, n and |m|."""
    R, n = cfg.R, B.level
    a1, a2 = abs(v.m1), abs(v.m2)
    slack = R ** (5 + 2 * n) - 2 * (R ** (1 + 2 * n) + a1 + a2 * R ** (1 + n))
    if v.kind == TYPE1:
        return slack > a1 * R * R
    return slack > a2 * R ** (2 + n)


def select_base(cfg: SieveConfig, seq: BestApproxSequence) -> Rectangle:
    """First corner on the grid (i/(4R), j/(4R)), scanned lexicographically
    from (1, 1), whose level-0 rectangle clears the strips of every best
    approximation vector with M^2 <= 1. Every corner is tested on one frame
    over D = lcm(4R, R^5), a multiple of each corner's own _frame
    denominator, so each floor and ceil is the same; a corner is on the grid
    while i/(4R) + delta < 1, i.e. i*R^2 + 4 < 4R^3."""
    if seq.height_sq_max < 1:
        raise IncompleteSequence("base selection needs completeness to M^2 = 1")
    constraints = [v for v in seq.vectors if v.height_sq <= 1]
    R = cfg.R
    D = lcm(4 * R, R**5)
    G, C1, E = D // (4 * R), D // R**5, D // R**4
    end = 4 * R**3
    for i in range(1, 4 * R):
        if i * R * R + 4 >= end:
            break
        for j in range(1, 4 * R):
            if j * R * R + 4 >= end:
                break
            frame = (D, i * G, j * G, C1, E, E)
            if all(_clear(frame, v, R) for v in constraints):
                return Rectangle(Fraction(i, 4 * R), Fraction(j, 4 * R), 0)
    raise NoBaseFound(
        f"no base rectangle on the 1/(4R) grid clears {len(constraints)} "
        "unit-height constraints; R is too small for this theta"
    )


@dataclass(frozen=True)
class VectorMark:
    index: int
    kind: int
    kills: int
    gap_ok: bool


@dataclass(frozen=True)
class DangerStats:
    per_vector: tuple[VectorMark, ...]
    union_kills: int
    survivors: int

    @property
    def by_kind(self) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
        """(window1, window2, type1_total, type2_total): the indices of the
        Type1 and the Type2 marks, in mark order, and each kind's kills."""
        window1, window2 = [], []
        type1_total = type2_total = 0
        for m in self.per_vector:
            if m.kind == TYPE1:
                window1.append(m.index)
                type1_total += m.kills
            elif m.kind == TYPE2:
                window2.append(m.index)
                type2_total += m.kills
        return tuple(window1), tuple(window2), type1_total, type2_total

    @property
    def type1_total(self) -> int:
        return self.by_kind[2]

    @property
    def type2_total(self) -> int:
        return self.by_kind[3]


@dataclass(frozen=True)
class LevelRecord:
    """A refined rectangle, its window's marks and the chosen child."""

    rect: Rectangle
    stats: DangerStats
    chosen: tuple[int, int]

    @property
    def level(self) -> int:
        return self.rect.level

    @property
    def window1(self) -> tuple[int, ...]:
        """Indices of the window's Type1 vectors, in mark order."""
        return self.stats.by_kind[0]

    @property
    def window2(self) -> tuple[int, ...]:
        return self.stats.by_kind[1]


def kth_survivor(rows: KillRows, R: int, k: int) -> tuple[int, int]:
    """The k-th (from 0) child (i, j), in i-major order, that no range of
    rows covers; k must be below the number of such children.

    A sweep over the range endpoints: between consecutive endpoints every
    column i is covered by the same number of rows, so it keeps the same
    number of survivors and whole blocks of columns are skipped at once.
    In the target column the k-th free row is found by stepping over the
    covered rows in increasing order; only rows that hold ranges are read."""
    delta: dict[int, int] = {R * R: 0}
    for ranges in rows.values():
        for lo, hi in ranges:
            delta[lo] = delta.get(lo, 0) + 1
            delta[hi + 1] = delta.get(hi + 1, 0) - 1
    cover = start = 0
    for x in sorted(delta):
        per_column = R - cover
        block = (x - start) * per_column
        if k < block:
            i = start + k // per_column
            j = k % per_column
            for c in sorted(c for c, ranges in rows.items()
                            if any(lo <= i <= hi for lo, hi in ranges)):
                j += c <= j
            return i, j
        k -= block
        cover += delta[x]
        start = x
    raise InvariantViolation("survivor index beyond the surviving children")


@dataclass
class _Shared:
    """What every descent over one sequence at one R computes alike, kept in
    seq.sieve_memo[R]: the base, each level's window as (vector, zero-kill
    mark) pairs, the marks holding the gap flags, and the last level-0
    rectangle stepped with its frame, DangerStats and kill rows."""

    base: Rectangle | None = None
    windows: dict[int, tuple[tuple[BestApproxVector, VectorMark], ...]] = field(
        default_factory=dict)
    level0: tuple[Rectangle, Frame, DangerStats, KillRows] | None = None


def sieve_step(
    cfg: SieveConfig,
    rect: Rectangle,
    seq: BestApproxSequence,
) -> tuple[Rectangle, LevelRecord]:
    n = rect.level
    R = cfg.R
    lo, hi = R ** (2 * n), R ** (2 * (n + 1))
    if seq.height_sq_max < hi:
        raise IncompleteSequence(
            f"level {n} needs records complete to M^2 = {brief_rational(hi)}"
        )
    shared = seq.sieve_memo.get(R) or seq.sieve_memo.setdefault(R, _Shared())
    if n == 0 and shared.level0 and shared.level0[0] == rect:
        _, frame, stats, union = shared.level0
    else:
        window = shared.windows.get(n)
        if window is None:
            # the records with lo < M^2 <= hi: a slice, as seq.vectors is in
            # height order; the stable sort puts Type1 first, each type in
            # index order
            vs = seq.vectors
            band = vs[bisect_right(vs, lo, key=_height):bisect_right(vs, hi, key=_height)]
            window = shared.windows[n] = tuple(
                (v, VectorMark(v.index, v.kind, 0, gap_condition(rect, v, cfg)))
                for v in sorted(band, key=_kind))
        frame = _frame(rect, cfg)
        marks = []
        union: KillRows = {}
        for v, mark in window:
            # most vectors meet no strip over the rectangle and kill nothing
            if not _clear(frame, v, R):
                rows = dangerous_children(rect, v, cfg)
                mark = VectorMark(v.index, v.kind, _count_covered(rows), mark.gap_ok)
                for j, ranges in rows.items():
                    union.setdefault(j, []).extend(ranges)
            marks.append(mark)
        union = {j: merge_ranges(r) for j, r in union.items()}
        union_kills = _count_covered(union)
        stats = DangerStats(tuple(marks), union_kills, R**3 - union_kills)
        if n == 0:
            shared.level0 = rect, frame, stats, union
    if stats.survivors == 0:
        raise NoSurvivor(
            f"all {R**3} children killed while refining level {n}; "
            "R is below the workable scale for this theta",
        )
    # the k-th survivor in i-major (i, j) order: the first for lex, a seeded
    # draw for random
    k = 0
    if cfg.policy == "random":
        k = random.Random(f"{cfg.seed}:{n}").randrange(stats.survivors)
    chosen = kth_survivor(union, R, k)
    return _child(frame, n, *chosen), LevelRecord(rect, stats, chosen)


@dataclass(frozen=True)
class Certificate:
    theta: ThetaForm
    config: SieveConfig
    sequence_fp: str
    eta: tuple[Fraction, Fraction]
    verified_form_min: Fraction
    bad_theta_score_at_Q: tuple[int, Fraction] | None = None  # (Q, score cubed)

    @property
    def theta_fp(self) -> str:
        return self.theta.fingerprint

    @property
    def epsilon(self) -> Fraction:
        return self.config.epsilon

    @property
    def height_sq_bound(self) -> int:
        return self.config.height_sq_bound()


@dataclass(frozen=True)
class RunJournal:
    theta: ThetaForm
    config: SieveConfig
    theta_fp: str
    sequence_fp: str
    base: Rectangle
    levels: tuple[LevelRecord, ...]
    final: Rectangle


def run_sieve(
    theta: ThetaForm,
    cfg: SieveConfig,
    seq: BestApproxSequence,
) -> tuple[Certificate, RunJournal]:
    """Full descent to cfg.depth, certifying seq's vectors up to R^(2 depth)."""
    if seq.theta != theta:
        raise ConfigError("sequence was built for a different theta")
    bound = cfg.height_sq_bound()
    if seq.height_sq_max < bound:
        raise IncompleteSequence(
            f"sieve to depth {cfg.depth} needs completeness to M^2 = "
            f"{brief_rational(bound)}, sequence covers {brief_rational(seq.height_sq_max)}"
        )
    in_range = seq.vectors[:bisect_right(seq.vectors, bound, key=_height)]
    if not in_range:
        raise InvariantViolation("no vectors at all below the certified bound")
    # seq itself when it already is the truncation, so that runs over one
    # sequence share its cached fingerprint
    sub = seq
    if seq.height_sq_max != bound or len(in_range) != len(seq.vectors):
        sub = BestApproxSequence(theta=theta, height_sq_max=bound, vectors=in_range)
    validate_precision(theta, bound, in_range[-1].zeta)

    # the base and every window below the bound are the same in seq and sub,
    # so runs share seq's memo
    shared = seq.sieve_memo.get(cfg.R) or seq.sieve_memo.setdefault(cfg.R, _Shared())
    if shared.base is None:
        shared.base = select_base(cfg, seq)
    base = rect = shared.base
    levels: list[LevelRecord] = []
    while rect.level < cfg.depth:
        rect, rec = sieve_step(cfg, rect, seq)
        levels.append(rec)

    eta = rect.center(cfg)
    vfm = linear_form_score(theta, eta, sub).exact_score
    if vfm <= cfg.epsilon:
        raise InvariantViolation(
            f"certified margin failed: min form distance {brief_rational(vfm)} "
            f"<= eps {brief_rational(cfg.epsilon)}"
        )
    cert = Certificate(
        theta=theta,
        config=cfg,
        sequence_fp=sequence_fingerprint(sub),
        eta=eta,
        verified_form_min=vfm,
    )
    journal = RunJournal(
        theta=theta,
        config=cfg,
        theta_fp=cert.theta_fp,
        sequence_fp=cert.sequence_fp,
        base=base,
        levels=tuple(levels),
        final=rect,
    )
    return cert, journal
