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
row by row; the full R^3 scan exists only as an oracle in the verify module.

A resumed run replays journaled levels without re-marking them, after
checking that each one sits on this run's rectangle and lists the vector
windows this run's sequence gives for that level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .bestapprox import (
    TYPE1,
    TYPE2,
    BestApproxSequence,
    sequence_fingerprint,
    type_window,
)
from .errors import (
    ConfigError,
    IncompleteSequence,
    InvariantViolation,
    NoBaseFound,
    NoSurvivor,
)
from .rationals import ThetaForm, form_range, theta_fingerprint, validate_precision
from .verify import linear_form_score

POLICIES = ("lex", "random")


@dataclass(frozen=True)
class SieveConfig:
    R: int
    depth: int
    policy: str = "lex"
    seed: int = 0

    def __post_init__(self):
        if self.R < 2:
            raise ConfigError("R must be at least 2")
        if self.depth < 0:
            raise ConfigError("depth must be at least 0")
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}")

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
        return 1000 * self.R**2 * self.log2R_ceil < self.R**3

    def height_sq_bound(self) -> int:
        return self.R ** (2 * self.depth)


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
        w1, w2 = self.widths(cfg)
        return (self.b1 + w1 / 2, self.b2 + w2 / 2)


def child_rect(B: Rectangle, cfg: SieveConfig, i: int, j: int) -> Rectangle:
    R = cfg.R
    if not (0 <= i < R * R and 0 <= j < R):
        raise ConfigError(f"child index ({i}, {j}) out of range for R={R}")
    cw1 = cfg.delta / R ** (2 * (B.level + 1))
    cw2 = cfg.delta / R ** (B.level + 1)
    return Rectangle(B.b1 + i * cw1, B.b2 + j * cw2, B.level + 1)


def _strip_values(lo: Fraction, hi: Fraction, eps: Fraction) -> range:
    """Integers c whose open strip (c-eps, c+eps) can meet [lo, hi]."""
    return range(ceil(lo - eps), floor(hi + eps) + 1)


def rect_clear(B: Rectangle, v, cfg: SieveConfig) -> bool:
    """True when the closed form-value range of v over B avoids every open
    strip, i.e. the whole rectangle keeps ||eta . m|| >= eps with equality
    possible only on the boundary."""
    w1, w2 = B.widths(cfg)
    lo, hi = form_range(v.m1, v.m2, B.b1, B.b2, w1, w2)
    eps = cfg.epsilon
    for c in _strip_values(lo, hi, eps):
        if lo < c + eps and hi > c - eps:
            return False
    return True


def dangerous_children(
    B: Rectangle, v, cfg: SieveConfig
) -> set[tuple[int, int]]:
    """Children (i, j) of B whose closed form-value range for v meets an open
    strip (c - eps, c + eps): each strip kills one contiguous i-range per
    row j."""
    R = cfg.R
    m1, m2 = v.m1, v.m2
    w1, w2 = B.widths(cfg)
    cw1 = w1 / (R * R)
    cw2 = w2 / R
    eps = cfg.epsilon
    lo, hi = form_range(m1, m2, B.b1, B.b2, w1, w2)
    # child (i,j) spans [f_ij + negpart, f_ij + pospart] where f_ij is the
    # form value at its lower-left corner
    negpart = min(m1, 0) * cw1 + min(m2, 0) * cw2
    pospart = max(m1, 0) * cw1 + max(m2, 0) * cw2
    f00 = m1 * B.b1 + m2 * B.b2
    step = m1 * cw1
    killed: set[tuple[int, int]] = set()
    for c in _strip_values(lo, hi, eps):
        # dangerous for this c  <=>  c - eps - pospart < f_ij < c + eps - negpart
        f_lo = c - eps - pospart
        f_hi = c + eps - negpart
        for j in range(R):
            g = f00 + j * m2 * cw2
            if m1 == 0:
                if f_lo < g < f_hi:
                    i_min, i_max = 0, R * R - 1
                else:
                    continue
            else:
                a = (f_lo - g) / step
                b = (f_hi - g) / step
                if step < 0:
                    a, b = b, a
                i_min = max(floor(a) + 1, 0)
                i_max = min(ceil(b) - 1, R * R - 1)
                if i_min > i_max:
                    continue
            killed.update((i, j) for i in range(i_min, i_max + 1))
    return killed


def gap_condition(B: Rectangle, v, cfg: SieveConfig) -> bool:
    """Exact check that consecutive strips of v are spaced widely enough,
    relative to this rectangle, that any fixed row (Type1) or column (Type2)
    can meet at most one strip. Recorded per vector per level; the supporting
    asymptotic bounds only promise it for large R, so it is measured, never
    assumed."""
    R = cfg.R
    w1, w2 = B.widths(cfg)
    cw1 = w1 / (R * R)
    cw2 = w2 / R
    eps = cfg.epsilon
    a1, a2 = abs(v.m1), abs(v.m2)
    if v.kind == TYPE1:
        # strips cut the x1 axis every 1/|m1|; footprint widened by the
        # child size and the slope k = |m2|/|m1| sweeping across one row
        width = 2 * (eps / a1 + cw1 + Fraction(a2, a1) * cw2)
        return Fraction(1, a1) - width > w1
    if a2 == 0:
        return False
    width = 2 * (eps / a2 + cw2 + Fraction(a1, a2) * cw1)
    return Fraction(1, a2) - width > w2


def select_base(
    theta: ThetaForm, cfg: SieveConfig, seq: BestApproxSequence
) -> Rectangle:
    """First corner on the grid (i/(4R), j/(4R)), scanned lexicographically
    from (1, 1), whose level-0 rectangle clears the strips of every best
    approximation vector with M^2 <= 1."""
    if seq.height_sq_max < 1:
        raise IncompleteSequence("base selection needs completeness to M^2 = 1")
    constraints = [v for v in seq.vectors if v.height_sq <= 1]
    R = cfg.R
    g = Fraction(1, 4 * R)
    for i in range(1, 4 * R):
        b1 = i * g
        if b1 + cfg.delta >= 1:
            break
        for j in range(1, 4 * R):
            b2 = j * g
            if b2 + cfg.delta >= 1:
                break
            rect = Rectangle(b1, b2, 0)
            if all(rect_clear(rect, v, cfg) for v in constraints):
                return rect
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
    level: int
    per_vector: tuple[VectorMark, ...]
    type1_total: int
    type2_total: int
    union_kills: int
    survivors: int
    h1_bound: int
    h2_bound: int
    type1_total_bound: int
    type2_total_bound: int
    union_bound: int

    @classmethod
    def collect(cls, cfg: SieveConfig, level: int, marks, union_size: int):
        R2 = cfg.R**2
        lg = cfg.log2R_ceil
        return cls(
            level=level,
            per_vector=tuple(marks),
            type1_total=sum(m.kills for m in marks if m.kind == TYPE1),
            type2_total=sum(m.kills for m in marks if m.kind != TYPE1),
            union_kills=union_size,
            survivors=cfg.R**3 - union_size,
            h1_bound=5 * R2,
            h2_bound=6 * R2,
            type1_total_bound=600 * R2 * lg,
            type2_total_bound=400 * R2 * lg,
            union_bound=1000 * R2 * lg,
        )


@dataclass(frozen=True)
class LevelRecord:
    level: int  # the level being refined (rect.level)
    rect: Rectangle
    window1: tuple[int, ...]  # vector indices, Type1
    window2: tuple[int, ...]
    stats: DangerStats
    chosen: tuple[int, int]


def sieve_step(
    cfg: SieveConfig,
    rect: Rectangle,
    seq: BestApproxSequence,
) -> tuple[Rectangle, LevelRecord]:
    n = rect.level
    win1 = type_window(seq, TYPE1, cfg.R, n)
    win2 = type_window(seq, TYPE2, cfg.R, n)
    vectors = win1 + win2
    kill_sets = [dangerous_children(rect, v, cfg) for v in vectors]
    marks = [
        VectorMark(
            index=v.index,
            kind=v.kind,
            kills=len(ks),
            gap_ok=gap_condition(rect, v, cfg),
        )
        for v, ks in zip(vectors, kill_sets)
    ]
    union: set[tuple[int, int]] = set()
    for ks in kill_sets:
        union |= ks
    stats = DangerStats.collect(cfg, n, marks, len(union))
    R = cfg.R
    survivors = [
        (i, j) for i in range(R * R) for j in range(R) if (i, j) not in union
    ]
    if not survivors:
        raise NoSurvivor(
            n + 1,
            f"all {R**3} children killed while refining level {n}; "
            "R is below the workable scale for this theta",
        )
    if cfg.policy == "lex":
        chosen = survivors[0]
    else:
        rng = random.Random(f"{cfg.seed}:{n}")
        chosen = survivors[rng.randrange(len(survivors))]
    rec = LevelRecord(
        level=n,
        rect=rect,
        window1=tuple(v.index for v in win1),
        window2=tuple(v.index for v in win2),
        stats=stats,
        chosen=chosen,
    )
    return child_rect(rect, cfg, *chosen), rec


@dataclass(frozen=True)
class Certificate:
    theta: ThetaForm
    theta_fp: str
    sequence_fp: str
    R: int
    depth: int
    policy: str
    seed: int
    eta: tuple[Fraction, Fraction]
    epsilon: Fraction
    height_sq_bound: int
    verified_form_min: Fraction
    bad_theta_score_at_Q: tuple[int, Fraction] | None = None  # (Q, score cubed)


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
    resume_levels: tuple[LevelRecord, ...] = (),
) -> tuple[Certificate, RunJournal]:
    """Full descent to cfg.depth. seq must be complete to R^(2 depth) (and at
    least to 1). resume_levels replays already-journaled choices without
    re-marking, then the loop continues from there; a record whose rectangle
    or vector windows differ from what this run computes is rejected."""
    if seq.theta != theta:
        raise ConfigError("sequence was built for a different theta")
    need = max(1, cfg.height_sq_bound())
    if seq.height_sq_max < need:
        raise IncompleteSequence(
            f"sieve to depth {cfg.depth} needs completeness to M^2 = {need}, "
            f"sequence covers {seq.height_sq_max}"
        )
    if seq.vectors:
        validate_precision(theta, seq.height_sq_max, seq.vectors[-1].zeta)

    rect = select_base(theta, cfg, seq)
    base = rect
    levels: list[LevelRecord] = []
    for rec in resume_levels:
        n = rect.level
        if rec.level != n or rec.rect != rect:
            raise ConfigError("resume records do not replay onto this run")
        if (rec.window1, rec.window2) != tuple(
            tuple(v.index for v in type_window(seq, kind, cfg.R, n))
            for kind in (TYPE1, TYPE2)
        ):
            raise ConfigError(
                f"resume record for level {n} lists vector windows that "
                "differ from the sequence"
            )
        levels.append(rec)
        rect = child_rect(rect, cfg, *rec.chosen)
    while rect.level < cfg.depth:
        rect, rec = sieve_step(cfg, rect, seq)
        levels.append(rec)

    eta = rect.center(cfg)
    bound = cfg.height_sq_bound()
    in_range = tuple(v for v in seq.vectors if v.height_sq <= bound)
    if not in_range:
        raise InvariantViolation("no vectors at all below the certified bound")
    sub = BestApproxSequence(theta=theta, height_sq_max=bound, vectors=in_range)
    report = linear_form_score(theta, eta, sub)
    vfm = report.exact_score
    if vfm is None or vfm <= cfg.epsilon:
        raise InvariantViolation(
            f"certified margin failed: min form distance {vfm} <= eps {cfg.epsilon}"
        )
    cert = Certificate(
        theta=theta,
        theta_fp=theta_fingerprint(theta),
        sequence_fp=sequence_fingerprint(seq),
        R=cfg.R,
        depth=cfg.depth,
        policy=cfg.policy,
        seed=cfg.seed,
        eta=eta,
        epsilon=cfg.epsilon,
        height_sq_bound=bound,
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
