import dataclasses
import random

import pytest
from fractions import Fraction
from hypothesis import assume, example, given, settings, strategies as st
from math import ceil, floor
from types import SimpleNamespace

from conftest import expand_rows

from badsieve import bestapprox, sieve
from badsieve.bestapprox import (
    TYPE1,
    TYPE2,
    BestApproxSequence,
    BestApproxVector,
    enumerate_best_approx,
    export_sequence_lines,
    sequence_fingerprint,
)
from badsieve.catalog import get_entry
from badsieve.errors import ConfigError, IncompleteSequence, NoBaseFound, PrecisionExhausted
from badsieve.journal import (
    certificate_json,
    journal_text,
    parse_certificate,
    parse_journal,
)
from badsieve.rationals import form_range
from badsieve.sieve import (
    DangerStats,
    LevelRecord,
    Rectangle,
    SieveConfig,
    VectorMark,
    _count_covered,
    child_rect,
    dangerous_children,
    gap_condition,
    kth_survivor,
    merge_ranges,
    rect_clear,
    run_sieve,
    select_base,
    sieve_step,
)
from badsieve.verify import brute_best_approx, grid_dangerous_children

SQRT_PAIR = get_entry("sqrt2-sqrt3").theta


def fake_vec(m1, m2, index=0):
    # only .m1/.m2/.kind/.height_sq matter to the geometry helpers
    kind = 1 if m1 * m1 > m2**4 else 2
    return SimpleNamespace(
        index=index, m1=m1, m2=m2, kind=kind, height_sq=max(abs(m1), m2 * m2)
    )


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ConfigError):
        SieveConfig(R=1, depth=2)
    with pytest.raises(ConfigError):
        SieveConfig(R=4, depth=-1)
    with pytest.raises(ConfigError):
        SieveConfig(R=4, depth=2, policy="bogus")
    SieveConfig(R=4, depth=0)  # depth 0 allowed


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"R": 4.0}, "R must be an integer, not 4.0"),
        ({"R": True}, "R must be an integer, not True"),
        ({"depth": 1.0}, "depth must be an integer, not 1.0"),
        ({"depth": True}, "depth must be an integer, not True"),
        ({"seed": 1.5}, "seed must be an integer, not 1.5"),
        ({"seed": False}, "seed must be an integer, not False"),
        ({"seed": "7"}, "seed must be an integer, not '7'"),
        ({"policy": None}, "policy must be a string, not None"),
        ({"policy": ["lex"]}, "policy must be a string, not ['lex']"),
    ],
)
def test_config_field_types(fields, message):
    # a bool is an int, so it is refused by name; a float or str would fail
    # deep in the run with a bare TypeError or AttributeError
    with pytest.raises(ConfigError) as exc:
        SieveConfig(**{"R": 4, "depth": 1, **fields})
    assert str(exc.value) == message


def test_seed_past_the_digit_limit_is_config_error(default_digit_limit):
    # the seed is written as decimal text, and the random policy seeds from it
    for seed in (10**4300, -(10**4300), 10**5000):
        with pytest.raises(ConfigError, match="at most 4300 decimal digits"):
            SieveConfig(R=4, depth=1, seed=seed)
    theta = get_entry("golden-pair").theta
    for policy in ("lex", "random"):
        cfg = SieveConfig(R=4, depth=1, policy=policy, seed=-(10**4300 - 1))
        seq = enumerate_best_approx(theta, cfg.height_sq_bound())
        cert, journal = run_sieve(theta, cfg, seq)
        assert parse_journal(journal_text(journal))[1] == cfg
        assert parse_certificate(certificate_json(cert)).config == cfg


def test_config_derived_quantities():
    cfg = SieveConfig(R=16, depth=4)
    assert cfg.delta == Fraction(1, 16**3)
    assert cfg.epsilon == Fraction(1, 16**4)
    assert cfg.log2R_ceil == 4
    assert cfg.height_sq_bound() == 16**8
    # 1000 * 256 * 4 = 1_024_000 >= 4096: working scale, not asymptotic scale
    assert cfg.scale_valid is False
    assert SieveConfig(R=16384, depth=0).scale_valid is True


def test_log2_ceil_non_power():
    assert SieveConfig(R=5, depth=0).log2R_ceil == 3
    assert SieveConfig(R=8, depth=0).log2R_ceil == 3
    assert SieveConfig(R=9, depth=0).log2R_ceil == 4


# -------------------------------------------------------------- geometry


def test_subdivide_tiles_parent():
    cfg = SieveConfig(R=3, depth=1)
    B = Rectangle(Fraction(1, 4), Fraction(1, 2), 0)
    w1, w2 = B.widths(cfg)
    cw1, cw2 = w1 / 9, w2 / 3
    for i in range(9):
        for j in range(3):
            k = child_rect(B, cfg, i, j)
            assert k.level == 1
            assert k.b1 == B.b1 + i * cw1
            assert k.b2 == B.b2 + j * cw2
            kw1, kw2 = k.widths(cfg)
            assert kw1 == cw1 and kw2 == cw2
    # corners meet the parent's corners exactly
    last = child_rect(B, cfg, 8, 2)
    assert last.b1 + cw1 == B.b1 + w1
    assert last.b2 + cw2 == B.b2 + w2


def test_child_rect_range_check():
    cfg = SieveConfig(R=3, depth=1)
    B = Rectangle(Fraction(0), Fraction(0), 0)
    with pytest.raises(ConfigError):
        child_rect(B, cfg, 9, 0)
    with pytest.raises(ConfigError):
        child_rect(B, cfg, 0, 3)
    with pytest.raises(ConfigError):
        child_rect(B, cfg, -1, 0)


def test_center_strictly_inside():
    cfg = SieveConfig(R=4, depth=2)
    B = Rectangle(Fraction(1, 16), Fraction(3, 16), 2)
    c1, c2 = B.center(cfg)
    w1, w2 = B.widths(cfg)
    assert B.b1 < c1 < B.b1 + w1
    assert B.b2 < c2 < B.b2 + w2


def _fraction_child(B, cfg, i, j):
    """child_rect by Fraction arithmetic through delta."""
    cw1 = cfg.delta / cfg.R ** (2 * (B.level + 1))
    cw2 = cfg.delta / cfg.R ** (B.level + 1)
    return Rectangle(B.b1 + i * cw1, B.b2 + j * cw2, B.level + 1)


def _fraction_center(B, cfg):
    w1 = cfg.delta / cfg.R ** (2 * B.level)
    w2 = cfg.delta / cfg.R**B.level
    return B.b1 + w1 / 2, B.b2 + w2 / 2


@settings(max_examples=200, deadline=None)
@given(data=st.data(), R=st.integers(2, 9), levels=st.integers(0, 4))
def test_child_and_center_match_fraction_formulas(data, R, levels):
    # a descent from a corner on the base grid (i/(4R), j/(4R)); at every
    # level the frame-built child and centre equal the Fraction formulas
    cfg = SieveConfig(R=R, depth=levels + 1)
    g = Fraction(1, 4 * R)
    B = Rectangle(
        data.draw(st.integers(0, 4 * R - 1)) * g,
        data.draw(st.integers(0, 4 * R - 1)) * g,
        0,
    )
    for _ in range(levels + 1):
        assert B.center(cfg) == _fraction_center(B, cfg)
        i = data.draw(st.integers(0, R * R - 1))
        j = data.draw(st.integers(0, R - 1))
        child = child_rect(B, cfg, i, j)
        assert child == _fraction_child(B, cfg, i, j)
        B = child


# ------------------------------------------------------------ strip walk


def test_axis_vector_kills_left_band():
    # m = (1, 0) over the level-0 rectangle at the origin, R = 4:
    # children with i <= 3 reach into the c = 0 strip, i = 4 only touches
    # its boundary (closed range vs open strip) and survives
    cfg = SieveConfig(R=4, depth=1)
    B = Rectangle(Fraction(0), Fraction(0), 0)
    killed = dangerous_children(B, fake_vec(1, 0), cfg)
    assert killed == {j: [(0, 3)] for j in range(4)}


@pytest.mark.parametrize(
    "m1,m2",
    [
        (1, 0), (0, 1), (1, 1), (-1, 1), (5, 2), (-7, 3), (16, 1), (-2, 4),
        # several ranges per row; strips whose row ranges overlap or touch
        (0, 70), (300, 1), (-450, 13), (96, -40), (-1000, 250), (700, 200),
    ],
)
def test_strip_walk_matches_grid_oracle(m1, m2):
    cfg = SieveConfig(R=4, depth=2)
    for rect in (
        Rectangle(Fraction(1, 16), Fraction(1, 16), 0),
        Rectangle(Fraction(33, 1024), Fraction(9, 64), 1),
    ):
        v = fake_vec(m1, m2)
        assert dangerous_children(rect, v, cfg) == grid_dangerous_children(
            rect, v, cfg
        )


@st.composite
def lattice_rects(draw):
    """(cfg, B): a level 0-2 rectangle reached by descending from a corner on
    the base grid (i/(4R), j/(4R)) through random children, so its corner
    lies on the level's child lattice. Odd R makes that lattice carry the 4
    of 4R."""
    R = draw(st.integers(2, 7))
    cfg = SieveConfig(R=R, depth=3)
    g = Fraction(1, 4 * R)
    B = Rectangle(
        draw(st.integers(1, 4 * R - 1)) * g, draw(st.integers(1, 4 * R - 1)) * g, 0
    )
    for _ in range(draw(st.integers(0, 2))):
        B = child_rect(
            B, cfg, draw(st.integers(0, R * R - 1)), draw(st.integers(0, R - 1))
        )
    return cfg, B


@st.composite
def rects_and_vectors(draw):
    """(cfg, B, v) with |m1| <= 40 R^(3+2n) and |m2| <= 3 R^(3+n), so that
    v meets up to about 40 strips across B. Magnitudes are drawn on a log
    scale: near the top of the range every child is killed, and the row
    offsets only show with a few strips; either coordinate may be 0."""
    cfg, B = draw(lattice_rects())
    R, n = cfg.R, B.level

    def coordinate(bound):
        top = min(bound, 2 ** draw(st.integers(0, bound.bit_length())))
        return draw(st.integers(-top, top))

    m1 = coordinate(40 * R ** (3 + 2 * n))
    m2 = coordinate(3 * R ** (3 + n))
    assume((m1, m2) != (0, 0))
    return cfg, B, fake_vec(m1, m2)


@settings(max_examples=150, deadline=None)
@given(case=rects_and_vectors())
# odd R with the 4 of 4R in one corner coordinate's denominator only
@example(
    case=(
        SieveConfig(R=3, depth=3),
        Rectangle(Fraction(1, 12), Fraction(1, 3), 0),
        fake_vec(7, 2),
    )
)
@example(
    case=(
        SieveConfig(R=5, depth=3),
        Rectangle(Fraction(2, 5), Fraction(3, 20), 0),
        fake_vec(-3, 4),
    )
)
def test_strip_walk_matches_grid_oracle_any_shape(case):
    cfg, B, v = case
    assert dangerous_children(B, v, cfg) == grid_dangerous_children(B, v, cfg)


def test_strip_walk_open_endpoints():
    # B's corners put the lowest child edge on the c = 0 strip's upper end
    # eps, or the highest child edge on the c = 1 strip's lower end 1 - eps:
    # closed ranges touching an open strip survive
    cfg = SieveConfig(R=4, depth=1)
    eps = cfg.epsilon
    w1, w2 = Rectangle(Fraction(0), Fraction(0), 0).widths(cfg)
    cw1, cw2 = w1 / 16, w2 / 4
    for B in (
        Rectangle(eps, eps, 0),
        Rectangle(1 - eps - w1, 1 - eps - w2, 0),
        Rectangle(eps, 1 - eps - w2, 0),
        # an inner child edge on an open strip end
        Rectangle(eps - cw1, eps - cw2, 0),
        Rectangle(1 - eps - w1 + cw1, 1 - eps - w2 + cw2, 0),
    ):
        for m1, m2 in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (0, 2)]:
            v = fake_vec(m1, m2)
            assert dangerous_children(B, v, cfg) == grid_dangerous_children(
                B, v, cfg
            )
    # the same rows one child-width further in are killed
    B = Rectangle(eps, 1 - eps - w2 + cw2, 0)
    assert dangerous_children(B, fake_vec(0, 1), cfg) == {3: [(0, 15)]}


# --------------------------------------------------------- survivor pick


def brute_survivors(rows, R):
    killed = expand_rows(rows)
    return [
        (i, j) for i in range(R * R) for j in range(R) if (i, j) not in killed
    ]


def pick_patterns(R):
    """Raw per-row kill ranges, not yet merged: empty rows, fully killed rows
    (the m1 = 0 case), touching and overlapping ranges, ranges at both row
    ends, and seeded random mixes of these."""
    last = R * R - 1
    yield {}
    yield {j: [(0, last)] for j in range(0, R, 2)}
    yield {**{j: [(0, last)] for j in range(R - 1)}, R - 1: [(last, last)]}
    yield {j: [(0, 0), (last, last)] for j in range(R)}
    yield {j: [(R, 2 * R - 1), (0, R - 1)] for j in range(R)}  # touching
    yield {j: [(1, R + 1), (R, 2 * R)] for j in range(R)}  # overlapping
    yield {j: [(j, j + 1)] for j in range(R)}  # staircase across rows
    rng = random.Random(f"pick:{R}")
    for _ in range(25):
        rows = {}
        for j in range(R):
            for _ in range(rng.choice((0, 0, 1, 2, 3))):
                lo = rng.choice((0, last, rng.randrange(R * R)))
                hi = rng.choice((lo, last, min(last, lo + rng.randrange(2 * R))))
                rows.setdefault(j, []).append((lo, max(lo, hi)))
        yield rows


@pytest.mark.parametrize("R", [2, 3, 4, 8])
def test_kth_survivor_matches_listing(R):
    patterns = 0
    for raw in pick_patterns(R):
        rows = {j: merge_ranges(r) for j, r in raw.items()}
        assert expand_rows(rows) == expand_rows(raw)
        for ranges in rows.values():  # sorted, disjoint, non-touching
            assert all(a[1] + 1 < b[0] for a, b in zip(ranges, ranges[1:]))
        survivors = brute_survivors(raw, R)
        for k, child in enumerate(survivors):
            assert kth_survivor(rows, R, k) == child
        patterns += 1
    assert patterns == 32


def test_kth_survivor_rank_at_paper_scale():
    # R = 2^14 has 2^42 children, so each pick is checked by its rank,
    # counted from the ranges, instead of against a listing
    R = 2**14
    last = R * R - 1
    rng = random.Random("pick:16384")
    for dense in (False, True):
        raw = {j: [(0, last)] for j in rng.sample(range(R), 3)}  # full rows
        for j in range(R) if dense else rng.sample(range(R), 60):
            for _ in range(rng.randrange(1, 4)):
                lo = rng.randrange(R * R)
                hi = min(last, lo + rng.randrange(R * R // 3))
                raw.setdefault(j, []).append((lo, hi))
        rows = {j: merge_ranges(r) for j, r in raw.items()}
        survivors = R**3 - sum(hi - lo + 1 for r in rows.values() for lo, hi in r)
        for k in [0, survivors - 1] + [rng.randrange(survivors) for _ in range(20)]:
            i, j = kth_survivor(rows, R, k)
            assert 0 <= i <= last and 0 <= j < R
            assert not any(lo <= i <= hi for lo, hi in rows.get(j, ()))
            before = sum(
                min(hi, i - 1) - lo + 1
                for r in rows.values() for lo, hi in r if lo < i
            )
            below = sum(
                1 for c, r in rows.items()
                if c < j and any(lo <= i <= hi for lo, hi in r)
            )
            assert i * R + j - before - below == k


def test_step_pick_follows_listing_order():
    # lex takes the first survivor in i-major order, random the survivor
    # that the seeded draw over the survivor count names
    theta = SQRT_PAIR
    seq = enumerate_best_approx(theta, 8**6)
    for policy, seed in [("lex", 0), ("random", 3), ("random", 11)]:
        cfg = SieveConfig(R=8, depth=3, policy=policy, seed=seed)
        _, journal = run_sieve(theta, cfg, seq)
        for rec in journal.levels:
            vectors = [seq.vectors[k - 1] for k in rec.window1 + rec.window2]
            killed = set()
            for v in vectors:
                killed |= expand_rows(grid_dangerous_children(rec.rect, v, cfg))
            survivors = [
                (i, j)
                for i in range(cfg.R**2)
                for j in range(cfg.R)
                if (i, j) not in killed
            ]
            k = 0
            if policy == "random":
                k = random.Random(f"{seed}:{rec.level}").randrange(len(survivors))
            assert rec.chosen == survivors[k]


def test_rect_clear_open_strip_boundary():
    # range [1/256, 1/16] of (1,0) over the rect at b1 = eps touches the
    # c = 0 strip only at its open endpoint: clear
    cfg = SieveConfig(R=4, depth=1)
    assert rect_clear(
        Rectangle(Fraction(1, 256), Fraction(1, 2), 0), fake_vec(1, 0), cfg
    )
    assert not rect_clear(
        Rectangle(Fraction(1, 257), Fraction(1, 2), 0), fake_vec(1, 0), cfg
    )


def test_gap_condition_examples():
    cfg = SieveConfig(R=4, depth=1)
    B = Rectangle(Fraction(0), Fraction(0), 0)
    # Type1 (1,0): strips 1 apart, footprint ~ 5/512, rect width 1/64
    assert gap_condition(B, fake_vec(1, 0), cfg)
    # huge coefficient: strips 1/4096 apart, narrower than the rect
    assert not gap_condition(B, fake_vec(4096, 1), cfg)


def gap_reference(B, v, cfg):
    """gap_condition's formula in Fractions: strips cut the x1 axis every
    1/|m1| (Type1) and must clear the rectangle's width after the footprint
    2 (eps/|m1| + cw1 + (|m2|/|m1|) cw2) is taken off; Type2 swaps the axes."""
    R, eps = cfg.R, cfg.epsilon
    w1, w2 = B.widths(cfg)
    cw1, cw2 = w1 / (R * R), w2 / R
    a1, a2 = abs(v.m1), abs(v.m2)
    if v.kind == 1:
        width = 2 * (eps / a1 + cw1 + Fraction(a2, a1) * cw2)
        return Fraction(1, a1) - width, w1
    width = 2 * (eps / a2 + cw2 + Fraction(a1, a2) * cw1)
    return Fraction(1, a2) - width, w2


def rect_clear_reference(B, v, cfg):
    """No integer c with lo - eps < c < hi + eps, for [lo, hi] the closed
    form range of v over B."""
    w1, w2 = B.widths(cfg)
    lo, hi = form_range(v.m1, v.m2, B.b1, B.b2, w1, w2)
    eps = cfg.epsilon
    return not range(floor(lo - eps) + 1, ceil(hi + eps))


def strip_case(R, level, b1, b2, m1, m2):
    return SieveConfig(R=R, depth=level + 1), Rectangle(b1, b2, level), fake_vec(m1, m2)


@settings(max_examples=300, deadline=None)
@given(case=rects_and_vectors())
# m1 = 0, m2 = 0 and every sign combination of (m1, m2): the strip test's
# bounds take each sign branch
@example(case=strip_case(4, 1, Fraction(3, 8), Fraction(5, 8), 0, 5))
@example(case=strip_case(4, 1, Fraction(3, 8), Fraction(5, 8), 0, -5))
@example(case=strip_case(4, 1, Fraction(3, 8), Fraction(5, 8), 7, 0))
@example(case=strip_case(4, 1, Fraction(3, 8), Fraction(5, 8), -7, 0))
@example(case=strip_case(4, 1, Fraction(3, 8), Fraction(5, 8), 3, 2))
@example(case=strip_case(4, 1, Fraction(3, 8), Fraction(5, 8), 3, -2))
@example(case=strip_case(4, 1, Fraction(3, 8), Fraction(5, 8), -3, 2))
@example(case=strip_case(4, 1, Fraction(3, 8), Fraction(5, 8), -3, -2))
# ranges that end exactly on an open strip's endpoint, clear: the top at
# 1 - eps, and the bottom at eps, at each level shape
@example(case=strip_case(4, 1, Fraction(311, 1024), Fraction(1, 8), 2, 3))
@example(case=strip_case(4, 1, Fraction(189, 1024), Fraction(1, 8), -2, 3))
@example(case=strip_case(4, 0, Fraction(1) - Fraction(1, 256) - Fraction(1, 64),
                         Fraction(1, 2), 1, 0))
@example(case=strip_case(4, 0, Fraction(1, 256), Fraction(1, 2), -1, 0))
# one part in 10^9 past such an endpoint, not clear
@example(case=strip_case(4, 1, Fraction(311, 1024) + Fraction(1, 10**9), Fraction(1, 8), 2, 3))
@example(case=strip_case(4, 1, Fraction(189, 1024) + Fraction(1, 10**9), Fraction(1, 8), -2, 3))
def test_gap_condition_and_rect_clear_match_fraction_reference(case):
    cfg, B, v = case
    room, width = gap_reference(B, v, cfg)
    assert gap_condition(B, v, cfg) == (room > width)
    assert rect_clear(B, v, cfg) == rect_clear_reference(B, v, cfg)


@pytest.mark.parametrize(
    "m1,m2,expected",
    [
        # R = 2, level 0: Type1 (4, 1) and Type2 (2, 3) leave exactly the
        # rectangle's width between strips, so the strict test fails there
        (4, 1, False), (-4, 1, False), (3, 1, True),
        (2, 3, False), (2, -3, False), (0, 3, True),
    ],
)
def test_gap_condition_strict_at_equality(m1, m2, expected):
    cfg = SieveConfig(R=2, depth=1)
    for B in (
        Rectangle(Fraction(0), Fraction(0), 0),
        Rectangle(Fraction(3, 8), Fraction(5, 8), 0),
    ):
        v = fake_vec(m1, m2)
        room, width = gap_reference(B, v, cfg)
        assert (room == width) is not expected
        assert gap_condition(B, v, cfg) is expected


@pytest.mark.parametrize("n", [0, 16, 64])
def test_gap_condition_at_paper_scale_matches_fraction_reference(n):
    """R = 2^14: per type, the largest |m1| (Type1, |m2| = 1) or |m2|
    (Type2, |m1| = 1) that keeps the gap, and the next one, at two corners."""
    R = 2**14
    cfg = SieveConfig(R=R, depth=n + 1)
    top = R ** (5 + 2 * n) - 2 * R ** (1 + 2 * n) - 1
    a1 = (top - 2 * R ** (1 + n)) // (R * R + 2)
    a2 = (top - 2) // (R ** (2 + n) + 2 * R ** (1 + n))
    cases = [
        (fake_vec(-a1, 1), True), (fake_vec(a1 + 1, -1), False),
        (fake_vec(1, a2), True), (fake_vec(-1, a2 + 1), False),
    ]
    for B in (
        Rectangle(Fraction(1, 4 * R), Fraction(3, 4 * R), n),
        Rectangle(Fraction(1, 3) + Fraction(5, R ** (5 + 2 * n)),
                  Fraction(1, 2) + Fraction(7, R ** (4 + n)), n),
    ):
        for v, expected in cases:
            room, width = gap_reference(B, v, cfg)
            assert (room > width) is expected
            assert gap_condition(B, v, cfg) is expected


def test_rect_clear_touches_open_strip_endpoints():
    cfg = SieveConfig(R=4, depth=1)
    eps = cfg.epsilon
    w1, w2 = Rectangle(Fraction(0), Fraction(0), 0).widths(cfg)
    cases = [
        # (1, 0): the range's top w1 + b1 sits on the c = 1 strip's lower end
        (Rectangle(1 - eps - w1, Fraction(1, 2), 0), fake_vec(1, 0), True),
        (Rectangle(1 - eps - w1 + Fraction(1, 10**6), Fraction(1, 2), 0),
         fake_vec(1, 0), False),
        # (-1, 0): the range [-b1 - w1, -b1] tops out at the c = 0 strip's end
        (Rectangle(eps, Fraction(1, 2), 0), fake_vec(-1, 0), True),
        (Rectangle(eps - Fraction(1, 10**6), Fraction(1, 2), 0),
         fake_vec(-1, 0), False),
        # (1, -1): the range [b1 - b2 - w2, b1 - b2 + w1] bottoms out on the
        # c = 0 strip's upper end eps
        (Rectangle(Fraction(1, 2), Fraction(1, 2) - eps - w2, 0),
         fake_vec(1, -1), True),
        (Rectangle(Fraction(1, 2), Fraction(1, 2) - eps - w2 + Fraction(1, 10**6), 0),
         fake_vec(1, -1), False),
    ]
    for B, v, clear in cases:
        assert rect_clear_reference(B, v, cfg) is clear
        assert rect_clear(B, v, cfg) is clear


def most_strips_per_lane(B, v, cfg):
    """Largest number of open strips (c - eps, c + eps) that the closed form
    range over one lane of B's children meets: a lane is a row (all i, one j)
    for Type1 vectors and a column (one i, all j) for Type2 vectors."""
    R, eps = cfg.R, cfg.epsilon
    w1, w2 = B.widths(cfg)
    if v.kind == 1:
        lanes = [(B.b1, B.b2 + j * w2 / R, w1, w2 / R) for j in range(R)]
    else:
        cw1 = w1 / (R * R)
        lanes = [(B.b1 + i * cw1, B.b2, cw1, w2) for i in range(R * R)]
    most = 0
    for b1, b2, lw1, lw2 in lanes:
        lo, hi = form_range(v.m1, v.m2, b1, b2, lw1, lw2)
        strips = range(floor(lo - eps), ceil(hi + eps) + 1)
        most = max(most, sum(1 for c in strips if lo < c + eps and hi > c - eps))
    return most


def test_gap_implies_single_strip_per_row():
    # when gap_condition holds, each row (Type1) or column (Type2) of
    # children meets at most one resonance strip; the probe vectors are
    # large enough that some lanes meet several strips, where the condition
    # must fail
    theta = SQRT_PAIR
    cfg = SieveConfig(R=8, depth=3)
    seq = enumerate_best_approx(theta, cfg.height_sq_bound())
    _, journal = run_sieve(theta, cfg, seq)
    probes = [
        fake_vec(m1, m2) for m1 in (-700, 3000, 90000) for m2 in (1, -60, 2000)
    ]
    checked = crowded = 0
    for rec in journal.levels:
        window = [seq.vectors[k - 1] for k in rec.window1 + rec.window2]
        for v in window + probes:
            most = most_strips_per_lane(rec.rect, v, cfg)
            if gap_condition(rec.rect, v, cfg):
                assert most <= 1
                checked += 1
            elif most > 1:
                crowded += 1
    assert checked > 0 and crowded > 0


# ------------------------------------------------------------------ base


def fabricated_seq(theta, vectors, hmax=1):
    vecs = tuple(
        BestApproxVector(
            index=k,
            m0=0,
            m1=m1,
            m2=m2,
            height_sq=max(abs(m1), m2 * m2),
            zeta=Fraction(1, 10 ** (k + 1)),
            kind=1 if m1 * m1 > m2**4 else 2,
        )
        for k, (m1, m2) in enumerate(vectors)
    )
    return BestApproxSequence(theta=theta, height_sq_max=hmax, vectors=vecs)


def test_select_base_no_constraints():
    theta = SQRT_PAIR
    cfg = SieveConfig(R=2, depth=1)
    base = select_base(cfg, fabricated_seq(theta, []))
    assert (base.b1, base.b2) == (Fraction(1, 8), Fraction(1, 8))
    assert base.level == 0


def test_select_base_skips_struck_corners():
    # (-1,1) strikes the diagonal |j - i| <= 1 of the 1/8 grid, (1,1) the
    # antidiagonal; first clear corner after (1,1), (1,2) is (1,3)
    theta = SQRT_PAIR
    cfg = SieveConfig(R=2, depth=1)
    seq = fabricated_seq(theta, [(1, 0), (0, 1), (1, 1), (-1, 1)])
    base = select_base(cfg, seq)
    assert (base.b1, base.b2) == (Fraction(1, 8), Fraction(3, 8))


def test_select_base_no_base_found():
    # a unit-height constraint (4, 0), fabricated: its strips every 1/4 in
    # x1 strike every corner of the 1/8 grid
    cfg = SieveConfig(R=2, depth=1)
    seq = fabricated_seq(SQRT_PAIR, [(4, 0)])
    unit = dataclasses.replace(seq.vectors[0], height_sq=1)
    with pytest.raises(NoBaseFound):
        select_base(cfg, dataclasses.replace(seq, vectors=(unit,)))


def test_select_base_needs_unit_completeness():
    theta = SQRT_PAIR
    cfg = SieveConfig(R=2, depth=1)
    with pytest.raises(IncompleteSequence):
        select_base(cfg, fabricated_seq(theta, [], hmax=0))


def _select_base_fractions(cfg, seq):
    """The reference scan in Fractions: each corner (i*g, j*g), g = 1/(4R),
    tested by rect_clear on its own level-0 Rectangle, and the edge by
    corner + delta >= 1. None where select_base raises NoBaseFound."""
    constraints = [v for v in seq.vectors if v.height_sq <= 1]
    g = Fraction(1, 4 * cfg.R)
    for i in range(1, 4 * cfg.R):
        if i * g + cfg.delta >= 1:
            break
        for j in range(1, 4 * cfg.R):
            if j * g + cfg.delta >= 1:
                break
            rect = Rectangle(i * g, j * g, 0)
            if all(rect_clear(rect, v, cfg) for v in constraints):
                return rect
    return None


def _unit_seq(vectors):
    # fabricated constraints, all at height 1 as select_base reads them
    seq = fabricated_seq(SQRT_PAIR, vectors)
    units = tuple(dataclasses.replace(v, height_sq=1) for v in seq.vectors)
    return dataclasses.replace(seq, vectors=units)


def _random_unit_constraints(count):
    """count fabricated sets of 2-5 unit constraints with |m1| <= 40 and
    m2 <= 8: their strips strike corners past (1, 1) and leave no base at
    some R."""
    rng = random.Random("select-base")
    for _ in range(count):
        vs = [(rng.randint(-40, 40), rng.randint(0, 8)) for _ in range(rng.randint(2, 5))]
        yield _unit_seq([v for v in vs if v != (0, 0)])


@pytest.mark.parametrize(
    "seq",
    [enumerate_best_approx(get_entry(name).theta, 1)
     for name in ("sqrt2-sqrt3", "golden-pair", "liouville")]
    + [_unit_seq([(1, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1)]), _unit_seq([(4, 0)]),
       _unit_seq([(-1, 5)]), _unit_seq([(5, 1), (-1, 2)])]
    + list(_random_unit_constraints(12)),
    ids=["sqrt2-sqrt3", "golden-pair", "liouville", "struck", "x1-every-quarter",
         "edge-j", "edge-i"]
    + [f"random-{k}" for k in range(12)],
)
def test_select_base_equals_fraction_scan(seq):
    # one integer frame for every corner gives the Fraction scan's
    # rectangle, or its NoBaseFound, at every R. At R = 2, edge-j's first
    # clear corner would be (1/8, 7/8) and edge-i's (7/8, 3/4) if a corner
    # whose rectangle reaches 1 counted as on the grid
    for R in range(2, 65):
        cfg = SieveConfig(R=R, depth=1)
        want = _select_base_fractions(cfg, seq)
        if want is None:
            with pytest.raises(NoBaseFound):
                select_base(cfg, seq)
        else:
            assert select_base(cfg, seq) == want


# ----------------------------------------------------------------- stats


def test_danger_stats_arithmetic():
    cfg = SieveConfig(R=4, depth=1)
    marks = [
        VectorMark(index=0, kind=1, kills=5, gap_ok=True),
        VectorMark(index=1, kind=2, kills=7, gap_ok=True),
        VectorMark(index=2, kind=1, kills=3, gap_ok=False),
    ]
    stats = DangerStats(tuple(marks), union_kills=11, survivors=64 - 11)
    assert stats.type1_total == 8
    assert stats.type2_total == 7
    assert cfg.capacity_bounds() == {
        "h1": 5 * 16,
        "h2": 6 * 16,
        "type1_total": 600 * 16 * 2,
        "type2_total": 400 * 16 * 2,
        "union": 1000 * 16 * 2,
    }


def test_kind_split_matches_the_marks_on_a_run_with_kills():
    # by_kind, the one pass over the marks that the windows, the totals and
    # the journal's level lines read, against a filter of the marks by kind
    cfg = SieveConfig(R=8, depth=3)
    seq = enumerate_best_approx(SQRT_PAIR, cfg.height_sq_bound())
    _, journal = run_sieve(SQRT_PAIR, cfg, seq)
    assert any(rec.stats.union_kills for rec in journal.levels)
    for rec in journal.levels:
        marks = rec.stats.per_vector
        by = {kind: [m for m in marks if m.kind == kind] for kind in (TYPE1, TYPE2)}
        assert rec.stats.by_kind == (
            tuple(m.index for m in by[TYPE1]),
            tuple(m.index for m in by[TYPE2]),
            sum(m.kills for m in by[TYPE1]),
            sum(m.kills for m in by[TYPE2]),
        )
        assert (rec.window1, rec.window2) == rec.stats.by_kind[:2]
        assert (rec.stats.type1_total, rec.stats.type2_total) == rec.stats.by_kind[2:]


def test_union_subadditive_on_real_run():
    theta = SQRT_PAIR
    cfg = SieveConfig(R=8, depth=3)
    seq = enumerate_best_approx(theta, cfg.height_sq_bound())
    _, journal = run_sieve(theta, cfg, seq)
    saw_kills = False
    for rec in journal.levels:
        s = rec.stats
        assert s.union_kills <= s.type1_total + s.type2_total
        assert s.survivors == cfg.R**3 - s.union_kills
        saw_kills = saw_kills or s.union_kills > 0
    assert saw_kills


# ------------------------------------------------------------180 descent


def test_step_with_empty_windows_keeps_all_children():
    theta = SQRT_PAIR
    cfg = SieveConfig(R=2, depth=1)
    seq = fabricated_seq(theta, [(1, 1)], hmax=4)  # only height 1: no window
    rect = Rectangle(Fraction(1, 8), Fraction(1, 8), 0)
    child, rec = sieve_step(cfg, rect, seq)
    assert rec.window1 == () and rec.window2 == ()
    assert rec.stats.union_kills == 0
    assert rec.stats.survivors == 8
    assert rec.chosen == (0, 0)
    assert child == child_rect(rect, cfg, 0, 0)


def test_level_windows_match_filtered_sequence():
    # a level keeps its rectangle, marks and pick; its windows are the marked
    # indices by kind, which must be the oracle's records of that kind in the
    # level's height band R^(2n) < M^2 <= R^(2(n+1))
    assert [f.name for f in dataclasses.fields(LevelRecord)] == [
        "rect", "stats", "chosen"
    ]
    theta = SQRT_PAIR
    cfg = SieveConfig(R=4, depth=2)
    seq = enumerate_best_approx(theta, cfg.height_sq_bound())
    oracle = brute_best_approx(theta, cfg.height_sq_bound())
    _, journal = run_sieve(theta, cfg, seq)
    marked = 0
    for rec in journal.levels:
        lo, hi = cfg.R ** (2 * rec.level), cfg.R ** (2 * rec.level + 2)
        for kind, window in ((1, rec.window1), (2, rec.window2)):
            assert window == tuple(
                v.index
                for v in oracle.vectors
                if v.kind == kind and lo < v.height_sq <= hi
            )
            marked += len(window)
    assert marked > 0


def test_sieve_step_needs_complete_sequence():
    # refining level 1 at R=4 marks the band 16 < M^2 <= 256
    cfg = SieveConfig(R=4, depth=2)
    seq = enumerate_best_approx(SQRT_PAIR, 255)
    with pytest.raises(IncompleteSequence):
        sieve_step(cfg, Rectangle(Fraction(1, 8), Fraction(1, 8), 1), seq)


def test_step_union_merges_overlapping_kills():
    # (4,0) kills columns 7..8 of every row, inside the 6..9 that (2,0) kills
    theta = SQRT_PAIR
    seq = fabricated_seq(theta, [(2, 0), (4, 0)], hmax=16)
    rect = Rectangle(Fraction(1, 2) - Fraction(1, 128), Fraction(1, 4), 0)
    for policy, seed in [("lex", 0), ("random", 5)]:
        cfg = SieveConfig(R=4, depth=1, policy=policy, seed=seed)
        _, rec = sieve_step(cfg, rect, seq)
        assert [m.kills for m in rec.stats.per_vector] == [16, 8]
        assert rec.stats.union_kills == 16
        assert rec.stats.survivors == 64 - 16
        survivors = [
            (i, j) for i in range(16) for j in range(4) if not 6 <= i <= 9
        ]
        k = 0 if policy == "lex" else random.Random(f"{seed}:0").randrange(48)
        assert rec.chosen == survivors[k]


def test_clear_vectors_skip_the_row_walk(monkeypatch):
    # sieve_step walks the rows only for vectors whose strips meet the
    # rectangle; every other mark has 0 kills, as the walk would have found
    walked = []

    def counted(B, v, cfg):
        walked.append((B, v.index))
        return dangerous_children(B, v, cfg)

    monkeypatch.setattr(sieve, "dangerous_children", counted)
    skipped = met = 0
    for pair in ("sqrt2-sqrt3", "golden-pair", "liouville"):
        theta = get_entry(pair).theta
        seq = enumerate_best_approx(theta, 8**6)
        for seed in range(20):
            cfg = SieveConfig(R=8, depth=3, policy="random", seed=seed)
            walked.clear()
            _, journal = run_sieve(theta, cfg, seq)
            expected = []
            for rec in journal.levels:
                for mark in rec.stats.per_vector:
                    v = seq.vectors[mark.index - 1]
                    rows = dangerous_children(rec.rect, v, cfg)
                    assert mark.kills == _count_covered(rows)
                    if rect_clear(rec.rect, v, cfg):
                        skipped += 1
                    else:
                        expected.append((rec.rect, v.index))
            assert walked == expected
            met += len(walked)
    assert skipped > met > 0


def _filtered_windows(journal, seq, R):
    """Each level's window by its definition: the records with
    R^(2n) < M^2 <= R^(2(n+1)), Type1 first, each type in index order."""
    windows = []
    for rec in journal.levels:
        lo, hi = R ** (2 * rec.level), R ** (2 * rec.level + 2)
        band = [v for v in seq.vectors if lo < v.height_sq <= hi]
        windows.append([(v.index, v.kind) for kind in (1, 2) for v in band if v.kind == kind])
    return windows


def _marked_windows(journal):
    return [[(m.index, m.kind) for m in rec.stats.per_vector] for rec in journal.levels]


def test_run_sieve_same_bytes_past_and_at_the_bound(monkeypatch):
    # a sequence enumerated exactly to the bound is its own truncation, so
    # runs over it hash it once; one enumerated further is truncated per run.
    # Each level's window is a height slice of the longer one.
    exports = []
    monkeypatch.setattr(
        bestapprox, "export_sequence_lines",
        lambda s: exports.append(s) or export_sequence_lines(s),
    )
    for pair in ("sqrt2-sqrt3", "golden-pair", "liouville"):
        theta = get_entry(pair).theta
        exact = enumerate_best_approx(theta, 8**6)
        longer = enumerate_best_approx(theta, 8**7)
        assert len(longer.vectors) > len(exact.vectors)
        exports.clear()
        for policy, seed in [("lex", 0)] + [("random", seed) for seed in range(5)]:
            cfg = SieveConfig(R=8, depth=3, policy=policy, seed=seed)
            runs = [run_sieve(theta, cfg, s) for s in (exact, longer)]
            assert len({journal_text(j) for _, j in runs}) == 1
            assert len({certificate_json(c) for c, _ in runs}) == 1
            assert _marked_windows(runs[1][1]) == _filtered_windows(runs[1][1], longer, 8)
        assert [s is exact for s in exports] == [True] + [False] * 6


def test_height_slices_end_exactly_at_a_record():
    # at R = 4 sqrt2-sqrt3 has records at M^2 = 16 and 256, where levels 0
    # and 1 end and levels 1 and 2 begin; at depth 2 the certified bound
    # 4^4 is one of them
    past = enumerate_best_approx(SQRT_PAIR, 4**7)
    assert {16, 256} <= {v.height_sq for v in past.vectors}
    for depth in (2, 3):
        exact = enumerate_best_approx(SQRT_PAIR, 4 ** (2 * depth))
        assert (exact.vectors[-1].height_sq == 256) is (depth == 2)
        for policy in ("lex", "random"):
            cfg = SieveConfig(R=4, depth=depth, policy=policy, seed=7)
            runs = [run_sieve(SQRT_PAIR, cfg, s) for s in (exact, past)]
            assert len({(journal_text(j), certificate_json(c)) for c, j in runs}) == 1
            assert runs[1][0].sequence_fp == sequence_fingerprint(exact)
            assert _marked_windows(runs[1][1]) == _filtered_windows(runs[1][1], past, 4)


def test_run_sieve_nesting_and_margin():
    theta = SQRT_PAIR
    cfg = SieveConfig(R=8, depth=3)
    seq = enumerate_best_approx(theta, cfg.height_sq_bound())
    cert, journal = run_sieve(theta, cfg, seq)

    # strictly nested rectangles, geometry consistent with the journal
    rect = journal.base
    assert rect.level == 0
    for rec in journal.levels:
        assert rec.rect == rect
        rect = child_rect(rect, cfg, *rec.chosen)
    assert rect == journal.final
    assert rect.level == cfg.depth

    # the chosen child is never a killed child (inductive safety, replayed)
    for rec in journal.levels:
        for k in rec.window1 + rec.window2:
            assert rec.chosen not in expand_rows(
                dangerous_children(rec.rect, seq.vectors[k - 1], cfg)
            )

    # eta is the exact center of the final rectangle and clears epsilon
    w1, w2 = rect.widths(cfg)
    assert cert.eta == (rect.b1 + w1 / 2, rect.b2 + w2 / 2)
    assert cert.verified_form_min > cfg.epsilon
    assert cert.height_sq_bound == 8**6
    assert cert.bad_theta_score_at_Q is None


def test_run_sieve_depth_zero():
    theta = SQRT_PAIR
    cfg = SieveConfig(R=8, depth=0)
    seq = enumerate_best_approx(theta, 64)
    cert, journal = run_sieve(theta, cfg, seq)
    assert journal.levels == ()
    assert journal.final == journal.base
    assert cert.eta == journal.base.center(cfg)


def test_run_sieve_rejects_short_sequence():
    theta = SQRT_PAIR
    cfg = SieveConfig(R=8, depth=3)
    seq = enumerate_best_approx(theta, 100)
    with pytest.raises(IncompleteSequence):
        run_sieve(theta, cfg, seq)


def test_run_sieve_rejects_wrong_theta():
    cfg = SieveConfig(R=8, depth=1)
    seq = enumerate_best_approx(SQRT_PAIR, cfg.height_sq_bound())
    other = get_entry("golden-pair").theta
    with pytest.raises(ConfigError):
        run_sieve(other, cfg, seq)


def test_run_sieve_rejects_too_coarse_sequence():
    # a caller's sequence whose theta declares an error of 1/1000: the
    # sieve's own guard names the digits its bound 8^4 needs
    cfg = SieveConfig(R=8, depth=2)
    golden = get_entry("golden-pair").theta
    coarse = dataclasses.replace(golden, declared_error=Fraction(1, 1000))
    seq = enumerate_best_approx(golden, cfg.height_sq_bound())
    with pytest.raises(PrecisionExhausted) as exc:
        run_sieve(coarse, cfg, dataclasses.replace(seq, theta=coarse))
    assert "height_sq_max=4096 needs at least 11 decimal digits" in str(exc.value)
    assert "the declared error gives 3: roughly 10 more" in str(exc.value)
    assert exc.value.extra_digits == 10


def test_seeded_policy_determinism():
    theta = SQRT_PAIR
    cfg = SieveConfig(R=8, depth=2, policy="random", seed=7)
    seq = enumerate_best_approx(theta, cfg.height_sq_bound())
    runs = [run_sieve(theta, cfg, seq) for _ in range(2)]
    texts = {journal_text(j) for _, j in runs}
    certs = {certificate_json(c) for c, _ in runs}
    assert len(texts) == 1 and len(certs) == 1
    # a different seed may pick a different survivor but stays valid
    cert_b, _ = run_sieve(
        theta, SieveConfig(R=8, depth=2, policy="random", seed=8), seq
    )
    assert cert_b.verified_form_min > cfg.epsilon


# --------------------------------------------------------------- journal


def test_journal_roundtrip():
    theta = SQRT_PAIR
    cfg = SieveConfig(R=8, depth=2, policy="random", seed=3)
    seq = enumerate_best_approx(theta, cfg.height_sq_bound())
    cert, journal = run_sieve(theta, cfg, seq)
    text = journal_text(journal)
    parsed_theta, parsed_cfg, tfp, sfp, base, levels, final = parse_journal(
        text
    )
    assert parsed_theta == theta
    assert parsed_cfg == cfg
    assert (tfp, sfp) == (journal.theta_fp, journal.sequence_fp)
    assert base == journal.base
    assert levels == journal.levels
    assert final == journal.final


def test_journal_tamper_detected():
    theta = SQRT_PAIR
    cfg = SieveConfig(R=8, depth=2)
    seq = enumerate_best_approx(theta, cfg.height_sq_bound())
    _, journal = run_sieve(theta, cfg, seq)
    lines = journal_text(journal).splitlines()
    assert '"survivors":' in lines[1]
    import re

    tampered = re.sub(r'"survivors":(\d+)', '"survivors":1', lines[1])
    with pytest.raises(ConfigError):
        parse_journal("\n".join([lines[0], tampered] + lines[2:]))


def test_certificate_roundtrip():
    theta = SQRT_PAIR
    cfg = SieveConfig(R=8, depth=2)
    seq = enumerate_best_approx(theta, cfg.height_sq_bound())
    cert, _ = run_sieve(theta, cfg, seq)
    assert parse_certificate(certificate_json(cert)) == cert
