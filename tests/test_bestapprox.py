import dataclasses
import hashlib
import json
import random

import pytest
from fractions import Fraction
from math import isqrt, lcm

from hypothesis import example, given, settings, strategies as st

from conftest import sqrt_pair_truncated

from badsieve import bestapprox, lattice
from badsieve.bestapprox import (
    BestApproxSequence,
    BestApproxVector,
    _box,
    audit_growth,
    audit_minkowski,
    canonical_class,
    enumerate_best_approx,
    export_sequence_lines,
    sequence_fingerprint,
    vector_kind,
)
from badsieve.catalog import get_entry
from badsieve.errors import (
    ConfigError,
    DegenerateForm,
    PrecisionExhausted,
)
from badsieve.lattice import _reduce
from badsieve.rationals import (
    ThetaForm,
    ceil_isqrt,
    fingerprint,
    form_value,
    validate_precision,
)
from badsieve.verify import brute_best_approx

SQRT_PAIR = get_entry("sqrt2-sqrt3").theta
RATIONAL_PAIR = ThetaForm(Fraction(2, 5), Fraction(1, 3))

# zeta of the height-1 record (1,1) for the 51-digit sqrt pair:
# fractional part of theta1 + theta2
FIRST_ZETA_NUM = 146264369941972342329135065715570445512477129187328


def test_canonical_class():
    assert canonical_class(3, 2) == (3, 2)
    assert canonical_class(-3, -2) == (3, 2)
    assert canonical_class(3, -2) == (-3, 2)
    assert canonical_class(-5, 0) == (5, 0)
    assert canonical_class(5, 0) == (5, 0)
    with pytest.raises(ConfigError):
        canonical_class(0, 0)


def test_kind_tie_goes_to_type2():
    assert vector_kind(5, 2) == 1
    assert vector_kind(4, 2) == 2  # |m1| == m2^2
    assert vector_kind(-4, 2) == 2
    assert vector_kind(1, 0) == 1
    assert vector_kind(0, 1) == 2


def test_first_record_sqrt_pair():
    seq = enumerate_best_approx(SQRT_PAIR, 1)
    assert len(seq.vectors) == 1
    v = seq.vectors[0]
    assert (v.m1, v.m2) == (1, 1)
    assert v.height_sq == 1
    assert v.m0 == -1
    assert v.zeta == Fraction(FIRST_ZETA_NUM, 10**51)
    assert v.kind == 2
    # the export (and so the sequence fingerprint) keeps a stable field
    # order, one object per line
    assert export_sequence_lines(seq) == (
        f'{{"index":1,"m0":-1,"m1":1,"m2":1,"height_sq":1,'
        f'"zeta":"{v.zeta.numerator}/{v.zeta.denominator}","kind":2}}\n'
    )


def test_bound_zero_is_empty():
    seq = enumerate_best_approx(SQRT_PAIR, 0)
    assert seq.vectors == ()
    assert brute_best_approx(SQRT_PAIR, 0).vectors == ()


def test_negative_bound_is_config_error():
    # both sides refuse it, so they stay equal on exception type
    with pytest.raises(ConfigError):
        enumerate_best_approx(SQRT_PAIR, -5)
    with pytest.raises(ConfigError):
        brute_best_approx(SQRT_PAIR, -5)


def _naive_box(A1, A2, D, h, s):
    """Every canonical class with |m1| <= h, |m2| <= isqrt(h) and a
    representative z = A1*m1 + A2*m2 (mod D) with |z| <= s <= D // 2: only
    r and r - D can qualify, and both do when r = D/2 = s."""
    out = set()
    for m2 in range(isqrt(h) + 1):
        for m1 in range(-h if m2 else 1, h + 1):
            r = (A1 * m1 + A2 * m2) % D
            out.update((abs(z), m1, m2) for z in (r, r - D) if abs(z) <= s)
    return out


def _det3(b):
    (a, b_, c), (d, e, f), (g, h, i) = b
    return a * (e * i - f * h) - b_ * (d * i - f * g) + c * (d * h - e * g)


def _adj(b):
    """The columns of adj(b): the cross products of the other two rows."""
    return [
        [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
         p[0] * q[1] - p[1] * q[0]]
        for p, q in ((b[1], b[2]), (b[2], b[0]), (b[0], b[1]))
    ]


def _gram(b, w):
    return [[sum(x * y * c for x, y, c in zip(p, q, w)) for q in b] for p in b]


def _assert_reduced(b0, b, w):
    """b spans the lattice of b0 and is reduced as _reduce promises in the
    Gram matrix weighted by w: norms sorted, rows 0 and 1 Gauss-reduced, and
    row 2 size-reduced against them (its Cramer coordinates c/det in their
    plane are at most 1/2 in size)."""
    det = _det3(b0)
    assert abs(_det3(b)) == abs(det)
    # row = u * b0 with u = row * adj(b0) / det integral
    for row in b:
        assert all(sum(x * c for x, c in zip(row, col)) % det == 0 for col in _adj(b0))
    G = _gram(b, w)
    assert G[0][0] <= G[1][1] <= G[2][2]
    assert 2 * abs(G[0][1]) <= G[0][0]
    det = G[0][0] * G[1][1] - G[0][1] ** 2
    assert 2 * abs(G[1][1] * G[2][0] - G[0][1] * G[2][1]) <= det
    assert 2 * abs(G[0][0] * G[2][1] - G[0][1] * G[2][0]) <= det


def _random_bases(rng, count):
    """count random nonsingular 3x3 bases of 4-200 bits, each with column
    scales: (1, 1, 1) for about a quarter of them, else 1-100 bits each."""
    while count:
        bits = rng.randrange(4, 201)
        b0 = [[rng.randrange(-(2**bits), 2**bits + 1) for _ in range(3)]
              for _ in range(3)]
        if _det3(b0) == 0:
            continue
        scale = [1, 1, 1] if rng.random() < 0.25 else [
            rng.randrange(1, 2**rng.randrange(1, 101)) for _ in range(3)
        ]
        yield b0, scale
        count -= 1


def _enumerator_bases(rng, count):
    """The box query's inputs: rows [1, 0, A1], [0, 1, A2], [0, 0, D] and
    the column scales (g*s, h*s, h*g) of four growing heights, each query
    warm-started from the basis the previous one left (with weights scale^2,
    as _box reduces it)."""
    for _ in range(count):
        D = rng.randrange(2, 10 ** rng.randrange(2, 181))
        basis = [[1, 0, rng.randrange(D)], [0, 1, rng.randrange(D)], [0, 0, D]]
        h = 1
        for _ in range(4):
            h = rng.randrange(h, 4 * h + 2**rng.randrange(1, 113))
            g, s = isqrt(h), max(1, rng.randrange(D // 2 + 1))
            scale = (g * s, h * s, h * g)
            yield [row[:] for row in basis], scale
            _reduce(basis, tuple(c * c for c in scale))


def test_reduce_random_bases():
    for b0, scale in _random_bases(random.Random("reduce"), 300):
        w = tuple(c * c for c in scale)
        b = [row[:] for row in b0]
        _reduce(b, w)
        _assert_reduced(b0, b, w)


def test_reduce_enumerator_bases():
    for b0, scale in _enumerator_bases(random.Random("reduce-box"), 60):
        w = tuple(c * c for c in scale)
        b = [row[:] for row in b0]
        _reduce(b, w)
        _assert_reduced(b0, b, w)


def test_weighted_reduction_equals_scaled_reduction():
    # reducing the unscaled rows with weights scale^2 makes the moves of
    # reducing the column-scaled rows with unit weights, so it leaves the
    # same basis once the scaled result is unscaled
    rng = random.Random("reduce-weighted")
    bases = list(_random_bases(rng, 200)) + list(_enumerator_bases(rng, 50))
    for b0, scale in bases:
        weighted = [row[:] for row in b0]
        _reduce(weighted, tuple(c * c for c in scale))
        scaled = [[x * c for x, c in zip(row, scale)] for row in b0]
        _reduce(scaled, (1, 1, 1))
        assert weighted == [[x // c for x, c in zip(row, scale)] for row in scaled]


_row = st.lists(st.integers(-(2**80), 2**80), min_size=3, max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    b0=st.lists(_row, min_size=3, max_size=3).filter(lambda b: _det3(b) != 0),
    w=st.tuples(*[st.integers(1, 2**120)] * 3),
    t=st.integers(0, 300),
)
def test_reduction_ignores_a_common_power_of_two(b0, w, t):
    # every test of _reduce is homogeneous of degree 0 in G, so box_points
    # may divide the weights' common power of two out of them
    plain, shifted = [row[:] for row in b0], [row[:] for row in b0]
    _reduce(plain, w)
    _reduce(shifted, tuple(x << t for x in w))
    assert shifted == plain


# Bases whose rows tie in norm, and the basis _reduce leaves, pinned: the
# one place a sort by compare-and-swap could part from a stable sort. Unit
# weights with equal or permuted rows; the enumerator's rows [1, 0, A1],
# [0, 1, A2], [0, 0, D] and the scan's [1, a1, a2], [0, D, 0], [0, 0, D]
# with weights that make all three norms equal.
TIED_BASES = [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (1, 1, 1), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], (1, 1, 1), [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    ([[1, 2, 3], [3, 1, 2], [2, 3, 1]], (1, 1, 1), [[2, -1, -1], [1, 1, -2], [1, 2, 3]]),
    ([[2, 3, 1], [1, 2, 3], [3, 1, 2]], (1, 1, 1), [[-1, -1, 2], [1, -2, 1], [2, 3, 1]]),
    ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], (1, 1, 1), [[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
    ([[5, 0, 0], [3, 4, 0], [0, 0, 5]], (1, 1, 1), [[-2, 4, 0], [5, 0, 0], [0, 0, 5]]),
    ([[1, 0, 3], [0, 1, 4], [0, 0, 5]], (16, 9, 1), [[0, -1, 1], [-1, 0, 2], [0, 0, 5]]),
    ([[0, 1, 4], [1, 0, 3], [0, 0, 5]], (16, 9, 1), [[0, -1, 1], [1, 0, -2], [0, 0, 5]]),
    ([[1, 0, 7], [0, 1, 24], [0, 0, 25]], (576, 49, 1), [[0, -1, 1], [1, 0, 7], [0, 0, 25]]),
    ([[1, 2, 2], [0, 3, 0], [0, 0, 3]], (1, 1, 1), [[-1, 1, 1], [-1, 1, -2], [2, 1, 1]]),
]


@pytest.mark.parametrize("b0, w, reduced", TIED_BASES)
def test_reduce_tied_norms_pinned(b0, w, reduced):
    b = [row[:] for row in b0]
    _reduce(b, w)
    assert b == reduced


def test_reduce_small_entries_pinned():
    # 3000 nonsingular bases with entries in [-2, 2], where rows tie in norm
    # at most passes; the SHA-256 of their reduced bases is pinned
    rng = random.Random("reduce-ties")
    digest, count = hashlib.sha256(), 0
    while count < 3000:
        b = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if _det3(b) == 0:
            continue
        _reduce(b, rng.choice([(1, 1, 1), (1, 1, 4), (4, 1, 1), (1, 4, 4), (9, 4, 1)]))
        digest.update(repr(b).encode())
        count += 1
    assert digest.hexdigest() == (
        "d8eedf86cb373bb10d1722f6f39db085ab31564bc50d6bdc161c11c4bcb4ed9b"
    )


def _listing_sizes(monkeypatch, theta, H, limit, forced=False):
    """Enumerate to H and return, for each box query, the number of
    parallelepiped points lattice.box_points listed for it, as bestapprox
    calls it, and the number of reductions it made. A query over limit fails
    at once. forced reduces on every query (REDUCE_ABOVE = -1), as
    box_points did before it listed small warm bases as they were."""
    box_points, sizes, reductions = bestapprox.box_points, [], []
    reduce = lattice._reduce
    monkeypatch.setattr(lattice, "_reduce", lambda b, w: reductions.append(reduce(b, w)))
    if forced:
        monkeypatch.setattr(lattice, "REDUCE_ABOVE", -1)

    def listed(b, box):
        points, n = box_points(b, box)
        sizes.append(n)
        assert n <= limit, f"box query {box} lists {n} points"
        return points, n

    monkeypatch.setattr(bestapprox, "box_points", listed)
    enumerate_best_approx(theta, H)
    monkeypatch.undo()
    return sizes, len(reductions)


@pytest.mark.parametrize(
    "theta, H, reduced_limit",
    [(get_entry(name).theta, 2**32, 48) for name in ("sqrt2-sqrt3", "golden-pair", "liouville")]
    + [(sqrt_pair_truncated(120), 2**112, 36), (sqrt_pair_truncated(340), 2**448, 60)],
    ids=["sqrt2-sqrt3", "golden-pair", "liouville", "sqrt2-sqrt3@120", "sqrt2-sqrt3@340"],
)
def test_box_listing_stays_small(monkeypatch, theta, H, reduced_limit):
    # records stay exact whatever basis _box reduces to, so only the
    # listing's size shows a reduction in the wrong metric. A warm basis
    # that lists more than 64 points is reduced first; reduced on every
    # query, the listings were measured at reduced_limit points at most
    sizes, _ = _listing_sizes(monkeypatch, theta, H, limit=reduced_limit, forced=True)
    assert sizes
    sizes, reductions = _listing_sizes(monkeypatch, theta, H, limit=64)
    assert 0 < reductions < len(sizes)


@pytest.mark.parametrize(
    "theta, H, queries",
    [(get_entry("sqrt2-sqrt3").theta, 2**32, 29),
     (get_entry("golden-pair").theta, 2**32, 32),
     (get_entry("liouville").theta, 2**32, 34),
     (sqrt_pair_truncated(120), 2**112, 106)],
    ids=["sqrt2-sqrt3", "golden-pair", "liouville", "sqrt2-sqrt3@120"],
)
def test_box_query_count(monkeypatch, theta, H, queries):
    # the work counter of enumeration: one box query per gallop step. A box
    # yields every record it holds, so sqrt2-sqrt3 to 2^32 makes fewer
    # queries than it has records; taking one record per box would not
    box, calls = bestapprox._box, []

    def counted(basis, h, s):
        calls.append(h)
        return box(basis, h, s)

    monkeypatch.setattr(bestapprox, "_box", counted)
    seq = enumerate_best_approx(theta, H)
    assert len(calls) <= queries
    if H == 2**32 and theta == SQRT_PAIR:
        assert len(calls) < len(seq.vectors) == 42


@pytest.mark.parametrize(
    "name, queries, listed",
    [("sqrt2-sqrt3", 29, 254), ("golden-pair", 32, 284), ("liouville", 34, 144)],
)
def test_box_work_pinned(monkeypatch, name, queries, listed):
    # the records stay exact under any reduction, but another sequence of
    # moves changes how many points the queries list, and so may the gallop's
    # query count: both are pinned exactly, with a reduction on every query
    theta = get_entry(name).theta
    sizes, reductions = _listing_sizes(monkeypatch, theta, 2**32, limit=64, forced=True)
    assert (len(sizes), sum(sizes), reductions) == (queries, listed, queries)


@pytest.mark.parametrize(
    "name, queries, listed, reductions",
    [("sqrt2-sqrt3", 29, 586, 11), ("golden-pair", 32, 576, 11), ("liouville", 34, 378, 6)],
)
def test_box_work_pinned_at_the_reduction_cap(monkeypatch, name, queries, listed, reductions):
    # reducing only the warm bases that would list more than 64 points
    # lists more points in all and makes a third of the reductions or fewer
    theta = get_entry(name).theta
    sizes, made = _listing_sizes(monkeypatch, theta, 2**32, limit=64)
    assert (len(sizes), sum(sizes), made) == (queries, listed, reductions)


_theta_coord = st.integers(2, 10**4).flatmap(
    lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q))
)


@settings(max_examples=50, deadline=None)
@example(t1=Fraction(1, 2), t2=Fraction(1, 3), queries=[(200, "half", 0)])
@example(t1=Fraction(3, 10), t2=Fraction(7, 8), queries=[(1, "half", 0), (400, "half", 0)])
@given(
    t1=_theta_coord,
    t2=_theta_coord,
    queries=st.lists(
        st.tuples(
            st.integers(1, 400),
            st.sampled_from(["zero", "one", "random", "half"]),
            st.integers(0, 10**8),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_box_matches_naive_listing(t1, t2, queries):
    # several queries chained on one warm basis, as the gallop makes them;
    # with D even, s = D // 2 reaches the class listed at both z = +-D/2
    D = lcm(t1.denominator, t2.denominator)
    A1 = t1.numerator * (D // t1.denominator)
    A2 = t2.numerator * (D // t2.denominator)
    basis = [[1, 0, A1], [0, 1, A2], [0, 0, D]]
    for h, kind, r in queries:
        s = {"zero": 0, "one": 1, "random": r % (D // 2 + 1), "half": D // 2}[kind]
        assert _box(basis, h, s) == _naive_box(A1, A2, D, h, s)
        assert all((z - A1 * m1 - A2 * m2) % D == 0 for m1, m2, z in basis)
        assert abs(_det3(basis)) == D


@pytest.mark.parametrize("name", ["sqrt2-sqrt3", "golden-pair", "liouville"])
def test_matches_oracle_catalog(name):
    theta = get_entry(name).theta
    fast = enumerate_best_approx(theta, 400)
    slow = brute_best_approx(theta, 400)
    assert fast.vectors == slow.vectors
    fast.validate()


def test_oracle_prefix_stability():
    small = brute_best_approx(SQRT_PAIR, 900)
    large = brute_best_approx(SQRT_PAIR, 3600)
    assert large.vectors[: len(small.vectors)] == small.vectors
    assert all(v.height_sq <= 900 for v in small.vectors)


def test_degenerate_rational_pair_both_ways():
    # 5 * (2/5) is an exact integer, so height 5 kills the run
    for bound in (1, 4):
        fast = enumerate_best_approx(RATIONAL_PAIR, bound)
        slow = brute_best_approx(RATIONAL_PAIR, bound)
        assert fast.vectors == slow.vectors
        assert [(v.m1, v.m2) for v in fast.vectors] == [(-1, 1)]
    with pytest.raises(DegenerateForm):
        enumerate_best_approx(RATIONAL_PAIR, 5)
    with pytest.raises(DegenerateForm):
        brute_best_approx(RATIONAL_PAIR, 5)


def test_tied_record_past_the_digit_limit_is_degenerate(default_digit_limit):
    # x = 1/5 + 10^-4400: (1, 0) and (1, 1) tie at height 1 with zeta = x,
    # which the message shows by its leading digits and digit counts
    S = 10**4400
    x = Fraction(S // 5 + 1, S)
    theta = ThetaForm(x, 1 - 2 * x)
    for enumerate_records in (enumerate_best_approx, brute_best_approx):
        with pytest.raises(DegenerateForm, match="^tied record at height_sq=") as exc:
            enumerate_records(theta, 4)
        assert len(str(exc.value)) < 1000
        assert "...(4400 digits)" in str(exc.value)


@settings(max_examples=40, deadline=None)
@given(
    p1=st.integers(1, 10**9),
    p2=st.integers(1, 10**9),
    bound=st.integers(1, 60),
)
def test_matches_oracle_random_theta(p1, p2, bound):
    q = 2_000_000_011  # prime, so both coordinates are in lowest terms
    theta = ThetaForm(Fraction(p1, q), Fraction(p2, q))
    try:
        fast = enumerate_best_approx(theta, bound)
    except DegenerateForm:
        with pytest.raises(DegenerateForm):
            brute_best_approx(theta, bound)
        return
    slow = brute_best_approx(theta, bound)
    assert fast.vectors == slow.vectors


_SMALL_DENOMINATORS = sorted(
    {Fraction(p, q) for q in range(2, 13) for p in range(1, q)}
)


@settings(max_examples=300, deadline=None)
@example(t1=Fraction(1, 2), t2=Fraction(1, 3), bound=200)
@example(t1=Fraction(5, 11), t2=Fraction(3, 10), bound=200)
@example(t1=Fraction(33, 37), t2=Fraction(23, 33), bound=200)
@example(t1=Fraction(15, 22), t2=Fraction(4, 33), bound=200)
@given(
    t1=st.sampled_from(_SMALL_DENOMINATORS),
    t2=st.sampled_from(_SMALL_DENOMINATORS),
    bound=st.integers(1, 200),
)
def test_matches_oracle_small_denominators(t1, t2, bound):
    # exact zeros, half-integer values and tied classes all occur here; both
    # sides must agree on the records or both raise DegenerateForm. The
    # example (1/2, 1/3) has both in its first box: the class (1, 0) at
    # z = +D/2 and z = -D/2, and the true tie of (1, 1) and (-1, 1) at 1/6.
    # In the next three one box holds several records and a later level of
    # the same box fails: (5/11, 3/10) box h=9 records at heights 4, 5, then
    # a tie at 9; (33/37, 23/33) box h=27 three records, then a tie at 25;
    # (15/22, 4/33) box h=9 records at 4, 7, then an exact zero at 9
    theta = ThetaForm(t1, t2)
    try:
        slow = brute_best_approx(theta, bound)
    except DegenerateForm:
        with pytest.raises(DegenerateForm):
            enumerate_best_approx(theta, bound)
        return
    assert enumerate_best_approx(theta, bound).vectors == slow.vectors


def test_precision_guard_fires_before_degenerate_record():
    # past its truncation's reach the 51-digit pair meets an exact zero of
    # the truncated form at height_sq ~ 2^109, below the bound 2^112; the
    # record's own precision check must stop the run there, not the zero
    with pytest.raises(PrecisionExhausted):
        enumerate_best_approx(SQRT_PAIR, 2**112)


@pytest.mark.parametrize(
    "theta, H, digits, need",
    [(SQRT_PAIR, 2**112, 51, 86), (sqrt_pair_truncated(300), 2**448, 300, 339)],
    ids=["51-digits@2^112", "300-digits@2^448"],
)
def test_precision_error_names_digits_for_bound(theta, H, digits, need):
    # the guard fails at some record's height, but the error names the
    # digits the requested bound needs: the least N with
    # 10^N > 10*(H + ceil(sqrt H))*H^(3/2) (86 at 2^112, 339 at 2^448)
    with pytest.raises(PrecisionExhausted) as exc:
        enumerate_best_approx(theta, H)
    assert f"height_sq_max={H} needs at least {need} decimal digits" in str(exc.value)
    assert f"the declared error gives {digits}" in str(exc.value)
    assert exc.value.extra_digits == need - digits


def test_precision_error_full_text_pinned():
    # construct's exit-4 stderr on the catalog pair past its reach, byte for byte
    with pytest.raises(PrecisionExhausted) as exc:
        enumerate_best_approx(SQRT_PAIR, 2**112)
    assert str(exc.value) == (
        "declared truncation error 1/1" + "0" * 51 + " of theta is too coarse: the guard "
        "fails at height_sq=75648502983041055369, "
        "zeta=65268149316394241287/25" + "0" * 49 + "; "
        "height_sq_max=5192296858534827628530496329220096 needs at least 86 decimal "
        "digits of theta, the declared error gives 51: roughly 35 more"
    )
    assert exc.value.extra_digits == 35


def test_audits_clean_on_real_sequences():
    for name in ("sqrt2-sqrt3", "golden-pair", "liouville"):
        seq = enumerate_best_approx(get_entry(name).theta, 2000)
        assert audit_minkowski(seq) == []
        assert audit_growth(seq) == []


def _fake_seq(vectors):
    return BestApproxSequence(theta=SQRT_PAIR, height_sq_max=100, vectors=tuple(vectors))


def test_audit_minkowski_flags_violation():
    a = BestApproxVector(1, 0, 1, 0, 1, Fraction(1, 2), 1)
    b = BestApproxVector(2, 0, 2, 0, 2, Fraction(1, 3), 1)
    # (1/2)^2 * 2^3 = 2 > 1
    assert audit_minkowski(_fake_seq([a, b])) == [(1, 2)]


def test_audit_growth_flags_violation():
    a = BestApproxVector(1, 0, 1, 0, 1, Fraction(1, 2), 1)
    b = BestApproxVector(2, 0, 3, 0, 3, Fraction(1, 3), 1)
    out = audit_growth(_fake_seq([a, b]), step=1)
    assert ("global", 1, 2) in out
    assert ("type1", 1, 2) in out


# --- integer record path and export ------------------------------------------

_DESK_AND_DEEP = pytest.mark.parametrize(
    "theta, H",
    [(get_entry(name).theta, 2**32) for name in ("sqrt2-sqrt3", "golden-pair", "liouville")]
    + [(sqrt_pair_truncated(120), 2**112)],
    ids=["sqrt2-sqrt3", "golden-pair", "liouville", "sqrt2-sqrt3@120"],
)


def _json_lines(seq):
    """export_sequence_lines by one json.dumps per record."""
    return "".join(
        json.dumps(
            {
                "index": v.index,
                "m0": v.m0,
                "m1": v.m1,
                "m2": v.m2,
                "height_sq": v.height_sq,
                "zeta": f"{v.zeta.numerator}/{v.zeta.denominator}",
                "kind": v.kind,
            },
            separators=(",", ":"),
        )
        + "\n"
        for v in seq.vectors
    )


@_DESK_AND_DEEP
def test_export_matches_json_dumps(theta, H):
    seq = enumerate_best_approx(theta, H)
    assert export_sequence_lines(seq) == _json_lines(seq)


def test_export_negative_m0_and_m1_matches_json_dumps():
    seq = _fake_seq([
        BestApproxVector(1, -3, -7, 2, 7, Fraction(1, 5), 1),
        BestApproxVector(2, 4, -12, 5, 25, Fraction(1, 9), 2),
    ])
    out = export_sequence_lines(seq)
    assert '"m0":-3,"m1":-7,' in out
    assert out == _json_lines(seq)


def test_fingerprint_is_cached_per_sequence(monkeypatch):
    seq = enumerate_best_approx(SQRT_PAIR, 8**6)
    want = fingerprint(f"height_sq_max={8**6}\n" + export_sequence_lines(seq))
    exports = []
    monkeypatch.setattr(
        bestapprox, "export_sequence_lines",
        lambda s: exports.append(s) or export_sequence_lines(s),
    )
    assert seq.fingerprint == want
    assert sequence_fingerprint(seq) == want
    assert exports == [seq]
    # a copy with other vectors is a new sequence with its own fingerprint
    short = dataclasses.replace(seq, vectors=seq.vectors[:-1])
    assert sequence_fingerprint(short) == fingerprint(
        f"height_sq_max={8**6}\n" + export_sequence_lines(short)
    ) != want
    assert exports == [seq, short]


@_DESK_AND_DEEP
def test_records_match_form_value(theta, H):
    for v in enumerate_best_approx(theta, H).vectors:
        assert (v.zeta, v.m0) == form_value(theta, v.m1, v.m2)


# an odd numerator over an even denominator: the reduced denominator is even
_even_coord = st.integers(1, 500).flatmap(
    lambda k: st.builds(Fraction, st.integers(0, k - 1).map(lambda a: 2 * a + 1), st.just(2 * k))
)


@settings(max_examples=300, deadline=None)
@example(t1=Fraction(1, 2), t2=Fraction(1, 3), m1=-1, m2=0, tie=True)
@example(t1=Fraction(1, 2), t2=Fraction(1, 3), m1=0, m2=-1, tie=True)
@example(t1=Fraction(5, 6), t2=Fraction(1, 3), m1=-1, m2=1, tie=False)
@given(
    t1=_even_coord,
    t2=_theta_coord,
    m1=st.integers(-(10**6), 10**6),
    m2=st.integers(-1000, 1000),
    tie=st.booleans(),
)
def test_nearest_matches_form_value(t1, t2, m1, m2, tie):
    # with tie, m1 is an odd multiple of half t1's denominator and m2 a
    # multiple of t2's, so the form is a half-integer of either sign
    if tie:
        m1 = t1.denominator // 2 * (2 * m1 + 1)
        m2 = t2.denominator * m2
    theta = ThetaForm(t1, t2)
    D = lcm(t1.denominator, t2.denominator)
    n = t1.numerator * (D // t1.denominator) * m1 + t2.numerator * (D // t2.denominator) * m2
    zd, m0 = bestapprox._nearest(n, D)
    assert (Fraction(zd, D), m0) == form_value(theta, m1, m2)
    if tie:
        assert 2 * zd == D


@settings(max_examples=150, deadline=None)
@given(t1=_even_coord, t2=_theta_coord, bound=st.integers(1, 400))
def test_records_match_form_value_even_denominator(t1, t2, bound):
    theta = ThetaForm(t1, t2)
    try:
        seq = enumerate_best_approx(theta, bound)
    except DegenerateForm:
        return
    for v in seq.vectors:
        assert (v.zeta, v.m0) == form_value(theta, v.m1, v.m2)


@_DESK_AND_DEEP
def test_precision_guard_boundary_is_strict(theta, H):
    # at a record (h, zeta) the guard needs zeta > 10*err*(h + ceil_isqrt(h)):
    # the error that makes it equal fails there, not at a later record or at
    # the bound, and one step below passes
    records = enumerate_best_approx(theta, H).vectors
    for v in (records[0], records[len(records) // 2], records[-1]):
        h, zeta = v.height_sq, v.zeta
        scale = 10 * (h + ceil_isqrt(h))
        at = dataclasses.replace(theta, declared_error=zeta / scale)
        with pytest.raises(PrecisionExhausted) as exc:
            enumerate_best_approx(at, H)
        assert f"the guard fails at height_sq={h}, zeta={zeta};" in str(exc.value)
        with pytest.raises(PrecisionExhausted) as ref:
            validate_precision(at, h, zeta, H)
        assert str(exc.value) == str(ref.value)
        assert exc.value.extra_digits == ref.value.extra_digits
        below = Fraction(zeta.numerator, scale * zeta.denominator + 1)
        seq = enumerate_best_approx(dataclasses.replace(theta, declared_error=below), h)
        assert seq.vectors == records[: v.index]
