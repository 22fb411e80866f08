import random

import pytest
from fractions import Fraction
from math import isqrt, lcm

from hypothesis import example, given, settings, strategies as st

from conftest import sqrt_pair_truncated

from badsieve import bestapprox
from badsieve.bestapprox import (
    BestApproxSequence,
    BestApproxVector,
    _box,
    _cross,
    _reduce,
    audit_growth,
    audit_minkowski,
    canonical_class,
    enumerate_best_approx,
    export_sequence_lines,
    vector_kind,
)
from badsieve.catalog import get_entry
from badsieve.errors import (
    ConfigError,
    DegenerateForm,
    PrecisionExhausted,
)
from badsieve.rationals import ThetaForm
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


def _gram(b):
    return [[sum(x * y for x, y in zip(p, q)) for q in b] for p in b]


def _assert_reduced(b0, b):
    """b spans the lattice of b0 and is reduced as _reduce promises: norms
    sorted, rows 0 and 1 Gauss-reduced, and row 2 size-reduced against them
    (its Cramer coordinates c/det in their plane are at most 1/2 in size)."""
    det = _det3(b0)
    assert abs(_det3(b)) == abs(det)
    # row = u * b0 with u = row * adj(b0) / det integral; the columns of
    # adj(b0) are the cross products of b0's rows
    adj = [
        [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
         p[0] * q[1] - p[1] * q[0]]
        for p, q in ((b0[1], b0[2]), (b0[2], b0[0]), (b0[0], b0[1]))
    ]
    for row in b:
        assert all(sum(x * c for x, c in zip(row, col)) % det == 0 for col in adj)
    G = _gram(b)
    assert G[0][0] <= G[1][1] <= G[2][2]
    assert 2 * abs(G[0][1]) <= G[0][0]
    det = G[0][0] * G[1][1] - G[0][1] ** 2
    assert 2 * abs(G[1][1] * G[2][0] - G[0][1] * G[2][1]) <= det
    assert 2 * abs(G[0][0] * G[2][1] - G[0][1] * G[2][0]) <= det


def test_reduce_random_bases():
    rng = random.Random("reduce")
    cases = 0
    while cases < 300:
        bits = rng.randrange(4, 201)
        b0 = [[rng.randrange(-(2**bits), 2**bits + 1) for _ in range(3)]
              for _ in range(3)]
        if _det3(b0) == 0:
            continue
        b = [row[:] for row in b0]
        _reduce(b)
        _assert_reduced(b0, b)
        cases += 1


def test_reduce_enumerator_bases():
    # the box query's input: rows [1, 0, A1], [0, 1, A2], [0, 0, D] with
    # columns scaled by (g*s, h*s, h*g), reduced, unscaled and rescaled at a
    # larger height as the gallop does
    rng = random.Random("reduce-box")
    for _ in range(60):
        D = rng.randrange(2, 10 ** rng.randrange(2, 181))
        basis = [[1, 0, rng.randrange(D)], [0, 1, rng.randrange(D)], [0, 0, D]]
        h = 1
        for _ in range(4):
            h = rng.randrange(h, 4 * h + 2**rng.randrange(1, 113))
            g, s = isqrt(h), max(1, rng.randrange(D // 2 + 1))
            scale = (g * s, h * s, h * g)
            b0 = [[x * c for x, c in zip(row, scale)] for row in basis]
            b = [row[:] for row in b0]
            _reduce(b)
            _assert_reduced(b0, b)
            basis = [[x // c for x, c in zip(row, scale)] for row in b]


def _listing_sizes(monkeypatch, theta, H, limit):
    """Enumerate to H and return, for each box query, the number of points
    its dual-bound parallelepiped lists (one of each +-u, u != 0), recomputed
    from the basis the query's reduction leaves as _box computes the bounds.
    A query over limit fails at once, before _box lists it."""
    box, reduce = bestapprox._box, bestapprox._reduce
    sizes, query = [], []

    def boxed(basis, h, s):
        query[:] = [[row[:] for row in basis], h, s]
        return box(basis, h, s)

    def reduced(b):
        basis, h, s = query
        # _box scales each column of basis by one factor: recover it, so
        # the reduced basis can be unscaled as _box unscales it
        scale = [next(x // y for x, y in zip(cb, cq) if y)
                 for cb, cq in zip(zip(*b), zip(*basis))]
        reduce(b)
        b0, b1, b2 = [[x // c for x, c in zip(row, scale)] for row in b]
        adj = [_cross(b1, b2), _cross(b2, b0), _cross(b0, b1)]
        det = abs(sum(x * y for x, y in zip(b0, adj[0])))
        U = [sum(abs(c) * w for c, w in zip(col, (h, isqrt(h), s))) // det for col in adj]
        sizes.append(((2 * U[0] + 1) * (2 * U[1] + 1) * (2 * U[2] + 1) - 1) // 2)
        assert sizes[-1] <= limit, f"box query h={h}, s={s} lists {sizes[-1]} points"

    monkeypatch.setattr(bestapprox, "_box", boxed)
    monkeypatch.setattr(bestapprox, "_reduce", reduced)
    enumerate_best_approx(theta, H)
    return sizes


@pytest.mark.parametrize(
    "theta, H",
    [(get_entry(name).theta, 2**32) for name in ("sqrt2-sqrt3", "golden-pair", "liouville")]
    + [(sqrt_pair_truncated(120), 2**112)],
    ids=["sqrt2-sqrt3", "golden-pair", "liouville", "sqrt2-sqrt3@120"],
)
def test_box_listing_stays_small(monkeypatch, theta, H):
    # records stay exact whatever basis _box reduces to, so only the
    # listing's size shows a reduction in the wrong metric; at most 37
    # points per query were measured on these pairs
    assert _listing_sizes(monkeypatch, theta, H, limit=64)


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
@given(
    t1=st.sampled_from(_SMALL_DENOMINATORS),
    t2=st.sampled_from(_SMALL_DENOMINATORS),
    bound=st.integers(1, 200),
)
def test_matches_oracle_small_denominators(t1, t2, bound):
    # exact zeros, half-integer values and tied classes all occur here; both
    # sides must agree on the records or both raise DegenerateForm. The
    # example (1/2, 1/3) has both in its first box: the class (1, 0) at
    # z = +D/2 and z = -D/2, and the true tie of (1, 1) and (-1, 1) at 1/6
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
