import random
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from badsieve.catalog import catalog_names, get_entry
from badsieve.errors import ConfigError, PrecisionExhausted
from badsieve.rationals import (
    ThetaForm,
    brief_rational,
    ceil_isqrt,
    decimal_digits,
    dist_to_nearest_int,
    fingerprint,
    form_value,
    format_rational,
    icbrt,
    over_common_denominator,
    parse_rational,
    theta_fingerprint,
    validate_precision,
    weighted_height_sq,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=10**6
)


def test_parse_forms():
    assert parse_rational("3/10") == Q(3, 10)
    assert parse_rational("0.25") == Q(1, 4)
    assert parse_rational("-7") == Q(-7)
    assert parse_rational(" 2/4 ") == Q(1, 2)
    with pytest.raises(ConfigError):
        parse_rational("1/0")
    with pytest.raises(ConfigError):
        parse_rational("abc")


def test_parse_rejects_exponent_notation():
    # a short exponent string would build an integer of any size
    for text in ("1e-5", "1E5", "0.5e1"):
        with pytest.raises(ConfigError):
            parse_rational(text)


def test_format_canonical():
    assert format_rational(Q(2, 4)) == "1/2"
    assert format_rational(Q(-3)) == "-3/1"
    assert parse_rational(format_rational(Q(22, 7))) == Q(22, 7)


@settings(max_examples=300)
@given(xs=st.lists(rationals, min_size=1, max_size=4))
@example(xs=[Q(-3, 4), Q(5), Q(1, 6)])  # negative, integer-valued, shared factor
@example(xs=[Q(2, 7), Q(-5, 7), Q(0)])  # one shared denominator, and zero
@example(xs=[Q(-9)])
def test_over_common_denominator_scales_by_the_lcm(xs):
    D, scaled = over_common_denominator(*xs)
    assert D == lcm(*(x.denominator for x in xs))
    assert len(scaled) == len(xs)
    for x, n in zip(xs, scaled):
        assert type(n) is int and n == x * D


def test_dist_examples():
    assert dist_to_nearest_int(Q(3, 10)) == Q(3, 10)
    assert dist_to_nearest_int(Q(3, 4)) == Q(1, 4)
    assert dist_to_nearest_int(Q(-6, 5)) == Q(1, 5)
    assert dist_to_nearest_int(Q(7)) == 0
    assert dist_to_nearest_int(Q(1, 2)) == Q(1, 2)


@settings(max_examples=200)
@given(x=rationals)
def test_dist_period_and_symmetry(x):
    d = dist_to_nearest_int(x)
    assert 0 <= d <= Q(1, 2)
    assert dist_to_nearest_int(x + 1) == d
    assert dist_to_nearest_int(-x) == d


@settings(max_examples=200)
@given(x=rationals, n=st.integers(min_value=-50, max_value=50))
def test_dist_is_min_over_integers(x, n):
    assert dist_to_nearest_int(x) <= abs(x - n)


def test_weighted_height_sq():
    assert weighted_height_sq(5, 2) == 5
    assert weighted_height_sq(3, -3) == 9
    assert weighted_height_sq(0, 1) == 1
    assert weighted_height_sq(-7, 0) == 7


def test_ceil_isqrt():
    assert ceil_isqrt(0) == 0
    assert ceil_isqrt(1) == 1
    assert ceil_isqrt(2) == 2
    assert ceil_isqrt(4) == 2
    assert ceil_isqrt(10**6) == 1000
    assert ceil_isqrt(10**6 + 1) == 1001


def test_theta_form_validation():
    ThetaForm(Q(2, 5), Q(1, 3))
    with pytest.raises(ConfigError):
        ThetaForm(Q(0), Q(1, 3))
    with pytest.raises(ConfigError):
        ThetaForm(Q(2, 5), Q(7, 3))
    with pytest.raises(ConfigError):
        ThetaForm(Q(2, 5), Q(1, 3), declared_error=Q(1, 2))


def test_form_value_examples():
    th = ThetaForm(Q(2, 5), Q(1, 3))
    assert form_value(th, 1, 1) == (Q(4, 15), -1)
    assert form_value(th, 5, 3) == (Q(0), -3)
    assert form_value(th, 0, 2) == (Q(1, 3), -1)


@settings(max_examples=200)
@given(
    t1=st.fractions(min_value="1/100", max_value="99/100", max_denominator=997),
    t2=st.fractions(min_value="1/100", max_value="99/100", max_denominator=997),
    m1=st.integers(min_value=-500, max_value=500),
    m2=st.integers(min_value=-500, max_value=500),
)
def test_form_value_realizes_distance(t1, t2, m1, m2):
    th = ThetaForm(t1, t2)
    zeta, m0 = form_value(th, m1, m2)
    v = t1 * m1 + t2 * m2
    assert abs(m0 + v) == zeta
    assert zeta == dist_to_nearest_int(v)


def test_validate_precision_exact_theta_always_ok():
    th = ThetaForm(Q(2, 5), Q(1, 3), declared_error=Q(0))
    validate_precision(th, 10**12, Q(1, 10**30))


def test_validate_precision_guard_arithmetic():
    th = ThetaForm(Q(1, 3), Q(1, 7), declared_error=Q(1, 10**4))
    # guard = 10 * (10^6 + 1000) * 1e-4 = 1001 > 1e-3 -> exhausted
    with pytest.raises(PrecisionExhausted) as exc:
        validate_precision(th, 10**6, Q(1, 10**3))
    assert exc.value.extra_digits is not None and exc.value.extra_digits >= 1


def test_validate_precision_zero_zeta_fails():
    # an exact zero of the truncated form: err misses it by no finite ratio
    th = ThetaForm(Q(1, 3), Q(1, 7), declared_error=Q(1, 10**9))
    with pytest.raises(PrecisionExhausted) as exc:
        validate_precision(th, 3, Q(0), 100)
    assert str(exc.value).endswith(
        "height_sq=3, zeta=0; height_sq_max=100 needs at least 7 decimal digits "
        "of theta, the declared error gives 9: roughly 1 more"
    )
    assert exc.value.extra_digits == 1


def test_validate_precision_passes_with_margin():
    th = ThetaForm(Q(1, 3), Q(1, 7), declared_error=Q(1, 10**30))
    validate_precision(th, 10**6, Q(1, 10**3))


def test_fingerprint_stability_and_sensitivity():
    a = ThetaForm(Q(2, 5), Q(1, 3))
    b = ThetaForm(Q(2, 5), Q(1, 3))
    c = ThetaForm(Q(2, 5), Q(1, 3), declared_error=Q(1, 10**6))
    assert theta_fingerprint(a) == theta_fingerprint(b)
    assert theta_fingerprint(a) != theta_fingerprint(c)


# theta fingerprints of the catalog pairs, as every journal and certificate
# written for them holds
CATALOG_THETA_FINGERPRINTS = {
    "sqrt2-sqrt3": "sha256:b0fa2074e88de61ca2ab4ea13507307f",
    "golden-pair": "sha256:55fc6e4ba2d063912317d383dcf1efda",
    "liouville": "sha256:3fb57271a65577cd861584c574bcd4e5",
}


def test_catalog_theta_fingerprints_pinned():
    got = {name: theta_fingerprint(get_entry(name).theta) for name in catalog_names()}
    assert got == CATALOG_THETA_FINGERPRINTS


open_unit = st.fractions(min_value=0, max_value=1, max_denominator=10**30).filter(
    lambda t: 0 < t < 1
)


@given(open_unit, open_unit, st.integers(0, 40))
def test_theta_fingerprint_is_the_hash_of_its_canonical_text(t1, t2, digits):
    theta = ThetaForm(t1, t2, Q(1, 10**digits) if digits else Q(0))
    text = "|".join(format_rational(x) for x in (t1, t2, theta.declared_error))
    assert theta.fingerprint == theta_fingerprint(theta) == fingerprint(text)


def test_cached_theta_fingerprint_keeps_equality_and_hash():
    filled = ThetaForm(Q(2, 5), Q(1, 3), Q(1, 10**6))
    empty = ThetaForm(Q(2, 5), Q(1, 3), Q(1, 10**6))
    fp = filled.fingerprint
    assert "fingerprint" in vars(filled) and "fingerprint" not in vars(empty)
    assert filled == empty and hash(filled) == hash(empty)
    assert {filled: 1}[empty] == 1
    assert empty.fingerprint == fp


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10**2000))
def test_decimal_digits_matches_str(n):
    for m in (n, 10 ** decimal_digits(n), 10 ** decimal_digits(n) - 1):
        assert decimal_digits(m) == len(str(m))


def test_brief_rational_full_up_to_1000_characters():
    at = Q(-(10**499 + 1), 10**497 + 3)  # "-", 500 digits, "/", 498 digits
    assert len(str(at)) == 1000 and brief_rational(at) == str(at)
    past = Q(-(10**499 + 1), 10**498 + 3)
    assert brief_rational(past) == (
        "-10000000000000000000...(500 digits)/10000000000000000000...(499 digits)"
    )
    assert brief_rational(Q(7590)) == "7590"
    over = Q(10**999 + 1)  # 1000 digits, still in full; one more digit is not
    assert brief_rational(over) == str(over)
    assert brief_rational(Q(10**1000)) == "10000000000000000000...(1001 digits)"
    x = Q(-(2 * 10**700 + 3), 7 * 10**400 - 1)
    assert brief_rational(x) == (
        "-20000000000000000000...(701 digits)/69999999999999999999...(401 digits)"
    )
    # either side of the 3,300-bit shortcut: in full iff at most 1,000 characters
    rng = random.Random(3300)
    for _ in range(2000):
        x = Q(-rng.getrandbits(rng.randrange(1600, 1700)), rng.getrandbits(1650) | 1)
        assert (brief_rational(x) == str(x)) == (len(str(x)) <= 1000), x


def test_icbrt_small_exhaustive():
    r = 0
    for n in range(10**5):
        while (r + 1) ** 3 <= n:
            r += 1
        got = icbrt(n)
        assert type(got) is int
        assert got == r, n


def test_icbrt_around_cubes_to_2_1000():
    # far past 2**1024, where a float seed would overflow
    ks = {2**e + d for e in range(1001) for d in (-1, 0, 1)} | {3**e for e in range(631)}
    for k in sorted(ks - {0}):
        for n, want in ((k**3 - 1, k - 1), (k**3, k), (k**3 + 1, k)):
            got = icbrt(n)
            assert type(got) is int
            assert got == want, k


def test_icbrt_past_512_bits():
    # from 512 bits the start is the root of n's leading half, recursively
    rng = random.Random(26)
    ns = [rng.getrandbits(rng.randrange(500, 6000)) for _ in range(2000)]
    for r in (rng.getrandbits(b) | 1 << (b - 1) for b in range(160, 2000, 7)):
        ns += [r**3 - 1, r**3, r**3 + 1]
    for n in ns:
        r = icbrt(n)
        assert type(r) is int
        assert r**3 <= n < (r + 1) ** 3, n


def test_icbrt_rejects_negative():
    with pytest.raises(ValueError):
        icbrt(-1)
