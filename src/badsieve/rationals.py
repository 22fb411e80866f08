"""Exact rational numerics: parsing, distance to the nearest integer, the
weighted height, integer square and cube roots, form values, and the
truncation-precision guard.

Everything here is exact. No floats enter or leave any public function,
and Fraction is the single rational type that public functions take and
return; inside a computation a caller may scale to integers over a common
denominator (over_common_denominator). Decimal strings ("0.25") parse
exactly, "p/q" strings parse exactly, and formatting always emits canonical
"p/q" with q > 0 and gcd(p, q) = 1 (Fraction maintains that invariant).
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm

from .errors import ConfigError, PrecisionExhausted


def any_digits(convert, *args):
    """convert(*args), a conversion between int and decimal text, for any
    number of digits. Python 3.10.7+ refuses one past 4300 digits by default
    with a ValueError; only then is that limit lifted, for this one call."""
    try:
        return convert(*args)
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            raise
        sys.set_int_max_str_digits(0)
        try:
            return convert(*args)
        finally:
            sys.set_int_max_str_digits(limit)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', an integer string, or a decimal string, exactly.

    Raises ConfigError on anything Fraction cannot represent exactly, and on
    exponent notation ('1e-5'), in which a short string builds an integer
    of any size at a cost that grows with it.
    """
    if "e" in text.lower():
        raise ConfigError(f"exponent notation is not accepted: {text!r}")
    try:
        return any_digits(Fraction, text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not an exact rational: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Canonical 'p/q' form, denominator always explicit."""
    try:  # inline, not through any_digits: the writers call this per value
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        return any_digits(str, x.numerator) + "/" + any_digits(str, x.denominator)


def decimal_digits(n: int) -> int:
    """Number of decimal digits of n >= 0, counted in integers: the least
    k >= 1 with n < 10^k. Starts from a lower bound taken from the bit
    length, since log10(2) > 0.30102."""
    k = max(1, (n.bit_length() - 1) * 30102 // 100000 + 1)
    while n >= 10**k:
        k += 1
    return k


def brief_rational(x: Fraction | int) -> str:
    """str(x), x a Fraction or an int, while that text has at most 1,000
    characters, for error messages. Above that, numerator and denominator each
    show their leading 20 digits and their digit count, as in
    '70710678118654752440...(4400 digits)/10000000000000000000...(4401 digits)'."""
    if x.numerator.bit_length() + x.denominator.bit_length() < 3300:
        return str(x)  # at most 4 + 3300*log10(2) < 1,000 characters
    sign = "-" if x < 0 else ""
    parts = [abs(x.numerator)] + ([x.denominator] if x.denominator != 1 else [])
    counts = [decimal_digits(n) for n in parts]
    if len(sign) + sum(counts) + len(parts) - 1 <= 1000:
        return str(x)
    return sign + "/".join(
        f"{n // 10 ** (k - 20)}...({k} digits)" if k > 20 else str(n)
        for n, k in zip(parts, counts)
    )


def brief_repr(value) -> str:
    """value for an error message: an int or a Fraction through
    brief_rational, any other value as its repr, cut to 1,000 characters."""
    if isinstance(value, (int, Fraction)):
        return brief_rational(value)
    text = repr(value)
    return text if len(text) <= 1000 else f"{text[:40]}...({len(text)} characters)"


def over_common_denominator(*xs: Fraction) -> tuple[int, list[int]]:
    """(D, [x*D for x in xs]): the least common denominator D of the
    rationals xs, and each of them scaled by it, an integer."""
    D = lcm(*(x.denominator for x in xs))
    return D, [x.numerator * (D // x.denominator) for x in xs]


def dist_to_nearest_int(x: Fraction) -> Fraction:
    """||x||: distance from x to the nearest integer. Always in [0, 1/2]."""
    r = x - (x.numerator // x.denominator)  # x mod 1, in [0, 1)
    return min(r, 1 - r)


def weighted_height_sq(m1: int, m2: int) -> int:
    """M^2 = max(|m1|, m2^2), the squared weighted height. Integer, exact;
    the height itself (its square root) is never materialized."""
    return max(abs(m1), m2 * m2)


def ceil_isqrt(n: int) -> int:
    """Smallest integer s with s*s >= n."""
    s = isqrt(n)
    return s if s * s == n else s + 1


def icbrt(n: int) -> int:
    """floor(n ** (1/3)) for an integer n >= 0, by integer Newton steps.

    No float is involved, so any size works (a float seed overflows past
    2**1024). The start lies above the root: from 512 bits on it is
    (icbrt(n >> 3k) + 1) << k, k = bits // 6, which holds the root's leading
    half, so a few steps finish; below, 2**ceil(bits/3) is as fast. Each
    step from above stays at or above the floor of the root while strictly
    decreasing, so the first step that does not decrease ends the walk."""
    if n < 0:
        raise ValueError("cube root of a negative number")
    if n == 0:
        return 0
    bits = n.bit_length()
    if bits < 512:
        x = 1 << -(-bits // 3)
    else:
        k = bits // 6
        x = (icbrt(n >> 3 * k) + 1) << k
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


@dataclass(frozen=True)
class ThetaForm:
    """The linear form's coefficient pair with truncation metadata.

    theta1, theta2 are the exact rationals actually computed with.
    declared_error bounds |theta_i(true) - theta_i| when the pair stands in
    for an irrational target; 0 means the rationals are themselves the target.
    """

    theta1: Fraction
    theta2: Fraction
    declared_error: Fraction = Fraction(0)

    def __post_init__(self):
        for t in (self.theta1, self.theta2):
            if not (0 < t < 1):
                raise ConfigError(f"theta component out of (0,1): {brief_rational(t)}")
        e = self.declared_error
        if not (0 <= e < Fraction(1, 2)):
            raise ConfigError(f"declared_error out of [0, 1/2): {brief_rational(e)}")

    @cached_property
    def fingerprint(self) -> str:
        """Stable identity of the pair, used to tie files together; computed
        once per ThetaForm, as its fields are frozen."""
        text = "|".join(
            format_rational(x) for x in (self.theta1, self.theta2, self.declared_error)
        )
        return fingerprint(text)


def form_value(theta: ThetaForm, m1: int, m2: int) -> tuple[Fraction, int]:
    """(zeta, m0): the distance ||theta1*m1 + theta2*m2|| together with the
    integer m0 realizing it, i.e. |m0 + theta1*m1 + theta2*m2| = zeta.

    Tie at a half-integer resolves to the m0 of smaller absolute value,
    then to the smaller m0.
    """
    v = theta.theta1 * m1 + theta.theta2 * m2
    lo = v.numerator // v.denominator  # floor(v)
    candidates = [-(lo), -(lo + 1)]
    best = None
    for m0 in candidates:
        d = abs(m0 + v)
        key = (d, abs(m0), m0)
        if best is None or key < best[0]:
            best = (key, m0, d)
    return best[2], best[1]


def validate_precision(
    theta: ThetaForm, height_sq: int, zeta: Fraction, height_sq_max: int | None = None
) -> None:
    """Guard: a record (height_sq = h, zeta) computed from the truncated pair
    is only trusted when zeta clears the worst-case perturbation with a 10x
    margin. The one place the package compares a zeta with declared_error.

    A form value moves by at most |m1|*err + |m2|*err <= (h + ceil_isqrt(h))*err
    when each coefficient moves by err, so it passes iff err == 0 or
        zeta > 10 * err * (h + ceil_isqrt(h)),
    tested in integers. Otherwise it raises PrecisionExhausted naming the
    digits of theta that the bound height_sq_max = H (default h) needs: the
    least N with 10^N > 10*(H + ceil_isqrt(H))*H^(3/2). Some class of height
    <= H has zeta <= H^(-3/2) (Minkowski), so a declared error 10^-d passes
    the guard at H only when d >= N. extra_digits is the larger of N - d and
    the digits by which err misses this zeta.
    """
    p, q = theta.declared_error.numerator, theta.declared_error.denominator
    margin = 10 * p * (height_sq + ceil_isqrt(height_sq)) * zeta.denominator
    if p == 0 or zeta.numerator * q > margin:
        return
    H = height_sq if height_sq_max is None else height_sq_max
    # 10^(2N) > 100*(H + ceil_isqrt(H))^2*H^3 =: X iff 2N >= digits of X
    need = (decimal_digits(100 * (H + ceil_isqrt(H)) ** 2 * H**3) + 1) // 2
    have = decimal_digits(q // p) - 1  # 10^-have >= err
    # err / (zeta / (10*(h + ceil_isqrt(h)))) >= 1: the digits of its floor
    miss = decimal_digits(margin // (zeta.numerator * q)) if zeta else 1
    extra = max(need - have, miss)
    raise PrecisionExhausted(
        f"declared truncation error {brief_rational(theta.declared_error)} of theta is too "
        f"coarse: the guard fails at height_sq={brief_rational(height_sq)}, zeta="
        f"{brief_rational(zeta)}; height_sq_max={brief_rational(H)} needs at least {need} "
        f"decimal digits of theta, the declared error gives {have}: roughly {extra} more",
        extra_digits=extra,
    )


def fingerprint(text: str) -> str:
    """The fingerprint format shared by every file: a truncated SHA-256."""
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:32]


def theta_fingerprint(theta: ThetaForm) -> str:
    """Stable identity for a coefficient pair, used to tie files together."""
    return theta.fingerprint


def form_range(m1: int, m2: int, b1, b2, w1, w2):
    """Closed range [lo, hi] of m1*x1 + m2*x2 over the box
    [b1, b1+w1] x [b2, b2+w2]. Exact; extremes sit at corners."""
    base = m1 * b1 + m2 * b2
    lo = base + min(m1 * w1, 0) + min(m2 * w2, 0)
    hi = base + max(m1 * w1, 0) + max(m2 * w2, 0)
    return lo, hi
