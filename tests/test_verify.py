import hashlib
import pytest
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from badsieve.bestapprox import enumerate_best_approx
from badsieve.catalog import catalog_names, get_entry
from badsieve.errors import ConfigError, DegenerateForm
from badsieve.rationals import ThetaForm, dist_to_nearest_int
from badsieve.sieve import SieveConfig, run_sieve
from badsieve.verify import (
    bad_alpha_beta_score,
    bad_theta_score,
    brute_best_approx,
    linear_form_score,
    linear_weighted_min_scan,
)

SQRT_PAIR = get_entry("sqrt2-sqrt3").theta


def test_q1_is_plain_distance():
    theta = ThetaForm(Fraction(3, 7), Fraction(2, 9))
    eta = (Fraction(1, 5), Fraction(1, 2))
    rep = bad_theta_score(theta, eta, 1)
    d1 = dist_to_nearest_int(theta.theta1 - eta[0])
    d2 = dist_to_nearest_int(theta.theta2 - eta[1])
    assert rep.score_cubed == max(d1, d2) ** 3
    assert rep.argmin == 1
    assert rep.running_min_trace == ((1, rep.score_cubed),)


def test_eta_on_orbit_scores_zero():
    theta = ThetaForm(Fraction(3, 7), Fraction(2, 9))
    rep = bad_theta_score(theta, (theta.theta1, theta.theta2), 1)
    assert rep.score_cubed == 0
    assert rep.score == 0.0


def test_scan_stops_at_zero():
    # homogeneous score hits an exact 0 at q = 7 for theta1 = 3/7, theta2 = 1/7
    theta = ThetaForm(Fraction(3, 7), Fraction(1, 7))
    rep = bad_alpha_beta_score(theta, 100)
    assert rep.score_cubed == 0
    assert rep.argmin == 7
    assert rep.running_min_trace[-1][0] == 7


def test_bound_must_be_positive():
    with pytest.raises(ConfigError):
        bad_theta_score(SQRT_PAIR, (Fraction(0), Fraction(0)), 0)
    with pytest.raises(ConfigError):
        bad_alpha_beta_score(SQRT_PAIR, 0)
    with pytest.raises(ConfigError):
        linear_weighted_min_scan(SQRT_PAIR.theta1, SQRT_PAIR.theta2, 0, 0, 0)


def test_monotone_in_Q():
    eta = (Fraction(1, 3), Fraction(1, 7))
    prev = None
    for Q in (1, 5, 25, 125, 625):
        rep = bad_theta_score(SQRT_PAIR, eta, Q)
        if prev is not None:
            assert rep.score_cubed <= prev
        prev = rep.score_cubed


def test_trace_is_strictly_decreasing_records():
    rep = bad_alpha_beta_score(SQRT_PAIR, 10**4)
    positions = [q for q, _ in rep.running_min_trace]
    values = [c for _, c in rep.running_min_trace]
    assert positions == sorted(positions)
    assert positions[0] == 1
    assert all(a > b for a, b in zip(values, values[1:]))
    assert rep.score_cubed == values[-1]
    assert rep.argmin == positions[-1]


def _weighted_cubed(theta, eta, q):
    """The cubed weighted quantity at one q, from the fractions directly."""
    return max(
        q * q * dist_to_nearest_int(q * theta.theta1 - eta[0]) ** 3,
        q * dist_to_nearest_int(q * theta.theta2 - eta[1]) ** 3,
    )


@settings(max_examples=40, deadline=None)
@given(
    p1=st.integers(1, 96),
    p2=st.integers(1, 96),
    e1=st.integers(0, 96),
    e2=st.integers(0, 96),
    Q=st.integers(1, 300),
)
def test_cubed_scan_matches_float_reference(p1, p2, e1, e2, Q):
    theta = ThetaForm(Fraction(p1, 97), Fraction(p2, 97))
    eta = (Fraction(e1, 97), Fraction(e2, 97))
    rep = bad_theta_score(theta, eta, Q)
    best = min(_weighted_cubed(theta, eta, q) for q in range(1, Q + 1))
    assert rep.score_cubed == best


UNIT = st.fractions(min_value=0, max_value=1, max_denominator=10**6)
THETA = UNIT.filter(lambda f: 0 < f < 1)


@settings(max_examples=150, deadline=None)
@given(
    t1=THETA,
    t2=THETA,
    eta=st.one_of(st.tuples(UNIT, UNIT), st.integers(1, 2000), st.none()),
    Q=st.integers(1, 2000),
)
@example(t1=Fraction(3, 7), t2=Fraction(1, 7), eta=None, Q=2000)
@example(t1=Fraction(3, 7), t2=Fraction(1, 7), eta=None, Q=1)
@example(t1=Fraction(414214, 10**6), t2=Fraction(1, 999983), eta=1999, Q=2000)
@example(t1=Fraction(2, 17), t2=Fraction(6, 17), eta=None, Q=100)
def test_fast_scan_equals_linear_oracle(t1, t2, eta, Q):
    # eta is a free pair, an integer k for the orbit point (k t1, k t2),
    # which scores an exact 0 at q = k when k <= Q, or None for the
    # homogeneous score, whose zero for (3/7, 1/7) is at q = 7; for
    # (2/17, 6/17), q = 8 ties the running minimum, which is no new record
    theta = ThetaForm(t1, t2)
    if eta is None:
        eta = (Fraction(0), Fraction(0))
        assert bad_alpha_beta_score(theta, Q) == linear_weighted_min_scan(t1, t2, *eta, Q)
    elif isinstance(eta, int):
        eta = (eta * t1 % 1, eta * t2 % 1)
    assert bad_theta_score(theta, eta, Q) == linear_weighted_min_scan(t1, t2, *eta, Q)


@pytest.fixture(scope="module")
def desk_etas():
    """eta of each catalog pair's R=16 depth 2 random seed 0 certificate."""
    cfg = SieveConfig(R=16, depth=2, policy="random", seed=0)
    etas = {}
    for name in catalog_names():
        theta = get_entry(name).theta
        cert, _ = run_sieve(theta, cfg, enumerate_best_approx(theta, cfg.height_sq_bound()))
        etas[name] = (theta, cert.eta)
    return etas


def _trace_digest(rep):
    text = "".join(f"{q} {cubed}\n" for q, cubed in rep.running_min_trace)
    return hashlib.sha256(text.encode()).hexdigest()


# Q = 10^6 scans of the R=16 depth 2 random seed 0 certificates, computed
# once with linear_weighted_min_scan (about 25 s for all six): argmin, the
# trace's q positions and the SHA-256 of its "q cubed" lines, whose last
# value is score_cubed.
SCAN_PINS_1E6 = {
    ("sqrt2-sqrt3", "theta"): (1183, [1, 41, 1183],
        "b3817541b523590845dd7540d6e6c5b62ce70cc95db9654269633c220ae147a7"),
    ("sqrt2-sqrt3", "alpha_beta"): (41, [1, 7, 41],
        "9888a03c084bd5609af22e0319a6ea1ce55e49e5464fe1f570836b3781f5404c"),
    ("golden-pair", "theta"): (45648, [1, 2, 3, 5, 45648],
        "19460507e220d9ac6baa14d25d135223af48de6f51b4ee17a4bb2230371b65b0"),
    ("golden-pair", "alpha_beta"): (196418, [1, 2, 3, 5, 466, 1364, 3194, 196418],
        "44c72223a361987884adca96115d8b32f880b2482fe8e13eb7670f40c60e07b2"),
    ("liouville", "theta"): (100, [1, 9, 100],
        "4c6647c3d56b91d76f94a2235163de68e990d82a22d13367cea4b8aa292a879f"),
    ("liouville", "alpha_beta"): (10000, [1, 9, 100, 10000],
        "069bc66ab8f8dd27911a005e133beda86fd4e00876c7ae742f3b361fcac9abf2"),
}


@pytest.mark.parametrize("name, score", sorted(SCAN_PINS_1E6))
def test_desk_scans_match_linear_pins(desk_etas, name, score):
    theta, eta = desk_etas[name]
    if score == "theta":
        rep = bad_theta_score(theta, eta, 10**6)
    else:
        rep = bad_alpha_beta_score(theta, 10**6)
    argmin, positions, digest = SCAN_PINS_1E6[(name, score)]
    assert rep.argmin == argmin
    assert [q for q, _ in rep.running_min_trace] == positions
    assert _trace_digest(rep) == digest
    assert rep.score_cubed == rep.running_min_trace[-1][1]


def test_scans_at_q_1e12(desk_etas):
    # far beyond the linear oracle's reach: every trace record is rescored
    # directly, and the minima can only fall from their Q = 10^6 values
    Q = 10**12
    theta, eta = desk_etas["sqrt2-sqrt3"]
    zero = (Fraction(0), Fraction(0))
    for rep, shift, small in (
        (bad_theta_score(theta, eta, Q), eta, bad_theta_score(theta, eta, 10**6)),
        (bad_alpha_beta_score(theta, Q), zero, bad_alpha_beta_score(theta, 10**6)),
    ):
        assert rep.bound == Q
        assert all(_weighted_cubed(theta, shift, q) == c for q, c in rep.running_min_trace)
        assert rep.running_min_trace[: len(small.running_min_trace)] == small.running_min_trace
        assert 0 < rep.score_cubed <= small.score_cubed
        assert rep.argmin == rep.running_min_trace[-1][0] <= Q
    # the liouville pair's homogeneous collapse: score^3 about 10^-70
    hom = bad_alpha_beta_score(get_entry("liouville").theta, Q)
    assert Fraction(1, 10**71) < hom.score_cubed < Fraction(1, 10**69)
    assert hom.argmin == 10**4


def test_liouville_homogeneous_spike():
    theta = get_entry("liouville").theta
    early = bad_alpha_beta_score(theta, 10)
    late = bad_alpha_beta_score(theta, 10**4)
    assert late.score_cubed < early.score_cubed / 10**9


def test_golden_homogeneous_floor():
    theta = get_entry("golden-pair").theta
    rep = bad_alpha_beta_score(theta, 10**4)
    assert rep.score > 0.05


# ----------------------------------------------------------- linear form


def test_linear_form_single_vector():
    seq = enumerate_best_approx(SQRT_PAIR, 1)
    assert [(v.m1, v.m2) for v in seq.vectors] == [(1, 1)]
    rep = linear_form_score(SQRT_PAIR, (Fraction(1, 4), Fraction(1, 4)), seq)
    assert rep.exact_score == Fraction(1, 2)
    assert rep.score_cubed == Fraction(1, 8)
    assert rep.argmin == (1, 1)


def test_linear_form_resonant_eta_is_zero():
    seq = enumerate_best_approx(SQRT_PAIR, 1)
    rep = linear_form_score(SQRT_PAIR, (Fraction(3, 4), Fraction(1, 4)), seq)
    assert rep.exact_score == 0


def test_linear_form_empty_and_mismatched():
    seq0 = enumerate_best_approx(SQRT_PAIR, 0)
    with pytest.raises(ConfigError):
        linear_form_score(SQRT_PAIR, (Fraction(0), Fraction(0)), seq0)
    seq = enumerate_best_approx(SQRT_PAIR, 4)
    other = get_entry("golden-pair").theta
    with pytest.raises(ConfigError):
        linear_form_score(other, (Fraction(0), Fraction(0)), seq)


def test_linear_form_trace_positions_are_heights():
    seq = enumerate_best_approx(SQRT_PAIR, 3600)
    rep = linear_form_score(SQRT_PAIR, (Fraction(17, 64), Fraction(5, 64)), seq)
    heights = {v.height_sq for v in seq.vectors}
    assert all(h in heights for h, _ in rep.running_min_trace)
    assert rep.score_cubed == rep.running_min_trace[-1][1]
    assert rep.exact_score**3 == rep.score_cubed


# ----------------------------------------------------------- brute force


def test_brute_single_record():
    seq = brute_best_approx(SQRT_PAIR, 1)
    assert len(seq.vectors) == 1
    assert (seq.vectors[0].m1, seq.vectors[0].m2) == (1, 1)


def test_brute_degenerate_rational():
    with pytest.raises(DegenerateForm):
        brute_best_approx(ThetaForm(Fraction(2, 5), Fraction(1, 3)), 5)


def test_brute_tie_degenerate():
    # classes (0,1) and (-1,1) both hit distance 1/8 at height 1
    theta = ThetaForm(Fraction(1, 4), Fraction(1, 8))
    with pytest.raises(DegenerateForm):
        brute_best_approx(theta, 16)
