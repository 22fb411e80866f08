from fractions import Fraction
from math import lcm

import pytest

from hypothesis import given, settings, strategies as st

from badsieve import lattice, verify
from badsieve.bestapprox import enumerate_best_approx
from badsieve.catalog import catalog_names, get_entry
from badsieve.errors import ConfigError
from badsieve.rationals import icbrt
from badsieve.sieve import SieveConfig, run_sieve
from badsieve.verify import ScoreReport, _half_width, _weighted_score, linear_weighted_min_scan

T1, T2 = Fraction(4142, 10007), Fraction(7320, 10007)


def _blocks(t1, t2, e1, e2, Q):
    """The scan's blocks (lo, hi) up to min(Q, D), where the scan stops,
    rebuilt from the rule in _weighted_score's docstring and the oracle's
    records: a block's width depends only on the running minimum before lo."""
    D = lcm(t1.denominator, t2.denominator, e1.denominator, e2.denominator)
    trace = linear_weighted_min_scan(t1, t2, e1, e2, Q).running_min_trace
    out, lo, last = [], 2, min(Q, D)
    while lo <= last:
        cubed = [c for q, c in trace if q < lo][-1] * D**3
        if cubed == 0:
            break
        s1 = min(_half_width(int(cubed - 1) // (lo * lo)), D // 2)
        s2 = min(_half_width(int(cubed - 1) // lo), D // 2)
        hi = min(last, lo - 1 + max(1, 4 * D * D // ((2 * s1 + 1) * (2 * s2 + 1))))
        out.append((lo, hi))
        lo = hi + 1
    return out


def _agrees(t1, t2, e1, e2, Q):
    return _weighted_score(t1, t2, e1, e2, Q) == linear_weighted_min_scan(t1, t2, e1, e2, Q)


@pytest.mark.parametrize("Q", [1, 2])
@pytest.mark.parametrize("eta", [(Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(5, 7))])
def test_scan_first_q(Q, eta):
    assert _agrees(T1, T2, *eta, Q)


@pytest.mark.parametrize("eta", [(Fraction(0), Fraction(0)), (Fraction(1, 101), Fraction(1, 103))])
def test_scan_at_block_edges(eta, monkeypatch):
    # Q is past D = 10007: the homogeneous scan's last block ends at D
    Q = 20000
    blocks = _blocks(T1, T2, *eta, Q)
    box_points, widths = verify.box_points, []

    def recorded(b, box):
        widths.append(box[0][1])  # the block's x-range is 0 <= x <= hi - lo
        return box_points(b, box)

    monkeypatch.setattr(verify, "box_points", recorded)
    work = _weighted_score(T1, T2, *eta, Q).work
    monkeypatch.undo()
    edges, lo = [], 2
    for w in widths:
        edges.append((lo, lo + w))
        lo += w + 1
    assert blocks == edges
    assert work["blocks"] == len(blocks) >= 4
    assert any(hi > lo + 1 for lo, hi in blocks)
    for lo, hi in blocks:
        for edge in lo, hi, hi + 1:
            assert _agrees(T1, T2, *eta, min(edge, Q)), (lo, hi, edge)


def test_scan_stops_at_zero_inside_a_block():
    # eta = k*theta puts q = k on the orbit: the first such k strictly inside
    # one of its own scan's blocks scores an exact 0 mid-block
    for k in range(3, 5000):
        eta = (k * T1 % 1, k * T2 % 1)
        if any(lo < k < hi for lo, hi in _blocks(T1, T2, *eta, k + 100)):
            break
    else:
        pytest.fail("no orbit point fell inside a block")
    for Q in k, k + 100:
        rep = _weighted_score(T1, T2, *eta, Q)
        assert rep.score_cubed == 0 and rep.argmin == k
        assert rep == linear_weighted_min_scan(T1, T2, *eta, Q)


def test_scan_bound_below_one_is_config_error():
    with pytest.raises(ConfigError, match=r"^scan bound must be >= 1$"):
        _weighted_score(Fraction(3, 11), Fraction(7, 11), Fraction(-5, 11), Fraction(0), 0)


def test_scan_modulus_one():
    # every distance is 0 mod 1, so q = 1 scores 0 and nothing is listed
    rep = _weighted_score(Fraction(3), Fraction(7), Fraction(-5), Fraction(0), 10**9)
    assert rep == ScoreReport(10**9, Fraction(0), 1, ((1, Fraction(0)),))
    assert rep.work == {"blocks": 0, "listed": 0, "scored": 1}
    one = Fraction(1)
    assert _agrees(one, one, Fraction(0), Fraction(2), 10)


def _scan_listing_sizes(monkeypatch, Q, forced):
    """The points lattice.box_points listed for each block of verify's two
    scans to Q on the R=16 depth 2 random seed 0 certificates; forced
    reduces on every block (REDUCE_ABOVE = -1)."""
    box_points, sizes = verify.box_points, []

    def listed(b, box):
        points, n = box_points(b, box)
        sizes.append(n)
        return points, n

    monkeypatch.setattr(verify, "box_points", listed)
    if forced:
        monkeypatch.setattr(lattice, "REDUCE_ABOVE", -1)
    cfg = SieveConfig(R=16, depth=2, policy="random", seed=0)
    for name in catalog_names():
        theta = get_entry(name).theta
        cert, _ = run_sieve(theta, cfg, enumerate_best_approx(theta, cfg.height_sq_bound()))
        for eta in cert.eta, (Fraction(0), Fraction(0)):
            _weighted_score(theta.theta1, theta.theta2, *eta, Q)
    monkeypatch.undo()
    return sizes


@pytest.mark.parametrize("Q", [10**6, 10**12])
def test_scan_listing_stays_small(monkeypatch, Q):
    # the records are exact whatever the blocks hold, so only the listing's
    # size shows a reduction in the wrong metric or a block sized wrongly.
    # box_points reduces a warm basis that would list more than 64 points;
    # reduced on every block, these twelve scans listed at most 24 per block
    sizes = _scan_listing_sizes(monkeypatch, Q, forced=True)
    assert sizes and max(sizes) <= 24
    sizes = _scan_listing_sizes(monkeypatch, Q, forced=False)
    assert sizes and max(sizes) <= 64


def _widths_agree(n):
    s, root = _half_width(n), icbrt(n)
    assert root <= s <= root + root // 128 + 1, n
    k = max(0, s.bit_length() - 9)
    assert s >> k << k == s, n


def test_half_width_exhaustive():
    # below 2^26 the width is the root itself
    for n in range(2**16):
        assert _half_width(n) == icbrt(n)
    for n in (2**26 - 1, 2**26, 2**27, 2**30 - 1, 10**12, 2**600 + 1):
        _widths_agree(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6000).flatmap(lambda b: st.integers(0, 2**b)))
def test_half_width_bounds(n):
    # at least the root, so a block's box holds every q that could set a
    # record; at most 9 significant bits; at most 2^-7 above the root, + 1
    _widths_agree(n)


def test_scan_last_block_is_the_modulus():
    # a homogeneous scan to Q = D whose last block is the single q = D: its
    # box is symmetric about the origin, which is the exact zero at q = D
    t1, t2 = Fraction(54, 113), Fraction(42, 113)
    zero = Fraction(0)
    assert _blocks(t1, t2, zero, zero, 113)[-1] == (113, 113)
    rep = _weighted_score(t1, t2, zero, zero, 113)
    assert rep.score_cubed == 0 and rep.argmin == 113
    assert rep == linear_weighted_min_scan(t1, t2, zero, zero, 113)


def test_scan_stops_at_the_modulus():
    # 2q - 1 is odd, so both distances are 1 mod 4 for every q: q = 1 is the
    # only record, and residues repeat with period 4, so the scan ends at
    # q = 4 instead of walking empty blocks to 10^12
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    rep = _weighted_score(half, half, quarter, quarter, 10**12)
    assert rep == ScoreReport(10**12, Fraction(1, 64), 1, ((1, Fraction(1, 64)),))
    assert rep.work["scored"] == 1 and rep.work["blocks"] <= 2
    assert _agrees(half, half, quarter, quarter, 1000)


@pytest.mark.parametrize(
    "name, theta_work, alpha_beta_work",
    [("sqrt2-sqrt3", (6, 74, 25), (5, 72, 16)),
     ("golden-pair", (5, 39, 13), (5, 53, 22)),
     ("liouville", (4, 28, 13), (5, 64, 31))],
)
def test_verify_scan_work_pinned(name, theta_work, alpha_beta_work):
    # verify --Q 10^6 on the R=16 depth 2 random seed 0 certificates: the
    # scores are exact under any reduction, the blocks, listed points and
    # scored q of both scans are pinned
    cfg = SieveConfig(R=16, depth=2, policy="random", seed=0)
    theta = get_entry(name).theta
    cert, _ = run_sieve(theta, cfg, enumerate_best_approx(theta, cfg.height_sq_bound()))
    zero = Fraction(0)
    for eta, work in (cert.eta, theta_work), ((zero, zero), alpha_beta_work):
        rep = _weighted_score(theta.theta1, theta.theta2, *eta, 10**6)
        assert rep.work == dict(zip(("blocks", "listed", "scored"), work))
