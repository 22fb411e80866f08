from fractions import Fraction
from math import lcm

import pytest

from badsieve import modmin
from badsieve.bestapprox import enumerate_best_approx
from badsieve.catalog import catalog_names, get_entry
from badsieve.modmin import icbrt, weighted_min_scan
from badsieve.sieve import SieveConfig, run_sieve
from badsieve.verify import _weighted_score, linear_weighted_min_scan

T1, T2 = Fraction(4142, 10007), Fraction(7320, 10007)


def _blocks(t1, t2, e1, e2, Q):
    """The scan's blocks (lo, hi) up to Q, rebuilt from the rule in
    weighted_min_scan's docstring and the oracle's records: a block's
    width depends only on the running minimum before lo."""
    D = lcm(t1.denominator, t2.denominator, e1.denominator, e2.denominator)
    trace = linear_weighted_min_scan(t1, t2, e1, e2, Q).running_min_trace
    out, lo = [], 2
    while lo <= Q:
        cubed = [c for q, c in trace if q < lo][-1] * D**3
        if cubed == 0:
            break
        s1 = min(icbrt(int(cubed - 1) // (lo * lo)), D // 2)
        s2 = min(icbrt(int(cubed - 1) // lo), D // 2)
        hi = min(Q, lo - 1 + max(1, 4 * D * D // ((2 * s1 + 1) * (2 * s2 + 1))))
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
def test_scan_at_block_edges(eta):
    Q = 20000
    blocks = _blocks(T1, T2, *eta, Q)
    work = _weighted_score(T1, T2, *eta, Q).work
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


def test_scan_modulus_one():
    # every distance is 0 mod 1, so q = 1 scores 0 and nothing is listed
    work = {}
    assert weighted_min_scan(3, 5, 7, 0, 1, 10**9, work) == (0, 1, [(1, 0)])
    assert work == {"blocks": 0, "listed": 0, "scored": 1}
    one = Fraction(1)
    assert _agrees(one, one, Fraction(0), Fraction(2), 10)


@pytest.mark.parametrize("Q", [10**6, 10**12])
def test_scan_listing_stays_small(monkeypatch, Q):
    # the records are exact whatever the blocks hold, so only the listing's
    # size shows a reduction in the wrong metric or a block sized wrongly;
    # at most 24 points per block were measured on these twelve scans
    sizes = []

    def listed(b, t, half):
        points, n = coset_points(b, t, half)
        sizes.append(n)
        return points, n

    coset_points = modmin.coset_points
    monkeypatch.setattr(modmin, "coset_points", listed)
    cfg = SieveConfig(R=16, depth=2, policy="random", seed=0)
    for name in catalog_names():
        theta = get_entry(name).theta
        cert, _ = run_sieve(theta, cfg, enumerate_best_approx(theta, cfg.height_sq_bound()))
        for eta in cert.eta, (Fraction(0), Fraction(0)):
            _weighted_score(theta.theta1, theta.theta2, *eta, Q)
    assert sizes and max(sizes) <= 64


def test_scan_stops_at_the_modulus():
    # 2q - 1 is odd, so both distances are 1 mod 4 for every q: q = 1 is the
    # only record, and residues repeat with period 4, so the scan ends at
    # q = 4 instead of walking empty blocks to 10^12
    work = {}
    assert weighted_min_scan(2, -1, 2, -1, 4, 10**12, work) == (1, 1, [(1, 1)])
    assert work["scored"] == 1 and work["blocks"] <= 2
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert _agrees(half, half, quarter, quarter, 1000)
