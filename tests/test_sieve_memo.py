"""Runs over one sequence share its sieve memo: the base, each level's
window with its gap flags and zero-kill marks, and the base's level 0.
Sharing must not change a byte of any journal or certificate."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from badsieve import sieve
from badsieve.bestapprox import BestApproxSequence, enumerate_best_approx
from badsieve.catalog import get_entry
from badsieve.journal import certificate_json, journal_text
from badsieve.sieve import (
    DangerStats,
    Rectangle,
    SieveConfig,
    VectorMark,
    _count_covered,
    child_rect,
    dangerous_children,
    gap_condition,
    kth_survivor,
    merge_ranges,
    run_sieve,
    select_base,
    sieve_step,
)

PAIRS = ("sqrt2-sqrt3", "golden-pair", "liouville")


def _fresh(seq):
    """A copy of seq that shares nothing with it but its vectors."""
    return BestApproxSequence(seq.theta, seq.height_sq_max, seq.vectors)


def _files(seq, cfg):
    cert, journal = run_sieve(seq.theta, cfg, seq)
    return journal, journal_text(journal), certificate_json(cert)


def _check_by_definition(seq, cfg, journal):
    """The journal's base, windows, marks and picks recomputed without any
    memo: a cache shared by every sequence would pass the warm-cold test."""
    R = cfg.R
    rect = select_base(cfg, seq)
    assert journal.base == rect
    for rec in journal.levels:
        n = rec.level
        assert rec.rect == rect
        band = [v for v in seq.vectors if R ** (2 * n) < v.height_sq <= R ** (2 * n + 2)]
        union = {}
        marks = []
        for v in [v for kind in (1, 2) for v in band if v.kind == kind]:
            rows = dangerous_children(rect, v, cfg)
            for j, ranges in rows.items():
                union.setdefault(j, []).extend(ranges)
            marks.append(VectorMark(v.index, v.kind, _count_covered(rows),
                                    gap_condition(rect, v, cfg)))
        union = {j: merge_ranges(r) for j, r in union.items()}
        survivors = R**3 - _count_covered(union)
        k = random.Random(f"{cfg.seed}:{n}").randrange(survivors) if cfg.policy == "random" else 0
        assert rec.stats == DangerStats(tuple(marks), R**3 - survivors, survivors)
        assert rec.chosen == kth_survivor(union, R, k)
        rect = child_rect(rect, cfg, *rec.chosen)
    assert journal.final == rect


def test_warm_runs_equal_cold_runs():
    # one shared sequence per pair, enumerated to 16^6: every configuration
    # but R=16 depth 3 truncates it. Seeds, R, depths and pairs interleave,
    # so a memo entry keyed without the sequence, R or the level would serve
    # another run's base or window
    shared = {p: enumerate_best_approx(get_entry(p).theta, 16**6) for p in PAIRS}
    runs = kills = 0
    for policy, seed in [("lex", 0)] + [("random", s) for s in range(20)]:
        for R in (4, 8, 16):
            for depth in (1, 2, 3):
                cfg = SieveConfig(R=R, depth=depth, policy=policy, seed=seed)
                for pair, seq in shared.items():
                    journal, text, cert = _files(seq, cfg)
                    assert (text, cert) == _files(_fresh(seq), cfg)[1:], (pair, cfg)
                    _check_by_definition(seq, cfg, journal)
                    runs += 1
                    kills += any(rec.stats.union_kills for rec in journal.levels)
    assert runs == 21 * 9 * 3
    assert kills > 0  # some level kills children, so the marks are tested
    for seq in shared.values():
        assert set(seq.sieve_memo) == {4, 8, 16}
        assert all(len(seq.sieve_memo[R].windows) == 3 for R in (4, 8, 16))


def test_level0_memo_is_keyed_by_the_rectangle():
    # sieve_step keeps one level-0 rectangle's marks; another rectangle of
    # level 0 on the same sequence must be marked anew
    seq = enumerate_best_approx(get_entry("golden-pair").theta, 8**2)
    cfg = SieveConfig(R=8, depth=1)
    rects = [Rectangle(Fraction(i, 32), Fraction(j, 32), 0)
             for i in range(1, 30, 4) for j in range(1, 30, 4)]
    killed = set()
    for rect in rects + rects[::-1]:
        warm = sieve_step(cfg, rect, seq)
        assert warm == sieve_step(cfg, rect, _fresh(seq))
        killed.add(warm[1].stats.union_kills)
    assert len(killed) > 1


def test_memo_lives_and_dies_with_its_sequence(monkeypatch):
    first = []
    for name in ("select_base", "gap_condition"):
        fn = getattr(sieve, name)
        monkeypatch.setattr(
            sieve, name, lambda *a, fn=fn, name=name: first.append(name) or fn(*a))
    seq = enumerate_best_approx(get_entry("sqrt2-sqrt3").theta, 8**8)
    for depth in (3, 1, 2, 4):
        for seed in range(3):
            run_sieve(seq.theta, SieveConfig(R=8, depth=depth, policy="random", seed=seed), seq)
            # at most depth windows per R: the deepest run's
            assert len(seq.sieve_memo[8].windows) == max(3, depth)
    windows = sum(len(w) for w in seq.sieve_memo[8].windows.values())
    assert first.count("select_base") == 1
    assert first.count("gap_condition") == windows > 0
    # a fresh copy keeps nothing of seq's memo and computes its own, once
    copy = _fresh(seq)
    assert copy.sieve_memo == {}
    first.clear()
    for seed in range(3):
        run_sieve(copy.theta, SieveConfig(R=8, depth=4, policy="random", seed=seed), copy)
    assert first.count("select_base") == 1
    assert first.count("gap_condition") == windows
    # nothing outside the sequence holds it or its memo
    refs = [weakref.ref(seq), weakref.ref(copy)]
    del seq, copy
    gc.collect()
    assert [r() for r in refs] == [None, None]


@pytest.mark.parametrize("R", [4, 8])
def test_memo_never_enters_a_file(R):
    # the memo is not a field: sequences compare, and fingerprint, alike
    # whether or not a run filled it
    seq = enumerate_best_approx(get_entry("liouville").theta, R**6)
    copy = _fresh(seq)
    run_sieve(seq.theta, SieveConfig(R=R, depth=3), seq)
    assert seq.sieve_memo and not copy.sieve_memo
    assert seq == copy and seq.fingerprint == copy.fingerprint
