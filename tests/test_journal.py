"""The journal and certificate writers against json.dumps of one dict per
record, the representation they replace; and strings from a parsed file."""

import dataclasses
import json
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import Phase, given, reject, settings, strategies as st

from badsieve.bestapprox import TYPE1, TYPE2, enumerate_best_approx
from badsieve.catalog import get_entry
from badsieve.errors import BadSieveError, ConfigError
from badsieve.journal import (
    certificate_json,
    journal_text,
    parse_certificate,
    parse_journal,
)
from badsieve.rationals import ThetaForm
from badsieve.sieve import (
    Certificate,
    DangerStats,
    LevelRecord,
    Rectangle,
    RunJournal,
    SieveConfig,
    VectorMark,
    run_sieve,
)


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _config_dict(cfg):
    return {"R": cfg.R, "depth": cfg.depth, "policy": cfg.policy, "seed": cfg.seed}


def _theta_dict(theta):
    return {k: _fmt(getattr(theta, k)) for k in ("theta1", "theta2", "declared_error")}


def _json_journal(j: RunJournal) -> str:
    """journal_text by one dict and one compact json.dumps per line."""
    def rect(r):
        return [_fmt(r.b1), _fmt(r.b2)]

    records = [{
        "type": "header",
        "schema": 1,
        **_config_dict(j.config),
        **_theta_dict(j.theta),
        "theta_fingerprint": j.theta_fp,
        "sequence_fingerprint": j.sequence_fp,
        "base": rect(j.base),
    }]
    for rec in j.levels:
        s = rec.stats
        records.append({
            "type": "level",
            "level": rec.level,
            "rect": rect(rec.rect),
            "window1": list(rec.window1),
            "window2": list(rec.window2),
            "marks": [
                {"index": m.index, "kind": m.kind, "kills": m.kills, "gap_ok": m.gap_ok}
                for m in s.per_vector
            ],
            "type1_total": s.type1_total,
            "type2_total": s.type2_total,
            "union_kills": s.union_kills,
            "survivors": s.survivors,
            "bounds": j.config.capacity_bounds(),
            "chosen": list(rec.chosen),
        })
    records.append({"type": "final", "level": j.final.level, "rect": rect(j.final)})
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)


def _json_certificate(cert: Certificate) -> str:
    """certificate_json by one dict and json.dumps(indent=2)."""
    score = None
    if cert.bad_theta_score_at_Q is not None:
        Q, cubed = cert.bad_theta_score_at_Q
        score = {"Q": Q, "score_cubed": _fmt(cubed), "score": float(cubed) ** (1.0 / 3.0)}
    record = {
        "schema": 1,
        "kind": "certificate",
        "theta": {**_theta_dict(cert.theta), "fingerprint": cert.theta_fp},
        "config": _config_dict(cert.config),
        "sequence_fingerprint": cert.sequence_fp,
        "eta": [_fmt(cert.eta[0]), _fmt(cert.eta[1])],
        "epsilon": _fmt(cert.epsilon),
        "height_sq_bound": cert.height_sq_bound,
        "verified_form_min": _fmt(cert.verified_form_min),
        "bad_theta_score_at_Q": score,
    }
    return json.dumps(record, indent=2) + "\n"


def _sqrt_pair(digits: int) -> ThetaForm:
    S = 10**digits
    return ThetaForm(
        Fraction(isqrt(2 * S * S) - S, S), Fraction(isqrt(3 * S * S) - S, S), Fraction(1, S)
    )


THETAS = {
    **{name: get_entry(name).theta for name in ("sqrt2-sqrt3", "golden-pair", "liouville")},
    "sqrt-60": _sqrt_pair(60),
    "sqrt-340": _sqrt_pair(340),
}


@lru_cache(maxsize=None)
def _sequence(name: str, height_sq_max: int):
    return enumerate_best_approx(THETAS[name], height_sq_max)


def _run(name: str, **config):
    cfg = SieveConfig(**config)
    return run_sieve(THETAS[name], cfg, _sequence(name, cfg.height_sq_bound()))


# a stamped score: up to (1/2)^3, many digits, or small enough to underflow
_score_cubed = st.one_of(
    st.integers(2, 10**60).flatmap(
        lambda q: st.builds(Fraction, st.integers(0, q // 8), st.just(q))
    ),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(10**300, 10**400)),
    st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 8) - Fraction(1, 10**50)]),
)
_stamp = st.one_of(st.none(), st.tuples(st.integers(1, 10**30), _score_cubed))
_policy = st.one_of(
    st.just(("lex", 0)), st.tuples(st.just("random"), st.integers(0, 10**9))
)


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(THETAS)),
    R=st.integers(2, 9),
    depth=st.integers(0, 3),
    policy=_policy,
    stamp=_stamp,
)
def test_run_writers_match_json_dumps(name, R, depth, policy, stamp):
    try:
        cert, journal = _run(name, R=R, depth=depth, policy=policy[0], seed=policy[1])
    except BadSieveError:
        reject()  # no base or no survivor at this R
    assert journal_text(journal) == _json_journal(journal)
    assert certificate_json(cert) == _json_certificate(cert)
    stamped = dataclasses.replace(cert, bad_theta_score_at_Q=stamp)
    assert certificate_json(stamped) == _json_certificate(stamped)


_rational = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(-(10**120), 10**120), st.integers(1, 10**120)),
)
_unit = st.integers(2, 10**120).flatmap(
    lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q))
)
_theta = st.builds(ThetaForm, _unit, _unit, st.sampled_from([Fraction(0), Fraction(1, 10**99)]))
_config = st.builds(
    SieveConfig,
    R=st.integers(2, 2**40),
    depth=st.integers(0, 64),
    policy=st.sampled_from(["lex", "random"]),
    seed=st.integers(-(2**70), 2**70),
)
_count = st.integers(0, 2**70)
_mark = st.builds(
    VectorMark,
    index=st.integers(0, 10**9),
    kind=st.sampled_from([TYPE1, TYPE2, 0, 7]),  # parsers reject 0 and 7
    kills=_count,
    gap_ok=st.booleans(),
)
_level = st.builds(
    LevelRecord,
    rect=st.builds(Rectangle, _rational, _rational, st.integers(0, 64)),
    stats=st.builds(DangerStats, st.lists(_mark, max_size=6).map(tuple), _count, _count),
    chosen=st.tuples(_count, _count),
)


# no shrink phase: shrinking examples this large outlasts the per-test time
# limit, and the unshrunk example already names the record that differs
@settings(max_examples=150, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    theta=_theta,
    cfg=_config,
    fps=st.tuples(st.text(), st.text()),
    rects=st.tuples(_rational, _rational, _rational, _rational, st.integers(0, 64)),
    levels=st.lists(_level, max_size=3),
    form_min=_rational,
    stamp=st.one_of(st.none(), st.tuples(st.integers(0, 10**30), _score_cubed)),
)
def test_records_match_json_dumps(theta, cfg, fps, rects, levels, form_min, stamp):
    """Records no run makes: negative and 120-digit rationals, failed gap
    checks, empty and mixed windows, marks of no known kind, any
    fingerprint string."""
    b1, b2, f1, f2, final_level = rects
    journal = RunJournal(
        theta=theta, config=cfg, theta_fp=fps[0], sequence_fp=fps[1],
        base=Rectangle(b1, b2, 0), levels=tuple(levels),
        final=Rectangle(f1, f2, final_level),
    )
    assert journal_text(journal) == _json_journal(journal)
    cert = Certificate(
        theta=theta, config=cfg, sequence_fp=fps[1], eta=(f1, f2),
        verified_form_min=form_min, bad_theta_score_at_Q=stamp,
    )
    assert certificate_json(cert) == _json_certificate(cert)


@pytest.mark.parametrize("cubed", [
    Fraction(0),
    Fraction(1, 8),
    Fraction(1, 8) - Fraction(1, 10**50),
    Fraction(2, 27),
    Fraction(1, 3 * 10**40 + 7),
    Fraction(7, 10**320),  # a subnormal float
    Fraction(1, 10**400),  # underflows to 0.0
])
def test_score_float_matches_json_dumps(cubed):
    cert, _ = _run("sqrt2-sqrt3", R=8, depth=2)
    stamped = dataclasses.replace(cert, bad_theta_score_at_Q=(10**12, cubed))
    text = certificate_json(stamped)
    assert text == _json_certificate(stamped)
    assert parse_certificate(text) == stamped


_ODD_FP = 'sha256:"quoted" back\\slash\nnewline é'


def test_parsed_fingerprint_string_is_escaped():
    cert, journal = _run("golden-pair", R=8, depth=2, policy="random", seed=3)
    journal = dataclasses.replace(journal, sequence_fp=_ODD_FP)
    text = journal_text(journal)
    header = text.splitlines()[0]
    assert '"sequence_fingerprint":"sha256:\\"quoted\\" back\\\\slash\\nnewline \\u00e9"' in header
    assert text.isascii() and text.count("\n") == len(journal.levels) + 2
    _, _, tfp, sfp, base, levels, final = parse_journal(text)
    assert sfp == _ODD_FP
    rebuilt = dataclasses.replace(journal, theta_fp=tfp, sequence_fp=sfp, base=base,
                                  levels=levels, final=final)
    assert journal_text(rebuilt) == text

    for stamp in (None, (1000, Fraction(1, 27))):
        cert_text = certificate_json(
            dataclasses.replace(cert, sequence_fp=_ODD_FP, bad_theta_score_at_Q=stamp)
        )
        assert json.loads(cert_text)["sequence_fingerprint"] == _ODD_FP
        parsed = parse_certificate(cert_text)
        assert parsed.sequence_fp == _ODD_FP
        assert certificate_json(parsed) == cert_text


@pytest.mark.parametrize(
    "cubed", ["-1/8", "1/7", "1" + "0" * 400 + "/1"], ids=["negative", "above", "overflow"]
)
def test_parse_certificate_rejects_impossible_score(cubed):
    """A cubed score lies in [0, 1/8]: q = 1 alone scores at most (1/2)^3.
    Outside it the display float would be complex or overflow."""
    cert, _ = _run("sqrt2-sqrt3", R=8, depth=2)
    text = certificate_json(dataclasses.replace(cert, bad_theta_score_at_Q=(1000, Fraction(1, 9))))
    forged = text.replace('"score_cubed": "1/9"', f'"score_cubed": "{cubed}"')
    assert forged != text
    with pytest.raises(ConfigError, match="'score_cubed'"):
        parse_certificate(forged)
