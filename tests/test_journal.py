"""The journal and certificate writers against json.dumps of one dict per
record, the representation they replace; and strings from a parsed file."""

import dataclasses
import json
import sys
import time
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import Phase, given, reject, settings, strategies as st

from badsieve import rationals
from badsieve.bestapprox import TYPE1, TYPE2, enumerate_best_approx, sequence_fingerprint
from badsieve.catalog import get_entry
from badsieve.errors import BadSieveError, ConfigError, PrecisionExhausted
from badsieve.journal import (
    certificate_json,
    journal_text,
    parse_certificate,
    parse_journal,
)
from badsieve.rationals import ThetaForm, theta_fingerprint
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


@pytest.mark.parametrize("name", ["sqrt2-sqrt3", "liouville"])
def test_theta_hashed_once_per_run_and_writers(monkeypatch, name):
    """run_sieve, journal_text and certificate_json share one hash of theta:
    the ThetaForm's own cached fingerprint."""
    t = THETAS[name]
    theta = ThetaForm(t.theta1, t.theta2, t.declared_error)  # nothing cached yet
    text = "|".join(_fmt(x) for x in (t.theta1, t.theta2, t.declared_error))
    hashed = []
    real = rationals.fingerprint
    monkeypatch.setattr(rationals, "fingerprint", lambda s: hashed.append(s) or real(s))
    seq = enumerate_best_approx(theta, 8**6)
    cert, journal = run_sieve(theta, SieveConfig(R=8, depth=3, policy="random", seed=7), seq)
    journal_text(journal)
    certificate_json(cert)
    assert hashed.count(text) == 1
    assert cert.theta_fp == journal.theta_fp == real(text)


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


def _set_score(value):
    def edit(cert: dict):
        cert["bad_theta_score_at_Q"]["score"] = value
    return edit


# Edits of a stamped certificate that the writer never emits, with the key
# the rejection must name
FOREIGN = {
    "extra-key": (lambda c: c.update(note="x"), "'note'"),
    "score-string": (_set_score("0.3333333333333333"), "'score'"),
    "score-int": (_set_score(0), "'score'"),
    "score-missing": (lambda c: c["bad_theta_score_at_Q"].pop("score"), "'score'"),
    "score-forged": (_set_score(0.9), "'score' is 0.9"),
    "score-nan": (_set_score(float("nan")), "'score' is nan"),
}


@pytest.mark.parametrize("case", sorted(FOREIGN))
def test_parse_certificate_rejects_what_the_writer_never_emits(case):
    cert, _ = _run("sqrt2-sqrt3", R=8, depth=2)
    text = certificate_json(dataclasses.replace(cert, bad_theta_score_at_Q=(1000, Fraction(1, 27))))
    obj = json.loads(text)
    assert json.dumps(obj, indent=2) + "\n" == text
    edit, key = FOREIGN[case]
    edit(obj)
    with pytest.raises(ConfigError, match=f"field {key}"):
        parse_certificate(json.dumps(obj, indent=2) + "\n")


def test_parse_journal_rejects_extra_key_in_level_line():
    _, journal = _run("golden-pair", R=8, depth=2)
    lines = journal_text(journal).splitlines()
    level = json.loads(lines[1])
    assert json.dumps(level, separators=(",", ":")) == lines[1]
    level["note"] = 1
    lines[1] = json.dumps(level, separators=(",", ":"))
    with pytest.raises(ConfigError, match="^journal line 2: field 'note'"):
        parse_journal("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "key, value, message",
    [("note", 1, "field 'note' is not one the writer emits"),
     ("level", True, "field 'level' is True, but recomputed it is 1"),
     ("level", 1.0, "field 'level' is 1.0, but recomputed it is 1")],
    ids=["extra-key", "true-for-1", "float-for-1"],
)
def test_parse_journal_names_the_first_field_that_differs(key, value, message):
    # a line equal to the writer's as a whole is accepted in one comparison;
    # any other is walked key by key and refused with the key's message
    _, journal = _run("golden-pair", R=8, depth=2)
    lines = journal_text(journal).splitlines()
    level = json.loads(lines[2])
    assert level["level"] == 1
    level[key] = value
    lines[2] = json.dumps(level, separators=(",", ":"))
    with pytest.raises(ConfigError) as exc:
        parse_journal("\n".join(lines) + "\n")
    assert str(exc.value) == f"journal line 3: {message}"


def test_parsers_refuse_an_integer_past_the_digit_limit(default_digit_limit):
    # json.loads raises a bare ValueError for a 5,001-digit integer under
    # the default limit; both parsers turn it into ConfigError
    cert, journal = _run("golden-pair", R=8, depth=2)
    seed = "1" + "0" * 5000
    text = certificate_json(cert).replace('"seed": 0', f'"seed": {seed}')
    with pytest.raises(ConfigError, match="^certificate is not valid JSON: .*digits"):
        parse_certificate(text)
    text = journal_text(journal).replace('"seed":0', f'"seed":{seed}')
    with pytest.raises(ConfigError, match="^journal line 1 is not valid JSON: .*digits"):
        parse_journal(text)


def test_parsers_refuse_nesting_past_the_recursion_limit():
    # json.loads raises a bare RecursionError on 100,000 nested arrays; both
    # parsers turn it into ConfigError, with a short message
    _, journal = _run("golden-pair", R=8, depth=2)
    nested = "[" * 100000
    with pytest.raises(ConfigError, match="^certificate is not valid JSON: ") as exc:
        parse_certificate(nested)
    assert len(str(exc.value)) < 1000
    header = journal_text(journal).splitlines()[0]
    with pytest.raises(ConfigError, match="^journal line 2 is not valid JSON: ") as exc:
        parse_journal(f"{header}\n{nested}\n")
    assert len(str(exc.value)) < 1000


# R as a string, a bool, a float and absent: SieveConfig's own type rule, or
# the parsers' presence check, refuses each and names R
BAD_R = {"string": "16", "bool": True, "float": 16.0, "missing": None}


@pytest.mark.parametrize("case", list(BAD_R))
def test_parsers_refuse_a_config_field_of_the_wrong_type(case):
    cert, journal = _run("golden-pair", R=16, depth=1)

    def forge(config):
        if case == "missing":
            del config["R"]
        else:
            config["R"] = BAD_R[case]

    named = "field 'R' is missing" if case == "missing" else "R must be an integer, not "
    obj = json.loads(certificate_json(cert))
    forge(obj["config"])
    with pytest.raises(ConfigError, match=f"^{named}"):
        parse_certificate(json.dumps(obj, indent=2))
    lines = journal_text(journal).splitlines()
    header = json.loads(lines[0])
    forge(header)
    lines[0] = json.dumps(header, separators=(",", ":"))
    with pytest.raises(ConfigError, match=f"^journal line 1: {named}"):
        parse_journal("\n".join(lines))


@pytest.mark.parametrize("depth", [3000, 200000])
def test_parse_certificate_refuses_a_forged_depth_fast(default_digit_limit, depth):
    # the stored bound 8^4 has 13 bits, far below any R^(2*depth) for R = 8;
    # it is refused before that power, of 18,000 or 1,200,000 bits, is built
    cert, _ = _run("golden-pair", R=8, depth=2)
    text = certificate_json(cert)
    assert text.count('"depth": 2,') == 1
    text = text.replace('"depth": 2,', f'"depth": {depth},')
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="^field 'height_sq_bound' has a bit length") as exc:
        parse_certificate(text)
    assert time.perf_counter() - start < 1
    assert len(str(exc.value)) < 1000


def test_numbers_past_the_digit_limit(default_digit_limit):
    # a 4,400-digit pair through the library alone: both fingerprints (the
    # same as with the limit lifted for the whole process), a certificate
    # and journal that re-parse to their own bytes, and a precision error
    # that formats its message
    theta = _sqrt_pair(4400)
    seq = enumerate_best_approx(theta, 2**32)
    assert len(seq.vectors) == 42
    assert sequence_fingerprint(seq) == "sha256:7bc918f1d35904f248f314bcb9a5213f"
    assert theta_fingerprint(theta) == "sha256:9c65555e13740cf699370bc864d29413"
    cfg = SieveConfig(R=16, depth=1)
    cert, journal = run_sieve(theta, cfg, enumerate_best_approx(theta, cfg.height_sq_bound()))
    text = certificate_json(cert)
    assert parse_certificate(text) == cert
    assert certificate_json(parse_certificate(text)) == text
    assert parse_journal(journal_text(journal))[0] == theta
    coarse = ThetaForm(theta.theta1, theta.theta2, Fraction(1, 10**20))
    with pytest.raises(PrecisionExhausted, match="needs at least") as exc:
        enumerate_best_approx(coarse, 2**32)
    # zeta's 4,400-digit fraction shows as its leading digits and digit counts
    assert len(str(exc.value)) < 1000
    assert "...(4400 digits)" in str(exc.value)
    if hasattr(sys, "get_int_max_str_digits"):
        assert sys.get_int_max_str_digits() == 4300  # lifted only per call
