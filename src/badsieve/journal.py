"""Line-oriented persistence for sieve runs and certificates.

A journal is JSONL: one header line (config, theta, fingerprints, base
corner), one line per completed level, one final line. Every rational is a
"p/q" string, keys are emitted in a fixed order, and nothing time- or
host-dependent is ever written, so identical runs produce byte-identical
files. Each journal line and the certificate are written from one text
template, with the bytes json.dumps would give (compact lines, an indent=2
certificate); strings that a parsed file can supply are escaped as
json.dumps escapes them. parse_journal replays the chain from the base
corner and checks each line, and parse_certificate the certificate, key by
key and with no key more, against json.loads of the text the writer emits
for the values it parsed (a stamped score, a float from libm's pow, to a
relative 10^-12), so that text is the only statement of the format. What
needs the records (the marks, the pick's clearance, the sequence
fingerprint) is left to crosscheck and to resume, which requires
the old journal's lines to begin the one it writes (check_resume_prefix).

A user's file is read by read_file, which raises ConfigError for bytes that
are not UTF-8, and decoded by one loader, _loads, which raises it for any text
json.loads cannot decode: not JSON, an int past the digit limit, nesting too deep.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import isclose
from pathlib import Path

from .bestapprox import TYPE1, TYPE2
from .errors import ConfigError
from .rationals import (
    ThetaForm,
    brief_repr,
    format_rational,
    parse_rational,
    theta_fingerprint,
)
from .sieve import (
    CONFIG_FIELDS,
    Certificate,
    DangerStats,
    LevelRecord,
    Rectangle,
    RunJournal,
    SieveConfig,
    VectorMark,
    child_rect,
)
from .verify import display_score

SCHEMA = 1

_THETA_FIELDS = ("theta1", "theta2", "declared_error")


def _rect_pair(rect: Rectangle) -> str:
    return f'["{format_rational(rect.b1)}","{format_rational(rect.b2)}"]'


def _header_line(theta: ThetaForm, cfg: SieveConfig, theta_fp: str, sequence_fp: str,
                 base: Rectangle) -> str:
    return (
        f'{{"type":"header","schema":{SCHEMA},"R":{cfg.R},"depth":{cfg.depth},'
        f'"policy":{_json_str(cfg.policy)},"seed":{cfg.seed},'
        f'"theta1":"{format_rational(theta.theta1)}",'
        f'"theta2":"{format_rational(theta.theta2)}",'
        f'"declared_error":"{format_rational(theta.declared_error)}",'
        f'"theta_fingerprint":{_json_str(theta_fp)},'
        f'"sequence_fingerprint":{_json_str(sequence_fp)},"base":{_rect_pair(base)}}}\n'
    )


def _bounds(cfg: SieveConfig) -> str:
    """The level lines' "bounds" object, in capacity_bounds' key order."""
    return "{" + ",".join(f'"{k}":{v}' for k, v in cfg.capacity_bounds().items()) + "}"


def _level_line(rec: LevelRecord, bounds: str) -> str:
    s = rec.stats
    window1, window2, type1_total, type2_total = s.by_kind
    marks = ",".join([
        f'{{"index":{m.index},"kind":{m.kind},"kills":{m.kills},'
        f'"gap_ok":{"true" if m.gap_ok else "false"}}}'
        for m in s.per_vector
    ])
    i, j = rec.chosen
    return (
        f'{{"type":"level","level":{rec.level},"rect":{_rect_pair(rec.rect)},'
        f'"window1":[{",".join(map(str, window1))}],'
        f'"window2":[{",".join(map(str, window2))}],'
        f'"marks":[{marks}],"type1_total":{type1_total},'
        f'"type2_total":{type2_total},"union_kills":{s.union_kills},'
        f'"survivors":{s.survivors},"bounds":{bounds},"chosen":[{i},{j}]}}\n'
    )


def _final_line(final: Rectangle) -> str:
    return f'{{"type":"final","level":{final.level},"rect":{_rect_pair(final)}}}\n'


def journal_text(j: RunJournal) -> str:
    bounds = _bounds(j.config)
    return "".join([
        _header_line(j.theta, j.config, j.theta_fp, j.sequence_fp, j.base),
        *(_level_line(rec, bounds) for rec in j.levels),
        _final_line(j.final),
    ])


def _typed(val, kind, key: str):
    # JSON true/false load as bool, which Python also counts as an int
    if not isinstance(val, kind) or (isinstance(val, bool) and kind is not bool):
        raise ConfigError(f"field {key!r} is missing or not of type {kind.__name__}")
    return val


def _get(obj: dict, key: str, kind):
    """obj[key], which must be present with JSON type kind, else ConfigError."""
    return _typed(obj.get(key), kind, key)


def _items(obj: dict, key: str, kind, length: int | None = None) -> list:
    """obj[key]: a list of values of JSON type kind, of the given length."""
    val = _get(obj, key, list)
    if length is not None and len(val) != length:
        raise ConfigError(f"field {key!r} should hold {length} values")
    return [_typed(x, kind, key) for x in val]


def _rational(obj: dict, key: str) -> Fraction:
    return parse_rational(_get(obj, key, str))


def _rational_pair(obj: dict, key: str) -> tuple[Fraction, Fraction]:
    return tuple(map(parse_rational, _items(obj, key, str, 2)))


def _theta(obj: dict) -> ThetaForm:
    return ThetaForm(*(_rational(obj, k) for k in _THETA_FIELDS))


def _config(obj: dict) -> SieveConfig:
    """The SieveConfig of obj's config fields; SieveConfig checks their values."""
    for key in CONFIG_FIELDS:
        if key not in obj:
            raise ConfigError(f"field {key!r} is missing")
    return SieveConfig(**{key: obj[key] for key in CONFIG_FIELDS})


def _check_derived(stored: dict, derived: dict) -> None:
    """stored must hold the keys the writer derives and no other, each
    stored[key] the value derived[key], JSON type included; else
    ConfigError naming the key. Walked key by key only if the dumps differ."""
    if json.dumps(stored, sort_keys=True) == json.dumps(derived, sort_keys=True):
        return
    for key in stored:
        if key not in derived:
            raise ConfigError(f"field {brief_repr(key)} is not one the writer emits")
    for key, want in derived.items():
        got = stored.get(key)
        if isinstance(want, dict) and isinstance(got, dict):
            _check_derived(got, want)
        elif json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):
            got, want = brief_repr(got), brief_repr(want)
            raise ConfigError(f"field {key!r} is {got}, but recomputed it is {want}")


def _kind(mark: dict) -> int:
    kind = _get(mark, "kind", int)
    if kind not in (TYPE1, TYPE2):
        raise ConfigError(
            f"field 'kind' is {kind}, neither {TYPE1} (Type1) nor {TYPE2} (Type2)"
        )
    return kind


def _parse_level(rec: dict, rect: Rectangle, cfg: SieveConfig, bounds: str) -> LevelRecord:
    marks = tuple(
        VectorMark(
            index=_get(m, "index", int),
            kind=_kind(m),
            kills=_get(m, "kills", int),
            gap_ok=_get(m, "gap_ok", bool),
        )
        for m in _items(rec, "marks", dict)
    )
    union_kills = _get(rec, "union_kills", int)
    parsed = LevelRecord(
        rect=rect,
        stats=DangerStats(marks, union_kills, cfg.R**3 - union_kills),
        chosen=tuple(_items(rec, "chosen", int, 2)),
    )
    _check_derived(rec, json.loads(_level_line(parsed, bounds)))
    return parsed


def read_file(path) -> str:
    """The text of the journal or certificate file at path, else ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8 text: {e}") from None


def _loads(text: str, what: str):
    """json.loads(text) of a journal line or certificate, else ConfigError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"{what} is not valid JSON: {e}") from None


@contextmanager
def _at_line(ln: int):
    """Prefix the journal line number to a ConfigError raised inside."""
    try:
        yield
    except ConfigError as e:
        raise ConfigError(f"journal line {ln}: {e}") from None


def parse_journal(text: str):
    """-> (theta, config, theta_fp, sequence_fp, base, levels, final|None).

    Level 0 refines the base, each later level and the final record the
    child chosen before it. Tolerates a journal cut short (interrupted run);
    anything else malformed, underived or out of the writer's order (the
    header, depth levels, the final record, then nothing) raises ConfigError
    naming the line."""
    records = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        records.append((ln, _loads(line, f"journal line {ln}")))
        if not isinstance(records[-1][1], dict):
            raise ConfigError(f"journal line {ln} is not a JSON object")
    if not records or records[0][1].get("type") != "header":
        raise ConfigError("journal does not start with a header record")
    ln, h = records[0]
    if h.get("schema") != SCHEMA:
        raise ConfigError(f"unsupported journal schema {brief_repr(h.get('schema'))}")
    with _at_line(ln):
        theta = _theta(h)
        cfg = _config(h)
        tfp = theta_fingerprint(theta)
        sfp = _get(h, "sequence_fingerprint", str)
        base = rect = Rectangle(*_rational_pair(h, "base"), 0)
        _check_derived(h, json.loads(_header_line(theta, cfg, tfp, sfp, base)))
    bounds = _bounds(cfg)
    levels = []
    final = None
    for k, (ln, rec) in enumerate(records[1:]):
        with _at_line(ln):
            want = "level" if k < cfg.depth else "final" if k == cfg.depth else None
            found = rec.get("type")
            if want is None or found != want:
                expected = f"a {want!r} record" if want else "the end of the journal"
                raise ConfigError(f"found a {found!r} record, expected {expected}")
            if want == "level":
                levels.append(_parse_level(rec, rect, cfg, bounds))
                rect = child_rect(rect, cfg, *levels[-1].chosen)
            else:
                _check_derived(rec, json.loads(_final_line(rect)))
                final = rect
    return theta, cfg, tfp, sfp, base, tuple(levels), final


def check_resume_prefix(old: str, new: str) -> None:
    """A resumed run must write a journal whose first lines are, byte for
    byte, the non-blank lines of the journal it resumed from (old, which has
    passed parse_journal); else ConfigError naming the first line of old
    that differs and the top-level keys whose values differ there."""
    old_lines = [
        (ln, line)
        for ln, line in enumerate(old.splitlines(), start=1)
        if line.strip()
    ]
    new_lines = new.splitlines()
    longer = len(old_lines) > len(new_lines)
    count = (
        f"the resume journal holds {len(old_lines)} records, more than the "
        f"{len(new_lines)} lines this run writes"
    )
    for (ln, line), ours in zip(old_lines, new_lines):
        if line != ours:
            a, b = json.loads(line), json.loads(ours)
            keys = [k for k in {**b, **a} if a.get(k) != b.get(k)]
            what = "in " + ", ".join(keys) if keys else "in formatting only"
            msg = f"resume journal line {ln} differs from this run's journal {what}"
            raise ConfigError(f"{msg}; {count}" if longer else msg)
    if longer:
        raise ConfigError(count)


def _certificate_text(cert: Certificate) -> str:
    t, c = cert.theta, cert.config
    score = "null"
    if cert.bad_theta_score_at_Q is not None:
        Q, cubed = cert.bad_theta_score_at_Q
        score = (
            f'{{\n    "Q": {Q},\n    "score_cubed": "{format_rational(cubed)}",\n'
            f'    "score": {float.__repr__(display_score(cubed))}\n  }}'
        )
    return (
        f'{{\n  "schema": {SCHEMA},\n  "kind": "certificate",\n  "theta": {{\n'
        f'    "theta1": "{format_rational(t.theta1)}",\n'
        f'    "theta2": "{format_rational(t.theta2)}",\n'
        f'    "declared_error": "{format_rational(t.declared_error)}",\n'
        f'    "fingerprint": {_json_str(cert.theta_fp)}\n  }},\n'
        f'  "config": {{\n    "R": {c.R},\n    "depth": {c.depth},\n'
        f'    "policy": {_json_str(c.policy)},\n    "seed": {c.seed}\n  }},\n'
        f'  "sequence_fingerprint": {_json_str(cert.sequence_fp)},\n'
        f'  "eta": [\n    "{format_rational(cert.eta[0])}",\n'
        f'    "{format_rational(cert.eta[1])}"\n  ],\n'
        f'  "epsilon": "{format_rational(cert.epsilon)}",\n'
        f'  "height_sq_bound": {cert.height_sq_bound},\n'
        f'  "verified_form_min": "{format_rational(cert.verified_form_min)}",\n'
        f'  "bad_theta_score_at_Q": {score}\n}}\n'
    )


def certificate_json(cert: Certificate) -> str:
    # parse_certificate derives through _certificate_text, so a wrapper of
    # this name (perfbench's journal.write span) sees only the file writes
    return _certificate_text(cert)


def parse_certificate(text: str) -> Certificate:
    obj = _loads(text, "certificate")
    if (
        not isinstance(obj, dict)
        or obj.get("kind") != "certificate"
        or obj.get("schema") != SCHEMA
    ):
        raise ConfigError("not a certificate file of a supported schema")
    t = _get(obj, "theta", dict)
    score = obj.get("bad_theta_score_at_Q", "missing")
    if score is not None:  # null until verify stamps a score
        s = _get(obj, "bad_theta_score_at_Q", dict)
        score = (_get(s, "Q", int), _rational(s, "score_cubed"))
        # q = 1 alone scores at most (1/2)^3; below 0 or far above, the
        # display score would be complex or overflow a float
        if not 0 <= score[1] <= Fraction(1, 8):
            raise ConfigError(
                f"field 'score_cubed' is {brief_repr(score[1])}, outside [0, 1/8]"
            )
    cert = Certificate(
        theta=_theta(t),
        config=_config(_get(obj, "config", dict)),
        sequence_fp=_get(obj, "sequence_fingerprint", str),
        eta=_rational_pair(obj, "eta"),
        verified_form_min=_rational(obj, "verified_form_min"),
        bad_theta_score_at_Q=score,
    )
    # by bit length first, so that a forged depth never builds R^(2*depth)
    n, bits = 2 * cert.config.depth, cert.config.R.bit_length()
    if not n * (bits - 1) < _get(obj, "height_sq_bound", int).bit_length() <= n * bits + 1:
        raise ConfigError("field 'height_sq_bound' has a bit length R^(2*depth) cannot have")
    derived = json.loads(_certificate_text(cert))
    if score is not None:  # a display float from libm's pow, last digit host-dependent
        got, want = _get(s, "score", float), derived["bad_theta_score_at_Q"]["score"]
        if not isclose(got, want, rel_tol=1e-12):
            raise ConfigError(f"field 'score' is {got!r}, but recomputed it is {want!r}")
        derived["bad_theta_score_at_Q"]["score"] = got
    _check_derived(obj, derived)
    return cert
