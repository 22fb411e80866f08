"""Line-oriented persistence for sieve runs and certificates.

A journal is JSONL: one header line (config, theta, fingerprints, base
corner), one line per completed level, one final line. Every rational is a
"p/q" string, keys are emitted in a fixed order, and nothing time- or
host-dependent is ever written, so identical runs produce byte-identical
files. parse_journal replays the chain from the base corner and checks each
copy it derives: levels, rectangles, windows, totals, the theta fingerprint.
What needs the records (the marks, the pick's clearance, the sequence
fingerprint) is left to crosscheck and to resume, which requires the old
journal's lines to begin the one it writes (check_resume_prefix).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction

from .bestapprox import TYPE1, TYPE2
from .errors import ConfigError
from .rationals import ThetaForm, format_rational, parse_rational, theta_fingerprint
from .sieve import (
    Certificate,
    DangerStats,
    LevelRecord,
    Rectangle,
    RunJournal,
    SieveConfig,
    VectorMark,
    child_rect,
)

SCHEMA = 1


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _rect_pair(rect: Rectangle) -> list[str]:
    return [format_rational(rect.b1), format_rational(rect.b2)]


# The config and theta fields, in the order the journal header and the
# certificate both write them, with the JSON type each config field has.
_CONFIG_FIELDS = {"R": int, "depth": int, "policy": str, "seed": int}
_THETA_FIELDS = ("theta1", "theta2", "declared_error")


def _config_record(cfg: SieveConfig) -> dict:
    return {k: getattr(cfg, k) for k in _CONFIG_FIELDS}


def _theta_record(theta: ThetaForm) -> dict:
    return {k: format_rational(getattr(theta, k)) for k in _THETA_FIELDS}


def _header_record(j: RunJournal) -> dict:
    return {
        "type": "header",
        "schema": SCHEMA,
        **_config_record(j.config),
        **_theta_record(j.theta),
        "theta_fingerprint": j.theta_fp,
        "sequence_fingerprint": j.sequence_fp,
        "base": _rect_pair(j.base),
    }


def _level_record(rec: LevelRecord, cfg: SieveConfig) -> dict:
    s = rec.stats
    return {
        "type": "level",
        "level": rec.level,
        "rect": _rect_pair(rec.rect),
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
        "bounds": cfg.capacity_bounds(),
        "chosen": list(rec.chosen),
    }


def _final_record(final: Rectangle) -> dict:
    return {
        "type": "final",
        "level": final.level,
        "rect": _rect_pair(final),
    }


def journal_text(j: RunJournal) -> str:
    lines = [_dump(_header_record(j))]
    lines.extend(_dump(_level_record(rec, j.config)) for rec in j.levels)
    lines.append(_dump(_final_record(j.final)))
    return "".join(line + "\n" for line in lines)


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
    return SieveConfig(
        **{key: _get(obj, key, kind) for key, kind in _CONFIG_FIELDS.items()}
    )


def _check_derived(stored: dict, derived: dict) -> None:
    """Each stored copy stored[key] must be the value the writer derives,
    derived[key], JSON type included; else ConfigError naming the key."""
    for key, want in derived.items():
        got = stored.get(key)
        if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):
            raise ConfigError(f"field {key!r} is {got!r}, but recomputed it is {want!r}")


def _kind(mark: dict) -> int:
    kind = _get(mark, "kind", int)
    if kind not in (TYPE1, TYPE2):
        raise ConfigError(
            f"field 'kind' is {kind}, neither {TYPE1} (Type1) nor {TYPE2} (Type2)"
        )
    return kind


def _parse_level(rec: dict, rect: Rectangle, cfg: SieveConfig) -> LevelRecord:
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
    _check_derived(rec, _level_record(parsed, cfg))
    return parsed


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
        try:
            records.append((ln, json.loads(line)))
        except json.JSONDecodeError as e:
            raise ConfigError(f"journal line {ln} is not valid JSON: {e}") from None
        if not isinstance(records[-1][1], dict):
            raise ConfigError(f"journal line {ln} is not a JSON object")
    if not records or records[0][1].get("type") != "header":
        raise ConfigError("journal does not start with a header record")
    ln, h = records[0]
    if h.get("schema") != SCHEMA:
        raise ConfigError(f"unsupported journal schema {h.get('schema')}")
    with _at_line(ln):
        theta = _theta(h)
        cfg = _config(h)
        tfp = theta_fingerprint(theta)
        _check_derived(h, {"theta_fingerprint": tfp})
        sfp = _get(h, "sequence_fingerprint", str)
        base = rect = Rectangle(*_rational_pair(h, "base"), 0)
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
                levels.append(_parse_level(rec, rect, cfg))
                rect = child_rect(rect, cfg, *levels[-1].chosen)
            else:
                _check_derived(rec, _final_record(rect))
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


def _certificate_record(cert: Certificate) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "certificate",
        "theta": {**_theta_record(cert.theta), "fingerprint": cert.theta_fp},
        "config": _config_record(cert.config),
        "sequence_fingerprint": cert.sequence_fp,
        "eta": [format_rational(cert.eta[0]), format_rational(cert.eta[1])],
        "epsilon": format_rational(cert.epsilon),
        "height_sq_bound": cert.height_sq_bound,
        "verified_form_min": format_rational(cert.verified_form_min),
        "bad_theta_score_at_Q": None
        if cert.bad_theta_score_at_Q is None
        else {
            "Q": cert.bad_theta_score_at_Q[0],
            "score_cubed": format_rational(cert.bad_theta_score_at_Q[1]),
            "score": float(cert.bad_theta_score_at_Q[1]) ** (1.0 / 3.0),
        },
    }


def certificate_json(cert: Certificate) -> str:
    return json.dumps(_certificate_record(cert), indent=2) + "\n"


def parse_certificate(text: str) -> Certificate:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"certificate is not valid JSON: {e}") from None
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
    cert = Certificate(
        theta=_theta(t),
        config=_config(_get(obj, "config", dict)),
        sequence_fp=_get(obj, "sequence_fingerprint", str),
        eta=_rational_pair(obj, "eta"),
        verified_form_min=_rational(obj, "verified_form_min"),
        bad_theta_score_at_Q=score,
    )
    derived = _certificate_record(cert)
    _check_derived(t, {"fingerprint": derived["theta"]["fingerprint"]})
    _check_derived(obj, {k: derived[k] for k in ("epsilon", "height_sq_bound")})
    return cert
