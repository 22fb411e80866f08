import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt

import pytest

from badsieve import cli
from badsieve.bestapprox import enumerate_best_approx, sequence_fingerprint
from badsieve.cli import main
from badsieve.catalog import get_entry
from badsieve.errors import ConfigError, IncompleteSequence, PrecisionExhausted
from badsieve.journal import (
    certificate_json,
    journal_text,
    parse_certificate,
    parse_journal,
)
from badsieve.rationals import ThetaForm, dist_to_nearest_int, format_rational, parse_rational
from badsieve.sieve import SieveConfig, run_sieve
from badsieve.verify import (
    bad_theta_score,
    brute_best_approx,
    grid_dangerous_children,
    linear_form_score,
)


def run_cli(*argv):
    return main(list(argv))


def test_unknown_subcommand_is_config_error(capsys):
    assert run_cli("frobnicate") == 5
    assert "config error" in capsys.readouterr().err


def test_unknown_catalog_entry(capsys, tmp_path):
    code = run_cli(
        "best-approx", "--catalog", "nope", "--bound", "4",
        "--out", str(tmp_path / "s.txt"),
    )
    assert code == 5


def test_theta_and_catalog_conflict(tmp_path):
    assert (
        run_cli(
            "best-approx", "--catalog", "sqrt2-sqrt3", "--theta", "1/3,1/7",
            "--bound", "4", "--out", str(tmp_path / "s.txt"),
        )
        == 5
    )


def test_malformed_theta(tmp_path):
    assert (
        run_cli(
            "best-approx", "--theta", "1/3", "--bound", "4",
            "--out", str(tmp_path / "s.txt"),
        )
        == 5
    )


def test_exponent_theta_exits_5(capsys, tmp_path):
    code = run_cli(
        "best-approx", "--theta", "1e-5000,1/3", "--bound", "4",
        "--out", str(tmp_path / "s.txt"),
    )
    assert code == 5
    assert "exponent notation" in capsys.readouterr().err


def test_long_theta_construct_and_verify(tmp_path, capsys):
    # 1500-digit truncations: the verify score has over 4300 digits, past
    # the interpreter's default int/str conversion limit
    digits = 1500
    t1, t2 = (
        "0." + str(isqrt(n * 10 ** (2 * digits)) - 10**digits).zfill(digits)
        for n in (2, 3)
    )
    out = tmp_path / "run"
    code = run_cli(
        "construct", "--theta", f"{t1},{t2}", "--theta-error", f"1/{10**digits}",
        "--R", "4", "--depth", "1", "--out", str(out),
    )
    assert code == 0
    assert run_cli("verify", str(out / "certificate.json"), "--Q", "100") == 0
    capsys.readouterr()
    text = (out / "certificate.verified.json").read_text()
    assert len(text) > 4300
    assert certificate_json(parse_certificate(text)) == text


def test_degenerate_rational_theta_exits_2(capsys, tmp_path):
    code = run_cli(
        "best-approx", "--theta", "2/5,1/3", "--bound", "5",
        "--out", str(tmp_path / "s.txt"),
    )
    assert code == 2
    assert "violation" in capsys.readouterr().err


def test_best_approx_reports_audit_violations(tmp_path, capsys, monkeypatch):
    # each audit prints its first five violations, and either fails the call
    monkeypatch.setattr(cli, "audit_minkowski", lambda seq: [(i, i + 1) for i in range(1, 8)])
    monkeypatch.setattr(cli, "audit_growth", lambda seq: [])
    out = tmp_path / "s.txt"
    argv = ("best-approx", "--catalog", "sqrt2-sqrt3", "--bound", "1000", "--out", str(out))
    assert run_cli(*argv) == 2
    assert capsys.readouterr().out.splitlines()[3:] == [
        "minkowski VIOLATION at index pairs [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]",
        "growth ok (0 violations)",
        f"wrote {out}",
    ]
    monkeypatch.setattr(cli, "audit_minkowski", lambda seq: [])
    monkeypatch.setattr(cli, "audit_growth", lambda seq: [("type1", 1, 29)])
    assert run_cli(*argv) == 2
    assert capsys.readouterr().out.splitlines()[3:5] == [
        "minkowski ok (0 violations)",
        "growth VIOLATION at [('type1', 1, 29)]",
    ]


def test_bound_zero_writes_empty_file(tmp_path):
    out = tmp_path / "s.txt"
    assert (
        run_cli(
            "best-approx", "--catalog", "sqrt2-sqrt3", "--bound", "0",
            "--out", str(out),
        )
        == 0
    )
    assert out.read_text() == ""


def test_negative_bound_exits_5(tmp_path, capsys):
    out = tmp_path / "s.txt"
    assert (
        run_cli(
            "best-approx", "--catalog", "sqrt2-sqrt3", "--bound", "-5",
            "--out", str(out),
        )
        == 5
    )
    assert "negative height bound" in capsys.readouterr().err
    assert not out.exists()


def test_construct_requires_R_and_depth(tmp_path, capsys):
    out = tmp_path / "run"
    for given in ((), ("--R", "8"), ("--depth", "3")):
        code = run_cli("construct", "--catalog", "sqrt2-sqrt3", *given, "--out", str(out))
        assert code == 5
        assert capsys.readouterr() == (
            "", "config error: construct needs --R and --depth (or --resume)\n"
        )
        assert not out.exists()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(
        [
            "construct", "--catalog", "sqrt2-sqrt3", "--R", "8", "--depth", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_construct_outputs_parse(small_run):
    cert = parse_certificate((small_run / "certificate.json").read_text())
    assert cert.config.R == 8 and cert.config.depth == 3
    assert cert.verified_form_min > cert.epsilon
    assert cert.bad_theta_score_at_Q is None


def test_verify_smoke_Q1(small_run, capsys):
    cert_path = small_run / "certificate.json"
    assert run_cli("verify", str(cert_path), "--Q", "1") == 0
    capsys.readouterr()
    stamped = parse_certificate(
        (small_run / "certificate.verified.json").read_text()
    )
    theta = get_entry("sqrt2-sqrt3").theta
    cert = parse_certificate(cert_path.read_text())
    d1 = dist_to_nearest_int(theta.theta1 - cert.eta[0])
    d2 = dist_to_nearest_int(theta.theta2 - cert.eta[1])
    assert stamped.bad_theta_score_at_Q == (1, max(d1, d2) ** 3)


@pytest.mark.parametrize("Q", ["0", "-3"])
def test_verify_bad_Q_fails_before_any_work(small_run, tmp_path, monkeypatch, capsys, Q):
    # the scan bound is checked first: no re-enumeration, nothing printed
    # to stdout, no stamped copy
    def never(*args):
        raise AssertionError("verify enumerated before checking --Q")

    monkeypatch.setattr(cli, "enumerate_best_approx", never)
    target = tmp_path / "stamped.json"
    code = run_cli(
        "verify", str(small_run / "certificate.json"), "--Q", Q, "--out", str(target)
    )
    assert code == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == "config error: scan bound must be >= 1"
    assert not target.exists()


def test_verify_trace_and_out(small_run, tmp_path, capsys):
    cert_path = tmp_path / "certificate.json"
    cert_path.write_bytes((small_run / "certificate.json").read_bytes())
    target = tmp_path / "stamped.json"
    code = run_cli(
        "verify", str(cert_path), "--Q", "1000", "--trace", "--out", str(target)
    )
    assert code == 0
    assert target.exists()
    assert not list(tmp_path.glob("*.verified.json"))
    cert = parse_certificate(cert_path.read_text())
    trace = bad_theta_score(cert.theta, cert.eta, 1000).running_min_trace
    out = capsys.readouterr().out
    printed = re.findall(r"theta record at q=(\d+): cubed=(\S+)", out)
    assert printed == [(str(q), str(cubed)) for q, cubed in trace]


def test_construct_no_survivor_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        "construct", "--catalog", "sqrt2-sqrt3", "--R", "2", "--depth", "2",
        "--policy", "random", "--seed", "1", "--out", str(out),
    )
    assert code == 3
    assert "no survivor" in capsys.readouterr().err
    assert not (out / "journal.jsonl").exists()
    assert not (out / "certificate.json").exists()


def test_verify_tampered_eta_exits_2(small_run, tmp_path, capsys):
    obj = json.loads((small_run / "certificate.json").read_text())
    obj["eta"][0] = "1/3"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj, indent=2))
    assert run_cli("verify", str(bad), "--Q", "10") == 2
    assert "violation" in capsys.readouterr().err


def test_verify_tampered_fingerprint_exits_5(small_run, tmp_path):
    obj = json.loads((small_run / "certificate.json").read_text())
    obj["sequence_fingerprint"] = "sha256:" + "0" * 32
    bad = tmp_path / "fp.json"
    bad.write_text(json.dumps(obj, indent=2))
    assert run_cli("verify", str(bad), "--Q", "10") == 5


def _forge_height_bound(obj):
    # a height bound of 1 with the fingerprint and form minimum that verify
    # recomputes for it: only the bound's own derivation can tell
    theta = get_entry("sqrt2-sqrt3").theta
    eta = tuple(map(parse_rational, obj["eta"]))
    seq = enumerate_best_approx(theta, 1)
    obj["height_sq_bound"] = 1
    obj["sequence_fingerprint"] = sequence_fingerprint(seq)
    obj["verified_form_min"] = format_rational(
        linear_form_score(theta, eta, seq).exact_score
    )


def _unreduced(text):
    """The rational 'p/q' written as '2p/2q'."""
    p, q = map(int, text.split("/"))
    return f"{2 * p}/{2 * q}"


# Certificate fields that copy what theta and config determine, forged, and
# the text the rejection must name.
FORGED = {
    "epsilon": (lambda o: o.update(epsilon=f"1/{10**12}"), "'epsilon'"),
    "height_sq_bound": (_forge_height_bound, "'height_sq_bound'"),
    "theta-fingerprint": (
        lambda o: o["theta"].update(fingerprint="sha256:" + "0" * 32),
        "'fingerprint'",
    ),
    "R-1": (lambda o: o["config"].update(R=1), "R must be at least 2"),
    # the same eta, written over twice its denominator
    "eta-unreduced": (lambda o: o["eta"].__setitem__(0, _unreduced(o["eta"][0])), "'eta'"),
    "policy-foo": (lambda o: o["config"].update(policy="foo"), "policy must be"),
}


@pytest.mark.parametrize("case", sorted(FORGED))
def test_verify_forged_derived_field_exits_5(small_run, tmp_path, capsys, case):
    forge, named = FORGED[case]
    obj = json.loads((small_run / "certificate.json").read_text())
    forge(obj)
    bad = tmp_path / "forged.json"
    bad.write_text(json.dumps(obj, indent=2))
    assert run_cli("verify", str(bad), "--Q", "10") == 5
    err = capsys.readouterr().err
    assert "config error" in err and named in err, err
    assert not (tmp_path / "forged.verified.json").exists()


def test_parse_journal_rejects_bool_total(small_run):
    lines = (small_run / "journal.jsonl").read_text().splitlines()
    assert '"type1_total":0,' in lines[1] and '"union_kills":0,' in lines[1]
    lines[1] = lines[1].replace('"type1_total":0,', '"type1_total":false,')
    with pytest.raises(ConfigError, match="type1_total"):
        parse_journal("\n".join(lines))


def test_closed_stdout_exits_141():
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes anything
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "badsieve", "catalog", "list"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert "config error" not in proc.stderr


def test_longer_sequence_certifies_its_bound(tmp_path):
    # records complete beyond R^(2 depth) certify, and fingerprint, only
    # those up to that bound, which is what verify re-enumerates
    theta = get_entry("sqrt2-sqrt3").theta
    cfg = SieveConfig(R=8, depth=2)
    exact = run_sieve(theta, cfg, enumerate_best_approx(theta, 8**4))
    longer = run_sieve(theta, cfg, enumerate_best_approx(theta, 8**6))
    assert journal_text(longer[1]) == journal_text(exact[1])
    text = certificate_json(longer[0])
    assert text == certificate_json(exact[0])
    path = tmp_path / "certificate.json"
    path.write_text(text)
    assert run_cli("verify", str(path), "--Q", "10") == 0


def test_failed_replace_keeps_old_certificate(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "certificate.json").write_text("old\n")
    replace = os.replace

    def fail_certificate(src, dst):
        if os.path.basename(dst) == "certificate.json":
            raise OSError("replace failed")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_certificate)
    code = run_cli(
        "construct", "--catalog", "golden-pair", "--R", "8", "--depth", "1",
        "--out", str(out),
    )
    assert code == 5
    assert "replace failed" in capsys.readouterr().err
    assert (out / "certificate.json").read_text() == "old\n"
    # the certificate's temp file is gone; the journal was replaced first
    assert sorted(p.name for p in out.iterdir()) == [
        "certificate.json", "journal.jsonl"
    ]


def test_verify_missing_file_exits_5(tmp_path):
    assert run_cli("verify", str(tmp_path / "absent.json")) == 5


def test_resume_reproduces_outputs(small_run, tmp_path, capsys):
    journal = (small_run / "journal.jsonl").read_text()
    lines = journal.splitlines()
    trunc = tmp_path / "trunc.jsonl"
    trunc.write_text("\n".join(lines[:3]) + "\n")  # header + 2 levels
    out = tmp_path / "resumed"
    assert run_cli("construct", "--resume", str(trunc), "--out", str(out)) == 0
    assert (out / "journal.jsonl").read_text() == journal
    assert (out / "certificate.json").read_text() == (
        small_run / "certificate.json"
    ).read_text()


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--R", "16"), "--R 16 conflicts with the resume journal's R=8"),
        (("--depth", "4"), "--depth 4 conflicts with the resume journal's depth=3"),
        (
            ("--policy", "random"),
            "--policy random conflicts with the resume journal's policy=lex",
        ),
        (("--seed", "3"), "--seed 3 conflicts with the resume journal's seed=0"),
        (("--theta", "1/3,1/7"), "--resume journal was built for a different theta"),
    ],
    ids=["R", "depth", "policy", "seed", "theta"],
)
def test_resume_flag_conflict(small_run, tmp_path, capsys, flags, message):
    out = tmp_path / "resumed"
    code = run_cli(
        "construct", "--resume", str(small_run / "journal.jsonl"), *flags, "--out", str(out)
    )
    assert code == 5
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("case", ["best-approx", "construct", "resume", "crosscheck"])
def test_theta_error_without_theta_exits_5(small_run, tmp_path, capsys, case):
    out = tmp_path / "out"
    argv = {
        "best-approx": ["best-approx", "--catalog", "sqrt2-sqrt3", "--bound", "3600"],
        "construct": ["construct", "--catalog", "golden-pair", "--R", "4", "--depth", "1"],
        "resume": ["construct", "--resume", str(small_run / "journal.jsonl")],
        "crosscheck": ["crosscheck"],
    }[case]
    out_flag = [] if case == "crosscheck" else ["--out", str(out)]
    assert run_cli(*argv, "--theta-error", "1/10", *out_flag) == 5
    assert capsys.readouterr() == (
        "", "config error: --theta-error applies only to an inline --theta pair\n"
    )
    assert not out.exists()


def test_seed_past_the_digit_limit_exits_5(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        "construct", "--catalog", "golden-pair", "--R", "4", "--depth", "1",
        "--seed", "1" + "0" * 5000, "--out", str(out),
    )
    assert code == 5
    assert capsys.readouterr() == (
        "", "config error: seed must have at most 4300 decimal digits\n"
    )
    assert not out.exists()


def test_resume_accepts_flags_equal_to_the_journal(small_run, tmp_path, capsys):
    out = tmp_path / "resumed"
    code = run_cli(
        "construct", "--resume", str(small_run / "journal.jsonl"),
        "--catalog", "sqrt2-sqrt3", "--R", "8", "--depth", "3",
        "--policy", "lex", "--seed", "0", "--out", str(out),
    )
    assert code == 0
    for name in ("journal.jsonl", "certificate.json"):
        assert (out / name).read_bytes() == (small_run / name).read_bytes()


def test_construct_defaults_are_lex_and_seed_0(small_run, tmp_path, capsys):
    # no --policy and --seed: the same bytes as the config's own defaults
    out = tmp_path / "explicit"
    code = run_cli(
        "construct", "--catalog", "sqrt2-sqrt3", "--R", "8", "--depth", "3",
        "--policy", "lex", "--seed", "0", "--out", str(out),
    )
    assert code == 0
    for name in ("journal.jsonl", "certificate.json"):
        assert (out / name).read_bytes() == (small_run / name).read_bytes()
    assert parse_certificate((out / "certificate.json").read_text()).config == SieveConfig(
        R=8, depth=3
    )


def test_construct_threads_flag_is_unknown(tmp_path, capsys):
    code = run_cli(
        "construct", "--catalog", "golden-pair", "--R", "4", "--depth", "2",
        "--threads", "3", "--out", str(tmp_path),
    )
    assert code == 5
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


# Structurally wrong journals and certificates: valid JSON, wrong shape.
# Each maker gets the small run's (journal text, certificate text).
MALFORMED = {
    "journal-header-only": (
        "construct", lambda j, c: '{"type":"header","schema":1}\n'
    ),
    "journal-R-string": ("construct", lambda j, c: j.replace('"R":8', '"R":"8"', 1)),
    "journal-line-array": ("construct", lambda j, c: j + "[1,2]\n"),
    "journal-level-no-chosen": (
        "construct", lambda j, c: j.replace(',"chosen":[', ',"picked":[', 1)
    ),
    "journal-mark-gap-ok-string": (
        "construct",
        lambda j, c: re.sub(r'"gap_ok":(true|false)', r'"gap_ok":"\1"', j, count=1),
    ),
    "certificate-array": ("verify", lambda j, c: "[1,2]"),
    "certificate-no-theta": ("verify", lambda j, c: '{"kind":"certificate","schema":1}'),
    "certificate-eta-number": (
        "verify", lambda j, c: c.replace('"eta": [', '"eta": [1, ', 1)
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_5(small_run, tmp_path, capsys, case):
    command, make = MALFORMED[case]
    text = make(
        (small_run / "journal.jsonl").read_text(),
        (small_run / "certificate.json").read_text(),
    )
    path = tmp_path / "input"
    path.write_text(text)
    if command == "construct":
        argv = ["construct", "--resume", str(path), "--out", str(tmp_path / "o")]
    else:
        argv = ["verify", str(path), "--Q", "1"]
    assert run_cli(*argv) == 5
    assert "config error" in capsys.readouterr().err


def _resume_text(tmp_path, text):
    """Resume from a journal with the given text; returns (exit code,
    output dir)."""
    path = tmp_path / "resume.jsonl"
    path.write_text(text)
    out = tmp_path / "resumed"
    return run_cli("construct", "--resume", str(path), "--out", str(out)), out


def _resume_from(small_run, tmp_path, edit, levels=1):
    """Resume from the header + the first levels of the small run after
    edit(records) has tampered with the parsed records."""
    lines = (small_run / "journal.jsonl").read_text().splitlines()[: 1 + levels]
    records = [json.loads(line) for line in lines]
    edit(records)
    return _resume_text(
        tmp_path,
        "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records),
    )


@pytest.mark.parametrize(
    "keys",
    [
        ("theta_fingerprint",),
        ("sequence_fingerprint",),
        ("theta_fingerprint", "sequence_fingerprint"),
    ],
)
def test_resume_tampered_fingerprint_exits_5(small_run, tmp_path, capsys, keys):
    def zero(records):
        for key in keys:
            records[0][key] = "sha256:" + "0" * 32

    code, out = _resume_from(small_run, tmp_path, zero)
    assert code == 5
    err = capsys.readouterr().err
    if "theta_fingerprint" in keys:
        # parse_journal recomputes it, before the prefix compare runs
        assert "journal line 1: field 'theta_fingerprint'" in err
    else:
        assert "resume journal line 1 differs" in err
        assert all(key in err for key in keys)
    assert not (out / "journal.jsonl").exists()


def test_resume_tampered_window_exits_5(small_run, tmp_path, capsys):
    code, out = _resume_from(
        small_run, tmp_path, lambda records: records[1]["window1"].append(99)
    )
    assert code == 5
    err = capsys.readouterr().err
    assert "journal line 2: field 'window1'" in err
    assert not (out / "journal.jsonl").exists()


def _swap_windows(records):
    rec = records[1]
    rec["window1"], rec["window2"] = rec["window2"], rec["window1"]


# Edits of the small run's complete journal (header, levels 0-2, final on
# lines 1-5) that change a copy of what the base and the chosen chain
# determine, with the line and the key the rejection must name. Moving the
# base moves every rectangle the chain derives from it.
UNDERIVED = {
    "final-rect": (lambda r: r[-1].update(rect=["1/3", "1/3"]), 5, "'rect'"),
    "final-level": (lambda r: r[-1].update(level=99), 5, "'level'"),
    "level-1-rect": (lambda r: r[2].update(rect=["1/3", "1/3"]), 3, "'rect'"),
    "base": (lambda r: r[0].update(base=["1/7", "1/7"]), 2, "'rect'"),
    # the same base corner, written over twice its denominators
    "base-unreduced": (
        lambda r: r[0].update(base=[_unreduced(x) for x in r[0]["base"]]), 1, "'base'"
    ),
    "window1-99": (lambda r: r[1]["window1"].append(99), 2, "'window1'"),
    "windows-swapped": (_swap_windows, 2, "'window1'"),
    "theta-fingerprint": (
        lambda r: r[0].update(theta_fingerprint="sha256:" + "0" * 32),
        1,
        "'theta_fingerprint'",
    ),
    "chosen-1e6": (lambda r: r[1].update(chosen=[10**6, 10**6]), 2, "chosen child"),
}


@pytest.mark.parametrize("case", sorted(UNDERIVED))
def test_parse_journal_rejects_underived_copy(small_run, tmp_path, capsys, case):
    edit, ln, key = UNDERIVED[case]
    journal = (small_run / "journal.jsonl").read_text()
    records = [json.loads(line) for line in journal.splitlines()]
    edit(records)
    text = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    with pytest.raises(ConfigError, match=f"^journal line {ln}: .*{key}"):
        parse_journal(text)
    code, out = _resume_text(tmp_path, text)
    assert code == 5
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_parse_journal_rejects_unknown_kind(small_run, tmp_path, capsys):
    # kind 7 is neither Type1 nor Type2; with the mark's index dropped from
    # window2, every copy the parser derives still agrees with the marks
    records = [
        json.loads(line)
        for line in (small_run / "journal.jsonl").read_text().splitlines()
    ]
    mark = next(m for m in records[1]["marks"] if m["kind"] == 2)
    mark["kind"] = 7
    records[1]["window2"].remove(mark["index"])
    text = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    with pytest.raises(ConfigError, match="^journal line 2: field 'kind' is 7"):
        parse_journal(text)
    code, out = _resume_text(tmp_path, text)
    assert code == 5
    assert "journal line 2: field 'kind'" in capsys.readouterr().err
    assert not out.exists()


def test_resume_tampered_kills_exits_5(small_run, tmp_path, capsys):
    # the totals still agree with the marks, so only re-marking can tell
    def inflate(records):
        mark = records[1]["marks"][0]
        mark["kills"] += 5
        records[1]["type1_total" if mark["kind"] == 1 else "type2_total"] += 5

    code, out = _resume_from(small_run, tmp_path, inflate)
    assert code == 5
    assert "marks" in capsys.readouterr().err
    assert not (out / "journal.jsonl").exists()


def test_resume_killed_chosen_exits_5(small_run, tmp_path, capsys):
    theta = get_entry("sqrt2-sqrt3").theta
    cfg = SieveConfig(R=8, depth=3)
    seq = enumerate_best_approx(theta, cfg.height_sq_bound())
    *_, levels, _final = parse_journal((small_run / "journal.jsonl").read_text())
    rec = levels[1]
    killed = [
        (lo, j)
        for k in rec.window1 + rec.window2
        for j, runs in grid_dangerous_children(
            rec.rect, seq.vectors[k - 1], cfg
        ).items()
        for lo, _hi in runs
    ]
    assert killed

    def pick_killed(records):
        records[2]["chosen"] = list(killed[0])

    code, out = _resume_from(small_run, tmp_path, pick_killed, levels=2)
    assert code == 5
    err = capsys.readouterr().err
    assert "line 3 differs from this run's journal in chosen" in err
    assert not (out / "journal.jsonl").exists()


def _extra_level(journal):
    # a level 3 record after the final line: the levels stay consecutive,
    # so only the record order rejects it
    level = journal.splitlines()[-2].replace('"level":2,', '"level":3,', 1)
    assert '"level":3,' in level
    return journal + level + "\n"


def _reformatted_level(journal):
    lines = journal.splitlines()
    lines[1] = json.dumps(json.loads(lines[1]))  # ", " and ": " separators
    return "\n".join(lines[:3]) + "\n"


def _final_first(journal):
    lines = journal.splitlines()
    return "\n".join([lines[0], lines[-1]] + lines[1:-1]) + "\n"


# Edits of the small run's complete journal (header, levels 0-2, final on
# lines 1-5), and what the rejection message must name. The first four
# break the record order that parse_journal checks; a reformatted line
# parses and only the byte-prefix compare rejects it.
EDITED = {
    "extra-level": (
        _extra_level,
        ["journal line 6: found a 'level' record, expected the end of the journal"],
    ),
    "second-final": (
        lambda j: j + j.splitlines()[-1] + "\n",
        ["journal line 6: found a 'final' record, expected the end of the journal"],
    ),
    "final-before-levels": (
        _final_first,
        ["journal line 2: found a 'final' record, expected a 'level' record"],
    ),
    "lowered-depth": (
        lambda j: j.replace('"depth":3,', '"depth":2,', 1),
        ["journal line 4: found a 'level' record, expected a 'final' record"],
    ),
    "reformatted-level": (
        _reformatted_level,
        ["line 2 differs from this run's journal in formatting only"],
    ),
}


@pytest.mark.parametrize("case", sorted(EDITED))
def test_resume_edited_journal_exits_5(small_run, tmp_path, capsys, case):
    edit, messages = EDITED[case]
    journal = (small_run / "journal.jsonl").read_text()
    assert '"depth":3,' in journal
    code, out = _resume_text(tmp_path, edit(journal))
    assert code == 5
    err = capsys.readouterr().err
    assert all(m in err for m in messages), err
    assert not (out / "journal.jsonl").exists()


def test_resume_ignores_blank_lines(small_run, tmp_path):
    journal = (small_run / "journal.jsonl").read_text()
    code, out = _resume_text(tmp_path, journal + "\n")
    assert code == 0
    for name in ("journal.jsonl", "certificate.json"):
        assert (out / name).read_bytes() == (small_run / name).read_bytes()


def test_crosscheck_small(capsys):
    assert (
        run_cli(
            "crosscheck", "--catalog", "sqrt2-sqrt3", "--bound", "100",
            "--R", "4", "--depth", "1",
        )
        == 0
    )
    assert "crosscheck ok" in capsys.readouterr().out


def test_crosscheck_reports_scan_divergence(capsys, monkeypatch):
    def off_by_one(theta, eta, Q):
        rep = bad_theta_score(theta, eta, Q)
        q, cubed = rep.running_min_trace[-1]
        return dataclasses.replace(
            rep, running_min_trace=rep.running_min_trace[:-1] + ((q + 1, cubed),)
        )

    monkeypatch.setattr(cli, "bad_theta_score", off_by_one)
    code = run_cli(
        "crosscheck", "--catalog", "sqrt2-sqrt3", "--bound", "100",
        "--R", "4", "--depth", "1",
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "scan oracle: theta Q=10000 homogeneous: equal" in out
    assert "scan oracle: theta Q=10000 inhomogeneous: DIVERGENCE at entry" in out
    assert "crosscheck FAILED" in out


CROSSCHECK_SMALL = (
    "crosscheck", "--catalog", "sqrt2-sqrt3", "--bound", "100", "--R", "4", "--depth", "1",
)


def test_crosscheck_reports_record_and_strip_divergence(capsys, monkeypatch):
    def short_oracle(theta, bound):
        seq = brute_best_approx(theta, bound)
        return dataclasses.replace(seq, vectors=seq.vectors[:-1])

    def off_row_mark(rect, v, cfg):
        # one extra dangerous run, away from the chosen child (0, 0)
        grid = grid_dangerous_children(rect, v, cfg)
        return {**grid, 1: [(2, 3)]} if (v.m1, v.m2) == (-2, 1) else grid

    monkeypatch.setattr(cli, "brute_best_approx", short_oracle)
    monkeypatch.setattr(cli, "grid_dangerous_children", off_row_mark)
    assert run_cli(*CROSSCHECK_SMALL) == 2
    assert capsys.readouterr().out.splitlines() == [
        "best-approx oracle: theta bound 100: DIVERGENCE at lengths: fast 8 oracle 7",
        "strip oracle: theta level 0 vector (-2,1): DIVERGENCE at "
        "lengths: fast 0 oracle 1",
        "union oracle: theta level 0: union_kills 0 != grid union 2",
        "strip oracle: theta R=4 depth=1: 5 (level, vector) pairs compared; "
        "chosen child and union size checked on 1 levels",
        "scan oracle: theta Q=10000 inhomogeneous: equal",
        "scan oracle: theta Q=10000 homogeneous: equal",
        "crosscheck FAILED",
    ]


def test_crosscheck_reports_pick_and_union_divergence(capsys, monkeypatch):
    def mark_chosen(rect, v, cfg):
        # every vector "kills" the chosen child (0, 0) and its row neighbour
        grid = grid_dangerous_children(rect, v, cfg)
        assert grid == {}
        return {0: [(0, 1)]}

    monkeypatch.setattr(cli, "grid_dangerous_children", mark_chosen)
    assert run_cli(*CROSSCHECK_SMALL) == 2
    vectors = ["(-2,1)", "(3,1)", "(-6,2)", "(-9,1)", "(5,4)"]
    assert capsys.readouterr().out.splitlines() == [
        "best-approx oracle: theta bound 100: 8 vectors equal",
        *(
            f"strip oracle: theta level 0 vector {v}: DIVERGENCE at "
            "lengths: fast 0 oracle 1"
            for v in vectors
        ),
        "pick oracle: theta level 0: chosen child (0, 0) is killed",
        "union oracle: theta level 0: union_kills 0 != grid union 2",
        "strip oracle: theta R=4 depth=1: 5 (level, vector) pairs compared; "
        "chosen child and union size checked on 1 levels",
        "scan oracle: theta Q=10000 inhomogeneous: equal",
        "scan oracle: theta Q=10000 homogeneous: equal",
        "crosscheck FAILED",
    ]


def test_crosscheck_empty_bound(capsys):
    assert (
        run_cli(
            "crosscheck", "--catalog", "golden-pair", "--bound", "0",
            "--R", "4", "--depth", "1",
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "0 vectors equal" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "badsieve", "catalog", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sqrt2-sqrt3" in proc.stdout


# One argv per subcommand with its defaults, one with every flag given.
PARSE_CASES = [
    ["best-approx", "--catalog", "golden-pair", "--bound", "100"],
    ["best-approx", "--theta", "1/3,1/7", "--theta-error", "1/1000", "--bound", "5",
     "--out", "s.txt"],
    ["construct", "--catalog", "liouville", "--R", "16", "--depth", "4"],
    ["construct", "--theta", "0.4,1/3", "--theta-error", "0", "--R", "8", "--depth", "2",
     "--policy", "random", "--seed", "3", "--out", "d", "--resume", "j.jsonl"],
    ["verify", "c.json"],
    ["verify", "c.json", "--Q", "1000", "--trace", "--out", "v.json"],
    ["crosscheck"],
    ["crosscheck", "--catalog", "golden-pair", "--bound", "400", "--R", "5", "--depth", "3"],
    ["catalog", "list"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_command_parser_matches_full_parser(argv):
    full = vars(cli.build_parser().parse_args(argv))
    assert full.pop("command") == argv[0]
    assert vars(cli.parse_args(argv)) == full


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_help_matches_full_parser(command, capsys):
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args([command, "-h"])
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as fast:
        main([command, "-h"])
    assert capsys.readouterr() == expected
    assert full.value.code == fast.value.code == 0
    assert expected.out.startswith(f"usage: badsieve {command} [-h]")


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: badsieve [-h]")
    for name, (help_line, _) in cli.COMMANDS.items():
        assert re.search(rf"^\s+{name}\s+{help_line}$", out, re.M)


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        [],
        ["construct", "--catalog", "golden-pair", "--R", "4", "--depth", "2",
         "--threads", "3"],
        ["construct", "--catalog", "golden-pair", "--R", "4", "--depth", "2",
         "--policy", "best"],
        ["best-approx", "--catalog", "golden-pair"],
        ["catalog", "show"],
    ],
    ids=" ".join,
)
def test_parse_errors_match_full_parser(argv, capsys):
    with pytest.raises(ConfigError) as full:
        cli.build_parser().parse_args(argv)
    with pytest.raises(ConfigError) as fast:
        cli.parse_args(argv)
    assert str(fast.value) == str(full.value)
    assert main(argv) == 5
    assert capsys.readouterr().err == f"config error: {full.value}\n"


def test_a_call_builds_one_parser(small_run, tmp_path, monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser()
    assert len(built) == len(cli.COMMANDS) + 1
    built.clear()
    assert run_cli(
        "construct", "--catalog", "golden-pair", "--R", "4", "--depth", "1",
        "--out", str(tmp_path),
    ) == 0
    assert built == ["badsieve construct"]
    built.clear()
    assert run_cli(
        "verify", str(small_run / "certificate.json"), "--Q", "10",
        "--out", str(tmp_path / "v.json"),
    ) == 0
    assert built == ["badsieve verify"]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
)
def test_main_restores_digit_limit(default_digit_limit, tmp_path, monkeypatch, capsys):
    inside = []

    def catalog(args):
        inside.append(sys.get_int_max_str_digits())
        return 0

    monkeypatch.setattr(cli, "cmd_catalog", catalog)
    assert run_cli("catalog", "list") == 0
    assert inside == [0]  # lifted while the call runs
    assert sys.get_int_max_str_digits() == 4300
    assert run_cli("bogus") == 5
    assert sys.get_int_max_str_digits() == 4300
    assert run_cli(
        "best-approx", "--theta", "2/5,1/3", "--bound", "5", "--out", str(tmp_path / "s.txt"),
    ) == 2
    assert sys.get_int_max_str_digits() == 4300


def _raised(kind, call):
    """The message of the exception of exactly type kind that call raises."""
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind
    return str(exc.value)


def _construct_depth_3000(tmp_path, capsys):
    assert run_cli(
        "construct", "--catalog", "sqrt2-sqrt3", "--R", "16", "--depth", "3000",
        "--out", str(tmp_path),
    ) == 4
    return capsys.readouterr().err


GOLDEN = get_entry("golden-pair").theta

# Calls whose messages hold a number of over 4,300 digits: each returns the
# message of the error it must raise, or the CLI's stderr.
HUGE_NUMBERS = {
    "theta-range": lambda tmp_path, capsys: _raised(
        ConfigError, lambda: ThetaForm(Fraction(10**5000 + 1, 10**5000), Fraction(1, 3))
    ),
    "negative-bound": lambda tmp_path, capsys: _raised(
        ConfigError, lambda: enumerate_best_approx(GOLDEN, -(10**5000))
    ),
    "incomplete": lambda tmp_path, capsys: _raised(
        IncompleteSequence,
        lambda: run_sieve(
            GOLDEN, SieveConfig(R=16, depth=2000), enumerate_best_approx(GOLDEN, 16**4)
        ),
    ),
    "precision": lambda tmp_path, capsys: _raised(
        PrecisionExhausted, lambda: enumerate_best_approx(GOLDEN, 10**5000)
    ),
    "construct": _construct_depth_3000,
}


@pytest.mark.parametrize("case", list(HUGE_NUMBERS))
def test_messages_show_huge_numbers_briefly(default_digit_limit, tmp_path, capsys, case):
    message = HUGE_NUMBERS[case](tmp_path, capsys)
    assert len(message) < 1000, message[:200]
    assert "...(" in message and " digits)" in message, message


def _journal_with_schema(small_run, path, schema):
    text = (small_run / "journal.jsonl").read_text()
    path.write_text(text.replace('"schema":1,', f'"schema":{schema},', 1))
    return ["construct", "--resume", str(path), "--out", str(path.parent / "resumed")]


def _certificate_with_score(small_run, path, cubed):
    assert run_cli(
        "verify", str(small_run / "certificate.json"), "--Q", "10", "--out", str(path)
    ) == 0
    obj = json.loads(path.read_text())
    obj["bad_theta_score_at_Q"]["score_cubed"] = cubed
    path.write_text(json.dumps(obj, indent=2))
    return ["verify", str(path), "--Q", "10", "--out", str(path.parent / "v.json")]


# Stored values that a parser refuses and names in its message: huge ones
# are shown briefly, short ones as they always were.
STORED_VALUES = {
    "schema-huge": (_journal_with_schema, "1" + "0" * 20000, None),
    "schema-2": (_journal_with_schema, "2", "unsupported journal schema 2"),
    "schema-string": (_journal_with_schema, '"1"', "unsupported journal schema '1'"),
    "score-huge": (_certificate_with_score, "1" + "0" * 19999, None),
    "score-1/7": (
        _certificate_with_score, "1/7", "field 'score_cubed' is 1/7, outside [0, 1/8]"
    ),
}


@pytest.mark.parametrize("case", list(STORED_VALUES))
def test_parser_messages_show_stored_values_briefly(
    default_digit_limit, small_run, tmp_path, capsys, case
):
    forge, value, message = STORED_VALUES[case]
    argv = forge(small_run, tmp_path / "forged", value)
    capsys.readouterr()
    assert run_cli(*argv) == 5
    out, err = capsys.readouterr()
    if message is None:
        assert len(err.encode()) < 1000, err[:200]
        assert "...(" in err and " digits)" in err, err
    else:
        assert err == f"config error: {message}\n"


def _nested_journal(small_run):
    header = (small_run / "journal.jsonl").read_text().splitlines()[0]
    return f"{header}\n{'[' * 100000}\n".encode()


# Files the decoder refuses: bytes that are not UTF-8 (a UTF-16 byte order
# mark) and 100,000 nested arrays, as a certificate and as a journal line
UNDECODABLE = {
    "verify-not-utf8": ("verify", lambda run: b"\xff\xfe\x00", "is not UTF-8 text"),
    "resume-not-utf8": ("construct", lambda run: b"\xff\xfe\x00", "is not UTF-8 text"),
    "verify-nested": (
        "verify", lambda run: b"[" * 100000, "certificate is not valid JSON"
    ),
    "resume-nested": ("construct", _nested_journal, "journal line 2 is not valid JSON"),
}


@pytest.mark.parametrize("case", list(UNDECODABLE))
def test_undecodable_file_exits_5(small_run, tmp_path, capsys, case):
    command, make, message = UNDECODABLE[case]
    path = tmp_path / "input"
    path.write_bytes(make(small_run))
    if command == "construct":
        argv = ["construct", "--resume", str(path), "--out", str(tmp_path / "o")]
    else:
        argv = ["verify", str(path), "--Q", "10"]
    assert run_cli(*argv) == 5
    out, err = capsys.readouterr()
    assert err.startswith("config error: ") and err.count("\n") == 1, err[:200]
    assert message in err and len(err.encode()) < 1000, err[:200]
    assert not (tmp_path / "o").exists()


def _forge_R(config, value):
    if value is None:
        del config["R"]
    else:
        config["R"] = value


@pytest.mark.parametrize("case", ["string", "bool", "float", "missing"])
@pytest.mark.parametrize("command", ["construct", "verify"])
def test_config_field_of_the_wrong_type_exits_5(small_run, tmp_path, capsys, command, case):
    value = {"string": "8", "bool": True, "float": 8.0}.get(case)
    path = tmp_path / "input"
    if command == "construct":
        lines = (small_run / "journal.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        _forge_R(header, value)
        lines[0] = json.dumps(header, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        argv = ["construct", "--resume", str(path), "--out", str(tmp_path / "o")]
    else:
        obj = json.loads((small_run / "certificate.json").read_text())
        _forge_R(obj["config"], value)
        path.write_text(json.dumps(obj, indent=2))
        argv = ["verify", str(path), "--Q", "10"]
    assert run_cli(*argv) == 5
    err = capsys.readouterr().err
    named = "field 'R' is missing" if value is None else f"R must be an integer, not {value!r}"
    where = "journal line 1: " if command == "construct" else ""
    assert err == f"config error: {where}{named}\n"


@pytest.fixture(scope="module")
def liouville_depth_2(tmp_path_factory):
    out = tmp_path_factory.mktemp("liouville")
    assert main([
        "construct", "--catalog", "liouville", "--R", "16", "--depth", "2", "--out", str(out)
    ]) == 0
    return out / "certificate.json"


@pytest.mark.parametrize("trace", [False, True])
def test_verify_shows_long_exact_numbers_briefly(liouville_depth_2, tmp_path, capsys, trace):
    # the cubed scores at Q = 10^6 have over 1,000 digits; the verified copy
    # stores them exactly, stdout shows them as error messages do
    capsys.readouterr()
    argv = ["verify", str(liouville_depth_2), "--Q", "1000000", "--out", str(tmp_path / "v")]
    assert run_cli(*argv, *(["--trace"] if trace else [])) == 0
    out = capsys.readouterr().out
    assert max(map(len, out.splitlines())) <= 1100
    assert "...(" in out and " digits)" in out
    stamped = parse_certificate((tmp_path / "v").read_text()).bad_theta_score_at_Q
    assert len(format_rational(stamped[1])) > 1000


def test_verify_refuses_a_scan_block_too_large_to_list(liouville_depth_2, tmp_path, capsys):
    # liouville's spike makes the homogeneous scan's block past q = 10^30
    # hold Q / 10^30 + 1 points: 10^10 at Q = 10^40, refused before listing
    capsys.readouterr()
    target = tmp_path / "v"
    start = time.perf_counter()
    assert run_cli("verify", str(liouville_depth_2), "--Q", str(10**40), "--out", str(target)) == 5
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("config error: q-scan block ") and err.endswith(", over 2^20\n")
    assert "10000000001 points" in err and len(err) < 1000
    assert not target.exists()
    assert run_cli("verify", str(liouville_depth_2), "--Q", str(10**35), "--out", str(target)) == 0


@pytest.mark.parametrize("trace", [False, True])
def test_verify_shows_a_long_scan_bound_briefly(tmp_path, capsys, trace):
    # golden-pair's scans end at Q = 10^1500 with q past 1,000 digits; the
    # verified copy stores Q exactly
    Q = 10**1500
    assert run_cli(
        "construct", "--catalog", "golden-pair", "--R", "8", "--depth", "1", "--out", str(tmp_path)
    ) == 0
    capsys.readouterr()
    argv = ["verify", str(tmp_path / "certificate.json"), "--Q", str(Q)]
    assert run_cli(*argv, *(["--trace"] if trace else [])) == 0
    out = capsys.readouterr().out
    assert max(map(len, out.splitlines())) <= 1100
    assert "Q=10000000000000000000...(1501 digits)" in out
    stamped = parse_certificate((tmp_path / "certificate.verified.json").read_text())
    assert stamped.bad_theta_score_at_Q[0] == Q


def test_construct_shows_long_exact_numbers_briefly(tmp_path, capsys):
    # a 780-digit truncation at R = 10^150, depth 1: eta and the form minimum
    # have over 1,000 digits; the certificate stores them exactly
    S = 10**780
    theta = ThetaForm(
        Fraction(isqrt(2 * S * S) - S, S), Fraction(isqrt(3 * S * S) - S, S), Fraction(1, S)
    )
    argv = [
        "construct", "--theta", f"{format_rational(theta.theta1)},{format_rational(theta.theta2)}",
        "--theta-error", f"1/{S}", "--R", str(10**150), "--depth", "1", "--out", str(tmp_path),
    ]
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out
    assert max(map(len, out.splitlines())) <= 1100
    assert out.count("...(") == 6
    cfg = SieveConfig(R=10**150, depth=1)
    cert, _ = run_sieve(theta, cfg, enumerate_best_approx(theta, cfg.height_sq_bound()))
    assert len(format_rational(cert.eta[0])) > 1000
    assert parse_certificate((tmp_path / "certificate.json").read_text()).eta == cert.eta
