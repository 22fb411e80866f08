import dataclasses
import json
import os
import re
import subprocess
import sys
from math import isqrt

import pytest

from badsieve import cli
from badsieve.bestapprox import enumerate_best_approx, sequence_fingerprint
from badsieve.cli import main
from badsieve.catalog import get_entry
from badsieve.errors import ConfigError
from badsieve.journal import (
    certificate_json,
    journal_text,
    parse_certificate,
    parse_journal,
)
from badsieve.rationals import dist_to_nearest_int, format_rational, parse_rational
from badsieve.sieve import SieveConfig, run_sieve
from badsieve.verify import (
    bad_theta_score,
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


def test_construct_requires_R_and_depth(tmp_path):
    assert (
        run_cli("construct", "--catalog", "sqrt2-sqrt3", "--out", str(tmp_path))
        == 5
    )


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


def test_resume_flag_conflict(small_run, tmp_path, capsys):
    assert (
        run_cli(
            "construct", "--resume", str(small_run / "journal.jsonl"),
            "--R", "16", "--out", str(tmp_path),
        )
        == 5
    )
    assert "conflicts" in capsys.readouterr().err


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
