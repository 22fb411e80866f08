"""Command-line front end.

Subcommands wire the library modules together and map every failure mode to
a stable exit code (EXIT_CODES) so batch runs can be triaged mechanically.
All numbers in files are exact "p/q" strings or plain integers; outputs carry
no timestamps, so identical configs produce identical bytes. On stdout,
construct and verify show a number whose text is over 1,000 characters as
error messages show it (brief_rational).

Each subcommand's flags are declared once, by its builder in COMMANDS. A
call builds only the parser of the subcommand it names (parse_args), since
building parsers, not parsing, is most of a call's cost; the parser of all
five (build_parser) is built only for -h, a missing or an unknown command,
and gives the same namespace, help and error text.
"""

import argparse
import dataclasses
import os
import sys
from fractions import Fraction
from pathlib import Path

from .bestapprox import (
    audit_growth,
    audit_minkowski,
    enumerate_best_approx,
    export_sequence_lines,
    sequence_fingerprint,
)
from .catalog import catalog_names, get_entry
from .errors import (
    ConfigError,
    DegenerateForm,
    IncompleteSequence,
    InvariantViolation,
    NoBaseFound,
    NoSurvivor,
    PrecisionExhausted,
)
from .journal import (
    certificate_json,
    check_resume_prefix,
    journal_text,
    parse_certificate,
    parse_journal,
    read_file,
)
from .rationals import ThetaForm, brief_rational, parse_rational, theta_fingerprint
from .sieve import CONFIG_FIELDS, POLICIES, SieveConfig, dangerous_children, run_sieve
from .verify import (
    bad_alpha_beta_score,
    bad_theta_score,
    brute_best_approx,
    grid_dangerous_children,
    linear_form_score,
    linear_weighted_min_scan,
    validate_scan_bound,
)

EXIT_CODES = {
    "ok": 0,
    "violation": 2,  # a mathematical claim failed its recheck
    "no_survivor": 3,
    "precision": 4,
    "config": 5,
    "broken_pipe": 141,  # stdout closed early, as 128 + SIGPIPE in a shell
}


def _write_output(path: Path, text: str) -> None:
    """Write through a temporary file beside path and os.replace, so a run
    that dies while writing leaves the old file or the new, never a torn one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    print(f"wrote {path}")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through the config path instead
    def error(self, message):
        raise ConfigError(message)


def _add_theta_flags(p):
    p.add_argument("--catalog", help="named theta pair from the built-in catalog")
    p.add_argument(
        "--theta",
        help='inline pair "T1,T2", each an exact p/q or decimal string',
    )
    p.add_argument(
        "--theta-error",
        help="declared truncation error of an inline --theta pair (p/q or decimal)",
    )


def _resolve_theta(args, required: bool = True) -> ThetaForm | None:
    """The pair --catalog or --theta names; None when neither is given and not required."""
    if args.catalog and args.theta:
        raise ConfigError("give either --catalog or --theta, not both")
    if args.theta_error is not None and not args.theta:
        raise ConfigError("--theta-error applies only to an inline --theta pair")
    if args.catalog:
        return get_entry(args.catalog).theta
    if args.theta:
        parts = args.theta.split(",")
        if len(parts) != 2:
            raise ConfigError('--theta wants exactly two components "T1,T2"')
        error = args.theta_error
        return ThetaForm(
            theta1=parse_rational(parts[0]),
            theta2=parse_rational(parts[1]),
            declared_error=Fraction(0) if error is None else parse_rational(error),
        )
    if required:
        raise ConfigError("a theta source is required: --catalog NAME or --theta T1,T2")
    return None


def _best_approx_flags(p):
    _add_theta_flags(p)
    p.add_argument("--bound", type=int, required=True, help="height_sq ceiling M^2")
    p.add_argument("--out", default="sequence.txt", help="sequence file to write")
    p.set_defaults(func=cmd_best_approx)


def _construct_flags(p):
    _add_theta_flags(p)
    p.add_argument("--R", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--policy", choices=POLICIES)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=".", help="directory for journal + certificate")
    p.add_argument("--resume", help="earlier journal this run's journal must extend")
    p.set_defaults(func=cmd_construct)


def _verify_flags(p):
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--Q", type=int, default=10**5, help="scan bound for the scores")
    p.add_argument(
        "--trace", action="store_true", help="print running-min records and each scan's work"
    )
    p.add_argument("--out", help="verified copy path (default: *.verified.json)")
    p.set_defaults(func=cmd_verify)


def _crosscheck_flags(p):
    _add_theta_flags(p)
    p.add_argument("--bound", type=int, default=3600)
    p.add_argument("--R", type=int, default=8)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=cmd_crosscheck)


def _catalog_flags(p):
    p.add_argument("action", choices=("list",))
    p.set_defaults(func=cmd_catalog)


# subcommand -> (help line, flag builder); the only place flags are declared
COMMANDS = {
    "best-approx": ("enumerate best approximation vectors", _best_approx_flags),
    "construct": ("run the full nested-rectangle descent", _construct_flags),
    "verify": ("recheck a certificate from scratch", _verify_flags),
    "crosscheck": ("run the independent oracles side by side", _crosscheck_flags),
    "catalog": ("built-in theta pairs", _catalog_flags),
}


def build_parser() -> _Parser:
    """The parser of every subcommand, for -h and for a first argument that
    names none of them."""
    parser = _Parser(prog="badsieve")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags) in COMMANDS.items():
        add_flags(sub.add_parser(name, help=help_line))
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), building only the named subcommand's
    parser when argv starts with one: the same prog, flags and messages,
    without the other subcommands' parsers."""
    if argv and argv[0] in COMMANDS:
        parser = _Parser(prog=f"badsieve {argv[0]}")
        COMMANDS[argv[0]][1](parser)
        return parser.parse_args(argv[1:])
    return build_parser().parse_args(argv)


def cmd_best_approx(args) -> int:
    theta = _resolve_theta(args)
    seq = enumerate_best_approx(theta, args.bound)
    print(f"theta {theta_fingerprint(theta)}")
    print(f"sequence {sequence_fingerprint(seq)}")
    print(f"vectors {len(seq.vectors)}  height_sq_max {seq.height_sq_max}")
    bad = False
    for name, where, audit in (
        ("minkowski", "index pairs ", audit_minkowski),
        ("growth", "", audit_growth),
    ):
        found = audit(seq)[:5]
        bad = bad or bool(found)
        print(f"{name} VIOLATION at {where}{found}" if found else f"{name} ok (0 violations)")
    _write_output(Path(args.out), export_sequence_lines(seq))
    return EXIT_CODES["violation"] if bad else EXIT_CODES["ok"]


def _print_level_table(levels, cfg):
    union_bound = cfg.capacity_bounds()["union"]
    head = (
        f"{'level':>5}  {'win1':>4} {'win2':>4}  {'t1_kills':>8} {'t2_kills':>8}"
        f"  {'union':>6} {'survivors':>13}  {'kill_rate':>9}  {'union_bound':>13}"
    )
    print(head)
    for rec in levels:
        s = rec.stats
        window1, window2, type1_total, type2_total = s.by_kind
        print(
            f"{rec.level:>5}  {len(window1):>4} {len(window2):>4}"
            f"  {type1_total:>8} {type2_total:>8}"
            f"  {s.union_kills:>6} {brief_rational(s.survivors):>13}"
            f"  {s.union_kills / cfg.R**3:>9.3e}  {brief_rational(union_bound):>13}"
        )


def cmd_construct(args) -> int:
    # the config flags this call gives; SieveConfig's defaults fill the rest
    given = {
        flag: getattr(args, flag)
        for flag in CONFIG_FIELDS
        if getattr(args, flag) is not None
    }
    old = None
    if args.resume:
        old = read_file(args.resume)
        theta, cfg, *_ = parse_journal(old)
        if _resolve_theta(args, required=False) not in (None, theta):
            raise ConfigError("--resume journal was built for a different theta")
        for flag, value in given.items():
            if value != getattr(cfg, flag):
                raise ConfigError(
                    f"--{flag} {value} conflicts with the resume journal's "
                    f"{flag}={getattr(cfg, flag)}"
                )
    else:
        theta = _resolve_theta(args)
        if "R" not in given or "depth" not in given:
            raise ConfigError("construct needs --R and --depth (or --resume)")
        cfg = SieveConfig(**given)

    if not cfg.scale_valid:
        print(
            "scale advisory: 1000*R^2*ceil(log2 R) = "
            f"{cfg.capacity_bounds()['union']} "
            f">= R^3 = {cfg.R**3}; kill capacity is not a priori sufficient "
            "at this R, measured stats decide"
        )

    seq = enumerate_best_approx(theta, cfg.height_sq_bound())
    print(f"theta {theta_fingerprint(theta)}")
    cert, journal = run_sieve(theta, cfg, seq)
    print(f"sequence {cert.sequence_fp}  vectors {len(seq.vectors)}")
    text = journal_text(journal)
    if old is not None:
        check_resume_prefix(old, text)
    _print_level_table(journal.levels, cfg)
    print(f"eta ({brief_rational(cert.eta[0])}, {brief_rational(cert.eta[1])})")
    found, epsilon = brief_rational(cert.verified_form_min), brief_rational(cert.epsilon)
    print(f"verified_form_min {found} > epsilon {epsilon}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_output(out / "journal.jsonl", text)
    _write_output(out / "certificate.json", certificate_json(cert))
    return EXIT_CODES["ok"]


def _verified_path(cert_path: str, out) -> Path:
    if out:
        return Path(out)
    p = Path(cert_path)
    if p.suffix == ".json":
        return p.with_suffix(".verified.json")
    return Path(str(p) + ".verified.json")


def cmd_verify(args) -> int:
    validate_scan_bound(args.Q)
    cert = parse_certificate(read_file(args.certificate))
    theta = cert.theta
    seq = enumerate_best_approx(theta, cert.height_sq_bound)
    if sequence_fingerprint(seq) != cert.sequence_fp:
        raise ConfigError(
            "sequence fingerprint mismatch: enumeration no longer reproduces "
            "the certificate's vector list"
        )
    print("fingerprints ok")

    form = linear_form_score(theta, cert.eta, seq)
    if args.trace:
        for h, cubed in form.running_min_trace:
            print(f"  form record at height_sq={h}: cubed={brief_rational(cubed)}")
    found, epsilon = brief_rational(form.exact_score), brief_rational(cert.epsilon)
    if form.exact_score != cert.verified_form_min:
        raise InvariantViolation(
            f"linear form minimum {found} does not match the "
            f"certificate's {brief_rational(cert.verified_form_min)}"
        )
    if form.exact_score <= cert.epsilon:
        raise InvariantViolation(f"linear form minimum {found} <= epsilon {epsilon}")
    print(f"linear_form_min {found} > epsilon {epsilon} (matches)")

    rep = bad_theta_score(theta, cert.eta, args.Q)
    if args.trace:
        for q, cubed in rep.running_min_trace:
            print(f"  theta record at q={brief_rational(q)}: cubed={brief_rational(cubed)}")
        _print_scan_work("theta", rep)
    Q = brief_rational(args.Q)
    print(
        f"bad_theta_score Q={Q}: {rep.score:.6e} "
        f"(cubed {brief_rational(rep.score_cubed)}, argmin q={brief_rational(rep.argmin)})"
    )
    if rep.score_cubed == 0:
        raise InvariantViolation("eta lies on the orbit: score hit exact 0")

    hom = bad_alpha_beta_score(theta, args.Q)
    if args.trace:
        _print_scan_work("alpha_beta", hom)
    print(
        f"bad_alpha_beta_score Q={Q}: {hom.score:.6e} "
        f"(cubed {brief_rational(hom.score_cubed)})"
    )

    stamped = dataclasses.replace(
        cert, bad_theta_score_at_Q=(args.Q, rep.score_cubed)
    )
    vpath = _verified_path(args.certificate, args.out)
    _write_output(vpath, certificate_json(stamped))
    return EXIT_CODES["ok"]


def _print_scan_work(name: str, rep) -> None:
    w = rep.work
    print(
        f"  {name} scan: {w['blocks']} blocks, {w['listed']} listed points, "
        f"{w['scored']} q scored"
    )


def _report(label: str, fast, slow, same=None, entries=lambda x: x) -> bool:
    """Print label and how a fast path's result compares with its oracle's:
    same (nothing when None) if they are equal, else DIVERGENCE at the first
    of entries(fast) and entries(slow) that differ, or at both lengths when
    one is a prefix of the other. Returns whether they are equal."""
    if fast == slow:
        if same is not None:
            print(f"{label}: {same}")
        return True
    a, b = entries(fast), entries(slow)
    where = next(
        (f"entry {k}: fast {x} oracle {y}" for k, (x, y) in enumerate(zip(a, b)) if x != y),
        f"lengths: fast {len(a)} oracle {len(b)}",
    )
    print(f"{label}: DIVERGENCE at {where}")
    return False


def cmd_crosscheck(args) -> int:
    theta = _resolve_theta(args, required=False)
    if theta is not None:
        pairs = [("theta", theta)]
    else:
        pairs = [(name, get_entry(name).theta) for name in catalog_names()]

    ok = True
    for name, theta in pairs:
        fast = enumerate_best_approx(theta, args.bound).vectors
        ok &= _report(
            f"best-approx oracle: {name} bound {args.bound}",
            fast,
            brute_best_approx(theta, args.bound).vectors,
            same=f"{len(fast)} vectors equal",
        )

    cfg = SieveConfig(R=args.R, depth=args.depth)
    for name, theta in pairs:
        seq = enumerate_best_approx(theta, cfg.height_sq_bound())
        cert, journal = run_sieve(theta, cfg, seq)
        checked = 0
        for rec in journal.levels:
            killed = set()
            for k in rec.window1 + rec.window2:
                v = seq.vectors[k - 1]
                strip = dangerous_children(rec.rect, v, cfg)
                grid = grid_dangerous_children(rec.rect, v, cfg)
                ok &= _report(
                    f"strip oracle: {name} level {rec.level} vector ({v.m1},{v.m2})",
                    strip,
                    grid,
                    entries=lambda rows: sorted(rows.items()),
                )
                killed.update(
                    (i, j)
                    for j, runs in grid.items()
                    for lo, hi in runs
                    for i in range(lo, hi + 1)
                )
                checked += 1
            if rec.chosen in killed:
                ok = False
                print(
                    f"pick oracle: {name} level {rec.level}: chosen child "
                    f"{rec.chosen} is killed"
                )
            if rec.stats.union_kills != len(killed):
                ok = False
                print(
                    f"union oracle: {name} level {rec.level}: union_kills "
                    f"{rec.stats.union_kills} != grid union {len(killed)}"
                )
        print(
            f"strip oracle: {name} R={cfg.R} depth={cfg.depth}: "
            f"{checked} (level, vector) pairs compared; chosen child and "
            f"union size checked on {len(journal.levels)} levels"
        )

        Q = 10**4
        zero = (Fraction(0), Fraction(0))
        for label, eta, fast in (
            ("inhomogeneous", cert.eta, bad_theta_score(theta, cert.eta, Q)),
            ("homogeneous", zero, bad_alpha_beta_score(theta, Q)),
        ):
            ok &= _report(
                f"scan oracle: {name} Q={Q} {label}",
                fast,
                linear_weighted_min_scan(theta.theta1, theta.theta2, *eta, Q),
                same="equal",
                entries=lambda rep: rep.running_min_trace,
            )

    if not ok:
        print("crosscheck FAILED")
        return EXIT_CODES["violation"]
    print("crosscheck ok")
    return EXIT_CODES["ok"]


def cmd_catalog(args) -> int:
    for name in catalog_names():
        e = get_entry(name)
        print(f"{name}: {e.description}")
        print(f"  theta1 ~ {float(e.theta.theta1):.12f}")
        print(f"  theta2 ~ {float(e.theta.theta2):.12f}")
        print(f"  declared_error {e.theta.declared_error}")
    return EXIT_CODES["ok"]


def main(argv=None) -> int:
    # exact numbers may have any number of digits; Python 3.10.7+ limits
    # int/str conversion to 4300 digits by default. The limit is lifted for
    # this call and the caller's value put back when it returns.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone; point stdout at devnull so that the
        # flush at interpreter exit cannot raise again (Python docs, SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CODES["broken_pipe"]
    except (DegenerateForm, InvariantViolation) as e:
        print(f"violation: {e}", file=sys.stderr)
        return EXIT_CODES["violation"]
    except NoSurvivor as e:
        print(f"no survivor: {e}", file=sys.stderr)
        return EXIT_CODES["no_survivor"]
    except PrecisionExhausted as e:
        print(f"precision exhausted: {e}", file=sys.stderr)
        return EXIT_CODES["precision"]
    except (ConfigError, NoBaseFound, IncompleteSequence, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CODES["config"]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
