"""The four badsieve workloads and the checks on their outputs.

Each workload's setup builds its inputs from the benchmark seed and returns
one round of ops: the fixed unit of work the runner repeats. An op's run()
is the timed call; its outcome() collects the outputs afterwards, untimed.
The package's modules arrive as a namespace (see run.load_badsieve), so the
tracer can replace functions on them between rounds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

PAIRS = ("sqrt2-sqrt3", "golden-pair", "liouville")
REFERENCE = Path(__file__).with_name("reference.json")

# "full" is what the benchmark measures; "tiny" is for the harness self-test.
SIZES = {
    "full": {
        "certify-desk": {"R": 16, "depth": 4},
        "sieve-wide": {"R": 256, "depth": 1},
        "seed-sweep": {"R": 8, "depth": 3, "seeds": 100},
        "verify-scan": {"R": 16, "depth": 2, "Q": 10**6},
    },
    "tiny": {
        "certify-desk": {"R": 8, "depth": 2},
        "sieve-wide": {"R": 16, "depth": 1},
        "seed-sweep": {"R": 8, "depth": 2, "seeds": 3},
        "verify-scan": {"R": 8, "depth": 1, "Q": 1000},
    },
}


@dataclass
class Outcome:
    pair: str
    rc: int
    artifacts: dict[str, str] = field(default_factory=dict)  # kind -> text
    Q: int | None = None


@dataclass
class Op:
    label: str  # key of the op's digests in reference.json
    run: Callable[[], object]
    outcome: Callable[[object], Outcome]


def _cli(mods, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return mods.cli.main(argv)


def _read(pair, out_dir, files, written, rc, Q=None) -> Outcome:
    """Read the op's files, then delete the ones it wrote: rewriting an
    existing file in place makes ext4 flush it synchronously (tens of ms),
    a cost of the benchmark's reuse of directories, not of the program."""
    if rc != 0:
        return Outcome(pair, rc)
    out = Outcome(pair, rc, {k: (out_dir / f).read_text() for k, f in files.items()}, Q)
    for f in written:
        (out_dir / f).unlink()
    return out


def setup_construct(mods, seed, workdir, R, depth):
    ops = []
    for pair in PAIRS:
        out = workdir / pair
        argv = ["construct", "--catalog", pair, "--R", str(R), "--depth", str(depth),
                "--policy", "random", "--seed", str(seed)]
        files = {"journal": "journal.jsonl", "certificate": "certificate.json"}
        ops.append(Op(
            label=f"{pair}: {' '.join(argv)}",
            run=partial(_cli, mods, argv + ["--out", str(out)]),
            outcome=partial(_read, pair, out, files, tuple(files.values())),
        ))
    return ops


def _sweep(mods, theta, seq, cfg):
    cert, journal = mods.sieve.run_sieve(theta, cfg, seq)
    return mods.journal.journal_text(journal), mods.journal.certificate_json(cert)


def _sweep_outcome(pair, texts) -> Outcome:
    return Outcome(pair, 0, {"journal": texts[0], "certificate": texts[1]})


def setup_seed_sweep(mods, seed, workdir, R, depth, seeds):
    seqs = {}
    for pair in PAIRS:
        theta = mods.catalog.get_entry(pair).theta
        seqs[pair] = (theta, mods.bestapprox.enumerate_best_approx(theta, R ** (2 * depth)))
    ops = []
    for policy_seed in range(seed * seeds, (seed + 1) * seeds):
        cfg = mods.sieve.SieveConfig(R=R, depth=depth, policy="random", seed=policy_seed)
        for pair in PAIRS:
            ops.append(Op(
                label=f"{pair}: run_sieve R={R} depth={depth} seed={policy_seed}",
                run=partial(_sweep, mods, *seqs[pair], cfg),
                outcome=partial(_sweep_outcome, pair),
            ))
    return ops


def setup_verify_scan(mods, seed, workdir, R, depth, Q):
    ops = []
    for build in setup_construct(mods, seed, workdir, R, depth):
        rc = build.run()
        if rc != 0:
            raise RuntimeError(f"set-up {build.label} exited with {rc}")
    for pair in PAIRS:
        out = workdir / pair
        argv = ["verify", str(out / "certificate.json"), "--Q", str(Q)]
        files = {"certificate": "certificate.json", "verified": "certificate.verified.json"}
        ops.append(Op(
            label=f"{pair}: verify R={R} depth={depth} seed={seed} --Q {Q}",
            run=partial(_cli, mods, argv),
            outcome=partial(_read, pair, out, files, (files["verified"],), Q=Q),
        ))
    return ops


@dataclass(frozen=True)
class Workload:
    setup: Callable
    needs_kills: bool  # non-vacuity: some level must kill children


WORKLOADS = {
    "certify-desk": Workload(setup_construct, needs_kills=False),
    "sieve-wide": Workload(setup_construct, needs_kills=False),
    "seed-sweep": Workload(setup_seed_sweep, needs_kills=True),
    "verify-scan": Workload(setup_verify_scan, needs_kills=False),
}


def digests(artifacts: dict[str, str]) -> dict[str, str]:
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in artifacts.items()}


class Checker:
    """Output-correctness gate. At the reference's default seed every op's
    artifacts must match the recorded SHA-256 digests byte for byte. At any
    seed the structure is checked: the sequence fingerprint matches the
    recorded vectors, journals and certificates re-parse to identical bytes,
    and an independent linear_form_score reproduces verified_form_min > eps.
    """

    def __init__(self, mods, seed, reference):
        self.mods = mods
        self.digests = reference["ops"] if seed == reference["default_seed"] else None
        self.vectors = reference["vectors"]
        self.complete_to = reference["complete_to"]
        self._seqs = {}
        self.union_kills = 0
        self.children = 0

    def problems(self, op: Op, raw) -> list[str]:
        if isinstance(raw, Exception):
            return [f"raised {raw!r}"]
        try:
            out = op.outcome(raw)
            if out.rc != 0:
                return [f"exit code {out.rc}"]
            found = []
            if self.digests is not None and digests(out.artifacts) != self.digests.get(op.label):
                found.append("output SHA-256 differs from the reference")
            if "journal" in out.artifacts:
                found += self._journal(out.artifacts["journal"])
            found += self._certificate(out.pair, out.artifacts["certificate"])
            if "verified" in out.artifacts:
                found += self._verified(out)
            return found
        except Exception as e:  # a malformed output is a failed op, not a crash
            return [f"check raised {e!r}"]

    def sequence(self, pair, H):
        """Best-approximation sequence to H rebuilt from the recorded vectors,
        with m0, zeta and kind recomputed by exact arithmetic."""
        if H > self.complete_to:
            raise ValueError(f"reference vectors are complete only to {self.complete_to}")
        if (pair, H) not in self._seqs:
            ba, rat = self.mods.bestapprox, self.mods.rationals
            theta = self.mods.catalog.get_entry(pair).theta
            vecs = []
            for m1, m2 in self.vectors[pair]:
                h = rat.weighted_height_sq(m1, m2)
                if h > H:
                    break
                zeta, m0 = rat.form_value(theta, m1, m2)
                vecs.append(ba.BestApproxVector(
                    index=len(vecs) + 1, m0=m0, m1=m1, m2=m2, height_sq=h,
                    zeta=zeta, kind=ba.vector_kind(m1, m2)))
            seq = ba.BestApproxSequence(theta=theta, height_sq_max=H, vectors=tuple(vecs))
            seq.validate()
            self._seqs[pair, H] = seq
        return self._seqs[pair, H]

    def _journal(self, text) -> list[str]:
        j = self.mods.journal
        theta, cfg, tfp, sfp, base, levels, final = j.parse_journal(text)
        rebuilt = self.mods.sieve.RunJournal(
            theta=theta, config=cfg, theta_fp=tfp, sequence_fp=sfp,
            base=base, levels=levels, final=final)
        for rec in levels:
            self.union_kills += rec.stats.union_kills
            self.children += rec.stats.union_kills + rec.stats.survivors
        if final is None or j.journal_text(rebuilt) != text:
            return ["journal does not re-parse to identical bytes"]
        return []

    def _certificate(self, pair, text) -> list[str]:
        j = self.mods.journal
        cert = j.parse_certificate(text)
        found = []
        if j.certificate_json(cert) != text:
            found.append("certificate does not re-parse to identical bytes")
        seq = self.sequence(pair, cert.height_sq_bound)
        if cert.sequence_fp != self.mods.bestapprox.sequence_fingerprint(seq):
            found.append("sequence fingerprint differs from the reference vectors")
        form = self.mods.verify.linear_form_score(cert.theta, cert.eta, seq)
        if form.exact_score != cert.verified_form_min or not form.exact_score > cert.epsilon:
            found.append("independent linear_form_score disagrees with verified_form_min")
        return found

    def _verified(self, out: Outcome) -> list[str]:
        j = self.mods.journal
        text = out.artifacts["verified"]
        verified = j.parse_certificate(text)
        stamp = verified.bad_theta_score_at_Q
        found = []
        if j.certificate_json(verified) != text:
            found.append("verified certificate does not re-parse to identical bytes")
        if stamp is None or stamp[0] != out.Q or not stamp[1] > 0:
            found.append(f"verified certificate lacks a positive score at Q={out.Q}")
        original = j.parse_certificate(out.artifacts["certificate"])
        if dataclasses.replace(verified, bad_theta_score_at_Q=None) != original:
            found.append("verified certificate differs from its source beyond the score")
        return found
