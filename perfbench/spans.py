"""Span tracing of badsieve's layers, from outside the package.

The tracer replaces public functions at the module-level names their callers
look them up by (cli.enumerate_best_approx, sieve.sieve_step, ...) with
wrappers that record one span per call: name, parent span, start and end.
Spans live in flat arrays in memory; after the run they are folded into
per-name totals and self times (a span's duration minus the time its child
spans cover) and into the per-layer metrics. Nothing under src/ changes, so
journal, certificate and sequence bytes stay identical.
"""

from __future__ import annotations

import functools
import time
from array import array


def _records(counts, seq):
    counts["bestapprox.records"] += len(seq.vectors)


def _level(counts, step_result):
    stats = step_result[1].stats
    counts["sieve.children"] += stats.union_kills + stats.survivors
    counts["sieve.union_kills"] += stats.union_kills
    counts["sieve.levels_with_kills"] += stats.union_kills > 0


def _written(counts, text):
    counts["journal.bytes"] += len(text)  # json output is ASCII


def _scan(counts, report):
    # a scan stops early only when it hits an exact zero, at q = argmin
    counts["verify.q_scanned"] += report.argmin if report.score_cubed == 0 else report.bound
    counts["verify.trace_records"] += len(report.running_min_trace)


# (module, attribute, span name, counter fed from the call's result)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("bestapprox", "first_reaching", "modmin.first_reaching", None),
    ("cli", "enumerate_best_approx", "bestapprox.enumerate", _records),
    ("cli", "run_sieve", "sieve.run_sieve", None),
    ("sieve", "run_sieve", "sieve.run_sieve", None),
    ("sieve", "select_base", "sieve.select_base", None),
    ("sieve", "sieve_step", "sieve.sieve_step", _level),
    ("sieve", "dangerous_children", "sieve.dangerous_children", None),
    ("sieve", "gap_condition", "sieve.gap_condition", None),
    ("sieve", "linear_form_score", "sieve.form_min", None),
    ("cli", "linear_form_score", "verify.linear_form_score", None),
    ("cli", "bad_theta_score", "verify.bad_theta_score", _scan),
    ("cli", "bad_alpha_beta_score", "verify.bad_alpha_beta_score", _scan),
    ("cli", "journal_text", "journal.write", _written),
    ("cli", "certificate_json", "journal.write", _written),
    ("journal", "journal_text", "journal.write", _written),
    ("journal", "certificate_json", "journal.write", _written),
    ("cli", "parse_certificate", "journal.parse", None),
    ("cli", "parse_journal", "journal.parse", None),
)

COUNTERS = (
    "bestapprox.records",
    "sieve.children",
    "sieve.union_kills",
    "sieve.levels_with_kills",
    "journal.bytes",
    "verify.q_scanned",
    "verify.trace_records",
)


class Tracer:
    """Records spans while installed; install() and remove() bracket each
    traced round, so untraced rounds run the package's own functions."""

    def __init__(self, mods):
        self._mods = mods
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span, count in TARGETS:
            module = getattr(self._mods, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span, count))

    def remove(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, span, count):
        if span not in self._ids:
            self._ids[span] = len(self.span_names)
            self.span_names.append(span)
        nid = self._ids[span]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(counts, out)
            return out

        return traced

    def totals(self) -> dict[str, list]:
        """span name -> [calls, total seconds, self seconds]."""
        n = len(self.start)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.span_names}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out[self.span_names[self.name[i]]]
            row[0] += 1
            row[1] += dur / 1e9
            row[2] += (dur - covered[i]) / 1e9
        return out


def layer_metrics(tracer: Tracer, traced_rounds, untraced_rounds) -> dict:
    """Per-layer metrics, each per round (work per round is fixed, so the
    counts repeat exactly from run to run)."""
    n = len(traced_rounds)
    totals = tracer.totals()

    def span(name, field):
        return totals.get(name, [0, 0.0, 0.0])[field] / n

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    count = {k: v / n for k, v in tracer.counts.items()}
    kernel_calls = span("modmin.first_reaching", 0)
    scan_s = span("verify.bad_theta_score", 1) + span("verify.bad_alpha_beta_score", 1)
    wall = sum(traced_rounds) / n
    return {
        "modmin.first_reaching.calls": (kernel_calls, "count"),
        "modmin.first_reaching.s": (span("modmin.first_reaching", 1), "s"),
        "modmin.first_reaching.us_per_call": (
            ratio(span("modmin.first_reaching", 1), kernel_calls, 1e6), "us"),
        "bestapprox.enumerate.calls": (span("bestapprox.enumerate", 0), "count"),
        "bestapprox.enumerate.s": (span("bestapprox.enumerate", 1), "s"),
        "bestapprox.enumerate.self_s": (span("bestapprox.enumerate", 2), "s"),
        "bestapprox.records": (count["bestapprox.records"], "count"),
        "bestapprox.records_per_kcall": (
            ratio(count["bestapprox.records"], kernel_calls, 1e3), "1/kcall"),
        "sieve.run_sieve.self_s": (span("sieve.run_sieve", 2), "s"),
        "sieve.select_base.s": (span("sieve.select_base", 1), "s"),
        "sieve.sieve_step.calls": (span("sieve.sieve_step", 0), "count"),
        "sieve.sieve_step.s": (span("sieve.sieve_step", 1), "s"),
        "sieve.sieve_step.self_s": (span("sieve.sieve_step", 2), "s"),
        "sieve.dangerous_children.calls": (span("sieve.dangerous_children", 0), "count"),
        "sieve.dangerous_children.s": (span("sieve.dangerous_children", 1), "s"),
        "sieve.gap_condition.s": (span("sieve.gap_condition", 1), "s"),
        "sieve.form_min.s": (span("sieve.form_min", 1), "s"),
        "sieve.children": (count["sieve.children"], "count"),
        "sieve.union_kills": (count["sieve.union_kills"], "count"),
        "sieve.levels_with_kills": (count["sieve.levels_with_kills"], "count"),
        "sieve.kill_ratio": (
            ratio(count["sieve.union_kills"], count["sieve.children"]), "ratio"),
        "verify.linear_form_score.s": (span("verify.linear_form_score", 1), "s"),
        "verify.bad_theta_score.s": (span("verify.bad_theta_score", 1), "s"),
        "verify.bad_alpha_beta_score.s": (span("verify.bad_alpha_beta_score", 1), "s"),
        "verify.q_scanned": (count["verify.q_scanned"], "count"),
        "verify.ns_per_q": (ratio(scan_s, count["verify.q_scanned"], 1e9), "ns"),
        "verify.trace_records": (count["verify.trace_records"], "count"),
        "journal.write.s": (span("journal.write", 1), "s"),
        "journal.bytes": (count["journal.bytes"], "bytes"),
        "journal.parse.s": (span("journal.parse", 1), "s"),
        "cli.self_s": (span("cli.main", 2), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - sum(untraced_rounds) / len(untraced_rounds), "s"),
    }
