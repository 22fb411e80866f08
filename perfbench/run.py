"""badsieve benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload certify-desk --seed 0 --seconds 20 --trace 0

Closed loop, one client: the workload's round of ops (one op at a time) is
repeated until --seconds have elapsed, always finishing the round. Every op's
outputs are checked. --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced rounds and reports the per-layer metrics.
The last line of stdout is the JSON result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import REFERENCE, SIZES, WORKLOADS, Checker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
SETUP_REPEATS = 5
MODULES = ("bestapprox", "catalog", "cli", "journal", "rationals", "sieve", "verify")
TAIL_PERCENTILES = (50, 90, 99, 99.9, 99.99)


def load_badsieve():
    """Fresh import of the package from this checkout's src/, as a namespace
    of its modules."""
    for name in [m for m in sys.modules if m == "badsieve" or m.startswith("badsieve.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("badsieve")
    if Path(pkg.__file__).resolve().parent != SRC / "badsieve":
        raise ImportError(f"badsieve imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"badsieve.{m}") for m in MODULES}
    )


def _run_rounds(ops, checker, seconds, tracer):
    """Repeat the round until `seconds` have elapsed (at least one round; with
    a tracer, alternate untraced and traced rounds, at least one of each).
    Outputs are checked after each round, outside the timed ops."""
    rounds = {False: [], True: []}
    op_times = []
    failures = []
    traced = False
    deadline = time.perf_counter() + seconds
    while True:
        raws, times = [], []
        if traced:
            tracer.install()
        try:
            for op in ops:
                t0 = time.perf_counter()
                try:
                    raws.append(op.run())
                except Exception as e:  # counted as a failed op
                    raws.append(e)
                times.append(time.perf_counter() - t0)
        finally:
            if traced:
                tracer.remove()
        rounds[traced].append(sum(times))
        if not traced:
            op_times += times
        for op, raw in zip(ops, raws):
            problems = checker.problems(op, raw)
            if problems:
                failures.append((op.label, problems))
        if time.perf_counter() >= deadline and rounds[False] and (tracer is None or rounds[True]):
            break
        traced = tracer is not None and not traced
    attempted = len(ops) * (len(rounds[False]) + len(rounds[True]))
    return rounds, op_times, attempted, failures


def op_tail(op_times):
    """(percentile, value) for the highest listed percentile with at least
    ten ops beyond it, or None when there are too few ops."""
    n = len(op_times)
    ranked = sorted(op_times)
    best = None
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            best = (p, ranked[min(n - 1, int(n * p / 100))])
    return best


def run_workload(name, seed, seconds, trace, size="full"):
    workload = WORKLOADS[name]
    params = SIZES[size][name]
    reference = json.loads(REFERENCE.read_text())
    TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            mods = load_badsieve()
            ops = workload.setup(mods, seed, workdir / f"setup{k}", **params)
            setup_times.append(time.perf_counter() - t0)
        checker = Checker(mods, seed, reference)
        tracer = Tracer(mods) if trace else None
        rounds, op_times, attempted, failures = _run_rounds(ops, checker, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes = []
    vacuous = workload.needs_kills and checker.union_kills == 0
    if vacuous:
        notes.append("NON-VACUITY CHECK FAILED: no level killed any child")
    if checker.children:
        notes.append(
            f"kill_ratio {checker.union_kills / checker.children:.6g} "
            f"({checker.union_kills} union kills / {checker.children} children, from the journals)"
        )
    if trace:
        metrics = layer_metrics(tracer, rounds[True], rounds[False])
        n = len(rounds[True])
        for span, (calls, total, own) in sorted(tracer.totals().items()):
            notes.append(f"span {span:<28} calls/round {calls / n:>12.1f}  "
                         f"s/round {total / n:>10.6f}  self s/round {own / n:>10.6f}")
    else:
        metrics = {
            "wall_s": (statistics.median(rounds[False]), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            "op_p50_ms": (statistics.median(op_times) * 1e3, "ms"),
        }
        tail = op_tail(op_times)
        notes.append(
            f"op_tail_ms p{tail[0]} {tail[1] * 1e3:.6g} ms (n={len(op_times)} ops)" if tail
            else f"op_tail_ms omitted: {len(op_times)} ops leave fewer than 10 beyond p50"
        )
    notes.append(f"fail_rate {len(failures) / attempted:.6g} ({len(failures)}/{attempted} ops; "
                 f"{len(rounds[False])} untraced + {len(rounds[True])} traced rounds)")
    for label, problems in failures[:5]:
        notes.append(f"FAILED {label}: {'; '.join(problems)}")
    return {
        "correct": not failures and not vacuous,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "badsieve" / "__init__.py").is_file():
        print(f"no badsieve sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in result.pop("notes"):
        print(f"  {line}")
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
