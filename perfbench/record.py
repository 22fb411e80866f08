"""Record the benchmark's reference outputs or its baseline metrics.

    python3 perfbench/record.py reference   # rewrites perfbench/reference.json
    python3 perfbench/record.py baseline    # rewrites perfbench/baseline.json

`reference` enumerates each catalog pair's best-approximation vectors to
COMPLETE_TO and runs every op of every workload once at DEFAULT_SEED,
storing the SHA-256 of each output file. Re-record only when output bytes are
meant to change. `baseline` runs every workload at DEFAULT_SEED in a fresh
process, untraced and traced, for BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import PAIRS, REFERENCE, SIZES, WORKLOADS, digests

DEFAULT_SEED = 0
COMPLETE_TO = 2**32
BASELINE = REFERENCE.with_name("baseline.json")


def record_reference() -> None:
    mods = run.load_badsieve()
    vectors = {}
    for pair in PAIRS:
        seq = mods.bestapprox.enumerate_best_approx(mods.catalog.get_entry(pair).theta, COMPLETE_TO)
        vectors[pair] = [[v.m1, v.m2] for v in seq.vectors]
    ops = {}
    run.TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.TMP_ROOT))
    try:
        for name, workload in WORKLOADS.items():
            for op in workload.setup(mods, DEFAULT_SEED, workdir, **SIZES["full"][name]):
                out = op.outcome(op.run())
                if out.rc != 0:
                    raise SystemExit(f"{op.label} exited with {out.rc}")
                ops[op.label] = digests(out.artifacts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"default_seed": DEFAULT_SEED, "complete_to": COMPLETE_TO, "vectors": vectors, "ops": ops}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


def record_baseline() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    result = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": DEFAULT_SEED,
        "run_seconds": seconds,
        "workloads": {},
    }
    for w in bench["workloads"]:
        entry = result["workloads"][w["name"]] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, run.__file__, "--workload", w["name"],
                 "--seed", str(DEFAULT_SEED), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, check=True)
            out = json.loads(proc.stdout.splitlines()[-1])
            entry[key] = {k: m["value"] for k, m in out["metrics"].items()}
    BASELINE.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    {"reference": record_reference, "baseline": record_baseline}[sys.argv[1]]()
