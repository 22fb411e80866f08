"""Self-test of the benchmark harness: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_harness.py

Uses a seed other than the reference's default seed, so outputs are checked
structurally (tiny sizes have no recorded digests).
"""

import json
import re
import sys

import pytest

import run
import spans
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_names_are_well_formed():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run(workload):
    result = run.run_workload(workload, seed=1, seconds=0, trace=False, size="tiny")
    assert result["correct"], result["notes"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run(workload):
    result = run.run_workload(workload, seed=1, seconds=0, trace=True, size="tiny")
    assert result["correct"], result["notes"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("per_layer")
    # self times partition the traced spans, which lie inside the traced rounds
    own = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    own += sum(metrics[k] for k in (
        "modmin.first_reaching.s", "sieve.select_base.s", "sieve.dangerous_children.s",
        "sieve.gap_condition.s", "sieve.form_min.s", "verify.linear_form_score.s",
        "verify.bad_theta_score.s", "verify.bad_alpha_beta_score.s",
        "journal.write.s", "journal.parse.s"))
    assert 0 < own <= metrics["trace.wall_s"]
    if WORKLOADS[workload].needs_kills:
        assert metrics["sieve.union_kills"] > 0
    for module, attr, _span, _count in spans.TARGETS:
        fn = getattr(sys.modules[f"badsieve.{module}"], attr)
        assert not hasattr(fn, "__wrapped__"), f"{module}.{attr} still wrapped"
