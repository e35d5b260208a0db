"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload with ``--smoke`` (one job per size class, the
cheapest datum first), untraced and traced, and checks that the result
line names every metric of BENCHMARK.json with its unit and that every
job's verdicts pass.  Also checks the kept-pair counters against brute
force, that two traced runs of one seed count the same, and that a
directory holding only the benchmark fails without printing a result.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "bits", "bytes"}

sys.path.insert(0, str(HERE))

from tracer import MASK, SHIFT1, SHIFT2, kept_pairs_1, kept_pairs_3  # noqa: E402


def bench(cwd, workload, trace, seed=3):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    metrics = result_of(bench(ROOT, workload, trace))["metrics"]
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in metrics.items()} == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [result_of(bench(ROOT, workload, 1))["metrics"] for _ in range(2)]
    counts = [{n: m["value"] for n, m in r.items()
               if m["unit"] in COUNT_UNITS or n.endswith("kept_ratio")} for r in runs]
    assert counts[0] == counts[1]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _pack(k, l, j):
    return (k << SHIFT1) | (l << SHIFT2) | j


def test_kept_pairs_match_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        tz, tx, te = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 12)

        def keys():
            return {_pack(rng.randrange(tz + 1), rng.randrange(tx + 1),
                          rng.randrange(te + 1)) for _ in range(rng.randint(0, 30))}
        ca, cb = keys(), keys()
        brute = sum(1 for a in ca for b in cb
                    if (a + b) >> SHIFT1 < tz and ((a + b) >> SHIFT2) & MASK < tx
                    and (a + b) & MASK < te)
        assert kept_pairs_3(ca, cb, tz, tx, te) == brute
        n = rng.randint(1, 20)
        da = {rng.randrange(n + 3) for _ in range(rng.randint(0, 10))}
        db = {rng.randrange(n + 3) for _ in range(rng.randint(0, 10))}
        assert kept_pairs_1(da, db, n) == sum(1 for x in da for y in db if x + y < n)
