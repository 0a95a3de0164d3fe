"""Tests of the benchmark itself (not collected by the library's suite).

    python3 -m pytest perfbench/tests

Each workload runs once per stratum on tiny pools, untraced and traced,
with the same seed.
"""

import json
import os
import shutil
import subprocess
import sys
from itertools import product

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from affine import length, window  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", "--ops", "15"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return report, last


@pytest.fixture(scope="module")
def results():
    return {(w, t): parse(run(w, t)) for w, t in product(WORKLOADS, (0, 1))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_reports_every_end_to_end_metric(results, workload):
    report, last = results[(workload, 0)]
    assert report["failed_frac"] == 0, report["errors"]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 15
    for m in SPEC["end_to_end"]:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reports_every_layer_metric(results, workload):
    report, last = results[(workload, 1)]
    assert report["failed_frac"] == 0, report["errors"]
    names = set(last["metrics"]) | set(report["absent"])
    assert {m["name"] for m in SPEC["per_layer"]} <= names
    zero = {name for name, m in last["metrics"].items() if m["value"] == 0}
    assert zero == set(report["not_exercised"])
    assert last["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert report["env"]["workload"] == workload and report["env"]["seed"] == SEED


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_results_equal_untraced(results, workload):
    assert results[(workload, 0)][0]["results_sha256"] == results[(workload, 1)][0]["results_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_fit_in_traced_wall(results, workload):
    shares = results[(workload, 1)][0]["shares"]
    assert 0 < shares["self_s_sum"] <= shares["traced_call_s"]


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_affine_oracle_length_is_the_word_metric():
    # Breadth-first search over words gives the true length of each element.
    for n in (2, 3, 4):
        dist = {window([], n): 0}
        frontier = [()]
        for depth in range(1, 6):
            nxt = []
            for word in frontier:
                for s in range(1, n + 1):
                    u = window(word + (s,), n)
                    if u not in dist:
                        dist[u] = depth
                        nxt.append(word + (s,))
            frontier = nxt
        for u, d in dist.items():
            assert length(u) == d
