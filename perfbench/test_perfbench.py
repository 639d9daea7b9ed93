"""Tests of the benchmark's own files (they run the real program).

    python3 -m pytest perfbench

About half a minute on two cores; the traced all_default runs dominate.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import expected
import run
import tracing
from workloads import WORKLOADS, numeric_sweep_seeds, suite_seed

HERE = Path(__file__).resolve().parent


def _children(jobs):
    """Run (workload, seed, trace) children two at a time."""
    work = HERE / ".work-test"
    dirs = [work / str(i) for i in range(len(jobs))]
    try:
        for d in dirs:
            d.mkdir(parents=True, exist_ok=True)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run.run_child, w, seed, 0, trace, d)
                       for (w, seed, trace), d in zip(jobs, dirs)]
            return [f.result() for f in futures]
    finally:
        shutil.rmtree(work, ignore_errors=True)


@pytest.fixture(scope="module")
def relations_pair():
    return _children([("relations_deep", 0, 0), ("relations_deep", 0, 1)])


@pytest.fixture(scope="module")
def traced_all_twice():
    return _children([("all_default", 0, 1), ("all_default", 0, 1)])


def test_traced_report_bytes_equal_untraced(relations_pair):
    plain, traced = relations_pair
    assert [r["sha256"] for r in plain["reports"]] == \
           [r["sha256"] for r in traced["reports"]]
    assert "spans" in traced and "spans" not in plain


def test_deterministic_counts_repeat(traced_all_twice):
    first, second = (tracing.span_metrics(c["spans"]) for c in traced_all_twice)
    for metric in ("mpoly.solve_exact_calls", "qseries.mul_calls",
                   "symplectic.sample_element_calls", "mpoly.solve_cells",
                   "qseries.term_pairs", "symplectic.samples_kept"):
        assert first[metric] == second[metric] > 0, metric


def test_every_declared_span_records_work(traced_all_twice, relations_pair):
    for name, child in (("all_default", traced_all_twice[0]),
                        ("relations_deep", relations_pair[1])):
        silent = [s for s in WORKLOADS[name].exercises
                  if child["spans"].get(s, {}).get("calls", 0) == 0]
        assert not silent, (name, silent)
    declared = {f"suite.{b}" for b in tracing.BATTERIES} | {"cli.emit_json", *tracing.SPANS}
    assert set(WORKLOADS["all_default"].exercises) == declared


def test_expected_table_scores_zero_and_detects_a_flip(relations_pair):
    for report in relations_pair[0]["reports"]:
        attempted, failed = expected.score(report["selector"], report["statuses"])
        assert attempted == len(report["statuses"]) and failed == []
    report = relations_pair[0]["reports"][0]
    flipped = dict(expected.EXPECTED_STATUS)
    victim = next(iter(report["statuses"]))
    flipped[victim] = "fail" if flipped[victim] == "pass" else "pass"
    attempted, failed = expected.score(report["selector"], report["statuses"], flipped)
    assert failed == [victim] and len(failed) / attempted > 0


def test_crashed_and_missing_checks_count_as_failed():
    attempted, failed = expected.score(
        "boundary", {"boundary.distribution": "pass", "run_boundary.crashed": "fail"})
    assert attempted == 4
    assert set(failed) == {"run_boundary.crashed", "boundary.orders_binary",
                           "boundary.even_exponent_parity"}


def test_numeric_sweep_seeds_differ_from_every_other_seed():
    seen = set()
    for seed in range(10):
        suite_seeds = set(numeric_sweep_seeds(seed))
        assert len(suite_seeds) == 2 and suite_seed(seed) not in suite_seeds
        assert not suite_seeds & seen
        seen |= suite_seeds
    assert numeric_sweep_seeds(13) == numeric_sweep_seeds(3)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
           {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["run_s", "setup_s", "peak_rss_mb"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work-*", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "relations_deep", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
