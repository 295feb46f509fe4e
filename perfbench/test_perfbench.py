"""Tests of the benchmark's own checker, and small-scale smoke runs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "simulate_zipf08.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_corrupted_golden_is_a_failed_operation():
    payload = json.loads(GOLDEN.read_text(encoding="utf-8"))
    ledger = checks.Ledger()
    assert checks.check_golden(ledger, payload, GOLDEN)
    payload["evictions"] += 1
    assert not checks.check_golden(ledger, payload, GOLDEN)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "evictions" in ledger.failures[0]


def test_off_oracle_hit_ratio_is_a_failed_operation():
    che = checks.che_lru_hit_ratio(0.8, 100_000, 5_000)
    assert 0.36 < che < 0.38  # 0.3692 for Zipf(0.8), n=1e5, C=5e3

    def result(hit_ratio):
        return {"requests": 120_000, "uncacheable": 20_000, "hits": round(hit_ratio * 100_000)}

    ledger = checks.Ledger()
    assert checks.check_che(ledger, "lru", result(che + 0.005), che)
    assert not checks.check_che(ledger, "lru", result(che + 0.02), che)
    assert not checks.check_che(ledger, "lru", result(che - 0.02), che)
    assert (ledger.attempted, ledger.failed) == (3, 2)


def test_che_bisection_meets_the_capacity():
    # With the whole universe but one object cached, nearly every request hits.
    assert checks.che_lru_hit_ratio(0.8, 1_000, 999) > 0.99
    assert checks.che_lru_hit_ratio(0.8, 1_000, 10) < checks.che_lru_hit_ratio(0.8, 1_000, 100)


def test_conservation_detects_a_lost_request():
    ledger = checks.Ledger()
    ok = {"requests": 10, "hits": 4, "misses": 3, "stale_misses": 1, "uncacheable": 2}
    assert checks.check_conservation(ledger, "ok", ok)
    assert not checks.check_conservation(ledger, "lost", dict(ok, hits=3))
    assert ledger.failed == 1


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    runner = run.Runner(run.locate_package(), tmp_path, "test", time.perf_counter() + 60)
    ledger = checks.Ledger()
    proc = runner.run(["simulate", "missing.csv", "missing.cfg", "--out", "r.json"])
    assert proc.code == 2
    assert not ledger.command(proc)
    assert ledger.command(runner.run(["--version"]))
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert proc.rss_mb > 0


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# eviction_sweep needs ~1e5 requests before lru_obj5k settles near the Che value.
@pytest.mark.parametrize("workload,scale", [
    ("golden_cli", "0.05"), ("eviction_sweep", "0.3"), ("renewal_ingest", "0.05"),
])
def test_smoke_traced_run(workload, scale):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1",
                  "--scale", scale)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] > 5
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_smoke_untraced_run():
    done = _bench("--workload", "golden_cli", "--seed", "3", "--seconds", "1", "--trace", "0",
                  "--scale", "0.05")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "golden_cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
