"""The benchmark's workloads: inputs they generate, commands they time, checks.

Every workload uses universe 1e5, alpha 0.8, 20 clients and 85 % cacheable
requests. Request counts are the values at scale 1; `--scale` multiplies
the per-client request rate (the smoke test runs small scales). README.md
in this directory says why each workload exists and which layers it moves.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import checks

UNIVERSE = 100_000
ALPHA = 0.8
GOLDEN_SEED = 1234
BASE_EPOCH = 1.0e9  # Squid logs carry Unix time; the synthetic trace starts at 0
URL_PREFIX = "http://bench.invalid/"
MALFORMED_EVERY = 1000

CONFIGS = {
    "zc_2g": {"capacity_bytes": 2_147_483_648, "policy": "zipf_construction",
              "kernel_fraction": 0.333333, "byte_accounting": "true"},
    "lru_obj5k": {"capacity_bytes": 5_000, "policy": "lru", "byte_accounting": "false"},
    "zc_obj5k": {"capacity_bytes": 5_000, "policy": "zipf_construction",
                 "byte_accounting": "false"},
    "lru_200m": {"capacity_bytes": 200_000_000, "policy": "lru", "byte_accounting": "true"},
    "zc_200m": {"capacity_bytes": 200_000_000, "policy": "zipf_construction",
                "byte_accounting": "true"},
    "zc_renew": {"capacity_bytes": 500_000_000, "policy": "zipf_construction",
                 "byte_accounting": "true"},
}


def synth_args(seed: int, rate: float, days: int, out: str, *extra: str) -> list[str]:
    return [
        "synth", "--universe", str(UNIVERSE), "--alpha", str(ALPHA), "--clients", "20",
        "--rate", repr(float(rate)), "--days", str(days), "--cacheable-fraction", "0.85",
        "--seed", str(seed), "--out", out, *extra,
    ]


def write_config(workdir: Path, label: str) -> None:
    lines = [f"{key}={value}" for key, value in CONFIGS[label].items()]
    (workdir / f"{label}.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


def printed_records(proc) -> int | None:
    """Record count from the `N records, ...` line synth and ingest print."""
    first = proc.stdout.split(" ", 1)[0]
    return int(first) if first.isdigit() else None


def load_json(ledger: checks.Ledger, path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        ledger.record(f"read {path.name}", False, str(exc))
        return None


class Workload:
    name = ""
    labels: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()  # removed before each timed iteration

    def __init__(self, seed: int, scale: float, workdir: Path, golden: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.golden = golden
        self.requests = 0

    def setup_commands(self) -> list[list[str]]:
        """zcl commands that generate the inputs; they run during set-up."""
        return []

    def prepare(self, setup_procs) -> None:
        """Benchmark-side input work after the set-up commands."""

    def inputs(self) -> list[str]:
        """Files the set-up leaves for the timed commands."""
        return [f"{label}.cfg" for label in self.labels]

    def oracle(self) -> None:
        """Expected values, computed once after set-up and outside any timing."""

    def timed_commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, ledger: checks.Ledger, procs) -> None:
        raise NotImplementedError


class GoldenCli(Workload):
    """zcl synth (1e6 requests) then zcl simulate at 2 GiB: the ROADMAP golden run."""

    name = "golden_cli"
    labels = ("zc_2g",)
    outputs = ("trace.csv", "golden.json")

    def timed_commands(self):
        return [
            synth_args(self.seed, 50_000 * self.scale, 1, "trace.csv"),
            ["simulate", "trace.csv", "zc_2g.cfg", "--out", "golden.json"],
        ]

    def check(self, ledger, procs):
        synth_proc, _ = procs
        payload = load_json(ledger, self.workdir / "golden.json")
        if payload is None:
            return
        self.requests = printed_records(synth_proc) or 0
        ledger.record("records synthesized == simulated", self.requests == payload["requests"],
                      f"{self.requests} vs {payload['requests']}")
        checks.check_conservation(ledger, "zc_2g", payload)
        if self.seed == GOLDEN_SEED and self.scale == 1.0:
            checks.check_golden(ledger, payload, self.golden)


class EvictionSweep(Workload):
    """One zcl simulate over four small caches, so nearly all time is eviction."""

    name = "eviction_sweep"
    labels = ("lru_obj5k", "zc_obj5k", "lru_200m", "zc_200m")
    outputs = ("sweep.json",)

    def setup_commands(self):
        return [synth_args(self.seed, 15_000 * self.scale, 1, "trace.csv")]

    def prepare(self, setup_procs):
        self.requests = printed_records(setup_procs[0]) or 0

    def inputs(self):
        return ["trace.csv", *super().inputs()]

    def oracle(self):
        cap = CONFIGS["lru_obj5k"]["capacity_bytes"]
        self.che = checks.che_lru_hit_ratio(ALPHA, UNIVERSE, cap)

    def timed_commands(self):
        return [["simulate", "trace.csv", *(f"{label}.cfg" for label in self.labels),
                 "--out", "sweep.json"]]

    def check(self, ledger, procs):
        results = load_json(ledger, self.workdir / "sweep.json")
        if results is None:
            return
        if not ledger.record("one result per config", len(results) == len(self.labels),
                             f"{len(results)} results"):
            return
        for label, result in zip(self.labels, results):
            ledger.record(f"requests {label}", result["requests"] == self.requests,
                          f"{result['requests']} vs {self.requests}")
            checks.check_conservation(ledger, label, result)
        checks.check_che(ledger, "lru_obj5k", results[0], self.che)


def render_squid_log(gen_csv: Path, gen_changes: Path, log_path: Path, changes_path: Path):
    """Render a synthetic trace as a Squid access log plus a URL-keyed change log.

    Uncacheable requests become TCP_DENIED or CONNECT lines (alternating by
    rank), and one malformed line follows every MALFORMED_EVERY records.
    Returns (records, malformed lines, cacheable ranks).
    """
    records = malformed = 0
    ranks: list[int] = []
    with open(gen_csv, newline="", encoding="utf-8") as src, \
            open(log_path, "w", encoding="utf-8") as log:
        rows = csv.reader(src)
        next(rows)
        for ts, client, obj, size, cacheable in rows:
            when = f"{BASE_EPOCH + float(ts):.3f}"
            host = f"10.0.0.{int(client[1:]) + 1}"
            url = URL_PREFIX + obj
            rank = int(obj[1:])
            if cacheable == "1":
                ranks.append(rank)
                line = f"{when} 120 {host} TCP_MISS/200 {size} GET {url} - DIRECT/192.0.2.1 text/html"
            elif rank % 2:
                line = f"{when} 2 {host} TCP_DENIED/403 {size} GET {url} - NONE/- text/html"
            else:
                line = f"{when} 900 {host} TCP_MISS/200 {size} CONNECT {url} - DIRECT/192.0.2.1 -"
            log.write(line + "\n")
            records += 1
            if records % MALFORMED_EVERY == 0:
                log.write(f"{when} truncated\n")
                malformed += 1
    with open(gen_changes, newline="", encoding="utf-8") as src, \
            open(changes_path, "w", encoding="utf-8") as out:
        rows = csv.reader(src)
        out.write(",".join(next(rows)) + "\n")
        for obj, ts in rows:
            out.write(f"{URL_PREFIX}{obj},{BASE_EPOCH + float(ts)!r}\n")
    return records, malformed, np.asarray(ranks, dtype=np.int64)


class RenewalIngest(Workload):
    """zcl ingest of a Squid log, then renewal-aware zcl analyze with a cache."""

    name = "renewal_ingest"
    labels = ("zc_renew",)
    outputs = ("ingested.csv", "row.json", "profile.csv")

    def setup_commands(self):
        return [synth_args(self.seed, 7_500 * self.scale, 2, "gen.csv", "--renewal", "rank",
                           "--alpha-r", "0.7", "--changes-out", "gen_changes.csv")]

    def prepare(self, setup_procs):
        w = self.workdir
        self.requests, self.malformed, self.ranks = render_squid_log(
            w / "gen.csv", w / "gen_changes.csv", w / "access.log", w / "changes.csv"
        )

    def inputs(self):
        return ["access.log", "changes.csv", *super().inputs()]

    def oracle(self):
        self.expected = checks.profile_oracle(self.ranks, self.requests)

    def timed_commands(self):
        return [
            ["ingest", "access.log", "ingested.csv"],
            ["analyze", "ingested.csv", "--cache-config", "zc_renew.cfg", "--changes",
             "changes.csv", "--profile-out", "profile.csv", "--out", "row.json"],
        ]

    def check(self, ledger, procs):
        ingest_proc, _ = procs
        expected_line = f"{self.requests} records, {self.malformed} malformed"
        ledger.record("ingest counts", ingest_proc.stdout.strip() == expected_line,
                      f"{ingest_proc.stdout.strip()!r} vs {expected_line!r}")
        row = load_json(ledger, self.workdir / "row.json")
        if row is not None:
            checks.check_profile_row(ledger, row, self.expected)
        checks.check_profile_csv(ledger, self.workdir / "profile.csv", self.expected)


WORKLOADS = {w.name: w for w in (GoldenCli, EvictionSweep, RenewalIngest)}
