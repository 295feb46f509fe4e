"""Operation ledger and the independent oracles the benchmark checks against.

Nothing here imports zcl: every expected value is computed from the
generated inputs or from first principles, never by the code under test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CHE_TOLERANCE = 0.01  # absolute, on the hit ratio over cacheable requests


class Ledger:
    """Counts attempted and failed operations (CLI commands and output checks)."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def command(self, proc) -> bool:
        """A CLI command counts as failed when it exits non-zero."""
        return self.record(
            f"exit {proc.label}", proc.code == 0, f"code {proc.code}: {proc.stderr_tail}"
        )


def che_lru_hit_ratio(alpha: float, universe: int, capacity: int) -> float:
    """Che, Tung & Wang (IEEE JSAC 2002) LRU hit ratio under Zipf(alpha) IRM.

    The characteristic time t solves sum_i (1 - exp(-q_i t)) = capacity and
    is found by bisection; the hit ratio is sum_i q_i (1 - exp(-q_i t)).
    """
    if not 0 < capacity < universe:
        raise ValueError("capacity must lie strictly between 0 and the universe size")
    q = np.arange(1, universe + 1, dtype=float) ** -alpha
    q /= q.sum()

    def occupancy(t: float) -> float:
        return float(-np.expm1(-q * t).sum())

    lo, hi = 0.0, 1.0
    while occupancy(hi) < capacity:
        lo, hi = hi, hi * 2.0
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if occupancy(mid) < capacity:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return float((q * -np.expm1(-q * t)).sum())


def check_conservation(ledger: Ledger, label: str, result: dict) -> bool:
    """hits + misses + stale misses + uncacheable == requests."""
    total = result["hits"] + result["misses"] + result["stale_misses"] + result["uncacheable"]
    return ledger.record(
        f"conservation {label}", total == result["requests"],
        f"{total} outcomes for {result['requests']} requests",
    )


def check_golden(ledger: Ledger, payload: dict, golden_path: Path) -> bool:
    try:
        expected = json.loads(golden_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return ledger.record("golden", False, f"cannot read {golden_path}: {exc}")
    diff = sorted(k for k in expected.keys() | payload.keys() if expected.get(k) != payload.get(k))
    return ledger.record("golden", not diff, f"fields differ: {diff}")


def check_che(ledger: Ledger, label: str, result: dict, expected: float) -> bool:
    cacheable = result["requests"] - result["uncacheable"]
    got = result["hits"] / cacheable if cacheable else math.nan
    return ledger.record(
        f"che {label}", abs(got - expected) <= CHE_TOLERANCE,
        f"hit ratio {got:.4f} vs Che {expected:.4f}",
    )


def profile_oracle(cacheable_ranks: np.ndarray, total_requests: int) -> dict:
    """p, M, k, K of the popularity profile, from a bincount of the ranks."""
    counts = np.bincount(cacheable_ranks)
    return {
        "p": int((counts > 0).sum()),
        "M": int((counts >= 2).sum()),
        "k": int(counts.sum()),
        "K": int(total_requests),
    }


def check_profile_row(ledger: Ledger, row: dict, expected: dict) -> bool:
    got = {key: row.get(key) for key in expected}
    ok = ledger.record("profile p,M,k,K", got == expected, f"{got} vs {expected}")
    if row.get("k_R") is None or row.get("delta_H") is None:
        return ledger.record("renewal split k_R + delta_H*K == k", False, "no renewal split")
    identity = row["k_R"] + row["delta_H"] * row["K"]
    return ledger.record(
        "renewal split k_R + delta_H*K == k",
        math.isclose(identity, row["k"], rel_tol=1e-9),
        f"{identity!r} vs {row['k']}",
    ) and ok


def check_profile_csv(ledger: Ledger, path: Path, expected: dict) -> bool:
    counts = []
    try:
        with open(path, encoding="utf-8") as f:
            next(f)
            counts = [int(line.rsplit(",", 1)[1]) for line in f]
    except (OSError, StopIteration, ValueError, IndexError) as exc:
        return ledger.record("profile csv", False, f"unreadable {path}: {exc}")
    ok = (
        len(counts) == expected["p"]
        and sum(counts) == expected["k"]
        and all(a >= b for a, b in zip(counts, counts[1:]))
    )
    return ledger.record(
        "profile csv", ok, f"{len(counts)} rows summing to {sum(counts)}, expected {expected}"
    )
