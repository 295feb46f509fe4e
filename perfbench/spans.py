"""In-memory spans for the traced run, and the traced stand-in for `zcl`.

Run as a script, this file is `python -m zcl` with spans: it wraps the
public functions the CLI calls (one span around each call, named after the
module that owns it), runs `zcl.cli.main` in-process on the given
arguments, and writes the spans as JSON when the command ends:

    python spans.py SPANS_OUT RUN_ID -- synth --universe 100 ... --out t.csv

Every span has a name, start, end, parent, run id, the process's peak RSS
at its end, and the counts the wrapped call returned.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("synth", "trace", "analytics", "model", "simcache", "cli")

# Simulator configurations, keyed by what a SimulationResult records about them.
CONFIG_LABELS = {
    ("zipf_construction", 2_147_483_648, True): "zc_2g",
    ("lru", 5_000, False): "lru_obj5k",
    ("zipf_construction", 5_000, False): "zc_obj5k",
    ("lru", 200_000_000, True): "lru_200m",
    ("zipf_construction", 200_000_000, True): "zc_200m",
    ("zipf_construction", 500_000_000, True): "zc_renew",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._ids = itertools.count()

    def open(self, name: str) -> dict:
        span = {
            "id": f"{os.getpid()}:{next(self._ids)}",
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "attrs": {},
        }
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["rss_mb"] = peak_rss_mb()
        self._stack.remove(span["id"])
        self.spans.append(span)

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)


def _simulation_attrs(result) -> dict:
    key = (result.policy.value, result.capacity_bytes, result.byte_accounting)
    return {
        "label": CONFIG_LABELS.get(key, f"{key[0]}_{key[1]}"),
        "requests": result.requests,
        "hits": result.hits,
        "misses": result.misses,
        "stale_misses": result.stale_misses,
        "uncacheable": result.uncacheable,
        "bypassed": result.bypassed,
        "evictions": len(result.evictions),
        "managing_max": max((s.managing_entries for s in result.occupancy), default=0),
    }


def _wrap(tracer: Tracer, owner, attr: str, name: str, describe=None):
    """Replace owner.attr by a version that records one span per call.

    A generator's span runs until it is exhausted or closed, so it covers
    the work the caller pulls out of it.
    """
    fn = getattr(owner, attr)

    def finish(span, value):
        if describe is not None:
            span["attrs"].update(describe(value))
        tracer.close(span)

    def drain(gen, span):
        n = 0
        try:
            for item in gen:
                n += 1
                yield item
        finally:
            finish(span, n)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            value = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span)
            raise
        if inspect.isgenerator(value):
            return drain(value, span)
        finish(span, value)
        return value

    setattr(owner, attr, staticmethod(wrapper) if inspect.isclass(owner) else wrapper)


def instrument(tracer: Tracer) -> None:
    from zcl import analytics, simcache, synth, trace

    _wrap(tracer, synth, "generate_synthetic_trace", "synth.generate",
          lambda g: {"records": len(g.records)})
    _wrap(tracer, trace, "write_canonical_csv", "trace.csv_write", lambda n: {"records": n})
    _wrap(tracer, trace, "read_canonical_csv", "trace.csv_read", lambda n: {"records": n})
    _wrap(tracer, trace, "parse_squid_log", "trace.squid_parse",
          lambda p: {"lines": p.total_lines, "records": len(p.records)})
    _wrap(tracer, trace, "write_change_log_csv", "trace.changelog_write")
    _wrap(tracer, trace, "read_change_log_csv", "trace.changelog_read")
    _wrap(tracer, simcache, "simulate", "simcache.simulate", _simulation_attrs)
    _wrap(tracer, analytics, "build_popularity_profile", "analytics.profile")
    _wrap(tracer, analytics, "estimate_alpha", "analytics.alpha")
    _wrap(tracer, analytics, "lifetimes_from_evictions", "analytics.lifetimes")
    _wrap(tracer, analytics, "renewal_observables", "analytics.renewal")
    _wrap(tracer, analytics, "export_profile_csv", "analytics.export_profile")
    _wrap(tracer, analytics.MeasurementSummary, "from_simulation", "analytics.summary")


# --- aggregation, used by the benchmark process --------------------------------


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: span durations minus the part covered by child spans."""
    covered: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += duration(span)
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        totals[span["name"].split(".", 1)[0]] += duration(span) - covered[span["id"]]
    return totals


def main(argv: list[str]) -> int:
    out_path, run_id, sep, *zcl_args = argv
    if sep != "--" or not zcl_args:
        raise SystemExit("usage: spans.py SPANS_OUT RUN_ID -- ZCL_ARGS...")
    tracer = Tracer(run_id)
    instrument(tracer)
    from zcl import cli

    try:
        return tracer.call(f"cli.{zcl_args[0]}", cli.main, zcl_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
