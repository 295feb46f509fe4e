#!/usr/bin/env python3
"""Benchmark of the zcl pipeline, run from the root of a checkout:

    python3 perfbench/run.py --workload golden_cli --seed 1234 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --trace 1

A closed loop with one client: the workload's `zcl` commands run one after
another as child processes (`python -m zcl`, PYTHONPATH at the checkout's
src directory), repeated until --seconds have passed, at least three times. Every
command's exit code and every output is checked against an independent
oracle; each command and each check is one operation.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
one untraced iteration, then the set-up and timed commands again through
spans.py, which calls the CLI's public functions in-process with a span
around each, and reports the per-layer metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The full report
and the spans are kept under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import checks
from spans import Tracer, duration, self_times
from workloads import WORKLOADS, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_ITERATIONS = 3  # so that the median sets aside one slow iteration
DEADLINE_S = 170.0  # a run must end within 180 s


def locate_package() -> Path:
    """Import zcl from the checkout's src directory and return that directory."""
    src = ROOT / "src"
    if not (src / "zcl" / "__init__.py").is_file():
        raise SystemExit(f"error: no zcl package under {src}")
    sys.path.insert(0, str(src))
    import zcl

    found = Path(zcl.__file__).resolve().parent.parent
    if found != src.resolve():
        raise SystemExit(f"error: imported zcl from {found}, expected {src}")
    return found


@dataclass
class Proc:
    label: str
    start: float
    end: float
    code: int
    rss_mb: float
    stdout: str
    stderr_tail: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Runner:
    """Runs `zcl` commands in a work directory; one child at a time."""

    def __init__(self, src_dir: Path, workdir: Path, run_id: str, deadline: float):
        self.workdir = workdir
        self.run_id = run_id
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(src_dir))
        self.env.pop("ZCL_THREADS", None)

    def run(self, args: list[str], spans_out: Path | None = None) -> Proc:
        if spans_out is None:
            argv = [sys.executable, "-m", "zcl", *args]
        else:
            argv = [sys.executable, str(HERE / "spans.py"), str(spans_out), self.run_id, "--", *args]
        out_path, err_path = self.workdir / "_stdout.txt", self.workdir / "_stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(1.0, self.deadline - start), child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                killer.cancel()
            end = time.perf_counter()
            child.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            label=args[0],
            start=start,
            end=end,
            code=child.returncode,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr_tail=err_path.read_text(encoding="utf-8", errors="replace")[-400:],
        )


def digest(workdir: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        path = workdir / name
        h.update(name.encode())
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def span_wall(procs: list[Proc]) -> float:
    """From the start of the first command to the exit of the last."""
    return procs[-1].end - procs[0].start


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, cli_procs, startup_times, overhead_s):
    """Every per-layer figure the traced run yields, by metric name."""
    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(duration(s) for s in named(name))

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    def peak(name):
        return max((s["rss_mb"] for s in named(name)), default=0.0)

    m = {
        "synth.generate_s": total("synth.generate"),
        "synth.records_per_s": ratio(attr("synth.generate", "records"), total("synth.generate")),
        "synth.rss_mb": peak("synth.generate"),
        "trace.csv_write_s": total("trace.csv_write"),
        "trace.csv_read_s": total("trace.csv_read"),
        "trace.csv_read_records_per_s": ratio(attr("trace.csv_read", "records"),
                                              total("trace.csv_read")),
        "trace.csv_read.rss_mb": peak("trace.csv_read"),
        "trace.squid_parse_s": total("trace.squid_parse"),
        "trace.squid_lines_per_s": ratio(attr("trace.squid_parse", "lines"),
                                         total("trace.squid_parse")),
        "trace.changelog_read_s": total("trace.changelog_read"),
        "analytics.profile_s": total("analytics.profile"),
        "analytics.export_profile_s": total("analytics.export_profile"),
        "analytics.lifetimes_s": total("analytics.lifetimes"),
        "model.wolman_s": total("model.wolman"),
        "simcache.simulate_s": total("simcache.simulate"),
        "simcache.events_per_s": ratio(attr("simcache.simulate", "requests"),
                                       total("simcache.simulate")),
        "simcache.rss_mb": peak("simcache.simulate"),
        "simcache.hit_ratio": ratio(attr("simcache.simulate", "hits"),
                                    attr("simcache.simulate", "requests")),
        "simcache.evictions": attr("simcache.simulate", "evictions"),
        "simcache.managing_max": max((s["attrs"]["managing_max"]
                                      for s in named("simcache.simulate")), default=0),
        "cli.startup_s": statistics.median(startup_times),
        "tracing.overhead_s": overhead_s,
    }
    for span in named("simcache.simulate"):
        a, key = span["attrs"], f"simcache.{span['attrs']['label']}"
        m[f"{key}.simulate_s"] = duration(span)
        m[f"{key}.events_per_s"] = ratio(a["requests"], duration(span))
        m[f"{key}.rss_mb"] = span["rss_mb"]
        m[f"{key}.hit_ratio"] = ratio(a["hits"], a["requests"])
        for stat in ("evictions", "stale_misses", "bypassed", "managing_max"):
            m[f"{key}.{stat}"] = a[stat]
    for proc in cli_procs:
        m[f"cli.{proc.label}.wall_s"] = proc.wall_s
        m[f"cli.{proc.label}.rss_mb"] = proc.rss_mb
    for layer, seconds in self_times(spans).items():
        m[f"{layer}.self_s"] = seconds
    return m


def wolman_probe(tracer) -> None:
    """One wolman_hit_ratio call at renewal_ingest's parameters (scale 1)."""
    from zcl import model

    renewal = model.RenewalModel(0.8, 0.7, 2.0, 100_000)
    params = model.WolmanParams(
        universe=100_000, alpha=0.8, request_rate=20 * 7_500 * 0.85,
        change_rate=lambda rank: model.mu_of_rank(renewal, rank),
    )
    tracer.call("model.wolman", model.wolman_hit_ratio, params)


def run_workload(name, seed, seconds, trace, scale, src_dir, spec) -> tuple[dict, dict]:
    started = time.perf_counter()
    run_id = f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    workdir = STATE / "work" / run_id
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(src_dir, workdir, run_id, started + DEADLINE_S)
    workload = WORKLOADS[name](seed, scale, workdir, ROOT / "tests" / "golden" / "simulate_zipf08.json")
    ledger = checks.Ledger()
    try:
        # Set-up, repeated; the inputs must come out byte-identical each time.
        setup_times, startup_times, digests = [], [], set()
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            t0 = time.perf_counter()
            warm = runner.run(["--version"])
            for label in workload.labels:
                write_config(workdir, label)
            setup_procs = [runner.run(cmd) for cmd in workload.setup_commands()]
            if not all([ledger.command(p) for p in (warm, *setup_procs)]):
                raise SystemExit("error: set-up failed: " + "; ".join(ledger.failures))
            workload.prepare(setup_procs)
            setup_times.append(time.perf_counter() - t0)
            startup_times.append(warm.wall_s)
            digests.add(digest(workdir, workload.inputs()))
        ledger.record("set-up inputs identical across repeats", len(digests) == 1)
        workload.oracle()

        def iteration(spans_dir=None):
            for out in workload.outputs:
                (workdir / out).unlink(missing_ok=True)
            procs = [
                runner.run(cmd, None if spans_dir is None else spans_dir / f"{i}.json")
                for i, cmd in enumerate(workload.timed_commands())
            ]
            if all([ledger.command(p) for p in procs]):
                workload.check(ledger, procs)
            return procs

        iterations = []
        loop_start = time.perf_counter()
        while True:
            iterations.append(iteration())
            now = time.perf_counter()
            if trace or (len(iterations) >= MIN_ITERATIONS and now - loop_start >= seconds):
                break
            # Leave room for another iteration's checks and the report.
            if now + 1.5 * span_wall(iterations[-1]) > started + DEADLINE_S:
                break
        walls = [span_wall(procs) for procs in iterations]
        report = {"iterations": len(iterations)}
        if not trace:
            metrics = {
                "wall_s": statistics.median(walls),
                "requests_per_s": statistics.median(workload.requests / w for w in walls),
                "peak_rss_mb": statistics.median(max(p.rss_mb for p in it) for it in iterations),
                "setup_s": statistics.median(setup_times),
            }
            declared = spec["end_to_end"]
        else:
            spans_dir = workdir / "_spans"
            spans_dir.mkdir()
            traced_setup = [runner.run(cmd, spans_dir / f"setup{i}.json")
                            for i, cmd in enumerate(workload.setup_commands())]
            for proc in traced_setup:
                ledger.command(proc)
            traced = iteration(spans_dir)
            tracer = Tracer(run_id)
            wolman_probe(tracer)
            spans = tracer.spans
            for path in sorted(spans_dir.glob("*.json")):
                spans.extend(json.loads(path.read_text(encoding="utf-8")))
            for span in spans:
                if span["name"] == "simcache.simulate":
                    checks.check_conservation(ledger, f"traced {span['attrs']['label']}",
                                              span["attrs"])
            (results_dir / f"{run_id}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
            metrics = layer_metrics(spans, [*setup_procs, *iterations[0]], startup_times,
                                    span_wall(traced) - walls[0])
            declared = spec["per_layer"]
        report["metrics"] = dict(sorted(metrics.items()))
        report["context"] = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
            "git_sha": git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "requests": workload.requests,
            "input_bytes": {f: (workdir / f).stat().st_size for f in workload.inputs()
                            if (workdir / f).is_file()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    ledger.record("every declared metric measured", not missing, f"missing {missing}")
    report["failures"] = ledger.failures
    report["failed_ops"] = ratio(ledger.failed, ledger.attempted)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in declared
        },
    }
    report["result"] = result
    (results_dir / f"{run_id}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return result, report


def print_report(name: str, report: dict, units: dict) -> None:
    print(f"== {name}: {report['iterations']} timed iteration(s), "
          f"{report['context']['requests']} requests")
    for key, value in report["metrics"].items():
        print(f"  {key:40s} {value:16.6f} {units.get(key, _unit_of(key))}")
    print(f"  {'failed_ops':40s} {report['failed_ops']:16.6f} ratio")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print(f"  context {json.dumps(report['context'], sort_keys=True)}")


def _unit_of(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith("rss_mb"):
        return "MB"
    return "ratio" if key.endswith("hit_ratio") else "count"


def main(argv=None) -> int:
    from_spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="eviction_sweep runs only when named or with all; "
                             "BENCHMARK.json declares the others")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=from_spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every workload's request rate (smoke tests)")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1 or args.scale <= 0:
        parser.error("--seed must be >= 0, --seconds >= 1 and --scale > 0")
    src_dir = locate_package()
    units = {m["name"]: m["unit"] for m in from_spec["end_to_end"] + from_spec["per_layer"]}

    results = {}
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        result, report = run_workload(name, args.seed, args.seconds, args.trace, args.scale,
                                      src_dir, from_spec)
        print_report(name, report, units)
        results[name] = result
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
