"""Command-line front end.

Subcommands: ingest, analyze, synth, simulate, model, report.  Exit codes:
0 ok, 1 internal error, 2 input/format error.  Each subcommand declares
which of its arguments name files it reads and files it writes; `main()`
builds the run's manifest from those declarations (inputs: every file read,
configs and change logs included; outputs: every file written; parameters:
every other argument; seed: `--seed`) and writes it next to the first
output as `<out>.manifest.json`, even when the command fails half way.
`report` writes into a directory and anchors it at `<out-dir>/report`.

`simulate` and `analyze` read a trace one way, through _trace_blocks: a
forked child parses it block by block (trace.read_ahead over
trace.read_blocks) while this process folds each block into the popularity
profile (`analyze`) or replays it through every configuration (`simulate`,
and `analyze --cache-config` on the blocks cut to the profile's window), so
their memory grows with the number of objects, not with the trace length.
Errors keep the order of reading the whole trace first: a bad trace wins
over a bad change log or config and over a replay error.  `analyze` knows
that its window holds no cacheable request only at the end of the stream,
so a bad config or a replay error is reported before that.  `simulate`
opens `--evictions-out` after its configs parse and writes each row as the
eviction happens, so an unwritable `--evictions-out` wins over a replay
(order) error, and a replay that fails leaves a partial `--evictions-out`
under a manifest whose status is `incomplete`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

from . import __version__, analytics, model, simcache, synth, trace

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


class InputError(ValueError):
    """User-supplied file or flag value is unusable."""


def _dump_json(payload, f):
    json.dump(payload, f, indent=2, sort_keys=True)
    f.write("\n")


@dataclass
class RunManifest:
    command: str
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)
    seed: int | None = None
    version: str = __version__
    status: str = "incomplete"

    def write(self, anchor_path: str):
        path = anchor_path + ".manifest.json"
        try:
            with open(path, "w", encoding="utf-8") as f:
                _dump_json(self.__dict__, f)
        except OSError as exc:  # manifest is best effort, never the failure itself
            print(f"warning: cannot write manifest {path}: {exc}", file=sys.stderr)


def _open_out(path: str):
    """path opened for writing text; a path that cannot be opened is an InputError."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


def _trace_read_error(path: str, exc: OSError) -> InputError:
    return InputError(f"cannot read trace {path}: {exc}")


def _read_trace_errors(blocks, path: str):
    """blocks, with an OSError raised while reading them as `cannot read trace`."""
    try:
        yield from blocks
    except OSError as exc:
        raise _trace_read_error(path, exc)


@contextlib.contextmanager
def _trace_blocks(path: str):
    """The trace at path as a stream of blocks, parsed by trace.read_blocks
    through trace.read_ahead.

    An error raised in the body first drains the stream, so a bad trace wins
    over it, as when the whole trace was read first.  An OSError from
    opening the trace or reading its blocks is the trace's: `cannot read
    trace`.  One raised by the body itself, such as a full disk under an
    output written during the replay, passes through as it is.
    """
    try:
        f = open(path, encoding="utf-8")
    except OSError as exc:
        raise _trace_read_error(path, exc)
    with f, contextlib.closing(trace.read_ahead(trace.read_blocks(f))) as reader:
        blocks = _read_trace_errors(reader, path)
        try:
            yield blocks
        except Exception:
            for _ in blocks:
                pass
            raise


def _load_changes(path: str | None):
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as f:
            return trace.read_change_log_csv(f)
    except OSError as exc:
        raise InputError(f"cannot read change log {path}: {exc}")


_COMMENT = re.compile(r"(^|\s)#.*")


def _parse_flat_config(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines are ignored, and a # at the start of
    a line or after whitespace starts a comment that runs to the line's end."""
    pairs: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = _COMMENT.sub("", line).strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                pairs[key.strip()] = value.strip()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}")
    return pairs


def _parse_policy(value: str) -> simcache.Policy:
    try:
        return simcache.Policy(value)
    except ValueError:
        raise InputError(
            f"policy must be one of {[p.value for p in simcache.Policy]}, got {value!r}"
        )


_FLAG_TOKENS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_byte_accounting(value: str) -> bool:
    token = value.lower()
    if token not in _FLAG_TOKENS:
        raise ValueError(f"byte_accounting must be 1/true/yes or 0/false/no, got {value!r}")
    return _FLAG_TOKENS[token]


# The parser of each config key's value; a key the file leaves out takes
# CacheConfig's default.
_CONFIG_PARSERS = {
    "capacity_bytes": int,
    "policy": _parse_policy,
    "kernel_fraction": float,
    "managing_capacity": int,
    "byte_accounting": _parse_byte_accounting,
    "occupancy_stride": int,
}


def _cache_config(pairs: dict[str, str]) -> simcache.CacheConfig:
    unknown = set(pairs) - set(_CONFIG_PARSERS)
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    if "capacity_bytes" not in pairs:
        raise InputError("config needs capacity_bytes")
    try:
        return simcache.CacheConfig(
            **{key: _CONFIG_PARSERS[key](value) for key, value in pairs.items()}
        )
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(f"bad cache config: {exc}")


# --- subcommands -----------------------------------------------------------


def cmd_ingest(args, manifest) -> int:
    manifest.parameters["malformed"] = None  # unknown until the log parses
    try:
        with open(args.squid_log, encoding="utf-8", errors="replace") as f:
            parsed = trace.parse_squid_log(f)
    except OSError as exc:
        raise InputError(f"cannot read {args.squid_log}: {exc}")
    manifest.parameters["malformed"] = parsed.malformed
    if not parsed.records:
        raise InputError(f"no usable records in {args.squid_log}")
    with _open_out(args.out) as out:
        written = trace.write_canonical_csv(parsed.records, out)
    print(f"{written} records, {parsed.malformed} malformed")
    return EXIT_OK


def cmd_analyze(args, manifest) -> int:
    fold = analytics.ProfileFold(args.window_days)
    lifetimes = analytics.LifetimeFold()
    with _trace_blocks(args.trace) as blocks:
        windowed = map(fold.add, blocks)
        changes = _load_changes(args.changes)
        if args.cache_config:
            config = _cache_config(_parse_flat_config(args.cache_config))
            result = simcache.replay(windowed, [config], changes, [lifetimes.add])[0]
        else:
            for _ in windowed:
                pass
    profile = fold.profile()

    alpha = None
    if profile.M > 0:
        alpha = analytics.estimate_alpha(profile)
    else:
        print("warning: no object requested twice, alpha undefined", file=sys.stderr)

    row: dict = {
        "S_eff_over_nu_int_days": None,
        "S_eff": None,
        "alpha": alpha,
        "t_u_days": None,
        "t_u_stderr_days": None,
        "T_eff_days": None,
        "T_eff_stderr_days": None,
        "p_c": profile.k / profile.K if profile.K else None,
        "M": profile.M,
        "p": profile.p,
        "k": profile.k,
        "K": profile.K,
        "T_st_days": profile.window_days,
    }

    if args.cache_config:
        stats = lifetimes.stats()
        summary = analytics.MeasurementSummary.from_simulation(result)
        row.update(
            {
                "S_eff": config.capacity_bytes,
                "S_eff_over_nu_int_days": summary.size_to_traffic_days,
                "t_u_days": stats.t_u.mean_days,
                "t_u_stderr_days": stats.t_u.stderr_days,
                "T_eff_days": stats.t_eff.mean_days,
                "T_eff_stderr_days": stats.t_eff.stderr_days,
                "H_pct": result.hit_ratio * 100.0,
                "HB_pct": result.byte_hit_ratio * 100.0,
            }
        )
        if alpha is not None and result.hits > 0:
            ren = analytics.renewal_observables(profile, result.hit_ratio)
            row["alpha_R"] = ren.alpha_r
            row["delta_H"] = ren.delta_h
            row["k_R"] = ren.k_r

    if args.profile_out:
        with _open_out(args.profile_out) as f:
            analytics.export_profile_csv(profile, f)
    if args.out:
        with _open_out(args.out) as f:
            _dump_json(row, f)
    _dump_json(row, sys.stdout)
    return EXIT_OK


def _parse_renewal(args) -> model.ChangeRate:
    if args.renewal == "none":
        return 0.0
    if args.renewal == "rank":
        if args.alpha_r is None:
            raise InputError("--renewal rank needs --alpha-r")
        window = args.days if args.renewal_window is None else args.renewal_window
        return model.RenewalModel(args.alpha, args.alpha_r, window, args.universe)
    if args.renewal == "two":
        if None in (args.mu_popular, args.mu_unpopular, args.popular_cutoff):
            raise InputError("--renewal two needs --mu-popular, --mu-unpopular, --popular-cutoff")
        return model.TwoValuedChangeRate(args.mu_popular, args.mu_unpopular, args.popular_cutoff)
    raise InputError(f"unknown renewal kind {args.renewal!r}")


def cmd_synth(args, manifest) -> int:
    spec = synth.SyntheticWorkloadSpec(
        universe_size=args.universe,
        zipf_alpha=args.alpha,
        clients=args.clients,
        per_client_rate=args.rate,
        horizon_days=args.days,
        cacheable_fraction=args.cacheable_fraction,
        renewal=_parse_renewal(args),
        size_mean_bytes=args.size_mean,
        size_sigma=args.size_sigma,
        seed=args.seed,
    )
    # The outputs are opened before the trace is generated, so a bad path
    # fails before that work.
    with (
        _open_out(args.out) as out,
        (_open_out(args.changes_out) if args.changes_out else contextlib.nullcontext()) as ch,
    ):
        generated = synth.generate_synthetic_trace(spec)
        written = trace.write_canonical_csv(generated.records, out)
        if ch is None:
            n_changes = sum(len(v) for v in generated.changes.values())
        else:
            n_changes = trace.write_change_log_csv(generated.changes, ch)
    print(f"{written} records, {n_changes} change events")
    return EXIT_OK


def _simulation_payload(result: simcache.SimulationResult, config: simcache.CacheConfig) -> dict:
    payload = analytics.MeasurementSummary.from_simulation(result).to_json_dict()
    payload.update(
        {
            "policy": config.policy.value,
            "capacity_bytes": config.capacity_bytes,
            "requests": result.requests,
            "hits": result.hits,
            "misses": result.misses,
            "stale_misses": result.stale_misses,
            "uncacheable": result.uncacheable,
            "bypassed": result.bypassed,
            "evictions": result.evictions,
        }
    )
    return payload


def _eviction_writer(f):
    """An eviction sink that writes each eviction to f as a CSV row, after the header."""
    rows = csv.writer(f, lineterminator="\n")
    rows.writerow(("object_id", "insert_ts", "evict_ts", "count"))
    return lambda ev: rows.writerow(
        (ev.object_id, repr(ev.insert_ts), repr(ev.evict_ts), ev.count)
    )


def cmd_simulate(args, manifest) -> int:
    if len(args.configs) > 1 and (args.evictions_out or args.occupancy_out):
        raise InputError("eviction/occupancy dumps need a single config")
    with _trace_blocks(args.trace) as blocks:
        changes = _load_changes(args.changes)
        configs = [_cache_config(_parse_flat_config(path)) for path in args.configs]
        # Opened after the configs parse, so a bad change log or config,
        # like a bad trace, wins over an unwritable path.
        with (
            _open_out(args.evictions_out) if args.evictions_out else contextlib.nullcontext()
        ) as ev_file:
            sinks = None if ev_file is None else [_eviction_writer(ev_file)]
            results = simcache.replay(blocks, configs, changes, sinks)
    payloads = [_simulation_payload(res, cfg) for res, cfg in zip(results, configs)]
    out_doc = payloads[0] if len(payloads) == 1 else payloads
    with _open_out(args.out) as f:
        _dump_json(out_doc, f)
    result = results[0]
    if args.occupancy_out:
        with _open_out(args.occupancy_out) as f:
            rows = csv.writer(f, lineterminator="\n")
            rows.writerow(("timestamp_s", "kernel_bytes", "accessory_bytes", "managing_entries"))
            rows.writerows(
                (repr(s.timestamp), s.kernel_bytes, s.accessory_bytes, s.managing_entries)
                for s in result.occupancy
            )
    _dump_json(out_doc if isinstance(out_doc, dict) else {"results": out_doc}, sys.stdout)
    return EXIT_OK


def cmd_model(args, manifest) -> int:
    sub = args.model_command
    echo = {k: v for k, v in vars(args).items() if k not in ("func", "command", "model_command") and v is not None}
    for key, v in echo.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise InputError(f"--{key.replace('_', '-')} must be finite, got {v}")
    if sub == "ideal-hit":
        value = model.ideal_hit_ratio(args.alpha)
    elif sub == "ideal-hit-renewal":
        value = model.ideal_hit_ratio_with_renewal(args.alpha, args.alpha_r)
    elif sub == "normalization":
        value = model.zipf_normalization(args.alpha, args.universe)
    elif sub == "mu":
        if args.quantile is not None:
            value = model.mu_at_quantile(args.alpha, args.alpha_r, args.tst, args.quantile)
        elif args.rank is not None and args.universe is not None:
            m = model.RenewalModel(args.alpha, args.alpha_r, args.tst, args.universe)
            value = model.mu_of_rank(m, args.rank)
        else:
            raise InputError("mu needs --quantile, or --rank with --universe")
    elif sub == "wolman":
        two_valued = (args.mu_popular, args.mu_unpopular, args.popular_cutoff)
        if any(v is not None for v in two_valued) and None in two_valued:
            raise InputError(
                "two-valued change rate needs --mu-popular, --mu-unpopular and --popular-cutoff"
            )
        change = (
            model.TwoValuedChangeRate(*two_valued)
            if args.mu_popular is not None
            else args.mu
        )
        params = model.WolmanParams(
            universe=args.universe, alpha=args.alpha, request_rate=args.rate, change_rate=change
        )
        value = model.wolman_hit_ratio(params)
    elif sub == "expected-hit":
        value = model.expected_hit_ratio(args.pc, args.alpha, args.universe, args.kernel_objects)
    elif sub == "scale":
        value = model.hit_scaling(args.h1, args.s1, args.s2, args.alpha)
    elif sub == "kernel-size":
        value = model.kernel_size(args.alpha, args.hit_ratio, args.nu_out, args.t_eff)
    elif sub == "ratio":
        r = model.kernel_accessory_ratio(args.alpha, args.t_eff, args.t_u, args.m, args.universe)
        payload = {"inputs": echo, "analytic": r.analytic, "empirical": r.empirical}
        _dump_json(payload, sys.stdout)
        return EXIT_OK
    elif sub == "residuals":
        r_m, r_p = model.special_point_residuals(args.a, args.k_r, args.m, args.universe, args.alpha_r)
        _dump_json({"inputs": echo, "residual_M": r_m, "residual_p": r_p}, sys.stdout)
        return EXIT_OK
    elif sub == "growth":
        value = analytics.alpha_growth_constant(args.alpha1, args.t1, args.alpha2, args.t2)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown model subcommand {sub!r}")
    _dump_json({"inputs": echo, "value": value}, sys.stdout)
    return EXIT_OK


# The result fields report reads; each must be a JSON number or null.
_REPORT_FIELDS = (
    "S_eff_over_nu_int_days", "t_u_days", "T_eff_days", "H_pct", "HB_pct", "alpha", "alpha_R", "p",
)


def _csv_line(*values) -> str:
    """One CSV row; a null is an empty field."""
    return ",".join("" if v is None else str(v) for v in values) + "\n"


def cmd_report(args, manifest) -> int:
    try:
        os.makedirs(args.out_dir, exist_ok=True)  # holds the manifest even if the run fails
    except OSError as exc:
        raise InputError(f"cannot write {args.out_dir}: {exc}")
    if not 0.0 < args.alpha < 1.0:  # hit_scaling's check, before any CSV is opened
        raise InputError(f"--alpha must lie in (0, 1), got {args.alpha}")
    rows = []
    for path in args.results:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except OSError as exc:
            raise InputError(f"cannot read result {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise InputError(f"{path} is not JSON: {exc}")
        # A multi-config `simulate` writes a list of result rows.
        found = doc if isinstance(doc, list) else [doc]
        if not all(isinstance(row, dict) for row in found):
            raise InputError(f"{path} holds neither a result object nor a list of them")
        for row in found:
            for field in _REPORT_FIELDS:
                value = row.get(field)
                if type(value) not in (int, float, type(None)):  # a JSON true is no number
                    raise InputError(f"{path}: field {field!r} is {value!r}, not a number")
                if type(value) is float and not math.isfinite(value):  # json reads NaN, Infinity
                    raise InputError(f"{path}: field {field!r} is {value!r}, not finite")
            if (row.get("p") or 0) < 0:  # a p of 0 or null has no renewal profile
                raise InputError(f"{path}: field 'p' is {row['p']!r}, below 0")
            size = row.get("S_eff_over_nu_int_days")
            if size is not None and size <= 0:  # hit_scaling divides by the anchor's
                raise InputError(f"{path}: field 'S_eff_over_nu_int_days' is {size!r}, not above 0")
        rows += found
    if not rows:
        raise InputError("empty result set")

    outputs = manifest.outputs
    sized = [r for r in rows if r.get("S_eff_over_nu_int_days") is not None]
    sized.sort(key=lambda r: r["S_eff_over_nu_int_days"])

    lifetimes = [r for r in sized if r.get("t_u_days") is not None]
    if lifetimes:
        path = os.path.join(args.out_dir, "lifetimes_vs_size.csv")
        with _open_out(path) as f:
            f.write("S_eff_over_nu_int_days,t_u_days,T_eff_days\n")
            for r in lifetimes:
                f.write(_csv_line(r["S_eff_over_nu_int_days"], r["t_u_days"], r.get("T_eff_days")))
        outputs.append(path)

    hits = [r for r in sized if r.get("H_pct") is not None]
    if hits:
        anchor = hits[0]
        path = os.path.join(args.out_dir, "hit_ratio_vs_size.csv")
        with _open_out(path) as f:
            f.write("S_eff_over_nu_int_days,H_pct,HB_pct,H_powerlaw_pct\n")
            for r in hits:
                pred = model.hit_scaling(
                    anchor["H_pct"],
                    anchor["S_eff_over_nu_int_days"],
                    r["S_eff_over_nu_int_days"],
                    args.alpha,
                )
                f.write(_csv_line(r["S_eff_over_nu_int_days"], r["H_pct"], r.get("HB_pct"), pred))
        outputs.append(path)

    renewal = [
        r
        for r in rows
        if r.get("alpha") is not None and r.get("alpha_R") is not None and r.get("p")
    ]
    for i, r in enumerate(renewal):
        suffix = f"_{i}" if len(renewal) > 1 else ""
        path = os.path.join(args.out_dir, f"renewal_profile{suffix}.csv")
        p = float(r["p"])
        with _open_out(path) as f:
            f.write("log10_rank,log10_count_ideal,log10_count_renewal\n")
            steps = 50
            for j in range(steps + 1):
                lg = j * math.log10(p) / steps
                rank = 10.0**lg
                ideal = r["alpha"] * math.log10(p / rank)
                real = r["alpha_R"] * math.log10(p / rank)
                f.write(f"{lg},{ideal},{real}\n")
        outputs.append(path)

    if not outputs:
        raise InputError("result set has no plottable fields")
    for path in outputs:
        print(path)
    return EXIT_OK


# --- argument wiring ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zcl", description=__doc__)
    parser.add_argument("--version", action="version", version=f"zcl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a Squid access log to canonical CSV")
    p.add_argument("squid_log")
    p.add_argument("out")
    p.set_defaults(func=cmd_ingest, reads=("squid_log",), writes=("out",))

    p = sub.add_parser("analyze", help="popularity profile and observables of a trace")
    p.add_argument("trace")
    p.add_argument("--window-days", type=float, default=None)
    p.add_argument("--cache-config", help="flat key=value file; enables lifetime replay")
    p.add_argument("--changes", help="change-event CSV for renewal-aware replay")
    p.add_argument("--profile-out", help="write rank,object_id,count CSV")
    p.add_argument("--out", help="write the JSON row here as well as stdout")
    p.set_defaults(
        func=cmd_analyze, reads=("trace", "cache_config", "changes"), writes=("out", "profile_out")
    )

    p = sub.add_parser("synth", help="generate a synthetic workload")
    p.add_argument("--universe", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--clients", type=int, default=1)
    p.add_argument("--rate", type=float, default=10000.0, help="requests/day per client")
    p.add_argument("--days", type=float, default=1.0)
    p.add_argument("--cacheable-fraction", type=float, default=1.0)
    p.add_argument("--renewal", choices=["none", "rank", "two"], default="none")
    p.add_argument("--alpha-r", type=float)
    p.add_argument("--renewal-window", type=float, help="days; defaults to the horizon")
    p.add_argument("--mu-popular", type=float)
    p.add_argument("--mu-unpopular", type=float)
    p.add_argument("--popular-cutoff", type=int)
    p.add_argument("--size-mean", type=float, default=13312.0)
    p.add_argument("--size-sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--changes-out")
    p.set_defaults(func=cmd_synth, reads=(), writes=("out", "changes_out"))

    p = sub.add_parser(
        "simulate", help="replay a trace through one or more cache configurations"
    )
    p.add_argument("trace")
    p.add_argument("configs", nargs="+", help="flat key=value cache config file(s)")
    p.add_argument("--changes")
    p.add_argument("--out", required=True)
    p.add_argument("--evictions-out")
    p.add_argument("--occupancy-out")
    p.set_defaults(
        func=cmd_simulate,
        reads=("trace", "configs", "changes"),
        writes=("out", "evictions_out", "occupancy_out"),
    )

    p = sub.add_parser("model", help="evaluate a closed-form relation")
    msub = p.add_subparsers(dest="model_command", required=True)

    m = msub.add_parser("ideal-hit")
    m.add_argument("--alpha", type=float, required=True)
    m = msub.add_parser("ideal-hit-renewal")
    m.add_argument("--alpha", type=float, required=True)
    m.add_argument("--alpha-r", type=float, required=True)
    m = msub.add_parser("normalization")
    m.add_argument("--alpha", type=float, required=True)
    m.add_argument("--universe", type=float, required=True)
    m = msub.add_parser("mu")
    m.add_argument("--alpha", type=float, required=True)
    m.add_argument("--alpha-r", type=float, required=True)
    m.add_argument("--tst", type=float, required=True, help="observation window, days")
    m.add_argument("--quantile", type=float, help="rank as a fraction of the universe")
    m.add_argument("--rank", type=float)
    m.add_argument("--universe", type=float)
    m = msub.add_parser("wolman")
    m.add_argument("--universe", type=float, default=10000.0)
    m.add_argument("--alpha", type=float, default=0.8)
    m.add_argument("--rate", type=float, default=10000.0, help="aggregate requests/day")
    m.add_argument("--mu", type=float, default=0.0, help="uniform change rate, 1/days")
    m.add_argument("--mu-popular", type=float)
    m.add_argument("--mu-unpopular", type=float)
    m.add_argument("--popular-cutoff", type=float)
    m = msub.add_parser("expected-hit")
    m.add_argument("--pc", type=float, required=True)
    m.add_argument("--alpha", type=float, required=True, help="plain or renewal-flattened exponent")
    m.add_argument("--universe", type=float, required=True)
    m.add_argument("--kernel-objects", type=float, required=True)
    m = msub.add_parser("scale")
    m.add_argument("--h1", type=float, required=True)
    m.add_argument("--s1", type=float, required=True)
    m.add_argument("--s2", type=float, required=True)
    m.add_argument("--alpha", type=float, required=True)
    m = msub.add_parser("kernel-size")
    m.add_argument("--alpha", type=float, required=True)
    m.add_argument("--hit-ratio", type=float, required=True)
    m.add_argument("--nu-out", type=float, required=True, help="requests/day")
    m.add_argument("--t-eff", type=float, required=True, help="days")
    m = msub.add_parser("ratio")
    m.add_argument("--alpha", type=float, required=True)
    m.add_argument("--t-eff", type=float, required=True)
    m.add_argument("--t-u", type=float, required=True)
    m.add_argument("--m", type=float)
    m.add_argument("--universe", type=float)
    m = msub.add_parser("residuals")
    m.add_argument("--a", type=float, required=True, help="normalization constant")
    m.add_argument("--k-r", type=float, required=True)
    m.add_argument("--m", type=float, required=True)
    m.add_argument("--universe", type=float, required=True)
    m.add_argument("--alpha-r", type=float, required=True)
    m = msub.add_parser("growth")
    m.add_argument("--alpha1", type=float, required=True)
    m.add_argument("--t1", type=float, required=True)
    m.add_argument("--alpha2", type=float, required=True)
    m.add_argument("--t2", type=float, required=True)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("report", help="emit figure-data CSVs from result JSONs")
    p.add_argument("results", nargs="*")
    p.add_argument("--alpha", type=float, default=0.77, help="power-law overlay exponent")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_report, reads=("results",), writes=("out_dir",))

    return parser


def _paths(args, names) -> list[str]:
    """Paths held by the named arguments, in order; unset ones are skipped."""
    paths: list[str] = []
    for name in names:
        value = getattr(args, name)
        if value is not None:
            paths += value if isinstance(value, list) else [value]
    return paths


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # `model` declares no files: it writes none, and its JSON echoes vars(args).
    reads, writes = getattr(args, "reads", ()), getattr(args, "writes", ())
    declared = {"func", "command", "reads", "writes", "seed", *reads, *writes}
    manifest = RunManifest(
        args.command,
        inputs=_paths(args, reads),
        outputs=_paths(args, writes),
        parameters={k: v for k, v in vars(args).items() if k not in declared},
        seed=getattr(args, "seed", None),
    )
    anchor = manifest.outputs[0] if manifest.outputs else None
    if writes and writes[0].endswith("_dir"):
        # A directory: the manifest goes inside it and the command lists its files.
        anchor, manifest.outputs = os.path.join(anchor, args.command), []
    try:
        code = args.func(args, manifest)
        manifest.status = "ok"
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if anchor is not None:
            manifest.write(anchor)


if __name__ == "__main__":
    sys.exit(main())
