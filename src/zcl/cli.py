"""Command-line front end.

Subcommands: ingest, analyze, synth, simulate, model, report.  Exit codes:
0 ok, 1 internal error, 2 input/format error.  Every command that writes
files also writes `<out>.manifest.json` recording inputs, parameters and
outputs, even when the command fails half way.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import __version__, analytics, model, simcache, synth, trace

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


class InputError(ValueError):
    """User-supplied file or flag value is unusable."""


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
                json.dump(self.__dict__, f, indent=2, sort_keys=True)
                f.write("\n")
        except OSError as exc:  # manifest is best effort, never the failure itself
            print(f"warning: cannot write manifest {path}: {exc}", file=sys.stderr)


def _print_json(payload: dict):
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load_trace(path: str) -> trace.Trace:
    try:
        with open(path, encoding="utf-8") as f:
            return trace.read_trace(f)
    except OSError as exc:
        raise InputError(f"cannot read trace {path}: {exc}")


def _load_changes(path: str | None):
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as f:
            return trace.read_change_log_csv(f)
    except OSError as exc:
        raise InputError(f"cannot read change log {path}: {exc}")


def _parse_flat_config(path: str) -> dict[str, str]:
    """Flat key=value file, # comments and blank lines ignored."""
    pairs: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                pairs[key.strip()] = value.strip()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}")
    return pairs


_CONFIG_KEYS = {
    "capacity_bytes",
    "policy",
    "kernel_fraction",
    "managing_capacity",
    "byte_accounting",
    "occupancy_stride",
}


def _cache_config(pairs: dict[str, str]) -> simcache.CacheConfig:
    unknown = set(pairs) - _CONFIG_KEYS
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    if "capacity_bytes" not in pairs:
        raise InputError("config needs capacity_bytes")
    try:
        policy = simcache.Policy(pairs.get("policy", "lru"))
    except ValueError:
        raise InputError(
            f"policy must be one of {[p.value for p in simcache.Policy]}, "
            f"got {pairs.get('policy')!r}"
        )
    try:
        return simcache.CacheConfig(
            capacity_bytes=int(pairs["capacity_bytes"]),
            policy=policy,
            kernel_fraction=float(pairs.get("kernel_fraction", 1.0 / 3.0)),
            managing_capacity=(
                int(pairs["managing_capacity"]) if "managing_capacity" in pairs else None
            ),
            byte_accounting=pairs.get("byte_accounting", "true").lower()
            in ("1", "true", "yes"),
            occupancy_stride=int(pairs.get("occupancy_stride", "1000")),
        )
    except ValueError as exc:
        raise InputError(f"bad cache config: {exc}")


# --- subcommands -----------------------------------------------------------


def cmd_ingest(args) -> int:
    manifest = RunManifest("ingest", inputs=[args.squid_log], outputs=[args.out])
    parsed = None
    try:
        try:
            with open(args.squid_log, encoding="utf-8", errors="replace") as f:
                parsed = trace.parse_squid_log(f)
        except OSError as exc:
            raise InputError(f"cannot read {args.squid_log}: {exc}")
        if not parsed.records:
            raise InputError(f"no usable records in {args.squid_log}")
        with open(args.out, "w", encoding="utf-8") as out:
            written = trace.write_canonical_csv(parsed.records, out)
        print(f"{written} records, {parsed.malformed} malformed")
        manifest.status = "ok"
        return EXIT_OK
    finally:
        manifest.parameters = {"malformed": parsed.malformed if parsed else None}
        manifest.write(args.out)


def cmd_analyze(args) -> int:
    records = _load_trace(args.trace)
    changes = _load_changes(args.changes)
    profile = analytics.build_popularity_profile(records, args.window_days)

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
        config = _cache_config(_parse_flat_config(args.cache_config))
        window = (
            records
            if args.window_days is None
            else records[records.timestamps < profile.window_end_s]
        )
        result = simcache.simulate(window, config, changes)
        lifetimes = analytics.lifetimes_from_evictions(result.evictions)
        summary = analytics.MeasurementSummary.from_simulation(result)
        row.update(
            {
                "S_eff": config.capacity_bytes,
                "S_eff_over_nu_int_days": summary.size_to_traffic_days,
                "t_u_days": lifetimes.t_u.mean_days,
                "t_u_stderr_days": lifetimes.t_u.stderr_days,
                "T_eff_days": lifetimes.t_eff.mean_days,
                "T_eff_stderr_days": lifetimes.t_eff.stderr_days,
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
        with open(args.profile_out, "w", encoding="utf-8") as f:
            analytics.export_profile_csv(profile, f)
    if args.out:
        manifest = RunManifest(
            "analyze",
            inputs=[args.trace],
            outputs=[args.out] + ([args.profile_out] if args.profile_out else []),
            parameters={"window_days": args.window_days},
        )
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(row, f, indent=2, sort_keys=True)
            f.write("\n")
        manifest.status = "ok"
        manifest.write(args.out)
    _print_json(row)
    return EXIT_OK


def _parse_renewal(args) -> synth.NoRenewal | synth.TwoValuedRenewal | synth.RankDependentRenewal:
    if args.renewal == "none":
        return synth.NoRenewal()
    if args.renewal == "rank":
        if args.alpha_r is None:
            raise InputError("--renewal rank needs --alpha-r")
        return synth.RankDependentRenewal(alpha_r=args.alpha_r, window_days=args.renewal_window)
    if args.renewal == "two":
        if None in (args.mu_popular, args.mu_unpopular, args.popular_cutoff):
            raise InputError("--renewal two needs --mu-popular, --mu-unpopular, --popular-cutoff")
        return synth.TwoValuedRenewal(args.mu_popular, args.mu_unpopular, args.popular_cutoff)
    raise InputError(f"unknown renewal kind {args.renewal!r}")


def cmd_synth(args) -> int:
    manifest = RunManifest(
        "synth",
        outputs=[args.out] + ([args.changes_out] if args.changes_out else []),
        seed=args.seed,
        parameters={
            "universe": args.universe,
            "alpha": args.alpha,
            "clients": args.clients,
            "rate": args.rate,
            "days": args.days,
            "cacheable_fraction": args.cacheable_fraction,
            "renewal": args.renewal,
        },
    )
    try:
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
        generated = synth.generate_synthetic_trace(spec)
        with open(args.out, "w", encoding="utf-8") as f:
            written = trace.write_canonical_csv(generated.records, f)
        if args.changes_out:
            with open(args.changes_out, "w", encoding="utf-8") as f:
                n_changes = trace.write_change_log_csv(generated.changes, f)
        else:
            n_changes = sum(len(v) for v in generated.changes.values())
        print(f"{written} records, {n_changes} change events")
        manifest.status = "ok"
        return EXIT_OK
    finally:
        manifest.write(args.out)


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
            "evictions": len(result.evictions),
        }
    )
    return payload


def cmd_simulate(args) -> int:
    outputs = [args.out]
    if args.evictions_out:
        outputs.append(args.evictions_out)
    if args.occupancy_out:
        outputs.append(args.occupancy_out)
    manifest = RunManifest(
        "simulate", inputs=[args.trace, *args.configs], outputs=outputs
    )
    try:
        if len(args.configs) > 1 and (args.evictions_out or args.occupancy_out):
            raise InputError("eviction/occupancy dumps need a single config")
        records = _load_trace(args.trace)
        changes = _load_changes(args.changes)
        if args.changes:
            manifest.inputs.append(args.changes)
        configs = [_cache_config(_parse_flat_config(path)) for path in args.configs]
        results = simcache.compare_policies(records, configs, changes)
        payloads = [_simulation_payload(res, cfg) for res, cfg in zip(results, configs)]
        out_doc = payloads[0] if len(payloads) == 1 else payloads
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(out_doc, f, indent=2, sort_keys=True)
            f.write("\n")
        result = results[0]
        if args.evictions_out:
            with open(args.evictions_out, "w", encoding="utf-8") as f:
                f.write("object_id,insert_ts,evict_ts,count\n")
                for ev in result.evictions:
                    f.write(f"{ev.object_id},{ev.insert_ts!r},{ev.evict_ts!r},{ev.count}\n")
        if args.occupancy_out:
            with open(args.occupancy_out, "w", encoding="utf-8") as f:
                f.write("timestamp_s,kernel_bytes,accessory_bytes,managing_entries\n")
                for s in result.occupancy:
                    f.write(
                        f"{s.timestamp!r},{s.kernel_bytes},{s.accessory_bytes},{s.managing_entries}\n"
                    )
        _print_json(out_doc if isinstance(out_doc, dict) else {"results": out_doc})
        manifest.status = "ok"
        return EXIT_OK
    finally:
        manifest.write(args.out)


def cmd_model(args) -> int:
    sub = args.model_command
    echo = {k: v for k, v in vars(args).items() if k not in ("func", "command", "model_command") and v is not None}
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
        _print_json({"inputs": echo, "analytic": r.analytic, "empirical": r.empirical})
        return EXIT_OK
    elif sub == "residuals":
        r_m, r_p = model.special_point_residuals(args.a, args.k_r, args.m, args.universe, args.alpha_r)
        _print_json({"inputs": echo, "residual_M": r_m, "residual_p": r_p})
        return EXIT_OK
    elif sub == "growth":
        value = analytics.alpha_growth_constant(args.alpha1, args.t1, args.alpha2, args.t2)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown model subcommand {sub!r}")
    _print_json({"inputs": echo, "value": value})
    return EXIT_OK


def cmd_report(args) -> int:
    rows = []
    for path in args.results:
        try:
            with open(path, encoding="utf-8") as f:
                rows.append(json.load(f))
        except OSError as exc:
            raise InputError(f"cannot read result {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise InputError(f"{path} is not JSON: {exc}")
    if not rows:
        raise InputError("empty result set")

    os.makedirs(args.out_dir, exist_ok=True)
    manifest = RunManifest("report", inputs=list(args.results), parameters={"alpha": args.alpha})
    outputs = []
    try:
        sized = [r for r in rows if r.get("S_eff_over_nu_int_days") is not None]
        sized.sort(key=lambda r: r["S_eff_over_nu_int_days"])

        lifetimes = [r for r in sized if r.get("t_u_days") is not None]
        if lifetimes:
            path = os.path.join(args.out_dir, "lifetimes_vs_size.csv")
            with open(path, "w", encoding="utf-8") as f:
                f.write("S_eff_over_nu_int_days,t_u_days,T_eff_days\n")
                for r in lifetimes:
                    f.write(
                        f"{r['S_eff_over_nu_int_days']},{r['t_u_days']},{r.get('T_eff_days')}\n"
                    )
            outputs.append(path)

        hits = [r for r in sized if r.get("H_pct") is not None]
        if hits:
            anchor = hits[0]
            path = os.path.join(args.out_dir, "hit_ratio_vs_size.csv")
            with open(path, "w", encoding="utf-8") as f:
                f.write("S_eff_over_nu_int_days,H_pct,HB_pct,H_powerlaw_pct\n")
                for r in hits:
                    pred = model.hit_scaling(
                        anchor["H_pct"],
                        anchor["S_eff_over_nu_int_days"],
                        r["S_eff_over_nu_int_days"],
                        args.alpha,
                    )
                    f.write(
                        f"{r['S_eff_over_nu_int_days']},{r['H_pct']},{r.get('HB_pct')},{pred}\n"
                    )
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
            with open(path, "w", encoding="utf-8") as f:
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
        manifest.status = "ok"
        manifest.outputs = outputs
        return EXIT_OK
    finally:
        manifest.outputs = outputs
        manifest.write(os.path.join(args.out_dir, "report"))


# --- argument wiring ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zcl", description=__doc__)
    parser.add_argument("--version", action="version", version=f"zcl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a Squid access log to canonical CSV")
    p.add_argument("squid_log")
    p.add_argument("out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("analyze", help="popularity profile and observables of a trace")
    p.add_argument("trace")
    p.add_argument("--window-days", type=float, default=None)
    p.add_argument("--cache-config", help="flat key=value file; enables lifetime replay")
    p.add_argument("--changes", help="change-event CSV for renewal-aware replay")
    p.add_argument("--profile-out", help="write rank,object_id,count CSV")
    p.add_argument("--out", help="write the JSON row here as well as stdout")
    p.set_defaults(func=cmd_analyze)

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
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "simulate", help="replay a trace through one or more cache configurations"
    )
    p.add_argument("trace")
    p.add_argument("configs", nargs="+", help="flat key=value cache config file(s)")
    p.add_argument("--changes")
    p.add_argument("--out", required=True)
    p.add_argument("--evictions-out")
    p.add_argument("--occupancy-out")
    p.set_defaults(func=cmd_simulate)

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
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, trace.TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
