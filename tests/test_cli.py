import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zcl
from zcl.cli import main
from zcl.trace import read_canonical_csv

GOLDEN_DIR = Path(__file__).parent / "golden"

SQUID_LINES = """\
1000.5 120 10.0.0.1 TCP_MISS/200 8320 GET http://a/x.gif - DIRECT/1.2.3.4 image/gif
1001.0 5 10.0.0.1 TCP_HIT/200 8320 GET http://a/x.gif - NONE/- image/gif
###
1002.0 80 10.0.0.2 TCP_MISS/200 640 GET http://b/y.html - DIRECT/5.6.7.8 text/html
1003.0 10 10.0.0.2 TCP_DENIED/403 320 GET http://c/z - NONE/- text/html
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def objects_cfg(path, capacity, policy="lru", **extra):
    lines = [f"capacity_bytes={capacity}", f"policy={policy}", "byte_accounting=false"]
    lines += [f"{k}={v}" for k, v in extra.items()]
    return write(path, "\n".join(lines) + "\n")


def trace_csv(path, rows):
    head = "timestamp_s,client_id,object_id,size_bytes,cacheable\n"
    return write(path, head + "".join(rows))


def row(t, obj, size=1, cacheable=1):
    return f"{t},c0,{obj},{size},{cacheable}\n"


# --- ingest ---------------------------------------------------------------------


def test_ingest_reports_counts_and_roundtrips(tmp_path, capsys):
    log = write(tmp_path / "access.log", SQUID_LINES)
    out = str(tmp_path / "trace.csv")
    assert main(["ingest", log, out]) == 0
    assert "4 records, 1 malformed" in capsys.readouterr().out
    with open(out) as f:
        records = list(read_canonical_csv(f))
    assert len(records) == 4
    assert records[1].origin_hit is True
    assert records[3].cacheable is False
    manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["outputs"] == [out]


def test_ingest_empty_file_exits_2(tmp_path):
    log = write(tmp_path / "empty.log", "")
    assert main(["ingest", log, str(tmp_path / "out.csv")]) == 2


def test_ingest_missing_file_exits_2(tmp_path):
    assert main(["ingest", str(tmp_path / "nope.log"), str(tmp_path / "out.csv")]) == 2


# --- analyze --------------------------------------------------------------------


def test_analyze_single_request_trace(tmp_path, capsys):
    trace = trace_csv(tmp_path / "t.csv", [row(0.0, "A")])
    assert main(["analyze", trace]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["p"] == 1 and doc["M"] == 0 and doc["k"] == 1
    assert doc["alpha"] is None
    assert "alpha undefined" in captured.err


def test_analyze_reference_shaped_profile(tmp_path, capsys):
    # Scale the largest reference row down 1000x: M=201, p=607, k=2500.
    # The estimator depends only on (M, p, k), so alpha must be 0.808.
    rows = []
    t = 0.0
    head = 2500 - 607 + 201  # head requests: k - p + M
    first = head - 2 * 200  # rank-1 object takes what the other 200 pairs leave
    for i, count in enumerate([first] + [2] * 200 + [1] * 406):
        for _ in range(count):
            rows.append(row(t, f"o{i}"))
            t += 1.0
    trace = trace_csv(tmp_path / "t.csv", rows)
    assert main(["analyze", trace]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["M"] == 201 and doc["p"] == 607 and doc["k"] == 2500
    assert doc["alpha"] == pytest.approx(0.81, abs=0.005)


def test_analyze_synthetic_recovers_alpha(tmp_path, capsys):
    synth_out = str(tmp_path / "s.csv")
    assert (
        main(
            ["synth", "--universe", "20000", "--alpha", "0.8", "--clients", "4",
             "--rate", "25000", "--days", "2", "--seed", "5", "--out", synth_out]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["analyze", synth_out]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == pytest.approx(0.8, abs=0.05)
    assert doc["p_c"] == 1.0


def test_analyze_with_cache_config_adds_lifetimes(tmp_path, capsys):
    rows = [row(0.0, "A"), row(86_400.0, "B"), row(172_800.0, "C")]
    trace = trace_csv(tmp_path / "t.csv", rows)
    cfg = objects_cfg(tmp_path / "c.cfg", 1)
    out = str(tmp_path / "row.json")
    assert main(["analyze", trace, "--cache-config", cfg, "--out", out]) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["t_u_days"] == pytest.approx(1.0)
    assert doc["S_eff"] == 1
    assert json.loads(capsys.readouterr().out) == doc


# --- synth ----------------------------------------------------------------------


def test_synth_deterministic_output_bytes(tmp_path, capsys):
    args = ["synth", "--universe", "500", "--alpha", "0.7", "--rate", "2000",
            "--days", "1", "--seed", "33", "--renewal", "rank", "--alpha-r", "0.6"]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    ca, cb = str(tmp_path / "a_ch.csv"), str(tmp_path / "b_ch.csv")
    assert main(args + ["--out", a, "--changes-out", ca]) == 0
    assert main(args + ["--out", b, "--changes-out", cb]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    assert Path(ca).read_bytes() == Path(cb).read_bytes()
    manifest = json.loads(Path(a + ".manifest.json").read_text())
    assert manifest["seed"] == 33 and manifest["status"] == "ok"


def test_synth_rank_renewal_needs_alpha_r(tmp_path):
    code = main(["synth", "--universe", "10", "--alpha", "0.5", "--renewal", "rank",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


# --- simulate -------------------------------------------------------------------


def test_simulate_infinite_capacity_hit_ratio_exact(tmp_path, capsys):
    rows = [row(float(t), f"o{t % 4}") for t in range(20)]
    trace = trace_csv(tmp_path / "t.csv", rows)
    cfg = objects_cfg(tmp_path / "c.cfg", 10**12)
    out = str(tmp_path / "r.json")
    assert main(["simulate", trace, cfg, "--out", out]) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["H_pct"] == pytest.approx(100.0 * (20 - 4) / 20)
    assert doc["evictions"] == 0


def test_simulate_capacity_one_alternating_is_zero(tmp_path):
    rows = [row(float(t), "AB"[t % 2]) for t in range(30)]
    trace = trace_csv(tmp_path / "t.csv", rows)
    cfg = objects_cfg(tmp_path / "c.cfg", 1)
    out = str(tmp_path / "r.json")
    assert main(["simulate", trace, cfg, "--out", out]) == 0
    assert json.loads(Path(out).read_text())["H_pct"] == 0.0


def test_simulate_writes_eviction_and_occupancy_csv(tmp_path):
    rows = [row(float(t), f"o{t}") for t in range(10)]
    trace = trace_csv(tmp_path / "t.csv", rows)
    cfg = objects_cfg(tmp_path / "c.cfg", 3)
    ev, occ = str(tmp_path / "ev.csv"), str(tmp_path / "occ.csv")
    assert main(["simulate", trace, cfg, "--out", str(tmp_path / "r.json"),
                 "--evictions-out", ev, "--occupancy-out", occ]) == 0
    ev_lines = Path(ev).read_text().splitlines()
    assert ev_lines[0] == "object_id,insert_ts,evict_ts,count"
    assert len(ev_lines) == 1 + 7  # 10 inserts through 3 slots
    occ_lines = Path(occ).read_text().splitlines()
    assert occ_lines[0] == "timestamp_s,kernel_bytes,accessory_bytes,managing_entries"


def test_simulate_multi_config_fans_out(tmp_path):
    rows = [row(float(t), f"o{t % 6}") for t in range(60)]
    trace = trace_csv(tmp_path / "t.csv", rows)
    lru = objects_cfg(tmp_path / "lru.cfg", 3)
    seg = objects_cfg(tmp_path / "seg.cfg", 3, policy="zipf_construction")
    out = str(tmp_path / "r.json")
    assert main(["simulate", trace, lru, seg, "--out", out]) == 0
    docs = json.loads(Path(out).read_text())
    assert isinstance(docs, list) and len(docs) == 2
    assert docs[0]["policy"] == "lru" and docs[1]["policy"] == "zipf_construction"


@pytest.mark.parametrize(
    "bad_row", ["1.0,c0,B,1\n", "x1.0,c0,B,1,1\n", "1.0,c0,B,1,yes\n"]
)
def test_simulate_bad_trace_row_exits_2(tmp_path, capsys, bad_row):
    trace = trace_csv(tmp_path / "t.csv", [row(0.0, "A"), bad_row, row(2.0, "C")])
    cfg = objects_cfg(tmp_path / "c.cfg", 5)
    assert main(["simulate", trace, cfg, "--out", str(tmp_path / "r.json")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_simulate_bad_config_key_exits_2(tmp_path):
    trace = trace_csv(tmp_path / "t.csv", [row(0.0, "A")])
    cfg = write(tmp_path / "c.cfg", "capacity_bytes=5\nwhatever=1\n")
    assert main(["simulate", trace, cfg, "--out", str(tmp_path / "r.json")]) == 2


# --- model ----------------------------------------------------------------------


def test_model_commands(capsys):
    assert main(["model", "ideal-hit", "--alpha", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.5
    assert main(["model", "mu", "--alpha", "0.72", "--alpha-r", "0.70",
                 "--tst", "15", "--quantile", "0.25"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1 / 202, rel=0.02)
    assert main(["model", "wolman", "--mu", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1.0
    assert main(["model", "growth", "--alpha1", "0.76", "--t1", "31",
                 "--alpha2", "0.81", "--t2", "61"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.0739, abs=5e-4)


def test_model_rejects_out_of_range_alpha():
    assert main(["model", "ideal-hit", "--alpha", "1.5"]) == 2


# --- report ---------------------------------------------------------------------


def result_row(size, h, hb, tu=None, teff=None, alpha=None, alpha_r=None, p=None):
    doc = {"S_eff_over_nu_int_days": size, "H_pct": h, "HB_pct": hb,
           "t_u_days": tu, "T_eff_days": teff}
    if alpha is not None:
        doc.update({"alpha": alpha, "alpha_R": alpha_r, "p": p})
    return doc


def test_report_emits_figure_csvs(tmp_path):
    paths = []
    rows = [
        result_row(1.0, 24.49, 9.13, tu=2.2, teff=3.8),
        result_row(2.15, 28.08, 10.33, tu=6.8, teff=9.1),
        result_row(3.15, 32.19, 11.17, tu=8.8, teff=8.5),
        result_row(5.96, 36.75, 10.78, tu=20.4, teff=18.9, alpha=0.81, alpha_r=0.7, p=607000),
    ]
    for i, doc in enumerate(rows):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    out_dir = str(tmp_path / "figs")
    assert main(["report", *paths, "--alpha", "0.77", "--out-dir", out_dir]) == 0

    lifetime_lines = Path(out_dir, "lifetimes_vs_size.csv").read_text().splitlines()
    assert len(lifetime_lines) == 1 + 4

    hit_lines = Path(out_dir, "hit_ratio_vs_size.csv").read_text().splitlines()
    assert hit_lines[0] == "S_eff_over_nu_int_days,H_pct,HB_pct,H_powerlaw_pct"
    assert len(hit_lines) == 1 + 4
    # overlay anchored at the smallest size: prediction equals measurement there
    first = hit_lines[1].split(",")
    assert float(first[3]) == pytest.approx(float(first[1]))
    # at 5.96 relative days the power-law overlay sits within 5% of measured
    last = hit_lines[4].split(",")
    assert float(last[3]) == pytest.approx(float(last[1]), rel=0.05)

    renewal_lines = Path(out_dir, "renewal_profile.csv").read_text().splitlines()
    assert renewal_lines[0] == "log10_rank,log10_count_ideal,log10_count_renewal"
    assert len(renewal_lines) == 1 + 51


def test_report_empty_result_set_exits_2(tmp_path):
    assert main(["report", "--out-dir", str(tmp_path)]) == 2


# --- reproducibility and the committed golden ------------------------------------


def test_manifest_written_on_partial_failure(tmp_path):
    cfg = objects_cfg(tmp_path / "c.cfg", 5)
    out = str(tmp_path / "r.json")
    code = main(["simulate", str(tmp_path / "missing.csv"), cfg, "--out", out])
    assert code == 2
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert manifest["outputs"] == [out]


def test_manifest_lists_every_output(tmp_path):
    rows = [row(float(t), f"o{t % 3}") for t in range(9)]
    trace = trace_csv(tmp_path / "t.csv", rows)
    cfg = objects_cfg(tmp_path / "c.cfg", 2)
    out = str(tmp_path / "r.json")
    ev = str(tmp_path / "ev.csv")
    assert main(["simulate", trace, cfg, "--out", out, "--evictions-out", ev]) == 0
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["inputs"] == [trace, cfg]
    assert manifest["outputs"] == [out, ev]


def test_million_request_golden_run(tmp_path):
    """End-to-end CLI pipeline at the 1e6-request scale against a committed
    golden result; also guards the < 60 s desk-scale budget."""
    import time

    trace = str(tmp_path / "big.csv")
    cfg = write(
        tmp_path / "g.cfg",
        "capacity_bytes=2147483648\npolicy=zipf_construction\n"
        "kernel_fraction=0.333333\nbyte_accounting=true\n",
    )
    out = str(tmp_path / "golden.json")
    t0 = time.perf_counter()
    # Run the package under test, not whatever copy the environment would find.
    src_dir = Path(zcl.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    subprocess.run(
        [sys.executable, "-m", "zcl", "synth", "--universe", "100000", "--alpha", "0.8",
         "--clients", "20", "--rate", "50000", "--days", "1",
         "--cacheable-fraction", "0.85", "--seed", "1234", "--out", trace],
        check=True, env=env, capture_output=True,
    )
    subprocess.run(
        [sys.executable, "-m", "zcl", "simulate", trace, cfg, "--out", out],
        check=True, env=env, capture_output=True,
    )
    elapsed = time.perf_counter() - t0
    expected = json.loads((GOLDEN_DIR / "simulate_zipf08.json").read_text())
    got = json.loads(Path(out).read_text())
    assert got == expected
    assert elapsed < 60.0


# --- byte identity of written traces ----------------------------------------------

# SHA-256 of outputs written by the reference implementation; any change to
# generation order, id naming, float formatting or CSV quoting moves them.
SYNTH_DIGESTS = {
    "none": (
        "f9f40abcd4128022ed167bcde2e5206c117856697c20b6e7210022a618d44b1b",
        "a9072f6ebd1174b46e61b00b08429802c3e2dbc2b8ab7a4ee4ef6cc520cccdda",
    ),
    "rank": (
        "f9f40abcd4128022ed167bcde2e5206c117856697c20b6e7210022a618d44b1b",
        "43a4ad048a5ff71b94b8b85619e151ab04ed92295c48a6dfd02abfec08f98373",
    ),
}
INGEST_DIGEST = "838c326c447e4a5f274591d74df1ebce5b02099bfe6872677c7d4dfe75e7dd66"

QUOTING_SQUID_LINES = """\
1000.25 120 10.0.0.1 TCP_MISS/200 8320 GET http://a/q?x=1,2 - DIRECT/1.2.3.4 text/html
1000.75 5 10.0.0.2 TCP_HIT/200 8320 GET http://a/q?x=1,2 - NONE/- text/html
1000.5 80 10.0.0.2 TCP_MISS/200 0 GET http://b/say"hi" - DIRECT/5.6.7.8 text/html
1001.0 3 10.0.0.3 TCP_MEM_HIT/200 77 GET http://b/say"hi" - NONE/- text/html
garbage
1002.0 10 10.0.0.1 TCP_DENIED/403 320 GET http://c/z - NONE/- text/html
1002.0 900 10.0.0.3 TCP_MISS/200 4096 CONNECT d.example:443 - DIRECT/9.9.9.9 -
"""


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("renewal", ["none", "rank"])
def test_synth_output_bytes_pinned(tmp_path, capsys, renewal):
    out, changes = tmp_path / "t.csv", tmp_path / "ch.csv"
    args = ["synth", "--universe", "300", "--alpha", "0.7", "--clients", "3",
            "--rate", "1500", "--days", "2", "--cacheable-fraction", "0.85",
            "--seed", "21", "--renewal", renewal, "--out", str(out),
            "--changes-out", str(changes)]
    if renewal == "rank":
        args += ["--alpha-r", "0.6"]
    assert main(args) == 0
    assert (sha256(out), sha256(changes)) == SYNTH_DIGESTS[renewal]


def test_ingest_output_bytes_pinned(tmp_path, capsys):
    log = write(tmp_path / "access.log", QUOTING_SQUID_LINES)
    out = tmp_path / "trace.csv"
    assert main(["ingest", log, str(out)]) == 0
    assert sha256(out) == INGEST_DIGEST
