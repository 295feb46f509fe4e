import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zcl
from zcl import analytics, cli, model
from zcl import simcache as simcache_module
from zcl import synth as synth_module
from zcl import trace as trace_module
from zcl.cli import main
from zcl.simcache import CacheConfig, Policy
from zcl.synth import SyntheticWorkloadSpec, generate_synthetic_trace
from zcl.trace import _csv_field, read_canonical_csv, read_trace, write_canonical_csv

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


HEADER = "timestamp_s,client_id,object_id,size_bytes,cacheable\n"


def trace_csv(path, rows):
    return write(path, HEADER + "".join(rows))


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


def test_ingest_counts_an_oversized_byte_count_as_malformed(tmp_path, capsys):
    lines = SQUID_LINES.splitlines()
    oversized = lines[1].replace(" 8320 ", " 99999999999999999999 ")
    log = write(tmp_path / "access.log", lines[0] + "\n" + oversized + "\n")
    assert main(["ingest", log, str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().out == "1 records, 1 malformed\n"


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


@pytest.mark.parametrize("alpha, bad_flag, message", [
    ("0.8", "--out", "cannot write {bad}"),
    ("0.8", "--changes-out", "cannot write {bad}"),
    ("1.5", "--out", "zipf_alpha must lie in (0, 1), got 1.5"),  # flag errors come first
])
def test_synth_opens_its_outputs_before_generating(
    tmp_path, capsys, monkeypatch, alpha, bad_flag, message
):
    def generate(spec):
        raise AssertionError("generated before the outputs were opened")

    monkeypatch.setattr(synth_module, "generate_synthetic_trace", generate)
    (tmp_path / "not-a-dir").write_text("")
    bad = str(tmp_path / "not-a-dir" / "x")
    outputs = {"--out": str(tmp_path / "t.csv"), "--changes-out": str(tmp_path / "ch.csv")}
    outputs[bad_flag] = bad
    argv = ["synth", "--universe", "50", "--alpha", alpha, *(x for kv in outputs.items() for x in kv)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message.format(bad=bad)}")


def test_synth_rank_renewal_needs_alpha_r(tmp_path):
    code = main(["synth", "--universe", "10", "--alpha", "0.5", "--renewal", "rank",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_synth_rejects_a_bad_renewal_window_before_opening_outputs(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["synth", "--universe", "10", "--alpha", "0.5", "--renewal", "rank",
                 "--alpha-r", "0.4", "--renewal-window", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: window must be positive")
    assert not out.exists()


TWO_VALUED_FLAGS = ["--mu-popular", "3", "--mu-unpopular", "0.5", "--popular-cutoff", "5"]


def test_synth_two_valued_renewal_writes_the_library_change_log(tmp_path, capsys):
    changes = tmp_path / "ch.csv"
    assert main(["synth", "--universe", "50", "--alpha", "0.8", "--rate", "100", "--days", "2",
                 "--seed", "5", "--renewal", "two", *TWO_VALUED_FLAGS,
                 "--out", str(tmp_path / "t.csv"), "--changes-out", str(changes)]) == 0
    spec = SyntheticWorkloadSpec(universe_size=50, zipf_alpha=0.8, per_client_rate=100.0,
                                 horizon_days=2.0, renewal=model.TwoValuedChangeRate(3.0, 0.5, 5),
                                 seed=5)
    expected = io.StringIO()
    assert trace_module.write_change_log_csv(generate_synthetic_trace(spec).changes, expected) > 0
    assert changes.read_text() == expected.getvalue()


@pytest.mark.parametrize("left_out", [0, 2, 4])
def test_synth_two_valued_renewal_needs_every_flag(tmp_path, capsys, left_out):
    flags = TWO_VALUED_FLAGS[:left_out] + TWO_VALUED_FLAGS[left_out + 2:]
    out = tmp_path / "t.csv"
    assert main(["synth", "--universe", "50", "--alpha", "0.8", "--renewal", "two", *flags,
                 "--out", str(out)]) == 2
    assert "needs --mu-popular" in capsys.readouterr().err
    assert not out.exists()


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


def test_simulate_eviction_csv_quotes_awkward_ids(tmp_path):
    ids = ["a,b", 'say "hi"', "plain"]
    rows = [f"{t},c0,{_csv_field(obj)},1,1\n" for t, obj in enumerate(ids * 2)]
    trace = trace_csv(tmp_path / "t.csv", rows)
    cfg = objects_cfg(tmp_path / "c.cfg", 1)
    ev = str(tmp_path / "ev.csv")
    assert main(["simulate", trace, cfg, "--out", str(tmp_path / "r.json"),
                 "--evictions-out", ev]) == 0
    with open(ev, newline="", encoding="utf-8") as f:
        got = list(csv.reader(f))
    assert all(len(fields) == 4 for fields in got)
    assert [fields[0] for fields in got[1:]] == (ids * 2)[:-1]


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


@pytest.mark.parametrize("dump", ["--evictions-out", "--occupancy-out"])
def test_simulate_dumps_need_a_single_config(tmp_path, capsys, dump):
    trace = trace_csv(tmp_path / "t.csv", [row(0.0, "a")])
    configs = [objects_cfg(tmp_path / f"{i}.cfg", 3) for i in range(2)]
    dumped = tmp_path / "dump.csv"
    assert main(["simulate", trace, *configs, "--out", str(tmp_path / "r.json"),
                 dump, str(dumped)]) == 2
    assert capsys.readouterr().err == "error: eviction/occupancy dumps need a single config\n"
    assert not dumped.exists()


@pytest.mark.parametrize(
    "bad_row", ["1.0,c0,B,1\n", "x1.0,c0,B,1,1\n", "1.0,c0,B,1,yes\n"]
)
def test_simulate_bad_trace_row_exits_2(tmp_path, capsys, bad_row):
    trace = trace_csv(tmp_path / "t.csv", [row(0.0, "A"), bad_row, row(2.0, "C")])
    cfg = objects_cfg(tmp_path / "c.cfg", 5)
    assert main(["simulate", trace, cfg, "--out", str(tmp_path / "r.json")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_simulate_unordered_trace_exits_2_naming_the_pair(tmp_path, capsys):
    rows = [row(0.0, "A"), row(2.0, "B", cacheable=0), row(1.5, "A"), row(3.0, "C")]
    trace = trace_csv(tmp_path / "t.csv", rows)
    cfg = objects_cfg(tmp_path / "c.cfg", 5)
    assert main(["simulate", trace, cfg, "--out", str(tmp_path / "r.json")]) == 2
    assert "records out of order: 1.5 after 2.0" in capsys.readouterr().err


def test_simulate_bad_config_key_exits_2(tmp_path):
    trace = trace_csv(tmp_path / "t.csv", [row(0.0, "A")])
    cfg = write(tmp_path / "c.cfg", "capacity_bytes=5\nwhatever=1\n")
    assert main(["simulate", trace, cfg, "--out", str(tmp_path / "r.json")]) == 2


# --- simulate and analyze through the forked reader ------------------------------


def trace_command(command, trace, cfg, out, *extra):
    """argv of `zcl simulate`, or of `zcl analyze --cache-config`, over trace."""
    if command == "simulate":
        return ["simulate", trace, cfg, "--out", out, *extra]
    return ["analyze", trace, "--cache-config", cfg, "--out", out, *extra]


STREAMING = pytest.mark.parametrize("command", ["simulate", "analyze"])


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


TRACE_ERRORS = {
    "empty file": b"",
    "missing column": b"timestamp_s,client_id,object_id,cacheable\n0.0,c0,A,1\n",
    "short row": (HEADER + "0.0,c0,A,1,1\n1.0,c0,B,1\n").encode(),
    "bad float": (HEADER + "0.0,c0,A,1,1\nx1.0,c0,B,1,1\n").encode(),
    "bad int": (HEADER + "0.0,c0,A,1,1\n1.0,c0,B,1.5,1\n").encode(),
    "bad bool": (HEADER + "0.0,c0,A,1,1\n1.0,c0,B,1,yes\n").encode(),
    "invalid utf-8": (HEADER + "0.0,c0,A,1,1\n").encode() + b"1.0,c0,\xff,1,1\n",
}


@STREAMING
@pytest.mark.parametrize("case", sorted(TRACE_ERRORS))
def test_simulate_reports_trace_errors_as_read_trace_raises_them(
    tmp_path, capsys, read_mode, case, command
):
    path = tmp_path / "t.csv"
    path.write_bytes(TRACE_ERRORS[case])
    with pytest.raises(ValueError) as raised, open(path, encoding="utf-8") as f:
        read_trace(f)
    cfg = objects_cfg(tmp_path / "c.cfg", 5)
    assert main(trace_command(command, str(path), cfg, str(tmp_path / "r.json"))) == 2
    assert capsys.readouterr().err == f"error: {raised.value}\n"
    assert len(read_mode) == (trace_module._usable_cpus() > 1)
    assert_reaped(read_mode)


@pytest.mark.parametrize("rows, code", [
    ([row(0.0, "A"), row(1.0, "B"), row(2.0, "A")], 0),
    ([row(0.0, "A"), "x,c0,B,1,1\n"], 2),
    ([row(2.0, "A"), row(1.0, "B")], 2),  # fails in the replay
], ids=["success", "format-error", "replay-error"])
@STREAMING
def test_simulate_leaves_no_reader_process(tmp_path, capsys, read_mode, rows, code, command):
    trace = trace_csv(tmp_path / "t.csv", rows)
    cfg = objects_cfg(tmp_path / "c.cfg", 5)
    assert main(trace_command(command, trace, cfg, str(tmp_path / "r.json"))) == code
    assert_reaped(read_mode)


@STREAMING
def test_simulate_read_error_after_open_exits_2(tmp_path, capsys, monkeypatch, read_mode, command):
    real = trace_module.read_blocks

    def failing(stream):
        yield next(real(stream))
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(trace_module, "read_blocks", failing)
    trace = trace_csv(tmp_path / "t.csv", [row(0.0, "A"), row(1.0, "B")])
    cfg = objects_cfg(tmp_path / "c.cfg", 5)
    assert main(trace_command(command, trace, cfg, str(tmp_path / "r.json"))) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot read trace {trace}: [Errno 5] Input/output error\n"


def test_analyze_never_holds_the_whole_trace(tmp_path, capsys, monkeypatch, read_mode):
    def whole_trace(*args):
        raise AssertionError("the whole trace was built")

    monkeypatch.setattr(trace_module, "read_trace", whole_trace)
    monkeypatch.setattr(trace_module.Trace, "from_blocks", whole_trace)
    trace = trace_csv(tmp_path / "t.csv", [row(float(t), f"o{t % 3}") for t in range(9)])
    cfg = objects_cfg(tmp_path / "c.cfg", 2, policy="zipf_construction")
    assert main(trace_command("analyze", trace, cfg, str(tmp_path / "r.json"))) == 0
    assert json.loads(capsys.readouterr().out)["K"] == 9


def test_ingest_never_holds_the_whole_log(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", 2)
    real = trace_module._interned

    def interned(tokens, table):
        assert len(tokens) <= 2, f"{len(tokens)} ids parsed at once"
        return real(tokens, table)

    monkeypatch.setattr(trace_module, "_interned", interned)
    log = write(tmp_path / "access.log", QUOTING_SQUID_LINES)
    out = tmp_path / "trace.csv"
    assert main(["ingest", log, str(out)]) == 0
    assert capsys.readouterr().out == "6 records, 1 malformed\n"
    assert sha256(out) == INGEST_DIGEST


@pytest.mark.parametrize("policy", ["lru", "zipf_construction"])
def test_simulate_builds_no_eviction_without_evictions_out(tmp_path, capsys, monkeypatch, policy):
    def built(*args):
        raise AssertionError("an Eviction was built")

    monkeypatch.setattr(simcache_module, "Eviction", built)
    trace = trace_csv(tmp_path / "t.csv", [row(float(t), f"o{t % 7}") for t in range(40)])
    cfg = objects_cfg(tmp_path / "c.cfg", 2, policy=policy)
    assert main(trace_command("simulate", trace, cfg, str(tmp_path / "r.json"))) == 0
    assert json.loads(capsys.readouterr().out)["evictions"] > 0


def test_simulate_exits_1_when_the_reader_dies(tmp_path):
    rows = [row(float(t), f"o{t % 5}") for t in range(40)]
    trace = trace_csv(tmp_path / "t.csv", rows)
    cfg = objects_cfg(tmp_path / "c.cfg", 5)
    script = (
        "import os, signal, sys\n"
        "from zcl import cli, trace\n"
        "real = trace.read_blocks\n"
        "def dying(stream):\n"
        "    blocks = real(stream)\n"
        "    yield next(blocks)\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        "trace.read_blocks = dying\n"
        "trace._BLOCK_ROWS = 4\n"
        "trace._usable_cpus = lambda: 2\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src_dir = Path(zcl.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", script, "simulate", trace, cfg, "--out", str(tmp_path / "r.json")],
        env=dict(os.environ, PYTHONPATH=str(src_dir)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("internal error: trace reader ended before the end")


@STREAMING
def test_simulate_trace_error_wins_over_an_earlier_order_error(
    tmp_path, capsys, monkeypatch, read_mode, command
):
    # Blocks of two rows: block 1 holds a decreasing pair, block 3 a bad row.
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", 2)
    rows = [row(2.0, "A"), row(1.0, "B"), row(3.0, "C"), row(4.0, "D"), row(5.0, "E"),
            "6.0,c0,F,1,maybe\n"]
    trace = trace_csv(tmp_path / "t.csv", rows)
    cfg = objects_cfg(tmp_path / "c.cfg", 5)
    assert main(trace_command(command, trace, cfg, str(tmp_path / "r.json"))) == 2
    assert capsys.readouterr().err == "error: line 7: bad boolean 'maybe' in column cacheable\n"


@STREAMING
@pytest.mark.parametrize("bad", ["config", "change log", "output"])
def test_simulate_trace_error_wins_over_a_config_error(tmp_path, capsys, read_mode, command, bad):
    trace = trace_csv(tmp_path / "t.csv", [row(0.0, "A"), "1.0,c0,B,1\n"])
    cfg, extra = objects_cfg(tmp_path / "c.cfg", 5), []
    if bad == "config":
        cfg = write(tmp_path / "c.cfg", "capacity_bytes=5\nwhatever=1\n")
    elif bad == "change log":
        extra = ["--changes", write(tmp_path / "ch.csv", "object_id,change_timestamp_s\nA,x\n")]
    else:
        # `simulate` opens --evictions-out before its replay; `analyze` has no
        # such output, and opens --profile-out after the stream.
        (tmp_path / "not-a-dir").write_text("")
        flag = "--evictions-out" if command == "simulate" else "--profile-out"
        extra = [flag, str(tmp_path / "not-a-dir" / "x")]
    assert main(trace_command(command, trace, cfg, str(tmp_path / "r.json"), *extra)) == 2
    assert capsys.readouterr().err == "error: line 3: row has too few columns\n"


def test_simulate_evictions_out_is_written_during_the_replay(tmp_path, capsys, monkeypatch):
    # Blocks of two rows: the first two blocks evict three times at capacity
    # one, then the third block goes back in time.
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", 2)
    rows = [row(0.0, "A"), row(1.0, "B"), row(2.0, "C"), row(3.0, "D"), row(1.5, "E")]
    trace = trace_csv(tmp_path / "t.csv", rows)
    cfg = objects_cfg(tmp_path / "c.cfg", 1)
    out, ev = str(tmp_path / "r.json"), tmp_path / "ev.csv"
    assert main(["simulate", trace, cfg, "--out", out, "--evictions-out", str(ev)]) == 2
    assert capsys.readouterr().err == "error: records out of order: 1.5 after 3.0\n"
    # The rows written before the replay failed stay, under an incomplete manifest.
    assert ev.read_text() == (
        "object_id,insert_ts,evict_ts,count\nA,0.0,1.0,1\nB,1.0,2.0,1\nC,2.0,3.0,1\n"
    )
    assert json.loads(Path(out + ".manifest.json").read_text())["status"] == "incomplete"
    # An unwritable --evictions-out is opened before the replay, so it wins.
    (tmp_path / "not-a-dir").write_text("")
    bad = str(tmp_path / "not-a-dir" / "x")
    assert main(["simulate", trace, cfg, "--out", out, "--evictions-out", bad]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: [Errno 20]")


@pytest.mark.parametrize("block_rows", [2, 1 << 16])
def test_simulate_names_the_physical_line_after_a_quoted_id(
    tmp_path, capsys, monkeypatch, read_mode, block_rows
):
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", block_rows)
    rows = ['1.0,c0,"x\ny",5,1\n', row(2.0, "A"), "bad,c0,c,10,1\n"]  # lines 2-3, 4, 5
    trace = trace_csv(tmp_path / "t.csv", rows)
    cfg = objects_cfg(tmp_path / "c.cfg", 5)
    assert main(["simulate", trace, cfg, "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: line 5: could not convert string to float")


@pytest.mark.parametrize("times, bad", [
    ([1.0, "nan", 0.5, 2.0], "nan"),  # a NaN hid the decreasing pair around it
    ([1.0, "inf", 2.0], "inf"),
])
def test_simulate_rejects_non_finite_timestamps(tmp_path, capsys, read_mode, times, bad):
    trace = trace_csv(tmp_path / "t.csv", [row(t, f"o{i}") for i, t in enumerate(times)])
    cfg = objects_cfg(tmp_path / "c.cfg", 5)
    assert main(["simulate", trace, cfg, "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: line 3: timestamp {bad!r} is not finite\n"


@pytest.mark.parametrize("rows, message", [
    ("A\n", "line 3: row has too few columns"),
    ('"x\ny",0.5\nA\n', "line 5: row has too few columns"),
    ("A,soon\n", "line 3: could not convert string to float: 'soon'"),
    ("A,nan\n", "line 3: change timestamp 'nan' is not finite"),
    ("A,-inf\n", "line 3: change timestamp '-inf' is not finite"),
])
def test_simulate_change_log_format_error_exits_2_naming_the_line(tmp_path, capsys, rows, message):
    trace = trace_csv(tmp_path / "t.csv", [row(0.0, "A"), row(1.0, "A")])
    changes = write(tmp_path / "ch.csv", "object_id,change_timestamp_s\nB,0.5\n" + rows)
    cfg = objects_cfg(tmp_path / "c.cfg", 5)
    args = ["simulate", trace, cfg, "--changes", changes, "--out", str(tmp_path / "r.json")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("capacity_bytes=5\nwhatever=1\n", "unknown config keys: ['whatever']"),
    ("policy=lru\n", "config needs capacity_bytes"),
    ("capacity_bytes=5\npolicy=fifo\n",
     "policy must be one of ['lru', 'zipf_construction'], got 'fifo'"),
    ("capacity_bytes=5\nbyte_accounting=ture\n",
     "bad cache config: byte_accounting must be 1/true/yes or 0/false/no, got 'ture'"),
    ("capacity_bytes=5\nbyte_accounting=\n",
     "bad cache config: byte_accounting must be 1/true/yes or 0/false/no, got ''"),
    # Only a # at the start of a line or after whitespace starts a comment.
    ("capacity_bytes=5 # bytes\npolicy=lru#x\n",
     "policy must be one of ['lru', 'zipf_construction'], got 'lru#x'"),
])
def test_simulate_bad_cache_config_exits_2_with_its_message(tmp_path, capsys, text, message):
    trace = trace_csv(tmp_path / "t.csv", [row(0.0, "A")])
    cfg = write(tmp_path / "c.cfg", text)
    assert main(["simulate", trace, cfg, "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("token, byte_accounting", [
    ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False), ("NO", False),
])
def test_cache_config_reads_byte_accounting_tokens_in_any_case(token, byte_accounting):
    pairs = {"capacity_bytes": "5", "byte_accounting": token}
    assert cli._cache_config(pairs).byte_accounting is byte_accounting


def test_cache_config_keys_left_out_take_cache_config_defaults():
    assert cli._cache_config({"capacity_bytes": "5"}) == CacheConfig(capacity_bytes=5)


def test_readme_cache_config_example_parses(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = write(tmp_path / "cache.cfg", block)
    assert cli._cache_config(cli._parse_flat_config(cfg)) == CacheConfig(
        2147483648, Policy.ZIPF_CONSTRUCTION, kernel_fraction=0.333333, byte_accounting=True
    )


def test_cli_import_leaves_out_multiprocessing():
    src_dir = Path(zcl.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", "import sys, zcl.cli; print('multiprocessing' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src_dir)), capture_output=True, text=True, timeout=60,
    )
    assert done.stdout.strip() == "False", done.stderr


@pytest.mark.parametrize("alpha, code", [("0.5", 0), ("1.5", 2)])
def test_module_entry_point_exits_with_the_cli_code(alpha, code):
    src_dir = Path(zcl.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "zcl", "model", "ideal-hit", "--alpha", alpha],
        env=dict(os.environ, PYTHONPATH=str(src_dir)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == code, done.stderr
    if code == 0:
        assert json.loads(done.stdout) == {"inputs": {"alpha": 0.5}, "value": 0.5}


# --- model ----------------------------------------------------------------------


def test_model_commands(capsys):
    assert main(["model", "ideal-hit", "--alpha", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.5
    assert main(["model", "mu", "--alpha", "0.72", "--alpha-r", "0.70",
                 "--tst", "15", "--quantile", "0.25"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1 / 202, rel=0.02)
    assert main(["model", "wolman", "--mu", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1.0
    assert main(["model", "wolman", "--universe", "1e6", "--mu", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1.0
    assert main(["model", "growth", "--alpha1", "0.76", "--t1", "31",
                 "--alpha2", "0.81", "--t2", "61"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.0739, abs=5e-4)


def test_model_rejects_out_of_range_alpha():
    assert main(["model", "ideal-hit", "--alpha", "1.5"]) == 2


@pytest.mark.parametrize("flags", [
    ["--mu", "-5"],
    ["--mu", "-0.0001"],
    ["--rate", "nan"],
    ["--universe", "nan"],
    ["--mu-popular", "1", "--mu-unpopular", "0.1", "--popular-cutoff", "-3"],
    ["--mu-popular", "-1", "--mu-unpopular", "0", "--popular-cutoff", "10"],
])
def test_model_wolman_rejects_bad_inputs(capsys, flags):
    assert main(["model", "wolman", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", [
    "normalization --alpha 0.8 --universe nan",
    "kernel-size --alpha 0.8 --hit-ratio nan --nu-out 1 --t-eff 1",
    "scale --h1 0.5 --s1 1 --s2 nan --alpha 0.8",
    "mu --alpha 0.8 --alpha-r 0.7 --tst nan --quantile 0.5",
    "wolman --universe inf",
    "expected-hit --pc 1 --alpha 0.8 --universe inf --kernel-objects 10",
])
def test_model_rejects_non_finite_flags(capsys, command):
    assert main(["model", *command.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --")
    assert "must be finite" in captured.err


def test_model_renewal_bound_rejects_alpha_r_above_alpha(capsys):
    assert main(["model", "ideal-hit-renewal", "--alpha", "0.7", "--alpha-r", "0.8"]) == 2
    assert capsys.readouterr().out == ""


def two_valued_wolman():
    law = model.TwoValuedChangeRate(2.0, 0.1, 1000.0)
    return model.wolman_hit_ratio(model.WolmanParams(1e5, 0.8, 127500.0, law))


# relation flags -> the JSON fields the library gives for them.
RELATION_CASES = {
    "ideal-hit --alpha 0.8": lambda: {"value": model.ideal_hit_ratio(0.8)},
    "ideal-hit-renewal --alpha 0.8 --alpha-r 0.7":
        lambda: {"value": model.ideal_hit_ratio_with_renewal(0.8, 0.7)},
    "normalization --alpha 0.8 --universe 1e5":
        lambda: {"value": model.zipf_normalization(0.8, 1e5)},
    "mu --alpha 0.72 --alpha-r 0.7 --tst 15 --quantile 0.25":
        lambda: {"value": model.mu_at_quantile(0.72, 0.7, 15.0, 0.25)},
    "mu --alpha 0.72 --alpha-r 0.7 --tst 15 --rank 10 --universe 1000":
        lambda: {"value": model.mu_of_rank(model.RenewalModel(0.72, 0.7, 15.0, 1000.0), 10.0)},
    "wolman --universe 1e5 --alpha 0.8 --rate 127500 --mu 0.01":
        lambda: {"value": model.wolman_hit_ratio(model.WolmanParams(1e5, 0.8, 127500.0, 0.01))},
    "wolman --universe 1e5 --alpha 0.8 --rate 127500 --mu 0"
    " --mu-popular 2 --mu-unpopular 0.1 --popular-cutoff 1000":
        lambda: {"value": two_valued_wolman()},
    "expected-hit --pc 0.85 --alpha 0.7 --universe 1e5 --kernel-objects 1000":
        lambda: {"value": model.expected_hit_ratio(0.85, 0.7, 1e5, 1000.0)},
    "scale --h1 24.49 --s1 1 --s2 5.96 --alpha 0.77":
        lambda: {"value": model.hit_scaling(24.49, 1.0, 5.96, 0.77)},
    "kernel-size --alpha 0.77 --hit-ratio 0.3 --nu-out 1e6 --t-eff 2.5":
        lambda: {"value": model.kernel_size(0.77, 0.3, 1e6, 2.5)},
    "ratio --alpha 0.8 --t-eff 3 --t-u 1.5":
        lambda: dataclasses.asdict(model.kernel_accessory_ratio(0.8, 3.0, 1.5)),
    "ratio --alpha 0.8 --t-eff 3 --t-u 1.5 --m 78000 --universe 248000":
        lambda: dataclasses.asdict(model.kernel_accessory_ratio(0.8, 3.0, 1.5, 78000.0, 248000.0)),
    "residuals --a 0.05 --k-r 1e6 --m 78000 --universe 248000 --alpha-r 0.7":
        lambda: dict(zip(("residual_M", "residual_p"),
                         model.special_point_residuals(0.05, 1e6, 78000.0, 248000.0, 0.7))),
    "growth --alpha1 0.76 --t1 31 --alpha2 0.81 --t2 61":
        lambda: {"value": analytics.alpha_growth_constant(0.76, 31.0, 0.81, 61.0)},
}


@pytest.mark.parametrize("command", list(RELATION_CASES))
def test_model_prints_the_library_value(capsys, command):
    relation, *flags = command.split()
    assert main(["model", relation, *flags]) == 0
    inputs = {flag[2:].replace("-", "_"): float(v) for flag, v in zip(flags[::2], flags[1::2])}
    assert json.loads(capsys.readouterr().out) == {"inputs": inputs, **RELATION_CASES[command]()}


@pytest.mark.parametrize("flags", [
    ["--mu-popular", "2"],
    ["--mu-popular", "2", "--mu-unpopular", "0.1"],
    ["--popular-cutoff", "1000"],
])
def test_model_wolman_needs_every_two_valued_flag(capsys, flags):
    assert main(["model", "wolman", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "needs --mu-popular" in captured.err


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


def test_report_reads_multi_config_simulate_output(tmp_path, capsys):
    rows = [row(float(t), f"o{t % 6}") for t in range(60)]
    trace = trace_csv(tmp_path / "t.csv", rows)
    lru = objects_cfg(tmp_path / "lru.cfg", 3)
    seg = objects_cfg(tmp_path / "seg.cfg", 3, policy="zipf_construction")
    multi = str(tmp_path / "multi.json")
    assert main(["simulate", trace, lru, seg, "--out", multi]) == 0
    out_dir = tmp_path / "figs"
    assert main(["report", multi, "--out-dir", str(out_dir)]) == 0
    hit_lines = (out_dir / "hit_ratio_vs_size.csv").read_text().splitlines()
    assert len(hit_lines) == 1 + 2


@pytest.mark.parametrize("doc", ["3", '"row"', "null", "[1, 2]", '[{"H_pct": 1.0}, []]'])
def test_report_rejects_json_that_holds_no_result_objects(tmp_path, capsys, doc):
    path = write(tmp_path / "r.json", doc)
    assert main(["report", path, "--out-dir", str(tmp_path / "figs")]) == 2
    assert "holds neither a result object nor a list of them" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", True])
@pytest.mark.parametrize("field", ["S_eff_over_nu_int_days", "t_u_days", "T_eff_days", "H_pct",
                                   "HB_pct", "alpha", "alpha_R", "p"])
def test_report_rejects_a_field_that_is_not_a_number(tmp_path, capsys, field, value):
    doc = result_row(5.96, 36.75, 10.78, tu=20.4, teff=18.9, alpha=0.81, alpha_r=0.7, p=607000)
    good = write(tmp_path / "good.json", json.dumps(doc))
    bad = write(tmp_path / "bad.json", json.dumps([doc, {**doc, field: value}]))
    assert main(["report", good, bad, "--out-dir", str(tmp_path / "figs")]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: field {field!r} is {value!r}, not a number\n"
    )


def test_report_rejects_a_negative_p_before_writing_anything(tmp_path, capsys):
    doc = result_row(5.96, 36.75, 10.78, tu=20.4, teff=18.9, alpha=0.8, alpha_r=0.7, p=-5)
    bad = write(tmp_path / "bad.json", json.dumps(doc))
    out_dir = tmp_path / "figs"
    assert main(["report", bad, "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: field 'p' is -5, below 0\n"
    assert not list(out_dir.glob("*.csv"))


@pytest.mark.parametrize("text, field, value", [
    ('{"alpha": 0.8, "alpha_R": 0.7, "p": NaN}', "p", "nan"),
    ('{"H_pct": Infinity, "S_eff_over_nu_int_days": 1.0}', "H_pct", "inf"),
    ('[{"H_pct": 30.0, "S_eff_over_nu_int_days": -Infinity}]', "S_eff_over_nu_int_days", "-inf"),
], ids=["p-nan", "H_pct-inf", "S_eff-minus-inf"])
def test_report_rejects_a_non_finite_field_before_writing_anything(tmp_path, capsys, text, field,
                                                                   value):
    bad = write(tmp_path / "bad.json", text)
    out_dir = tmp_path / "figs"
    assert main(["report", bad, "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: field {field!r} is {value}, not finite\n"
    assert not list(out_dir.glob("*.csv"))


@pytest.mark.parametrize("size, alpha, message", [
    (5.96, "1.5", "--alpha must lie in (0, 1), got 1.5"),
    (5.96, "0", "--alpha must lie in (0, 1), got 0.0"),
    (0, "0.77", "{bad}: field 'S_eff_over_nu_int_days' is 0, not above 0"),
    (-2.5, "0.77", "{bad}: field 'S_eff_over_nu_int_days' is -2.5, not above 0"),
], ids=["alpha-1.5", "alpha-0", "size-0", "size-negative"])
def test_report_rejects_an_unusable_alpha_or_size_before_writing_anything(tmp_path, capsys, size,
                                                                          alpha, message):
    good = result_row(1.0, 24.49, 9.13, tu=2.2, teff=3.8)
    bad = write(tmp_path / "bad.json", json.dumps([good, {**good, "S_eff_over_nu_int_days": size}]))
    out_dir = tmp_path / "figs"
    assert main(["report", bad, "--alpha", alpha, "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == "error: " + message.format(bad=bad) + "\n"
    assert not list(out_dir.glob("*.csv"))
    manifest = json.loads((out_dir / "report.manifest.json").read_text())
    assert (manifest["status"], manifest["outputs"]) == ("incomplete", [])


def test_report_writes_a_null_field_as_an_empty_csv_field(tmp_path):
    doc = result_row(1.0, 30.0, None, tu=2.0, teff=None)
    path = write(tmp_path / "r.json", json.dumps(doc))
    out_dir = tmp_path / "figs"
    assert main(["report", path, "--out-dir", str(out_dir)]) == 0
    lifetimes = (out_dir / "lifetimes_vs_size.csv").read_text().splitlines()
    assert lifetimes[1] == "1.0,2.0,"
    hits = (out_dir / "hit_ratio_vs_size.csv").read_text().splitlines()
    assert hits[1] == "1.0,30.0,,30.0"


@pytest.mark.parametrize("p", [0, None])
def test_report_skips_the_renewal_profile_of_a_zero_or_null_p(tmp_path, p):
    doc = result_row(5.96, 36.75, 10.78, tu=20.4, teff=18.9, alpha=0.8, alpha_r=0.7, p=p)
    path = write(tmp_path / "r.json", json.dumps(doc))
    out_dir = tmp_path / "figs"
    assert main(["report", path, "--out-dir", str(out_dir)]) == 0
    assert sorted(f.name for f in out_dir.glob("*.csv")) == [
        "hit_ratio_vs_size.csv", "lifetimes_vs_size.csv",
    ]

# --- reproducibility and the committed golden ------------------------------------


def test_manifest_written_on_partial_failure(tmp_path):
    cfg = objects_cfg(tmp_path / "c.cfg", 5)
    out = str(tmp_path / "r.json")
    code = main(["simulate", str(tmp_path / "missing.csv"), cfg, "--out", out])
    assert code == 2
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert manifest["outputs"] == [out]


def test_analyze_manifest_written_on_failure(tmp_path):
    trace = trace_csv(tmp_path / "t.csv", [row(0.0, "A", cacheable=0)])
    out = str(tmp_path / "row.json")
    assert main(["analyze", trace, "--out", out]) == 2
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert manifest["outputs"] == [out]


SMALL_SYNTH = ["synth", "--universe", "50", "--alpha", "0.8", "--rate", "100", "--seed", "1"]
OUTPUT_KINDS = [
    "ingest", "synth --out", "synth --changes-out", "simulate --out",
    "simulate --evictions-out", "simulate --occupancy-out", "analyze --out",
    "analyze --profile-out", "report --out-dir",
]


@pytest.mark.parametrize("kind", OUTPUT_KINDS)
def test_an_output_that_cannot_be_opened_exits_2(tmp_path, capsys, kind):
    (tmp_path / "not-a-dir").write_text("")
    bad = str(tmp_path / "not-a-dir" / "x")
    good = str(tmp_path / "out")
    trace = trace_csv(tmp_path / "t.csv", [row(0.0, "A"), row(1.0, "A")])
    cfg = objects_cfg(tmp_path / "c.cfg", 5)
    result = write(tmp_path / "r.json", '{"S_eff_over_nu_int_days": 1.0, "H_pct": 40.0}')
    argv = {
        "ingest": ["ingest", write(tmp_path / "access.log", SQUID_LINES), bad],
        "synth --out": [*SMALL_SYNTH, "--out", bad],
        "synth --changes-out": [*SMALL_SYNTH, "--out", good, "--changes-out", bad],
        "simulate --out": ["simulate", trace, cfg, "--out", bad],
        "simulate --evictions-out": ["simulate", trace, cfg, "--out", good, "--evictions-out", bad],
        "simulate --occupancy-out": ["simulate", trace, cfg, "--out", good, "--occupancy-out", bad],
        "analyze --out": ["analyze", trace, "--out", bad],
        "analyze --profile-out": ["analyze", trace, "--out", good, "--profile-out", bad],
        "report --out-dir": ["report", result, "--out-dir", bad],
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad}: [Errno 20] Not a directory")
    # The manifest is still attempted: next to the first output, or warned about.
    if good in argv:
        assert json.loads(Path(good + ".manifest.json").read_text())["status"] == "incomplete"
    else:
        assert "warning: cannot write manifest" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_write_that_fails_after_the_open_exits_1(tmp_path, capsys):
    full = tmp_path / "full"
    full.symlink_to("/dev/full")
    # Over 2000 eviction rows at capacity 1: the writer flushes during the
    # replay, inside the trace reader's body, and the error is not the trace's.
    trace = trace_csv(tmp_path / "t.csv", [row(float(t), f"o{t}") for t in range(2500)])
    cfg = objects_cfg(tmp_path / "c.cfg", 1)
    for argv in (
        [*SMALL_SYNTH, "--out", str(full)],
        ["simulate", trace, cfg, "--out", str(tmp_path / "r.json"), "--evictions-out", str(full)],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "internal error: [Errno 28] No space left on device"
        )


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


# Every file-writing command, on success and on failure: the manifest that
# main() builds from the files each subcommand declares.  Paths are relative
# to the working directory, as a user would type them.
SYNTH_ARGS = ["synth", "--universe", "50", "--alpha", "0.7", "--rate", "500",
              "--renewal", "rank", "--alpha-r", "0.6", "--size-mean", "999", "--seed", "4"]
SYNTH_PARAMETERS = {
    "universe": 50, "alpha": 0.7, "clients": 1, "rate": 500.0, "days": 1.0,
    "cacheable_fraction": 1.0, "renewal": "rank", "alpha_r": 0.6, "renewal_window": None,
    "mu_popular": None, "mu_unpopular": None, "popular_cutoff": None,
    "size_mean": 999.0, "size_sigma": 1.0,
}
MANIFEST_CASES = {
    "ingest": (
        ["ingest", "access.log", "out.csv"], "out.csv", 0,
        (["access.log"], ["out.csv"], {"malformed": 1}, "ok"),
    ),
    "ingest_missing_log": (
        ["ingest", "nope.log", "out.csv"], "out.csv", 2,
        (["nope.log"], ["out.csv"], {"malformed": None}, "incomplete"),
    ),
    "analyze_config_and_changes": (
        ["analyze", "t.csv", "--cache-config", "c.cfg", "--changes", "ch.csv", "--out", "r.json"],
        "r.json", 0,
        (["t.csv", "c.cfg", "ch.csv"], ["r.json"], {"window_days": None}, "ok"),
    ),
    "analyze_profile_out_alone": (
        ["analyze", "t.csv", "--window-days", "1", "--profile-out", "p.csv"], "p.csv", 0,
        (["t.csv"], ["p.csv"], {"window_days": 1.0}, "ok"),
    ),
    "analyze_all_uncacheable": (
        ["analyze", "u.csv", "--out", "r.json", "--profile-out", "p.csv"], "r.json", 2,
        (["u.csv"], ["r.json", "p.csv"], {"window_days": None}, "incomplete"),
    ),
    "synth": (
        SYNTH_ARGS + ["--out", "s.csv", "--changes-out", "s_ch.csv"], "s.csv", 0,
        ([], ["s.csv", "s_ch.csv"], SYNTH_PARAMETERS, "ok"),
    ),
    "synth_rank_without_alpha_r": (
        ["synth", "--universe", "10", "--alpha", "0.5", "--renewal", "rank", "--out", "s.csv"],
        "s.csv", 2,
        ([], ["s.csv"], {**SYNTH_PARAMETERS, "universe": 10, "alpha": 0.5, "rate": 10000.0,
                         "alpha_r": None, "size_mean": 13312.0}, "incomplete"),
    ),
    "simulate": (
        ["simulate", "t.csv", "c.cfg", "--changes", "ch.csv", "--out", "r.json",
         "--evictions-out", "ev.csv", "--occupancy-out", "occ.csv"], "r.json", 0,
        (["t.csv", "c.cfg", "ch.csv"], ["r.json", "ev.csv", "occ.csv"], {}, "ok"),
    ),
    "simulate_missing_trace": (
        ["simulate", "nope.csv", "c.cfg", "--changes", "ch.csv", "--out", "r.json"], "r.json", 2,
        (["nope.csv", "c.cfg", "ch.csv"], ["r.json"], {}, "incomplete"),
    ),
    "report": (
        ["report", "row.json", "--out-dir", "figs"], os.path.join("figs", "report"), 0,
        (["row.json"], [os.path.join("figs", "hit_ratio_vs_size.csv")], {"alpha": 0.77}, "ok"),
    ),
    # report creates --out-dir before it reads anything, so a failed run
    # still leaves its manifest there rather than a write warning.
    "report_empty_result_set": (
        ["report", "--out-dir", "figs"], os.path.join("figs", "report"), 2,
        ([], [], {"alpha": 0.77}, "incomplete"),
    ),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
def test_manifest_records_declared_files_and_parameters(tmp_path, monkeypatch, capsys, case):
    argv, anchor, code, (inputs, outputs, parameters, status) = MANIFEST_CASES[case]
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "access.log", SQUID_LINES)
    trace_csv(tmp_path / "t.csv", [row(float(t), f"o{t % 3}") for t in range(9)])
    trace_csv(tmp_path / "u.csv", [row(0.0, "A", cacheable=0)])
    write(tmp_path / "ch.csv", "object_id,change_timestamp_s\no1,4.5\n")
    objects_cfg(tmp_path / "c.cfg", 2)
    write(tmp_path / "row.json", json.dumps(result_row(1.0, 24.5, 9.1)))
    assert main(argv) == code
    assert "warning" not in capsys.readouterr().err
    manifest = json.loads(Path(anchor + ".manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert (manifest["inputs"], manifest["outputs"]) == (inputs, outputs)
    assert (manifest["parameters"], manifest["status"]) == (parameters, status)


def test_synth_reruns_from_its_manifest(tmp_path, capsys):
    first, again = tmp_path / "a", tmp_path / "b"
    assert main(SYNTH_ARGS + ["--days", "2", "--out", f"{first}.csv",
                              "--changes-out", f"{first}_ch.csv"]) == 0
    manifest = json.loads(Path(f"{first}.csv.manifest.json").read_text())
    argv = ["synth", "--seed", str(manifest["seed"])]
    for name, value in manifest["parameters"].items():
        if value is not None:
            argv += ["--" + name.replace("_", "-"), str(value)]
    assert main(argv + ["--out", f"{again}.csv", "--changes-out", f"{again}_ch.csv"]) == 0
    assert Path(f"{again}.csv").read_bytes() == Path(f"{first}.csv").read_bytes()
    assert Path(f"{again}_ch.csv").read_bytes() == Path(f"{first}_ch.csv").read_bytes()
    assert Path(f"{first}_ch.csv").read_text().count("\n") > 1  # the change log is not empty


def test_model_writes_no_manifest_and_echoes_only_its_flags(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["model", "ideal-hit", "--alpha", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"] == {"alpha": 0.5}
    assert main(["model", "wolman", "--mu", "1", "--popular-cutoff", "5",
                 "--mu-popular", "2", "--mu-unpopular", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"] == {
        "universe": 10000.0, "alpha": 0.8, "rate": 10000.0, "mu": 1.0,
        "mu_popular": 2.0, "mu_unpopular": 0.5, "popular_cutoff": 5.0,
    }
    assert os.listdir(tmp_path) == []


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


# Blocks of 2 rows make the forked writer format every other block in a child.
@pytest.mark.parametrize("block_rows", [2, 1 << 16])
@pytest.mark.parametrize("renewal", ["none", "rank"])
def test_synth_output_bytes_pinned(tmp_path, capsys, monkeypatch, read_mode, block_rows, renewal):
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", block_rows)
    out, changes = tmp_path / "t.csv", tmp_path / "ch.csv"
    args = ["synth", "--universe", "300", "--alpha", "0.7", "--clients", "3",
            "--rate", "1500", "--days", "2", "--cacheable-fraction", "0.85",
            "--seed", "21", "--renewal", renewal, "--out", str(out),
            "--changes-out", str(changes)]
    if renewal == "rank":
        args += ["--alpha-r", "0.6"]
    assert main(args) == 0
    assert (sha256(out), sha256(changes)) == SYNTH_DIGESTS[renewal]
    assert len(read_mode) == (block_rows == 2 and trace_module._usable_cpus() > 1)
    assert_reaped(read_mode)


# The log has 7 lines and 6 records.  Blocks of 2 lines split the
# out-of-order pair and the tied 1002.0 lines; blocks of 7 end the stream on
# an empty block.
@pytest.mark.parametrize("block_rows", [1, 2, 7, 1 << 16])
def test_ingest_output_bytes_pinned(tmp_path, capsys, monkeypatch, read_mode, block_rows):
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", block_rows)
    log = write(tmp_path / "access.log", QUOTING_SQUID_LINES)
    out = tmp_path / "trace.csv"
    assert main(["ingest", log, str(out)]) == 0
    assert sha256(out) == INGEST_DIGEST
    # Forked exactly when the 6 records span two or more writer blocks.
    assert len(read_mode) == (6 > block_rows and trace_module._usable_cpus() > 1)
    assert_reaped(read_mode)


# SHA-256 of the --evictions-out and --occupancy-out files for configs with
# heavy eviction, on a trace whose timestamps are rounded to 10 minutes so
# that many requests tie; any change to victim order or tie-breaking moves them.
EVICTION_CONFIGS = {
    "zc_objects_managed": (
        "capacity_bytes=20\npolicy=zipf_construction\nbyte_accounting=false\n"
        "managing_capacity=30\noccupancy_stride=97\n"
    ),
    "zc_bytes": (
        "capacity_bytes=300000\npolicy=zipf_construction\nkernel_fraction=0.5\n"
        "occupancy_stride=97\n"
    ),
    "lru_bytes": "capacity_bytes=300000\npolicy=lru\noccupancy_stride=97\n",
}
EVICTION_DIGESTS = {
    "zc_objects_managed": (
        "b755e3c287e6dae3c1daf64ca3f7aa88c897b956c14fa04f19890e1aae8abb1d",
        "c3ba5cadf28f269be89c763d094a4c35cd053044ba21edbab38a261d80451014",
    ),
    "zc_bytes": (
        "a4cdc7ab833776a5bee42040a85a42ee793b8b156dec4e76cdc53e120ddb8b06",
        "a77d41cc4abefc049c8c0fde1a95b330cbeb4112e66ec65849e812f3e46f9251",
    ),
    "lru_bytes": (
        "5b29b3f02dec26124c03e274357cf375ae1022e8fe7a4bd6d173ccb01e411f17",
        "ba7276d734d711716f4a2718f94b40baebe8ff3766baa1d7853751dfa3633253",
    ),
}


@pytest.mark.parametrize("label", sorted(EVICTION_CONFIGS))
def test_simulate_eviction_and_occupancy_bytes_pinned(tmp_path, capsys, label):
    spec = SyntheticWorkloadSpec(
        universe_size=300, zipf_alpha=0.7, clients=3, per_client_rate=1500.0,
        horizon_days=2.0, cacheable_fraction=0.85, seed=21,
    )
    records = generate_synthetic_trace(spec).records
    tied = dataclasses.replace(records, timestamps=np.floor(records.timestamps / 600.0) * 600.0)
    trace = tmp_path / "t.csv"
    with open(trace, "w", encoding="utf-8") as f:
        write_canonical_csv(tied, f)
    cfg = write(tmp_path / "c.cfg", EVICTION_CONFIGS[label])
    ev, occ = tmp_path / "ev.csv", tmp_path / "occ.csv"
    assert main(["simulate", str(trace), cfg, "--out", str(tmp_path / "r.json"),
                 "--evictions-out", str(ev), "--occupancy-out", str(occ)]) == 0
    assert len(ev.read_text().splitlines()) > 1000
    assert (sha256(ev), sha256(occ)) == EVICTION_DIGESTS[label]


# SHA-256 of `zcl analyze`'s --out JSON and --profile-out CSV.  "synth": a
# rank-renewal trace cut to a 1.5-day window and replayed through an
# objects-mode construction with its change log.  "squid": an ingested log
# in which http://x is denied before it is requested cacheably, so x ties
# with http://y on one cacheable request and ranks after it: ties rank by
# first cacheable appearance, not by code.
TIE_SQUID_LINES = """\
100.0 5 10.0.0.1 TCP_DENIED/403 320 GET http://x - NONE/- text/html
101.0 80 10.0.0.2 TCP_MISS/200 640 GET http://y - DIRECT/5.6.7.8 text/html
102.0 80 10.0.0.1 TCP_MISS/200 900 GET http://x - DIRECT/5.6.7.8 text/html
103.0 80 10.0.0.2 TCP_MISS/200 77 GET http://z - DIRECT/5.6.7.8 text/html
104.0 5 10.0.0.3 TCP_HIT/200 77 GET http://z - NONE/- text/html
105.0 80 10.0.0.3 TCP_MISS/200 4096 CONNECT d.example:443 - DIRECT/9.9.9.9 -
106.0 5 10.0.0.2 TCP_DENIED/403 320 GET http://w - NONE/- text/html
107.0 80 10.0.0.1 TCP_MISS/200 640 GET http://w - DIRECT/5.6.7.8 text/html
"""
ANALYZE_DIGESTS = {
    "squid": (
        "5f4c8b091a666b7e8e98bcf62ed0f4bfb36ebdef7f94c17185551536faeb7ade",
        "b5f8e06516399e47e754a3ae59952ea4228421ef5678b096ca09035abbf7c35a",
    ),
    "synth": (
        "30a3a6bee9d4d8a5883e26b8444861f4013f48d0e644aa12a95421fa9f5b54ad",
        "e4bcc4612ea6acfd57b85afc536cb4acfa632eed978d2a7f12c4adbe4ff57ddf",
    ),
}


@pytest.mark.parametrize("block_rows", [2, 1 << 16])
@pytest.mark.parametrize("case", sorted(ANALYZE_DIGESTS))
def test_analyze_outputs_pinned(tmp_path, capsys, monkeypatch, read_mode, block_rows, case):
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", block_rows)
    trace = str(tmp_path / "t.csv")
    if case == "synth":
        changes = str(tmp_path / "ch.csv")
        assert main(["synth", "--universe", "3000", "--alpha", "0.7", "--clients", "3",
                     "--rate", "1500", "--days", "2", "--cacheable-fraction", "0.85",
                     "--seed", "21", "--renewal", "rank", "--alpha-r", "0.6",
                     "--out", trace, "--changes-out", changes]) == 0
        cfg = objects_cfg(tmp_path / "c.cfg", 40, policy="zipf_construction")
        extra = ["--window-days", "1.5", "--cache-config", cfg, "--changes", changes]
    else:
        assert main(["ingest", write(tmp_path / "access.log", TIE_SQUID_LINES), trace]) == 0
        extra = []
    out, profile = tmp_path / "row.json", tmp_path / "profile.csv"
    assert main(["analyze", trace, *extra, "--out", str(out), "--profile-out", str(profile)]) == 0
    if case == "squid":
        ranked = [line.split(",")[1] for line in profile.read_text().splitlines()[1:]]
        assert ranked == ["http://z", "http://y", "http://x", "http://w"]
    assert (sha256(out), sha256(profile)) == ANALYZE_DIGESTS[case]
    assert_reaped(read_mode)
