import csv
import dataclasses
import io
import math
import os
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zcl import trace as trace_module
from zcl.trace import (
    Trace,
    TraceFormatError,
    TraceRecord,
    parse_squid_log,
    read_ahead,
    read_blocks,
    read_canonical_csv,
    read_change_log_csv,
    read_trace,
    write_canonical_csv,
    write_change_log_csv,
)

GOOD_MISS = "1000.5 120 10.0.0.1 TCP_MISS/200 8320 GET http://a/x.gif -"
GOOD_HIT = "1001.0 5 10.0.0.1 TCP_HIT/200 8320 GET http://a/x.gif -"


def test_squid_miss_line_maps_fields():
    parsed = parse_squid_log([GOOD_MISS])
    assert parsed.malformed == 0
    (rec,) = parsed.records
    assert rec.timestamp == 1000.5
    assert rec.client_id == "10.0.0.1"
    assert rec.object_id == "http://a/x.gif"
    assert rec.size_bytes == 8320
    assert rec.cacheable is True
    assert rec.origin_hit is False


def test_squid_hit_line_sets_origin_hit():
    (rec,) = parse_squid_log([GOOD_HIT]).records
    assert rec.origin_hit is True
    assert rec.cacheable is True


# At one line a block, a per-block half-malformed rule would raise on the
# lone "###" block, and a per-block sort would leave a reversed pair as it is.
SQUID_BLOCK_ROWS = pytest.mark.parametrize("block_rows", [1, 1 << 16])


@SQUID_BLOCK_ROWS
def test_squid_garbage_line_skipped_not_fatal(monkeypatch, block_rows):
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", block_rows)
    lines = [GOOD_MISS] * 10 + ["###"]
    parsed = parse_squid_log(lines)
    assert len(parsed.records) == 10
    assert parsed.malformed == 1


def test_squid_blank_line_is_skipped_and_not_counted():
    parsed = parse_squid_log([GOOD_MISS, "", "  \t", GOOD_HIT])
    assert (len(parsed.records), parsed.malformed, parsed.total_lines) == (2, 0, 2)


def test_squid_unparsable_timestamp_or_byte_count_is_malformed():
    fields = GOOD_HIT.split()
    lines = [" ".join(["abc", *fields[1:]]), " ".join([*fields[:4], "12x", *fields[5:]])]
    parsed = parse_squid_log([GOOD_MISS, *lines, GOOD_HIT])
    assert (parsed.malformed, parsed.total_lines) == (2, 4)
    assert parsed.records.timestamps.tolist() == [1000.5, 1001.0]


def test_squid_non_finite_timestamp_is_malformed():
    lines = [GOOD_MISS, "nan" + GOOD_HIT[6:], "inf" + GOOD_HIT[6:], GOOD_HIT]
    parsed = parse_squid_log(lines)
    assert parsed.malformed == 2
    assert parsed.records.timestamps.tolist() == [1000.5, 1001.0]


def test_squid_byte_count_beyond_int64_is_malformed():
    fields = GOOD_HIT.split()
    lines = [" ".join(fields[:4] + [size] + fields[5:])
             for size in ("9223372036854775807", "9223372036854775808", "99999999999999999999")]
    parsed = parse_squid_log([GOOD_MISS, *lines])
    assert parsed.malformed == 2
    assert parsed.records.sizes.tolist() == [8320, 2**63 - 1]


@SQUID_BLOCK_ROWS
def test_squid_mostly_garbage_is_format_error(monkeypatch, block_rows):
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", block_rows)
    lines = ["not a log line at all"] * 6 + [GOOD_MISS] * 4
    with pytest.raises(TraceFormatError):
        parse_squid_log(lines)


def test_squid_denied_and_connect_uncacheable():
    lines = [
        "1.0 3 c1 TCP_DENIED/403 320 GET http://a/secret -",
        "2.0 3 c1 TCP_MISS/200 999 CONNECT a.example:443 -",
        "3.0 3 c1 NONE/400 0 GET error:bad-request -",
    ]
    parsed = parse_squid_log(lines)
    assert [r.cacheable for r in parsed.records] == [False, False, False]
    # zero-byte responses are clamped to the 1-byte floor
    assert parsed.records[2].size_bytes == 1


@SQUID_BLOCK_ROWS
def test_squid_output_sorted_by_time(monkeypatch, block_rows):
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", block_rows)
    lines = [GOOD_HIT, GOOD_MISS]  # reversed timestamps
    parsed = parse_squid_log(lines)
    assert [r.timestamp for r in parsed.records] == [1000.5, 1001.0]


def test_squid_refresh_hit_counts_as_hit():
    line = "5.0 1 c1 TCP_REFRESH_HIT/200 100 GET http://a/b -"
    assert parse_squid_log([line]).records[0].origin_hit is True


# --- canonical CSV ------------------------------------------------------------


def roundtrip(records):
    buf = io.StringIO()
    write_canonical_csv(records, buf)
    buf.seek(0)
    return list(read_canonical_csv(buf))


def test_csv_single_row():
    rec = TraceRecord(12.25, "c9", "http://x/y?z=1", 512, True, None)
    assert roundtrip([rec]) == [rec]


def test_csv_quotes_awkward_ids():
    rec = TraceRecord(1.0, 'c,"9"', "http://x/y?a=1,2", 7, False, True)
    assert roundtrip([rec]) == [rec]


def test_csv_empty_with_header_is_empty_stream():
    buf = io.StringIO()
    write_canonical_csv([], buf)
    buf.seek(0)
    assert list(read_canonical_csv(buf)) == []


def test_csv_missing_column_reports_name():
    buf = io.StringIO("timestamp_s,client_id,object_id,cacheable\n")
    with pytest.raises(TraceFormatError, match="size_bytes"):
        list(read_canonical_csv(buf))


def test_csv_empty_file_is_format_error():
    with pytest.raises(TraceFormatError):
        list(read_canonical_csv(io.StringIO("")))


HEADER = "timestamp_s,client_id,object_id,size_bytes,cacheable\n"


@pytest.mark.parametrize("block_rows", [2, 1 << 16])
@pytest.mark.parametrize(
    "row, message",
    [
        ("1.0,c0,o1,5\n", "line 4: "),  # short row
        ("1.0,c0,o1\n", "line 4: "),  # short row, fewer columns still
        ("x1.0,c0,o1,5,1\n", "line 4: could not convert string to float"),
        ("1.0,c0,o1,5.5,1\n", "line 4: invalid literal for int"),
        ("1.0,c0,o1,5,yes\n", "line 4: bad boolean 'yes' in column cacheable"),
    ],
)
def test_csv_bad_row_names_line(row, message, block_rows):
    text = HEADER + "0.5,c0,o1,5,1\n\n" + row + "2.0,c0,o2,5,1\nbad,c0,o2,5,1\n"
    with mock.patch.object(trace_module, "_BLOCK_ROWS", block_rows):
        with pytest.raises(TraceFormatError, match=message):
            read_trace(io.StringIO(text))


def test_csv_bad_origin_names_line():
    text = HEADER[:-1] + ",origin_hit\n1.0,c0,o1,5,1,\n2.0,c0,o1,5,1,maybe\n"
    with pytest.raises(TraceFormatError, match="line 3: bad boolean 'maybe' in column origin_hit"):
        read_trace(io.StringIO(text))


@pytest.mark.parametrize("block_rows", [2, 3, 1 << 16])
@pytest.mark.parametrize(
    "rows, message",
    [
        # A quoted id over lines 2-3, a good row on line 4, a bad one on line 5.
        ('1.0,c0,"x\ny",5,1\n2.0,c0,o1,5,1\nbad,c0,c,10,1\n', "line 5: could not convert"),
        # The quoted id over lines 3-4 runs past the end of a two-line block.
        ('1.0,c0,o1,5,1\n2.0,c0,"p\nq",5,1\nbad,c0,c,10,1\n', "line 5: could not convert"),
        # A bad row over lines 4-5 is named by the line it starts on.
        ('1.0,c0,"x\ny",5,1\n1.5,c0,"p\nq",5,maybe\n', "line 4: bad boolean 'maybe'"),
    ],
    ids=["after", "across-block-end", "multi-line-bad-row"],
)
def test_csv_bad_row_after_a_multi_line_row_names_its_physical_line(rows, message, block_rows):
    with mock.patch.object(trace_module, "_BLOCK_ROWS", block_rows):
        with pytest.raises(TraceFormatError, match=message):
            read_trace(io.StringIO(HEADER + rows))


@pytest.mark.parametrize("block_rows", [2, 1 << 16])
@pytest.mark.parametrize(
    "row, message",
    [
        ("nan,c0,o1,5,1\n", "line 3: timestamp 'nan' is not finite"),
        ("inf,c0,o1,5,1\n", "line 3: timestamp 'inf' is not finite"),
        ("-Infinity,c0,o1,5,1\n", "line 3: timestamp '-Infinity' is not finite"),
        ("1.0,c0,o1,0,1\n", "line 3: size 0 is below 1"),
        ("1.0,c0,o1,-7,1\n", "line 3: size -7 is below 1"),
    ],
)
def test_csv_rejects_non_finite_timestamps_and_sizes_below_1(row, message, block_rows):
    text = HEADER + "0.5,c0,o1,5,1\n" + row + "2.0,c0,o2,5,1\n"
    with mock.patch.object(trace_module, "_BLOCK_ROWS", block_rows):
        with pytest.raises(TraceFormatError, match=message):
            read_trace(io.StringIO(text))


ids = st.text(
    st.sampled_from("abcdefghijklmnopqrstuvwxyzABC0123456789:/._-?&%"), min_size=1, max_size=40
)
records_strategy = st.lists(
    st.builds(
        TraceRecord,
        timestamp=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        client_id=ids,
        object_id=ids,
        size_bytes=st.integers(min_value=1, max_value=10**12),
        cacheable=st.booleans(),
        origin_hit=st.one_of(st.none(), st.booleans()),
    ),
    max_size=60,
)


@given(records=records_strategy)
@settings(max_examples=150)
def test_csv_roundtrip_identity(records):
    assert roundtrip(records) == records


@given(records=st.lists(
    st.builds(
        TraceRecord,
        timestamp=st.floats(),
        client_id=ids,
        object_id=ids,
        size_bytes=st.integers(min_value=-3, max_value=2**64),
        cacheable=st.booleans(),
        origin_hit=st.one_of(st.none(), st.booleans()),
    ),
    max_size=8,
))
@example(records=[TraceRecord(math.nan, "c", "o", 5, True)])
@example(records=[TraceRecord(1.0, "c", "o", 0, True), TraceRecord(2.0, "c", "o", -5, True)])
@settings(max_examples=200)
def test_a_trace_holds_only_records_that_canonical_csv_reads_back(records):
    try:
        trace = Trace.from_records(records)
    except (ValueError, OverflowError):
        assert any(not (math.isfinite(r.timestamp) and 1 <= r.size_bytes < 2**63) for r in records)
    else:
        assert roundtrip(trace) == records


def test_csv_roundtrip_thousand_records():
    import random

    rng = random.Random(7)
    records = [
        TraceRecord(
            timestamp=rng.uniform(0, 1e6),
            client_id=f"c{rng.randrange(50)}",
            object_id=f"o{rng.randrange(300)}",
            size_bytes=rng.randrange(1, 10**7),
            cacheable=rng.random() < 0.7,
            origin_hit=rng.choice([None, True, False]),
        )
        for _ in range(1000)
    ]
    assert roundtrip(records) == records


# --- change log CSV -----------------------------------------------------------


def test_change_log_roundtrip():
    changes = {"o1": [3.5, 1.25, 9.0], "o17": [0.5]}
    buf = io.StringIO()
    n = write_change_log_csv(changes, buf)
    assert n == 4
    buf.seek(0)
    back = read_change_log_csv(buf)
    assert back == {"o1": [1.25, 3.5, 9.0], "o17": [0.5]}


def test_change_log_bad_header():
    with pytest.raises(TraceFormatError):
        read_change_log_csv(io.StringIO("a,b\n1,2\n"))


# --- block reader against the csv module ----------------------------------------------

awkward_ids = st.text(st.sampled_from('ab,"\n 0é'), max_size=6)
awkward_records = st.lists(
    st.builds(
        TraceRecord,
        timestamp=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        client_id=st.sampled_from(["c0", "c1", "c,2"]),
        object_id=st.one_of(st.sampled_from(["o1", "o2"]), awkward_ids),
        size_bytes=st.integers(min_value=1, max_value=10**12),
        cacheable=st.booleans(),
        origin_hit=st.one_of(st.none(), st.booleans()),
    ),
    max_size=25,
)


def reference_rows(records, with_origin):
    """One csv.writer line per record, as the row-at-a-time writer produced them."""
    for r in records:
        buf = io.StringIO()
        row = [repr(r.timestamp), r.client_id, r.object_id, str(r.size_bytes),
               "1" if r.cacheable else "0"]
        if with_origin:
            row.append("" if r.origin_hit is None else ("1" if r.origin_hit else "0"))
        csv.writer(buf, lineterminator="\n").writerow(row)
        yield buf.getvalue()


def reference_read(text):
    """Records parsed row by row with csv.reader, the behaviour read_trace keeps."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    idx = {name: header.index(name) for name in header}
    for row in reader:
        if not row:
            continue
        origin = row[idx["origin_hit"]] if "origin_hit" in idx else ""
        yield TraceRecord(
            float(row[idx["timestamp_s"]]),
            row[idx["client_id"]],
            row[idx["object_id"]],
            int(row[idx["size_bytes"]]),
            row[idx["cacheable"]] == "1",
            None if origin == "" else origin == "1",
        )


@given(records=awkward_records, data=st.data())
@settings(max_examples=200, deadline=None)
def test_block_reader_and_writer_match_csv_module(records, data):
    with_origin = any(r.origin_hit is not None for r in records)
    rows = list(reference_rows(records, with_origin))
    header = HEADER[:-1] + (",origin_hit" if with_origin else "")

    buf = io.StringIO()
    assert write_canonical_csv(Trace.from_records(records), buf) == len(records)
    assert buf.getvalue() == header + "\n" + "".join(rows)

    # Blank lines between rows and an ignored extra column, then read with
    # blocks small enough that quoted and plain rows share and cross them.
    if data.draw(st.booleans()):
        header += ",extra"
        rows = [row[:-1] + ",x\n" for row in rows]
    blanks = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    text = header + "\n" + "".join(("\n" if blank else "") + row for blank, row in zip(blanks, rows))
    expected = list(reference_read(text))
    assert expected == records
    for block_rows in (1, 2, 3, 1 << 16):
        with mock.patch.object(trace_module, "_BLOCK_ROWS", block_rows):
            assert list(read_trace(io.StringIO(text))) == expected


# --- block stream and the forked reader ------------------------------------------------


PLAIN_RECORDS = [
    TraceRecord(float(t), f"c{t % 3}", f"o{t % 11}", t + 1, t % 4 != 0) for t in range(40)
]
# Ids with line breaks make quoted fields that run past the end of a block.
QUOTED_IDS = ["a", "x\ny", 'say "hi"', "p\nq\nr", "b,c"]
QUOTED_RECORDS = [
    TraceRecord(float(t), "c,0", QUOTED_IDS[t % 5], 7, True, t % 2 == 0) for t in range(40)
]


@pytest.mark.parametrize("block_rows", [2, 7])
@pytest.mark.parametrize("records", [PLAIN_RECORDS, QUOTED_RECORDS], ids=["plain", "quoted"])
def test_read_ahead_blocks_concatenate_to_read_trace(monkeypatch, read_mode, block_rows, records):
    buf = io.StringIO()
    write_canonical_csv(records, buf)
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", block_rows)
    blocks = list(read_ahead(read_blocks(io.StringIO(buf.getvalue()))))
    whole = read_trace(io.StringIO(buf.getvalue()))
    assert len(read_mode) == (trace_module._usable_cpus() > 1)
    assert len(blocks) > 40 // block_rows
    assert Trace.from_blocks(blocks) == whole == Trace.from_records(records)
    assert Trace.from_blocks(blocks).object_ids == whole.object_ids
    seen: set[str] = set()
    for block in blocks:
        first_seen = dict.fromkeys(whole.object_ids[code] for code in block.objects.tolist())
        assert block.new_object_ids == tuple(obj for obj in first_seen if obj not in seen)
        seen.update(first_seen)


@pytest.mark.parametrize("rows", [0, 6, 7])
def test_trace_blocks_roundtrip(rows):
    trace = Trace.from_records(PLAIN_RECORDS[:rows])
    blocks = list(trace.blocks(3))
    assert len(blocks) == max(1, -(-rows // 3))
    back = Trace.from_blocks(blocks)
    assert back == trace and back.object_ids == trace.object_ids


def test_read_ahead_reads_in_process_when_fork_fails(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(trace_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(trace_module.os, "fork", no_fork)
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", 7)
    buf = io.StringIO()
    write_canonical_csv(PLAIN_RECORDS, buf)
    blocks = read_ahead(read_blocks(io.StringIO(buf.getvalue())))
    assert Trace.from_blocks(blocks) == Trace.from_records(PLAIN_RECORDS)


# --- the two-core writer -------------------------------------------------------------


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("block_rows", [2, 7])
@pytest.mark.parametrize("blocks", [0, 1, 2, 3, "all"])
@pytest.mark.parametrize("records", [PLAIN_RECORDS, QUOTED_RECORDS], ids=["plain", "quoted"])
def test_writer_matches_csv_module_in_blocks(monkeypatch, read_mode, block_rows, blocks, records):
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", block_rows)
    # Three blocks end with a short one; all 40 records make 20 or 6 blocks.
    records = records if blocks == "all" else records[: blocks * block_rows - (blocks == 3)]
    with_origin = any(r.origin_hit is not None for r in records)
    buf = io.StringIO()
    assert write_canonical_csv(records, buf) == len(records)
    header = HEADER[:-1] + (",origin_hit\n" if with_origin else "\n")
    assert buf.getvalue() == header + "".join(reference_rows(records, with_origin))
    forked = -(-len(records) // block_rows) > 1 and trace_module._usable_cpus() > 1
    assert len(read_mode) == forked
    assert_reaped(read_mode)


class FailingOut(io.StringIO):
    """A text stream whose write raises on the fail_at-th call."""

    def __init__(self, fail_at):
        super().__init__()
        self.calls = 0
        self.fail_at = fail_at
        self.error = OSError(28, "No space left on device")

    def write(self, text):
        self.calls += 1
        if self.calls == self.fail_at:
            raise self.error
        return super().write(text)


@pytest.mark.parametrize("fail_at", [2, 3, 4, 6])
def test_writer_reaps_its_child_when_a_write_fails(monkeypatch, read_mode, fail_at):
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", 7)
    out = FailingOut(fail_at)
    with pytest.raises(OSError) as raised:
        write_canonical_csv(PLAIN_RECORDS, out)
    assert raised.value is out.error
    assert len(read_mode) == (trace_module._usable_cpus() > 1)
    assert_reaped(read_mode)


def test_writer_raises_an_error_met_in_the_child(monkeypatch, read_mode):
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", 7)
    trace = Trace.from_records(QUOTED_RECORDS)
    origin = trace.origin_hit.copy()
    origin[9] = 5  # in block 1, which the child formats; no origin field has code 5
    with pytest.raises(IndexError, match="index 5 is out of bounds"):
        write_canonical_csv(dataclasses.replace(trace, origin_hit=origin), io.StringIO())
    assert len(read_mode) == (trace_module._usable_cpus() > 1)
    assert_reaped(read_mode)
