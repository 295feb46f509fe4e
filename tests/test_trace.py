import csv
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zcl import trace as trace_module
from zcl.trace import (
    Trace,
    TraceFormatError,
    TraceRecord,
    parse_squid_log,
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


def test_squid_garbage_line_skipped_not_fatal():
    lines = [GOOD_MISS] * 10 + ["###"]
    parsed = parse_squid_log(lines)
    assert len(parsed.records) == 10
    assert parsed.malformed == 1


def test_squid_mostly_garbage_is_format_error():
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


def test_squid_output_sorted_by_time():
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
