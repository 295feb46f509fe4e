"""Canonical proxy request records and trace ingestion.

A trace is held as one Trace: numpy columns with one entry per request,
object and client ids stored once in id tables and referenced by integer
codes.  TraceRecord is the view of a single request.  Two on-disk forms are
understood: the project's canonical CSV (lossless round trip) and the
native Squid access log layout (read-only).  Both are read and written in
blocks of rows, so no per-request object is built on the way.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from itertools import islice, repeat
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Trace",
    "TraceRecord",
    "TraceFormatError",
    "ParsedLog",
    "parse_squid_log",
    "read_canonical_csv",
    "read_trace",
    "write_canonical_csv",
    "read_change_log_csv",
    "write_change_log_csv",
    "DEFAULT_HIT_PREFIXES",
    "DEFAULT_UNCACHEABLE_ACTIONS",
]

CSV_COLUMNS = ("timestamp_s", "client_id", "object_id", "size_bytes", "cacheable")
CSV_OPTIONAL = "origin_hit"

# Squid action codes whose responses were served from the proxy's own store.
DEFAULT_HIT_PREFIXES = (
    "TCP_HIT",
    "TCP_MEM_HIT",
    "TCP_IMS_HIT",
    "TCP_REFRESH_HIT",
    "TCP_NEGATIVE_HIT",
    "TCP_STALE_HIT",
    "UDP_HIT",
)

# Action codes that never correspond to a storable document.  Anything not
# matched here (and not a CONNECT tunnel) is treated as cacheable; override
# the mapping if the deployment logged differently.
DEFAULT_UNCACHEABLE_ACTIONS = (
    "TCP_DENIED",
    "UDP_DENIED",
    "NONE",
    "TCP_TUNNEL",
)


class TraceFormatError(ValueError):
    """Input bytes do not look like the format the parser was asked for."""


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One proxy request.

    timestamp is in seconds since the trace epoch; size_bytes is at least 1;
    origin_hit is only meaningful for records ingested from a log that
    recorded its own hit/miss outcome, and None otherwise.
    """

    timestamp: float
    client_id: str
    object_id: str
    size_bytes: int
    cacheable: bool
    origin_hit: bool | None = None


# origin_hit codes: 1 hit, 0 miss, -1 unknown; indexing with the code gives
# the TraceRecord value.
_ORIGIN_VALUES = (False, True, None)
_BOOL_TOKENS = {"1": True, "true": True, "True": True, "0": False, "false": False, "False": False}
_ORIGIN_TOKENS = {"": -1, **{token: int(flag) for token, flag in _BOOL_TOKENS.items()}}
_BLOCK_ROWS = 1 << 16
# Characters that can make the csv module quote a field; other ids are
# written verbatim.
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _interned(tokens: Sequence[str], table: dict[str, int]) -> np.ndarray:
    """int32 codes of tokens in table; unseen tokens are appended in first-seen order."""
    codes = list(map(table.get, tokens))
    for i, code in enumerate(codes):
        if code is None:
            codes[i] = table.setdefault(tokens[i], len(table))
    return np.array(codes, dtype=np.int32)


@dataclass(frozen=True, eq=False)
class Trace:
    """A request stream held as columns, one entry per request, in stream order.

    timestamps are float64 seconds; objects and clients are int32 codes into
    the object_ids and client_ids tables; sizes are int64 bytes; cacheable
    is bool; origin_hit is int8 (1 hit, 0 miss, -1 unknown), or None when
    the source has no such column.

    It behaves as a sequence of TraceRecord: an int index gives one record,
    any other numpy index (slice, mask, index array) gives a Trace over the
    same id tables, and iteration yields records in order.
    """

    timestamps: np.ndarray
    objects: np.ndarray
    object_ids: tuple[str, ...]
    clients: np.ndarray
    client_ids: tuple[str, ...]
    sizes: np.ndarray
    cacheable: np.ndarray
    origin_hit: np.ndarray | None = None

    def __post_init__(self):
        columns = [self.objects, self.clients, self.sizes, self.cacheable]
        if self.origin_hit is not None:
            columns.append(self.origin_hit)
        if any(len(column) != len(self.timestamps) for column in columns):
            raise ValueError("trace columns must have equal length")

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> Trace:
        """Columns of a record stream; a Trace is returned as it is."""
        if isinstance(records, Trace):
            return records
        rows = list(records)
        objects: dict[str, int] = {}
        clients: dict[str, int] = {}
        origin = [-1 if r.origin_hit is None else int(r.origin_hit) for r in rows]
        return cls(
            timestamps=np.array([r.timestamp for r in rows], dtype=np.float64),
            objects=_interned([r.object_id for r in rows], objects),
            object_ids=tuple(objects),
            clients=_interned([r.client_id for r in rows], clients),
            client_ids=tuple(clients),
            sizes=np.array([r.size_bytes for r in rows], dtype=np.int64),
            cacheable=np.array([r.cacheable for r in rows], dtype=bool),
            origin_hit=np.array(origin, dtype=np.int8) if max(origin, default=-1) >= 0 else None,
        )

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            origin = -1 if self.origin_hit is None else self.origin_hit[index]
            return TraceRecord(
                float(self.timestamps[index]),
                self.client_ids[self.clients[index]],
                self.object_ids[self.objects[index]],
                int(self.sizes[index]),
                bool(self.cacheable[index]),
                _ORIGIN_VALUES[origin],
            )
        return Trace(
            timestamps=self.timestamps[index],
            objects=self.objects[index],
            object_ids=self.object_ids,
            clients=self.clients[index],
            client_ids=self.client_ids,
            sizes=self.sizes[index],
            cacheable=self.cacheable[index],
            origin_hit=None if self.origin_hit is None else self.origin_hit[index],
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        objects, clients = self.object_ids, self.client_ids
        origin = self.origin_hit.tolist() if self.origin_hit is not None else repeat(-1)
        for ts, client, obj, size, cacheable, hit in zip(
            self.timestamps.tolist(),
            self.clients.tolist(),
            self.objects.tolist(),
            self.sizes.tolist(),
            self.cacheable.tolist(),
            origin,
        ):
            yield TraceRecord(ts, clients[client], objects[obj], size, cacheable, _ORIGIN_VALUES[hit])

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return list(self) == list(other)


@dataclass
class ParsedLog:
    """Outcome of ingesting a raw access log."""

    records: Trace
    malformed: int
    total_lines: int


def parse_squid_log(
    stream: Iterable[str],
    hit_prefixes: Sequence[str] = DEFAULT_HIT_PREFIXES,
    uncacheable_actions: Sequence[str] = DEFAULT_UNCACHEABLE_ACTIONS,
) -> ParsedLog:
    """Parse a native Squid access log into canonical records.

    Expected line layout (whitespace separated):

        epoch-time elapsed-ms client action/status bytes method URL ...

    Malformed lines are counted and skipped, never fatal, unless they exceed
    half of all non-blank lines, which signals the wrong file and raises
    TraceFormatError.  Records are returned sorted by timestamp, stably
    (Squid logs at completion time, so lines can be slightly out of order).
    A byte count below 1 is clamped to 1.  CONNECT tunnels are uncacheable
    regardless of the action code.
    """
    hit_prefixes = tuple(hit_prefixes)
    uncacheable_actions = tuple(uncacheable_actions)
    timestamps: list[float] = []
    clients: list[str] = []
    urls: list[str] = []
    sizes: list[int] = []
    cacheable: list[bool] = []
    origin: list[bool] = []
    malformed = 0
    total = 0
    for line in stream:
        fields = line.split()
        if not fields:
            continue
        total += 1
        if len(fields) < 7:
            malformed += 1
            continue
        try:
            ts = float(fields[0])
            size = int(fields[4])
        except ValueError:
            malformed += 1
            continue
        if ts < 0:
            malformed += 1
            continue
        action = fields[3].split("/", 1)[0]
        timestamps.append(ts)
        clients.append(fields[2])
        urls.append(fields[6])
        sizes.append(max(1, size))
        cacheable.append(
            fields[5].upper() != "CONNECT" and not action.startswith(uncacheable_actions)
        )
        origin.append(action.startswith(hit_prefixes))
    if total > 0 and malformed * 2 > total:
        raise TraceFormatError(
            f"{malformed} of {total} lines malformed; not a Squid access log?"
        )
    ts_column = np.array(timestamps, dtype=np.float64)
    order = np.argsort(ts_column, kind="stable")
    object_table: dict[str, int] = {}
    client_table: dict[str, int] = {}
    records = Trace(
        timestamps=ts_column[order],
        objects=_interned(urls, object_table)[order],
        object_ids=tuple(object_table),
        clients=_interned(clients, client_table)[order],
        client_ids=tuple(client_table),
        sizes=np.array(sizes, dtype=np.int64)[order],
        cacheable=np.array(cacheable, dtype=bool)[order],
        origin_hit=np.array(origin, dtype=np.int8)[order],
    )
    return ParsedLog(records=records, malformed=malformed, total_lines=total)


def _csv_field(value: str) -> str:
    """value as csv.writer writes it inside a row."""
    if not _CSV_SPECIAL.search(value):
        return value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value])
    return buf.getvalue()[:-1]


def write_canonical_csv(records: Iterable[TraceRecord], out: IO[str]) -> int:
    """Write records (a Trace or any record iterable) as canonical CSV.

    Returns the number of rows written.  The optional origin_hit column is
    included whenever at least one record carries a value for it.  Floats
    are written with repr so the round trip is exact; each id is quoted once
    per id-table entry, and rows are written in blocks.
    """
    trace = Trace.from_records(records)
    with_origin = trace.origin_hit is not None and bool((trace.origin_hit >= 0).any())
    header = CSV_COLUMNS + ((CSV_OPTIONAL,) if with_origin else ())
    out.write(",".join(header) + "\n")
    object_fields = np.array([_csv_field(v) for v in trace.object_ids], dtype=object)
    client_fields = np.array([_csv_field(v) for v in trace.client_ids], dtype=object)
    flag_fields = np.array(["0", "1"], dtype=object)
    origin_fields = np.array(["0", "1", ""], dtype=object)  # code -1 picks ""
    for start in range(0, len(trace), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        columns = [
            map(repr, trace.timestamps[block].tolist()),
            client_fields[trace.clients[block]].tolist(),
            object_fields[trace.objects[block]].tolist(),
            map(str, trace.sizes[block].tolist()),
            flag_fields[trace.cacheable[block].astype(np.intp)].tolist(),
        ]
        if with_origin:
            columns.append(origin_fields[trace.origin_hit[block]].tolist())
        out.write("\n".join(map(",".join, zip(*columns))) + "\n")
    return len(trace)


def _parse_bool(token: str, column: str) -> bool:
    if token in _BOOL_TOKENS:
        return _BOOL_TOKENS[token]
    raise TraceFormatError(f"bad boolean {token!r} in column {column}")


def _check_rows(rows: Iterable[Sequence[str] | None], linenos: Iterable[int]):
    """Parse rows of picked fields one by one; raise for the first bad one.

    The reference for the block conversion in read_trace, run only once
    that conversion failed, to name the line.  A row is (timestamp, client,
    object, size, cacheable[, origin_hit]), or None when it was too short.
    """
    for row, lineno in zip(rows, linenos):
        try:
            if row is None:
                raise IndexError("row has too few columns")
            if len(row) > 5 and row[5] != "":
                _parse_bool(row[5], CSV_OPTIONAL)
            float(row[0])
            size = int(row[3])
            if not -(2**63) <= size < 2**63:
                raise ValueError(f"size {size} out of range")
            _parse_bool(row[4], "cacheable")
        except (ValueError, IndexError) as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc


def _csv_rows(block: list[str], rest: Iterator[str]) -> Iterator[list[str]]:
    """csv.reader rows of the lines in block.

    A quoted field that runs past the block's last line is completed from
    rest, so every row of the block comes out whole.
    """
    pending = len(block)

    def feed():
        nonlocal pending
        for line in block:
            pending -= 1
            yield line
        # A plain loop, not `yield from`: closing this generator must not
        # close the stream behind rest.
        for line in rest:
            yield line

    reader = csv.reader(feed())
    while pending:
        yield next(reader)


def read_trace(stream: IO[str]) -> Trace:
    """Read canonical CSV into a Trace; missing columns are fatal.

    Rows are read in blocks.  A block with no quote or carriage return and
    exactly one comma per column boundary on every line is split with
    str.split; any other block goes through csv.reader, which handles
    quoted ids.  Blank lines are skipped and extra columns ignored.  An
    empty file, a missing column, a short row or a bad value raises
    TraceFormatError; a bad row is named by its line.
    """
    try:
        header = next(csv.reader(stream))
    except StopIteration:
        raise TraceFormatError("empty file: expected a canonical CSV header")
    for col in CSV_COLUMNS:
        if col not in header:
            raise TraceFormatError(f"missing column {col!r}")
    has_origin = CSV_OPTIONAL in header
    picks = [header.index(c) for c in CSV_COLUMNS + ((CSV_OPTIONAL,) if has_origin else ())]
    width = len(header)
    need = max(picks) + 1
    client_table: dict[str, int] = {}
    object_table: dict[str, int] = {}
    parts: list[tuple[np.ndarray, ...]] = []
    lineno = 1
    lines = iter(stream)
    while block := list(islice(lines, _BLOCK_ROWS)):
        text = "".join(block)
        if (
            '"' not in text
            and "\r" not in text
            and set(map(str.count, block, repeat(","))) == {width - 1}
        ):
            fields = text.replace("\n", ",").split(",")
            if text.endswith("\n"):
                fields.pop()
            columns = [fields[i::width] for i in picks]
            linenos = range(lineno + 1, lineno + 1 + len(block))
            lineno += len(block)
        else:
            rows, linenos = [], []
            for row in _csv_rows(block, lines):
                lineno += 1
                if row:
                    rows.append([row[i] for i in picks] if len(row) >= need else None)
                    linenos.append(lineno)
            if None in rows:
                _check_rows(rows, linenos)
            columns = list(zip(*rows)) or [() for _ in picks]
        try:
            ts, client, obj, size, flag, *origin = columns
            parts.append((
                np.array(ts, dtype=np.float64),
                _interned(obj, object_table),
                _interned(client, client_table),
                np.array(size, dtype=np.int64),
                np.fromiter(map(_BOOL_TOKENS.__getitem__, flag), dtype=bool, count=len(flag)),
                np.fromiter(map(_ORIGIN_TOKENS.__getitem__, origin[0]), dtype=np.int8,
                            count=len(flag)) if has_origin else None,
            ))
        except (ValueError, KeyError, OverflowError) as exc:
            _check_rows(zip(*columns), linenos)
            raise TraceFormatError(
                f"bad value in lines {linenos[0]}-{linenos[-1]}: {exc!r}"
            ) from exc

    def column(i: int, dtype) -> np.ndarray:
        return np.concatenate([p[i] for p in parts]) if parts else np.zeros(0, dtype=dtype)

    return Trace(
        timestamps=column(0, np.float64),
        objects=column(1, np.int32),
        object_ids=tuple(object_table),
        clients=column(2, np.int32),
        client_ids=tuple(client_table),
        sizes=column(3, np.int64),
        cacheable=column(4, bool),
        origin_hit=column(5, np.int8) if has_origin else None,
    )


def read_canonical_csv(stream: IO[str]) -> Iterator[TraceRecord]:
    """Read canonical CSV back into records, one at a time; see read_trace."""
    yield from read_trace(stream)


def write_change_log_csv(changes: dict[str, list[float]], out: IO[str]) -> int:
    """Write per-object change events as `object_id,change_timestamp_s` rows.

    Rows are emitted in global time order for easy plotting; ties broken by
    object id so output is deterministic.
    """
    events = sorted(
        ((t, obj) for obj, times in changes.items() for t in times),
    )
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["object_id", "change_timestamp_s"])
    for t, obj in events:
        writer.writerow([obj, repr(t)])
    return len(events)


def read_change_log_csv(stream: IO[str]) -> dict[str, list[float]]:
    """Read a change-event CSV into {object_id: sorted timestamps}."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceFormatError("empty file: expected a change-log header")
    if header[:2] != ["object_id", "change_timestamp_s"]:
        raise TraceFormatError(f"unexpected change-log header {header!r}")
    changes: dict[str, list[float]] = {}
    for row in reader:
        if not row:
            continue
        changes.setdefault(row[0], []).append(float(row[1]))
    for times in changes.values():
        times.sort()
    return changes
