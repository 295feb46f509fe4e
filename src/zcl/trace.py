"""Canonical proxy request records and trace ingestion.

A trace is held as one Trace: numpy columns with one entry per request,
object and client ids stored once in id tables and referenced by integer
codes.  TraceRecord is the view of a single request.  Two on-disk forms are
understood: the project's canonical CSV (lossless round trip) and the
native Squid access log layout (read-only).  Both are parsed, and CSV is
written, in blocks of rows, so each per-request Python object lives only
for its block.  A Squid log, whose lines can be out of time order, is then
sorted once, as columns.

read_blocks parses canonical CSV as a stream of Blocks of up to _BLOCK_ROWS
lines, each holding its rows' columns and only the ids first seen in it;
read_trace is their concatenation.  A timestamp must be finite and a size at
least 1.  Trace.blocks cuts a Trace into Blocks of the same number of rows
by default, the blocks the simulator replays one at a time.  read_ahead
runs such a stream in a forked child, one block ahead of the caller, so
that `zcl simulate` and `zcl analyze` work on each block while the next one
is parsed and never hold the whole trace.

write_canonical_csv writes the CSV on two cores when fork and two usable
CPUs are there: a child forked through read_ahead formats every other
block of rows while this process formats the rest and writes all of them
in order.  The bytes are the same as when one process does both.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import pickle
import re
import signal
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import IO, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

__all__ = [
    "Block",
    "Trace",
    "TraceRecord",
    "TraceFormatError",
    "ParsedLog",
    "parse_squid_log",
    "read_ahead",
    "read_blocks",
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

SECONDS_PER_DAY = 86_400.0  # timestamps are seconds; rates and lifetimes are per day

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
# matched here (and not a CONNECT tunnel) is treated as cacheable.
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
_BLOCK_ROWS = 1 << 14
# Characters that can make the csv module quote a field; other ids are
# written verbatim.
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _interned(
    tokens: Sequence[str], table: dict[str, int]
) -> tuple[np.ndarray, tuple[str, ...]]:
    """int32 codes of tokens in table, and the tokens that were new to it.

    New tokens are appended to table in first-seen order, so the i-th new
    token gets code len(table) + i, counted before the call.
    """
    codes = np.fromiter(map(table.get, tokens, repeat(-1)), np.int32, len(tokens))
    new: list[str] = []
    for i in np.flatnonzero(codes < 0).tolist():
        token = tokens[i]
        code = table.get(token)
        if code is None:
            code = table[token] = len(table)
            new.append(token)
        codes[i] = code
    return codes, tuple(new)


class Block(NamedTuple):
    """A run of consecutive requests of a trace stream.

    The columns are as in Trace; object and client codes count across the
    whole stream, and new_object_ids and new_client_ids hold only the ids
    first seen in this block, in code order.
    """

    timestamps: np.ndarray
    objects: np.ndarray
    clients: np.ndarray
    sizes: np.ndarray
    cacheable: np.ndarray
    origin_hit: np.ndarray | None
    new_object_ids: tuple[str, ...]
    new_client_ids: tuple[str, ...]


def _check_values(timestamps: np.ndarray, sizes: np.ndarray) -> None:
    """Raise ValueError unless every timestamp is finite and every size at least 1.

    A NaN or an infinity anywhere makes the column's min or max one, so the
    check takes no temporary column.
    """
    if len(timestamps) and not (
        np.isfinite(timestamps.min()) and np.isfinite(timestamps.max()) and sizes.min() >= 1
    ):
        raise ValueError("a timestamp is not finite or a size is below 1")


@dataclass(frozen=True, eq=False)
class Trace:
    """A request stream held as columns, one entry per request, in stream order.

    timestamps are float64 seconds; objects and clients are int32 codes into
    the object_ids and client_ids tables; sizes are int64 bytes; cacheable
    is bool; origin_hit is int8 (1 hit, 0 miss, -1 unknown), or None when
    the source has no such column.

    It behaves as a sequence of TraceRecord: an int index gives one record,
    any other numpy index (slice, mask, index array) gives a Trace over the
    same id tables, and iteration yields records in order.  Every timestamp
    is finite and every size at least 1, as canonical CSV requires, so any
    Trace survives write_canonical_csv and read_trace.
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
        _check_values(self.timestamps, self.sizes)

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> Trace:
        """Columns of a record stream; a Trace is returned as it is."""
        if isinstance(records, Trace):
            return records
        rows = list(records)
        objects, object_ids = _interned([r.object_id for r in rows], {})
        clients, client_ids = _interned([r.client_id for r in rows], {})
        origin = [-1 if r.origin_hit is None else int(r.origin_hit) for r in rows]
        return cls(
            timestamps=np.array([r.timestamp for r in rows], dtype=np.float64),
            objects=objects,
            object_ids=object_ids,
            clients=clients,
            client_ids=client_ids,
            sizes=np.array([r.size_bytes for r in rows], dtype=np.int64),
            cacheable=np.array([r.cacheable for r in rows], dtype=bool),
            origin_hit=np.array(origin, dtype=np.int8) if max(origin, default=-1) >= 0 else None,
        )

    @classmethod
    def from_blocks(cls, blocks: Iterable[Block]) -> Trace:
        """The concatenation of a block stream, which holds at least one block."""
        blocks = list(blocks)

        def column(name: str) -> np.ndarray:
            return np.concatenate([getattr(b, name) for b in blocks])

        return cls(
            timestamps=column("timestamps"),
            objects=column("objects"),
            object_ids=tuple(chain.from_iterable(b.new_object_ids for b in blocks)),
            clients=column("clients"),
            client_ids=tuple(chain.from_iterable(b.new_client_ids for b in blocks)),
            sizes=column("sizes"),
            cacheable=column("cacheable"),
            origin_hit=None if blocks[0].origin_hit is None else column("origin_hit"),
        )

    def blocks(self, rows: int | None = None) -> Iterator[Block]:
        """The trace as a stream of Blocks of up to rows requests, by default
        the _BLOCK_ROWS that read_blocks parses at a time.

        The first block carries every id, and an empty trace is one empty
        block, so from_blocks gives the trace back.
        """
        if rows is None:
            rows = _BLOCK_ROWS
        for start in range(0, max(len(self), 1), rows):
            part = slice(start, start + rows)
            yield Block(
                self.timestamps[part],
                self.objects[part],
                self.clients[part],
                self.sizes[part],
                self.cacheable[part],
                None if self.origin_hit is None else self.origin_hit[part],
                self.object_ids if start == 0 else (),
                self.client_ids if start == 0 else (),
            )

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return next(iter(self[[index]]))
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


def parse_squid_log(stream: Iterable[str]) -> ParsedLog:
    """Parse a native Squid access log into canonical records.

    Expected line layout (whitespace separated):

        epoch-time elapsed-ms client action/status bytes method URL ...

    Malformed lines are counted and skipped, never fatal, unless they exceed
    half of all non-blank lines, which signals the wrong file and raises
    TraceFormatError.  Records are returned sorted by timestamp, stably
    (Squid logs at completion time, so lines can be slightly out of order).
    A negative or non-finite timestamp, or a byte count of 2**63 or more
    (beyond int64), makes a line malformed; a byte count below 1 is clamped
    to 1.  CONNECT tunnels are uncacheable regardless of the action code.

    Lines are parsed _BLOCK_ROWS at a time, as read_blocks parses CSV, so
    each request's Python objects live only until its block becomes columns
    (ids coded in first-seen file order); the log is then sorted as columns.
    """
    lines = iter(stream)
    object_table: dict[str, int] = {}
    client_table: dict[str, int] = {}
    malformed = total = 0

    def blocks() -> Iterator[Block]:
        nonlocal malformed, total
        while True:
            timestamps, clients, urls, sizes, cacheable, origin = [], [], [], [], [], []
            read = 0
            for read, line in enumerate(islice(lines, _BLOCK_ROWS), 1):
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
                if ts < 0 or not math.isfinite(ts) or size >= 2**63:
                    malformed += 1
                    continue
                action = fields[3].split("/", 1)[0]
                timestamps.append(ts)
                clients.append(fields[2])
                urls.append(fields[6])
                sizes.append(max(1, size))
                cacheable.append(fields[5].upper() != "CONNECT"
                                 and not action.startswith(DEFAULT_UNCACHEABLE_ACTIONS))
                origin.append(action.startswith(DEFAULT_HIT_PREFIXES))
            objects, new_objects = _interned(urls, object_table)
            client_codes, new_clients = _interned(clients, client_table)
            yield Block(np.array(timestamps, dtype=np.float64), objects, client_codes,
                        np.array(sizes, dtype=np.int64), np.array(cacheable, dtype=bool),
                        np.array(origin, dtype=np.int8), new_objects, new_clients)
            if read < _BLOCK_ROWS:  # the stream ends on a short, maybe empty, block
                return

    records = Trace.from_blocks(blocks())  # holds the blocks only while it joins them
    if total > 0 and malformed * 2 > total:
        raise TraceFormatError(f"{malformed} of {total} lines malformed; not a Squid access log?")
    order = np.argsort(records.timestamps, kind="stable")
    return ParsedLog(records=records[order], malformed=malformed, total_lines=total)


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
    per id-table entry, and rows are written in blocks of _BLOCK_ROWS, each
    formatted a quarter at a time.  A trace of two or more blocks is
    formatted on two cores: a child forked through read_ahead formats the
    odd blocks while this process formats the even ones, and this process
    writes every block in order, so the bytes do not depend on where a block
    was formatted.
    """
    trace = Trace.from_records(records)
    with_origin = trace.origin_hit is not None and bool((trace.origin_hit >= 0).any())
    header = CSV_COLUMNS + ((CSV_OPTIONAL,) if with_origin else ())
    out.write(",".join(header) + "\n")
    object_fields = np.array([_csv_field(v) for v in trace.object_ids], dtype=object)
    client_fields = np.array([_csv_field(v) for v in trace.client_ids], dtype=object)
    flag_fields = np.array(["0", "1"], dtype=object)
    origin_fields = np.array(["0", "1", ""], dtype=object)  # code -1 picks ""

    def text(start: int) -> Iterator[str]:
        """The rows of the block that starts at row start, a quarter of a
        block at a time, so one quarter's row strings live at once."""
        stop = min(start + _BLOCK_ROWS, len(trace))
        step = -(-_BLOCK_ROWS // 4)
        for lo in range(start, stop, step):
            part = slice(lo, min(lo + step, stop))
            columns = [
                map(repr, trace.timestamps[part].tolist()),
                client_fields[trace.clients[part]].tolist(),
                object_fields[trace.objects[part]].tolist(),
                map(str, trace.sizes[part].tolist()),
                flag_fields[trace.cacheable[part].astype(np.intp)].tolist(),
            ]
            if with_origin:
                columns.append(origin_fields[trace.origin_hit[part]].tolist())
            yield "\n".join(map(",".join, zip(*columns))) + "\n"

    starts = range(0, len(trace), _BLOCK_ROWS)
    if len(starts) < 2:  # not worth a fork
        for start in starts:
            out.writelines(text(start))
        return len(trace)
    # The child sends each odd block as the list of its quarters.  The empty
    # list first makes the child start on block 1 before this process
    # formats block 0.
    odd_blocks = map(list, map(text, starts[1::2]))
    with contextlib.closing(read_ahead(chain([[]], odd_blocks))) as odd:
        out.writelines(next(odd))
        for start in starts[::2]:
            out.writelines(text(start))
            out.writelines(next(odd, ()))
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
    The timestamp must be finite and the size at least 1.
    """
    for row, lineno in zip(rows, linenos):
        try:
            if row is None:
                raise IndexError("row has too few columns")
            if len(row) > 5 and row[5] != "":
                _parse_bool(row[5], CSV_OPTIONAL)
            if not math.isfinite(float(row[0])):
                raise ValueError(f"timestamp {row[0]!r} is not finite")
            size = int(row[3])
            if size < 1:
                raise ValueError(f"size {size} is below 1")
            if size >= 2**63:
                raise ValueError(f"size {size} out of range")
            _parse_bool(row[4], "cacheable")
        except (ValueError, IndexError) as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc


def read_blocks(stream: IO[str]) -> Iterator[Block]:
    """Read canonical CSV as a stream of Blocks; missing columns are fatal.

    Each block is parsed from up to _BLOCK_ROWS lines.  A block with no
    quote or carriage return and exactly one comma per column boundary on
    every line is split with str.split; any other block goes through
    csv.reader, which handles quoted ids.  Blank lines are skipped and extra
    columns ignored.  The stream ends with the block read from fewer than
    _BLOCK_ROWS lines, which may be empty, so it holds at least one block.
    An empty file, a missing column, a short row or a bad value (a timestamp
    that is not finite or a size below 1 among them) raises TraceFormatError
    where it is met; a bad row is named by the line it starts on.
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
    lineno = 1
    lines = iter(stream)

    def parse(block: list[str]) -> Block:
        nonlocal lineno
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
            # A quoted field that runs past the block's last line is completed
            # from the lines after it, so every row of the block comes out
            # whole; chain leaves the stream open.
            reader = csv.reader(chain(block, lines))
            rows, linenos = [], []
            while reader.line_num < len(block):
                start = lineno + reader.line_num + 1
                row = next(reader)
                if row:
                    rows.append([row[i] for i in picks] if len(row) >= need else None)
                    linenos.append(start)
            lineno += reader.line_num
            if None in rows:
                _check_rows(rows, linenos)
            columns = list(zip(*rows)) or [() for _ in picks]
        try:
            ts, client, obj, size, flag, *origin = columns
            timestamps = np.array(ts, dtype=np.float64)
            sizes = np.array(size, dtype=np.int64)
            _check_values(timestamps, sizes)
            objects, new_objects = _interned(obj, object_table)
            clients, new_clients = _interned(client, client_table)
            return Block(
                timestamps,
                objects,
                clients,
                sizes,
                np.fromiter(map(_BOOL_TOKENS.__getitem__, flag), dtype=bool, count=len(flag)),
                np.fromiter(map(_ORIGIN_TOKENS.__getitem__, origin[0]), dtype=np.int8,
                            count=len(flag)) if has_origin else None,
                new_objects,
                new_clients,
            )
        except (ValueError, KeyError, OverflowError) as exc:
            _check_rows(zip(*columns), linenos)
            raise TraceFormatError(
                f"bad value in lines {linenos[0]}-{linenos[-1]}: {exc!r}"
            ) from exc

    while True:
        block = list(islice(lines, _BLOCK_ROWS))
        last = len(block) < _BLOCK_ROWS
        parsed = parse(block)
        del block  # hold no line of it while the caller works on the block
        yield parsed
        if last:
            return


def read_trace(stream: IO[str]) -> Trace:
    """Read canonical CSV into a Trace: the concatenation of read_blocks."""
    return Trace.from_blocks(read_blocks(stream))


_Item = TypeVar("_Item")
# Message kinds on read_ahead's pipe.
_ITEM, _ERROR, _END = range(3)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _send(items: Iterable, pipe: IO[bytes]):
    """Pickle items to pipe one by one, then the exception that ended them, or the end."""

    def send(kind: int, value):
        pickle.dump((kind, value), pipe, pickle.HIGHEST_PROTOCOL)
        pipe.flush()  # the reader waits for the whole message

    try:
        for item in items:
            send(_ITEM, item)
    except Exception as exc:  # forwarded to the reading side, which raises it
        send(_ERROR, exc)
    else:
        send(_END, None)


def read_ahead(items: Iterable[_Item]) -> Iterator[_Item]:
    """Yield items, produced by a forked child while the caller works.

    The child sends each item over a pipe, and then the exception that
    ended the items, which is raised here in stream order.  The pipe holds
    far less than a block of trace columns, so the child waits on it once it
    is one item ahead.  A child that ends without finishing the stream
    raises RuntimeError.  The child is killed and reaped when the generator
    finishes or is closed.  Without fork, with fewer than two usable CPUs,
    or when no pipe or process can be made, the items are produced
    in-process.
    """
    if not hasattr(os, "fork") or _usable_cpus() < 2:
        yield from items
        return
    fds = ()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        yield from items
        return
    if pid == 0:
        # The child: no cleanup of the parent's state, whatever happens.
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                _send(items, pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            while True:
                try:
                    kind, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError) as exc:
                    raise RuntimeError("trace reader ended before the end of the trace") from exc
                if kind == _END:
                    return
                if kind == _ERROR:
                    raise value
                yield value
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def read_canonical_csv(stream: IO[str]) -> Iterator[TraceRecord]:
    """Read canonical CSV back into records, one at a time; see read_trace."""
    yield from read_trace(stream)


def csv_rows(out: IO[str], header: Sequence[str]):
    """A csv.writer on out that has written header, in the dialect of every CSV
    but the canonical one: a bare newline ends a row, None is an empty field
    and a float is written as its repr."""
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(header)
    return rows


def write_change_log_csv(changes: dict[str, list[float]], out: IO[str]) -> int:
    """Write per-object change events as `object_id,change_timestamp_s` rows.

    Rows are emitted in global time order for easy plotting; ties broken by
    object id so output is deterministic.
    """
    events = sorted(
        ((t, obj) for obj, times in changes.items() for t in times),
    )
    csv_rows(out, ("object_id", "change_timestamp_s")).writerows(
        (obj, repr(t)) for t, obj in events
    )
    return len(events)


def read_change_log_csv(stream: IO[str]) -> dict[str, list[float]]:
    """Read a change-event CSV into {object_id: sorted timestamps}.

    A short row or a timestamp that does not parse or is not finite raises
    TraceFormatError naming the line the row starts on.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceFormatError("empty file: expected a change-log header")
    if header[:2] != ["object_id", "change_timestamp_s"]:
        raise TraceFormatError(f"unexpected change-log header {header!r}")
    changes: dict[str, list[float]] = {}
    start = reader.line_num + 1
    for row in reader:
        if row:
            try:
                if len(row) < 2:
                    raise ValueError("row has too few columns")
                t = float(row[1])
                if not math.isfinite(t):
                    raise ValueError(f"change timestamp {row[1]!r} is not finite")
            except ValueError as exc:
                raise TraceFormatError(f"line {start}: {exc}") from exc
            changes.setdefault(row[0], []).append(t)
        start = reader.line_num + 1
    for times in changes.values():
        times.sort()
    return changes
