"""CSV ingestion and report serialization.

Input schema: header row with location_id, observed, predicted, plus an
optional timestamp column that is ignored for scoring and kept for
time-based splits. Machine-readable outputs (csv, json) carry full float
precision through repr, so the two formats hold identical numeric values;
human tables round to two decimals.
"""

from __future__ import annotations

import csv
import json
import math
import os
import pickle
import shutil
import signal
import tempfile
import threading
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .data import _BLOCK_PAIRS, Dataset
from .diagnostics import ConvergenceCurve, EntropyMatrix
from .errors import (
    EmptyFile,
    MissingColumn,
    NonFiniteValue,
    ObjentropyError,
    OrderingViolation,
    UndecodableFile,
    UnknownObjective,
    UnparseableNumber,
)
from .information import EntropyEstimate, EntropyReport

_REQUIRED = ("location_id", "observed", "predicted")
# Suffixes numpy decompresses when it is handed a path.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# The file size from which the ids are read in a forked child: on a 2-CPU
# x86-64 Linux host, a fork and its pipe cost 5-9 ms, and load_csv took
# about as long either way on a 1 MB file (about 30 ms).
_FORK_BYTES = 1 << 20
# Rows formatted per write, so that no range of rows becomes one string:
# a chunk's floats, lines, text and bytes take about 1.7 MB. Formatting
# one chunk takes longer than a fork (about 16 ms against 5-9 ms), so the
# writer splits the rows into no more ranges than it has chunks.
_CHUNK_ROWS = 1 << 13
# Bytes of records that reduce_csv parses at a time: what a block holds
# does not grow with the file.
_BLOCK_BYTES = 1 << 20
# The most records of one location with which reduce_csv streams a file:
# the bound on a block of whole locations. A location is reduced whole,
# so a larger one would take as much memory streamed as read whole, and
# one process would parse it, where load_csv parses ids and numbers in
# two at once.
_LOCATION_ROWS = _BLOCK_PAIRS
# How numpy reads CSV text, from a path or from a list of lines.
_CSV = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)


def load_csv(path: str | Path) -> Dataset:
    """Read a dataset from a CSV file.

    The file is UTF-8, with or without a byte-order mark, comma-delimited,
    with `"` quoting as written by Python's csv module (a quoted cell may
    hold commas, newlines and doubled quotes). The first record is the
    header; it names at least location_id, observed and predicted, plus an
    optional timestamp column, in any order; further columns are ignored.
    There are no comment lines: `#` is an ordinary character. Records that
    are empty or hold only whitespace are skipped. Location ids and timestamps are stripped of
    surrounding whitespace, and every number is parsed as `float()` parses
    it. Rows are grouped by location id, locations in order of first
    appearance and rows in file order within each location. The file is
    read as written, whatever its name ends in: nothing is decompressed.

    The header, the check for data rows and the row parser read an open
    handle; the columnar read hands numpy the path (see _loadtxt).

    Raises EmptyFile without a header or data rows, MissingColumn when a
    required column is absent or a column it reads is named twice,
    UnparseableNumber, naming the line, for a short row or a cell that is
    not a number, and UndecodableFile for a byte that is not UTF-8.
    """
    path = Path(path)
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        columns = _columns(reader, path, _REQUIRED, "timestamp")
        header_lines = reader.line_num
        # Checked here because numpy only warns on input without data.
        if not any(line.strip() for line in fh):
            raise EmptyFile(f"{path} has a header but no data rows")
        try:
            return _read_columns(path, columns, header_lines)
        except UnicodeDecodeError:
            raise
        except ValueError:
            # A cell numpy cannot read: parse by row, which either raises
            # the line-numbered error or reads what float() accepts.
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            return _read_rows(reader, columns, path)


def reduce_csv(path: str | Path, reduce: Callable[[Dataset], Any]
               ) -> list[Any] | None:
    """reduce(block) of each block of whole locations of the CSV file at
    path, in file order, where each block is a Dataset of those locations
    as load_csv reads them, without timestamps; or None where the file is
    to be read whole, by load_csv. The file's dataset is never held.

    The input alone decides: None for a `"` in the records, as a quoted
    cell may span lines; for a location whose records lie apart; for a
    location of more than _LOCATION_ROWS records; for a record numpy
    rejects or a value a Dataset rejects, so that load_csv's row parse or
    error holds; and for a file without data rows. The header is read as
    load_csv reads it, and raises its errors.

    Where the file holds at least _FORK_BYTES, its records are cut into one
    contiguous range per worker (see _workers): this process reduces the
    first range and a forked child each other one, and only what reduce
    returns crosses a pipe. Each range takes whole locations (see _runs)
    and parses about _BLOCK_BYTES at a time, carrying the location in
    progress at a block's end, parsed, into the next block; so a block
    holds about _BLOCK_BYTES of records plus at most one location, of at
    most _LOCATION_ROWS records.
    """
    path = Path(path)
    with _open_text(path) as fh:
        columns = _columns(csv.reader(fh), path, _REQUIRED, "timestamp")
    text_cols = [columns["location_id"]]
    if "timestamp" in columns:
        text_cols.append(columns["timestamp"])
    layout = (text_cols, (columns["observed"], columns["predicted"]))
    with path.open("rb") as fh:
        header = fh.readline()
        start, end = fh.tell(), os.fstat(fh.fileno()).st_size
        # A quote or a lone CR could make the header's record more or less
        # than its first line.
        if b'"' in header or b"\r" in header.rstrip(b"\r\n") or start == end:
            return None
        ranges = _workers() if end >= _FORK_BYTES else 1
        cuts = [start, *(_line_start(fh, start + (end - start) * i // ranges)
                         for i in range(1, ranges)), end]
    ids: list[str] = []
    blocks: list[Any] = []
    with ExitStack() as stack:
        children = [stack.enter_context(
            _in_child(_reduce_range, path, layout, cuts, k, reduce))
            for k in range(1, ranges)]
        for part in (lambda: _reduce_range(path, layout, cuts, 0, reduce),
                     *children):
            taken = part()
            if taken is None:
                return None
            ids += taken[0]
            blocks += taken[1]
    if not ids or len(set(ids)) < len(ids):
        return None
    return blocks


def _line_start(fh: BinaryIO, offset: int) -> int:
    """The first line start of fh at or after offset, which is > 0."""
    fh.seek(offset - 1)
    fh.readline()
    return fh.tell()


def _reduce_range(
    path: Path, layout: tuple[list[int], tuple[int, int]], cuts: list[int],
    k: int, reduce: Callable[[Dataset], Any],
) -> tuple[list[str], list[Any]] | None:
    """The ids of the locations that range k of cuts takes (see _runs), in
    order, and reduce of each block of them; None where the range shows
    that the file is to be read whole: an id that appears again after
    another location's, a location too large to stream, or what load_csv
    would parse by row or reject."""
    ids: list[str] = []
    blocks: list[Any] = []
    seen: set[str] = set()
    # The locations a block completes, and the one in progress at its end,
    # each as its id and the numbers of its runs.
    complete: list[tuple[str, list[np.ndarray]]] = []
    location: tuple[str, list[np.ndarray]] | None = None

    def flush() -> None:
        names = [name for name, _ in complete]
        bounds = np.cumsum([0, *(sum(map(len, runs)) for _, runs in complete)])
        # The pairs are written once, in the layout a Dataset holds, and
        # each run's numbers are dropped as they are copied.
        pairs = np.empty((2, int(bounds[-1])))
        at = 0
        for _, runs in complete:
            while runs:
                run = runs.pop(0)
                pairs[:, at:at + len(run)] = run.T
                at += len(run)
        complete.clear()
        blocks.append(reduce(Dataset(tuple(names), bounds, pairs)))
        ids.extend(names)

    try:
        with path.open("rb") as fh:
            for runs in _runs(fh, layout, cuts, k):
                for name, numbers in runs:
                    if location is not None and location[0] == name:
                        location[1].append(numbers)
                        continue
                    if name in seen:
                        return None
                    seen.add(name)
                    if location is not None:
                        complete.append(location)
                    location = (name, [numbers])
                if complete:
                    flush()
        if location is not None:
            complete.append(location)
            flush()
    except (ValueError, ObjentropyError):
        return None
    return ids, blocks


def _runs(
    fh: BinaryIO, layout: tuple[list[int], tuple[int, int]], cuts: list[int],
    k: int,
) -> Iterator[list[tuple[str, np.ndarray]]]:
    """For each block that range k parses, the runs of records it takes,
    as (stripped id, (n, 2) observed and predicted numbers) pairs.

    Range k reads the records of bytes cuts[k]:cuts[k + 1], and after them
    the records of the location in progress there. Every range but the
    first skips its first location, which the range before it finishes;
    a range still skipping it at cuts[k + 1] takes nothing more. So in a
    grouped file each location is taken whole, by one range.

    Raises ValueError, as _parse_blocks does, and for a location of more
    than _LOCATION_ROWS records, taken or skipped.
    """
    regions = [(cuts[k], cuts[k + 1], False)]
    if k + 2 < len(cuts):
        regions.append((cuts[k + 1], cuts[-1], True))
    skipping = k > 0
    first = tail = last = None
    rows = 0  # of location `last` so far
    for lo, hi, overrun in regions:
        for names, bounds, numbers in _parse_blocks(fh, lo, hi, layout):
            taken = []
            bounds = bounds.tolist()
            for name, a, b in zip(names, bounds, bounds[1:]):
                if overrun:
                    tail = name if tail is None else tail
                    if name != tail:
                        yield taken
                        return
                rows = rows + b - a if name == last else b - a
                last = name
                if rows > _LOCATION_ROWS:
                    raise ValueError(f"location {name!r} is too large to "
                                     "stream")
                if skipping:
                    first = name if first is None else first
                    if name == first:
                        if overrun:
                            return
                        continue
                    skipping = False
                taken.append((name, numbers[a:b]))
            yield taken


def _parse_blocks(
    fh: BinaryIO, lo: int, hi: int, layout: tuple[list[int], tuple[int, int]],
) -> Iterator[tuple[tuple[str, ...], np.ndarray, np.ndarray]]:
    """The records of bytes lo:hi of fh, two line starts, parsed about
    _BLOCK_BYTES at a time. For each block that holds records: its
    locations' stripped ids and bounds, as _group gives them, and the
    (n, 2) observed and predicted numbers.

    Each block is a list of lines for np.loadtxt, which parses it as it
    parses a path, except that a lone CR raises ValueError. So do a `"`, a
    byte that is not UTF-8, what numpy rejects from a path, and an id that
    appears again after another location's within the block.
    """
    text_cols, number_cols = layout
    fh.seek(lo)
    left, rest = hi - lo, b""
    while left > 0 and (chunk := fh.read(min(_BLOCK_BYTES, left))):
        left -= len(chunk)
        data = rest + chunk
        cut = len(data) if left == 0 else data.rfind(b"\n") + 1
        data, rest = data[:cut], data[cut:]
        if b'"' in data:
            raise ValueError("a quoted cell may span lines")
        text = data.decode("utf-8")
        if not text.strip("\r\n"):
            continue
        lines = text.split("\n")
        ids = np.loadtxt(lines, usecols=text_cols,
                         dtype=np.dtypes.StringDType(), **_CSV)[:, 0]
        # An ungrouped block is rejected before its numbers are parsed.
        names, bounds, order = _group_ids(ids, _run_starts(ids))
        if order is not None:
            raise ValueError("a location's records lie apart")
        del ids
        numbers = np.loadtxt(lines, usecols=number_cols, dtype=np.float64,
                             **_CSV)
        del text, lines
        yield names, bounds, numbers


def load_entropies(path: str | Path) -> list[EntropyEstimate]:
    """Read entropies to rank from a CSV file read as load_csv reads one,
    with columns objective and h_bits plus an optional integer k (1 where
    absent or empty). Raises load_csv's errors for a missing header,
    column or number, NonFiniteValue for an h_bits that is NaN or
    infinite, OrderingViolation for a negative k, and UnknownObjective
    for a blank objective or one listed twice, each naming the line."""
    path = Path(path)
    estimates = []
    seen = set()
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        columns = _columns(reader, path, ("objective", "h_bits"), "k")
        for line_no, row in _records(reader):
            name = _cell(row, columns["objective"], path, line_no).strip()
            if not name:
                raise UnknownObjective(
                    f"{path} line {line_no}: objective is blank")
            if name in seen:
                raise UnknownObjective(
                    f"{path} line {line_no}: objective {name!r} is listed "
                    "twice"
                )
            seen.add(name)
            h = _parse_number(row, columns["h_bits"], path, line_no)
            if not math.isfinite(h):
                raise NonFiniteValue(
                    f"{path} line {line_no}: h_bits must be finite, got {h}"
                )
            k = 1
            if "k" in columns and _cell(row, columns["k"], path, line_no):
                k = _parse_number(row, columns["k"], path, line_no, int)
                if k < 0:
                    raise OrderingViolation(
                        f"{path} line {line_no}: k must be >= 0, got {k}")
            estimates.append(
                EntropyEstimate(name=name, k=k, h_bits=h, h_adj_bits=h)
            )
    if not estimates:
        raise EmptyFile(f"{path} has no entropy rows")
    return estimates


@contextmanager
def _open_text(path: Path) -> Iterator[TextIO]:
    """path opened for csv as UTF-8 text, skipping a leading byte-order
    mark; a byte that is not UTF-8 raises UndecodableFile naming the
    path."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise UndecodableFile(
                f"{path} is not UTF-8 text: cannot decode byte "
                f"{exc.object[exc.start]:#04x}"
            ) from None


def _columns(
    reader: Iterator[list[str]], path: Path, required: Sequence[str],
    optional: str,
) -> dict[str, int]:
    """The index of each column named in the header that reader reads. A
    column the caller reads, required or optional, must be named once."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise EmptyFile(f"{path} is empty") from None
    columns = {name: i for i, name in enumerate(header)}
    missing = [name for name in required if name not in columns]
    if missing:
        raise MissingColumn(
            f"{path} lacks column(s) {', '.join(missing)}; found {header}"
        )
    repeated = [name for name in (*required, optional)
                if header.count(name) > 1]
    if repeated:
        raise MissingColumn(
            f"{path} repeats column(s) {', '.join(repeated)}; found {header}"
        )
    return columns


def _records(reader: Any) -> Iterator[tuple[int, list[str]]]:
    """The records a csv.reader reads that hold a non-blank cell, each with
    the physical line it starts on (a quoted cell may span lines)."""
    line_no = reader.line_num + 1
    for row in reader:
        if any(cell.strip() for cell in row):
            yield line_no, row
        line_no = reader.line_num + 1


def _group(
    heads: list[str], lengths: int | np.ndarray
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray | None]:
    """Group runs of records by location: run j holds lengths[j] records
    (or `lengths`, an int) of the stripped id heads[j]. Returns the ids in
    order of first appearance, their bounds, and the record order that lists
    each location's records together, in file order, or None when the file
    is grouped: when each location's records are one block already."""
    codes: dict[str, int] = {}
    run_codes = np.array([codes.setdefault(head, len(codes)) for head in heads],
                         dtype=np.int64)
    # Each location's count, exact as a float below 2**53 records.
    counts = np.bincount(run_codes, np.broadcast_to(lengths, run_codes.shape))
    bounds = np.concatenate(([0], np.cumsum(counts.astype(np.int64))))
    # Codes count up in order of first appearance, so where they never fall
    # each location's runs are adjacent.
    if not (run_codes[1:] < run_codes[:-1]).any():
        return tuple(codes), bounds, None
    order = np.argsort(np.repeat(run_codes, lengths), kind="stable")
    return tuple(codes), bounds, order


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """Where the runs of equal raw ids of the column ids start."""
    return np.concatenate(([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1))


def _group_ids(
    ids: np.ndarray, starts: np.ndarray
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray | None]:
    """_group of the column of raw ids ids, whose runs start at starts:
    run heads that strip to the same id are one location. Only the heads
    become Python strings."""
    return _group([head.strip() for head in ids[starts].tolist()],
                  np.diff(starts, append=len(ids)))


def _pairs(numbers: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """The (n, 2) observed and predicted numbers of n records as a
    C-contiguous (2, n) pairs array, records in order (as _group returns
    it). Each row is written once, so the only other per-record array made
    is one column's gather when order is given."""
    pairs = np.empty(numbers.shape[::-1])
    for row, column in zip(pairs, numbers.T):
        row[...] = column if order is None else column[order]
    return pairs


def _read_columns(path: Path, columns: Mapping[str, int], skip: int
                  ) -> Dataset:
    """Columnar parse of the data records.

    numpy raises ValueError on a record it cannot read, such as a short
    row, a whitespace-only line or a number float() accepts only after
    removing underscores; what it does read matches the row parser bit for
    bit.

    The ids (and timestamps) and the numbers are read separately (see
    _loadtxt). numpy holds the GIL while it parses, so where there is more
    than one worker (see _workers) and the file holds at least _FORK_BYTES,
    the ids are read in a forked child while this process reads the
    numbers. An error of the id read wins over one of the number read, as
    when the id read runs first, here.
    """
    text_cols = [columns["location_id"]]
    if "timestamp" in columns:
        text_cols.append(columns["timestamp"])
    fork = _workers() > 1 and path.stat().st_size >= _FORK_BYTES
    with _in_child(_read_ids, path, text_cols, skip, fork=fork) as ids:
        try:
            numbers = _loadtxt(path, skip, (columns["observed"],
                                            columns["predicted"]), np.float64)
        except ValueError:
            ids()
            raise
        location_ids, bounds, order, stamps = ids()
    pairs = _pairs(numbers, order)
    del numbers, order
    return Dataset(location_ids, bounds, pairs, stamps)


def _read_ids(
    path: Path, text_cols: list[int], skip: int
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray | None,
           tuple[str, ...] | None]:
    """The location ids of the data records of path, in order of first
    appearance, their bounds, the record order that groups them, or None
    when the file is grouped (as _group returns them), and the stripped
    timestamps in that order, or None when text_cols names only the id
    column.

    numpy opens a path with universal newlines, so a quoted CR or CRLF in an
    id or timestamp reads as LF. Every cell that changes then holds a LF,
    and every id of a run equals its head, so if a run head or a timestamp
    holds a LF the text is read again from a handle.
    """

    def read_text(handle=False):
        # Variable-width strings keep trailing NULs, which a fixed-width
        # str column drops, and need less memory for short ids. Runs of
        # equal raw ids start at `starts`.
        text = _loadtxt(path, skip, text_cols, np.dtypes.StringDType(),
                        handle)
        return text, _run_starts(text[:, 0])

    text, starts = read_text()
    if any(np.strings.count(cells, "\n").any()
           for cells in (text[starts, 0], *text[:, 1:].T)):
        text, starts = read_text(handle=True)

    location_ids, bounds, order = _group_ids(text[:, 0], starts)
    stamps = None
    if len(text_cols) == 2:
        cells = text[:, 1] if order is None else text[order, 1]
        stamps = tuple(map(str.strip, cells.tolist()))
    return location_ids, bounds, order, stamps


def _loadtxt(path: Path, skip: int, usecols: Sequence[int], dtype: Any,
             handle: bool = False) -> np.ndarray:
    """The columns usecols of path's records after its first skip lines.

    numpy parses a path in large blocks and a handle line by line, so the
    path is read, unless handle is set or the name ends in a suffix numpy
    would decompress (*.gz, *.bz2, *.xz or *.lzma). A handle is opened
    here, as a forked child shares its parent's file offsets.
    """
    with (path.open(newline="", encoding="utf-8-sig")
          if handle or path.suffix in _COMPRESSED
          else nullcontext(str(path))) as source:
        return np.loadtxt(source, skiprows=skip, usecols=usecols, dtype=dtype,
                          encoding="utf-8-sig", **_CSV)


def _workers() -> int:
    """The processes a CSV read or write may use: the CPUs this process may
    run on. 1 where os.fork or os.sched_getaffinity is missing, or while
    another Python thread runs, since a forked child could wait forever on
    a lock that thread held."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


@contextmanager
def _in_child(
    fn: Callable[..., Any], *args: Any, fork: bool = True
) -> Iterator[Callable[[], Any]]:
    """Call fn(*args) in a forked child process while the with block runs.

    Yields a function that waits for the child and returns fn's result or
    raises fn's exception, which the child pickles into a pipe. A child
    that ends without sending them raises ChildProcessError. However the
    block is left, a child still running is killed, and the child is
    reaped. With fork false, fn runs here, before the block, and its
    exception leaves the with statement.
    """
    if not fork:
        value = fn(*args)
        yield lambda: value
        return
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                outcome = (True, fn(*args))
            except Exception as exc:
                outcome = (False, exc)
            with open(write_end, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            # Never return into the parent's code, nor run its exit hooks.
            os._exit(status)
    os.close(write_end)
    reaped = False

    def result() -> Any:
        nonlocal reaped
        data = pipe.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = (f"was killed by signal {-code}" if code < 0
                   else f"exited with status {code}")
            raise ChildProcessError(
                f"worker process {pid} {how} before it sent its result")
        ok, value = pickle.loads(data)
        if ok:
            return value
        raise value

    try:
        with open(read_end, "rb") as pipe:
            yield result
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _read_rows(
    reader: Iterator[list[str]], columns: Mapping[str, int], path: Path
) -> Dataset:
    """Row-by-row parse of the data records after the header."""
    has_time = "timestamp" in columns
    locs: list[str] = []
    numbers: list[tuple[float, float]] = []
    stamps: list[str] = []
    for line_no, row in _records(reader):
        locs.append(_cell(row, columns["location_id"], path, line_no).strip())
        numbers.append((
            _parse_number(row, columns["observed"], path, line_no),
            _parse_number(row, columns["predicted"], path, line_no),
        ))
        if has_time:
            stamps.append(
                _cell(row, columns["timestamp"], path, line_no).strip()
            )
    if not locs:
        raise EmptyFile(f"{path} has a header but no data rows")
    location_ids, bounds, order = _group(locs, 1)
    if has_time and order is not None:
        stamps = list(map(stamps.__getitem__, order.tolist()))
    return Dataset(location_ids, bounds, _pairs(np.array(numbers), order),
                   stamps if has_time else None)


def _cell(row: list[str], col: int, path: Path, line_no: int) -> str:
    try:
        return row[col]
    except IndexError:
        raise UnparseableNumber(
            f"{path} line {line_no}: row has too few columns"
        ) from None


def _parse_number(
    row: list[str], col: int, path: Path, line_no: int, parse: type = float
) -> float:
    cell = _cell(row, col, path, line_no)
    try:
        return parse(cell)
    except ValueError:
        raise UnparseableNumber(
            f"{path} line {line_no}: cannot parse {cell!r} as a number"
        ) from None


def write_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the same schema load_csv ingests.

    Floats are written with repr, so a round trip reproduces the dataset
    exactly. Ids and timestamps are quoted as csv.QUOTE_MINIMAL quotes
    them; load_csv strips their surrounding whitespace.

    repr holds the GIL, so the rows are split into contiguous ranges, one
    per worker (see _workers) but no more than one per _CHUNK_ROWS rows.
    This process writes the first range; each forked child writes its
    range to an unnamed temporary file in the output's directory, which is
    then appended in order. The bytes do not depend on the number of
    workers.
    """
    path = Path(path)
    n = dataset.n_total
    parts = min(_workers(), -(-n // _CHUNK_ROWS))
    cuts = [n * i // parts for i in range(parts + 1)]
    header = "location_id,observed,predicted\n"
    if dataset.timestamps is not None:
        header = "timestamp," + header
    with path.open("wb") as out, ExitStack() as stack:
        spools = []
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            spool = stack.enter_context(
                tempfile.TemporaryFile(dir=path.parent))
            spools.append((spool, stack.enter_context(
                _in_child(_write_rows, dataset, start, stop, spool))))
        out.write(header.encode())
        _write_rows(dataset, 0, cuts[1], out)
        for spool, done in spools:
            done()
            spool.seek(0)
            shutil.copyfileobj(spool, out)


def _write_rows(
    dataset: Dataset, start: int, stop: int, out: BinaryIO
) -> None:
    """Write the records of rows start:stop of dataset to out, UTF-8
    encoded, at most _CHUNK_ROWS rows at a time, and flush it."""
    stamps = dataset.timestamps
    for loc, rows in dataset.rows():
        first, last = max(rows.start, start), min(rows.stop, stop)
        loc = _quote(loc)
        for a in range(first, last, _CHUNK_ROWS):
            b = min(a + _CHUNK_ROWS, last)
            obs = dataset.observed[a:b].tolist()
            pred = dataset.predicted[a:b].tolist()
            if stamps is None:
                lines = (f"{loc},{o!r},{p!r}\n" for o, p in zip(obs, pred))
            else:
                lines = (f"{_quote(t)},{loc},{o!r},{p!r}\n"
                         for t, o, p in zip(stamps[a:b], obs, pred))
            out.write("".join(lines).encode())
    # A forked child ends in os._exit, which flushes no buffer.
    out.flush()


def _quote(text: str) -> str:
    """A CSV cell for text, quoted only when it holds a delimiter, quote or
    line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# --- report serialization ---

_REPORT_FIELDS = (
    "objective", "description", "k", "n_eval", "excluded", "loglik_nats",
    "h_bits", "h_adj_bits", "weight", "noise_fraction", "rank",
    "zero_likelihood",
)


def report_records(report: EntropyReport) -> list[dict[str, Any]]:
    """Report rows as plain dicts; non-finite floats become None."""
    return [_finite({
        field: getattr(row, "name" if field == "objective" else field)
        for field in _REPORT_FIELDS
    }) for row in report.rows]


def format_report(report: EntropyReport, fmt: str) -> str:
    if fmt == "json":
        return _dump_json({
            "aic_adjusted": report.adjusted,
            "rows": report_records(report),
        })
    if fmt == "csv":
        return _dump_csv(_REPORT_FIELDS, report_records(report))
    header = ("Objective", "Description", "k", "H (bits)", "Weight", "Rank",
              "Excluded")
    lines = []
    for row in report.rows:
        h = row.h_adj_bits if report.adjusted else row.h_bits
        lines.append((
            row.name,
            row.description,
            str(row.k),
            "inf" if not math.isfinite(h) else f"{h:.2f}",
            f"{row.weight:.2f}",
            str(row.rank),
            str(row.excluded),
        ))
    return _render_table(header, lines)


def format_convergence(curves: Sequence[ConvergenceCurve], fmt: str) -> str:
    records = [
        {
            "objective": c.objective,
            "size": p.size,
            "replicate": p.replicate,
            "h_bits": p.h_bits,
            "abs_error": p.abs_error,
            "reference_h": c.reference_h,
        }
        for c in curves
        for p in c.points
    ]
    fields = ("objective", "size", "replicate", "h_bits", "abs_error",
              "reference_h")
    return _tabular(records, fields, fmt)


def format_correlations(matrix: EntropyMatrix, fmt: str) -> str:
    records = []
    for i in range(len(matrix.objectives)):
        for j in range(i + 1, len(matrix.objectives)):
            overlap = int((
                np.isfinite(matrix.entropies[:, i])
                & np.isfinite(matrix.entropies[:, j])
            ).sum())
            records.append({
                "objective_a": matrix.objectives[i],
                "objective_b": matrix.objectives[j],
                "correlation": float(matrix.correlations[i, j]),
                "n_locations": overlap,
            })
    fields = ("objective_a", "objective_b", "correlation", "n_locations")
    return _tabular(records, fields, fmt)


def format_adjustment(record: Mapping[str, Any], fmt: str) -> str:
    return _tabular([record], tuple(record), fmt)


def _tabular(
    records: Sequence[Mapping[str, Any]], fields: Sequence[str], fmt: str
) -> str:
    """records in fmt, with None for each non-finite float."""
    records = [_finite(rec) for rec in records]
    if fmt == "json":
        return _dump_json({"rows": records})
    if fmt == "csv":
        return _dump_csv(fields, records)
    lines = [
        tuple(_cell_text(rec[f], human=True) for f in fields)
        for rec in records
    ]
    return _render_table(tuple(fields), lines)


def _finite(record: Mapping[str, Any]) -> dict[str, Any]:
    """record with each numpy scalar as the Python scalar it holds, and None
    for each float in it that is NaN or infinite."""
    plain = {key: v.item() if isinstance(v, np.generic) else v
             for key, v in record.items()}
    return {key: None if isinstance(v, float) and not math.isfinite(v) else v
            for key, v in plain.items()}


def _cell_text(value: Any, human: bool = False) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.4f}" if human else repr(value)
    return str(value)


def _dump_csv(fields: Sequence[str], records: list[dict[str, Any]]) -> str:
    rows = [fields, *([_cell_text(rec[f]) for f in fields] for rec in records)]
    return "".join(",".join(map(_quote, row)) + "\n" for row in rows)


def _dump_json(payload: Any) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _render_table(header: tuple[str, ...], lines: list[tuple[str, ...]]) -> str:
    widths = [len(h) for h in header]
    for line in lines:
        for i, cell in enumerate(line):
            widths[i] = max(widths[i], len(cell))
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    for line in lines:
        out.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()
        )
    return "\n".join(out) + "\n"
