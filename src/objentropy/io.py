"""CSV ingestion and report serialization.

Input schema: header row with location_id, observed, predicted, plus an
optional timestamp column that is ignored for scoring and kept for
time-based splits. One block reader parses the data records (see
_parse_blocks), spools their numbers and notes those that are not finite:
read_csv hands every file on as a Layout, checked as it is read, which
split_csv folds and load_csv gathers. Machine-readable outputs (csv, json)
carry full float precision through repr, so the two formats hold
identical numeric values; human tables round to two decimals.
"""

from __future__ import annotations

import codecs
import csv
import math
import os
import pickle
import re
import shutil
import signal
import tempfile
import threading
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, BinaryIO, Callable, Iterator, Mapping, NamedTuple,
    Sequence, TextIO,
)

import numpy as np

from .data import Dataset, Layout, SplitSpec, _check_finite, split_blocks
from .errors import (
    EmptyFile,
    MissingColumn,
    NonFiniteValue,
    OrderingViolation,
    UndecodableFile,
    UnknownObjective,
    UnparseableNumber,
)
from .information import EntropyEstimate, EntropyReport
# The numpy-free serialization, which format_adjustment is still read from
# here.
from .plain import (
    _dump_csv,
    _dump_json,
    _finite,
    _quote,
    _render_table,
    _tabular,
    format_adjustment,
)

if TYPE_CHECKING:
    from .diagnostics import ConvergenceCurve, EntropyMatrix

_REQUIRED = ("location_id", "observed", "predicted")
# The file size from which a CSV read cuts its records into one range per
# worker: on a 2-CPU x86-64 Linux host, a fork and its pipe cost 5-9 ms,
# and a 1 MB file loaded in about 30 ms either way.
_FORK_BYTES = 1 << 20
# Rows formatted per write, so that no range of rows becomes one string:
# a chunk's floats, lines, text and bytes take about 1.7 MB. Formatting
# one chunk takes longer than a fork (about 16 ms against 5-9 ms), so the
# writer splits the rows into no more ranges than it has chunks.
_CHUNK_ROWS = 1 << 13
# Bytes of records parsed at a time.
_BLOCK_BYTES = 1 << 20
# Bytes a record's observed and predicted float64 numbers take in a spool.
_PAIR_BYTES = 16
# Records read from a spool at a time (64 KiB of numbers).
_READ_PAIRS = 1 << 12
# How numpy reads a block of CSV records, as a list of lines.
_CSV = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)
_LONE_CR = re.compile(r"\r(?!\n)")
_CONTENT = re.compile(r"[^\r\n]")
# A line with its LF, or a last line without one.
_LINE = re.compile(r"[^\n]*\n|[^\n]+")


def load_csv(path: str | Path) -> Dataset:
    """Read a dataset from a CSV file.

    The file is UTF-8, with or without a byte-order mark, comma-delimited,
    with `"` quoting as written by Python's csv module (a quoted cell may
    hold commas, newlines and doubled quotes). The first record is the
    header; it names at least location_id, observed and predicted, plus an
    optional timestamp column, in any order; further columns are ignored.
    There are no comment lines: `#` is an ordinary character. Records that
    are empty or hold only whitespace are skipped. Location ids and
    timestamps are stripped of surrounding whitespace, and every number is
    parsed as `float()` parses it. Rows are grouped by location id,
    locations in order of first appearance and rows in file order within
    each location. The file is read as written, whatever its name ends in:
    nothing is decompressed.

    It is the dataset of the layout read_csv reads with timestamps, its
    pairs gathered whole.

    Raises EmptyFile without a header or data rows, MissingColumn when a
    required column is absent or a column it reads is named twice,
    UnparseableNumber, naming the line, for a short row or a cell that is
    not a number, UndecodableFile for a byte that is not UTF-8, and
    NonFiniteValue, naming the location, for a NaN or infinite number.
    """
    def gathered(layout: Layout) -> Dataset:
        return Dataset(layout.location_ids, layout.bounds,
                       layout.read(0, layout.n_total), layout.timestamps)
    return read_csv(path, gathered, stamps=True)


def read_csv(path: str | Path, use: Callable[[Layout], Any],
             stamps: bool = False) -> Any:
    """use(layout) of the CSV file at path, read as load_csv reads it,
    while the layout is open: its location ids, bounds and, where stamps
    is true and the file has them, timestamps, grouped as load_csv groups
    them, and its numbers, whose read reads them where the file's records
    are spooled (see _spool), unless the file lists a location's records
    apart or numpy rejects a record: then they are read whole (see
    _laid_out). Raises load_csv's errors before use is called.

    The records are parsed by block (see _parse_blocks), a range per
    process, and each process spools its numbers to an unnamed temporary
    file. Where numpy rejects a record, the row parser reads the file: it
    raises the line-numbered error or reads what float() accepts.
    """
    path = Path(path)
    with _open_text(path) as fh, ExitStack() as stack:
        columns, cuts = _layout(fh, path)
        try:
            parsed = _spool(path, columns, cuts, stack, stamps)
        except UnicodeDecodeError:
            raise
        except ValueError:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            parsed = _read_rows(reader, columns, path, stamps)
        return use(_laid_out(parsed))


def split_csv(path: str | Path, spec: SplitSpec,
              reduce: Callable[[Dataset], Any]) -> tuple[list[Any], list[Any]]:
    """split_blocks(load_csv(path), spec, reduce): the same sides, or the
    same error. The layout read_csv reads, with its timestamps where spec
    splits by time, is split a block of whole locations at a time."""
    return read_csv(path, lambda layout: split_blocks(layout, spec, reduce),
                    stamps=spec.mode == "time")


class _Spooled(NamedTuple):
    """A file's records as _spool or _read_rows parses them: the location
    ids, bounds and record order that group their runs (see _group), their
    stripped timestamps or None, the ascending positions of the records
    that hold a NaN or infinite number, and read(lo, hi), the (2, hi - lo)
    numbers of records lo:hi, all in file order."""

    location_ids: tuple[str, ...]
    bounds: np.ndarray
    order: np.ndarray | None
    stamps: list[str] | None
    bad: np.ndarray
    read: Callable[[int, int], np.ndarray]


def _laid_out(parsed: _Spooled) -> Layout:
    """The layout of parsed records, grouped by location. Where a record
    order groups them, all their numbers are read and each row is put in
    order through one copy of it, and their timestamps with them; else
    they are read where parsed reads them. Raises NonFiniteValue, as a
    Dataset of these pairs does, naming the location of the first bad
    record in that order."""
    ids, bounds, order, stamps, bad, read = parsed
    if bad.size and order is not None:
        bad = np.flatnonzero(np.isin(order, bad))
    _check_finite(ids, bounds, bad)
    if order is None:
        return Layout(ids, bounds, read, stamps)
    pairs = read(0, int(bounds[-1]))
    for row in pairs:
        row[...] = row[order]
    if stamps is not None:
        stamps = list(map(stamps.__getitem__, order.tolist()))
    return Layout(ids, bounds, lambda lo, hi: pairs[:, lo:hi], stamps)


def _spool(path: Path, columns: Mapping[str, int], cuts: list[int],
           stack: ExitStack, stamps: bool) -> _Spooled:
    """path's records in the ranges of cuts, parsed a range per process
    (see _ranges), each range's numbers spooled to an unnamed temporary
    file that stack closes; their runs are grouped once, over the file.
    Their timestamps are kept where stamps is true, else only parsed, so
    that a record without one raises as in a load. Raises EmptyFile
    without a record, and what _parse_blocks raises."""
    spools = [stack.enter_context(tempfile.TemporaryFile())
              for _ in cuts[1:]]
    # Where children can parse every range, this process parses none,
    # so that no block's line strings leave it fragmented memory.
    parts = list(_ranges(_load_range, cuts, path, columns, spools, stamps,
                         here=len(spools) == 1))
    blocks = [block for part in parts for block in part]
    if not blocks:
        raise EmptyFile(f"{path} has a header but no data rows")
    # The record each block starts at, and one past the last; and so the
    # record each spool starts at.
    firsts = np.cumsum([0, *(int(runs.sum()) for _, runs, _, _ in blocks)])
    starts = firsts[np.cumsum([0, *map(len, parts)])].tolist()

    def read(lo: int, hi: int) -> np.ndarray:
        pairs = np.empty((2, hi - lo))
        # Each run is read into one small buffer and copied transposed, so
        # a read holds little beside the pairs it returns.
        buffer = np.empty((min(_READ_PAIRS, hi - lo), 2))
        for spool, start, stop in zip(spools, starts, starts[1:]):
            first, last = max(lo, start), min(hi, stop)
            for at in range(first, last, _READ_PAIRS):
                numbers = buffer[:min(_READ_PAIRS, last - at)]
                # Read at an offset: a forked writer of this layout (see
                # write_dataset_csv) shares the spool's file position.
                os.preadv(spool.fileno(), [numbers],
                          (at - start) * _PAIR_BYTES)
                pairs[:, at - lo:at - lo + len(numbers)] = numbers.T
        return pairs

    # Python strings are made once every block's lines are gone.
    heads = [head.strip() for heads, _, _, _ in blocks
             for head in heads.tolist()]
    kept = None if blocks[0][2] is None else [
        stamp.strip() for _, _, stamps, _ in blocks
        for stamp in stamps.tolist()]
    lengths = np.concatenate([runs for _, runs, _, _ in blocks])
    bad = np.concatenate([first + block[3]
                          for first, block in zip(firsts.tolist(), blocks)])
    return _Spooled(*_group(heads, lengths), kept, bad, read)


def _load_range(
    path: Path, columns: Mapping[str, int], spools: list[BinaryIO],
    stamps: bool, cuts: list[int], k: int,
) -> list[list[np.ndarray | None]]:
    """The raw run ids, run lengths, raw timestamps where stamps is true
    (else None), and the positions of the records that hold a NaN or
    infinite number, of each block of range k of cuts (see _parse_blocks);
    the blocks' (m, 2) numbers go to spools[k], which is flushed."""
    blocks = []
    with path.open("rb") as fh:
        for *block, numbers in _parse_blocks(fh, cuts[k], cuts[k + 1],
                                             columns, stamps):
            blocks.append([*block, np.flatnonzero(
                ~np.isfinite(numbers).all(axis=1))])
            spools[k].write(numbers)
    # A forked child ends in os._exit, which flushes no buffer.
    spools[k].flush()
    return blocks


def _ranges(fn: Callable[..., Any], cuts: list[int], *args: Any,
            here: bool = True) -> Iterator[Any]:
    """fn(*args, cuts, k) for each range k of cuts, in order: this process
    runs the first where here is true, and a forked child each other one,
    killed where the iteration stops before its result."""
    with ExitStack() as stack:
        children = [stack.enter_context(_in_child(fn, *args, cuts, k))
                    for k in range(here, len(cuts) - 1)]
        if here:
            yield fn(*args, cuts, 0)
        for child in children:
            yield child()


def _layout(fh: TextIO, path: Path) -> tuple[dict[str, int], list[int]]:
    """The columns of the header of fh, path opened by _open_text (see
    _columns), and the byte offsets that cut the records after it into one
    range per worker (see _workers) where the file holds _FORK_BYTES, else
    one, each inner cut at the last record end before an even share."""
    lines: list[str] = []
    columns = _columns(csv.reader(lines.append(line) or line for line in fh),
                       path, _REQUIRED, "timestamp")
    with path.open("rb") as raw:
        # The header's record is the lines the csv module read for it,
        # after a byte-order mark, if any.
        cuts = [len("".join(lines).encode())]
        if raw.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8:
            cuts[0] += len(codecs.BOM_UTF8)
        end = os.fstat(raw.fileno()).st_size
        ranges = _workers() if end >= _FORK_BYTES else 1
        for i in range(1, ranges):
            offset = cuts[0] + (end - cuts[0]) * i // ranges
            raw.seek(at := cuts[-1])
            cut, odd = at, False
            while at < offset and (
                    chunk := raw.read(min(_BLOCK_BYTES, offset - at))):
                found, odd = _last_end(chunk, odd)
                cut = at + found if found else cut
                at += len(chunk)
            cuts.append(cut)
    return columns, [*cuts, end]


def _last_end(data: bytes, odd: bool = False) -> tuple[int, bool]:
    """One past the last record end of data, or 0, and whether the count
    of `"` is odd at data's end, odd being whether it is odd at its start,
    counted from a record start. A record end is a CR or LF where the count
    is even, so outside quotes (see _lines); a CR cut from its LF leaves a
    blank line. The search walks back a quote at a time and looks for a
    line end only where the count is even, so it reads each byte a bounded
    number of times."""
    odd_end = (odd + data.count(b'"')) % 2 == 1
    odd, end = odd_end, len(data)
    while True:
        quote = data.rfind(b'"', 0, end)
        if not odd:
            at = data.rfind(b"\n", quote + 1, end)
            at = max(at, data.rfind(b"\r", max(at, quote) + 1, end))
            if at >= 0:
                return at + 1, odd_end
        if quote < 0:
            return 0, odd_end
        odd, end = not odd, quote


def _parse_blocks(
    fh: BinaryIO, lo: int, hi: int, columns: Mapping[str, int],
    stamps: bool,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]]:
    """For each block of about _BLOCK_BYTES of bytes lo:hi of fh, two record
    starts, cut at its last record end (see _last_end), that holds records:
    the raw id and length of each run of records with equal raw ids, the
    raw timestamps, where columns has them and stamps is true, or None, as
    numpy strings, and the (m, 2) numbers. np.loadtxt reads the lines (see
    _lines) as the row parser reads the records, timestamps too, or raises
    ValueError. A byte that is not UTF-8 raises UnicodeDecodeError after
    the records before it."""
    text_cols = [columns[name] for name in ("location_id", "timestamp")
                 if name in columns]
    fh.seek(lo)
    # The bytes read after the last cut, which hold no record end, and
    # whether they hold an odd count of `"`: each chunk is searched once.
    left, held, odd = hi - lo, [], False
    while left > 0 or held:
        chunk = fh.read(min(_BLOCK_BYTES, left))
        left = left - len(chunk) if chunk else 0
        cut, odd = _last_end(chunk, odd)
        held.append(chunk)
        if left and not cut:
            continue
        data = b"".join(held)
        end = len(data) - len(chunk) + cut if left else len(data)
        del chunk, held[:]
        try:
            text = str(memoryview(data)[:end], "utf-8")
        except UnicodeDecodeError as exc:
            # The records before the byte make a block; the next raises.
            if not (end := _last_end(data[:exc.start])[0]):
                raise
            text = str(memoryview(data)[:end], "utf-8")
        # The bytes and then the text go as soon as the lines are made.
        held = [data[end:]] if end < len(data) else []
        del data
        lines = _lines(text)
        del text
        if not lines:
            continue
        # A new StringDType for each parse: numpy 2.4 fails to free the
        # strings of an array whose dtype a later parse reuses.
        ids = np.loadtxt(lines, usecols=text_cols,
                         dtype=np.dtypes.StringDType(), **_CSV)
        starts = np.flatnonzero(ids[1:, 0] != ids[:-1, 0]) + 1
        heads = ids[np.r_[0, starts], 0]
        numbers = np.loadtxt(lines, usecols=(columns["observed"],
                                             columns["predicted"]),
                             dtype=np.float64, **_CSV)
        del lines
        yield (heads, np.diff(starts, prepend=0, append=len(ids)),
               ids[:, 1].copy() if stamps and len(text_cols) == 2 else None,
               numbers)
        del ids, heads, numbers


def _lines(text: str) -> list[str]:
    """text, whole records, as lines that numpy reads as the csv module
    does ([] for none): each lone CR outside quotes, a record end, made a
    LF, and where text holds a `"`, each LF kept, as numpy joins a quoted
    cell's lines as given. Counting `"` tells a record end from a quoted
    line end where each opens a cell, closes one or doubles inside one, as
    the csv module writes them; any other raises ValueError, so that the
    row parser reads the file."""
    quoted = '"' in text
    # Outside quotes: the even parts.
    parts = text.split('"') if quoted else [text]
    for i in range(0, len(parts), 2):
        part = parts[i]
        if part and (i > 0 and part[0] not in ",\r\n"
                     or i + 1 < len(parts) and part[-1] not in ",\r\n"):
            raise ValueError('a `"` that neither opens nor closes a cell')
    if "\r" in text and _LONE_CR.search(text):
        parts[::2] = [_LONE_CR.sub("\n", part) for part in parts[::2]]
        text = '"'.join(parts)
    del parts
    if not _CONTENT.search(text):
        return []
    return _LINE.findall(text) if quoted else text.split("\n")


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
def _in_child(fn: Callable[..., Any], *args: Any
              ) -> Iterator[Callable[[], Any]]:
    """Call fn(*args) in a forked child process while the with block runs.

    Yields a function that waits for the child and returns fn's result or
    raises fn's exception, which the child pickles into a pipe. A child
    that ends without sending them raises ChildProcessError. However the
    block is left, a child still running is killed, and the child is
    reaped.
    """
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
    reader: Iterator[list[str]], columns: Mapping[str, int], path: Path,
    stamps: bool,
) -> _Spooled:
    """Row-by-row parse of the data records after the header, with their
    timestamps where stamps is true and the file has them."""
    has_time = "timestamp" in columns
    locs: list[str] = []
    numbers: tuple[list[float], list[float]] = ([], [])
    kept: list[str] = []
    for line_no, row in _records(reader):
        locs.append(_cell(row, columns["location_id"], path, line_no).strip())
        for values, name in zip(numbers, ("observed", "predicted")):
            values.append(_parse_number(row, columns[name], path, line_no))
        if has_time:
            kept.append(
                _cell(row, columns["timestamp"], path, line_no).strip()
            )
    if not locs:
        raise EmptyFile(f"{path} has a header but no data rows")
    pairs = np.array(numbers)
    return _Spooled(*_group(locs, 1), kept if has_time and stamps else None,
                    np.flatnonzero(~np.isfinite(pairs).all(axis=0)),
                    lambda lo, hi: pairs[:, lo:hi])


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


def write_dataset_csv(dataset: Dataset | Layout, path: str | Path) -> None:
    """Write a dataset, or a layout's, in the same schema load_csv ingests.

    Floats are written with repr, so a round trip reproduces the dataset
    exactly. Ids and timestamps are quoted as csv.QUOTE_MINIMAL quotes
    them; load_csv strips their surrounding whitespace. repr holds the
    GIL, so the rows are cut into ranges (see _ranges), one per worker
    (see _workers) but no more than one per _CHUNK_ROWS rows; a forked
    child writes its range to an unnamed temporary file in the output's
    directory, appended in order. Each range reads the columns of its rows
    a location at a time, so a layout's pairs are never held whole, and
    a location cut by a range's end is read in both. The bytes do not
    depend on the workers.
    """
    path = Path(path)
    n = dataset.n_total
    parts = min(_workers(), -(-n // _CHUNK_ROWS))
    cuts = [n * i // parts for i in range(parts + 1)]
    header = "location_id,observed,predicted\n"
    if dataset.timestamps is not None:
        header = "timestamp," + header
    with path.open("wb") as out, ExitStack() as stack:
        out.write(header.encode())
        spools = [out, *(stack.enter_context(
            tempfile.TemporaryFile(dir=path.parent)) for _ in cuts[2:])]
        for spool, _ in zip(spools, _ranges(_write_rows, cuts, dataset,
                                            spools)):
            if spool is not out:
                spool.seek(0)
                shutil.copyfileobj(spool, out)


def _write_rows(
    dataset: Dataset | Layout, outs: list[BinaryIO], cuts: list[int], k: int,
) -> None:
    """Write the records of rows cuts[k]:cuts[k + 1] of dataset to outs[k],
    UTF-8 encoded, at most _CHUNK_ROWS rows at a time, and flush it."""
    start, stop, out = cuts[k], cuts[k + 1], outs[k]
    stamps = dataset.timestamps
    bounds = dataset.bounds.tolist()
    for loc, lo, hi in zip(dataset.location_ids, bounds, bounds[1:]):
        first, last = max(lo, start), min(hi, stop)
        if first >= last:
            continue
        pairs = dataset.read(first, last)
        loc = _quote(loc)
        for a in range(first, last, _CHUNK_ROWS):
            b = min(a + _CHUNK_ROWS, last)
            obs, pred = pairs[:, a - first:b - first].tolist()
            if stamps is None:
                lines = (f"{loc},{o!r},{p!r}\n" for o, p in zip(obs, pred))
            else:
                lines = (f"{_quote(t)},{loc},{o!r},{p!r}\n"
                         for t, o, p in zip(stamps[a:b], obs, pred))
            out.write("".join(lines).encode())
        del pairs
    # A forked child ends in os._exit, which flushes no buffer.
    out.flush()


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
        lines.append((row.name, row.description, str(row.k),
                      "inf" if not math.isfinite(h) else f"{h:.2f}",
                      f"{row.weight:.2f}", str(row.rank), str(row.excluded)))
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
    finite = np.isfinite(matrix.entropies)
    for i in range(len(matrix.objectives)):
        for j in range(i + 1, len(matrix.objectives)):
            overlap = int((finite[:, i] & finite[:, j]).sum())
            records.append({
                "objective_a": matrix.objectives[i],
                "objective_b": matrix.objectives[j],
                "correlation": float(matrix.correlations[i, j]),
                "n_locations": overlap,
            })
    fields = ("objective_a", "objective_b", "correlation", "n_locations")
    return _tabular(records, fields, fmt)
