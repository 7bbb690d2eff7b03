"""CSV ingestion and report serialization.

Input schema: header row with location_id, observed, predicted, plus an
optional timestamp column that is ignored for scoring and kept for
time-based splits. Machine-readable outputs (csv, json) carry full float
precision through repr, so the two formats hold identical numeric values;
human tables round to two decimals.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .data import Dataset
from .diagnostics import ConvergenceCurve, EntropyMatrix
from .errors import (
    EmptyFile,
    MissingColumn,
    NonFiniteValue,
    UndecodableFile,
    UnparseableNumber,
)
from .information import EntropyEstimate, EntropyReport

_REQUIRED = ("location_id", "observed", "predicted")


def load_csv(path: str | Path) -> Dataset:
    """Read a dataset from a CSV file.

    The file is UTF-8, comma-delimited, with `"` quoting as written by
    Python's csv module (a quoted cell may hold commas, newlines and
    doubled quotes). The first record is the header; it names at least
    location_id, observed and predicted, plus an optional timestamp column,
    in any order; further columns are ignored. There are no comment lines:
    `#` is an ordinary character. Records that are empty or hold only
    whitespace are skipped. Location ids and timestamps are stripped of
    surrounding whitespace, and every number is parsed as `float()` parses
    it. Rows are grouped by location id, locations in order of first
    appearance and rows in file order within each location.

    Raises EmptyFile without a header or data rows, MissingColumn when a
    required column is absent, UnparseableNumber, naming the line, for a
    short row or a cell that is not a number, and UndecodableFile for a
    byte that is not UTF-8.
    """
    path = Path(path)
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        columns = _columns(reader, path, _REQUIRED)
        header_lines = reader.line_num
        # Checked here because numpy only warns on input without data.
        if not any(line.strip() for line in fh):
            raise EmptyFile(f"{path} has a header but no data rows")
        try:
            return _read_columns(fh, columns, header_lines)
        except UnicodeDecodeError:
            raise
        except ValueError:
            # A cell numpy cannot read: parse by row, which either raises
            # the line-numbered error or reads what float() accepts.
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            return _read_rows(reader, columns, path)


def load_entropies(path: str | Path) -> list[EntropyEstimate]:
    """Read entropies to rank from a CSV file read as load_csv reads one,
    with columns objective and h_bits plus an optional integer k (1 where
    absent or empty). Raises load_csv's errors for a missing header,
    column or number, and NonFiniteValue, naming the line, for an h_bits
    that is NaN or infinite."""
    path = Path(path)
    estimates = []
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        columns = _columns(reader, path, ("objective", "h_bits"))
        for line_no, row in _records(reader):
            name = _cell(row, columns["objective"], path, line_no).strip()
            h = _parse_number(row, columns["h_bits"], path, line_no)
            if not math.isfinite(h):
                raise NonFiniteValue(
                    f"{path} line {line_no}: h_bits must be finite, got {h}"
                )
            k = 1
            if "k" in columns and _cell(row, columns["k"], path, line_no):
                k = _parse_number(row, columns["k"], path, line_no, int)
            estimates.append(
                EntropyEstimate(name=name, k=k, h_bits=h, h_adj_bits=h)
            )
    if not estimates:
        raise EmptyFile(f"{path} has no entropy rows")
    return estimates


@contextmanager
def _open_text(path: Path) -> Iterator[TextIO]:
    """path opened for csv as UTF-8 text; a byte that is not UTF-8 raises
    UndecodableFile naming the path."""
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise UndecodableFile(
                f"{path} is not UTF-8 text: cannot decode byte "
                f"{exc.object[exc.start]:#04x}"
            ) from None


def _columns(
    reader: Iterator[list[str]], path: Path, required: Sequence[str]
) -> dict[str, int]:
    """The index of each column named in the header that reader reads."""
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
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Group runs of records by location: run j holds lengths[j] records
    (or `lengths`, an int) of the stripped id heads[j]. Returns the ids in
    order of first appearance, their bounds, and the record order that lists
    each location's records together, in file order."""
    codes: dict[str, int] = {}
    run_codes = [codes.setdefault(head, len(codes)) for head in heads]
    record_codes = np.repeat(run_codes, lengths)
    order = np.argsort(record_codes, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(record_codes))))
    return tuple(codes), bounds, order


def _read_columns(
    fh: TextIO, columns: Mapping[str, int], skip: int
) -> Dataset:
    """Columnar parse of the data records.

    numpy raises ValueError on a record it cannot read, such as a short
    row, a whitespace-only line or a number float() accepts only after
    removing underscores; what it does read matches the row parser bit for
    bit.
    """
    def read(usecols, dtype):
        fh.seek(0)
        return np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                          skiprows=skip, usecols=usecols, dtype=dtype, ndmin=2)

    text_cols = [columns["location_id"]]
    if "timestamp" in columns:
        text_cols.append(columns["timestamp"])
    # Variable-width strings keep trailing NULs, which a fixed-width str
    # column drops, and need less memory for short ids.
    text = read(text_cols, np.dtypes.StringDType())
    ids = text[:, 0]

    # Runs of equal raw ids; run heads that strip to the same id are one
    # location. Only the heads become Python strings.
    starts = np.concatenate(([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1))
    location_ids, bounds, order = _group(
        [head.strip() for head in ids[starts].tolist()],
        np.diff(starts, append=ids.size),
    )
    stamps = None
    if len(text_cols) == 2:
        stamps = tuple(map(str.strip, text[order, 1].tolist()))
    del text, ids  # before the numbers are read, to lower peak memory

    numbers = read((columns["observed"], columns["predicted"]), np.float64)
    return Dataset(location_ids, bounds, np.take(numbers.T, order, axis=1),
                   stamps)


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
    return Dataset(
        location_ids,
        bounds,
        np.take(np.array(numbers).T, order, axis=1),
        tuple(map(stamps.__getitem__, order.tolist())) if has_time else None,
    )


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
    """
    stamps = dataset.timestamps
    with Path(path).open("w", newline="\n", encoding="utf-8") as fh:
        header = "location_id,observed,predicted"
        if stamps is not None:
            header = "timestamp," + header
        fh.write(header + "\n")
        for loc, rows in dataset.rows():
            loc = _quote(loc)
            obs = dataset.observed[rows].tolist()
            pred = dataset.predicted[rows].tolist()
            if stamps is None:
                fh.writelines(f"{loc},{o!r},{p!r}\n"
                              for o, p in zip(obs, pred))
            else:
                fh.writelines(f"{_quote(t)},{loc},{o!r},{p!r}\n"
                              for t, o, p in zip(stamps[rows], obs, pred))


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
    records = []
    for row in report.rows:
        record = {}
        for field in _REPORT_FIELDS:
            value = getattr(row, "name" if field == "objective" else field)
            record[field] = (_finite_or_none(value)
                             if isinstance(value, float) else value)
        records.append(record)
    return records


def format_report(report: EntropyReport, fmt: str) -> str:
    if fmt == "json":
        return _dump_json({
            "base": report.base,
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
            "h_bits": _finite_or_none(p.h_bits),
            "abs_error": _finite_or_none(p.abs_error),
            "reference_h": _finite_or_none(c.reference_h),
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
                "correlation": _finite_or_none(float(matrix.correlations[i, j])),
                "n_locations": overlap,
            })
    fields = ("objective_a", "objective_b", "correlation", "n_locations")
    return _tabular(records, fields, fmt)


def format_adjustment(record: Mapping[str, Any], fmt: str) -> str:
    fields = tuple(record.keys())
    return _tabular([dict(record)], fields, fmt)


def _tabular(
    records: list[dict[str, Any]], fields: Sequence[str], fmt: str
) -> str:
    if fmt == "json":
        return _dump_json({"rows": records})
    if fmt == "csv":
        return _dump_csv(fields, records)
    lines = [
        tuple(_cell_text(rec[f], human=True) for f in fields)
        for rec in records
    ]
    return _render_table(tuple(fields), lines)


def _finite_or_none(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def _cell_text(value: Any, human: bool = False) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.4f}" if human else repr(value)
    return str(value)


def _dump_csv(fields: Sequence[str], records: list[dict[str, Any]]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for rec in records:
        writer.writerow([_cell_text(rec[f]) for f in fields])
    return buf.getvalue()


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
