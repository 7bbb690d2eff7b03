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
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .data import Dataset, PairedSeries
from .diagnostics import ConvergenceCurve, EntropyMatrix
from .errors import EmptyFile, MissingColumn, UnparseableNumber
from .information import EntropyReport

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
    required column is absent, and UnparseableNumber, naming the line, for
    a short row or a cell that is not a number.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        header = [h.strip() for h in header]
        columns = {name: i for i, name in enumerate(header)}
        missing = [name for name in _REQUIRED if name not in columns]
        if missing:
            raise MissingColumn(
                f"{path} lacks column(s) {', '.join(missing)}; found {header}"
            )
        header_lines = reader.line_num
        # Checked here because numpy only warns on input without data.
        if not any(line.strip() for line in fh):
            raise EmptyFile(f"{path} has a header but no data rows")
        try:
            groups = _read_columns(fh, columns, header_lines)
        except ValueError:
            # A cell numpy cannot read: parse by row, which either raises
            # the line-numbered error or reads what float() accepts.
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            groups = _read_rows(reader, columns, path)
    return Dataset(tuple(
        PairedSeries(loc, obs, pred, ts) for loc, (obs, pred, ts) in groups.items()
    ))


_Groups = dict[str, tuple[np.ndarray, np.ndarray, tuple[str, ...] | None]]


def _read_columns(fh: TextIO, columns: Mapping[str, int], skip: int) -> _Groups:
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
    codes: dict[str, int] = {}
    run_codes = [codes.setdefault(head.strip(), len(codes))
                 for head in ids[starts].tolist()]
    row_codes = np.repeat(run_codes, np.diff(starts, append=ids.size))
    order = np.argsort(row_codes, kind="stable")
    bounds = np.cumsum(np.bincount(row_codes))[:-1]
    stamps = [None] * len(codes)
    if len(text_cols) == 2:
        stamps = [tuple(t.strip() for t in part.tolist())
                  for part in np.split(text[order, 1], bounds)]
    del text, ids  # before the numbers are read, to lower peak memory

    numbers = read((columns["observed"], columns["predicted"]), np.float64)
    observed = np.split(numbers[order, 0], bounds)
    predicted = np.split(numbers[order, 1], bounds)
    return {loc: (observed[i], predicted[i], stamps[i])
            for loc, i in codes.items()}


def _read_rows(
    reader: Iterator[list[str]], columns: Mapping[str, int], path: Path
) -> _Groups:
    """Row-by-row parse of the data records after the header."""
    has_time = "timestamp" in columns
    groups: dict[str, tuple[list[float], list[float], list[str]]] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        loc = row[columns["location_id"]].strip()
        obs = _parse_number(row, columns["observed"], path, line_no)
        pred = _parse_number(row, columns["predicted"], path, line_no)
        if loc not in groups:
            groups[loc] = ([], [], [])
        groups[loc][0].append(obs)
        groups[loc][1].append(pred)
        if has_time:
            groups[loc][2].append(row[columns["timestamp"]].strip())
    if not groups:
        raise EmptyFile(f"{path} has a header but no data rows")
    return {
        loc: (np.array(obs), np.array(pred), tuple(ts) if has_time else None)
        for loc, (obs, pred, ts) in groups.items()
    }


def _parse_number(row: list[str], col: int, path: Path, line_no: int) -> float:
    try:
        cell = row[col]
    except IndexError:
        raise UnparseableNumber(
            f"{path} line {line_no}: row has too few columns"
        ) from None
    try:
        return float(cell)
    except ValueError:
        raise UnparseableNumber(
            f"{path} line {line_no}: cannot parse {cell!r} as a number"
        ) from None


def write_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the same schema load_csv ingests.

    Floats are written with repr, so a round trip reproduces the dataset
    exactly.
    """
    with Path(path).open("w", newline="\n", encoding="utf-8") as fh:
        with_time = dataset.has_timestamps
        header = "location_id,observed,predicted"
        if with_time:
            header = "timestamp," + header
        fh.write(header + "\n")
        for s in dataset.series:
            for i in range(len(s)):
                row = (
                    f"{s.location_id},{float(s.observed[i])!r},"
                    f"{float(s.predicted[i])!r}"
                )
                if with_time:
                    row = f"{s.timestamps[i]},{row}"
                fh.write(row + "\n")


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
        records.append({
            "objective": row.name,
            "description": row.description,
            "k": row.k,
            "n_eval": row.n_eval,
            "excluded": row.excluded,
            "loglik_nats": _finite_or_none(row.loglik_nats),
            "h_bits": _finite_or_none(row.h_bits),
            "h_adj_bits": _finite_or_none(row.h_adj_bits),
            "weight": row.weight,
            "noise_fraction": row.noise_fraction,
            "rank": row.rank,
            "zero_likelihood": row.zero_likelihood,
        })
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
