"""Ordinal longitudinal dataset container and CSV ingestion.

A dataset is a panel of subjects, each observed at one or more occasions.
Each observation carries an ordinal response in ``1..C`` and a length-``p``
covariate vector.  Storage is flat (one row per observation, grouped by
subject in first-appearance order), which is what the sampler consumes.

CSV interface: header row required, UTF-8, missing values not permitted in
model columns.  The writer emits the same schema ingest reads, with the
bytes ``csv.writer`` writes, so datasets round-trip unchanged.

This module also holds the package's one CSV table layer.  Every table
ordquant writes goes through ``_write_table``, which formats a chunk of
rows with one row format.  Both readers, ``ingest_csv`` here and
``gibbs.read_draws``, take records from ``_record_chunks``, convert a chunk
one column at a time with ``_convert`` and ``_fit_intp``, each reader with
its own cell rule, and name a bad record's line with ``_line_of``.  A chunk holds about ``_CHUNK_CELLS``
cells, so its row count follows the table's width."""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from . import parallel
from .errors import DataError, SchemaError

__all__ = ["CsvSchema", "OrdinalDataset", "ingest_csv", "write_csv"]

# Cells parsed, or formatted, per chunk by every CSV reader and writer: a
# chunk holds max(1, _CHUNK_CELLS // columns) rows, so a wide draws file and
# a narrow dataset hold about the same memory per chunk.
_CHUNK_CELLS = 1 << 15
_INTP = np.iinfo(np.intp)


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for dataset CSV files.

    ``covariates=None`` means "every column that is not the subject,
    response, or time column, in header order".  ``num_categories=None``
    means "infer C from the distinct labels and re-index them to 1..C";
    when given, labels must already be integers in ``1..num_categories``.
    """

    subject: str = "subject"
    response: str = "y"
    covariates: tuple[str, ...] | None = None
    time: str | None = "time"
    num_categories: int | None = None


@dataclass(eq=False)
class OrdinalDataset:
    subject_ids: list[str]
    subject_index: np.ndarray  # (n_obs,) int, contiguous groups 0..N-1
    y: np.ndarray              # (n_obs,) int in 1..C
    x: np.ndarray              # (n_obs, p) float
    time_index: np.ndarray     # (n_obs,) int
    num_categories: int
    covariate_names: list[str] = field(default_factory=list)
    category_labels: list = field(default_factory=list)  # index c-1 -> original label

    def __post_init__(self):
        self.subject_index = np.asarray(self.subject_index, dtype=np.intp)
        self.y = np.asarray(self.y, dtype=np.intp)
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.time_index = np.asarray(self.time_index, dtype=np.intp)
        n = self.y.shape[0]
        if n < 1:
            raise DataError("dataset holds no observations")
        if self.x.shape[0] != n or self.subject_index.shape[0] != n or self.time_index.shape[0] != n:
            raise DataError("observation arrays have mismatched lengths")
        if self.x.shape[1] < 1:
            raise DataError("at least one covariate is required")
        if self.num_categories < 2:
            raise DataError("an ordinal response needs at least two categories")
        if self.y.min() < 1 or self.y.max() > self.num_categories:
            raise DataError("response categories must lie in 1..C")
        if not np.isfinite(self.x).all():
            raise DataError("covariates must be finite")
        if parallel.is_chunked(n):
            # A chunked chain reads x one column at a time, so x is stored by column.
            self.x = np.asfortranarray(self.x)
        if len(self.subject_ids) != self.subject_index.max() + 1:
            raise DataError("subject ids do not match the subject index")
        boundaries = np.flatnonzero(np.diff(self.subject_index))
        groups = np.concatenate([[self.subject_index[0]], self.subject_index[boundaries + 1]])
        if not np.array_equal(np.sort(groups), np.arange(len(self.subject_ids))):
            raise DataError("observations must be grouped contiguously by subject")
        if not self.covariate_names:
            self.covariate_names = [f"x{j + 1}" for j in range(self.x.shape[1])]
        if not self.category_labels:
            self.category_labels = list(range(1, self.num_categories + 1))
        self._category_runs = None

    # -- dataset statistics ------------------------------------------------

    @property
    def num_subjects(self) -> int:
        return len(self.subject_ids)

    @property
    def num_covariates(self) -> int:
        return self.x.shape[1]

    @property
    def num_observations(self) -> int:
        return self.y.shape[0]

    def category_runs(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Observation indices sorted by category, the start of each
        non-empty category's run in that order, and those categories (cached)."""
        if self._category_runs is None:
            order = np.argsort(self.y, kind="stable")
            present, starts = np.unique(self.y[order], return_index=True)
            self._category_runs = (order, starts, present.tolist())
        return self._category_runs


def ingest_csv(path, schema: CsvSchema = CsvSchema()) -> OrdinalDataset:
    """Read, validate, and re-index a dataset CSV per ``schema``.

    A bad file is reported at its first bad cell in row order and, within a
    row, in check order: width, subject, response, covariates, time."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        file_chunks = _record_chunks(fh, DataError)
        header = next(file_chunks)
        if header is None:
            raise DataError(f"{path}: file is empty")
        header = [h.strip() for h in header]
        columns = _resolve_columns(path, header, schema)
        ids: dict[str, int] = {}
        chunks = [_parse_chunk(path, records, first, len(header), columns, schema, ids)
                  for first, records in file_chunks]
    if not ids:
        raise DataError(f"{path}: no data rows")

    subject, y, x, t = (np.concatenate(parts) for parts in zip(*chunks))
    order = np.argsort(subject, kind="stable")
    subject, y, x, t = subject[order], y[order], x[order], t[order]
    if columns["time"] is None:
        counts = np.bincount(subject)
        t = np.arange(subject.size) - np.repeat(np.cumsum(counts) - counts, counts)

    labels = np.unique(y)
    if schema.num_categories is not None:
        C = schema.num_categories
        category_labels = list(range(1, C + 1))
        empty = np.setdiff1d(category_labels, labels).tolist()
        if empty:
            warnings.warn(f"categories {empty} have no observations", stacklevel=2)
    else:
        C = labels.size
        if C < 2:
            raise DataError(f"{path}: an ordinal response needs at least two distinct categories")
        y = np.searchsorted(labels, y) + 1
        category_labels = labels.tolist()
    return OrdinalDataset(list(ids), subject, y, x, t, C, category_labels=category_labels,
                          covariate_names=[name for name, _ in columns["covariates"]])


def _resolve_columns(path, header, schema):
    missing = [c for c in (schema.subject, schema.response) if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing required column(s) {missing}; header is {header}")
    time_col = schema.time if schema.time in header else None
    if schema.covariates is None:
        reserved = {schema.subject, schema.response, time_col}
        covariates = [c for c in header if c not in reserved]
    else:
        covariates = list(schema.covariates)
        twice = next((c for k, c in enumerate(covariates) if c in covariates[:k]), None)
        if twice is not None:
            raise SchemaError(f"{path}: the covariate list names column {twice!r} twice")
        absent = [c for c in covariates if c not in header]
        if absent:
            raise SchemaError(f"{path}: missing covariate column(s) {absent}")
        roles = {schema.subject: "subject", schema.response: "response", time_col: "time"}
        clash = next((c for c in covariates if c in roles), None)
        if clash is not None:
            raise SchemaError(f"{path}: covariate column {clash!r} is also the {roles[clash]} column")
    if not covariates:
        raise SchemaError(f"{path}: no covariate columns available")
    repeated = next((c for c in (schema.subject, schema.response, time_col, *covariates)
                     if c is not None and header.count(c) > 1), None)
    if repeated is not None:
        raise SchemaError(f"{path}: the header names column {repeated!r} {header.count(repeated)} times")
    pos = {name: header.index(name) for name in header}
    return {
        "subject": pos[schema.subject],
        "response": pos[schema.response],
        "covariates": [(c, pos[c]) for c in covariates],
        "time": pos[time_col] if time_col else None,
    }


def _parse_chunk(path, records, first, width, columns, schema, ids):
    """Subject indices, responses, covariates and times of the non-blank ``records``
    (the file's records from index ``first`` on), adding new subject ids to ``ids`` as they appear."""
    s = columns["subject"]
    errors = []  # (position among the records kept, message), in check order
    keep = range(len(records))
    cells = list(zip(*records)) if set(map(len, records)) == {width} else None
    if cells is None or not all(map(str.strip, cells[s])):
        odd = [i for i, raw in enumerate(records) if len(raw) != width or not raw[s].strip()]
        blank = {i for i in odd if all(not cell.strip() for cell in records[i])}
        fault = next((i for i in odd if i not in blank), None)
        keep = [i for i in keep[:fault] if i not in blank]
        if fault is not None:
            got = len(records[fault])
            errors.append((len(keep), f"expected {width} fields, got {got}" if got != width else "empty subject id"))
        records = [records[i] for i in keep]
        keep.append(fault)
        cells = list(zip(*records)) or [()] * width
    n = len(records)

    subjects = list(map(str.strip, cells[s]))
    local = dict.fromkeys(subjects)
    for sid in local:
        local[sid] = ids.setdefault(sid, len(ids))
    subject = np.fromiter(map(local.__getitem__, subjects), np.intp, n)

    y = _convert(cells[columns["response"]], int, errors, lambda cell: f"response {cell!r} is not an integer category",
                 str.strip)
    C = schema.num_categories
    if C is not None:
        outside = np.flatnonzero((y < 1) | (y > C))
        if outside.size:
            errors.append((outside[0], f"category {y[outside[0]]} outside declared range 1..{C}"))
    x = np.empty((n, len(columns["covariates"])))
    for j, (name, col) in enumerate(columns["covariates"]):
        values = _convert(cells[col], float, errors, lambda cell: f"covariate {name!r} value {cell!r} is not numeric"
                          if cell else f"missing value in covariate {name!r}", str.strip)
        x[:values.size, j] = values
        odd = np.flatnonzero(~np.isfinite(x[:values.size, j]))
        if odd.size:
            errors.append((odd[0], f"covariate {name!r} value {cells[col][odd[0]].strip()!r} is not finite"))
    t = np.zeros(n, dtype=np.intp)
    if columns["time"] is not None:
        t = _convert(cells[columns["time"]], int, errors, lambda cell: f"time index {cell!r} is not an integer",
                     str.strip)
        t = _fit_intp(t, errors, "time index")
    if errors:
        bad, message = min(errors, key=lambda error: error[0])
        raise DataError(f"{path}:{_line_of(path, first + keep[bad])}: {message}")
    return subject, y, x, t


def _convert(cells, kind, errors, describe, rule):
    """``cells`` converted by ``kind`` into an array.  At the first cell that
    does not convert, its position and ``describe(rule(cell))`` are added to
    ``errors`` and the values before it are returned.  A chunk that fails is
    converted again cell by cell, each as ``rule`` gives it, into Python
    numbers, which ``_fit_intp`` range-checks.  A dataset's rule ``str.strip``
    also skips U+001C..U+001F; a draws file's ``str`` keeps what ``kind`` sees."""
    try:
        return np.fromiter(map(kind, cells), np.intp if kind is int else np.float64, len(cells))
    except (ValueError, OverflowError):
        values = np.empty(len(cells), object)
    for i, cell in enumerate(map(rule, cells)):
        try:
            values[i] = kind(cell)
        except ValueError:
            errors.append((i, describe(cell)))
            return values[:i]
    return values


def _fit_intp(values, errors, label: str) -> np.ndarray:
    """An integer column from ``_convert`` as ``intp``.  At the first value
    that does not fit, its position and a message led by ``label`` are added
    to ``errors`` and the values before it are returned."""
    if values.dtype == object:  # converted cell by cell, so a value may not fit in intp
        wide = next((i for i, v in enumerate(values) if not _INTP.min <= v <= _INTP.max), None)
        if wide is not None:
            errors.append((wide, f"{label} {values[wide]} does not fit in a {_INTP.bits}-bit integer"))
            values = values[:wide]
    return values.astype(np.intp, copy=False)


def write_csv(dataset: OrdinalDataset, path) -> None:
    """Write ``dataset`` in the column layout ``ingest_csv`` reads by default."""
    schema = CsvSchema()
    header = [schema.subject, schema.response, *dataset.covariate_names, schema.time]
    labels = _csv_cells([None, *dataset.category_labels])  # indexed by y in 1..C
    columns = [_csv_cells(dataset.subject_ids)[dataset.subject_index], labels[dataset.y], *dataset.x.T,
               dataset.time_index]
    _write_table(path, header, "%s,%s" + ",%.17g" * dataset.num_covariates + ",%d", columns)


def _write_table(path, header: list[str], row_format: str, columns) -> None:
    """Write a CSV table: ``header`` through ``csv.writer``, then the rows
    ``zip(*columns)`` formatted by ``row_format`` and ``csv.writer``'s line
    terminator, one chunk at a time.

    Each column is a 1-D array or a list of numbers, and a text column is
    as ``_csv_cells`` gives it.  A number's format must need no quoting, so
    the bytes are those ``csv.writer`` writes."""
    columns = [np.asarray(column) for column in columns]
    row_format += "\r\n"
    rows = max(1, _CHUNK_CELLS // len(columns))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), rows):
            fh.writelines(map(row_format.__mod__, zip(*(column[start:start + rows].tolist() for column in columns))))


def _record_chunks(fh, error):
    """The header of the CSV file ``fh`` (None if empty), then chunks of its
    records as (index of the chunk's first record, records).  A field over the
    csv module's limit, or bytes that are not UTF-8, raise ``error`` at their line."""
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        yield header
        rows = max(1, _CHUNK_CELLS // len(header))
        for k, records in enumerate(iter(lambda: list(islice(reader, rows)), [])):
            yield k * rows, records
    except csv.Error as exc:
        raise error(f"{fh.name}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        # A line decodes alone (no byte of a character is a newline); "ignore" drops its bad bytes.
        with open(fh.name, "rb") as lines:
            line = next((k for k, raw in enumerate(lines, 1) if raw.decode(errors="ignore").encode() != raw), 0)
        raise error(f"{fh.name}:{line}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})") from None


def _line_of(path, index: int) -> int:
    """The line on which record ``index`` of a CSV file ends, as
    ``csv.reader`` counts lines (record 0 follows the header)."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for _ in islice(reader, index + 2):
            pass
        return reader.line_num


def _csv_cells(values) -> np.ndarray:
    """Each value as ``csv.writer`` writes it in a row of several cells, in
    an object array: a text column for ``_write_table``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    ends = [0]
    for value in values:
        writer.writerow((value, None))  # the empty second cell is never quoted
        ends.append(buf.tell())
    text = buf.getvalue()
    return np.array([text[start:end - len(",\r\n")] for start, end in zip(ends, ends[1:])], dtype=object)
