"""Ordinal longitudinal dataset container and CSV ingestion.

A dataset is a panel of subjects, each observed at one or more occasions.
Each observation carries an ordinal response in ``1..C`` and a length-``p``
covariate vector.  Storage is flat (one row per observation, grouped by
subject in first-appearance order) which is what the sampler consumes;
per-subject views are derived on demand.

CSV interface: header row required, UTF-8, missing values not permitted in
model columns.  The writer emits the same schema it reads, so datasets
round-trip unchanged.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, SchemaError

__all__ = ["CsvSchema", "SubjectBlock", "OrdinalDataset", "ingest_csv", "write_csv"]


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


@dataclass(frozen=True)
class SubjectBlock:
    subject_id: str
    y: np.ndarray
    x: np.ndarray
    time_index: np.ndarray


@dataclass
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
        if len(self.subject_ids) != self.subject_index.max() + 1:
            raise DataError("subject ids do not match the subject index")
        boundaries = np.flatnonzero(np.diff(self.subject_index))
        groups = np.concatenate([[self.subject_index[0]], self.subject_index[boundaries + 1]])
        if len(np.unique(groups)) != len(groups) or not np.array_equal(np.sort(groups), np.arange(len(self.subject_ids))):
            raise DataError("observations must be grouped contiguously by subject")
        if not self.covariate_names:
            self.covariate_names = [f"x{j + 1}" for j in range(self.x.shape[1])]
        if not self.category_labels:
            self.category_labels = list(range(1, self.num_categories + 1))
        self._category_runs = None
        self._interval_index = None

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

    def observations_per_subject(self) -> np.ndarray:
        return np.bincount(self.subject_index, minlength=self.num_subjects)

    def category_runs(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Observation indices sorted by category, the start of each
        non-empty category's run in that order, and those categories (cached)."""
        if self._category_runs is None:
            order = np.argsort(self.y, kind="stable")
            present, starts = np.unique(self.y[order], return_index=True)
            self._category_runs = (order, starts, present.tolist())
        return self._category_runs

    def interval_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Cut-point indices y - 1 and y bounding each observation's liability (cached)."""
        if self._interval_index is None:
            self._interval_index = (self.y - 1, self.y)
        return self._interval_index

    def subjects(self) -> list[SubjectBlock]:
        blocks = []
        for i, sid in enumerate(self.subject_ids):
            rows = np.flatnonzero(self.subject_index == i)
            blocks.append(SubjectBlock(sid, self.y[rows].copy(), self.x[rows].copy(), self.time_index[rows].copy()))
        return blocks

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrdinalDataset):
            return NotImplemented
        return (
            self.subject_ids == other.subject_ids
            and self.num_categories == other.num_categories
            and self.covariate_names == other.covariate_names
            and self.category_labels == other.category_labels
            and np.array_equal(self.subject_index, other.subject_index)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.time_index, other.time_index)
        )

    @classmethod
    def from_blocks(cls, blocks, num_categories=None, covariate_names=None):
        if not blocks:
            raise DataError("dataset holds no subjects")
        sid = [b.subject_id for b in blocks]
        idx = np.concatenate([np.full(len(b.y), i, dtype=np.intp) for i, b in enumerate(blocks)])
        y = np.concatenate([np.asarray(b.y, dtype=np.intp) for b in blocks])
        x = np.vstack([np.atleast_2d(np.asarray(b.x, dtype=float)) for b in blocks])
        t = np.concatenate([np.asarray(b.time_index, dtype=np.intp) for b in blocks])
        C = int(num_categories) if num_categories is not None else int(y.max())
        return cls(sid, idx, y, x, t, C, covariate_names=list(covariate_names or []))


def ingest_csv(path, schema: CsvSchema = CsvSchema()) -> OrdinalDataset:
    """Read, validate, and re-index a dataset CSV per ``schema``."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        columns = _resolve_columns(path, header, schema)
        rows = _parse_rows(path, reader, header, columns, schema)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return _assemble(rows, columns, schema)


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
        absent = [c for c in covariates if c not in header]
        if absent:
            raise SchemaError(f"{path}: missing covariate column(s) {absent}")
    if not covariates:
        raise SchemaError(f"{path}: no covariate columns available")
    pos = {name: header.index(name) for name in header}
    return {
        "subject": pos[schema.subject],
        "response": pos[schema.response],
        "covariates": [(c, pos[c]) for c in covariates],
        "time": pos[time_col] if time_col else None,
    }


def _parse_rows(path, reader, header, columns, schema):
    rows = []
    for lineno, raw in enumerate(reader, start=2):
        if not raw or all(not cell.strip() for cell in raw):
            continue
        if len(raw) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(raw)}")
        subject = raw[columns["subject"]].strip()
        if not subject:
            raise DataError(f"{path}:{lineno}: empty subject id")
        y_raw = raw[columns["response"]].strip()
        try:
            y = int(y_raw)
        except ValueError:
            raise DataError(f"{path}:{lineno}: response {y_raw!r} is not an integer category") from None
        if schema.num_categories is not None and not 1 <= y <= schema.num_categories:
            raise DataError(
                f"{path}:{lineno}: category {y} outside declared range 1..{schema.num_categories}"
            )
        xs = []
        for name, j in columns["covariates"]:
            cell = raw[j].strip()
            if not cell:
                raise DataError(f"{path}:{lineno}: missing value in covariate {name!r}")
            try:
                xs.append(float(cell))
            except ValueError:
                raise DataError(f"{path}:{lineno}: covariate {name!r} value {cell!r} is not numeric") from None
        if columns["time"] is not None:
            t_raw = raw[columns["time"]].strip()
            try:
                t = int(t_raw)
            except ValueError:
                raise DataError(f"{path}:{lineno}: time index {t_raw!r} is not an integer") from None
        else:
            t = None
        rows.append((subject, y, xs, t))
    return rows


def _assemble(rows, columns, schema):
    order: dict[str, int] = {}
    for subject, *_ in rows:
        order.setdefault(subject, len(order))
    subject_ids = list(order)

    labels = sorted({y for _, y, _, _ in rows})
    if schema.num_categories is not None:
        C = schema.num_categories
        category_labels = list(range(1, C + 1))
        remap = {c: c for c in category_labels}
        empty = sorted(set(category_labels) - set(labels))
        if empty:
            warnings.warn(f"categories {empty} have no observations", stacklevel=3)
    else:
        C = len(labels)
        if C < 2:
            raise DataError("an ordinal response needs at least two distinct categories")
        remap = {lab: i + 1 for i, lab in enumerate(labels)}
        category_labels = labels

    rows = sorted(enumerate(rows), key=lambda item: (order[item[1][0]], item[0]))
    subject_index = np.array([order[r[0]] for _, r in rows], dtype=np.intp)
    y = np.array([remap[r[1]] for _, r in rows], dtype=np.intp)
    x = np.array([r[2] for _, r in rows], dtype=float)
    times = []
    counters = dict.fromkeys(subject_ids, 0)
    for _, (subject, _, _, t) in rows:
        times.append(counters[subject] if t is None else t)
        counters[subject] += 1
    return OrdinalDataset(
        subject_ids,
        subject_index,
        y,
        x,
        np.array(times, dtype=np.intp),
        C,
        covariate_names=[name for name, _ in columns["covariates"]],
        category_labels=category_labels,
    )


def write_csv(dataset: OrdinalDataset, path, schema: CsvSchema = CsvSchema()) -> None:
    """Write ``dataset`` using the same column layout ``ingest_csv`` reads."""
    path = Path(path)
    time_col = schema.time or "time"
    header = [schema.subject, schema.response, *dataset.covariate_names, time_col]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.num_observations):
            label = dataset.category_labels[dataset.y[i] - 1]
            row = [
                dataset.subject_ids[dataset.subject_index[i]],
                label,
                *(f"{v:.17g}" for v in dataset.x[i]),
                dataset.time_index[i],
            ]
            writer.writerow(row)
