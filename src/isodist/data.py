"""Columnar mixed-type dataset: CSV ingestion, per-column stats, duplicates.

Columns are either numeric (float64 with a missing mask) or categorical
(dense integer codes with a missing mask plus the ordered label list).
Codes are dataset-local; models snapshot the labels so another file's
codes can be remapped by label, which is what makes "unseen category"
well defined at prediction time.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

# Code used for labels that exist in a dataset but not in a model schema.
UNSEEN_CODE = -1


class DataError(ValueError):
    """Malformed input data (parse failures, empty files, bad schema)."""


@dataclass
class Column:
    kind: str  # "numeric" | "categorical"
    values: np.ndarray  # float64 (numeric) or int64 codes (categorical)
    missing: np.ndarray  # bool mask, aligned with values
    labels: list[str] | None = None  # categorical only

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise DataError(f"unknown column kind {self.kind!r}")
        self.values = np.asarray(self.values)
        self.missing = np.asarray(self.missing, dtype=bool)
        if self.values.shape != self.missing.shape:
            raise DataError("values and missing mask lengths differ")
        if self.kind == "numeric":
            self.values = self.values.astype(np.float64, copy=False)
            # NaN cells are indistinguishable from missing; fold them in.
            self.missing = self.missing | np.isnan(self.values)
            self.values = np.where(self.missing, 0.0, self.values)
            # An infinite cell would make the column's range, and so every
            # threshold draw on it, degenerate.
            bad = np.flatnonzero(np.isinf(self.values))
            if len(bad):
                i = bad[0]
                raise DataError(
                    f"row {i}: non-finite value {float(self.values[i])!r} "
                    "in a numeric column"
                )
        else:
            self.values = self.values.astype(np.int64, copy=False)
            if self.labels is None:
                raise DataError("categorical column needs labels")
            ok = self.missing | (
                (self.values >= UNSEEN_CODE) & (self.values < len(self.labels))
            )
            if not ok.all():
                raise DataError("categorical code out of range")


@dataclass
class Dataset:
    columns: list[Column]
    names: list[str] = field(default_factory=list)
    weights: np.ndarray | None = None

    def __post_init__(self):
        if not self.columns:
            raise DataError("dataset needs at least one column")
        n = len(self.columns[0].values)
        for c in self.columns:
            if len(c.values) != n:
                raise DataError("columns have differing lengths")
        if not self.names:
            self.names = [f"col{i}" for i in range(len(self.columns))]
        if self.weights is None:
            self.weights = np.ones(n, dtype=np.float64)
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != (n,):
                raise DataError("weights length mismatch")
            if not (self.weights > 0).all():
                raise DataError("weights must be positive")

    @property
    def n_rows(self) -> int:
        return len(self.columns[0].values)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def take(self, rows) -> "Dataset":
        """Row subset as a new Dataset (weights carried along)."""
        rows = np.asarray(rows)
        cols = [
            Column(c.kind, c.values[rows], c.missing[rows], c.labels)
            for c in self.columns
        ]
        return Dataset(cols, list(self.names), self.weights[rows])

    def row_key(self, i: int) -> tuple:
        """Hashable identity of row i; bitwise-equal cells compare equal."""
        parts = []
        for c in self.columns:
            if c.missing[i]:
                parts.append(None)
            elif c.kind == "numeric":
                parts.append(float(c.values[i]).hex())
            else:
                parts.append(int(c.values[i]))
        return tuple(parts)


@dataclass
class ColumnStats:
    min: float
    max: float
    mean: float
    std: float
    median: float
    n_present: int


def column_stats(col: Column, subset) -> ColumnStats:
    """Stats over the non-missing entries of `subset` (numeric columns)."""
    subset = np.asarray(subset)
    if subset.size == 0:
        raise DataError("subset must be non-empty")
    present = ~col.missing[subset]
    vals = col.values[subset][present].astype(np.float64)
    if vals.size == 0:
        return ColumnStats(np.nan, np.nan, np.nan, np.nan, np.nan, 0)
    return ColumnStats(
        min=float(vals.min()),
        max=float(vals.max()),
        mean=float(vals.mean()),
        std=float(vals.std()),
        median=float(np.median(vals)),
        n_present=int(vals.size),
    )


def _is_missing(cell: str, missing_tokens) -> bool:
    return cell in missing_tokens


def _parses_numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_csv(
    path,
    schema: dict | None = None,
    has_header: bool = True,
    missing_tokens=("", "NA"),
) -> Dataset:
    """Read a CSV file into a Dataset.

    `schema` maps column name (or index when there is no header) to
    "numeric"/"categorical"; unspecified columns are auto-detected, a
    column being numeric iff every non-missing cell parses as a real.
    Empty cells and any token in `missing_tokens` parse as missing.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: empty file")
    if has_header:
        names = rows[0]
        body = rows[1:]
    else:
        names = [f"col{i}" for i in range(len(rows[0]))]
        body = rows
    if not body:
        raise DataError(f"{path}: no data rows")
    arity = len(names)
    for ri, row in enumerate(body):
        if len(row) != arity:
            raise DataError(f"{path}: row {ri} has {len(row)} cells, expected {arity}")

    missing_tokens = tuple(missing_tokens)
    schema = schema or {}
    columns = []
    for ci, name in enumerate(names):
        cells = [row[ci] for row in body]
        miss = np.array([_is_missing(c, missing_tokens) for c in cells])
        kind = schema.get(name, schema.get(ci))
        if kind is None:
            kind = (
                "numeric"
                if all(m or _parses_numeric(c) for c, m in zip(cells, miss))
                else "categorical"
            )
        if kind == "numeric":
            vals = np.zeros(len(cells))
            for ri, (c, m) in enumerate(zip(cells, miss)):
                if not m:
                    try:
                        vals[ri] = float(c)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {ri}, column {name!r}: "
                            f"cannot parse {c!r} as numeric"
                        ) from None
            try:
                columns.append(Column("numeric", vals, miss))
            except DataError as exc:
                raise DataError(f"{path}: column {name!r}: {exc}") from None
        else:
            labels: list[str] = []
            index: dict[str, int] = {}
            codes = np.zeros(len(cells), dtype=np.int64)
            for ri, (c, m) in enumerate(zip(cells, miss)):
                if m:
                    continue
                if c not in index:
                    index[c] = len(labels)
                    labels.append(c)
                codes[ri] = index[c]
            columns.append(Column("categorical", codes, miss, labels))
    return Dataset(columns, list(names))


def write_csv(ds: Dataset, path, missing_token: str = "") -> None:
    """Write a Dataset back out; round-trips with load_csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.names)
        for i in range(ds.n_rows):
            row = []
            for c in ds.columns:
                if c.missing[i]:
                    row.append(missing_token)
                elif c.kind == "numeric":
                    row.append(repr(float(c.values[i])))
                else:
                    row.append(c.labels[int(c.values[i])])
            writer.writerow(row)


def load_schema_sidecar(path) -> dict:
    """JSON sidecar mapping column name -> "numeric"|"categorical"."""
    with open(path) as fh:
        schema = json.load(fh)
    if not isinstance(schema, dict):
        raise DataError(f"{path}: schema sidecar must be a JSON object")
    for k, v in schema.items():
        if v not in ("numeric", "categorical"):
            raise DataError(f"{path}: bad kind {v!r} for column {k!r}")
    return schema


def deduplicate(ds: Dataset):
    """Collapse exact-duplicate rows (bitwise-equal cells, equal missingness).

    Returns (deduped dataset, group_map) where group_map[i] is the index of
    row i's representative in the deduped dataset.  Representative weight is
    the sum of member weights, so total weight is preserved.
    """
    seen: dict[tuple, int] = {}
    group_map = np.zeros(ds.n_rows, dtype=np.int64)
    reps: list[int] = []
    for i in range(ds.n_rows):
        key = ds.row_key(i)
        if key in seen:
            group_map[i] = seen[key]
        else:
            seen[key] = len(reps)
            group_map[i] = len(reps)
            reps.append(i)
    rep_idx = np.array(reps)
    out = ds.take(rep_idx)
    w = np.zeros(len(reps))
    np.add.at(w, group_map, ds.weights)
    out.weights = w
    return out, group_map
