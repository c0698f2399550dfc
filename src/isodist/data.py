"""Columnar mixed-type dataset: CSV ingestion, per-column stats, duplicates.

Columns are either numeric (float64 with a missing mask) or categorical
(dense integer codes with a missing mask plus the ordered label list).
Codes are dataset-local; models snapshot the labels so another file's
codes can be remapped by label, which is what makes "unseen category"
well defined at prediction time.

The layer works a column at a time: `load_csv` parses each present cell
once, `write_csv` makes each column's text lazily, and rows are
duplicates iff their `row_keys` are equal.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import compress

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
        if len(self.names) != len(self.columns):
            raise DataError(f"{len(self.names)} names for {len(self.columns)} columns")
        if self.weights is None:
            self.weights = np.ones(n, dtype=np.float64)
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != (n,):
                raise DataError("weights length mismatch")
            if not np.isfinite(self.weights).all():
                raise DataError("weights must be finite")
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
    """Read a CSV file into a Dataset, one column at a time.

    `schema` maps column name (or index) to "numeric"/"categorical"; a key
    naming no column raises DataError.  Unspecified columns are
    auto-detected, a column being numeric iff every non-missing cell
    parses as a real: one `float` call per cell both detects and reads.
    Empty cells and any token in `missing_tokens` parse as missing.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV: {exc}") from None
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
    named = {*names, *range(arity)}
    for key in schema:
        if key not in named:
            raise DataError(f"{path}: schema key {key!r} names no column")
    columns = []
    for ci, name in enumerate(names):
        cells = [row[ci] for row in body]
        miss = np.fromiter(map(missing_tokens.__contains__, cells), bool, len(cells))
        present = ~miss
        kind = schema.get(name, schema.get(ci))
        if kind in (None, "numeric"):
            vals = np.zeros(len(cells))
            try:
                vals[present] = np.fromiter(map(float, compress(cells, present)), np.float64)
            except ValueError:
                if kind == "numeric":
                    ri = next(i for i in np.flatnonzero(present) if not _parses_numeric(cells[i]))
                    raise DataError(
                        f"{path}: row {ri}, column {name!r}: "
                        f"cannot parse {cells[ri]!r} as numeric"
                    ) from None
            else:
                try:
                    columns.append(Column("numeric", vals, miss))
                except DataError as exc:
                    raise DataError(f"{path}: column {name!r}: {exc}") from None
                continue
        # Codes in order of each label's first appearance.
        index: dict[str, int] = {}
        codes = np.zeros(len(cells), dtype=np.int64)
        codes[present] = np.fromiter(
            (index.setdefault(c, len(index)) for c in compress(cells, present)), np.int64
        )
        columns.append(Column("categorical", codes, miss, list(index)))
    return Dataset(columns, list(names))


def _cell_text(c: Column, missing_token: str):
    """Column c's cells as CSV text, made one at a time."""
    show = float.__repr__ if c.kind == "numeric" else c.labels.__getitem__
    return (missing_token if m else show(v) for v, m in zip(c.values, c.missing))


def write_csv(ds: Dataset, path, missing_token: str = "") -> None:
    """Write a Dataset back out; round-trips with load_csv.  Rows are
    zipped from per-column generators, so no table's text is held whole.
    A present categorical cell holding UNSEEN_CODE has no label to write
    and raises DataError naming its column, before the file is opened."""
    for name, c in zip(ds.names, ds.columns):
        if c.kind == "categorical" and (c.values[~c.missing] == UNSEEN_CODE).any():
            raise DataError(f"column {name!r} holds a label the model never saw (code "
                            f"{UNSEEN_CODE}), which has no text to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.names)
        writer.writerows(zip(*(_cell_text(c, missing_token) for c in ds.columns)))


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


def row_keys(ds: Dataset) -> np.ndarray:
    """Per row, an int64 key: per column its missing flag and, where the
    cell is present, the bits of its value (0 where it is missing).  Two
    rows are duplicates iff their keys are equal: numeric cells must be
    bitwise equal (so -0.0 is not 0.0), categorical codes equal, and
    missing cells compare equal whatever value or code they store."""
    keys = np.zeros((ds.n_rows, 2 * ds.n_cols), dtype=np.int64)
    for j, c in enumerate(ds.columns):
        bits = c.values.view(np.int64) if c.kind == "numeric" else c.values
        keys[:, 2 * j] = c.missing
        keys[:, 2 * j + 1] = np.where(c.missing, 0, bits)
    return keys


def deduplicate(ds: Dataset):
    """Collapse rows with equal `row_keys` (bitwise-equal cells, equal
    missingness).

    Returns (deduped dataset, group_map) where group_map[i] is the index of
    row i's representative in the deduped dataset.  Representatives are
    each group's first row, in row order.  Representative weight is the sum
    of member weights, so total weight is preserved.
    """
    _, first, inverse = np.unique(row_keys(ds), axis=0, return_index=True, return_inverse=True)
    # np.unique numbers the groups in key order; renumber them by first row.
    order = np.argsort(first)
    group_map = np.argsort(order)[inverse.reshape(-1)]
    out = ds.take(first[order])
    out.weights = np.zeros(len(order))
    np.add.at(out.weights, group_map, ds.weights)
    return out, group_map
