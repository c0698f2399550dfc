"""Condensed (upper-triangular) storage for symmetric zero-diagonal matrices.

Cell order matches scipy's squareform: for i < j the pair (i, j) lives at
n*i - i*(i+1)/2 + (j - i - 1).  File formats: CSV as the full square
matrix with a header row, or a binary layout of magic bytes "ISODIST1",
a little-endian u64 n, then the n(n-1)/2 condensed float64 cells.
"""

from __future__ import annotations

import csv

import numpy as np

MAGIC = b"ISODIST1"


def _cell(n, i, j):
    """Condensed position of the pair (i, j), i < j, in an n x n matrix;
    i and j may be integer arrays."""
    return n * i - i * (i + 1) // 2 + (j - i - 1)


class CondensedMatrix:
    def __init__(self, n: int, values: np.ndarray | None = None):
        if n < 2:
            raise ValueError("need n >= 2")
        m = n * (n - 1) // 2
        if values is None:
            values = np.zeros(m)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (m,):
            raise ValueError(f"expected {m} cells for n={n}, got {values.shape}")
        self.n = n
        self.values = values

    def index(self, i: int, j: int) -> int:
        if i == j:
            raise IndexError("diagonal has no condensed cell")
        if i > j:
            i, j = j, i
        if not (0 <= i < j < self.n):
            raise IndexError(f"pair ({i}, {j}) out of range for n={self.n}")
        return _cell(self.n, i, j)

    def __getitem__(self, ij) -> float:
        i, j = ij
        if i == j:
            if not 0 <= i < self.n:
                raise IndexError(f"index {i} out of range")
            return 0.0
        return float(self.values[self.index(i, j)])

    def __setitem__(self, ij, value: float) -> None:
        i, j = ij
        self.values[self.index(i, j)] = value

    def take(self, rows) -> "CondensedMatrix":
        """The matrix over `rows`, indices into this one that may repeat:
        cell (i, j) is self[rows[i], rows[j]], which is 0 when the two
        indices are equal.  Gathered row by row, with no square array."""
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        out = np.empty(n * (n - 1) // 2)
        start = 0
        for i in range(n - 1):
            a, b = rows[i], rows[i + 1 :]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            part = out[start : start + len(b)]
            # Equal indices address no cell: _cell(n, k, k) lies in
            # [-1, m - 1], so the gather stays in range, and its value is
            # replaced by 0.
            np.take(self.values, _cell(self.n, lo, hi), out=part)
            part[lo == hi] = 0.0
            start += len(b)
        return CondensedMatrix(n, out)

    def to_square(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        iu = np.triu_indices(self.n, k=1)
        out[iu] = self.values
        out[(iu[1], iu[0])] = self.values
        return out

    @classmethod
    def from_square(cls, sq: np.ndarray) -> "CondensedMatrix":
        sq = np.asarray(sq, dtype=np.float64)
        n = sq.shape[0]
        return cls(n, sq[np.triu_indices(n, k=1)])

    def write_csv(self, path, names=None) -> None:
        sq = self.to_square()
        if names is None:
            names = [f"row{i}" for i in range(self.n)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for row in sq:
                writer.writerow([repr(float(v)) for v in row])

    @classmethod
    def read_csv(cls, path) -> "CondensedMatrix":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        body = np.array([[float(c) for c in row] for row in rows[1:]])
        return cls.from_square(body)

    def write_binary(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(np.array(self.n, dtype="<u8").tobytes())
            fh.write(self.values.astype("<f8").tobytes())

    @classmethod
    def read_binary(cls, path) -> "CondensedMatrix":
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[: len(MAGIC)] != MAGIC:
            raise ValueError(f"{path}: not an ISODIST1 file")
        n = int(np.frombuffer(blob, dtype="<u8", count=1, offset=len(MAGIC))[0])
        cells = np.frombuffer(blob, dtype="<f8", offset=len(MAGIC) + 8).copy()
        if cells.size != n * (n - 1) // 2:
            raise ValueError(f"{path}: truncated or corrupt payload")
        return cls(n, cells)
