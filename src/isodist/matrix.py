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

# `take` gathers at most this many cells per numpy call.
BLOCK_CELLS = 1 << 16


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
        indices are equal.  Gathered a block of output rows at a time, at
        most BLOCK_CELLS cells, with no square array."""
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        out = np.empty(n * (n - 1) // 2)
        # Output row i's cells start at starts[i]; the last row has none.
        starts = _cell(n, np.arange(n), np.arange(1, n + 1))
        i = 0
        while i < n - 1:
            stop = max(i + 1, int(np.searchsorted(starts, starts[i] + BLOCK_CELLS, "right")) - 1)
            stop = min(stop, n - 1)
            lo_cell, hi_cell = starts[i], starts[stop]
            # The (i, j) pair of each output cell in the block.
            ii = np.repeat(np.arange(i, stop), n - 1 - np.arange(i, stop))
            jj = np.arange(lo_cell, hi_cell) - starts[ii] + ii + 1
            a, b = rows[ii], rows[jj]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            part = out[lo_cell:hi_cell]
            # Equal indices address no cell: _cell(n, k, k) lies in
            # [-1, m - 1], so the gather stays in range, and its value is
            # replaced by 0.
            np.take(self.values, _cell(self.n, lo, hi), out=part)
            part[lo == hi] = 0.0
            i = stop
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
        """The square matrix with a header row, each cell as `repr` of
        its float, rows ending in CRLF, as `csv.writer` writes them.  Each
        distinct value (bit pattern, so -0.0 stays apart from 0.0) is
        formatted once, and each row joins the texts of its cells."""
        if names is None:
            names = [f"row{i}" for i in range(self.n)]
        n = self.n
        bits, code = np.unique(self.values.view(np.int64), return_inverse=True)
        texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(names)
            for i in range(n):
                # Row i: the cells (j, i) above the diagonal, its zero,
                # then the cells (i, j) beyond it.
                above = texts[code[_cell(n, np.arange(i), i)]]
                beyond = texts[code[_cell(n, i, i + 1) : _cell(n, i, n)]]
                fh.write(",".join([*above, "0.0", *beyond]))
                fh.write("\r\n")

    @classmethod
    def read_csv(cls, path) -> "CondensedMatrix":
        """Read the square matrix `write_csv` writes: n is the header
        row's length, and each of the n rows that follow has n cells.  Rows
        are read one at a time, and only the cells beyond the diagonal are
        parsed, straight into the condensed array.  A missing, extra,
        short or long row raises ValueError naming it."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            n = len(next(reader, []))
            out = cls(n)
            i = -1
            for i, row in enumerate(reader):
                if i >= n:
                    raise ValueError(f"{path}: row {i + 1} beyond the {n} the header names")
                if len(row) != n:
                    raise ValueError(f"{path}: row {i + 1} has {len(row)} cells, not {n}")
                at = _cell(n, i, i + 1)
                out.values[at : at + n - 1 - i] = [float(c) for c in row[i + 1 :]]
        if i + 1 < n:
            raise ValueError(f"{path}: {i + 1} rows, but the header names {n}")
        return out

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
