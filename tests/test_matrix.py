import csv
import re
import tracemalloc

import numpy as np
import pytest

from isodist import matrix
from isodist.matrix import CondensedMatrix


def random_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    return CondensedMatrix(n, rng.random(n * (n - 1) // 2))


def test_symmetric_access_and_zero_diagonal():
    m = random_matrix(6)
    for i in range(6):
        assert m[i, i] == 0.0
        for j in range(6):
            assert m[i, j] == m[j, i]


def test_square_round_trip():
    m = random_matrix(9, seed=3)
    again = CondensedMatrix.from_square(m.to_square())
    assert np.array_equal(m.values, again.values)


def test_matches_scipy_squareform():
    from scipy.spatial.distance import squareform

    m = random_matrix(7, seed=5)
    assert np.array_equal(squareform(m.values), m.to_square())


def test_cell_count_validation():
    with pytest.raises(ValueError):
        CondensedMatrix(4, np.zeros(5))
    with pytest.raises(ValueError):
        CondensedMatrix(1)


def test_index_bounds():
    m = random_matrix(4)
    with pytest.raises(IndexError):
        m.index(0, 4)
    with pytest.raises(IndexError):
        m.index(2, 2)


def test_csv_round_trip(tmp_path):
    m = random_matrix(8, seed=7)
    path = tmp_path / "dist.csv"
    m.write_csv(path)
    again = CondensedMatrix.read_csv(path)
    assert np.array_equal(m.values, again.values)


@pytest.mark.parametrize(
    "damage, match",
    [
        (lambda lines: lines[:-1], "5 rows, but the header names 6"),
        (lambda lines: lines + [lines[-1]], "row 7 beyond the 6"),
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:], "row 3 has 5 cells"),
        (lambda lines: lines[:2] + [lines[2] + ",0.5"] + lines[3:], "row 2 has 7 cells"),
    ],
    ids=["missing row", "extra row", "short row", "long row"],
)
def test_csv_read_refuses_malformed_rows(tmp_path, damage, match):
    path = tmp_path / "dist.csv"
    random_matrix(6, seed=2).write_csv(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(damage(lines)) + "\n")
    with pytest.raises(ValueError, match=match):
        CondensedMatrix.read_csv(path)


def test_csv_read_names_the_cell_that_is_not_a_number(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text("a,b,c\n0.0,0.5,0.25\n0.5,0.0,x\n0.25,x,0.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: row 2, column 3: 'x' is not a number")):
        CondensedMatrix.read_csv(path)


def test_csv_read_refuses_a_truncated_file(tmp_path):
    path = tmp_path / "dist.csv"
    random_matrix(6, seed=2).write_csv(path)
    path.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(ValueError, match="row 6 has"):
        CondensedMatrix.read_csv(path)


def test_csv_write_refuses_a_name_count_other_than_n(tmp_path):
    # Two names over a 3 x 3 matrix would write a file read_csv rejects.
    path = tmp_path / "dist.csv"
    with pytest.raises(ValueError, match="2 names for an n=3 matrix"):
        CondensedMatrix(3, [0.1, 0.2, 0.3]).write_csv(path, ["a", "b"])
    assert not path.exists()


def test_csv_bytes_match_csv_writer(tmp_path):
    # The square matrix through csv.writer, one repr per cell: the format
    # write_csv keeps.
    m = random_matrix(7, seed=11)
    m.values[:4] = [1e-05, 1.0, 3e-310, 0.5]
    names = ["a", "b,c", 'd"e', "f", "g h", "", "i"]
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in m.to_square():
            writer.writerow([repr(float(v)) for v in row])
    path = tmp_path / "dist.csv"
    m.write_csv(path, names)
    assert path.read_bytes() == ref.read_bytes()
    assert path.read_bytes().endswith(b"\r\n")
    m.write_csv(path)
    assert path.read_bytes().startswith(b"row0,row1,row2,row3,row4,row5,row6\r\n0.0,1e-05,")


SPECIAL_VALUES = {
    "signed zeros": [0.0, -0.0, 0.0, -0.0, 1.0],
    "subnormals": [5e-324, -5e-324, 3e-310, 2.2250738585072014e-308, -1e-320],
    "huge": [1.7976931348623157e308, -1.7976931348623157e308, 1e308, np.inf, -np.inf, np.nan],
    "duplicate heavy": [0.5, 0.25, 1 / 3, 0.5, 0.5],
}


@pytest.mark.parametrize("values", list(SPECIAL_VALUES))
def test_csv_bytes_match_csv_writer_on_special_values(tmp_path, values):
    # write_csv formats each distinct bit pattern once: -0.0 must keep its
    # sign apart from 0.0, and repeated values share one text.
    rng = np.random.default_rng(len(values))
    n = 30
    m = CondensedMatrix(n, rng.choice(SPECIAL_VALUES[values], n * (n - 1) // 2))
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"row{i}" for i in range(n)])
        for row in m.to_square():
            writer.writerow([repr(float(v)) for v in row])
    path = tmp_path / "dist.csv"
    m.write_csv(path)
    assert path.read_bytes() == ref.read_bytes()


def test_binary_round_trip(tmp_path):
    m = random_matrix(12, seed=9)
    path = tmp_path / "dist.bin"
    m.write_binary(path)
    again = CondensedMatrix.read_binary(path)
    assert np.array_equal(m.values, again.values)
    want = b"ISODIST1" + (12).to_bytes(8, "little") + m.values.astype("<f8").tobytes()
    assert path.read_bytes() == want


def test_binary_truncated_rejected(tmp_path):
    m = random_matrix(5)
    path = tmp_path / "dist.bin"
    m.write_binary(path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError):
        CondensedMatrix.read_binary(path)


@pytest.mark.parametrize("edit", [
    lambda b: b[:-8], lambda b: b[:-3], lambda b: b + b"\x00" * 8, lambda b: b + b"\x00",
    lambda b: b[:12], lambda b: b[:16] + b"\xff" * 8,
], ids=["cell short", "bytes short", "cell long", "byte long", "header cut", "n too large"])
def test_binary_with_other_than_n_cells_names_the_file(tmp_path, edit):
    path = tmp_path / "dist.bin"
    random_matrix(5).write_binary(path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: truncated or corrupt"):
        CondensedMatrix.read_binary(path)


def test_binary_io_copies_no_cells(tmp_path):
    # Writing sends the cells' own buffer to the file, and reading keeps
    # the one array it reads into: neither holds a second copy.
    m = random_matrix(600)
    path = tmp_path / "dist.bin"
    tracemalloc.start()
    try:
        m.write_binary(path)
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        again = CondensedMatrix.read_binary(path)
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(again.values, m.values)
    assert written < m.values.nbytes / 4
    assert read < m.values.nbytes * 5 / 4


def test_binary_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTADIST" + b"\x00" * 16)
    with pytest.raises(ValueError):
        CondensedMatrix.read_binary(path)


def test_take_matches_square_gather():
    rng = np.random.default_rng(3)
    m = CondensedMatrix(6, rng.random(15))
    # Repeats, including of the first and the last row, read 0.
    rows = np.array([2, 0, 5, 2, 1, 0, 4, 3, 5])
    want = CondensedMatrix.from_square(m.to_square()[np.ix_(rows, rows)])
    assert np.array_equal(m.take(rows).values, want.values)


@pytest.mark.parametrize("block", [1, 5, 100])
def test_take_of_every_row_twice_matches_square_gather(monkeypatch, block):
    # Every row repeats, the first and the last too: each repeat addresses
    # no cell, and reads 0 whatever the first and the last cells hold.
    monkeypatch.setattr(matrix, "BLOCK_CELLS", block)
    m = random_matrix(7, seed=5)
    rows = np.random.default_rng(6).permutation(np.repeat(np.arange(7), 2))
    want = m.to_square()[np.ix_(rows, rows)]
    got = m.take(rows)
    assert np.array_equal(got.to_square(), want)
    assert np.count_nonzero(got.values == 0.0) == 7


@pytest.mark.parametrize("block", [1, 3, 7, 100])
def test_take_in_blocks_matches_square_gather(monkeypatch, block):
    monkeypatch.setattr(matrix, "BLOCK_CELLS", block)
    m = random_matrix(10, seed=4)
    rows = np.array([9, 0, 3, 3, 7, 1, 9, 2, 5, 4, 0])
    want = CondensedMatrix.from_square(m.to_square()[np.ix_(rows, rows)])
    assert np.array_equal(m.take(rows).values, want.values)
    assert m.take([6, 6]).values.tolist() == [0.0]


@pytest.mark.parametrize("rows, bad", [([0, 5], 5), ([-1, 1], -1), ([3, 0], 3)])
def test_take_refuses_a_row_outside_the_matrix(rows, bad):
    with pytest.raises(IndexError, match=f"row {bad} out of range for n=3"):
        CondensedMatrix(3, [0.1, 0.2, 0.3]).take(rows)
