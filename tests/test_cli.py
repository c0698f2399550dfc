import json
import os
import subprocess
import sys

import numpy as np
import pytest

import isodist
from isodist.cli import main
from isodist.forest import NUMERIC
from isodist.matrix import CondensedMatrix
from model_file import first, read_model, with_code_past_labels, write_model


@pytest.fixture
def small_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "data.csv"
    with open(path, "w") as fh:
        fh.write("x,y,color\n")
        for _ in range(40):
            color = ["red", "blue", "green"][rng.integers(3)]
            fh.write(f"{rng.normal():.6f},{rng.normal():.6f},{color}\n")
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fit_writes_model(small_csv, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    code, out, _ = run(
        ["fit", "--input", small_csv, "--trees", "5", "--output", model], capsys
    )
    assert code == 0
    assert "5 trees on 40 rows" in out


def test_fit_then_dist_matches_fit_predict(small_csv, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert main(["fit", "--input", small_csv, "--trees", "5", "--output", model]) == 0
    assert main(["dist", "--input", small_csv, "--model-file", model,
                 "--output", out_a]) == 0
    assert main(["dist", "--input", small_csv, "--fit-predict", "--trees", "5",
                 "--output", out_b]) == 0
    capsys.readouterr()
    a = CondensedMatrix.read_csv(out_a)
    b = CondensedMatrix.read_csv(out_b)
    assert np.array_equal(a.values, b.values)


def test_dist_binary_matches_csv(small_csv, tmp_path, capsys):
    out_csv = str(tmp_path / "d.csv")
    out_bin = str(tmp_path / "d.bin")
    base = ["dist", "--input", small_csv, "--fit-predict", "--trees", "5"]
    assert main(base + ["--output", out_csv, "--format", "csv"]) == 0
    assert main(base + ["--output", out_bin, "--format", "bin"]) == 0
    capsys.readouterr()
    a = CondensedMatrix.read_csv(out_csv)
    b = CondensedMatrix.read_binary(out_bin)
    assert np.max(np.abs(a.values - b.values)) < 1e-15


def test_dist_two_rows_prints_distance(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("x,y\n0.0,0.0\n1.0,2.0\n")
    out = str(tmp_path / "d.csv")
    code, stdout, _ = run(
        ["dist", "--input", str(path), "--fit-predict", "--trees", "10",
         "--output", out],
        capsys,
    )
    assert code == 0
    assert "distance:" in stdout


def test_dist_reports_duplicates(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("x\n1.0\n1.0\n2.0\n")
    out = str(tmp_path / "d.csv")
    code, _, stderr = run(
        ["dist", "--input", str(path), "--fit-predict", "--trees", "5",
         "--output", out],
        capsys,
    )
    assert code == 0
    assert "duplicate" in stderr


def test_dist_reports_rows_that_remapping_makes_duplicates(tmp_path, capsys):
    # "zz" and "yy" are both labels the model never saw.
    train = tmp_path / "train.csv"
    train.write_text("x,c\n1.0,a\n2.0,b\n3.0,a\n4.0,b\n")
    model = str(tmp_path / "model.npz")
    assert main(["fit", "--input", str(train), "--trees", "5", "--output", model]) == 0
    rows = tmp_path / "rows.csv"
    rows.write_text("x,c\n1.0,zz\n1.0,yy\n3.0,a\n")
    out = str(tmp_path / "d.csv")
    code, _, stderr = run(["dist", "--input", str(rows), "--model-file", model,
                          "--output", out], capsys)
    assert code == 0
    assert CondensedMatrix.read_csv(out)[0, 1] == 0.0
    assert "note: 1 duplicate rows collapsed" in stderr


def test_score_output(small_csv, tmp_path, capsys):
    out = str(tmp_path / "scores.csv")
    code, _, _ = run(
        ["score", "--input", small_csv, "--fit-predict", "--trees", "5",
         "--output", out],
        capsys,
    )
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "score"
    scores = np.array([float(v) for v in lines[1:]])
    assert len(scores) == 40
    assert np.all((scores > 0) & (scores < 1))


def test_bench_subcommand(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code, stdout, _ = run(
        ["bench", "--scenario", "t1", "--rows", "50", "--trees", "5",
         "--seeds", "1", "--output", out],
        capsys,
    )
    assert code == 0
    assert "Euc|Iso" in stdout
    import json

    report = json.load(open(out))
    assert report["scenario"] == "t1"


def test_missing_input_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "d.csv")
    with pytest.raises(SystemExit) as exc:
        main(["dist", "--input", str(tmp_path / "nope.csv"), "--fit-predict",
              "--output", out])
    assert exc.value.code == 2
    capsys.readouterr()


def test_threads_flag_is_usage_error(small_csv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "dist", "--input", small_csv, "--fit-predict",
              "--output", str(tmp_path / "d.csv")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_zero_trees_is_usage_error(small_csv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", small_csv, "--trees", "0",
              "--output", str(tmp_path / "m.json")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_model_source_is_a_usage_error(small_csv, tmp_path, capsys):
    # Exactly one of --model-file and --fit-predict: a model file given
    # with --fit-predict would otherwise be ignored.
    model = str(tmp_path / "model.npz")
    assert main(["fit", "--input", small_csv, "--trees", "3", "--output", model]) == 0
    for command in ("dist", "score"):
        base = [command, "--input", small_csv, "--output", str(tmp_path / "out.csv")]
        for source, message in ((["--model-file", model, "--fit-predict"], "not allowed with"),
                                ([], "one of the arguments --model-file --fit-predict")):
            with pytest.raises(SystemExit) as exc:
                main(base + source + ["--trees", "7"])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_schema_mismatch_is_runtime_error(small_csv, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    assert main(["fit", "--input", small_csv, "--trees", "3", "--output", model]) == 0
    other = tmp_path / "other.csv"
    other.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    code, _, stderr = run(
        ["dist", "--input", str(other), "--model-file", model,
         "--output", str(tmp_path / "d.csv")],
        capsys,
    )
    assert code == 1
    assert "error:" in stderr


def test_schema_sidecar_key_naming_no_column_is_runtime_error(small_csv, tmp_path, capsys):
    sidecar = tmp_path / "schema.json"
    sidecar.write_text('{"colour": "categorical"}')
    code, _, stderr = run(
        ["fit", "--input", small_csv, "--schema", str(sidecar), "--trees", "3",
         "--output", str(tmp_path / "model.json")],
        capsys,
    )
    assert code == 1
    assert "schema key 'colour' names no column" in stderr


def run_with_corrupt_model(small_csv, tmp_path, corrupt):
    """`python -m isodist dist` with a model fitted on `small_csv` and
    then passed through `corrupt` (which edits its arrays and header)."""
    model = tmp_path / "model.npz"
    assert main(["fit", "--input", small_csv, "--trees", "3",
                 "--output", str(model)]) == 0
    arrays, header = read_model(model)
    corrupt(arrays, header)
    write_model(model, arrays, header)
    return run_dist(small_csv, tmp_path, model)


def run_dist(small_csv, tmp_path, model):
    """`python -m isodist dist` on `small_csv` with the model file `model`."""
    src = os.path.dirname(os.path.dirname(isodist.__file__))
    return subprocess.run(
        [sys.executable, "-m", "isodist", "dist", "--input", small_csv,
         "--model-file", str(model), "--output", str(tmp_path / "d.csv")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_corrupt_model_is_runtime_error(small_csv, tmp_path):
    # A split on a column the schema does not have fails at load with an
    # error line, not with a traceback at traversal.
    proc = run_with_corrupt_model(
        small_csv, tmp_path, lambda a, h: a["var"].__setitem__(first(a, NUMERIC), 7)
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_deeply_nested_model_is_runtime_error(small_csv, tmp_path):
    # Deeply nested JSON is no model archive.
    model = tmp_path / "model.json"
    model.write_text("[" * 100000)
    proc = run_dist(small_csv, tmp_path, model)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_version_1_model_is_runtime_error(small_csv, tmp_path):
    # A model written as version-1 JSON is refused with a request to refit.
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"format_version": 1, "params": {}, "n_sub": 40,
                                 "schema": [], "trees": []}))
    proc = run_dist(small_csv, tmp_path, model)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "version 1" in proc.stderr and "refit" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "data", [b"x,y\n1,2\n\xff,3\n", b'x,y\n1,"' + b"7" * 140_000 + b'"\n'], ids=["bytes", "field"]
)
def test_unreadable_input_csv_is_runtime_error(tmp_path, data):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    src = os.path.dirname(os.path.dirname(isodist.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "isodist", "dist", "--input", str(path), "--fit-predict",
         "--output", str(tmp_path / "d.csv")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert str(path) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_category_code_past_label_count_is_runtime_error(small_csv, tmp_path):
    # A categorical split that sends a code the column does not have.
    def corrupt(a, h):
        a["sides"] = with_code_past_labels(a["sides"], (0, 0))

    proc = run_with_corrupt_model(small_csv, tmp_path, corrupt)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "category code at or past the column's label count" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_token_flag(tmp_path, capsys):
    path = tmp_path / "na.csv"
    path.write_text("x,y\n1.0,2.0\n?,3.0\n4.0,5.0\n")
    out = str(tmp_path / "d.csv")
    code, _, _ = run(
        ["dist", "--input", str(path), "--missing-token", "?", "--fit-predict",
         "--trees", "5", "--output", out],
        capsys,
    )
    assert code == 0
    m = CondensedMatrix.read_csv(out)
    assert np.all(np.isfinite(m.values))
