"""tools/ab.py: one short pair of HEAD against HEAD, and its per-metric
report and failed-run message without git."""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                           capture_output=True)
    return probe.returncode == 0


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a commit")
def test_head_against_head_reports_every_metric(tmp_path):
    work = tmp_path / "ab"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "HEAD", "HEAD",
         "--workload", "pairwise-numeric", "--pairs", "1", "--seconds", "1", "--work", str(work)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["base"] == report["new"]
    assert report["lines"] == {path: {"added": 0, "removed": 0, "net": 0}
                               for path in ("src", "tests")}
    assert "lines src/ +0/-0 (+0)  tests/ +0/-0 (+0)" in proc.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = report["workloads"]["pairwise-numeric"]
    assert set(rows) == {m["name"] for m in spec["end_to_end"]}
    for name, r in rows.items():
        assert r["pairs"] == 1 and r["wins"] in (0, 1), name
        assert math.isfinite(r["ratio"]) and r["ratio"] > 0, name
        assert r["base"]["q1"] == r["base"]["median"] == r["base"]["q3"], name
        assert r["beyond_bound"] in (True, False), name
        assert r["unresolved"] is False, name  # one run: no spread
        assert r["gain"] in (True, False), name
        assert name in proc.stdout.split("\n", 1)[1]
    # The same code, the same seed: the same memory to within a few MB.
    assert 0.9 < rows["peak_rss_mb"]["ratio"] < 1.1
    # The worktrees are gone, from the disk and from git.
    assert not any(work.iterdir())
    listed = subprocess.run(["git", "-C", str(ROOT), "worktree", "list"], capture_output=True,
                            text=True).stdout
    assert str(work) not in listed


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_compare_flags_a_metric_worse_past_its_bound():
    ab = load_ab()
    base = [1.0, 1.0, 1.1, 0.9]
    # Lower is better: a median 30% above the base's is past a 0.25 bound,
    # 20% is not, and without a bound nothing is judged.
    assert ab.compare(base, [1.3] * 4, "lower", 0.25)["beyond_bound"] is True
    assert ab.compare(base, [1.2] * 4, "lower", 0.25)["beyond_bound"] is False
    assert ab.compare(base, [0.5] * 4, "lower", 0.25)["beyond_bound"] is False
    assert ab.compare(base, [1.3] * 4, "lower")["beyond_bound"] is None
    # Higher is better: worse means lower.
    assert ab.compare(base, [0.7] * 4, "higher", 0.25)["beyond_bound"] is True
    assert ab.compare(base, [1.3] * 4, "higher", 0.25)["beyond_bound"] is False
    r = ab.compare(base, [1.3] * 4, "lower", 0.25)
    assert r["base"]["median"] == 1.0 and r["new"]["median"] == 1.3
    assert r["wins"] == 0 and r["pairs"] == 4 and r["beyond_quartiles"] is False


def test_compare_marks_a_metric_unresolved_when_base_spreads_past_its_bound():
    ab = load_ab()
    # Base quartiles 0.8 and 1.2: a spread of 0.4 x the median of 1.0.
    base = [0.7, 0.8, 1.0, 1.2, 1.3]
    assert ab.compare(base, base, "lower", 0.25)["unresolved"] is True
    assert ab.compare(base, base, "lower", 0.5)["unresolved"] is False
    assert ab.compare(base, base, "lower")["unresolved"] is None
    # Unless every new run beats every base run, in the metric's direction.
    assert ab.compare(base, [0.6] * 5, "lower", 0.25)["unresolved"] is False
    assert ab.compare(base, [0.7] * 5, "lower", 0.25)["unresolved"] is True
    assert ab.compare(base, [1.4] * 5, "higher", 0.25)["unresolved"] is False
    assert ab.compare(base, [1.3] * 5, "higher", 0.25)["unresolved"] is True


def test_compare_shows_a_gain_only_past_nine_of_ten_wins_and_the_base_spread():
    ab = load_ab()
    # Base quartiles 0.95 and 1.05: a spread of 0.1.
    base = [0.9, 0.95, 0.95, 1.0, 1.0, 1.0, 1.0, 1.05, 1.05, 1.1]
    # Better in every pair, the median 0.2 below: a gain.
    r = ab.compare(base, [x - 0.2 for x in base], "lower", 0.25)
    assert r["wins"] == 10 and r["gain"] is True
    # Better in every pair, but the median only 0.05 below: within the
    # base's spread.
    assert ab.compare(base, [x - 0.05 for x in base], "lower", 0.25)["gain"] is False
    # The median 0.2 below, but better in 8 of 10 pairs only.
    worse_twice = [x - 0.2 for x in base[:8]] + [x + 0.2 for x in base[8:]]
    r = ab.compare(base, worse_twice, "lower", 0.25)
    assert r["wins"] == 8 and r["gain"] is False
    # 9 of 10 is enough; higher-is-better metrics gain upwards.
    assert ab.compare(base, [x - 0.2 for x in base[:9]] + [2.0], "lower")["gain"] is True
    assert ab.compare(base, [x + 0.2 for x in base], "higher")["gain"] is True
    assert ab.compare(base, [x - 0.2 for x in base], "higher")["gain"] is False


def test_a_run_without_output_stops_with_a_message(monkeypatch, tmp_path):
    ab = load_ab()
    empty = subprocess.CompletedProcess([], 0, stdout="", stderr="")
    monkeypatch.setattr(ab.subprocess, "run", lambda *a, **k: empty)
    with pytest.raises(SystemExit, match="printed no result"):
        ab.run_once(tmp_path, "pairwise-numeric", 1, 1.0, 0)
