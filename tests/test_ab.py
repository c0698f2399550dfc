"""tools/ab.py: one short pair of HEAD against HEAD."""

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
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = report["workloads"]["pairwise-numeric"]
    assert set(rows) == {m["name"] for m in spec["end_to_end"]}
    for name, r in rows.items():
        assert r["pairs"] == 1 and r["wins"] in (0, 1), name
        assert math.isfinite(r["ratio"]) and r["ratio"] > 0, name
        assert r["base"]["q1"] == r["base"]["median"] == r["base"]["q3"], name
        assert name in proc.stdout.split("\n", 1)[1]
    # The same code, the same seed: the same memory to within a few MB.
    assert 0.9 < rows["peak_rss_mb"]["ratio"] < 1.1
    # The worktrees are gone, from the disk and from git.
    assert not any(work.iterdir())
    listed = subprocess.run(["git", "-C", str(ROOT), "worktree", "list"], capture_output=True,
                            text=True).stdout
    assert str(work) not in listed
