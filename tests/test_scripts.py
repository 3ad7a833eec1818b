"""Smoke runs of the command-line scripts in scripts/, each in a fresh
interpreter with the package on PYTHONPATH."""

import csv
import os
import subprocess
import sys
from pathlib import Path

from nettack.data import extract_lcc, save_bundle
from nettack.synthetic import planted_partition

ROOT = Path(__file__).resolve().parents[1]
LIMITED_HEADER = ["fraction", "target", "visible_nodes", "n_flips",
                  "poisoned_margin", "correct_fraction"]


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_limited_knowledge_sweep_script(tmp_path):
    g, _ = extract_lcc(planted_partition(n_nodes=60, n_classes=3, n_features=18,
                                         markers_per_class=5, seed=4))
    save_bundle(g, tmp_path / "bundle")
    out = tmp_path / "limited.csv"
    proc = run_script("limited_knowledge_sweep.py", "--bundle", str(tmp_path / "bundle"),
                      "--fractions", "0.5", "1.0", "--n-targets", "3", "--runs", "1",
                      "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out)
    assert rows[0] == LIMITED_HEADER
    assert len(rows) == 1 + 2 * 3  # fractions x targets
    assert proc.stdout.splitlines()[-1] == f"wrote {out} (6 rows)"


def test_run_desk_scale_script(tmp_path):
    proc = run_script("run_desk_scale.py", "--n-nodes", "60", "--runs", "1",
                      "--targets", "1", "1", "1", "--out", str(tmp_path / "desk"),
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    results = tmp_path / "desk" / "results"
    assert read_csv(results / "aggregate.csv")[0] == [
        "dataset", "attack", "mode", "fraction_correct", "mean_margin", "n_rows"]
    assert read_csv(results / "limited_knowledge.csv")[0] == LIMITED_HEADER
    assert "runs complete (0 failures)" in proc.stdout
