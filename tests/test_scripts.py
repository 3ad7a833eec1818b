"""Smoke runs of the command-line scripts in scripts/, each in a fresh
interpreter with the package on PYTHONPATH."""

import csv
import importlib.util
import json
import os
import shutil
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


def strict_json(path: Path):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_compare_trees_script(tmp_path):
    args = ("--parent", str(ROOT), "--tiny", "--out")
    same = run_script("compare_trees.py", *args, str(tmp_path / "same.json"),
                      "--change", str(ROOT), cwd=tmp_path)
    assert same.returncode == 0, same.stderr
    report = strict_json(tmp_path / "same.json")
    assert report["verdict"] == "identical"
    assert report["sweep"]["n_results"] == 2 * 12  # two targets, twelve attacks
    assert report["desk"]["desk-1"]["files"]["results/manifest.json"]

    # A copy whose feature flips break exact ties toward the last maximum.
    mutant = tmp_path / "mutant"
    for part in ("src", "scripts"):
        shutil.copytree(ROOT / part, mutant / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    attack = mutant / "src" / "nettack" / "attack.py"
    first = "np.argmax(np.where(admissible, losses, -np.inf))"
    assert attack.read_text().count(first) == 1
    attack.write_text(attack.read_text().replace(
        first, "losses.size - 1 - np.argmax(np.where(admissible, losses, -np.inf).ravel()[::-1])"))
    changed = run_script("compare_trees.py", *args, str(tmp_path / "changed.json"),
                         "--change", str(mutant), cwd=tmp_path)
    assert changed.returncode == 1, changed.stderr
    report = strict_json(tmp_path / "changed.json")
    assert report["verdict"] == "different"
    assert [f for f, ok in report["desk"]["desk-1"]["files"].items() if not ok] == [
        "results/limited_knowledge.csv"]  # the sweep trains on partial graphs, with ties
    assert not report["epochs_run"]["identical"]


def test_compare_trees_sweep_report():
    spec = importlib.util.spec_from_file_location("compare_trees",
                                                  ROOT / "scripts" / "compare_trees.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    run = {"sequence": [["edge", 0, 1, True]], "scores": [0.5], "losses": [0.1, 0.5],
           "margins": [-0.2]}
    moved = {**run, "sequence": [["edge", 0, 2, True]], "scores": [0.25]}
    report = module._compare_sweep({"a": run, "b": run, "c": {"error": "E"}},
                                   {"a": run, "b": moved, "c": {"error": "E"}})
    assert not report["identical"] and report["changed_sequences"] == ["b"]
    assert report["results"]["a"] == {"sequence_unchanged": True, "max_abs_delta_scores": 0.0,
                                      "max_abs_delta_losses": 0.0,
                                      "max_abs_delta_margins": 0.0}
    assert report["results"]["b"]["max_abs_delta_scores"] == 0.25
    assert report["results"]["c"]["sequence_unchanged"]
