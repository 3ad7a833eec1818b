import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nettack
from nettack.cli import main
from nettack.data import extract_lcc, load_bundle, save_bundle
from nettack.graph import AttributedGraph
from nettack.synthetic import planted_partition


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    g = planted_partition(n_nodes=60, n_classes=3, n_features=18,
                          markers_per_class=5, seed=2)
    g, _ = extract_lcc(g)
    path = root / "bundle"
    save_bundle(g, path)
    return root, path, g


def strict_loads(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def run_cli(args, **env):
    """Run the CLI in a fresh process: (exit code, stderr lines)."""
    src = str(Path(nettack.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "nettack.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, **env})
    return proc.returncode, proc.stderr.splitlines()


def test_synth_and_lcc(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "s"), "--n-nodes", "40",
                 "--n-classes", "2", "--seed", "1"]) == 0
    assert main(["lcc", "--in", str(tmp_path / "s"),
                 "--out", str(tmp_path / "s_lcc")]) == 0
    g = load_bundle(tmp_path / "s_lcc")
    assert g.n_nodes >= 30
    assert (tmp_path / "s_lcc" / "lcc_mapping.json").exists()


def test_convert_round_trip(bundle, tmp_path):
    root, path, g = bundle
    assert main(["convert", "--in", str(path), "--out", str(tmp_path / "c")]) == 0
    assert load_bundle(tmp_path / "c") == g


def test_split_deterministic_bytes(bundle, tmp_path):
    root, path, _ = bundle
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["split", "--in", str(path), "--seed", "3", "--out", str(a)]) == 0
    assert main(["split", "--in", str(path), "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_surrogate_and_attack(bundle, tmp_path):
    root, path, g = bundle
    model_path = tmp_path / "model.json"
    assert main(["train-surrogate", "--in", str(path), "--seed", "1",
                 "--out", str(model_path)]) == 0
    model = json.loads(model_path.read_text())
    assert model["shape"] == [g.n_features, g.n_classes]

    out = tmp_path / "attack.json"
    assert main(["attack", "--in", str(path), "--model", str(model_path),
                 "--target", "5", "--budget", "3", "--seed", "0",
                 "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert len(res["perturbations"]) == 3
    assert res["constrained"] is True


def test_attack_default_budget_and_unconstrained(bundle, tmp_path):
    root, path, g = bundle
    out = tmp_path / "u.json"
    assert main(["attack", "--in", str(path), "--target", "5", "--seed", "1",
                 "--unconstrained", "--d-min", "3", "--tau", "0.01",
                 "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["budget"] == g.degree(5) + 2
    assert res["constrained"] is False


def test_attack_eq7_flag_runs(bundle, tmp_path):
    root, path, _ = bundle
    out = tmp_path / "printed.json"
    assert main(["attack", "--in", str(path), "--target", "4", "--budget", "2",
                 "--seed", "1", "--eq7-as-printed", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["perturbations"]


def test_attack_baselines(bundle, tmp_path):
    root, path, _ = bundle
    for name in ("rnd", "fgsm"):
        out = tmp_path / f"{name}.json"
        assert main(["attack", "--in", str(path), "--baseline", name,
                     "--target", "7", "--budget", "2", "--seed", "2",
                     "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert len(res["perturbations"]) <= 2


def test_attack_rnd_output_is_strict_json(bundle, tmp_path):
    root, path, _ = bundle
    out = tmp_path / "rnd.json"
    assert main(["attack", "--in", str(path), "--baseline", "rnd",
                 "--target", "7", "--budget", "2", "--seed", "2",
                 "--out", str(out)]) == 0
    res = strict_loads(out.read_text())
    assert res["perturbations"]
    assert all(p["score"] is None for p in res["perturbations"])  # RND scores nothing


def test_attack_out_of_range_target_clean_error(bundle, tmp_path):
    root, path, _ = bundle
    rc, err = run_cli(["attack", "--in", str(path), "--target", "99999",
                       "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("nettack: error: ")
    assert "99999" in err[0]


@pytest.mark.parametrize("case", ["fgsm-target", "missing-model", "missing-report",
                                  "unknown-plan-key", "plan-seeds-not-a-list",
                                  "plan-seeds-empty", "plan-count-a-string",
                                  "plan-runs-a-fraction", "plan-tau-not-a-number",
                                  "plan-fraction-a-string", "plan-fraction-zero",
                                  "plan-fraction-nan", "plan-fraction-above-one",
                                  "model-missing-shape", "model-too-few-classes",
                                  "model-too-few-features", "model-nan-weight",
                                  "model-classes-disagree", "model-epochs-not-integer",
                                  "targets-not-integers", "split-out-of-range",
                                  "split-overlap", "split-missing-key",
                                  "meta-not-an-object", "meta-null-count",
                                  "meta-float-count", "meta-string-count", "meta-bool-count",
                                  "plan-no-dataset", "plan-dataset-a-number",
                                  "plan-out-dir-a-number", "rnd-features-only",
                                  "rnd-influencer", "attack-d-min-zero", "attack-tau-nan",
                                  "split-empty-train", "synth-no-nodes", "synth-one-node",
                                  "synth-negative-nodes", "synth-no-classes",
                                  "split-negative-seed", "evaluate-negative-seed",
                                  "evasion-clean-fewer-classes",
                                  "evasion-clean-other-features", "targets-past-int64",
                                  "split-id-past-int64", "meta-count-past-int64"])
def test_bad_input_clean_error(case, bundle, tmp_path):
    root, path, g = bundle
    out = tmp_path / "x.json"
    data, targets = tmp_path / "input.json", tmp_path / "targets.json"
    targets.write_text("[1, 5]")
    split = {"train_ids": [0, 1, 2], "validation_ids": [3, 4, 5],
             "unlabeled_ids": list(range(6, g.n_nodes)), "rng_seed": 0}
    plan = {"dataset": str(path), "out_dir": str(tmp_path / "out")}
    inputs = {
        "unknown-plan-key": {**plan, "bogus": 1},
        "plan-seeds-not-a-list": {**plan, "seeds": 5},
        "plan-seeds-empty": {**plan, "seeds": []},
        "plan-count-a-string": {**plan, "n_high": "3"},
        "plan-runs-a-fraction": {**plan, "poisoning_runs": 2.5},
        "plan-tau-not-a-number": {**plan, "tau": "a"},
        "plan-fraction-a-string": {**plan, "limited_fractions": ["a"]},
        "plan-fraction-zero": {**plan, "limited_fractions": [0]},
        "plan-fraction-nan": {**plan, "limited_fractions": [float("nan")]},
        "plan-fraction-above-one": {**plan, "limited_fractions": [1.0, 1.5]},
        "model-missing-shape": {"weights": [0.0] * (3 * g.n_features), "n_classes": 3},
        "model-too-few-classes": {"shape": [g.n_features, 2],
                                  "weights": [0.0] * (2 * g.n_features), "n_classes": 2},
        "model-too-few-features": {"shape": [g.n_features - 1, 3],
                                   "weights": [0.0] * (3 * g.n_features - 3), "n_classes": 3},
        "model-nan-weight": {"shape": [g.n_features, 3],
                             "weights": [float("nan")] + [0.0] * (3 * g.n_features - 1),
                             "n_classes": 3},
        "model-classes-disagree": {"shape": [g.n_features, 3],
                                   "weights": [0.0] * (3 * g.n_features), "n_classes": 9},
        "model-epochs-not-integer": {"shape": [g.n_features, 3],
                                     "weights": [0.0] * (3 * g.n_features), "n_classes": 3,
                                     "epochs_run": "ten"},
        "targets-not-integers": [1, "5"],
        "targets-past-int64": [1, 10 ** 20],
        "split-out-of-range": {**split, "validation_ids": [3, 4, 999]},
        "split-overlap": {**split, "validation_ids": [2, 3, 4]},
        "split-missing-key": {k: v for k, v in split.items() if k != "train_ids"},
        "split-empty-train": {**split, "train_ids": []},
        "split-id-past-int64": {**split, "train_ids": [0, 1, 10 ** 20]},
        "plan-no-dataset": {"out_dir": str(tmp_path / "out")},
        "plan-dataset-a-number": {**plan, "dataset": 5},
        "plan-out-dir-a-number": {**plan, "out_dir": 7},
    }
    if case in inputs:
        data.write_text(json.dumps(inputs[case]))
    metas = {"meta-not-an-object": [1, 2],
             "meta-null-count": {"n_nodes": None, "n_features": g.n_features, "n_classes": 3},
             "meta-float-count": {"n_nodes": g.n_nodes + 0.9, "n_features": g.n_features,
                                  "n_classes": 3},
             "meta-string-count": {"n_nodes": g.n_nodes, "n_features": g.n_features,
                                   "n_classes": "3"},
             "meta-bool-count": {"n_nodes": g.n_nodes, "n_features": g.n_features,
                                 "n_classes": True},
             "meta-count-past-int64": {"n_nodes": g.n_nodes, "n_features": 10 ** 20,
                                       "n_classes": 3}}
    if case in metas:
        shutil.copytree(path, tmp_path / "bad")
        (tmp_path / "bad" / "meta.json").write_text(json.dumps(metas[case]))
    (tmp_path / "split.json").write_text(json.dumps(split))
    # Evasion trains on the clean bundle and reads the attacked one (`path`).
    cleans = {"evasion-clean-fewer-classes": (g.n_features, (g.labels - 1) % 2 + 1, 2),
              "evasion-clean-other-features": (g.n_features + 2, g.labels, 3)}
    if case in cleans:
        n_features, labels, n_classes = cleans[case]
        save_bundle(AttributedGraph.from_edges(g.n_nodes, n_features, g.edge_list(),
                                               g.feature_list(), labels=labels,
                                               n_classes=n_classes), tmp_path / "clean")
    evaluate = ["evaluate", "--graph", str(path), "--mode", "evasion", "--out", str(out)]
    # A target of the class a 2-class model lacks, which indexes past its logits.
    target = int(np.flatnonzero(g.labels == 3)[0])
    attack = ["attack", "--in", str(path), "--target", str(target), "--model", str(data),
              "--out", str(out)]
    graph_shape = [g.n_features, 3]
    evasion = evaluate + ["--clean-graph", str(tmp_path / "clean"),
                          "--split", str(tmp_path / "split.json"), "--targets", str(targets)]
    attack5 = ["attack", "--in", str(path), "--target", "5", "--budget", "2", "--out", str(out)]
    lcc = ["lcc", "--in", str(tmp_path / "bad"), "--out", str(out)]
    synth = ["synth", "--out", str(out)]
    args, needle = {
        "fgsm-target": (["attack", "--in", str(path), "--baseline", "fgsm",
                         "--target", "99999", "--budget", "3", "--out", str(out)], "99999"),
        "missing-model": (["attack", "--in", str(path), "--target", "1", "--out", str(out),
                           "--model", str(tmp_path / "nope.json")], "nope.json"),
        "missing-report": (["report", "--in", str(tmp_path / "nowhere"), "--table", "3"],
                           "nowhere"),
        "unknown-plan-key": (["experiment", "--plan", str(data)], "bogus"),
        "plan-seeds-not-a-list": (["experiment", "--plan", str(data)], "seeds"),
        "plan-seeds-empty": (["experiment", "--plan", str(data)], "seeds"),
        "plan-count-a-string": (["experiment", "--plan", str(data)], "n_high"),
        "plan-runs-a-fraction": (["experiment", "--plan", str(data)], "poisoning_runs"),
        "plan-tau-not-a-number": (["experiment", "--plan", str(data)], "tau"),
        "plan-fraction-a-string": (["experiment", "--plan", str(data)], "limited_fractions"),
        "plan-fraction-zero": (["experiment", "--plan", str(data)], "limited_fractions"),
        "plan-fraction-nan": (["experiment", "--plan", str(data)], "limited_fractions"),
        "plan-fraction-above-one": (["experiment", "--plan", str(data)], "limited_fractions"),
        "model-missing-shape": (["attack", "--in", str(path), "--target", "1",
                                 "--model", str(data), "--out", str(out)], "shape"),
        "model-too-few-classes": (attack, f"{[g.n_features, 2]} does not match "
                                          f"the graph's [D, K] = {graph_shape}"),
        "model-too-few-features": (attack, f"{[g.n_features - 1, 3]} does not match "
                                           f"the graph's [D, K] = {graph_shape}"),
        "model-nan-weight": (attack, "finite"),
        "model-classes-disagree": (attack, "'n_classes'"),
        "model-epochs-not-integer": (attack, "'epochs_run'"),
        "targets-not-integers": (evaluate + ["--split", str(tmp_path / "split.json"),
                                             "--targets", str(data)], "--targets"),
        "targets-past-int64": (evaluate + ["--split", str(tmp_path / "split.json"),
                                           "--targets", str(data)],
                               "--targets node ids must fit in int64, got 100000000000000000000"),
        "split-id-past-int64": (["train-surrogate", "--in", str(path), "--split", str(data),
                                 "--out", str(out)],
                                "split train_ids node ids must fit in int64"),
        "split-out-of-range": (["train-surrogate", "--in", str(path), "--split", str(data),
                                "--out", str(out)], "999"),
        "split-overlap": (["attack", "--in", str(path), "--split", str(data),
                           "--target", "1", "--out", str(out)], "disjoint"),
        "split-missing-key": (evaluate + ["--split", str(data), "--targets", str(targets)],
                              "train_ids"),
        "split-empty-train": (["evaluate", "--graph", str(path), "--mode", "poisoning",
                               "--runs", "2", "--split", str(data), "--targets", str(targets),
                               "--out", str(out)], "empty training set"),
        "meta-not-an-object": (lcc, "meta.json must be a JSON object"),
        "meta-null-count": (lcc, "n_nodes"),
        "meta-float-count": (lcc, "meta.json counts must be integers"),
        "meta-string-count": (lcc, "meta.json counts must be integers"),
        "meta-bool-count": (lcc, "meta.json counts must be integers"),
        "meta-count-past-int64": (lcc, "meta.json counts must fit in int64"),
        "plan-no-dataset": (["experiment", "--plan", str(data)], "missing key 'dataset'"),
        "plan-dataset-a-number": (["experiment", "--plan", str(data)], "dataset"),
        "plan-out-dir-a-number": (["experiment", "--plan", str(data)], "out_dir"),
        "rnd-features-only": (attack5 + ["--baseline", "rnd", "--features-only"],
                              "features-only"),
        "rnd-influencer": (attack5 + ["--baseline", "rnd", "--mode", "influencer"], "direct"),
        "attack-d-min-zero": (attack5 + ["--d-min", "0"], "d_min"),
        "attack-tau-nan": (attack5 + ["--tau", "nan"], "tau"),
        "synth-no-nodes": (synth + ["--n-nodes", "0"], "n_nodes"),
        "synth-one-node": (synth + ["--n-nodes", "1"], "n_nodes"),
        "synth-negative-nodes": (synth + ["--n-nodes", "-5"], "n_nodes"),
        "synth-no-classes": (synth + ["--n-classes", "0"], "n_classes"),
        "split-negative-seed": (["split", "--in", str(path), "--seed", "-1", "--out", str(out)],
                                "seed must be"),
        "evaluate-negative-seed": (["evaluate", "--graph", str(path), "--mode", "poisoning",
                                    "--runs", "2", "--split", str(tmp_path / "split.json"),
                                    "--targets", str(targets), "--seed", "-1",
                                    "--out", str(out)], "seed must be"),
        "evasion-clean-fewer-classes": (evasion, f"victim model [D, K] = {[g.n_features, 2]} "
                                                 f"does not match the graph's [D, K] = "
                                                 f"{graph_shape}"),
        "evasion-clean-other-features": (evasion, f"victim model [D, K] = "
                                                  f"{[g.n_features + 2, 3]} does not match "
                                                  f"the graph's [D, K] = {graph_shape}"),
    }[case]
    rc, err = run_cli(args)
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("nettack: error: ")
    assert needle in err[0]
    assert not out.exists() and not (tmp_path / "out").exists()


def test_experiment_bad_workers_clean_error(bundle, tmp_path):
    root, path, _ = bundle
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"dataset": str(path), "seeds": [1],
                                     "out_dir": str(tmp_path / "out")}))
    rc, err = run_cli(["experiment", "--plan", str(plan_path)],
                      NETTACK_WORKERS="abc")
    assert rc == 2
    assert len(err) == 1 and "NETTACK_WORKERS" in err[0] and "'abc'" in err[0]
    assert not any("Traceback" in line for line in err)
    assert not (tmp_path / "out").exists()  # rejected before any output


def test_experiment_untrainable_gcn_setting_clean_error(bundle, tmp_path):
    root, path, _ = bundle
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"dataset": str(path), "seeds": [1], "gcn_max_epochs": 0,
                                     "out_dir": str(tmp_path / "out")}))
    rc, err = run_cli(["experiment", "--plan", str(plan_path)])
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("nettack: error: ")
    assert "max_epochs" in err[0]
    assert not (tmp_path / "out").exists()  # rejected before any output


def test_attack_mode_flags_mutually_exclusive(bundle, tmp_path):
    root, path, _ = bundle
    rc = main(["attack", "--in", str(path), "--target", "1", "--budget", "1",
               "--structure-only", "--features-only",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_attack_deterministic_bytes(bundle, tmp_path):
    root, path, _ = bundle
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["attack", "--in", str(path), "--target", "9", "--budget", "4",
            "--seed", "5", "--mode", "influencer"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_evaluate_both_modes(bundle, tmp_path):
    root, path, g = bundle
    split_path = tmp_path / "split.json"
    main(["split", "--in", str(path), "--seed", "1", "--out", str(split_path)])
    targets_path = tmp_path / "targets.json"
    targets_path.write_text(json.dumps([1, 5, 9]))
    for mode, runs in (("evasion", 1), ("poisoning", 2)):
        out = tmp_path / f"{mode}.json"
        assert main(["evaluate", "--graph", str(path), "--split", str(split_path),
                     "--targets", str(targets_path), "--mode", mode,
                     "--runs", str(runs), "--seed", "1", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert len(rep["targets"]) == 3
        assert 0.0 <= rep["fraction_correct"] <= 1.0


@pytest.mark.parametrize("targets,runs,needle",
                         [([999], 2, "999"), ([-1], 2, "-1"), ([1], 0, "runs")],
                         ids=["past-end", "negative", "zero-runs"])
def test_evaluate_bad_targets_and_runs_clean_error(targets, runs, needle, bundle,
                                                   tmp_path):
    # A target past the end, a negative target (which would index from the
    # end) and zero poisoning runs (whose mean margin is NaN).
    root, path, _ = bundle
    split_path, targets_path = tmp_path / "split.json", tmp_path / "targets.json"
    main(["split", "--in", str(path), "--seed", "1", "--out", str(split_path)])
    targets_path.write_text(json.dumps(targets))
    out = tmp_path / "rep.json"
    for mode in ("evasion", "poisoning") if runs else ("poisoning",):
        rc, err = run_cli(["evaluate", "--graph", str(path), "--split", str(split_path),
                           "--targets", str(targets_path), "--mode", mode,
                           "--runs", str(runs), "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("nettack: error: ")
        assert needle in err[0]
        assert not out.exists()


def test_experiment_and_report(bundle, tmp_path):
    root, path, _ = bundle
    plan = {
        "dataset": str(path), "out_dir": str(tmp_path / "out"),
        "seeds": [1], "attacks": ["nettack", "rnd"],
        "n_high": 1, "n_low": 1, "n_random": 1,
        "poisoning_runs": 2, "gcn_max_epochs": 50,
        "limited_fractions": [],
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    assert main(["experiment", "--plan", str(plan_path)]) == 0
    table_path = tmp_path / "table3.csv"
    assert main(["report", "--in", str(tmp_path / "out"), "--table", "3",
                 "--out", str(table_path)]) == 0
    lines = table_path.read_text().strip().splitlines()
    assert lines[0] == "attack,fraction_correct"
    assert len(lines) == 4  # clean + two attacks


def test_report_unknown_table(bundle, tmp_path):
    assert main(["report", "--in", str(tmp_path), "--table", "2"]) == 2
