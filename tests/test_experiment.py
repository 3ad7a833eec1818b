import csv
import json

import numpy as np
import pytest

import nettack.experiment
from nettack.data import extract_lcc, make_split, save_bundle
from nettack.experiment import (ExperimentPlan, degree_bucket_report,
                                limited_knowledge_subgraph, run_experiment,
                                select_targets, table3_csv)
from nettack.graph import AttributedGraph
from nettack.surrogate import (NormalizedAdjacency, TrainingError, softmax,
                               surrogate_logits, train_surrogate)
from nettack.synthetic import planted_partition
from helpers import reproduction_summary


@pytest.fixture(scope="module")
def small_world():
    g = planted_partition(n_nodes=80, n_classes=3, n_features=24,
                          markers_per_class=6, seed=3)
    g, _ = extract_lcc(g)
    split = make_split(g, seed=1)
    na = NormalizedAdjacency.build(g)
    model = train_surrogate(g, na, split)
    return g, split, na, model


def select_targets_loop(model, g, na, split, seed, n_high, n_low, n_random):
    """Per-node reference for `select_targets`: a plain loop and sorts."""
    probs = softmax(surrogate_logits(na, g, model))
    correct = []
    for u in split.unlabeled_ids.tolist():
        c = int(g.labels[u]) - 1
        p = probs[u].tolist()
        if c >= 0 and max(range(len(p)), key=lambda k: (p[k], -k)) == c:
            correct.append((p[c] - max(x for k, x in enumerate(p) if k != c), u))
    high = [u for _, u in sorted(correct, key=lambda t: (-t[0], t[1]))[:n_high]]
    rest = [t for t in correct if t[1] not in high]
    low = [u for _, u in sorted(rest)[:n_low]]
    remainder = sorted(u for _, u in rest if u not in low)
    n_rand = min(n_random, len(remainder))
    rand = np.random.default_rng(seed).choice(remainder, size=n_rand, replace=False)
    return sorted(high), sorted(low), sorted(rand.tolist()) if n_rand else []


def test_select_targets_counts_and_disjoint(small_world):
    g, split, na, model = small_world
    sel = select_targets(model, g, na, split, seed=2, n_high=3, n_low=3, n_random=5)
    groups = [sel.high_margin, sel.low_margin, sel.random]
    assert [len(x) for x in groups] == [3, 3, 5]
    flat = sel.all
    assert len(set(flat)) == len(flat)
    assert set(flat) <= set(int(u) for u in split.unlabeled_ids)
    for sizes in ((3, 3, 5), (10, 10, 20), (40, 40, 40)):
        sel = select_targets(model, g, na, split, 2, *sizes)
        groups = (sel.high_margin, sel.low_margin, sel.random)
        assert groups == select_targets_loop(model, g, na, split, 2, *sizes), sizes
        assert all(type(u) is int for u in sel.all)


def test_select_targets_deterministic(small_world):
    g, split, na, model = small_world
    a = select_targets(model, g, na, split, seed=5)
    b = select_targets(model, g, na, split, seed=5)
    assert a.all == b.all


def test_select_targets_tie_break_smallest_ids():
    # Vertex-transitive one-class graph: all margins identical, so the
    # high-margin bucket is the smallest ids of the test pool.
    n = 30
    g = AttributedGraph.from_edges(n, 1, [(i, (i + 1) % n) for i in range(n)],
                                   [(i, 0) for i in range(n)],
                                   labels=np.ones(n, dtype=np.int64), n_classes=2)
    split = make_split(g, seed=0)
    na = NormalizedAdjacency.build(g)
    model = train_surrogate(g, na, split)
    sel = select_targets(model, g, na, split, seed=1, n_high=4, n_low=4, n_random=4)
    pool = sorted(int(u) for u in split.unlabeled_ids)
    assert sel.high_margin == pool[:4]


def test_select_targets_short_pool_warns(small_world, caplog):
    g, split, na, model = small_world
    with caplog.at_level("WARNING"):
        sel = select_targets(model, g, na, split, seed=1,
                             n_high=40, n_low=40, n_random=40)
    assert "wanted 120" in caplog.text
    assert len(sel.all) < 120


def test_limited_knowledge_full_fraction_identity(small_world):
    g, _, _, _ = small_world
    sub, mapping = limited_knowledge_subgraph(g, 0, 1.0)
    assert sub == g
    assert list(mapping) == list(range(g.n_nodes))


def test_limited_knowledge_star_one_hop():
    g = AttributedGraph.from_edges(10, 0, [(0, i) for i in range(1, 5)]
                                   + [(5, 6), (6, 7), (7, 8), (8, 9)])
    sub, mapping = limited_knowledge_subgraph(g, 0, fraction=0.5)
    assert list(mapping) == [0, 1, 2, 3, 4]
    assert sub.n_edges == 4


def test_limited_knowledge_rings_then_smallest_ids():
    cases = [
        # Path graph: rings from the target come first, then unreachables.
        (8, [(0, 1), (1, 2), (2, 3)], 0, 0.75, [0, 1, 2, 3, 4, 5]),
        # Ring one of node 4 is {2, 7, 9}; only two of it fit, smallest ids first.
        (10, [(4, 9), (4, 2), (4, 7), (0, 2), (1, 9)], 4, 0.3, [2, 4, 7]),
        # Ring two of node 4 is {0, 1, 5}; one fits after ring one.
        (10, [(4, 9), (4, 2), (4, 7), (5, 7), (1, 9), (0, 2)], 4, 0.5, [0, 2, 4, 7, 9]),
    ]
    for n, edges, v0, fraction, want in cases:
        g = AttributedGraph.from_edges(n, 0, edges)
        sub, mapping = limited_knowledge_subgraph(g, v0, fraction=fraction)
        assert list(mapping) == want


def test_limited_knowledge_induced_subgraph_correct(small_world):
    g, _, _, _ = small_world
    sub, mapping = limited_knowledge_subgraph(g, 5, 0.4)
    inverse = {int(orig): new for new, orig in enumerate(mapping)}
    for new_u, orig_u in enumerate(mapping):
        for orig_v in g.neighbors(int(orig_u)):
            if int(orig_v) in inverse:
                assert inverse[int(orig_v)] in sub.neighbors(new_u)
        assert np.array_equal(sub.features_of(new_u), g.features_of(int(orig_u)))
        assert sub.labels[new_u] == g.labels[int(orig_u)]


def test_limited_knowledge_rejects_bad_fraction(small_world):
    g, _, _, _ = small_world
    with pytest.raises(ValueError):
        limited_knowledge_subgraph(g, 0, 0.0)
    with pytest.raises(ValueError):
        limited_knowledge_subgraph(g, 0, 1.5)


def test_degree_bucket_report_rows_and_omission():
    rows = [(1, 1.0, 0.0), (5, 0.8, 0.2), (7, 1.0, 0.5), (150, 1.0, 0.0)]
    table = degree_bucket_report(rows)
    labels = [r["bucket"] for r in table]
    assert labels == ["[1;5]", "[6;10]", "[101;inf)"]  # empty buckets omitted
    assert table[0]["n"] == 2
    assert table[0]["clean_fraction"] == pytest.approx(0.9)
    assert table[0]["attacked_fraction"] == pytest.approx(0.1)


@pytest.fixture(scope="module")
def tiny_experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("exp")
    bundle = root / "bundle"
    g = planted_partition(n_nodes=60, n_classes=3, n_features=18,
                          markers_per_class=5, seed=4)
    g, _ = extract_lcc(g)
    save_bundle(g, bundle)
    plan = ExperimentPlan(
        dataset=str(bundle), out_dir=str(root / "out"),
        seeds=(1, 2), attacks=("nettack", "rnd"),
        n_high=1, n_low=1, n_random=2, poisoning_runs=2,
        gcn_max_epochs=60, limited_fractions=(0.5, 1.0))
    manifest = run_experiment(plan)
    return root, plan, manifest, g


def test_run_experiment_run_count(tiny_experiment):
    root, plan, manifest, _ = tiny_experiment
    runs = list((root / "out" / "runs").glob("*.json"))
    assert len(runs) == 2 * 2 * 4  # seeds x attacks x targets
    assert manifest["failures"] == []


def test_run_experiment_budget_rule(tiny_experiment):
    root, _, _, g = tiny_experiment
    for path in (root / "out" / "runs").glob("*.json"):
        payload = json.loads(path.read_text())
        target = payload["result"]["target"]
        assert len(payload["result"]["perturbations"]) <= g.degree(target) + 2


def test_run_experiment_outputs_exist(tiny_experiment):
    root, _, _, _ = tiny_experiment
    out = root / "out"
    for name in ("aggregate.csv", "margin_scatter.csv", "lambda_trace.csv",
                 "loss_vs_perturbations.csv", "degree_buckets.csv",
                 "limited_knowledge.csv", "manifest.json"):
        assert (out / name).exists()


def test_run_experiment_outputs_are_strict_json(tiny_experiment):
    root, _, _, _ = tiny_experiment
    out = root / "out"

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    rnd_files = sorted((out / "runs").glob("*_rnd_*.json"))
    assert rnd_files
    for path in sorted((out / "runs").glob("*.json")) + [out / "manifest.json"]:
        json.loads(path.read_text(), parse_constant=reject)
    for path in rnd_files:
        res = json.loads(path.read_text())["result"]
        assert all(p["score"] is None for p in res["perturbations"])


def test_run_experiment_deterministic_reruns(tiny_experiment):
    root, plan, _, _ = tiny_experiment
    out = root / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    run_experiment(plan)  # identical plan into the same directory
    after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert before == after


def test_run_experiment_worker_pool_matches_sequential(tiny_experiment, monkeypatch):
    # The two-seed plan, and a one-seed plan with its sweep, whose tasks
    # also spread over the workers.
    root, plan, _, _ = tiny_experiment
    one_seed = ExperimentPlan.from_dict({**plan.to_dict(), "seeds": [plan.seeds[0]],
                                         "out_dir": str(root / "out_one_seed")})
    run_experiment(one_seed)
    monkeypatch.setenv("NETTACK_WORKERS", "2")
    for seq_plan in (plan, one_seed):
        seq_out = root / seq_plan.out_dir
        seq = {p.name: p.read_bytes()
               for p in seq_out.iterdir() if p.is_file()}
        seq_runs = {p.name: p.read_bytes() for p in (seq_out / "runs").iterdir()}
        par_out = root / f"{seq_out.name}_par"
        run_experiment(ExperimentPlan.from_dict({**seq_plan.to_dict(), "out_dir": str(par_out)}))
        par = {p.name: p.read_bytes()
               for p in par_out.iterdir() if p.is_file()}
        par_runs = {p.name: p.read_bytes() for p in (par_out / "runs").iterdir()}
        assert seq_runs == par_runs
        assert "limited_knowledge.csv" in seq
        for name in seq:
            if name == "manifest.json":
                continue  # embeds the differing out_dir path
            assert par[name] == seq[name], name


def test_worker_pool_is_capped_at_the_task_count(tiny_experiment, monkeypatch):
    # One seed, one attack and no sweep make 5 tasks (the clean step and 4
    # runs), so a larger NETTACK_WORKERS starts only 5 processes.
    root, plan, _, _ = tiny_experiment
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, *args):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(nettack.experiment, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setenv("NETTACK_WORKERS", "5000")
    out = root / "out_capped"
    got = run_experiment(ExperimentPlan.from_dict(
        {**plan.to_dict(), "seeds": [plan.seeds[0]], "attacks": ["nettack"],
         "limited_fractions": [], "out_dir": str(out)}))
    assert sizes == [5]
    assert got["failures"] == []
    assert ({p.name: p.read_bytes() for p in (out / "runs").iterdir()}
            == {p.name: p.read_bytes()
                for p in (root / "out" / "runs").glob(f"seed{plan.seeds[0]}_nettack_*")})


def test_clean_model_failure_is_recorded_per_skipped_run(tiny_experiment, monkeypatch):
    # The clean fit of seed 2 raises: each of that seed's attack runs is one
    # failure carrying the clean step's error, seed 1 runs as before and the
    # manifest is still written. Forked workers see the patch too.
    root, plan, manifest, _ = tiny_experiment
    train_gcn = nettack.experiment.train_gcn

    def failing_for_seed_2(g, split, seed, config=None):
        if seed == 9000 + 2:
            raise TrainingError("non-finite training loss at epoch 7")
        return train_gcn(g, split, seed=seed, config=config)

    monkeypatch.setattr(nettack.experiment, "train_gcn", failing_for_seed_2)
    for workers in ("1", "2"):
        monkeypatch.setenv("NETTACK_WORKERS", workers)
        out = root / f"out_clean_failure_{workers}"
        got = run_experiment(ExperimentPlan.from_dict({**plan.to_dict(), "out_dir": str(out)}))
        assert got == json.loads((out / "manifest.json").read_text())
        assert got["targets"] == manifest["targets"]
        runs = {p.name: p.read_bytes() for p in (out / "runs").iterdir()}
        expected = {p.name: p.read_bytes() for p in (root / "out" / "runs").glob("seed1_*")}
        assert runs == expected
        skipped = [(a, v) for a in plan.attacks for v in manifest["targets"]["2"]]
        assert [(f["attack"], f["target"]) for f in got["failures"]] == skipped
        assert len(got["failures"]) == 2 * 4 * len(plan.attacks) - len(runs)
        for f in got["failures"]:
            assert f["seed"] == 2
            assert f["error"] == "TrainingError('non-finite training loss at epoch 7')"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_shares_the_seed_set_up_and_nettack_runs(tiny_experiment, monkeypatch):
    # Each fraction-1.0 row is its target's `nettack` poisoning row, and the
    # sweep loads no bundle of its own.
    root, plan, manifest, g = tiny_experiment
    seed = plan.seeds[0]
    nettack_rows = {r["target"]: r for r in read_csv(root / "out" / "margin_scatter.csv")
                    if (r["seed"], r["attack"], r["mode"]) == (str(seed), "nettack",
                                                                "poisoning")}
    full = [r for r in read_csv(root / "out" / "limited_knowledge.csv")
            if r["fraction"] == "1.0"]
    assert [int(r["target"]) for r in full] == manifest["targets"][str(seed)]
    for r in full:
        run = json.loads((root / "out" / "runs" / f"seed{seed}_nettack_t{r['target']}.json")
                         .read_text())
        assert int(r["visible_nodes"]) == g.n_nodes
        assert int(r["n_flips"]) == len(run["result"]["perturbations"])
        assert r["poisoned_margin"] == nettack_rows[r["target"]]["margin"]
        assert r["correct_fraction"] == nettack_rows[r["target"]]["correct_fraction"]

    loads = []
    load_bundle = nettack.experiment.load_bundle

    def counting_load(path):
        loads.append(path)
        return load_bundle(path)

    monkeypatch.setattr(nettack.experiment, "load_bundle", counting_load)
    out = root / "out_counted"
    run_experiment(ExperimentPlan.from_dict({**plan.to_dict(), "out_dir": str(out)}))
    assert len(loads) == len(plan.seeds)
    assert ((out / "limited_knowledge.csv").read_bytes()
            == (root / "out" / "limited_knowledge.csv").read_bytes())


def test_sweep_task_failure_is_recorded(tiny_experiment, monkeypatch):
    # Every surrogate fit on a partial graph raises: each fraction-0.5 task
    # is one failure, and everything else is written as in a normal run.
    root, plan, manifest, g = tiny_experiment
    train_surrogate = nettack.experiment.train_surrogate

    def failing_on_subgraphs(sub, *args, **kwargs):
        if sub.n_nodes < g.n_nodes:
            raise TrainingError("non-finite training loss at epoch 3")
        return train_surrogate(sub, *args, **kwargs)

    monkeypatch.setattr(nettack.experiment, "train_surrogate", failing_on_subgraphs)
    for workers in ("1", "2"):
        monkeypatch.setenv("NETTACK_WORKERS", workers)
        out = root / f"out_sweep_failure_{workers}"
        got = run_experiment(ExperimentPlan.from_dict({**plan.to_dict(), "out_dir": str(out)}))
        assert got == json.loads((out / "manifest.json").read_text())
        assert got["failures"] == [
            {"seed": plan.seeds[0], "fraction": 0.5, "target": v0,
             "error": "TrainingError('non-finite training loss at epoch 3')"}
            for v0 in manifest["targets"][str(plan.seeds[0])]]
        lines = (root / "out" / "limited_knowledge.csv").read_text().splitlines()
        assert (out / "limited_knowledge.csv").read_text().splitlines() == (
            lines[:1] + [ln for ln in lines[1:] if ln.startswith("1.0,")])
        assert ({p.name: p.read_bytes() for p in (out / "runs").iterdir()}
                == {p.name: p.read_bytes() for p in (root / "out" / "runs").iterdir()})


def test_sweep_survives_a_clean_failure_of_its_seed(tiny_experiment, monkeypatch):
    # With the sweep seed's clean step failing there is no `nettack` run to
    # reuse: the fraction-1.0 tasks attack the whole graph themselves, and
    # the rows come out the same.
    root, plan, _, _ = tiny_experiment

    def failing(*args, **kwargs):
        raise TrainingError("non-finite training loss at epoch 7")

    monkeypatch.setattr(nettack.experiment, "train_gcn", failing)
    for workers in ("1", "2"):
        monkeypatch.setenv("NETTACK_WORKERS", workers)
        out = root / f"out_sweep_seed_clean_failure_{workers}"
        got = run_experiment(ExperimentPlan.from_dict(
            {**plan.to_dict(), "seeds": [plan.seeds[0]], "out_dir": str(out)}))
        assert [f["attack"] for f in got["failures"]] == [
            a for a in plan.attacks for _ in got["targets"][str(plan.seeds[0])]]
        assert ((out / "limited_knowledge.csv").read_bytes()
                == (root / "out" / "limited_knowledge.csv").read_bytes())


def test_table3_csv_order(tiny_experiment):
    root, _, _, _ = tiny_experiment
    text = table3_csv(root / "out")
    lines = text.strip().splitlines()
    assert lines[0] == "attack,fraction_correct"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["clean", "nettack", "rnd"]


def test_plan_json_round_trip(tmp_path):
    plan = ExperimentPlan(dataset="d", out_dir="o", seeds=(3,),
                          attacks=("nettack",), limited_fractions=(0.5, 1.0))
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    back = ExperimentPlan.load(path)
    assert back == plan


def test_plan_rejects_unknown_attack():
    with pytest.raises(ValueError):
        ExperimentPlan(dataset="d", out_dir="o", attacks=("bogus",))


@pytest.mark.parametrize("field, value", [
    ("n_high", "3"), ("n_low", -1), ("n_random", 2.0), ("budget_offset", True),
    ("poisoning_runs", 2.5), ("poisoning_runs", 0), ("d_min", 0),
    ("tau", "a"), ("tau", float("nan")), ("tau", float("inf")),
    ("dataset", 5), ("out_dir", 7), ("dataset", None), ("seeds", (1, 2, 1)),
    ("attacks", ("rnd", "rnd")), ("limited_fractions", (1.0, 1.0)), ("seeds", (-1,)),
])
def test_plan_rejects_bad_counts_and_tau(field, value):
    with pytest.raises(ValueError, match=f"plan key '{field}' must be"):
        ExperimentPlan(**{"dataset": "d", "out_dir": "o", field: value})


@pytest.mark.parametrize("value, message", [
    ([1], "a plan must be a JSON object"), ({"out_dir": "o"}, "plan missing key 'dataset'"),
    ({"dataset": "d"}, "plan missing key 'out_dir'"),
])
def test_plan_from_dict_needs_an_object_with_dataset_and_out_dir(value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentPlan.from_dict(value)


def test_reproduction_summary_structure(tmp_path):
    bundle = tmp_path / "bundle"
    g = planted_partition(n_nodes=60, n_classes=3, n_features=18,
                          markers_per_class=5, seed=4)
    g, _ = extract_lcc(g)
    save_bundle(g, bundle)
    summary = reproduction_summary(bundle, tmp_path / "out", seeds=(1,),
                                   n_high=1, n_low=1, n_random=1, runs=2,
                                   attacks=("nettack", "rnd"))
    assert set(summary["fractions"]) == {"clean", "nettack", "rnd"}
    for v in summary["fractions"].values():
        assert 0.0 <= v <= 1.0
    assert summary["n_attack_runs"] == 3
    assert 1.0 <= summary["mean_crossing"]


def test_run_attack_by_name_full_roster(small_world):
    from nettack.experiment import run_attack_by_name
    # Each run's seed holds its attack's index in this order.
    assert ExperimentPlan(dataset="d", out_dir="o").attacks == (
        "nettack", "nettack-in", "fgsm", "rnd", "nettack-u")
    g, split, na, model = small_world
    v0 = int(split.unlabeled_ids[0])
    budget = g.degree(v0) + 2
    for name in ("nettack", "nettack-in", "fgsm", "rnd", "nettack-u"):
        res = run_attack_by_name(name, g, model, na, v0, budget, seed=3)
        assert len(res.perturbations) <= budget
        assert res.constrained == (name in ("nettack", "nettack-in"))
        if name == "nettack-in":
            assert v0 not in res.attackers
        else:
            assert res.attackers == (v0,)
    with pytest.raises(ValueError):
        run_attack_by_name("bogus", g, model, na, v0, budget, seed=3)


def _interleaved_minima(g, na, model, configs, reps=31):
    # Round-robin over the configs so clock drift hits every point equally,
    # and the fastest repeat per point: host noise only ever adds time.
    import time
    from nettack.attack import run_nettack
    times = [[] for _ in configs]
    for _ in range(reps):
        for slot, cfg in enumerate(configs):
            t0 = time.perf_counter()
            run_nettack(g, model, cfg, na=na)
            times[slot].append(time.perf_counter() - t0)
    return [min(t) for t in times]


def test_attack_time_scales_linearly_in_budget_and_attackers():
    from nettack.attack import AttackConfig, INFLUENCER
    g = planted_partition(n_nodes=250, n_classes=3, n_features=24,
                          markers_per_class=6, seed=6)
    g, _ = extract_lcc(g)
    split = make_split(g, seed=1)
    na = NormalizedAdjacency.build(g)
    model = train_surrogate(g, na, split)
    v0 = int(np.argmax(g.degrees))
    warm = AttackConfig(target=v0, budget=2)
    _interleaved_minima(g, na, model, [warm], reps=2)

    budgets = [2, 4, 8, 16]
    times = _interleaved_minima(
        g, na, model, [AttackConfig(target=v0, budget=b) for b in budgets])
    assert all(b > a for a, b in zip(times, times[1:]))
    slope, intercept = np.polyfit(budgets, times, 1)
    assert slope > 0
    for b, t in zip(budgets, times):
        assert abs(t - (slope * b + intercept)) <= 0.25 * t

    # Cost also grows with the attacker count (candidate sets are |A|-wide);
    # only the growth itself is asserted, the trend is too short to fit.
    sizes = [1, 2, 4]
    times = _interleaved_minima(
        g, na, model,
        [AttackConfig(target=v0, budget=4, mode=INFLUENCER, n_influencers=k)
         for k in sizes])
    assert times[0] < times[1] < times[2]
    assert times[2] <= 8.0 * times[0]
