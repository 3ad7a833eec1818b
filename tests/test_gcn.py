import math

import numpy as np
import pytest

from nettack.attack import AttackConfig, apply_result, run_nettack
from nettack.data import BundleError, DataSplit, extract_lcc, make_split
from nettack.gcn import (GcnConfig, GcnModel, MarginReport, TargetMargin, _fit,
                         evasion_eval, poisoning_eval, train_gcn)
from nettack.graph import AttributedGraph, GraphError
from nettack.surrogate import (NormalizedAdjacency, margin, normalized_adjacency_matrix,
                               softmax, train_surrogate, TrainingError)
from nettack.synthetic import planted_partition
from helpers import dense_normalized, gcn_forward, gcn_loss_and_grads, random_graph


def fixed_small_instance():
    rng = np.random.default_rng(0)
    g = AttributedGraph(10, 6, n_classes=3, labels=rng.integers(1, 4, size=10))
    for u in range(10):
        for v in range(u + 1, 10):
            if rng.random() < 0.3:
                g.flip_edge_inplace(u, v)
        for i in range(6):
            if rng.random() < 0.4:
                g.flip_feature_inplace(u, i)
    return g


def test_gradients_match_finite_differences():
    g = fixed_small_instance()
    ahat = normalized_adjacency_matrix(g)
    x = g.feature_matrix()
    y = g.labels - 1
    idx = np.array([0, 2, 5, 7])
    rng = np.random.default_rng(1)
    w1 = rng.normal(scale=0.5, size=(6, 4))
    w2 = rng.normal(scale=0.5, size=(4, 3))
    _, g1, g2 = gcn_loss_and_grads(w1, w2, ahat, x, y, idx)
    eps = 1e-6
    for w, gw in ((w1, g1), (w2, g2)):
        for a in range(w.shape[0]):
            for b in range(w.shape[1]):
                w[a, b] += eps
                lp, _, _ = gcn_loss_and_grads(w1, w2, ahat, x, y, idx)
                w[a, b] -= 2 * eps
                lm, _, _ = gcn_loss_and_grads(w1, w2, ahat, x, y, idx)
                w[a, b] += eps
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - gw[a, b]) / max(1e-8, abs(fd), abs(gw[a, b])) < 1e-5


def assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("graph", ["random-10", "random-11", "random-12", "desk",
                                   "ten-train-rows"])
def test_layer1_matches_dense_ax_w1_form(graph):
    # Â·(X·W₁) and its gradient against the (Â·X)·W₁ form, computed densely
    # over all N rows in both layers; training computes layer 2 only at the
    # training rows.
    if graph == "ten-train-rows":
        g, split = ten_train_rows()
    else:
        g = (extract_lcc(planted_partition(seed=0))[0] if graph == "desk"
             else random_graph(40, 0.1, seed=int(graph[-2:]), n_features=12))
        split = make_split(g, seed=1)
    rng = np.random.default_rng(3)
    w1 = rng.normal(scale=0.5, size=(g.n_features, 16))
    w2 = rng.normal(scale=0.5, size=(16, g.n_classes))
    idx = split.train_ids
    y = g.labels - 1

    a = dense_normalized(g)
    ax = a @ g.feature_matrix().toarray()
    h_pre = ax @ w1
    h = np.maximum(h_pre, 0.0)
    m2 = a @ h
    probs = softmax(m2 @ w2)
    loss = -np.mean(np.log(probs[idx, y[idx]] + 1e-12))
    grad_logits = np.zeros_like(probs)
    grad_logits[idx] = probs[idx]
    grad_logits[idx, y[idx]] -= 1.0
    grad_logits /= len(idx)
    grad_h = a.T @ (grad_logits @ w2.T)
    g1 = ax.T @ (grad_h * (h_pre > 0.0))
    g2 = m2.T @ grad_logits

    ahat, x = normalized_adjacency_matrix(g), g.feature_matrix()
    got_loss, got_g1, got_g2 = gcn_loss_and_grads(w1, w2, ahat, x, y, idx)
    assert got_loss == pytest.approx(loss, rel=1e-12, abs=0)
    assert_close(got_g1, g1)
    assert_close(got_g2, g2)
    assert_close(gcn_forward(GcnModel(w1=w1, w2=w2), ahat, x), probs)


def test_two_cliques_fully_learned():
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    edges += [(u, v) for u in range(10, 20) for v in range(u + 1, 20)]
    feats = [(u, 0) for u in range(10)] + [(u, 1) for u in range(10, 20)]
    labels = np.array([1] * 10 + [2] * 10)
    g = AttributedGraph.from_edges(20, 2, edges, feats, labels=labels, n_classes=2)
    split = make_split(g, seed=0)
    model = train_gcn(g, split, seed=1)
    probs = gcn_forward(model, normalized_adjacency_matrix(g), g.feature_matrix())
    assert np.array_equal(np.argmax(probs, axis=1), g.labels - 1)


def test_forward_rows_sum_to_one():
    g = random_graph(15, 0.2, seed=3)
    model = train_gcn(g, make_split(g, seed=1), seed=2)
    probs = gcn_forward(model, normalized_adjacency_matrix(g), g.feature_matrix())
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_training_deterministic_per_seed():
    g = random_graph(20, 0.15, seed=4)
    split = make_split(g, seed=2)
    a = train_gcn(g, split, seed=7)
    b = train_gcn(g, split, seed=7)
    c = train_gcn(g, split, seed=8)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    assert not np.array_equal(a.w1, c.w1)


def test_margin_uniform_output_zero():
    # An exact tie is +0.0, never -0.0, so it is written as 0.0.
    m = float(margin(np.array([0.25, 0.25, 0.25, 0.25]), 2))
    assert m == 0.0 and math.copysign(1.0, m) == 1.0


def test_margin_one_hot():
    assert margin(np.array([1.0, 0.0, 0.0]), 0) == pytest.approx(1.0)
    assert margin(np.array([1.0, 0.0, 0.0]), 1) == pytest.approx(-1.0)


def test_margin_sign_agrees_with_argmax():
    g = random_graph(25, 0.15, seed=5)
    model = train_gcn(g, make_split(g, seed=3), seed=1)
    probs = gcn_forward(model, normalized_adjacency_matrix(g), g.feature_matrix())
    for u in range(g.n_nodes):
        c_old = int(g.labels[u] - 1)
        m = margin(probs[u], c_old)
        if m > 0:
            assert int(np.argmax(probs[u])) == c_old
        elif m < 0:
            assert int(np.argmax(probs[u])) != c_old


def test_evasion_identity_graph_identical():
    g = random_graph(20, 0.2, seed=6)
    model = train_gcn(g, make_split(g, seed=1), seed=4)
    r1 = evasion_eval(model, g, [0, 3, 7])
    r2 = evasion_eval(model, g.copy(), [0, 3, 7])
    for a, b in zip(r1.targets, r2.targets):
        assert a.margin == b.margin


def test_evasion_locality_outside_two_hop():
    # A far-away flip that touches no two-hop degree leaves margins alone.
    edges = [(i, i + 1) for i in range(11)]  # path 0-1-...-11
    feats = [(i, i % 2) for i in range(12)]
    labels = np.array([1 + (i % 2) for i in range(12)])
    g = AttributedGraph.from_edges(12, 2, edges, feats, labels=labels, n_classes=2)
    model = train_gcn(g, make_split(g, seed=0), seed=1)
    before = evasion_eval(model, g, [0]).targets[0].margin
    assert g.two_hop_neighborhood(0) == {0, 1, 2}
    g2 = g.flip_edge(8, 11)  # both endpoints >2 hops from node 0
    after = evasion_eval(model, g2, [0]).targets[0].margin
    assert after == pytest.approx(before, abs=1e-9)


def test_poisoning_reports_per_run_thresholds():
    g = random_graph(20, 0.25, seed=7)
    split = make_split(g, seed=2)
    report = poisoning_eval(g, split, [1, 5], runs=3, base_seed=11)
    assert len(report.targets) == 2
    for t in report.targets:
        assert 0.0 <= t.correct_fraction <= 1.0
        assert -1.0 <= t.margin <= 1.0
    assert report.fraction_correct == pytest.approx(
        np.mean([t.correct_fraction for t in report.targets]))


@pytest.mark.parametrize("target", [20, -1])  # one past the end; not from the end
def test_evasion_eval_rejects_out_of_range_target(target):
    g = random_graph(20, 0.2, seed=6)
    model = train_gcn(g, make_split(g, seed=1), seed=4)
    with pytest.raises(GraphError, match="out of range"):
        evasion_eval(model, g, [0, target])


@pytest.mark.parametrize("target", [20, -1])
def test_poisoning_eval_rejects_out_of_range_target(target):
    g = random_graph(20, 0.25, seed=7)
    with pytest.raises(GraphError, match="out of range"):
        poisoning_eval(g, make_split(g, seed=2), [1, target], runs=1)


def test_eval_rejects_unlabeled_target():
    # A margin needs the target's ground-truth class.
    g = random_graph(20, 0.25, seed=7)
    split = make_split(g, seed=2)
    model = train_gcn(g, split, seed=4)
    g.labels[split.unlabeled_ids[0]] = 0
    for evaluate in (lambda t: evasion_eval(model, g, t),
                     lambda t: poisoning_eval(g, split, t, runs=1)):
        with pytest.raises(GraphError, match="no ground-truth label"):
            evaluate([int(split.unlabeled_ids[1]), int(split.unlabeled_ids[0])])


@pytest.mark.parametrize("train", ["train_surrogate", "train_gcn", "poisoning_eval"])
@pytest.mark.parametrize("case", ["out-of-range", "overlap", "empty-train"])
def test_training_rejects_bad_split(train, case):
    g = planted_partition(n_nodes=60, n_classes=3, n_features=18, markers_per_class=5,
                          seed=4)
    split = make_split(g, seed=1)
    val = {"out-of-range": [999], "overlap": split.train_ids[:2]}.get(case, [])
    bad = DataSplit(train_ids=split.train_ids[:0] if case == "empty-train" else split.train_ids,
                    validation_ids=np.r_[split.validation_ids, val].astype(np.int64),
                    unlabeled_ids=split.unlabeled_ids, rng_seed=1)
    run = {"train_surrogate": lambda: train_surrogate(g, NormalizedAdjacency.build(g), bad),
           "train_gcn": lambda: train_gcn(g, bad, seed=0),
           "poisoning_eval": lambda: poisoning_eval(g, bad, [int(split.unlabeled_ids[0])],
                                                    runs=1)}[train]
    error, needle = {"out-of-range": (BundleError, "999"), "overlap": (BundleError, "disjoint"),
                     "empty-train": (TrainingError, "^empty training set$")}[case]
    with pytest.raises(error, match=needle):
        run()


def test_poisoning_eval_rejects_zero_runs():
    g = random_graph(20, 0.25, seed=7)
    with pytest.raises(ValueError, match="runs"):
        poisoning_eval(g, make_split(g, seed=2), [1], runs=0)


@pytest.mark.parametrize("runs", [2.5, "3", True])
def test_poisoning_eval_rejects_runs_that_are_not_integers(runs):
    g = random_graph(20, 0.25, seed=7)
    with pytest.raises(ValueError, match=f"^runs must be an integer of at least 1, got {runs!r}$"):
        poisoning_eval(g, make_split(g, seed=2), [1], runs=runs)


def test_margin_helper_on_model():
    # Evasion reads only the target rows; its margins must equal those of
    # the full-graph pass bit for bit, on the clean graph and on graphs
    # that Nettack attacked, whether targets are read together or alone.
    g = random_graph(12, 0.3, seed=8)
    split = make_split(g, seed=1)
    model = train_gcn(g, split, seed=3)
    na = NormalizedAdjacency.build(g)
    surrogate = train_surrogate(g, na, split)
    graphs = [g] + [apply_result(g, run_nettack(g, surrogate, AttackConfig(
        target=v0, budget=3, constrained=False), na)) for v0 in (4, 7, 10)]
    for h in graphs:
        probs = gcn_forward(model, normalized_adjacency_matrix(h), h.feature_matrix())
        want = []
        for v, p in enumerate(probs):
            c = int(h.labels[v] - 1)
            want.append(float(p[c] - max(x for k, x in enumerate(p) if k != c)))
        together = evasion_eval(model, h, list(range(h.n_nodes))).targets
        assert [t.margin for t in together] == want
        assert [evasion_eval(model, h, [v]).targets[0].margin for v in (4, 7, 10)] \
            == [want[4], want[7], want[10]]
    assert any(h != g for h in graphs[1:])


def test_report_serialization():
    rep = MarginReport(targets=[TargetMargin(node=3, margin=0.4, correct_fraction=1.0)])
    d = rep.to_dict()
    assert d["fraction_correct"] == 1.0
    assert d["targets"][0]["node"] == 3


@pytest.mark.parametrize("field, value", [
    ("hidden", 0), ("hidden", 2.5), ("max_epochs", 0), ("patience", 0),
    ("learning_rate", 0.0), ("learning_rate", float("inf")), ("learning_rate", "fast"),
    ("hidden", True), ("max_epochs", True), ("patience", True), ("learning_rate", True),
])
def test_config_rejects_settings_that_cannot_train(field, value):
    with pytest.raises(ValueError, match=f"GcnConfig.{field} must be"):
        GcnConfig(**{field: value})


def sequential_fit(g, split, seed, cfg):
    """One model at a time, layer 1 and its backward pass over all N rows and
    layer 2 at the rows each pass reads: the training loop `_fit` batches."""
    rng = np.random.default_rng(seed)
    w1, w2 = (rng.uniform(-np.sqrt(6.0 / (a + b)), np.sqrt(6.0 / (a + b)), size=(a, b))
              for a, b in ((g.n_features, cfg.hidden), (cfg.hidden, g.n_classes)))
    ahat, x = normalized_adjacency_matrix(g), g.feature_matrix()
    y = g.labels - 1
    train, val = split.train_ids, split.validation_ids

    def forward(w1, w2, rows):
        h_pre = ahat @ (x @ w1)
        m2 = (ahat @ np.maximum(h_pre, 0.0))[rows]
        return h_pre, m2, softmax(m2 @ w2)

    def mean_loss(probs, idx):
        return float(-np.mean(np.log(probs[np.arange(len(idx)), y[idx]] + 1e-12)))

    m_w1, v_w1, m_w2, v_w2 = (np.zeros_like(w) for w in (w1, w1, w2, w2))
    best, best_val, stale, epoch = (w1.copy(), w2.copy()), np.inf, 0, 0
    for epoch in range(1, cfg.max_epochs + 1):
        h_pre, m2, probs = forward(w1, w2, train)
        loss = mean_loss(probs, train)
        grad_logits = probs.copy()
        grad_logits[np.arange(len(train)), y[train]] -= 1.0
        grad_logits /= len(train)
        g2 = m2.T @ grad_logits
        grad_h = ahat[train].T @ (grad_logits @ w2.T)
        g1 = x.T @ (ahat.T @ (grad_h * (h_pre > 0.0)))
        m_w1 = 0.9 * m_w1 + (1 - 0.9) * g1
        v_w1 = 0.999 * v_w1 + (1 - 0.999) * g1 * g1
        m_w2 = 0.9 * m_w2 + (1 - 0.9) * g2
        v_w2 = 0.999 * v_w2 + (1 - 0.999) * g2 * g2
        c1, c2 = 1 - 0.9 ** epoch, 1 - 0.999 ** epoch
        w1 = w1 - cfg.learning_rate * (m_w1 / c1) / (np.sqrt(v_w1 / c2) + 1e-8)
        w2 = w2 - cfg.learning_rate * (m_w2 / c1) / (np.sqrt(v_w2 / c2) + 1e-8)
        val_loss = mean_loss(forward(w1, w2, val)[2], val) if len(val) else loss
        if val_loss < best_val - 1e-12:
            best_val, best, stale = val_loss, (w1.copy(), w2.copy()), 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return best[0], best[1], epoch


def ten_train_rows():
    # 10 training and 10 validation rows of 3 classes: row counts for which
    # a BLAS kernel rounds the class scores of a row subset differently, and
    # long enough for a 2-D mean to sum in another order than a 1-D one.
    g, _ = extract_lcc(planted_partition(n_nodes=100, n_classes=3, n_features=24,
                                         markers_per_class=6, seed=3))
    return g, make_split(g, seed=3)


def no_validation(split):
    return DataSplit(train_ids=split.train_ids, validation_ids=np.array([], dtype=np.int64),
                     unlabeled_ids=split.unlabeled_ids, rng_seed=split.rng_seed)


@pytest.mark.parametrize("case", ["staggered-stops", "no-validation"])
def test_batched_fit_bit_identical_to_sequential(case):
    g, split = ten_train_rows()
    cfg, seeds = {
        "staggered-stops": (GcnConfig(patience=3, max_epochs=80), [5, 6, 7, 8]),
        "no-validation": (GcnConfig(learning_rate=0.05, patience=5, max_epochs=60), [4, 9]),
    }[case]
    if case == "no-validation":
        split = no_validation(split)
    ahat = normalized_adjacency_matrix(g)
    # The loss gradient reaches fewer hidden rows than the pass computes, so
    # the backward products read a strict subset of them.
    near = set(ahat[split.train_ids].indices.tolist())
    nb = set(ahat[np.r_[split.train_ids, split.validation_ids]].indices.tolist())
    assert (near < nb) == (case != "no-validation")
    models = _fit(g, split, seeds, cfg, ahat, g.feature_matrix())
    for seed, model in zip(seeds, models):
        w1, w2, epochs = sequential_fit(g, split, seed, cfg)
        assert np.array_equal(model.w1, w1) and np.array_equal(model.w2, w2), seed
        assert model.epochs_run == epochs
    if case == "staggered-stops":
        assert len({m.epochs_run for m in models}) > 1  # replicas left the stack apart


def test_poisoning_eval_reads_margins_of_sequential_models():
    g, split = ten_train_rows()
    cfg = GcnConfig(patience=3, max_epochs=80)
    targets = [7, 2, 7, 30]
    report = poisoning_eval(g, split, targets, runs=3, base_seed=5, config=cfg)
    ahat, x = normalized_adjacency_matrix(g), g.feature_matrix()
    margins = []
    for seed in (5, 6, 7):
        w1, w2, _ = sequential_fit(g, split, seed, cfg)
        probs = gcn_forward(GcnModel(w1=w1, w2=w2), ahat, x)
        margins.append([margin(probs[v], int(g.labels[v] - 1)) for v in targets])
    margins = np.array(margins)
    assert [t.node for t in report.targets] == targets
    for j, t in enumerate(report.targets):
        assert t.margin == float(margins[:, j].mean())
        assert t.correct_fraction == float(np.mean(margins[:, j] > 0))
