import numpy as np
import pytest

from nettack.data import make_split
from nettack.gcn import (GcnConfig, MarginReport, TargetMargin,
                         evasion_eval, gcn_forward, gcn_loss_and_grads,
                         margin_from_probs, poisoning_eval, train_gcn)
from nettack.graph import AttributedGraph, GraphError
from nettack.surrogate import normalized_adjacency_matrix
from helpers import random_graph


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
    _, g1, g2 = gcn_loss_and_grads(w1, w2, ahat, x, y, idx, weight_decay=0.01)
    eps = 1e-6
    for w, gw in ((w1, g1), (w2, g2)):
        for a in range(w.shape[0]):
            for b in range(w.shape[1]):
                w[a, b] += eps
                lp, _, _ = gcn_loss_and_grads(w1, w2, ahat, x, y, idx, weight_decay=0.01)
                w[a, b] -= 2 * eps
                lm, _, _ = gcn_loss_and_grads(w1, w2, ahat, x, y, idx, weight_decay=0.01)
                w[a, b] += eps
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - gw[a, b]) / max(1e-8, abs(fd), abs(gw[a, b])) < 1e-5


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
    assert margin_from_probs(np.array([0.25, 0.25, 0.25, 0.25]), 2) == 0.0


def test_margin_one_hot():
    assert margin_from_probs(np.array([1.0, 0.0, 0.0]), 0) == pytest.approx(1.0)
    assert margin_from_probs(np.array([1.0, 0.0, 0.0]), 1) == pytest.approx(-1.0)


def test_margin_sign_agrees_with_argmax():
    g = random_graph(25, 0.15, seed=5)
    model = train_gcn(g, make_split(g, seed=3), seed=1)
    probs = gcn_forward(model, normalized_adjacency_matrix(g), g.feature_matrix())
    for u in range(g.n_nodes):
        c_old = int(g.labels[u] - 1)
        m = margin_from_probs(probs[u], c_old)
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


def test_poisoning_eval_rejects_zero_runs():
    g = random_graph(20, 0.25, seed=7)
    with pytest.raises(ValueError, match="runs"):
        poisoning_eval(g, make_split(g, seed=2), [1], runs=0)


def test_margin_helper_on_model():
    g = random_graph(12, 0.3, seed=8)
    model = train_gcn(g, make_split(g, seed=1), seed=3)
    v0 = 4
    c_old = int(g.labels[v0] - 1)
    probs = gcn_forward(model, normalized_adjacency_matrix(g), g.feature_matrix())
    assert evasion_eval(model, g, [v0]).targets[0].margin == pytest.approx(
        margin_from_probs(probs[v0], c_old))


def test_weight_decay_and_dropout_flags_run():
    g = random_graph(15, 0.25, seed=9)
    split = make_split(g, seed=1)
    cfg = GcnConfig(weight_decay=5e-4, dropout=0.2, max_epochs=30)
    model = train_gcn(g, split, seed=2, config=cfg)
    assert np.all(np.isfinite(model.w1)) and np.all(np.isfinite(model.w2))


def test_report_serialization():
    rep = MarginReport(targets=[TargetMargin(node=3, margin=0.4, correct_fraction=1.0)])
    d = rep.to_dict()
    assert d["fraction_correct"] == 1.0
    assert d["targets"][0]["node"] == 3
