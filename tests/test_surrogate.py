import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from nettack.data import make_split
from nettack.graph import AttributedGraph
from nettack.surrogate import (NormalizedAdjacency, SurrogateModel, TrainingError,
                               infer_old_class, loss_from_logits, softmax,
                               surrogate_logits, surrogate_loss, train_surrogate,
                               updated_square_row_from)
from helpers import dense_normalized, dense_square, random_graph


def row_after(na, g, m, n, v):
    return updated_square_row_from(na.square_row(v), na.dtilde, g, m, n, v)


def test_normalized_single_isolated_node():
    g = AttributedGraph(1, 0)
    na = NormalizedAdjacency.build(g)
    assert np.allclose(na.ahat.toarray(), [[1.0]])
    assert np.allclose(na.ahat2.toarray(), [[1.0]])


def test_normalized_single_edge():
    g = AttributedGraph.from_edges(2, 0, [(0, 1)])
    na = NormalizedAdjacency.build(g)
    assert np.allclose(na.ahat.toarray(), [[0.5, 0.5], [0.5, 0.5]])


def test_square_matches_dense_oracle():
    g = random_graph(15, 0.3, seed=2)
    na = NormalizedAdjacency.build(g)
    assert np.abs(na.ahat2.toarray() - dense_square(g)).max() < 1e-10


def test_normalized_symmetric_spectral_radius():
    for seed in range(3):
        g = random_graph(12, 0.3, seed=seed)
        ah = dense_normalized(g)
        assert np.abs(ah - ah.T).max() < 1e-12
        assert np.abs(np.linalg.eigvalsh(ah)).max() <= 1.0 + 1e-10


def test_incremental_row_involution():
    g = random_graph(12, 0.25, seed=7)
    na = NormalizedAdjacency.build(g)
    row0 = na.square_row(4)
    row = row0
    for _ in range(2):
        row = updated_square_row_from(row, g.degrees + 1.0, g, 2, 9, 4)
        g.flip_edge_inplace(2, 9)
    assert np.abs(row - row0).max() < 1e-12


def test_incremental_row_far_entry_unchanged():
    # Two components: flipping inside one leaves the other's rows alone.
    g = AttributedGraph.from_edges(6, 0, [(0, 1), (1, 2), (3, 4)])
    na = NormalizedAdjacency.build(g)
    row_before = na.square_row(0)
    assert np.abs(row_after(na, g, 3, 5, 0) - row_before).max() < 1e-15


def test_incremental_row_matches_dense_recompute():
    rng = np.random.default_rng(0)
    g = random_graph(50, 0.15, seed=1)
    na = NormalizedAdjacency.build(g)
    for _ in range(60):
        m = int(rng.integers(50))
        n = int(rng.integers(50))
        if m == n:
            continue
        v0 = int(rng.integers(50))
        got = row_after(na, g, m, n, v0)
        want = dense_square(g.flip_edge(m, n))[v0]
        assert np.abs(got - want).max() < 1e-10


def test_apply_edge_flip_chain_matches_fresh_build():
    rng = np.random.default_rng(42)
    g = random_graph(25, 0.15, seed=3)
    na = NormalizedAdjacency.build(g)
    for _ in range(30):
        m = int(rng.integers(25))
        n = int(rng.integers(25))
        if m == n:
            continue
        na.apply_edge_flip(g, m, n)
        g.flip_edge_inplace(m, n)
    assert np.array_equal(na.dtilde, g.degrees + 1.0)
    assert np.abs(na.ahat.toarray() - dense_normalized(g)).max() < 1e-10
    assert np.abs(na.ahat2.toarray() - dense_square(g)).max() < 1e-10


def test_pruning_drift_does_not_move_scores():
    # Entries below the prune threshold are dropped after every update;
    # over a long chain of row updates for one target (as the attacks run
    # it) the retained row still reproduces the loss of an unpruned dense
    # rebuild to well below 1e-8.
    rng = np.random.default_rng(7)
    g = random_graph(40, 0.12, seed=10, n_features=10, n_classes=3)
    w = rng.normal(size=(10, 3))
    v0 = int(rng.integers(40))
    row = NormalizedAdjacency.build(g).square_row(v0)
    worst = 0.0
    for step in range(400):
        m = int(rng.integers(40))
        n = int(rng.integers(40))
        if m == n:
            continue
        row = updated_square_row_from(row, g.degrees + 1.0, g, m, n, v0)
        g.flip_edge_inplace(m, n)
        if step % 20 == 0:
            cvals = g.feature_matrix().toarray() @ w
            pruned = loss_from_logits(row @ cvals, 0)
            exact = loss_from_logits(dense_square(g)[v0] @ cvals, 0)
            worst = max(worst, abs(pruned - exact))
    assert worst < 1e-8


def test_two_cliques_trivially_separable():
    # Two 10-cliques, one marker feature each; labels follow the cliques.
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    edges += [(u, v) for u in range(10, 20) for v in range(u + 1, 20)]
    feats = [(u, 0) for u in range(10)] + [(u, 1) for u in range(10, 20)]
    labels = np.array([1] * 10 + [2] * 10)
    g = AttributedGraph.from_edges(20, 2, edges, feats, labels=labels, n_classes=2)
    split = make_split(g, seed=0)
    na = NormalizedAdjacency.build(g)
    model = train_surrogate(g, na, split)
    pred = np.argmax(surrogate_logits(na, g, model), axis=1)
    assert np.array_equal(pred, g.labels - 1)


def test_zero_features_constant_logits():
    g = random_graph(30, 0.2, seed=5, p_feat=0.0)
    split = make_split(g, seed=1)
    na = NormalizedAdjacency.build(g)
    model = train_surrogate(g, na, split)
    logits = surrogate_logits(na, g, model)
    assert np.abs(logits - logits[0]).max() < 1e-12


def test_softmax_rows_sum_to_one():
    g = random_graph(20, 0.2, seed=6)
    na = NormalizedAdjacency.build(g)
    model = train_surrogate(g, na, make_split(g, seed=2))
    probs = softmax(surrogate_logits(na, g, model))
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_training_deterministic():
    g = random_graph(30, 0.15, seed=8)
    split = make_split(g, seed=3)
    na = NormalizedAdjacency.build(g)
    w1 = train_surrogate(g, na, split).weights
    w2 = train_surrogate(g, na, split).weights
    assert np.array_equal(w1, w2)


def test_training_requires_train_nodes():
    g = random_graph(20, 0.2, seed=9)
    split = make_split(g, seed=1)
    split.train_ids = np.array([], dtype=np.int64)
    with pytest.raises(TrainingError):
        train_surrogate(g, NormalizedAdjacency.build(g), split)


def test_loss_all_equal_logits_zero():
    assert loss_from_logits(np.array([2.0, 2.0, 2.0]), 1) == 0.0


def test_loss_direct_formula():
    assert loss_from_logits(np.array([3.0, 1.0, 0.0]), 0) == pytest.approx(-2.0)


def test_loss_needs_two_classes():
    with pytest.raises(ValueError):
        loss_from_logits(np.array([1.0]), 0)


def test_loss_sign_iff_argmax_moved():
    rng = np.random.default_rng(12)
    g = random_graph(12, 0.3, seed=12, n_features=6, n_classes=4)
    na = NormalizedAdjacency.build(g)
    for _ in range(500):
        w = rng.normal(size=(6, 4))
        model = SurrogateModel(weights=w, n_classes=4)
        v0 = int(rng.integers(12))
        c_old = int(rng.integers(4))
        loss = surrogate_loss(na, g, model, v0, c_old)
        pred = int(np.argmax(surrogate_logits(na, g, model)[v0]))
        if loss > 0:
            assert pred != c_old
        elif loss < 0:
            assert pred == c_old


def test_infer_old_class_prefers_label():
    g = random_graph(10, 0.3, seed=13)
    na = NormalizedAdjacency.build(g)
    model = SurrogateModel(weights=np.zeros((8, 3)), n_classes=3)
    assert infer_old_class(na, g, model, 0) == int(g.labels[0] - 1)
    g.labels[0] = 0
    assert infer_old_class(na, g, model, 0) == 0  # zero logits, argmax 0


def test_model_json_round_trip():
    w = np.arange(12, dtype=np.float64).reshape(4, 3) / 7.0
    m = SurrogateModel(weights=w, n_classes=3, epochs_run=17)
    m2 = SurrogateModel.from_dict(m.to_dict())
    assert np.array_equal(m.weights, m2.weights)
    assert m2.n_classes == 3 and m2.epochs_run == 17


@given(st.integers(0, 10 ** 6))
def test_incremental_row_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    g = random_graph(n, 0.3, seed=seed % 997)
    m = int(rng.integers(n))
    nn = int(rng.integers(n))
    if m == nn:
        return
    v0 = int(rng.integers(n))
    na = NormalizedAdjacency.build(g)
    got = row_after(na, g, m, nn, v0)
    want = dense_square(g.flip_edge(m, nn))[v0]
    assert np.abs(got - want).max() < 1e-10
