import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from nettack.attack import (AttackConfig, INFLUENCER, _Run, candidate_edges,
                            resolve_attackers, run_nettack)
from nettack.data import make_split
from nettack.graph import AttributedGraph
from nettack.surrogate import (MAX_EPOCHS, PATIENCE, STEP, NormalizedAdjacency,
                               SurrogateModel, TrainingError, edge_flip_grid,
                               edge_flip_logits,
                               margin, softmax, surrogate_logits,
                               train_surrogate, updated_square_row_from)
from helpers import dense_normalized, dense_square, random_graph


def square_rows(na, n_nodes):
    return np.vstack([na.square_row(u) for u in range(n_nodes)])


def row_after(na, g, m, n, v):
    return updated_square_row_from(na.square_row(v), g, m, n, v)


def test_normalized_single_isolated_node():
    g = AttributedGraph(1, 0)
    na = NormalizedAdjacency.build(g)
    assert np.allclose(na.ahat.toarray(), [[1.0]])
    assert np.allclose(square_rows(na, 1), [[1.0]])


def test_normalized_single_edge():
    g = AttributedGraph.from_edges(2, 0, [(0, 1)])
    na = NormalizedAdjacency.build(g)
    assert np.allclose(na.ahat.toarray(), [[0.5, 0.5], [0.5, 0.5]])


def test_square_matches_dense_oracle():
    g = random_graph(15, 0.3, seed=2)
    na = NormalizedAdjacency.build(g)
    assert np.abs(square_rows(na, 15) - dense_square(g)).max() < 1e-10


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
        row = updated_square_row_from(row, g, 2, 9, 4)
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
    assert np.abs(na.ahat.toarray() - dense_normalized(g)).max() < 1e-10
    assert np.abs(square_rows(na, 25) - dense_square(g)).max() < 1e-10


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
        row = updated_square_row_from(row, g, m, n, v0)
        g.flip_edge_inplace(m, n)
        if step % 20 == 0:
            cvals = g.feature_matrix().toarray() @ w
            pruned = -margin(row @ cvals, 0)
            exact = -margin(dense_square(g)[v0] @ cvals, 0)
            worst = max(worst, abs(pruned - exact))
    assert worst < 1e-8


def batched_and_loop_losses(g, w, v0, pairs, c_old=0):
    """Loss of every flip from the batched pass and from a row-update loop.

    Both apply the same flip weights, so the batched pass is also held to
    an independent oracle: Â² rebuilt densely on each flipped graph.
    """
    na = NormalizedAdjacency.build(g)
    row, cvals = na.square_row(v0), g.feature_matrix() @ w
    pairs = np.asarray(pairs)
    a_mn = np.array([n in g.neighbors(m) for m, n in pairs.tolist()])
    got = -margin(edge_flip_logits(row, g, cvals, v0, pairs, a_mn).T, c_old)
    want = [-margin(updated_square_row_from(row, g, m, n, v0) @ cvals,
                    c_old) for m, n in pairs.tolist()]
    dense = [-margin(dense_square(g.flip_edge(m, n))[v0] @ cvals, c_old)
             for m, n in pairs.tolist()]
    assert np.abs(got - dense).max() < 1e-10
    return got, np.array(want), a_mn


def flips_of(attacker, n_nodes, skip=()):
    return [(min(attacker, x), max(attacker, x)) for x in range(n_nodes)
            if x != attacker and x not in skip]


def test_edge_flip_losses_match_row_update_direct():
    g = random_graph(40, 0.12, seed=21, n_features=10)
    w = np.random.default_rng(21).normal(size=(10, 3))
    v0 = int(np.argmax(g.degrees))
    got, want, a_mn = batched_and_loop_losses(g, w, v0, flips_of(v0, 40))
    assert a_mn.any() and not a_mn.all()  # removals and insertions
    assert np.abs(got - want).max() < 1e-12


def test_edge_flip_losses_match_row_update_degree_one_target():
    # Includes the removal of the target's only edge, which leaves its
    # row as the unit vector (the attack excludes that flip; the pass
    # must still score it right).
    g = random_graph(30, 0.1, seed=4, n_features=6)
    for x in g.neighbors(0).tolist() + [1]:
        g.flip_edge_inplace(0, x)
    assert g.neighbors(0).tolist() == [1]
    w = np.random.default_rng(4).normal(size=(6, 3))
    got, want, _ = batched_and_loop_losses(g, w, 0, flips_of(0, 30), c_old=2)
    assert np.abs(got - want).max() < 1e-12


def test_edge_flip_losses_match_row_update_influencers():
    # Attackers adjacent and not adjacent to the target; no flip touches it.
    g = random_graph(40, 0.1, seed=5, n_features=8)
    w = np.random.default_rng(5).normal(size=(8, 3))
    v0 = int(np.argmax(g.degrees))
    near = int(g.neighbors(v0)[0])
    far = next(x for x in range(40) if x != v0 and x not in g.neighbors(v0))
    pairs = sorted(set(flips_of(near, 40, skip=(v0,)) + flips_of(far, 40, skip=(v0,))))
    got, want, a_mn = batched_and_loop_losses(g, w, v0, pairs, c_old=1)
    assert a_mn.any()
    assert np.abs(got - want).max() < 1e-12


def grid_against_pairs(g, w, cfg, attackers, row=None):
    """The grid's logits at its valid cells, `edge_flip_logits` on the same
    pairs, the pairs, and whether each cell is a far insertion (u not an
    endpoint, x no neighbour of u)."""
    v0 = cfg.target
    cands = candidate_edges(g, cfg, attackers)
    row = NormalizedAdjacency.build(g).square_row(v0) if row is None else row
    cvals = g.feat @ w
    idx = np.flatnonzero(cands.valid)
    pairs, a_mn = cands.pairs[idx], cands.is_edge.ravel()[idx]
    grid = edge_flip_grid(row, g, cvals, v0, cands.attackers, cands.pairs, cands.is_edge)
    want = edge_flip_logits(row, g, cvals, v0, pairs, a_mn)
    x = idx % g.n_nodes
    att = cands.attackers[idx // g.n_nodes]
    far = (att != v0) & ~a_mn & (x != v0) & ~np.isin(x, g.neighbors(v0))
    return grid.reshape(len(grid), -1)[:, idx], want, pairs, far


def test_edge_flip_grid_matches_pairs_across_two_hop_moves():
    # Target 0 has two neighbours, so the five attackers are topped up from
    # its two-hop ring; some attackers are adjacent. Each committed flip
    # moves a node into or out of the target's two hops.
    g = random_graph(40, 0.0, seed=9, n_features=8)
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 4)]
    edges += [(k, k + 1) for k in range(5, 39)]
    for m, n in edges:
        g.flip_edge_inplace(m, n)
    w = np.random.default_rng(9).normal(size=(8, 3))
    cfg = AttackConfig(target=0, budget=1, mode=INFLUENCER, n_influencers=5)
    attackers = resolve_attackers(g, cfg)
    assert attackers == (1, 2, 3, 4, 5) and 4 in g.neighbors(3)
    row = NormalizedAdjacency.build(g).square_row(0)
    for flip in (None, (1, 20), (2, 5), (3, 30), (1, 20)):  # 20 in, 5 out, 30 stays out, 20 out
        if flip is not None:
            row = updated_square_row_from(row, g, *flip, 0)
            g.flip_edge_inplace(*flip)
        got, want, pairs, far = grid_against_pairs(g, w, cfg, attackers, row)
        assert np.abs(got - want).max() < 1e-12
        assert far.any() and not far.all()
        assert (3, 4) in map(tuple, pairs.tolist())  # a pair of two attackers
    assert 20 not in g.neighbors(1) and 5 not in g.neighbors(2)


@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_edge_flip_grid_matches_pairs_influencer(seed, n_attackers, drawn):
    # Attackers as the attack picks them, or any nodes but the target (so
    # an attacker may lie outside the target's two hops).
    rng = np.random.default_rng(seed)
    n = int(rng.integers(7, 40))
    g = random_graph(n, float(rng.uniform(0.05, 0.4)), seed=seed % 997, n_features=5)
    w = rng.normal(size=(5, 3))
    v0 = int(rng.integers(n))
    cfg = AttackConfig(target=v0, budget=1, mode=INFLUENCER, n_influencers=n_attackers,
                       seed=seed)
    if drawn:
        attackers = tuple(sorted(rng.choice(np.setdiff1d(np.arange(n), [v0]), n_attackers,
                                            replace=False).tolist()))
    elif g.degree(v0):
        attackers = resolve_attackers(g, cfg)
    else:
        return
    got, want, _, _ = grid_against_pairs(g, w, cfg, attackers)
    assert np.abs(got - want).max() < 1e-12


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_edge_flip_grid_direct_is_the_pair_pass(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    g = random_graph(n, float(rng.uniform(0.05, 0.4)), seed=seed % 997, n_features=5)
    w = rng.normal(size=(5, 3))
    v0 = int(rng.integers(n))
    got, want, _, far = grid_against_pairs(g, w, AttackConfig(target=v0, budget=1), (v0,))
    assert not far.any() and np.array_equal(got, want)


@given(st.integers(0, 10 ** 6))
def test_edge_flip_losses_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    g = random_graph(n, float(rng.uniform(0.05, 0.5)), seed=seed % 997, n_features=5)
    w = rng.normal(size=(5, 3))
    v0, attacker = (int(k) for k in rng.integers(n, size=2))
    skip = () if attacker == v0 else (v0,)  # direct or influencer mode
    pairs = flips_of(attacker, n, skip)
    if not pairs:
        return
    got, want, _ = batched_and_loop_losses(g, w, v0, pairs, c_old=int(rng.integers(3)))
    assert np.abs(got - want).max() < 1e-12


def fixed_step_fit(g, split):
    """The fixed-step loop on W itself, over a dense S X: (best W, epochs)."""
    sx = dense_square(g) @ g.feature_matrix().toarray()
    y = g.labels - 1
    train, val = split.train_ids, split.validation_ids

    def loss(ids, probs):
        return -np.mean(np.log(probs[np.arange(len(ids)), y[ids]] + 1e-12))

    w = np.zeros((g.n_features, g.n_classes))
    best_w, best_val, stale = w, np.inf, 0
    for epoch in range(1, MAX_EPOCHS + 1):
        probs = softmax(sx[train] @ w)
        train_loss = loss(train, probs)
        probs[np.arange(len(train)), y[train]] -= 1.0
        w = w - STEP * (sx[train].T @ probs) / len(train)
        val_loss = loss(val, softmax(sx[val] @ w)) if len(val) else train_loss
        if val_loss < best_val - 1e-12:
            best_w, best_val, stale = w, val_loss, 0
        else:
            stale += 1
            if stale >= PATIENCE:
                break
    return best_w, epoch


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("validation", [True, False])
def test_training_matches_fixed_step_loop(seed, validation):
    g = random_graph(80, 0.06, seed=seed, n_features=12, p_feat=0.25, n_classes=4)
    split = make_split(g, seed=seed)
    if not validation:
        split.validation_ids = np.array([], dtype=np.int64)
    model = train_surrogate(g, NormalizedAdjacency.build(g), split)
    want, epochs = fixed_step_fit(g, split)
    assert model.epochs_run == epochs
    assert np.abs(model.weights - want).max() <= 1e-12 * np.abs(want).max()


def test_surrogate_logits_match_dense_oracle():
    g = random_graph(40, 0.1, seed=3, n_features=10, n_classes=3)
    na = NormalizedAdjacency.build(g)
    model = train_surrogate(g, na, make_split(g, seed=3))
    want = dense_square(g) @ g.feature_matrix().toarray() @ model.weights
    assert np.abs(surrogate_logits(na, g, model) - want).max() <= 1e-12 * np.abs(want).max()


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
    # An exact tie is a loss of +0.0, never -0.0, so it is written as 0.0:
    # by the margin rule's negation and in an attack's loss trace (zero
    # weights make every logit equal).
    g = random_graph(10, 0.3, seed=13)
    result = run_nettack(g, SurrogateModel(weights=np.zeros((8, 3)), n_classes=3),
                         AttackConfig(target=0, budget=2, constrained=False),
                         NormalizedAdjacency.build(g))
    for loss in [0.0 - margin(np.array([2.0, 2.0, 2.0]), 1),
                 result.initial_loss, *result.loss_trace]:
        assert loss == 0.0 and math.copysign(1.0, loss) == 1.0


def test_loss_direct_formula():
    assert -margin(np.array([3.0, 1.0, 0.0]), 0) == pytest.approx(-2.0)


def test_loss_needs_two_classes():
    with pytest.raises(ValueError):
        margin(np.array([1.0]), 0)


def first_best_other_margin(scores, ref):
    """Own score minus the other classes' first maximum, by argmax."""
    ref = np.broadcast_to(ref, scores.shape[:-1])[..., None]
    others = np.where(np.arange(scores.shape[-1]) == ref, -np.inf, scores)
    best = others.argmax(axis=-1)[..., None]
    return (np.take_along_axis(scores, ref, -1) - np.take_along_axis(others, best, -1))[..., 0]


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 7), st.integers(0, 2), st.booleans())
@settings(max_examples=200, deadline=None)
def test_margin_is_own_minus_first_best_other(seed, k, lead, one_ref):
    # Values from a few levels, so that exact ties are common, plus noise.
    # Signed zeros are left out: a max may return either zero of a +-0 tie,
    # and the loss 0.0 - margin is +0.0 either way.
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 5, size=lead)) + (k,)
    levels = rng.normal(size=3)
    scores = np.where(rng.random(shape) < 0.6, rng.choice(levels, size=shape),
                      rng.normal(size=shape)) + 0.0
    ref = int(rng.integers(k)) if one_ref else rng.integers(k, size=shape[:-1])
    want = first_best_other_margin(scores, ref)
    class_major = np.ascontiguousarray(np.moveaxis(scores, -1, 0))
    for view in (scores, np.moveaxis(class_major, 0, -1)):
        got = np.asarray(margin(view, ref))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_loss_sign_iff_argmax_moved():
    rng = np.random.default_rng(12)
    g = random_graph(12, 0.3, seed=12, n_features=6, n_classes=4)
    na = NormalizedAdjacency.build(g)
    for _ in range(500):
        w = rng.normal(size=(6, 4))
        model = SurrogateModel(weights=w, n_classes=4)
        v0 = int(rng.integers(12))
        c_old = int(rng.integers(4))
        loss = -margin(na.square_row(v0) @ (g.feature_matrix() @ w), c_old)
        pred = int(np.argmax(surrogate_logits(na, g, model)[v0]))
        if loss > 0:
            assert pred != c_old
        elif loss < 0:
            assert pred == c_old


def test_reference_class_prefers_label():
    g = random_graph(10, 0.3, seed=13)
    na = NormalizedAdjacency.build(g)
    model = SurrogateModel(weights=np.zeros((8, 3)), n_classes=3)
    assert _Run(g, model, AttackConfig(target=0, budget=1), na).c_old == int(g.labels[0] - 1)
    g.labels[0] = 0
    # Unlabeled: the clean-graph prediction, argmax 0 of the zero logits.
    assert _Run(g, model, AttackConfig(target=0, budget=1), na).c_old == 0
    model = SurrogateModel(weights=np.random.default_rng(0).normal(size=(8, 3)), n_classes=3)
    want = int(np.argmax(surrogate_logits(na, g, model)[0]))
    assert _Run(g, model, AttackConfig(target=0, budget=1), na).c_old == want


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
