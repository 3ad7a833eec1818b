import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from nettack import attack
from nettack.attack import (AttackConfig, AttackResult, DIRECT, INFLUENCER,
                            apply_result, candidate_edges, candidate_features,
                            fgsm_baseline, replay_constraints, resolve_attackers,
                            rnd_baseline, run_nettack, score_features)
from nettack.constraints import (DegreeTestState, build_cooccurrence,
                                 feature_addition_allowed, lambda_statistic)
from nettack.data import make_split
from nettack.graph import AttributedGraph, EDGE, FEATURE, GraphError, Perturbation
from nettack.surrogate import (NormalizedAdjacency, SurrogateModel,
                               infer_old_class, margin, normalized_adjacency_matrix,
                               surrogate_logits, train_surrogate,
                               updated_square_row_from)
from helpers import random_graph, surrogate_loss_scratch


def edge_score(g, na, model, v0, c_old, m, n):
    """Loss after flipping (m, n), scored the way the greedy loop does."""
    row = updated_square_row_from(na.square_row(v0), na.dtilde, g, m, n, v0)
    return float(-margin(row @ (g.feature_matrix() @ model.weights), c_old)[0])


def pair_set(cands):
    return set(map(tuple, cands.pairs.tolist()))


def feature_mask(g, u):
    present = np.zeros(g.n_features, dtype=bool)
    present[sorted(g.features_of(u))] = True
    return present


def trained_instance(n=30, p=0.15, seed=1, n_features=8, n_classes=3):
    g = random_graph(n, p, seed=seed, n_features=n_features, n_classes=n_classes)
    na = NormalizedAdjacency.build(g)
    split = make_split(g, seed=seed)
    model = train_surrogate(g, na, split)
    return g, na, model


# -- candidate sets --------------------------------------------------------


def test_candidate_edges_unconstrained_direct_all_pairs():
    g = random_graph(12, 0.3, seed=2)
    v0 = max(range(12), key=g.degree)  # degree >= 2, so no isolation guard
    cfg = AttackConfig(target=v0, budget=1, constrained=False)
    cands = candidate_edges(g, cfg, None)
    assert len(cands) == g.n_nodes - 1
    assert all(v0 in pair for pair in pair_set(cands))


def test_candidate_edges_isolation_guard():
    g = AttributedGraph.from_edges(12, 0, [(0, 1)] + [(i, i + 1) for i in range(1, 11)])
    cfg = AttackConfig(target=0, budget=1, constrained=False)
    cands = candidate_edges(g, cfg, None)
    assert (0, 1) not in pair_set(cands)  # only edge of the target: removing isolates it
    assert len(cands) == g.n_nodes - 2


def test_candidate_edges_lambda_gate_excludes():
    g = random_graph(40, 0.08, seed=5)
    cfg = AttackConfig(target=0, budget=1, constrained=True, tau=1e-6)
    state = DegreeTestState.from_graph(g, d_min=2, tau=1e-6)
    gated = pair_set(candidate_edges(g, cfg, state))
    ungated = pair_set(candidate_edges(g, cfg, None))
    dropped = ungated - gated
    assert dropped  # a tiny threshold must exclude something
    for (m, n) in dropped:
        lam = lambda_statistic(g.degrees, g.flip_edge(m, n).degrees, 2)
        assert lam >= 1e-6


def test_candidate_edges_match_scratch_filter():
    # Direct mode, and influencer mode with two adjacent attackers (their
    # shared pair must appear once): the gate runs once per distinct
    # degree triple, the scratch filter once per pair.
    g = random_graph(100, 0.05, seed=7)
    v0 = max(range(100), key=g.degree)
    state = DegreeTestState.from_graph(g, d_min=2, tau=0.004)
    nbrs = g.neighbors(v0).tolist()
    a, b = next((a, b) for a in nbrs for b in nbrs if a < b and g.has_edge(a, b))
    for cfg, attackers in ((AttackConfig(target=v0, budget=1), None),
                           (AttackConfig(target=v0, budget=1, mode=INFLUENCER),
                            (a, b, nbrs[0]))):
        cands = candidate_edges(g, cfg, state, attackers)
        want = set()
        for att in attackers or resolve_attackers(g, cfg):
            for x in range(100):
                if x == att:
                    continue
                pair = (min(att, x), max(att, x))
                if cfg.mode == INFLUENCER and v0 in pair:
                    continue
                if g.has_edge(*pair) and v0 in pair and g.degree(v0) == 1:
                    continue
                if lambda_statistic(g.degrees, g.flip_edge(*pair).degrees, 2) < 0.004:
                    want.add(pair)
        assert cands.pairs.tolist() == [list(p) for p in sorted(want)]  # each once
        assert cands.is_edge.tolist() == [g.has_edge(*p) for p in sorted(want)]


def test_candidate_edges_influencer_excludes_target():
    g = random_graph(20, 0.3, seed=8)
    v0 = 3
    attackers = tuple(sorted(g.neighbors(v0)))[:2]
    cfg = AttackConfig(target=v0, budget=1, mode=INFLUENCER, constrained=False)
    cands = pair_set(candidate_edges(g, cfg, None, attackers))
    assert cands
    assert all(v0 not in pair for pair in cands)
    assert all(pair[0] in attackers or pair[1] in attackers for pair in cands)


def test_candidate_features_rules():
    g = random_graph(10, 0.2, seed=9, n_features=6, p_feat=0.3)
    coidx = build_cooccurrence(g)
    a = 4
    cands = candidate_features(feature_mask(g, a), coidx.allowed_additions(a))
    for i in range(6):
        if g.has_feature(a, i):
            assert cands[i]  # removal always legal
        else:
            assert cands[i] == feature_addition_allowed(coidx, a, i)


def test_candidate_features_unconstrained_full_grid():
    g = random_graph(10, 0.2, seed=10, n_features=7)
    assert candidate_features(feature_mask(g, 2), None).sum() == 7  # all of D


# -- scoring ---------------------------------------------------------------


def test_score_structure_zero_effect_flip():
    # Influencer attacker beyond two hops of the target: its flips touch
    # neither the target's squared row nor its logits.
    g = AttributedGraph.from_edges(12, 2, [(i, i + 1) for i in range(11)],
                                   [(i, i % 2) for i in range(12)],
                                   labels=np.array([1 + i % 2 for i in range(12)]),
                                   n_classes=2)
    na = NormalizedAdjacency.build(g)
    model = SurrogateModel(weights=np.array([[1.0, -1.0], [-1.0, 1.0]]), n_classes=2)
    v0, c_old = 0, 0
    cur = -margin(
        na.square_row(v0) @ (g.feature_matrix() @ model.weights), c_old)[0]
    got = edge_score(g, na, model, v0, c_old, 8, 11)
    assert got == pytest.approx(cur, abs=1e-12)


def test_score_structure_matches_rebuild_oracle():
    g, na, model = trained_instance(n=30, p=0.2, seed=3)
    v0 = 5
    c_old = infer_old_class(na, g, model, v0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        m, n = rng.integers(30, size=2)
        if m == n:
            continue
        got = edge_score(g, na, model, v0, c_old, int(m), int(n))
        want = surrogate_loss_scratch(g.flip_edge(int(m), int(n)),
                                      model.weights, v0, c_old)
        assert got == pytest.approx(want, abs=1e-9)


def test_best_structural_flip_strictly_improves():
    # Homophilous target with an opposite-class node available: some flip
    # must strictly raise the loss (checked by exhaustive scan).
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)]
    feats = [(u, 0) for u in range(3)] + [(u, 1) for u in range(3, 6)] + \
            [(u, 2) for u in range(6, 12)]
    labels = np.array([1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2])
    g = AttributedGraph.from_edges(12, 3, edges, feats, labels=labels, n_classes=2)
    na = NormalizedAdjacency.build(g)
    model = train_surrogate(g, na, make_split(g, seed=4))
    v0 = 1
    c_old = int(g.labels[v0] - 1)
    cur = -margin(
        na.square_row(v0) @ (g.feature_matrix() @ model.weights), c_old)[0]
    best = max(edge_score(g, na, model, v0, c_old, min(v0, x), max(v0, x))
               for x in range(12) if x != v0)
    assert best > cur


def test_score_features_outside_two_hop_is_current_loss():
    g = AttributedGraph.from_edges(12, 2, [(i, i + 1) for i in range(11)],
                                   [(i, i % 2) for i in range(12)],
                                   labels=np.array([1 + i % 2 for i in range(12)]),
                                   n_classes=2)
    na = NormalizedAdjacency.build(g)
    model = SurrogateModel(weights=np.array([[2.0, -2.0], [-2.0, 2.0]]), n_classes=2)
    v0, c_old = 0, 0
    row = na.square_row(v0)
    logits = row @ (g.feature_matrix() @ model.weights)
    cur = -margin(logits, c_old)[0]
    scores = score_features(row, logits, model.weights, 9, feature_mask(g, 9), c_old)
    assert scores == pytest.approx([cur, cur], abs=1e-12)


def test_score_features_match_rebuild_oracle():
    # Every feature of the target and of a neighbor: the score is the
    # loss of a full rebuild of the flipped graph.
    g, na, model = trained_instance(n=25, p=0.2, seed=6, n_features=10)
    v0 = 3
    c_old = infer_old_class(na, g, model, v0)
    row = na.square_row(v0)
    logits = surrogate_logits(na, g, model)[v0]
    for u in (v0, 4):
        scores = score_features(row, logits, model.weights, u, feature_mask(g, u), c_old)
        for i in range(10):
            exact = surrogate_loss_scratch(g.flip_feature(u, i), model.weights, v0, c_old)
            assert scores[i] == pytest.approx(exact, abs=1e-9)


def test_score_features_best_wrong_class_switch_exact():
    # Adding feature 1 at the target lifts class 2 above the best wrong
    # class 1. A gradient score against the frozen class 1 sees no change
    # (w[1, 1] == w[1, 0]); the exact score follows the switch.
    g = AttributedGraph.from_edges(2, 2, [(0, 1)], [(0, 0), (1, 0)],
                                   labels=np.array([1, 1]), n_classes=3)
    na = NormalizedAdjacency.build(g)
    w = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 5.0]])
    v0, c_old = 0, 0
    row = na.square_row(v0)
    logits = row @ (g.feature_matrix() @ w)
    assert int(np.argmax(logits[1:])) + 1 == 1  # best wrong class before
    scores = score_features(row, logits, w, v0, feature_mask(g, v0), c_old)
    exact = surrogate_loss_scratch(g.flip_feature(v0, 1), w, v0, c_old)
    assert exact == pytest.approx(0.5, abs=1e-12)  # class 2 now leads
    assert scores[1] == pytest.approx(exact, abs=1e-12)


# -- greedy loop -----------------------------------------------------------


def test_exact_tie_goes_to_smaller_pair():
    # Leaves 4 and 6 hang off featureless nodes 3 and 5 and carry the same
    # wrong-class feature, so linking the target to either gives the same
    # exact loss; the smaller pair wins, with its exact score.
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)]
    feats = [(0, 0), (1, 0), (2, 0), (4, 1), (6, 1)]
    g = AttributedGraph.from_edges(7, 2, edges, feats, n_classes=2,
                                   labels=np.array([1, 1, 1, 2, 2, 2, 2]))
    na = NormalizedAdjacency.build(g)
    model = SurrogateModel(weights=np.array([[1.0, -1.0], [-1.0, 1.0]]), n_classes=2)
    scores = {x: edge_score(g, na, model, 0, 0, 0, x) for x in range(1, 7)}
    assert scores[4] == scores[6] == max(scores.values())
    res = run_nettack(g, model, AttackConfig(target=0, budget=1, constrained=False,
                                             perturb_features=False), na=na)
    [p] = res.perturbations
    assert (p.u, p.v, p.insert) == (0, 4, True)
    assert p.score == scores[4]


def test_run_nettack_budget_semantics():
    g, na, model = trained_instance()
    v0 = 4
    res = run_nettack(g, model, AttackConfig(target=v0, budget=3), na=na)
    assert len(res.perturbations) == 3
    assert not res.starved
    assert len(res.loss_trace) == 3
    assert len(res.lambda_trace) == 3


def test_run_nettack_kind_purity():
    g, na, model = trained_instance()
    v0 = 4
    s_only = run_nettack(g, model, AttackConfig(target=v0, budget=3,
                                                perturb_features=False), na=na)
    f_only = run_nettack(g, model, AttackConfig(target=v0, budget=3,
                                                perturb_structure=False), na=na)
    assert all(p.kind == EDGE for p in s_only.perturbations)
    assert all(p.kind == FEATURE for p in f_only.perturbations)


def test_run_nettack_starvation_flag():
    # Feature-only attack on a featureless target: nothing to remove and
    # no co-occurrence-admissible addition, so the log stays empty.
    g = AttributedGraph.from_edges(12, 2, [(i, i + 1) for i in range(11)],
                                   [(5, 0), (6, 1)],
                                   labels=np.ones(12, dtype=np.int64), n_classes=2)
    na = NormalizedAdjacency.build(g)
    model = SurrogateModel(weights=np.array([[1.0, -1.0], [0.5, -0.5]]), n_classes=2)
    res = run_nettack(g, model, AttackConfig(target=0, budget=5,
                                             perturb_structure=False), na=na)
    assert res.starved
    assert res.perturbations == []


def test_run_nettack_loss_trace_monotone_progress():
    g, na, model = trained_instance(n=40, p=0.12, seed=11)
    v0 = int(np.argmax(g.degrees))
    res = run_nettack(g, model, AttackConfig(target=v0, budget=4), na=na)
    assert res.loss_trace[0] >= res.initial_loss - 1e-9
    assert all(b >= a - 1e-9 for a, b in zip(res.loss_trace, res.loss_trace[1:]))


def test_run_nettack_scores_match_realized_loss():
    g, na, model = trained_instance(n=35, p=0.12, seed=13)
    v0 = 6
    res = run_nettack(g, model, AttackConfig(target=v0, budget=4), na=na)
    for p, realized in zip(res.perturbations, res.loss_trace):
        assert p.score == pytest.approx(realized, abs=1e-9)


def test_run_nettack_constraint_soundness_replay():
    g, na, model = trained_instance(n=50, p=0.1, seed=14)
    for v0 in (0, 7, 21):
        budget = g.degree(v0) + 2
        res = run_nettack(g, model, AttackConfig(target=v0, budget=budget), na=na)
        audit = replay_constraints(g, res)
        assert audit["ok"]
        assert all(lam < 0.004 for lam in audit["lambda_trace"])


def test_run_nettack_influencer_never_touches_target():
    g, na, model = trained_instance(n=30, p=0.2, seed=15)
    v0 = 5
    cfg = AttackConfig(target=v0, budget=4, mode=INFLUENCER, seed=3)
    res = run_nettack(g, model, cfg, na=na)
    assert v0 not in res.attackers
    for p in res.perturbations:
        if p.kind == EDGE:
            assert v0 not in (p.u, p.v)
        else:
            assert p.u != v0
        assert (p.u in res.attackers) or (p.kind == EDGE and p.v in res.attackers)


def exhaustive_best_single_flip(g, model, cfg, c_old):
    """Independent oracle: from-scratch loss of every legal single flip."""
    v0 = cfg.target
    attackers = resolve_attackers(g, cfg)
    coidx = build_cooccurrence(g) if cfg.constrained else None
    best = None
    for a in attackers:
        for x in range(g.n_nodes):
            if x == a:
                continue
            pair = (min(a, x), max(a, x))
            if cfg.mode == INFLUENCER and v0 in pair:
                continue
            if g.has_edge(*pair) and v0 in pair and g.degree(v0) == 1:
                continue
            if cfg.constrained:
                lam = lambda_statistic(g.degrees, g.flip_edge(*pair).degrees,
                                       cfg.d_min)
                if lam >= cfg.tau:
                    continue
            loss = surrogate_loss_scratch(g.flip_edge(*pair), model.weights, v0, c_old)
            if best is None or loss > best:
                best = loss
        for i in range(g.n_features):
            if not g.has_feature(a, i) and cfg.constrained and \
                    not feature_addition_allowed(coidx, a, i):
                continue
            loss = surrogate_loss_scratch(g.flip_feature(a, i), model.weights, v0, c_old)
            if best is None or loss > best:
                best = loss
    return best


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("constrained", [True, False])
def test_single_step_matches_exhaustive_oracle(seed, constrained):
    g, na, model = trained_instance(n=18, p=0.2, seed=seed, n_features=6)
    v0 = int((seed * 5) % 18)
    cfg = AttackConfig(target=v0, budget=1, constrained=constrained)
    res = run_nettack(g, model, cfg, na=na)
    c_old = infer_old_class(na, g, model, v0)
    want = exhaustive_best_single_flip(g, model, cfg, c_old)
    if want is None:
        assert res.starved
    else:
        assert len(res.perturbations) == 1
        g_att = apply_result(g, res)
        got = surrogate_loss_scratch(g_att, model.weights, v0, c_old)
        assert got == pytest.approx(want, abs=1e-9)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_locality_property(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(16, 0.25, seed=seed % 993, n_features=5)
    v0 = int(rng.integers(16))
    mode = DIRECT if rng.random() < 0.5 else INFLUENCER
    if mode == INFLUENCER and g.degree(v0) == 0:
        return
    cfg = AttackConfig(target=v0, budget=int(rng.integers(1, 4)), mode=mode,
                       constrained=bool(rng.random() < 0.5), seed=seed % 101)
    res = run_nettack(g, model_for(g), cfg)
    attackers = set(res.attackers)
    assert len(res.perturbations) <= cfg.budget
    for p in res.perturbations:
        if p.kind == EDGE:
            assert p.u in attackers or p.v in attackers
        else:
            assert p.u in attackers


_model_cache = {}


def model_for(g):
    key = (g.n_nodes, g.n_features, g.n_classes)
    if key not in _model_cache:
        rng = np.random.default_rng(abs(hash(key)) % (2 ** 31))
        _model_cache[key] = SurrogateModel(
            weights=rng.normal(size=(g.n_features, g.n_classes)),
            n_classes=g.n_classes)
    return _model_cache[key]


# -- baselines ---------------------------------------------------------------


def test_rnd_all_same_class_starves():
    g = AttributedGraph.from_edges(12, 1, [(i, i + 1) for i in range(11)], [],
                                   labels=np.ones(12, dtype=np.int64), n_classes=2)
    res = rnd_baseline(g, AttackConfig(target=0, budget=3, seed=1), model=model_for(g))
    assert res.starved
    assert res.perturbations == []


def test_rnd_inserts_cross_class_edges():
    g = random_graph(25, 0.1, seed=16)
    v0 = 4
    res = rnd_baseline(g, AttackConfig(target=v0, budget=5, seed=2), model=model_for(g))
    assert len(res.perturbations) == 5
    c0 = g.labels[v0]
    for p in res.perturbations:
        assert p.kind == EDGE and p.insert
        other = p.v if p.u == v0 else p.u
        assert v0 in (p.u, p.v)
        assert g.labels[other] != c0


def test_rnd_deterministic():
    g = random_graph(25, 0.1, seed=17)
    a = rnd_baseline(g, AttackConfig(target=3, budget=4, seed=9), model=model_for(g))
    b = rnd_baseline(g, AttackConfig(target=3, budget=4, seed=9), model=model_for(g))
    assert [p.to_dict() for p in a.perturbations] == [p.to_dict() for p in b.perturbations]


def test_fgsm_zero_gradients_stop():
    g = random_graph(15, 0.2, seed=18, p_feat=0.3)
    model = SurrogateModel(weights=np.zeros((8, 3)), n_classes=3)
    res = fgsm_baseline(g, model, AttackConfig(target=2, budget=4))
    assert res.perturbations == []
    assert res.starved


def test_fgsm_direct_only():
    g, na, model = trained_instance()
    cfg = AttackConfig(target=3, budget=2, mode=INFLUENCER, seed=1)
    with pytest.raises(ValueError):
        fgsm_baseline(g, model, cfg, na=na)


def test_fgsm_flips_are_local_and_budgeted():
    g, na, model = trained_instance(n=25, p=0.2, seed=19)
    v0 = 8
    res = fgsm_baseline(g, model, AttackConfig(target=v0, budget=5), na=na)
    assert len(res.perturbations) <= 5
    for p in res.perturbations:
        assert p.u == v0 or (p.kind == EDGE and v0 in (p.u, p.v))


def test_fgsm_loss_trace_consistent_with_replay():
    g, na, model = trained_instance(n=25, p=0.2, seed=20)
    v0 = 6
    res = fgsm_baseline(g, model, AttackConfig(target=v0, budget=4), na=na)
    c_old = infer_old_class(na, g, model, v0)
    g_att = apply_result(g, res)
    assert res.loss_trace[-1] == pytest.approx(
        surrogate_loss_scratch(g_att, model.weights, v0, c_old), abs=1e-9)


def gradient_from_rebuilt_ahat(g, d, row2, q, v0):
    """FGSM's structure gradient read off a freshly built normalized adjacency."""
    ahat = normalized_adjacency_matrix(g)
    h1, h2 = ahat @ q, ahat[v0].toarray().ravel()
    lc = float(row2 @ q)
    grad = (h1 + h2[v0] * q + h2 * q[v0]) / np.sqrt(d[v0] * d)
    grad -= 0.5 * lc / d[v0]
    grad -= h2[v0] * h1[v0] / d[v0] + h2 * h1 / d
    grad -= 0.5 * (row2[v0] * q[v0] / d[v0] + row2 * q / d)
    grad[v0] = 0.0
    return grad


@pytest.mark.parametrize("seed, p", [(21, 0.1), (22, 0.2), (23, 0.35)])
def test_fgsm_gradient_matches_rebuilt_ahat(seed, p, monkeypatch):
    g, na, model = trained_instance(n=25, p=p, seed=seed)
    gradient, gaps, flips = attack._structure_gradient, [], []

    def checked(g, d, row2, q, v0):
        got, want = gradient(g, d, row2, q, v0), gradient_from_rebuilt_ahat(g, d, row2, q, v0)
        gaps.append(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))
        return got

    monkeypatch.setattr(attack, "_structure_gradient", checked)
    for v0 in range(0, g.n_nodes, 3):
        res = fgsm_baseline(g, model, AttackConfig(target=v0, budget=5), na=na)
        flips += [p for p in res.perturbations if p.kind == EDGE]
    assert flips and max(gaps) <= 1e-12


def test_apply_result_repeated_pair_equals_sequential():
    g, _, _ = trained_instance(n=12, p=0.3, seed=24)
    flips = [(EDGE, 0, 1), (FEATURE, 3, 1), (EDGE, 5, 2), (EDGE, 0, 1),
             (FEATURE, 3, 2), (EDGE, 2, 5), (FEATURE, 3, 1), (EDGE, 4, 7)]
    res = AttackResult(target=0, attackers=(0,), budget=len(flips), mode=DIRECT,
                       constrained=False,
                       perturbations=[Perturbation(kind=k, u=u, v=v, insert=True)
                                      for k, u, v in flips])
    seq = g.copy()
    for p in res.perturbations:
        seq.apply_inplace(p)
    assert apply_result(g, res) == seq
    assert apply_result(g, res) == g.flip_feature(3, 2).flip_edge(4, 7)


def test_resolve_attackers_influencer_fill():
    g = AttributedGraph.from_edges(
        10, 0, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5), (4, 6)])
    cfg = AttackConfig(target=0, budget=1, mode=INFLUENCER, seed=5)
    attackers = resolve_attackers(g, cfg)
    assert 0 not in attackers
    assert set(attackers) <= g.two_hop_neighborhood(0) - {0}
    assert 1 in attackers  # the only direct neighbor is always taken


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(target=0, budget=0)
    with pytest.raises(ValueError):
        AttackConfig(target=0, budget=1, perturb_structure=False,
                     perturb_features=False)


@pytest.mark.parametrize("field, value", [
    ("d_min", 0), ("d_min", 1.5), ("d_min", True),
    ("tau", float("nan")), ("tau", float("inf")), ("tau", "a"),
])
def test_attack_config_rejects_bad_degree_test_settings(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        AttackConfig(target=0, budget=1, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("target", 1.0), ("target", True),
    ("budget", 0), ("budget", 2.5), ("budget", True),
    ("n_influencers", 0), ("n_influencers", -3), ("n_influencers", 2.0),
    ("seed", 2.5), ("seed", True),
])
def test_attack_config_requires_integer_counts(field, value):
    # A float budget would run more flips than the run file records, and a
    # count below one would fail deep inside numpy.
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        AttackConfig(**{"target": 0, "budget": 1, "mode": INFLUENCER, field: value})


def test_rnd_runs_only_as_direct_structure_attack():
    g = random_graph(25, 0.1, seed=16)
    for cfg, needle in ((AttackConfig(target=4, budget=2, mode=INFLUENCER), "direct"),
                        (AttackConfig(target=4, budget=2, perturb_structure=False),
                         "features-only")):
        with pytest.raises(ValueError, match=needle):
            rnd_baseline(g, cfg, model=model_for(g))


@pytest.mark.parametrize("attack", [run_nettack, fgsm_baseline, rnd_baseline])
@pytest.mark.parametrize("shape", [(8, 2), (7, 3)], ids=["too-few-classes",
                                                         "too-few-features"])
def test_attacks_reject_a_model_of_another_shape(attack, shape):
    # A class-3 target would index past a 2-class model's logits.
    g = random_graph(25, 0.1, seed=16)  # D = 8, K = 3
    model = SurrogateModel(weights=np.zeros(shape), n_classes=shape[1])
    cfg = AttackConfig(target=int(np.flatnonzero(g.labels == 3)[0]), budget=2)
    message = f"surrogate model shape {list(shape)} does not match the graph's [D, K] = [8, 3]"
    with pytest.raises(ValueError, match=re.escape(message)):
        if attack is rnd_baseline:
            attack(g, cfg, model=model)
        else:
            attack(g, model, cfg)


@pytest.mark.parametrize("attack", [run_nettack, fgsm_baseline, rnd_baseline])
@pytest.mark.parametrize("past_end", [True, False])
def test_out_of_range_target_rejected(attack, past_end):
    # N is one past the last node; -1 must not index from the end.
    g, na, model = trained_instance(n=12, p=0.3, seed=4)
    cfg = AttackConfig(target=g.n_nodes if past_end else -1, budget=2)
    with pytest.raises(GraphError, match="out of range"):
        if attack is rnd_baseline:
            attack(g, cfg, model=model, na=na)
        else:
            attack(g, model, cfg, na=na)


def strict_json(path):
    return json.loads(path.read_text(),
                      parse_constant=lambda t: pytest.fail(f"bare {t} in JSON"))


def test_rnd_without_model_strict_json_round_trip(tmp_path):
    # RND picks its flips without scoring them: NaN scores are written as
    # null and read back as NaN, while its losses (from the model) are finite.
    g = random_graph(25, 0.1, seed=17)
    res = rnd_baseline(g, AttackConfig(target=3, budget=2, seed=9), model=model_for(g))
    res.save(tmp_path / "r.json")
    d = strict_json(tmp_path / "r.json")
    assert all(p["score"] is None for p in d["perturbations"])
    assert np.isfinite([d["initial_loss"]] + d["loss_trace"]).all()
    back = AttackResult.from_dict(d)
    assert np.isnan([p.score for p in back.perturbations]).all()
    assert back.to_dict() == res.to_dict()
    # A result without losses round-trips its NaN losses the same way.
    bare = AttackResult(target=3, attackers=(3,), budget=2, mode=DIRECT,
                        constrained=False, loss_trace=[float("nan")] * 2)
    bare.save(tmp_path / "bare.json")
    d = strict_json(tmp_path / "bare.json")
    assert d["initial_loss"] is None and d["loss_trace"] == [None, None]
    back = AttackResult.from_dict(d)
    assert np.isnan(back.initial_loss) and np.isnan(back.loss_trace).all()


def all_attacks(g, model, na, v0):
    """Every attack on one target, each run twice on the given context."""
    out = []
    for _ in range(2):
        for mode in (DIRECT, INFLUENCER):
            cfg = AttackConfig(target=v0, budget=4, mode=mode, seed=3)
            out.append(run_nettack(g, model, cfg, na=na).to_dict())
        cfg = AttackConfig(target=v0, budget=4, seed=3)
        out.append(fgsm_baseline(g, model, cfg, na=na).to_dict())
        out.append(rnd_baseline(g, cfg, model, na=na).to_dict())
    return out


def test_attacks_leave_shared_context_unchanged():
    # The context is built once per graph and shared by every attack call:
    # no call may write to it, so reusing it gives fresh-context results.
    g, na, model = trained_instance(n=30, p=0.15, seed=6)
    ahat, dtilde, sigma = na.ahat.copy(), na.dtilde.copy(), na.cooc.sigma.copy()
    v0 = int(np.argsort(g.degrees)[len(g.degrees) // 2])
    shared = all_attacks(g, model, na, v0)
    fresh = all_attacks(g, model, NormalizedAdjacency.build(g), v0)
    assert shared[:4] == shared[4:]
    assert shared == fresh
    assert any(p["kind"] == EDGE for r in shared for p in r["perturbations"])
    assert (na.ahat != ahat).nnz == 0
    assert np.array_equal(na.dtilde, dtilde)
    assert np.array_equal(na.cooc.sigma, sigma)


def test_context_cooccurrence_matches_fresh_build():
    g = random_graph(30, 0.15, seed=8, n_features=12)
    got, want = NormalizedAdjacency.build(g).cooc, build_cooccurrence(g)
    assert np.array_equal(got.sigma, want.sigma)
    assert np.array_equal(got.feature_degrees, want.feature_degrees)
    for a, b in ((got.cooc, want.cooc), (got.walk_rows, want.walk_rows),
                 (got.features, want.features)):
        assert (a != b).nnz == 0
    for u in range(g.n_nodes):
        assert np.array_equal(got.allowed_additions(u), want.allowed_additions(u))


def test_result_json_round_trip(tmp_path):
    g, na, model = trained_instance()
    res = run_nettack(g, model, AttackConfig(target=2, budget=2), na=na)
    res.save(tmp_path / "r.json")
    loaded = json.loads((tmp_path / "r.json").read_text())
    back = AttackResult.from_dict(loaded)
    assert back.to_dict() == res.to_dict()
