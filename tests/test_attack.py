import json

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from nettack.attack import (AttackConfig, AttackResult, DIRECT, INFLUENCER,
                            apply_result, candidate_edges, candidate_features,
                            fgsm_baseline, replay_constraints, resolve_attackers,
                            rnd_baseline, run_nettack, score_features)
from nettack.constraints import (DegreeTestState, build_cooccurrence,
                                 feature_addition_allowed, lambda_statistic)
from nettack.data import make_split
from nettack.graph import AttributedGraph, EDGE, FEATURE
from nettack.surrogate import (NormalizedAdjacency, SurrogateModel,
                               infer_old_class, loss_from_logits,
                               surrogate_logits, train_surrogate,
                               updated_square_row_from)
from helpers import random_graph, surrogate_loss_scratch


def edge_score(g, na, model, v0, c_old, m, n):
    """Loss after flipping (m, n), scored the way the greedy loop does."""
    row = updated_square_row_from(na.square_row(v0), na.dtilde, g, m, n, v0)
    return loss_from_logits(row @ (g.feature_matrix() @ model.weights), c_old)


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
    assert all(v0 in pair for pair in cands)


def test_candidate_edges_isolation_guard():
    g = AttributedGraph.from_edges(12, 0, [(0, 1)] + [(i, i + 1) for i in range(1, 11)])
    cfg = AttackConfig(target=0, budget=1, constrained=False)
    cands = candidate_edges(g, cfg, None)
    assert (0, 1) not in cands  # only edge of the target: removing isolates it
    assert len(cands) == g.n_nodes - 2


def test_candidate_edges_lambda_gate_excludes():
    g = random_graph(40, 0.08, seed=5)
    cfg = AttackConfig(target=0, budget=1, constrained=True, tau=1e-6)
    state = DegreeTestState.from_graph(g, d_min=2, tau=1e-6)
    gated = set(candidate_edges(g, cfg, state))
    ungated = set(candidate_edges(g, cfg, None))
    dropped = ungated - gated
    assert dropped  # a tiny threshold must exclude something
    for (m, n) in dropped:
        lam = lambda_statistic(g.degrees, g.flip_edge(m, n).degrees, 2)
        assert lam >= 1e-6


def test_candidate_edges_match_scratch_filter():
    g = random_graph(100, 0.05, seed=7)
    v0 = max(range(100), key=g.degree)
    cfg = AttackConfig(target=v0, budget=1)
    state = DegreeTestState.from_graph(g, d_min=2, tau=0.004)
    got = set(candidate_edges(g, cfg, state))
    want = set()
    for x in range(100):
        if x == v0:
            continue
        pair = (min(v0, x), max(v0, x))
        if g.has_edge(v0, x) and g.degree(v0) == 1:
            continue
        if lambda_statistic(g.degrees, g.flip_edge(v0, x).degrees, 2) < 0.004:
            want.add(pair)
    assert got == want


def test_candidate_edges_influencer_excludes_target():
    g = random_graph(20, 0.3, seed=8)
    v0 = 3
    attackers = tuple(sorted(g.neighbors(v0)))[:2]
    cfg = AttackConfig(target=v0, budget=1, mode=INFLUENCER,
                       attackers=attackers, constrained=False)
    cands = candidate_edges(g, cfg, None)
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
    cur = loss_from_logits(
        na.square_row(v0) @ (g.feature_matrix() @ model.weights), c_old)
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
    cur = loss_from_logits(
        na.square_row(v0) @ (g.feature_matrix() @ model.weights), c_old)
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
    cur = loss_from_logits(logits, c_old)
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
    res = rnd_baseline(g, AttackConfig(target=0, budget=3, seed=1))
    assert res.starved
    assert res.perturbations == []


def test_rnd_inserts_cross_class_edges():
    g = random_graph(25, 0.1, seed=16)
    v0 = 4
    res = rnd_baseline(g, AttackConfig(target=v0, budget=5, seed=2))
    assert len(res.perturbations) == 5
    c0 = g.labels[v0]
    for p in res.perturbations:
        assert p.kind == EDGE and p.insert
        other = p.v if p.u == v0 else p.u
        assert v0 in (p.u, p.v)
        assert g.labels[other] != c0


def test_rnd_deterministic():
    g = random_graph(25, 0.1, seed=17)
    a = rnd_baseline(g, AttackConfig(target=3, budget=4, seed=9))
    b = rnd_baseline(g, AttackConfig(target=3, budget=4, seed=9))
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
        AttackConfig(target=0, budget=1, mode=DIRECT, attackers=(1,))
    with pytest.raises(ValueError):
        AttackConfig(target=0, budget=1, mode=INFLUENCER, attackers=(0, 1))
    with pytest.raises(ValueError):
        AttackConfig(target=0, budget=1, perturb_structure=False,
                     perturb_features=False)


def test_rnd_without_model_strict_json_round_trip(tmp_path):
    # No model means no losses: NaN values are written as null and read
    # back as NaN.
    g = random_graph(25, 0.1, seed=17)
    res = rnd_baseline(g, AttackConfig(target=3, budget=2, seed=9))
    res.save(tmp_path / "r.json")
    d = json.loads((tmp_path / "r.json").read_text(),
                   parse_constant=lambda t: pytest.fail(f"bare {t} in JSON"))
    assert d["initial_loss"] is None
    assert d["loss_trace"] == [None, None]
    assert all(p["score"] is None for p in d["perturbations"])
    back = AttackResult.from_dict(d)
    assert np.isnan(back.initial_loss) and np.isnan(back.loss_trace).all()
    assert np.isnan([p.score for p in back.perturbations]).all()


def test_result_json_round_trip(tmp_path):
    g, na, model = trained_instance()
    res = run_nettack(g, model, AttackConfig(target=2, budget=2), na=na)
    res.save(tmp_path / "r.json")
    loaded = json.loads((tmp_path / "r.json").read_text())
    back = AttackResult.from_dict(loaded)
    assert back.to_dict() == res.to_dict()
