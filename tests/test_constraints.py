import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from nettack.constraints import (DegreeTestError, DegreeTestState, alpha_from_stats,
                                 build_cooccurrence, lambda_statistic)
from nettack.graph import AttributedGraph
from helpers import (brute_cooccurrence, estimate_alpha, evaluate_edge,
                     powerlaw_loglikelihood, random_graph, zeta_sample)


def test_alpha_all_ones_closed_form():
    got = estimate_alpha([1, 1, 1, 1], d_min=1)
    assert got == pytest.approx(1.0 + 1.0 / math.log(2.0), rel=1e-12)


def test_alpha_identical_multisets_agree():
    degs = [2, 3, 5, 8, 2, 4]
    assert estimate_alpha(degs, 2) == estimate_alpha(list(degs), 2)


def test_alpha_empty_filtered_rejected():
    with pytest.raises(DegreeTestError):
        estimate_alpha([1, 1], d_min=2)


def test_alpha_recovers_parameter_at_high_cutoff():
    # The closed form is the continuous-approximation estimator; its bias
    # shrinks as the cutoff grows. At d_min=10 it recovers the truth.
    rng = np.random.default_rng(123)
    for alpha_true in (2.0, 2.5, 3.0):
        sample = zeta_sample(alpha_true, 10, 10 ** 5, rng)
        assert estimate_alpha(sample, 10) == pytest.approx(alpha_true, abs=0.05)


def test_alpha_known_bias_at_low_cutoff():
    # At d_min=2 the approximation systematically underestimates; the
    # band below was measured against the exact truncated-zeta sampler.
    rng = np.random.default_rng(7)
    sample = zeta_sample(2.5, 2, 10 ** 5, rng)
    got = estimate_alpha(sample, 2)
    assert 2.3 < got < 2.45


def test_loglik_degenerate_single_sample():
    alpha = 1.7
    assert powerlaw_loglikelihood([1], alpha, d_min=1) == pytest.approx(math.log(alpha))


def test_loglik_doubling_multiset_doubles():
    degs = [2, 3, 7, 9]
    alpha = 2.2
    one = powerlaw_loglikelihood(degs, alpha, 2)
    two = powerlaw_loglikelihood(degs + degs, alpha, 2)
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_loglik_rejects_nonpositive_alpha():
    with pytest.raises(DegreeTestError):
        powerlaw_loglikelihood([2, 3], 0.0, 2)


def test_loglik_grid_max_near_estimator():
    # Grid-search oracle: the corrected-sign likelihood peaks in the
    # neighborhood of the closed-form estimate (within 15% relative at
    # this cutoff; the two optimize slightly different approximations).
    rng = np.random.default_rng(99)
    sample = zeta_sample(2.5, 2, 10 ** 5, rng)
    ahat = estimate_alpha(sample, 2)
    grid = np.linspace(1.05, 6.0, 2000)
    lls = [powerlaw_loglikelihood(sample, a, 2) for a in grid]
    amax = grid[int(np.argmax(lls))]
    assert abs(amax - ahat) / ahat < 0.15


def test_printed_form_has_no_interior_maximum():
    # Justification for the sign correction: the as-printed variant is
    # strictly increasing in alpha, so no estimator can maximize it.
    rng = np.random.default_rng(5)
    sample = zeta_sample(2.5, 2, 10 ** 4, rng)
    vals = [powerlaw_loglikelihood(sample, a, 2, as_printed=True)
            for a in (1.1, 2.0, 3.0, 4.5, 6.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_lambda_identical_samples_zero():
    degs = [2, 3, 5, 8, 13]
    assert lambda_statistic(degs, list(degs), 2) == pytest.approx(0.0, abs=1e-9)


def test_lambda_separates_distinct_exponents():
    rng = np.random.default_rng(17)
    d0 = zeta_sample(2.0, 2, 10 ** 4, rng)
    d1 = zeta_sample(3.5, 2, 10 ** 4, rng)
    assert lambda_statistic(d0, d1, 2) > 3.841  # chi-square 95th percentile


def test_lambda_acceptance_rule():
    state = DegreeTestState.from_graph(random_graph(60, 0.1, seed=4), d_min=2)
    cand = evaluate_edge(state, 3, 4, 0)
    assert (cand.lam < state.tau) == state.edge_allowed(3, 4, 0)


def test_lambda_empty_sample_rejected():
    with pytest.raises(DegreeTestError):
        lambda_statistic([1], [2, 3], d_min=2)


def test_incremental_involution():
    g = random_graph(30, 0.15, seed=6)
    state = DegreeTestState.from_graph(g, d_min=2)
    n0, r0 = state.n_cur, state.log_sum_cur
    state.commit_edge(int(g.degrees[1]), int(g.degrees[2]), int(2 in g.neighbors(1)))
    g.flip_edge_inplace(1, 2)
    state.commit_edge(int(g.degrees[1]), int(g.degrees[2]), int(2 in g.neighbors(1)))
    g.flip_edge_inplace(1, 2)
    assert state.n_cur == n0
    assert state.log_sum_cur == pytest.approx(r0, abs=1e-12)


def test_incremental_boundary_entry():
    # Inserting an edge at a node of degree d_min - 1 grows the sample.
    g = AttributedGraph.from_edges(4, 0, [(0, 1), (0, 2)])  # node 3 isolated, node 1 deg 1
    state = DegreeTestState.from_graph(g, d_min=2)
    cand = evaluate_edge(state, d_m=1, d_n=0, a_mn=0)  # edge (1, 3)
    assert cand.n_new == state.n_cur + 1  # node 1 enters at degree 2


def test_incremental_matches_scratch_over_candidates():
    rng = np.random.default_rng(3)
    g0 = random_graph(200, 0.05, seed=1)
    g = g0.copy()
    state = DegreeTestState.from_graph(g0, d_min=2)
    for t in range(300):
        m, n = rng.integers(200, size=2)
        if m == n:
            continue
        m, n = int(m), int(n)
        a_mn = int(n in g.neighbors(m))
        cand = evaluate_edge(state, int(g.degrees[m]), int(g.degrees[n]), a_mn)
        alpha_new, ll_new, lam = cand.alpha_new, cand.loglik_new, cand.lam
        g2 = g.flip_edge(m, n)
        assert lam == pytest.approx(lambda_statistic(g0.degrees, g2.degrees, 2), abs=1e-9)
        assert alpha_new == pytest.approx(estimate_alpha(g2.degrees, 2), abs=1e-9)
        assert ll_new == pytest.approx(
            powerlaw_loglikelihood(g2.degrees, estimate_alpha(g2.degrees, 2), 2), abs=1e-9)
        if t % 7 == 0:
            state.commit_edge(int(g.degrees[m]), int(g.degrees[n]), a_mn)
            g.flip_edge_inplace(m, n)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30)
def test_incremental_state_equals_rebuild(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(20, 0.2, seed=seed % 991)
    state = DegreeTestState.from_graph(g, d_min=2)
    for _ in range(10):
        m, n = rng.integers(20, size=2)
        if m == n:
            continue
        m, n = int(m), int(n)
        state.commit_edge(int(g.degrees[m]), int(g.degrees[n]), int(n in g.neighbors(m)))
        g.flip_edge_inplace(m, n)
    fresh = DegreeTestState.from_graph(g, d_min=2)
    assert state.n_cur == fresh.n_cur
    assert state.log_sum_cur == pytest.approx(fresh.log_sum_cur, abs=1e-9)
    if state.n_cur:
        assert alpha_from_stats(state.n_cur, state.log_sum_cur, state.d_min) == \
            pytest.approx(alpha_from_stats(fresh.n_cur, fresh.log_sum_cur, fresh.d_min),
                          abs=1e-9)


def test_cooccurrence_single_pair():
    g = AttributedGraph.from_edges(1, 3, [], [(0, 1), (0, 2)])
    idx = build_cooccurrence(g)
    assert idx.cooc[1, 2] == 1 and idx.cooc[2, 1] == 1
    # Features 1 and 2 have degree 1 in the co-occurrence graph, feature 0 degree 0.
    assert idx.walk_rows[1, 2] == 1.0 and idx.walk_rows[2, 1] == 1.0
    assert idx.walk_rows[0].nnz == 0


def test_cooccurrence_no_multifeature_nodes():
    g = AttributedGraph.from_edges(3, 4, [], [(0, 1), (1, 2), (2, 3)])
    idx = build_cooccurrence(g)
    assert idx.cooc.nnz == 0


def test_cooccurrence_matches_brute_force():
    g = random_graph(30, 0.0, seed=21, n_features=40, p_feat=0.15)
    idx = build_cooccurrence(g)
    got = {(i, j) for i, j in zip(*idx.cooc.nonzero()) if i < j}
    assert got == brute_cooccurrence(g)


def test_cooccurrence_gate_matches_loop_reference():
    # Per-node loops over the brute-force co-occurrence pairs. They sum in
    # another order than the sparse products, so thresholds agree to
    # rounding and the gate is compared away from exact ties.
    g = random_graph(30, 0.0, seed=21, n_features=40, p_feat=0.15)
    idx = build_cooccurrence(g)
    nbrs = {i: set() for i in range(g.n_features)}
    for i, j in brute_cooccurrence(g):
        nbrs[i].add(j)
        nbrs[j].add(i)
    inv = {i: 1.0 / len(s) if s else 0.0 for i, s in nbrs.items()}
    for u in range(g.n_nodes):
        s = g.features_of(u).tolist()
        mask = idx.allowed_additions(u)
        if not s:
            assert idx.sigma[u] == 0.0 and not mask.any()
            continue
        sigma = 0.5 * sum(inv[j] for j in s) / len(s)
        assert idx.sigma[u] == pytest.approx(sigma, rel=1e-12)
        for i in range(g.n_features):
            reach = sum(inv[j] for j in s if i in nbrs[j]) / len(s)
            if i in s:
                assert mask[i]
            elif abs(reach - sigma) > 1e-9:
                assert mask[i] == (reach > sigma)


def test_feature_addition_original_always_allowed():
    g = AttributedGraph.from_edges(2, 4, [], [(0, 1), (0, 2), (1, 3)])
    idx = build_cooccurrence(g)
    assert idx.allowed_additions(0)[1]


def test_feature_addition_full_cooccurrence_allowed():
    # Feature 3 co-occurs with every original feature of node 0, so the
    # one-step walk reaches it with the maximum probability 2*sigma.
    g = AttributedGraph.from_edges(3, 4, [], [(0, 0), (0, 1),
                                              (1, 0), (1, 3), (2, 1), (2, 3)])
    idx = build_cooccurrence(g)
    assert idx.allowed_additions(0)[3]


def test_feature_addition_disconnected_feature_blocked():
    g = AttributedGraph.from_edges(2, 4, [], [(0, 0), (0, 1), (1, 2), (1, 3)])
    idx = build_cooccurrence(g)
    # features 2,3 never co-occur with node 0's originals {0,1}
    assert not idx.allowed_additions(0)[2]
    assert not idx.allowed_additions(0)[3]


def test_feature_addition_empty_set_blocked():
    g = AttributedGraph.from_edges(2, 3, [], [(1, 0), (1, 1)])
    idx = build_cooccurrence(g)
    assert not idx.allowed_additions(0)[0]


def test_allowed_additions_frozen_against_graph_changes():
    g = random_graph(10, 0.0, seed=30, n_features=12, p_feat=0.3)
    idx = build_cooccurrence(g)
    before = idx.allowed_additions(3).copy()
    g.flip_feature_inplace(3, 0)  # mutating the graph must not move the gate
    assert np.array_equal(idx.allowed_additions(3), before)
