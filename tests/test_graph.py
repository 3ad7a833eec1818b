import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
import hypothesis.strategies as st

from nettack.graph import (AttributedGraph, GraphError, Perturbation, EDGE, FEATURE,
                           connected_components)
from helpers import bfs_two_hop, random_graph


def test_flip_edge_insert_on_empty():
    g = AttributedGraph(3, 0)
    g2 = g.flip_edge(0, 1)
    assert g2.edge_list() == [(0, 1)]
    assert g.edge_list() == []  # original untouched


def test_flip_edge_involution():
    g = AttributedGraph(3, 0)
    g2 = g.flip_edge(0, 1).flip_edge(0, 1)
    assert g2 == g


def test_flip_edge_self_loop_rejected():
    g = AttributedGraph(3, 0)
    with pytest.raises(GraphError):
        g.flip_edge(2, 2)


def test_flip_edge_out_of_range():
    g = AttributedGraph(3, 0)
    with pytest.raises(GraphError):
        g.flip_edge(0, 3)


def test_flip_feature_set_and_involution():
    g = AttributedGraph(2, 4)
    g2 = g.flip_feature(1, 2)
    assert g2.has_feature(1, 2)
    assert g2.flip_feature(1, 2) == g


def test_flip_feature_out_of_range():
    g = AttributedGraph(2, 4)
    with pytest.raises(GraphError):
        g.flip_feature(2, 0)
    with pytest.raises(GraphError):
        g.flip_feature(0, 4)


def test_degree_isolated_and_star():
    g = AttributedGraph(5, 0)
    assert g.degree(0) == 0
    for leaf in range(1, 5):
        g.flip_edge_inplace(0, leaf)
    assert g.degree(0) == 4
    assert all(g.degree(leaf) == 1 for leaf in range(1, 5))


def test_degree_tracks_flips():
    g = AttributedGraph(4, 0)
    before = g.degree(1)
    g.flip_edge_inplace(1, 2)
    assert g.degree(1) == before + 1
    g.flip_edge_inplace(1, 2)
    assert g.degree(1) == before


def test_degree_out_of_range():
    g = AttributedGraph(3, 0)
    with pytest.raises(GraphError):
        g.degree(5)


def test_two_hop_isolated():
    g = AttributedGraph(4, 0)
    assert g.two_hop_neighborhood(2) == {2}


def test_two_hop_path():
    g = AttributedGraph.from_edges(4, 0, [(0, 1), (1, 2), (2, 3)])
    assert g.two_hop_neighborhood(0) == {0, 1, 2}


def test_two_hop_matches_bfs_oracle():
    g = random_graph(20, 0.3, seed=11)
    for u in range(g.n_nodes):
        assert g.two_hop_neighborhood(u) == bfs_two_hop(g, u)


def test_perturbation_validation():
    with pytest.raises(GraphError):
        Perturbation(kind=EDGE, u=1, v=1, insert=True)
    with pytest.raises(GraphError):
        Perturbation(kind="nope", u=0, v=1, insert=True)
    p = Perturbation(kind=FEATURE, u=0, v=3, insert=False, score=0.5)
    assert Perturbation.from_dict(p.to_dict()) == p
    assert p.direction == "remove"


def test_label_validation():
    with pytest.raises(GraphError):
        AttributedGraph(3, 0, n_classes=2, labels=np.array([1, 2, 3]))
    with pytest.raises(GraphError):
        AttributedGraph(3, 0, labels=np.array([-1, 0, 0]))


def assert_canonical(m):
    assert m.dtype == bool and m.data.all()
    for a, b in zip(m.indptr[:-1], m.indptr[1:]):
        assert np.all(np.diff(m.indices[a:b]) > 0)  # sorted, no duplicates
    assert m.has_canonical_format


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 9), st.integers(0, 9)),
                max_size=40),
       st.integers(0, 5), st.sampled_from([0.0, 0.3]))
def test_flip_sequences_preserve_invariants(flips, seed, density):
    g0 = random_graph(10, density, seed=seed, n_features=10, p_feat=density)
    before = [(m.indices.copy(), m.indptr.copy()) for m in (g0.adj, g0.feat)]
    g, xor_adj, xor_feat = g0.copy(), g0.adj, g0.feat
    for is_edge, u, v in flips:
        if is_edge and u == v:
            continue
        if is_edge:
            g.flip_edge_inplace(u, v)
            xor_adj = xor_adj != sp.csr_matrix(([True, True], ([u, v], [v, u])),
                                               shape=xor_adj.shape)
        else:
            g.flip_feature_inplace(u, v)
            xor_feat = xor_feat != sp.csr_matrix(([True], ([u], [v])),
                                                 shape=xor_feat.shape)
        for m, ref in ((g.adj, xor_adj), (g.feat, xor_feat)):
            assert_canonical(m)
            assert (m != ref).nnz == 0
    for m, (indices, indptr) in zip((g0.adj, g0.feat), before):
        assert np.array_equal(m.indices, indices) and np.array_equal(m.indptr, indptr)
    g.validate()
    assert int(g.degrees.sum()) == 2 * g.n_edges
    a = g.adjacency_matrix().toarray()
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert set(np.unique(a)) <= {0.0, 1.0}


@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 5))
def test_single_flip_is_involution(u, v, seed):
    g = random_graph(8, 0.3, seed=seed)
    if u == v:
        return
    assert g.flip_edge(u, v).flip_edge(u, v) == g


def test_copy_is_deep():
    g = random_graph(6, 0.4, seed=3)
    g2 = g.copy()
    g2.flip_edge_inplace(0, 1)
    g2.flip_feature_inplace(0, 0)
    assert g != g2
    g.validate()


@pytest.mark.parametrize("edges, features", [
    ([(1, 1)], []),          # self-loop
    ([(0, 3)], []),          # node id past the end
    ([(-1, 2)], []),         # negative node id
    ([], [(0, 4)]),          # feature id past the end
    ([], [(3, 0)]),          # feature row past the end
])
def test_from_edges_rejects_bad_ids(edges, features):
    with pytest.raises(GraphError):
        AttributedGraph.from_edges(3, 4, edges, features)


def test_from_edges_counts_repeats_once():
    g = AttributedGraph.from_edges(4, 3, [(0, 1), (1, 0), (0, 1), (2, 3)],
                                   [(1, 2), (1, 2), (0, 0)])
    assert g.n_edges == 2
    assert g.edge_list() == [(0, 1), (2, 3)]
    assert list(g.degrees) == [1, 1, 1, 1]
    assert g.feature_list() == [(0, 0), (1, 2)]
    g.validate()


def test_connected_components_ordered_by_smallest_id():
    # Node 0 is isolated and precedes the larger component {1, 2, 3};
    # node 4 is isolated too, and {5, 6} comes last.
    g = AttributedGraph.from_edges(7, 0, [(3, 1), (2, 3), (6, 5)])
    assert connected_components(g) == [[0], [1, 2, 3], [4], [5, 6]]
