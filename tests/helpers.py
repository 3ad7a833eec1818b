"""Independent oracles shared across the test modules.

Everything here recomputes quantities from first principles (dense
matrices, BFS, brute-force enumeration) so the incremental code paths
are checked against implementations that share none of their logic.
"""

from __future__ import annotations

import numpy as np

from nettack.graph import AttributedGraph
from nettack.surrogate import softmax


def random_graph(n_nodes: int, p_edge: float, seed: int, n_features: int = 8,
                 p_feat: float = 0.3, n_classes: int = 3) -> AttributedGraph:
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, n_classes + 1, size=n_nodes)
    g = AttributedGraph(n_nodes, n_features, n_classes=n_classes, labels=labels)
    for u in range(n_nodes):
        for v in range(u + 1, n_nodes):
            if rng.random() < p_edge:
                g.flip_edge_inplace(u, v)
        for i in range(n_features):
            if rng.random() < p_feat:
                g.flip_feature_inplace(u, i)
    return g


def dense_normalized(g: AttributedGraph) -> np.ndarray:
    a = g.adjacency_matrix().toarray() + np.eye(g.n_nodes)
    d = g.degrees.astype(float) + 1.0
    return a / np.sqrt(np.outer(d, d))


def dense_square(g: AttributedGraph) -> np.ndarray:
    ah = dense_normalized(g)
    return ah @ ah


def gcn_forward(model, ahat, x) -> np.ndarray:
    """Class probabilities of a victim `GcnModel` at every node, shape (N, K):
    the full-graph pass softmax(Â·relu(Â·(X·W₁))·W₂) that the row-read
    passes of `nettack.gcn` are held to."""
    h = np.maximum(ahat @ (x @ model.w1), 0.0)
    return softmax((ahat @ h) @ model.w2)


def bfs_two_hop(g: AttributedGraph, u: int) -> set[int]:
    frontier = {u}
    seen = {u}
    for _ in range(2):
        nxt = set()
        for w in frontier:
            nxt |= set(g.neighbors(w).tolist())
        nxt -= seen
        seen |= nxt
        frontier = nxt
    return seen


def surrogate_loss_scratch(g: AttributedGraph, weights: np.ndarray,
                           v0: int, c_old: int) -> float:
    """Full-rebuild surrogate loss: dense square times feature products."""
    logits = dense_square(g)[v0] @ (g.feature_matrix().toarray() @ weights)
    mask = np.ones(len(logits), dtype=bool)
    mask[c_old] = False
    return float(logits[mask].max() - logits[c_old])


def zeta_sample(alpha: float, d_min: int, n: int, rng: np.random.Generator,
                cap: int = 10 ** 6) -> np.ndarray:
    """Exact inverse-CDF sampling from a truncated discrete power law."""
    support = np.arange(d_min, cap + 1, dtype=np.float64)
    pmf = support ** (-alpha)
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(n), side="left") + d_min


def brute_cooccurrence(g: AttributedGraph) -> set[tuple[int, int]]:
    """All feature pairs co-occurring in at least one node, (i, j) with i < j."""
    pairs = set()
    for u in range(g.n_nodes):
        feats = sorted(g.features_of(u))
        for a in range(len(feats)):
            for b in range(a + 1, len(feats)):
                pairs.add((feats[a], feats[b]))
    return pairs
