"""Seeded planted-partition graphs with class-correlated binary features.

Desk-scale stand-in for citation networks: homophilous blocks, a
leaf-heavy degree profile (a third of the nodes are degree-1, like the
periphery of real citation graphs), and per-class marker features over a
shared background vocabulary. Isolated nodes are attached to a same-class
core node so the whole sample stays one connected component.
"""

from __future__ import annotations

import numpy as np

from .graph import AttributedGraph, require_int


def planted_partition(n_nodes: int = 500, n_classes: int = 4,
                      n_features: int = 96, markers_per_class: int = 12,
                      core_fraction: float = 0.4, p_in: float = 0.06,
                      p_out: float = 0.008, fringe_weight: float = 0.18,
                      degree_exponent: float = 2.0, weight_cap: float = 8.0,
                      p_marker: float = 0.28, p_background: float = 0.035,
                      seed: int = 0) -> AttributedGraph:
    """Sample a labeled attributed graph with planted class structure.

    Nodes get classes round-robin. Connection odds follow a
    degree-corrected block model: within-class pairs are denser than
    cross-class ones, core nodes carry capped power-law propensities, and
    the remaining fringe has a flat low propensity that yields many
    degree-1/2 nodes. Each class owns a marker block of features set with
    elevated probability; everything else is sparse background noise.
    """
    # A lone node has no other node to attach to.
    require_int("n_nodes", n_nodes, 2)
    require_int("n_classes", n_classes, 1)
    if markers_per_class * n_classes > n_features:
        raise ValueError("marker blocks exceed the feature count")
    rng = np.random.default_rng(seed)
    classes = np.arange(n_nodes) % n_classes  # 0-based

    weight = (1.0 - rng.random(n_nodes)) ** (-1.0 / (degree_exponent - 1.0))
    weight = np.minimum(weight, weight_cap)
    core = rng.random(n_nodes) < core_fraction
    weight = np.where(core, weight, fringe_weight)
    weight /= weight.mean()

    same = classes[:, None] == classes[None, :]
    prob = np.minimum(np.where(same, p_in, p_out) * np.outer(weight, weight), 1.0)
    adj = np.triu(rng.random((n_nodes, n_nodes)) < prob, k=1)

    # Attach isolated nodes to a random same-class core node.
    deg = adj.sum(0) + adj.sum(1)
    for u in np.flatnonzero(deg == 0):
        pool = np.flatnonzero(core & (classes == classes[u])
                              & (np.arange(n_nodes) != u))
        if len(pool) == 0:
            pool = np.flatnonzero(np.arange(n_nodes) != u)
        v = int(pool[rng.integers(len(pool))])
        adj[min(u, v), max(u, v)] = True

    marker = np.full((n_nodes, n_features), p_background)
    for c in range(n_classes):
        block = slice(c * markers_per_class, (c + 1) * markers_per_class)
        marker[classes == c, block] = p_marker
    feat = rng.random((n_nodes, n_features)) < marker

    labels = classes + 1  # stored 1-based
    return AttributedGraph.from_edges(n_nodes, n_features, np.argwhere(adj),
                                      np.argwhere(feat), labels=labels,
                                      n_classes=n_classes)
