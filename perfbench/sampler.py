"""Seeded sparse sampler for the Cora-size attack workloads.

Edges follow a degree-corrected, homophilous Chung-Lu model: each edge
draws one endpoint by a power-law node propensity and the other from the
same class (probability `HOMOPHILY`) or from any other class, again by
propensity. Nodes left outside the largest component are hooked into it,
so N is the same for every seed. Only edge lists are ever held, so memory
is O(E).

Features are class-marker blocks plus sparse background words. A node
also carries markers of the next class with a small probability, which
links class blocks in the feature co-occurrence graph and lets the
co-occurrence gate admit some cross-class feature insertions. With one
strong marker per class, a single feature flip moves the
surrogate's logits about as much as an edge flip, so Nettack commits
feature flips as well as edge flips.

The result is written as a bundle directory that `nettack.data.load_bundle`
reads; nothing here imports the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


N_NODES = 2750
N_CLASSES = 7
N_FEATURES = 1430
MEAN_DEGREE = 6.0          # edges sampled = N_NODES * MEAN_DEGREE / 2
DEGREE_EXPONENT = 2.5
PROPENSITY_CAP = 60.0
HOMOPHILY = 0.6
MARKERS_PER_CLASS = 1
P_MARKER = 0.95
P_NEIGHBOUR_MARKER = 0.2
P_BACKGROUND = 0.004


@dataclass
class SampledGraph:
    """Edge list (u < v, unique), feature pairs and 0-based classes."""

    n_nodes: int
    n_features: int
    n_classes: int
    edges: np.ndarray      # (E, 2) int64
    features: np.ndarray   # (F, 2) int64, (node, feature id)
    classes: np.ndarray    # (N,) int64 in 0..K-1


def _draw(rng: np.random.Generator, nodes: np.ndarray, weight: np.ndarray,
          size: int) -> np.ndarray:
    cdf = np.cumsum(weight[nodes])
    pick = np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")
    return nodes[np.minimum(pick, len(nodes) - 1)]


def sample_graph(seed: int) -> SampledGraph:
    rng = np.random.default_rng(seed)
    n, k = N_NODES, N_CLASSES
    classes = rng.permutation(np.arange(n) % k)
    # Propensities are the power law's quantiles at evenly spaced levels,
    # dealt to nodes in seeded order. The degree sequence then varies little
    # between seeds, and so does work that grows with the hubs (FGSM
    # rewrites the whole of Â², whose size follows the sum of squared degrees).
    levels = (np.arange(n) + 0.5) / n
    weight = np.minimum(levels ** (-1.0 / (DEGREE_EXPONENT - 1.0)), PROPENSITY_CAP)
    weight = weight[rng.permutation(n)]
    everyone = np.arange(n)

    m = int(round(n * MEAN_DEGREE / 2.0))
    u = _draw(rng, everyone, weight, m)
    v = np.empty(m, dtype=np.int64)
    same = rng.random(m) < HOMOPHILY
    for c in range(k):
        members = np.flatnonzero(classes == c)
        pick = same & (classes[u] == c)
        v[pick] = _draw(rng, members, weight, int(pick.sum()))
        others = np.flatnonzero(classes != c)
        pick = ~same & (classes[u] == c)
        v[pick] = _draw(rng, others, weight, int(pick.sum()))
    keep = u != v
    u, v = u[keep], v[keep]

    # One edge from every node outside the largest component into it, to a
    # same-class node by propensity: the component is then the whole graph.
    a = sp.coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    _, comp = connected_components(a, directed=False)
    main = comp == np.argmax(np.bincount(comp))
    stray = np.flatnonzero(~main)
    hook = np.empty(len(stray), dtype=np.int64)
    for c in range(k):
        pick = classes[stray] == c
        hook[pick] = _draw(rng, np.flatnonzero(main & (classes == c)), weight,
                           int(pick.sum()))
    u, v = np.concatenate([u, stray]), np.concatenate([v, hook])
    edges = np.unique(np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1), axis=0)

    feats = []
    width = MARKERS_PER_CLASS
    n_background = N_FEATURES - k * width
    for node in range(n):
        c = int(classes[node])
        own = c * width + np.flatnonzero(rng.random(width) < P_MARKER)
        near = ((c + 1) % k) * width + np.flatnonzero(
            rng.random(width) < P_NEIGHBOUR_MARKER)
        bg = k * width + np.flatnonzero(rng.random(n_background) < P_BACKGROUND)
        ids = np.concatenate([own, near, bg])
        feats.append(np.stack([np.full(len(ids), node), ids], axis=1))
    features = np.concatenate(feats).astype(np.int64)
    return SampledGraph(n_nodes=n, n_features=N_FEATURES, n_classes=k,
                        edges=edges.astype(np.int64), features=features,
                        classes=classes.astype(np.int64))


def write_bundle(s: SampledGraph, path: str | Path) -> None:
    """Write the four bundle files in the format `load_bundle` reads."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "edges.tsv").write_text("".join(f"{a}\t{b}\n" for a, b in s.edges.tolist()))
    (root / "features.tsv").write_text(
        "".join(f"{a}\t{i}\n" for a, i in s.features.tolist()))
    (root / "labels.tsv").write_text(
        "".join(f"{a}\t{c}\n" for a, c in enumerate(s.classes.tolist())))
    meta = {"n_nodes": s.n_nodes, "n_features": s.n_features, "n_classes": s.n_classes}
    (root / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
