"""Sparse undirected attributed graph with constant-time flip bookkeeping.

The adjacency is kept as one neighbor set per node (row iteration in
O(deg), membership in O(1)) together with a cached integer degree array,
so the attack loops can read degrees without touching the sets. Features
are binary and stored the same way. Labels are 1-based class ids with 0
meaning "unlabeled".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp

EDGE = "edge"
FEATURE = "feature"


class GraphError(ValueError):
    """Invalid graph operation or malformed graph data."""


def nan_to_none(x: float) -> float | None:
    """JSON form of a float: strict JSON has no NaN, so NaN becomes null."""
    x = float(x)
    return None if np.isnan(x) else x


def none_to_nan(x: float | None) -> float:
    """Inverse of `nan_to_none` for values read back from JSON."""
    return float("nan") if x is None else float(x)


@dataclass(frozen=True)
class Perturbation:
    """One applied flip: an edge (u, v) or a feature (u, v) where v is a feature id."""

    kind: str  # EDGE or FEATURE
    u: int
    v: int
    insert: bool  # True when the flip sets the entry to 1
    score: float = float("nan")  # score at selection time

    def __post_init__(self):
        if self.kind not in (EDGE, FEATURE):
            raise GraphError(f"unknown perturbation kind {self.kind!r}")
        if self.kind == EDGE and self.u == self.v:
            raise GraphError("edge perturbation endpoints must differ")

    @property
    def direction(self) -> str:
        return "insert" if self.insert else "remove"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "u": int(self.u),
            "v": int(self.v),
            "insert": bool(self.insert),
            "score": nan_to_none(self.score),
        }

    @staticmethod
    def from_dict(d: dict) -> "Perturbation":
        return Perturbation(
            kind=d["kind"], u=int(d["u"]), v=int(d["v"]),
            insert=bool(d["insert"]), score=none_to_nan(d.get("score")),
        )


class AttributedGraph:
    """Undirected graph with binary node features and optional labels.

    Invariants: adjacency symmetric, binary, zero diagonal; label ids in
    {0, 1..n_classes} where 0 marks an unlabeled node.
    """

    def __init__(self, n_nodes: int, n_features: int, n_classes: int = 0,
                 labels: np.ndarray | None = None):
        if n_nodes < 0 or n_features < 0:
            raise GraphError("node and feature counts must be non-negative")
        self.n_nodes = int(n_nodes)
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self._adj: list[set[int]] = [set() for _ in range(n_nodes)]
        self._feat: list[set[int]] = [set() for _ in range(n_nodes)]
        self._degrees = np.zeros(n_nodes, dtype=np.int64)
        self._n_edges = 0
        if labels is None:
            self.labels = np.zeros(n_nodes, dtype=np.int64)
        else:
            self.labels = np.asarray(labels, dtype=np.int64).copy()
            if self.labels.shape != (n_nodes,):
                raise GraphError("labels must be one id per node")
            if self.labels.min(initial=0) < 0:
                raise GraphError("label ids must be >= 0 (0 = unlabeled)")
            if n_classes and self.labels.max(initial=0) > n_classes:
                raise GraphError(f"label id exceeds n_classes={n_classes}")

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(cls, n_nodes: int, n_features: int,
                   edges: Iterable[tuple[int, int]],
                   features: Iterable[tuple[int, int]] = (),
                   labels: np.ndarray | None = None,
                   n_classes: int = 0) -> "AttributedGraph":
        g = cls(n_nodes, n_features, n_classes=n_classes, labels=labels)
        for u, v in edges:
            if not g.has_edge(u, v):
                g.flip_edge_inplace(u, v)
        for u, i in features:
            if not g.has_feature(u, i):
                g.flip_feature_inplace(u, i)
        return g

    def copy(self) -> "AttributedGraph":
        g = AttributedGraph.__new__(AttributedGraph)
        g.n_nodes = self.n_nodes
        g.n_features = self.n_features
        g.n_classes = self.n_classes
        g._adj = [set(s) for s in self._adj]
        g._feat = [set(s) for s in self._feat]
        g._degrees = self._degrees.copy()
        g._n_edges = self._n_edges
        g.labels = self.labels.copy()
        return g

    # -- range checks ---------------------------------------------------

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n_nodes:
            raise GraphError(f"node id {u} out of range [0, {self.n_nodes})")

    def _check_feature(self, i: int) -> None:
        if not 0 <= i < self.n_features:
            raise GraphError(f"feature id {i} out of range [0, {self.n_features})")

    # -- queries ----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def neighbors(self, u: int) -> set[int]:
        """Neighbor set of u. Treat as read-only."""
        self._check_node(u)
        return self._adj[u]

    def degree(self, u: int) -> int:
        self._check_node(u)
        return int(self._degrees[u])

    @property
    def degrees(self) -> np.ndarray:
        """Cached degree array. Treat as read-only."""
        return self._degrees

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def has_feature(self, u: int, i: int) -> bool:
        self._check_node(u)
        self._check_feature(i)
        return i in self._feat[u]

    def features_of(self, u: int) -> set[int]:
        """Feature-id set of u. Treat as read-only."""
        self._check_node(u)
        return self._feat[u]

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        return sorted((u, v) for u in range(self.n_nodes) for v in self._adj[u] if u < v)

    def feature_list(self) -> list[tuple[int, int]]:
        return sorted((u, i) for u in range(self.n_nodes) for i in self._feat[u])

    def two_hop_neighborhood(self, u: int) -> set[int]:
        """Nodes reachable from u in at most two edges, including u itself."""
        self._check_node(u)
        out = {u} | self._adj[u]
        for w in self._adj[u]:
            out |= self._adj[w]
        return out

    # -- flips ------------------------------------------------------------

    def flip_edge_inplace(self, u: int, v: int) -> None:
        """Toggle the (u, v) edge; both symmetric entries change together."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError("self-loops are not allowed")
        if v in self._adj[u]:
            self._adj[u].discard(v)
            self._adj[v].discard(u)
            self._degrees[u] -= 1
            self._degrees[v] -= 1
            self._n_edges -= 1
        else:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._degrees[u] += 1
            self._degrees[v] += 1
            self._n_edges += 1

    def flip_edge(self, u: int, v: int) -> "AttributedGraph":
        g = self.copy()
        g.flip_edge_inplace(u, v)
        return g

    def flip_feature_inplace(self, u: int, i: int) -> None:
        self._check_node(u)
        self._check_feature(i)
        if i in self._feat[u]:
            self._feat[u].discard(i)
        else:
            self._feat[u].add(i)

    def flip_feature(self, u: int, i: int) -> "AttributedGraph":
        g = self.copy()
        g.flip_feature_inplace(u, i)
        return g

    def apply_inplace(self, p: Perturbation) -> None:
        if p.kind == EDGE:
            self.flip_edge_inplace(p.u, p.v)
        else:
            self.flip_feature_inplace(p.u, p.v)

    # -- matrix views -----------------------------------------------------

    def adjacency_matrix(self) -> sp.csr_matrix:
        rows, cols = [], []
        for u in range(self.n_nodes):
            for v in self._adj[u]:
                rows.append(u)
                cols.append(v)
        data = np.ones(len(rows), dtype=np.float64)
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n_nodes, self.n_nodes))

    def feature_matrix(self) -> sp.csr_matrix:
        rows, cols = [], []
        for u in range(self.n_nodes):
            for i in self._feat[u]:
                rows.append(u)
                cols.append(i)
        data = np.ones(len(rows), dtype=np.float64)
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n_nodes, self.n_features))

    def adjacency_row(self, u: int) -> np.ndarray:
        """Dense 0/1 row of the adjacency matrix."""
        self._check_node(u)
        row = np.zeros(self.n_nodes, dtype=np.float64)
        idx = list(self._adj[u])
        if idx:
            row[idx] = 1.0
        return row

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        """Raise GraphError if any structural invariant is broken."""
        degs = np.zeros(self.n_nodes, dtype=np.int64)
        n_edges = 0
        for u in range(self.n_nodes):
            if u in self._adj[u]:
                raise GraphError(f"self-loop at node {u}")
            for v in self._adj[u]:
                if u not in self._adj[v]:
                    raise GraphError(f"asymmetric edge ({u}, {v})")
                if u < v:
                    n_edges += 1
            degs[u] = len(self._adj[u])
        if not np.array_equal(degs, self._degrees):
            raise GraphError("cached degrees out of sync")
        if n_edges != self._n_edges:
            raise GraphError("cached edge count out of sync")
        if self.labels.min(initial=0) < 0:
            raise GraphError("negative label id")
        if self.n_classes and self.labels.max(initial=0) > self.n_classes:
            raise GraphError("label id exceeds n_classes")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        return (self.n_nodes == other.n_nodes
                and self.n_features == other.n_features
                and self.n_classes == other.n_classes
                and self._adj == other._adj
                and self._feat == other._feat
                and np.array_equal(self.labels, other.labels))

    def __repr__(self) -> str:
        return (f"AttributedGraph(n_nodes={self.n_nodes}, n_edges={self._n_edges}, "
                f"n_features={self.n_features}, n_classes={self.n_classes})")


def connected_components(g: AttributedGraph) -> list[list[int]]:
    """BFS components, each sorted ascending, ordered by smallest contained id."""
    seen = np.zeros(g.n_nodes, dtype=bool)
    comps = []
    for start in range(g.n_nodes):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            u = queue.pop()
            for v in g.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def induced_subgraph(g: AttributedGraph,
                     nodes) -> tuple[AttributedGraph, np.ndarray]:
    """Node-induced subgraph on `nodes` with densely remapped ids.

    Returns the subgraph, whose node k is the k-th smallest of `nodes`,
    and the array mapping new id -> original id.
    """
    mapping = np.asarray(sorted(nodes), dtype=np.int64)
    inverse = {orig: new for new, orig in enumerate(mapping)}
    sub = AttributedGraph(len(mapping), g.n_features, n_classes=g.n_classes,
                          labels=g.labels[mapping])
    for new_u, orig_u in enumerate(mapping):
        for orig_v in g.neighbors(orig_u):
            new_v = inverse.get(orig_v)
            if new_v is not None and new_u < new_v:
                sub.flip_edge_inplace(new_u, new_v)
        for i in g.features_of(orig_u):
            sub.flip_feature_inplace(new_u, i)
    return sub, mapping
