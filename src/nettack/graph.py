"""Sparse undirected attributed graph on two canonical boolean CSR matrices.

The adjacency (N x N, symmetric, zero diagonal) and the binary features
(N x D) are each held as one boolean CSR matrix with sorted indices and
no duplicates; nothing else is stored. Degrees, the edge count and rows
(`neighbors`, `features_of`) are read off the index arrays, views are
dtype casts, and a flip replaces the one matrix it changes by a new one
whose index arrays are copies with the flipped entries inserted or
deleted, so copies share matrices. Labels are 1-based, 0 = unlabeled.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

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


def is_int(x) -> bool:
    """An integer that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def require_int(what: str, value, least: int) -> None:
    """Reject `value` unless it is an integer (not a bool) of at least `least`."""
    if not (is_int(value) and value >= least):
        raise ValueError(f"{what} must be an integer of at least {least}, got {value!r}")


def is_finite_number(x) -> bool:
    """A finite real number that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


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


def _bool_csr(rows, cols, shape: tuple[int, int]) -> sp.csr_matrix:
    """Canonical boolean CSR with True at each (row, col); repeats collapse."""
    m = sp.csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=shape)
    m.sum_duplicates()
    return m


def _toggled(m: sp.csr_matrix, rows, cols) -> sp.csr_matrix:
    """Canonical boolean CSR equal to `m` with the distinct entries
    (rows[k], cols[k]) toggled; `m` itself is left unchanged.

    Each entry's slot is found by binary search within its row. The slots
    are then processed from the last to the first, ties broken by row, so
    each insertion or deletion leaves the slots still to come valid.
    """
    indptr, indices = m.indptr, m.indices
    shift = np.zeros(len(indptr), dtype=indptr.dtype)
    slots = []
    for r, c in zip(rows, cols):
        lo, hi = indptr[r], indptr[r + 1]
        k = lo + int(np.searchsorted(indices[lo:hi], c))
        slots.append((k, r, c, k < hi and indices[k] == c))
    for k, r, c, present in sorted(slots, reverse=True):
        indices = np.delete(indices, k) if present else np.insert(indices, k, c)
        shift[r + 1] += -1 if present else 1
    return sp.csr_matrix((np.ones(len(indices), dtype=bool), indices,
                          indptr + np.cumsum(shift)), shape=m.shape)


def _check_ids(ids: np.ndarray, n: int, what: str) -> None:
    bad = ids[(ids < 0) | (ids >= n)]
    if bad.size:
        raise GraphError(f"{what} id {bad[0]} out of range [0, {n})")


class AttributedGraph:
    """Undirected graph with binary node features and optional labels.

    `adj` and `feat` are canonical boolean CSR matrices. Treat them as
    read-only: a flip replaces the matrix it changes by a new one and
    never writes into the old one, which copies may share.

    Invariants: adjacency symmetric with zero diagonal; label ids in
    {0, 1..n_classes} where 0 marks an unlabeled node.
    """

    def __init__(self, n_nodes: int, n_features: int, n_classes: int = 0,
                 labels: np.ndarray | None = None):
        if n_nodes < 0 or n_features < 0:
            raise GraphError("node and feature counts must be non-negative")
        self.n_nodes = int(n_nodes)
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self.adj = sp.csr_matrix((self.n_nodes, self.n_nodes), dtype=bool)
        self.feat = sp.csr_matrix((self.n_nodes, self.n_features), dtype=bool)
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
                   edges: Sequence[tuple[int, int]] | np.ndarray,
                   features: Sequence[tuple[int, int]] | np.ndarray = (),
                   labels: np.ndarray | None = None,
                   n_classes: int = 0) -> "AttributedGraph":
        """Graph with the given edges and (node, feature) pairs set.

        Repeated and reversed pairs count once; self-loops and
        out-of-range ids raise GraphError.
        """
        g = cls(n_nodes, n_features, n_classes=n_classes, labels=labels)
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        f = np.asarray(features, dtype=np.int64).reshape(-1, 2)
        _check_ids(e.ravel(), g.n_nodes, "node")
        _check_ids(f[:, 0], g.n_nodes, "node")
        _check_ids(f[:, 1], g.n_features, "feature")
        if np.any(e[:, 0] == e[:, 1]):
            raise GraphError("self-loops are not allowed")
        g.adj = _bool_csr(np.r_[e[:, 0], e[:, 1]], np.r_[e[:, 1], e[:, 0]],
                          g.adj.shape)
        g.feat = _bool_csr(f[:, 0], f[:, 1], g.feat.shape)
        return g

    def copy(self) -> "AttributedGraph":
        g = AttributedGraph.__new__(AttributedGraph)
        g.__dict__.update(self.__dict__)
        g.labels = self.labels.copy()
        return g

    # -- range checks ---------------------------------------------------

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n_nodes:
            raise GraphError(f"node id {u} out of range [0, {self.n_nodes})")

    # -- queries ----------------------------------------------------------

    @staticmethod
    def _row(m: sp.csr_matrix, u: int) -> np.ndarray:
        out = m.indices[m.indptr[u]:m.indptr[u + 1]]
        out.flags.writeable = False
        return out

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of u (read-only)."""
        self._check_node(u)
        return self._row(self.adj, u)

    def degree(self, u: int) -> int:
        self._check_node(u)
        return int(self.adj.indptr[u + 1] - self.adj.indptr[u])

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node."""
        return np.diff(self.adj.indptr).astype(np.int64)

    @property
    def n_edges(self) -> int:
        return self.adj.nnz // 2

    def features_of(self, u: int) -> np.ndarray:
        """Sorted feature ids of u (read-only)."""
        self._check_node(u)
        return self._row(self.feat, u)

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        a = sp.triu(self.adj, k=1, format="coo")
        return list(zip(a.row.tolist(), a.col.tolist()))

    def feature_list(self) -> list[tuple[int, int]]:
        f = self.feat.tocoo()
        return list(zip(f.row.tolist(), f.col.tolist()))

    def two_hop_neighborhood(self, u: int) -> set[int]:
        """Nodes reachable from u in at most two edges, including u itself."""
        nbrs = self.neighbors(u)
        return set(np.r_[u, nbrs, self.adj[nbrs].indices].tolist())

    # -- flips ------------------------------------------------------------

    def flip_edge_inplace(self, u: int, v: int) -> None:
        """Toggle the (u, v) edge; both symmetric entries change together."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError("self-loops are not allowed")
        self.adj = _toggled(self.adj, (u, v), (v, u))

    def flip_edge(self, u: int, v: int) -> "AttributedGraph":
        g = self.copy()
        g.flip_edge_inplace(u, v)
        return g

    def flip_feature_inplace(self, u: int, i: int) -> None:
        self._check_node(u)
        if not 0 <= i < self.n_features:
            raise GraphError(f"feature id {i} out of range [0, {self.n_features})")
        self.feat = _toggled(self.feat, (u,), (i,))

    def apply_inplace(self, p: Perturbation) -> None:
        if p.kind == EDGE:
            self.flip_edge_inplace(p.u, p.v)
        else:
            self.flip_feature_inplace(p.u, p.v)

    # -- matrix views -----------------------------------------------------

    def adjacency_matrix(self) -> sp.csr_matrix:
        return self.adj.astype(np.float64)

    def feature_matrix(self) -> sp.csr_matrix:
        return self.feat.astype(np.float64)

    def adjacency_row(self, u: int) -> np.ndarray:
        """Dense 0/1 row of the adjacency matrix."""
        self._check_node(u)
        a = self.adj  # sliced inline: hot path
        row = np.zeros(self.n_nodes, dtype=np.float64)
        row[a.indices[a.indptr[u]:a.indptr[u + 1]]] = 1.0
        return row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        return (self.n_nodes == other.n_nodes
                and self.n_features == other.n_features
                and self.n_classes == other.n_classes
                and (self.adj != other.adj).nnz == 0
                and (self.feat != other.feat).nnz == 0
                and np.array_equal(self.labels, other.labels))

    def __repr__(self) -> str:
        return (f"AttributedGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges}, "
                f"n_features={self.n_features}, n_classes={self.n_classes})")


def check_target(g: AttributedGraph, v0: int) -> None:
    """Reject a target id outside [0, N) (so -1 never indexes from the end)."""
    if not 0 <= v0 < g.n_nodes:
        raise GraphError(f"target {v0} out of range [0, {g.n_nodes})")


def induced_subgraph(g: AttributedGraph,
                     nodes) -> tuple[AttributedGraph, np.ndarray]:
    """Node-induced subgraph on `nodes` with densely remapped ids.

    Returns the subgraph, whose node k is the k-th smallest of `nodes`,
    and the array mapping new id -> original id.
    """
    mapping = np.unique(np.fromiter(nodes, dtype=np.int64))
    sub = AttributedGraph(len(mapping), g.n_features, n_classes=g.n_classes,
                          labels=g.labels[mapping])
    sub.adj = g.adj[mapping][:, mapping]
    sub.feat = g.feat[mapping]
    return sub, mapping
