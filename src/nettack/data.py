"""Bundle I/O, largest-connected-component extraction, and data splits.

A graph bundle is a directory with four files:

    edges.tsv     one "u<TAB>v" per line, 0-based ids, u < v, each edge once
    features.tsv  one "u<TAB>i" per line meaning feature i is set for node u
                  (an optional third column must be 0 or 1)
    labels.tsv    one "u<TAB>c" per line, c in 0..K-1 (stored 1-based in memory)
    meta.json     {"n_nodes": int, "n_features": int, "n_classes": int}
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import AttributedGraph, GraphError, connected_components, induced_subgraph

log = logging.getLogger(__name__)

BUNDLE_FILES = ("edges.tsv", "features.tsv", "labels.tsv", "meta.json")


class BundleError(ValueError):
    """Malformed or missing bundle data."""


@dataclass
class LoadStats:
    """Cleanup counters from a bundle load."""

    self_loops_dropped: int = 0
    duplicate_edges_dropped: int = 0


@dataclass
class DataSplit:
    """Disjoint train/validation/unlabeled node-id partition (10/10/80)."""

    train_ids: np.ndarray
    validation_ids: np.ndarray
    unlabeled_ids: np.ndarray
    rng_seed: int

    def to_dict(self) -> dict:
        return {
            "train_ids": [int(x) for x in self.train_ids],
            "validation_ids": [int(x) for x in self.validation_ids],
            "unlabeled_ids": [int(x) for x in self.unlabeled_ids],
            "rng_seed": int(self.rng_seed),
        }

    @staticmethod
    def from_dict(d: dict) -> "DataSplit":
        return DataSplit(
            train_ids=np.asarray(d["train_ids"], dtype=np.int64),
            validation_ids=np.asarray(d["validation_ids"], dtype=np.int64),
            unlabeled_ids=np.asarray(d["unlabeled_ids"], dtype=np.int64),
            rng_seed=int(d["rng_seed"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n")

    @staticmethod
    def load(path: str | Path) -> "DataSplit":
        return DataSplit.from_dict(json.loads(Path(path).read_text()))


def _parse_int_pair(line: str, path: Path, lineno: int) -> tuple[int, int, list[str]]:
    parts = line.split("\t")
    if len(parts) < 2:
        parts = line.split()
    if len(parts) < 2:
        raise BundleError(f"{path}:{lineno}: expected at least two columns")
    try:
        return int(parts[0]), int(parts[1]), parts
    except ValueError as exc:
        raise BundleError(f"{path}:{lineno}: non-integer id") from exc


def load_bundle_stats(path: str | Path) -> tuple[AttributedGraph, LoadStats]:
    """Load a bundle, returning the graph plus cleanup counters."""
    root = Path(path)
    for name in BUNDLE_FILES:
        if not (root / name).exists():
            raise BundleError(f"missing bundle file: {root / name}")
    meta = json.loads((root / "meta.json").read_text())
    try:
        n_nodes = int(meta["n_nodes"])
        n_features = int(meta["n_features"])
        n_classes = int(meta["n_classes"])
    except KeyError as exc:
        raise BundleError(f"meta.json missing key {exc}") from exc

    stats = LoadStats()
    edges: set[tuple[int, int]] = set()
    p = root / "edges.tsv"
    for lineno, line in enumerate(p.read_text().splitlines(), 1):
        if not line.strip():
            continue
        u, v, _ = _parse_int_pair(line, p, lineno)
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise BundleError(f"{p}:{lineno}: node id out of range [0, {n_nodes})")
        if u == v:
            stats.self_loops_dropped += 1
            continue
        key = (min(u, v), max(u, v))
        if key in edges:
            stats.duplicate_edges_dropped += 1
            continue
        edges.add(key)

    features: set[tuple[int, int]] = set()
    p = root / "features.tsv"
    for lineno, line in enumerate(p.read_text().splitlines(), 1):
        if not line.strip():
            continue
        u, i, parts = _parse_int_pair(line, p, lineno)
        if not (0 <= u < n_nodes):
            raise BundleError(f"{p}:{lineno}: node id out of range [0, {n_nodes})")
        if not (0 <= i < n_features):
            raise BundleError(f"{p}:{lineno}: feature id out of range [0, {n_features})")
        if len(parts) >= 3:
            try:
                value = int(parts[2])
            except ValueError as exc:
                raise BundleError(f"{p}:{lineno}: non-integer feature value") from exc
            if value not in (0, 1):
                raise BundleError(f"{p}:{lineno}: non-binary feature value {value}")
            if value == 0:
                continue
        features.add((u, i))

    labels = np.zeros(n_nodes, dtype=np.int64)
    p = root / "labels.tsv"
    for lineno, line in enumerate(p.read_text().splitlines(), 1):
        if not line.strip():
            continue
        u, c, _ = _parse_int_pair(line, p, lineno)
        if not (0 <= u < n_nodes):
            raise BundleError(f"{p}:{lineno}: node id out of range [0, {n_nodes})")
        if not (0 <= c < n_classes):
            raise BundleError(f"{p}:{lineno}: class id out of range [0, {n_classes})")
        labels[u] = c + 1  # stored 1-based; 0 = unlabeled

    if stats.self_loops_dropped or stats.duplicate_edges_dropped:
        log.warning("bundle %s: dropped %d self-loops, %d duplicate edges",
                    root, stats.self_loops_dropped, stats.duplicate_edges_dropped)

    g = AttributedGraph.from_edges(n_nodes, n_features, sorted(edges),
                                   sorted(features), labels=labels, n_classes=n_classes)
    return g, stats


def load_bundle(path: str | Path) -> AttributedGraph:
    """Load a bundle directory into a validated graph."""
    return load_bundle_stats(path)[0]


def save_bundle(g: AttributedGraph, path: str | Path) -> None:
    """Write a graph as a canonical bundle (sorted lines, u < v edges)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "edges.tsv").write_text(
        "".join(f"{u}\t{v}\n" for u, v in g.edge_list()))
    (root / "features.tsv").write_text(
        "".join(f"{u}\t{i}\n" for u, i in g.feature_list()))
    (root / "labels.tsv").write_text(
        "".join(f"{u}\t{int(c) - 1}\n" for u, c in enumerate(g.labels) if c > 0))
    meta = {"n_nodes": g.n_nodes, "n_features": g.n_features, "n_classes": g.n_classes}
    (root / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")


def extract_lcc(g: AttributedGraph) -> tuple[AttributedGraph, np.ndarray]:
    """Node-induced subgraph on the largest connected component.

    Returns the subgraph with densely remapped ids and an array mapping
    new id -> original id. Ties between equally large components go to
    the one containing the smallest original id.
    """
    if g.n_nodes == 0:
        raise GraphError("cannot extract a component from an empty graph")
    comps = connected_components(g)
    best = max(comps, key=lambda c: (len(c), -c[0]))
    return induced_subgraph(g, best)


def make_split(g: AttributedGraph, seed: int) -> DataSplit:
    """Uniform 10% train / 10% validation / 80% unlabeled node split."""
    n = g.n_nodes
    if n < 10:
        raise BundleError("need at least 10 nodes to split")
    if np.any(g.labels == 0):
        raise BundleError("splits require ground-truth labels for all nodes")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_labeled = int(round(0.2 * n))
    n_train = n_labeled // 2
    train = np.sort(order[:n_train])
    val = np.sort(order[n_train:n_labeled])
    unlabeled = np.sort(order[n_labeled:])
    return DataSplit(train_ids=train, validation_ids=val,
                     unlabeled_ids=unlabeled, rng_seed=seed)
