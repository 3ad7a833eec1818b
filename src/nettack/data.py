"""Bundle I/O, JSON in and out, largest-connected-component extraction,
and data splits.

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
from scipy.sparse import csgraph

from .graph import AttributedGraph, GraphError, induced_subgraph, is_int, require_int

log = logging.getLogger(__name__)

BUNDLE_FILES = ("edges.tsv", "features.tsv", "labels.tsv", "meta.json")
META_KEYS = ("n_nodes", "n_features", "n_classes")
INT64 = np.iinfo(np.int64)


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
        json_object(d, "split", ("train_ids", "validation_ids", "unlabeled_ids", "rng_seed"))
        if not is_int(d["rng_seed"]):
            raise BundleError("split rng_seed must be an integer")
        return DataSplit(
            train_ids=node_ids(d["train_ids"], "split train_ids"),
            validation_ids=node_ids(d["validation_ids"], "split validation_ids"),
            unlabeled_ids=node_ids(d["unlabeled_ids"], "split unlabeled_ids"),
            rng_seed=int(d["rng_seed"]),
        )

    def check(self, n_nodes: int) -> None:
        """Reject ids outside [0, n_nodes) and ids held twice: the three
        sets must be disjoint, and no set may repeat an id."""
        ids = np.concatenate([self.train_ids, self.validation_ids, self.unlabeled_ids])
        out = ids[(ids < 0) | (ids >= n_nodes)]
        if len(out):
            raise BundleError(f"split id {out[0]} out of range [0, {n_nodes})")
        values, counts = np.unique(ids, return_counts=True)
        if (counts > 1).any():
            raise BundleError(f"split id {values[counts > 1][0]} is listed more than once; "
                              "train, validation and unlabeled ids must be disjoint")

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict(), indent=1)

    @staticmethod
    def load(path: str | Path) -> "DataSplit":
        return DataSplit.from_dict(json.loads(Path(path).read_text()))


def node_ids(values, what: str) -> np.ndarray:
    """Node ids read from JSON: a list of int64 integers, else a BundleError."""
    if not isinstance(values, list) or not all(is_int(v) for v in values):
        raise BundleError(f"{what} must be a list of integer node ids")
    wide = [v for v in values if not INT64.min <= v <= INT64.max]
    if wide:
        raise BundleError(f"{what} node ids must fit in int64, got {wide[0]}")
    return np.asarray(values, dtype=np.int64)


def json_object(value, what: str, keys=()) -> dict:
    """`value` if it is a JSON object with every key in `keys`, else a BundleError."""
    if not isinstance(value, dict):
        raise BundleError(f"a {what} must be a JSON object")
    missing = [k for k in keys if k not in value]
    if missing:
        raise BundleError(f"{what} missing key {missing[0]!r}")
    return value


def write_json(path: str | Path, obj, indent: int | None = None) -> None:
    """Write `obj` as strict JSON (sorted keys, no NaN or infinity) plus a newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=indent,
                                     allow_nan=False) + "\n")


def _read_table(path: Path, bounds, binary_value: bool = False) -> np.ndarray:
    """(n, 2) ids of a bundle table; column j's ids lie in [0, bounds[j][1]).

    With `binary_value` a third column may hold 0 (no row) or 1. The
    first bad line raises a BundleError naming the file and line.
    """
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            parts = line.split()
        if len(parts) < 2:
            raise BundleError(f"{path}:{lineno}: expected at least two columns")
        try:
            ids = (int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise BundleError(f"{path}:{lineno}: non-integer id") from exc
        for x, (what, bound) in zip(ids, bounds):
            if not 0 <= x < bound:
                raise BundleError(f"{path}:{lineno}: {what} id out of range [0, {bound})")
        if binary_value and len(parts) >= 3:
            try:
                value = int(parts[2])
            except ValueError as exc:
                raise BundleError(f"{path}:{lineno}: non-integer feature value") from exc
            if value not in (0, 1):
                raise BundleError(f"{path}:{lineno}: non-binary feature value {value}")
            if value == 0:
                continue
        rows.append(ids)
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def load_bundle_stats(path: str | Path) -> tuple[AttributedGraph, LoadStats]:
    """Load a bundle, returning the graph plus cleanup counters."""
    root = Path(path)
    for name in BUNDLE_FILES:
        if not (root / name).exists():
            raise BundleError(f"missing bundle file: {root / name}")
    meta = json_object(json.loads((root / "meta.json").read_text()), "meta.json", META_KEYS)
    counts = {k: meta[k] for k in META_KEYS}
    if not all(is_int(c) for c in counts.values()):
        raise BundleError(f"meta.json counts must be integers, got {counts}")
    if not all(INT64.min <= c <= INT64.max for c in counts.values()):
        raise BundleError(f"meta.json counts must fit in int64, got {counts}")
    if min(counts.values()) < 0:
        raise BundleError(f"meta.json counts must be at least 0, got {counts}")
    n_nodes, n_features, n_classes = counts.values()

    node = ("node", n_nodes)
    edges = _read_table(root / "edges.tsv", (node, node))
    features = _read_table(root / "features.tsv", (node, ("feature", n_features)), True)
    labelled = _read_table(root / "labels.tsv", (node, ("class", n_classes)))

    loop = edges[:, 0] == edges[:, 1]
    edges = edges[~loop]
    stats = LoadStats(int(loop.sum()), len(edges) - len(np.unique(np.sort(edges), axis=0)))
    if stats.self_loops_dropped or stats.duplicate_edges_dropped:
        log.warning("bundle %s: dropped %d self-loops, %d duplicate edges",
                    root, stats.self_loops_dropped, stats.duplicate_edges_dropped)

    # Stored 1-based, 0 = unlabeled; the last line of a node wins.
    last = len(labelled) - 1 - np.unique(labelled[::-1, 0], return_index=True)[1]
    labels = np.zeros(n_nodes, dtype=np.int64)
    labels[labelled[last, 0]] = labelled[last, 1] + 1
    g = AttributedGraph.from_edges(n_nodes, n_features, edges, features,
                                   labels=labels, n_classes=n_classes)
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
    write_json(root / "meta.json", meta)


def extract_lcc(g: AttributedGraph) -> tuple[AttributedGraph, np.ndarray]:
    """Node-induced subgraph on the largest connected component.

    Returns the subgraph with densely remapped ids and an array mapping
    new id -> original id. Ties between equally large components go to
    the one with the smallest original id, which scipy numbers first.
    """
    if g.n_nodes == 0:
        raise GraphError("cannot extract a component from an empty graph")
    _, comp = csgraph.connected_components(g.adj, directed=False)
    return induced_subgraph(g, np.flatnonzero(comp == np.argmax(np.bincount(comp))))


def make_split(g: AttributedGraph, seed: int) -> DataSplit:
    """Uniform 10% train / 10% validation / 80% unlabeled node split."""
    require_int("seed", seed, 0)
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
