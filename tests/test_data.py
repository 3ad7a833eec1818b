import json
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csgraph

from nettack.data import (BundleError, DataSplit, extract_lcc, load_bundle,
                          load_bundle_stats, make_split, save_bundle, write_json)
from nettack.graph import AttributedGraph, GraphError
from helpers import random_graph


def write_bundle(path, edges, features, labels, meta):
    path.mkdir(parents=True, exist_ok=True)
    (path / "edges.tsv").write_text("".join(f"{u}\t{v}\n" for u, v in edges))
    (path / "features.tsv").write_text("".join("\t".join(str(x) for x in row) + "\n"
                                               for row in features))
    (path / "labels.tsv").write_text("".join(f"{u}\t{c}\n" for u, c in labels))
    (path / "meta.json").write_text(json.dumps(meta))


def test_round_trip_exact(tmp_path):
    g = random_graph(25, 0.2, seed=5, n_features=10, n_classes=4)
    save_bundle(g, tmp_path / "b")
    assert load_bundle(tmp_path / "b") == g


def test_self_loop_dropped_with_warning(tmp_path):
    write_bundle(tmp_path / "b", [(0, 1), (3, 3)], [], [(0, 0)],
                 {"n_nodes": 4, "n_features": 2, "n_classes": 1})
    g, stats = load_bundle_stats(tmp_path / "b")
    assert stats.self_loops_dropped == 1
    assert g.edge_list() == [(0, 1)]


def test_duplicate_edges_deduplicated(tmp_path):
    write_bundle(tmp_path / "b", [(0, 1), (1, 0), (0, 1)], [], [(0, 0)],
                 {"n_nodes": 2, "n_features": 1, "n_classes": 1})
    g, stats = load_bundle_stats(tmp_path / "b")
    assert stats.duplicate_edges_dropped == 2
    assert g.n_edges == 1


def test_non_binary_feature_value_rejected(tmp_path):
    write_bundle(tmp_path / "b", [(0, 1)], [(0, 0, 2)], [(0, 0)],
                 {"n_nodes": 2, "n_features": 1, "n_classes": 1})
    with pytest.raises(BundleError, match="non-binary"):
        load_bundle(tmp_path / "b")


def test_missing_file_rejected(tmp_path):
    (tmp_path / "b").mkdir()
    with pytest.raises(BundleError, match="missing"):
        load_bundle(tmp_path / "b")


def test_out_of_range_ids_rejected(tmp_path):
    write_bundle(tmp_path / "b", [(0, 5)], [], [(0, 0)],
                 {"n_nodes": 3, "n_features": 1, "n_classes": 1})
    with pytest.raises(BundleError, match="out of range"):
        load_bundle(tmp_path / "b")


def test_lcc_tie_break_two_triangles():
    g = AttributedGraph.from_edges(7, 0, [(0, 1), (1, 2), (0, 2),
                                          (3, 4), (4, 5), (3, 5)])
    sub, mapping = extract_lcc(g)
    assert sub.n_nodes == 3
    assert list(mapping) == [0, 1, 2]  # smallest-id component wins the tie
    assert sub.edge_list() == [(0, 1), (0, 2), (1, 2)]
    # An isolated node 0 comes first, and the tied triangles {1, 4, 5} and
    # {2, 3, 6} interleave their ids: the one holding the smaller id wins.
    g = AttributedGraph.from_edges(7, 0, [(1, 4), (4, 5), (1, 5),
                                          (2, 3), (3, 6), (2, 6)])
    sub, mapping = extract_lcc(g)
    assert list(mapping) == [1, 4, 5]
    assert sub.edge_list() == [(0, 1), (0, 2), (1, 2)]


def test_lcc_connected_graph_identity():
    g = AttributedGraph.from_edges(4, 2, [(0, 1), (1, 2), (2, 3)],
                                   [(0, 0), (3, 1)],
                                   labels=np.array([1, 1, 2, 2]), n_classes=2)
    sub, mapping = extract_lcc(g)
    assert sub == g
    assert list(mapping) == [0, 1, 2, 3]


def test_lcc_output_connected():
    g = random_graph(40, 0.05, seed=9)
    sub, _ = extract_lcc(g)
    assert csgraph.connected_components(sub.adj, directed=False)[0] == 1


def test_lcc_keeps_labels_and_features():
    g = AttributedGraph.from_edges(5, 3, [(1, 2), (2, 3)], [(2, 1)],
                                   labels=np.array([1, 2, 1, 2, 1]), n_classes=2)
    sub, mapping = extract_lcc(g)
    assert list(mapping) == [1, 2, 3]
    assert list(sub.labels) == [2, 1, 2]
    assert 1 in sub.features_of(1)


def test_lcc_empty_graph_rejected():
    with pytest.raises(GraphError):
        extract_lcc(AttributedGraph(0, 0))


def test_split_sizes_n100():
    g = random_graph(100, 0.05, seed=1)
    s = make_split(g, seed=1)
    assert len(s.train_ids) == 10
    assert len(s.validation_ids) == 10
    assert len(s.unlabeled_ids) == 80


def test_split_deterministic():
    g = random_graph(60, 0.05, seed=1)
    a, b = make_split(g, seed=7), make_split(g, seed=7)
    assert np.array_equal(a.train_ids, b.train_ids)
    assert np.array_equal(a.validation_ids, b.validation_ids)
    assert np.array_equal(a.unlabeled_ids, b.unlabeled_ids)


def test_split_varies_with_seed():
    g = random_graph(200, 0.02, seed=1)
    a, b = make_split(g, seed=1), make_split(g, seed=2)
    assert not np.array_equal(a.train_ids, b.train_ids)


def test_split_partitions_nodes():
    g = random_graph(57, 0.05, seed=2)
    s = make_split(g, seed=3)
    combined = np.concatenate([s.train_ids, s.validation_ids, s.unlabeled_ids])
    assert sorted(combined) == list(range(57))


def test_split_too_small_rejected():
    g = random_graph(9, 0.2, seed=1)
    with pytest.raises(BundleError):
        make_split(g, seed=1)


def test_split_requires_labels():
    g = AttributedGraph(20, 0)  # all unlabeled
    with pytest.raises(BundleError):
        make_split(g, seed=1)


def test_split_json_round_trip(tmp_path):
    g = random_graph(30, 0.1, seed=4)
    s = make_split(g, seed=5)
    s.save(tmp_path / "split.json")
    s2 = DataSplit.load(tmp_path / "split.json")
    assert np.array_equal(s.train_ids, s2.train_ids)
    assert s2.rng_seed == 5


CITESEER = Path(os.environ.get("NETTACK_CITESEER_BUNDLE",
                               Path(__file__).resolve().parent.parent
                               / "data" / "citeseer"))


@pytest.mark.skipif(not CITESEER.exists(),
                    reason="user-supplied Citeseer bundle not present")
def test_citeseer_lcc_counts():
    g = load_bundle(CITESEER)
    sub, _ = extract_lcc(g)
    assert sub.n_nodes == 2110
    assert sub.n_edges == 3757


def bundle_with(path, **tables):
    """A 4-node, 2-feature, 2-class bundle with some files replaced by text."""
    files = {"edges.tsv": "0\t1\n1\t2\n", "features.tsv": "0\t0\n3\t1\n",
             "labels.tsv": "0\t0\n1\t1\n2\t0\n3\t1\n",
             "meta.json": json.dumps({"n_nodes": 4, "n_features": 2, "n_classes": 2})}
    files.update({f"{k}.tsv" if k != "meta" else "meta.json": v for k, v in tables.items()})
    path.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (path / name).write_text(text)
    return path


@pytest.mark.parametrize("table,text,lineno,message", [
    ("edges", "0\t1\n\n2\n", 3, "expected at least two columns"),
    ("edges", "0\tx\n", 1, "non-integer id"),
    ("edges", "0\t1\n1\t4\n", 2, "node id out of range [0, 4)"),
    ("edges", "-1 2\n", 1, "node id out of range [0, 4)"),
    ("edges", "0\t9\n0\tx\n", 1, "node id out of range [0, 4)"),
    ("edges", "9\tx\n", 1, "non-integer id"),
    ("features", "1.5\t0\n", 1, "non-integer id"),
    ("features", "4\t0\n", 1, "node id out of range [0, 4)"),
    ("features", "0\t2\n", 1, "feature id out of range [0, 2)"),
    ("features", "0\t1\tx\n", 1, "non-integer feature value"),
    ("features", "0\t1\t1\n0\t1\t2\n", 2, "non-binary feature value 2"),
    ("features", "0\t1\t-1\n", 1, "non-binary feature value -1"),
    ("labels", "0\n", 1, "expected at least two columns"),
    ("labels", "a\t0\n", 1, "non-integer id"),
    ("labels", "0\t0\n7\t0\n", 2, "node id out of range [0, 4)"),
    ("labels", "0\t2\n", 1, "class id out of range [0, 2)"),
    ("labels", "0\t-1\n", 1, "class id out of range [0, 2)"),
])
def test_loader_error_names_file_and_line(tmp_path, table, text, lineno, message):
    root = bundle_with(tmp_path / "b", **{table: text})
    with pytest.raises(BundleError) as exc:
        load_bundle(root)
    assert str(exc.value) == f"{root / (table + '.tsv')}:{lineno}: {message}"


def test_loader_checks_edges_then_features_then_labels(tmp_path):
    root = bundle_with(tmp_path / "b", edges="0\t1\n", features="0\t9\n", labels="x\t0\n")
    with pytest.raises(BundleError, match="features.tsv:1: feature id"):
        load_bundle(root)


def test_loader_skips_blank_lines_and_splits_on_spaces(tmp_path):
    root = bundle_with(tmp_path / "b", edges="\n0 1\n  \n1\t2\n\t\n2   3\n",
                       features="0 1 1\n\n3\t0\n", labels="0 0\n1  1\n\n")
    g, stats = load_bundle_stats(root)
    assert g == AttributedGraph.from_edges(4, 2, [(0, 1), (1, 2), (2, 3)], [(0, 1), (3, 0)],
                                           labels=np.array([1, 2, 0, 0]), n_classes=2)
    assert (stats.self_loops_dropped, stats.duplicate_edges_dropped) == (0, 0)


def test_loader_counts_reversed_duplicates_and_self_loops(tmp_path):
    root = bundle_with(tmp_path / "b",
                       edges="0\t1\n1\t0\n2\t2\n1\t2\n2\t2\n2\t1\n0\t1\n3\t3\n")
    g, stats = load_bundle_stats(root)
    assert g.edge_list() == [(0, 1), (1, 2)]
    assert stats.self_loops_dropped == 3
    assert stats.duplicate_edges_dropped == 3


def test_loader_feature_repeats_zero_values_and_last_label(tmp_path):
    # A repeated feature line sets the feature once; a value of 0 sets
    # nothing and does not clear an earlier line; the last label line wins.
    root = bundle_with(tmp_path / "b",
                       features="0\t1\n0\t1\n1\t0\t0\n1\t1\t1\n2\t0\t1\n2\t0\t0\n",
                       labels="0\t0\n0\t1\n3\t1\n3\t0\n1\t1\n")
    g = load_bundle(root)
    assert g.feature_list() == [(0, 1), (1, 1), (2, 0)]
    assert list(g.labels) == [2, 2, 0, 1]


def test_loader_meta_missing_key(tmp_path):
    root = bundle_with(tmp_path / "b", meta=json.dumps({"n_nodes": 4, "n_features": 2}))
    with pytest.raises(BundleError, match="^meta.json missing key 'n_classes'$"):
        load_bundle(root)


@pytest.mark.parametrize("meta, message", [
    ([1, 2], "a meta.json must be a JSON object"),
    ({"n_nodes": None, "n_features": 2, "n_classes": 2}, "'n_nodes': None"),
    ({"n_nodes": 4, "n_features": "two", "n_classes": 2}, "'n_features': 'two'"),
    ({"n_nodes": 4.5, "n_features": 2, "n_classes": 2}, "'n_nodes': 4.5"),
    ({"n_nodes": 4, "n_features": 2, "n_classes": True}, "'n_classes': True"),
])
def test_loader_meta_must_be_an_object_of_integer_counts(tmp_path, meta, message):
    root = bundle_with(tmp_path / "b", meta=json.dumps(meta))
    with pytest.raises(BundleError, match=message):
        load_bundle(root)


def test_write_json_is_strict_sorted_json(tmp_path):
    write_json(tmp_path / "a.json", {"b": 1, "a": [0.5]}, indent=1)
    assert (tmp_path / "a.json").read_text() == '{\n "a": [\n  0.5\n ],\n "b": 1\n}\n'
    with pytest.raises(ValueError):
        write_json(tmp_path / "nan.json", {"a": float("nan")})


@pytest.mark.parametrize("seed", [True, 1.5, "1"])
def test_split_rng_seed_must_be_an_integer(seed):
    # A bool is an int to Python; a split file's seed must be a JSON integer.
    split = {"train_ids": [0], "validation_ids": [1], "unlabeled_ids": [2], "rng_seed": seed}
    with pytest.raises(BundleError, match="^split rng_seed must be an integer$"):
        DataSplit.from_dict(split)


def test_split_from_dict_needs_an_object_with_every_key():
    with pytest.raises(BundleError, match="^a split must be a JSON object$"):
        DataSplit.from_dict([1])
    with pytest.raises(BundleError, match="^split missing key 'unlabeled_ids'$"):
        DataSplit.from_dict({"train_ids": [], "validation_ids": [], "rng_seed": 0})
