"""Oracles and adapters shared across the test modules.

The oracles recompute quantities from first principles (dense matrices,
BFS, brute-force enumeration), so the incremental code paths are checked
against implementations that share none of their logic: `random_graph`,
`dense_normalized`, `dense_square`, `gcn_forward`, `bfs_two_hop`,
`surrogate_loss_scratch`, `zeta_sample` and `brute_cooccurrence`.

The adapters call library code and only reshape its interface for the
tests, so what they check is the path the library runs:
- `gcn_loss_and_grads`: one victim model's loss and gradients through
  `gcn._Problem` and `gcn._loss_and_grads`, the pass training runs;
- `estimate_alpha` and `powerlaw_loglikelihood`: the power-law fit of a
  degree multiset through `constraints._filtered_stats`,
  `alpha_from_stats` and `loglik_from_stats`, the degree test's own path;
- `evaluate_edge`: every degree-test quantity of one candidate edge flip,
  through `DegreeTestState._shift`, `alpha_from_stats`,
  `loglik_from_stats` and `lambda_from_stats`, the gate's own path;
- `reproduction_summary`: headline numbers read from the CSVs and run
  files that `experiment.run_experiment` writes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from nettack.constraints import (DEFAULT_D_MIN, DegreeTestState, _filtered_stats,
                                 alpha_from_stats, lambda_from_stats, loglik_from_stats)
from nettack.experiment import ExperimentPlan, run_experiment
from nettack.gcn import _loss_and_grads, _Problem
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


def flipped_feature(g: AttributedGraph, u: int, i: int) -> AttributedGraph:
    """A copy of `g` with feature i of node u flipped."""
    g = g.copy()
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


def gcn_loss_and_grads(w1: np.ndarray, w2: np.ndarray, ahat: sp.csr_matrix,
                       x: sp.csr_matrix, y: np.ndarray, idx: np.ndarray,
                       ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy over `idx` plus explicit weight gradients.

    The loss and gradient of one model through the code that training runs.
    """
    p = _Problem(ahat, x, y, idx, np.empty(0, dtype=np.int64))
    loss, grad_w1, grad_w2 = _loss_and_grads(p, p.layer1(w1), w2[None])
    return float(loss[0]), grad_w1, grad_w2[0]


def estimate_alpha(degrees, d_min: int = DEFAULT_D_MIN) -> float:
    """Power-law scaling parameter of a degree multiset (entries >= d_min)."""
    n, log_sum = _filtered_stats(degrees, d_min)
    return alpha_from_stats(n, log_sum, d_min)


def powerlaw_loglikelihood(degrees, alpha: float, d_min: int = DEFAULT_D_MIN,
                           as_printed: bool = False) -> float:
    """Log-likelihood of a degree multiset under a fitted power law."""
    n, log_sum = _filtered_stats(degrees, d_min)
    return loglik_from_stats(n, log_sum, alpha, d_min, as_printed)


@dataclass
class CandidateDegreeTest:
    """Degree-test quantities of one candidate edge flip."""

    n_new: int
    log_sum_new: float
    alpha_new: float
    loglik_new: float
    lam: float


def evaluate_edge(state: DegreeTestState, d_m: int, d_n: int,
                  a_mn: int) -> CandidateDegreeTest:
    """Test statistics if the edge between degrees (d_m, d_n) flipped.

    `a_mn` is the current adjacency entry (1 removes, 0 inserts).
    """
    n_new, r_new = state._shift(d_m, d_n, a_mn)
    alpha_new = alpha_from_stats(n_new, r_new, state.d_min) if n_new else float("nan")
    ll_new = (loglik_from_stats(n_new, r_new, alpha_new, state.d_min, state.as_printed)
              if n_new else 0.0)
    lam = lambda_from_stats(state.n_ref, state.log_sum_ref, n_new, r_new,
                            state.d_min, state.as_printed)
    return CandidateDegreeTest(n_new=n_new, log_sum_new=r_new,
                               alpha_new=alpha_new, loglik_new=ll_new, lam=lam)


def reproduction_summary(bundle_path: str | Path, out_dir: str | Path,
                         seeds=(1, 2, 3, 4, 5), n_high: int = 10,
                         n_low: int = 10, n_random: int = 20, runs: int = 10,
                         attacks=("nettack", "fgsm", "rnd", "nettack-in")) -> dict:
    """Full benchmark protocol on one bundle, reduced to headline numbers.

    Returns the poisoning fraction-correct per attack (clean included) and
    the mean number of flips the direct combined attack needed before its
    surrogate loss went positive (runs that never cross count at their
    full budget).
    """
    plan = ExperimentPlan(dataset=str(bundle_path), out_dir=str(out_dir),
                          seeds=tuple(seeds), attacks=tuple(attacks),
                          n_high=n_high, n_low=n_low, n_random=n_random,
                          poisoning_runs=runs, limited_fractions=())
    run_experiment(plan)
    with (Path(out_dir) / "aggregate.csv").open() as fh:
        poisoned = {r["attack"]: float(r["fraction_correct"])
                    for r in csv.DictReader(fh) if r["mode"] == "poisoning"}
    fractions = {name: poisoned.get(name, float("nan"))
                 for name in ("clean",) + tuple(attacks)}
    crossings = []
    for path in sorted((Path(out_dir) / "runs").glob("*_nettack_*.json")):
        result = json.loads(path.read_text())["result"]
        trace = result["loss_trace"]
        step = next((i + 1 for i, v in enumerate(trace) if v > 0),
                    result["budget"])
        crossings.append(step)
    return {
        "fractions": fractions,
        "mean_crossing": float(np.mean(crossings)) if crossings else float("nan"),
        "n_attack_runs": len(crossings),
    }
