"""Linearized two-layer surrogate: normalized adjacency powers and training.

The surrogate scores nodes with softmax(S X W) where S is the square of
the symmetrically normalized self-loop adjacency. S admits a constant-time
per-entry update under a single symmetric edge flip, which is what makes
per-candidate attack scoring cheap; this module owns that update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import DataSplit
from .graph import AttributedGraph

PRUNE_EPS = 1e-12  # drop squared-adjacency entries below this after updates


class TrainingError(RuntimeError):
    """Training diverged or was fed an unusable split."""


def normalized_adjacency_matrix(g: AttributedGraph) -> sp.csr_matrix:
    """D^{-1/2} (A + I) D^{-1/2} with D the self-loop degree diagonal."""
    a = g.adjacency_matrix()
    atilde = (a + sp.identity(g.n_nodes, format="csr", dtype=np.float64)).tocsr()
    dtilde = g.degrees.astype(np.float64) + 1.0
    inv_sqrt = sp.diags(1.0 / np.sqrt(dtilde))
    return (inv_sqrt @ atilde @ inv_sqrt).tocsr()


@dataclass
class NormalizedAdjacency:
    """Normalized self-loop adjacency, its square, and the degree cache."""

    ahat: sp.csr_matrix
    ahat2: sp.csr_matrix
    dtilde: np.ndarray

    @classmethod
    def build(cls, g: AttributedGraph) -> "NormalizedAdjacency":
        ahat = normalized_adjacency_matrix(g)
        ahat2 = (ahat @ ahat).tocsr()
        ahat2.data[np.abs(ahat2.data) < PRUNE_EPS] = 0.0
        ahat2.eliminate_zeros()
        return cls(ahat=ahat, ahat2=ahat2, dtilde=g.degrees.astype(np.float64) + 1.0)

    def square_row(self, u: int) -> np.ndarray:
        """Dense row u of the squared normalized adjacency."""
        return np.asarray(self.ahat2[u].todense()).ravel()

    def apply_edge_flip(self, g: AttributedGraph, m: int, n: int) -> None:
        """Rebuild all cached matrices for a flip of edge (m, n).

        `g` must be the graph *before* the flip; it is left unchanged.
        """
        fresh = NormalizedAdjacency.build(g.flip_edge(m, n))
        self.ahat, self.ahat2, self.dtilde = fresh.ahat, fresh.ahat2, fresh.dtilde


def updated_square_row_from(row: np.ndarray, dtilde: np.ndarray,
                            g: AttributedGraph, m: int, n: int,
                            node: int) -> np.ndarray:
    """Row `node` of the squared normalized adjacency after flipping (m, n).

    Constant work per entry: the row is produced from its old dense value
    `row` (under the self-loop degrees `dtilde`) plus corrections confined
    to the flip endpoints and their neighbors, vectorized over columns.
    `g` must be the graph before the flip.
    """
    if m == n:
        raise ValueError("self-loops are not allowed")
    u = node
    d = dtilde
    a_mn = 1.0 if g.has_edge(m, n) else 0.0
    x = 1.0 - 2.0 * a_mn

    dp = d.copy()
    dp[m] += x
    dp[n] += x
    du, du_new = d[u], dp[u]

    # Unnormalized two-step sums for row u.
    total = row * np.sqrt(du * d)

    a_u = g.adjacency_row(u)
    atil_u = a_u.copy()
    atil_u[u] = 1.0
    a_u_new = a_u.copy()
    if u == m:
        a_u_new[n] = 1.0 - a_u_new[n]
    elif u == n:
        a_u_new[m] = 1.0 - a_u_new[m]
    atil_u_new = a_u_new.copy()
    atil_u_new[u] = 1.0

    # Row and column one-step terms.
    total += atil_u_new / du_new - atil_u / du
    total += a_u_new / dp - a_u / d

    # Two-step terms through each flip endpoint.
    for k, other in ((m, n), (n, m)):
        col_k = g.adjacency_row(k)
        col_k_new = col_k.copy()
        col_k_new[other] = 1.0 - col_k_new[other]
        total += (a_u_new[k] / dp[k]) * col_k_new - (a_u[k] / d[k]) * col_k

    out = total / np.sqrt(du_new * dp)
    out[np.abs(out) < PRUNE_EPS] = 0.0
    return out


@dataclass
class SurrogateModel:
    """Single absorbed weight matrix of the linearized two-layer model."""

    weights: np.ndarray  # (D, K)
    n_classes: int
    epochs_run: int = 0
    train_loss: float = float("nan")
    validation_loss: float = float("nan")

    def to_dict(self) -> dict:
        return {
            "shape": [int(s) for s in self.weights.shape],
            "weights": [float(w) for w in self.weights.ravel()],
            "n_classes": int(self.n_classes),
            "epochs_run": int(self.epochs_run),
        }

    @staticmethod
    def from_dict(d: dict) -> "SurrogateModel":
        shape = tuple(d["shape"])
        w = np.asarray(d["weights"], dtype=np.float64).reshape(shape)
        return SurrogateModel(weights=w, n_classes=int(d["n_classes"]),
                              epochs_run=int(d.get("epochs_run", 0)))


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    eps = 1e-12
    return float(-np.mean(np.log(probs[np.arange(len(y)), y] + eps)))


def propagated_features(na: NormalizedAdjacency, g: AttributedGraph) -> sp.csr_matrix:
    """Two-hop propagated feature matrix S X used by the surrogate."""
    return (na.ahat2 @ g.feature_matrix()).tocsr()


def train_surrogate(g: AttributedGraph, na: NormalizedAdjacency, split: DataSplit,
                    step: float = 0.1, max_epochs: int = 500,
                    patience: int = 20) -> SurrogateModel:
    """Fit the absorbed weight matrix by full-batch gradient descent.

    The objective (mean cross-entropy of softmax(S X W) over the training
    nodes) is convex in W, so W starts at zero and the fixed step size
    needs no tuning per dataset. Validation loss drives early stopping.
    """
    if len(split.train_ids) == 0:
        raise TrainingError("empty training set")
    k = g.n_classes
    if k < 2:
        raise TrainingError("need at least two classes")
    m = propagated_features(na, g)
    y = g.labels - 1
    train, val = split.train_ids, split.validation_ids
    if np.any(y[train] < 0) or (len(val) and np.any(y[val] < 0)):
        raise TrainingError("train/validation nodes must be labeled")

    w = np.zeros((g.n_features, k), dtype=np.float64)
    m_train = m[train]
    m_val = m[val] if len(val) else None
    y_train, y_val = y[train], y[val]

    best_w = w.copy()
    best_val = np.inf
    best_epoch = 0
    stale = 0
    train_loss = np.nan
    epoch = 0
    for epoch in range(1, max_epochs + 1):
        logits = m_train @ w
        probs = softmax(logits)
        train_loss = _cross_entropy(probs, y_train)
        if not np.isfinite(train_loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}")
        grad_out = probs.copy()
        grad_out[np.arange(len(y_train)), y_train] -= 1.0
        grad = (m_train.T @ grad_out) / len(y_train)
        w -= step * grad

        if m_val is not None and len(y_val):
            val_loss = _cross_entropy(softmax(m_val @ w), y_val)
        else:
            val_loss = train_loss
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_w = w.copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break

    return SurrogateModel(weights=best_w, n_classes=k, epochs_run=epoch,
                          train_loss=train_loss,
                          validation_loss=float(best_val) if np.isfinite(best_val) else float("nan"))


def surrogate_logits(na: NormalizedAdjacency, g: AttributedGraph,
                     model: SurrogateModel) -> np.ndarray:
    """Pre-softmax class scores for every node, shape (N, K)."""
    return propagated_features(na, g) @ model.weights


def loss_from_logits(logits_row: np.ndarray, c_old: int) -> float:
    """Best wrong-class logit minus the reference-class logit."""
    if logits_row.shape[0] < 2:
        raise ValueError("need at least two classes")
    mask = np.ones_like(logits_row, dtype=bool)
    mask[c_old] = False
    return float(logits_row[mask].max() - logits_row[c_old])


def surrogate_loss(na: NormalizedAdjacency, g: AttributedGraph,
                   model: SurrogateModel, v0: int, c_old: int) -> float:
    """Attack objective for node v0: positive iff the argmax left c_old.

    `c_old` is a 0-based class column.
    """
    if model.n_classes < 2:
        raise ValueError("need at least two classes")
    row = na.square_row(v0)
    logits = row @ feature_class_scores(g, model)
    return loss_from_logits(logits, c_old)


def feature_class_scores(g: AttributedGraph,
                         model: SurrogateModel) -> np.ndarray:
    """Dense X W product, shape (N, K); one row changes per feature flip."""
    return g.feature_matrix() @ model.weights


def infer_old_class(na: NormalizedAdjacency, g: AttributedGraph,
                    model: SurrogateModel, v0: int) -> int:
    """Reference class for a target: its label when known, else the
    surrogate's clean-graph prediction. Returned 0-based."""
    if g.labels[v0] > 0:
        return int(g.labels[v0] - 1)
    row = na.square_row(v0)
    logits = row @ feature_class_scores(g, model)
    return int(np.argmax(logits))
