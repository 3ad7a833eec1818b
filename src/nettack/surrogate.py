"""Linearized two-layer surrogate: the per-graph context and training.

The surrogate scores nodes with softmax(S X W) where S is the square of
the symmetrically normalized self-loop adjacency Â. `NormalizedAdjacency`
is the context of one clean graph (Â, the self-loop degrees and the
feature co-occurrence index). S is never formed: an attack reads one
row of it (`square_row`), the fit the rows of S X it trains on. Under a
single symmetric edge flip a node's logits change in closed form with
constant work per candidate, so the attack scores all candidates in one
array pass (`edge_flip_logits`); the exact row update of S
(`updated_square_row_from`) settles near-ties and commits flips. This
module owns both, and the one margin rule (`margin`) that the attack loss,
target selection and victim evaluation share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .constraints import CooccurrenceIndex, build_cooccurrence
from .data import DataSplit, json_object
from .graph import AttributedGraph

PRUNE_EPS = 1e-12  # drop row-update entries below this (cancellation residue)
# Surrogate fit: gradient step, epoch cap, and validation epochs without
# improvement before stopping.
STEP, MAX_EPOCHS, PATIENCE = 0.1, 500, 20


class TrainingError(RuntimeError):
    """Training diverged or was fed an unusable split."""


def training_labels(g: AttributedGraph, split: DataSplit) -> np.ndarray:
    """0-based labels of `g`, once `split` is known to train a classifier:
    its ids are valid, its training set is not empty, the graph has two
    classes or more, and every training and validation node is labeled."""
    split.check(g.n_nodes)
    if len(split.train_ids) == 0:
        raise TrainingError("empty training set")
    if g.n_classes < 2:
        raise TrainingError("need at least two classes")
    y = g.labels - 1
    if np.any(y[np.concatenate([split.train_ids, split.validation_ids])] < 0):
        raise TrainingError("train/validation nodes must be labeled")
    return y


def normalized_adjacency_matrix(g: AttributedGraph) -> sp.csr_matrix:
    """D^{-1/2} (A + I) D^{-1/2} with D the self-loop degree diagonal."""
    a = g.adjacency_matrix()
    atilde = (a + sp.identity(g.n_nodes, format="csr", dtype=np.float64)).tocsr()
    dtilde = g.degrees.astype(np.float64) + 1.0
    inv_sqrt = sp.diags(1.0 / np.sqrt(dtilde))
    return (inv_sqrt @ atilde @ inv_sqrt).tocsr()


@dataclass
class NormalizedAdjacency:
    """Context of one clean graph, built once and only read by attacks:
    the normalized self-loop adjacency Â, the self-loop degrees d̃ and the
    feature co-occurrence index."""

    ahat: sp.csr_matrix
    dtilde: np.ndarray
    cooc: CooccurrenceIndex

    @classmethod
    def build(cls, g: AttributedGraph) -> "NormalizedAdjacency":
        return cls(ahat=normalized_adjacency_matrix(g),
                   dtilde=g.degrees.astype(np.float64) + 1.0,
                   cooc=build_cooccurrence(g))

    def square_row(self, u: int) -> np.ndarray:
        """Dense row u of the squared normalized adjacency, Â[u] Â."""
        return np.asarray((self.ahat[u] @ self.ahat).todense()).ravel()

    def apply_edge_flip(self, g: AttributedGraph, m: int, n: int) -> None:
        """Rebuild Â and d̃ for a flip of edge (m, n); the feature index stays.

        `g` must be the graph *before* the flip; it is left unchanged.
        """
        g = g.flip_edge(m, n)
        self.ahat, self.dtilde = normalized_adjacency_matrix(g), g.degrees + 1.0


def edge_flip_logits(row: np.ndarray, dtilde: np.ndarray, g: AttributedGraph,
                     cvals: np.ndarray, u: int, pairs: np.ndarray,
                     a_mn: np.ndarray) -> np.ndarray:
    """Logits of node `u` after each single edge flip, shape (M, K).

    `row` is u's squared-adjacency row under the self-loop degrees
    `dtilde` (d), `cvals` the X W product (C), `pairs` the (M, 2) flips
    (m, n) and `a_mn` their current adjacency entries; `g` is the graph
    before any of them. With G = C / sqrt(d) and H = (A + I) G built once,
    sqrt(d_u) times u's logits is the sum over k of (A + I)[u, k] H_k / d_k.
    A flip changes A + I only at (m, n), d only at m and n (by x = 1 - 2a),
    so H_k moves by terms in G_m and G_n and the sum changes only through
    H_m, H_n, C_m and C_n, with scalar weights per candidate: O(K) work per
    candidate, whether or not u is an endpoint.
    """
    d = dtilde
    m, n = pairs[:, 0], pairs[:, 1]
    a = np.asarray(a_mn, dtype=np.float64)
    x = 1.0 - 2.0 * a
    gm = cvals / np.sqrt(d)[:, None]
    h = g.adj @ gm + gm
    a_u = g.adjacency_row(u)
    d_m, d_n, d_u = d[m], d[n], d[u]
    dp_m, dp_n = d_m + x, d_n + x
    dp_u = d_u + x * ((m == u) | (n == u))
    # (A + I)[u, k] / d_k for k = m, n, before (al) and after (ga) the flip.
    at_m, at_n = a_u[m] + (m == u), a_u[n] + (n == u)
    al_m, al_n = at_m / d_m, at_n / d_n
    ga_m, ga_n = (at_m + x * (n == u)) / dp_m, (at_n + x * (m == u)) / dp_n
    # Two-step sums u -> m, n other than through m and n themselves.
    be_m = row[m] * np.sqrt(d_u * d_m) - al_m - a * al_n
    be_n = row[n] * np.sqrt(d_u * d_n) - a * al_m - al_n
    # G'_k - G_k = C_k r_k; the new H_m gains G'_m - G_m, a (G'_n - G_n)
    # and x G'_n, and H_n likewise.
    r_m = 1.0 / np.sqrt(dp_m) - 1.0 / np.sqrt(d_m)
    r_n = 1.0 / np.sqrt(dp_n) - 1.0 / np.sqrt(d_n)
    w_cm = (be_m + ga_m + a * ga_n) * r_m + x * ga_n / np.sqrt(dp_m)
    w_cn = (be_n + ga_n + a * ga_m) * r_n + x * ga_m / np.sqrt(dp_n)
    inv = 1.0 / np.sqrt(dp_u)
    return (np.sqrt(d_u) * inv)[:, None] * (row @ cvals)[None, :] \
        + ((ga_m - al_m) * inv)[:, None] * h[m] + ((ga_n - al_n) * inv)[:, None] * h[n] \
        + (w_cm * inv)[:, None] * cvals[m] + (w_cn * inv)[:, None] * cvals[n]


def updated_square_row_from(row: np.ndarray, dtilde: np.ndarray,
                            g: AttributedGraph, m: int, n: int,
                            node: int) -> np.ndarray:
    """Row `node` of the squared normalized adjacency after flipping (m, n).

    Constant work per entry: the row is produced from its old dense value
    `row` (under the self-loop degrees `dtilde`) plus corrections confined
    to the flip endpoints and their neighbors, vectorized over columns.
    `g` must be the graph before the flip. The greedy attack scores its
    candidates with `edge_flip_logits` and builds this row only to settle
    near-ties exactly and to commit the winner; FGSM and RND advance
    their row with it, and the tests use it as the reference.
    """
    if m == n:
        raise ValueError("self-loops are not allowed")
    u = node
    d = dtilde
    a_m = g.adjacency_row(m)
    a_u = a_m if u == m else g.adjacency_row(u)
    a_n = a_u if u == n else g.adjacency_row(n)
    a_mn = a_m[n]
    x = 1.0 - 2.0 * a_mn

    dp = d.copy()
    dp[m] += x
    dp[n] += x
    du, du_new = d[u], dp[u]

    # Unnormalized two-step sums for row u.
    total = row * np.sqrt(du * d)

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
    for k, other, col_k in ((m, n, a_m), (n, m, a_n)):
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
        json_object(d, "surrogate model", ("shape", "weights", "n_classes"))
        try:
            w = np.asarray(d["weights"], dtype=np.float64).reshape(tuple(d["shape"]))
            model = SurrogateModel(weights=w, n_classes=int(d["n_classes"]),
                                   epochs_run=int(d.get("epochs_run", 0)))
        except TypeError as exc:
            raise ValueError(f"malformed surrogate model: {exc}") from exc
        if w.ndim != 2:
            raise ValueError(f"surrogate model shape must be [D, K], got {list(w.shape)}")
        if not np.all(np.isfinite(w)):
            raise ValueError("surrogate model weights must be finite")
        return model


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    eps = 1e-12
    return float(-np.mean(np.log(probs[np.arange(len(y)), y] + eps)))


def train_surrogate(g: AttributedGraph, na: NormalizedAdjacency,
                    split: DataSplit) -> SurrogateModel:
    """Fit the absorbed weight matrix by full-batch gradient descent.

    The objective (mean cross-entropy of softmax(S X W) over the training
    nodes) is convex in W, so W starts at zero and the fixed step size
    needs no tuning per dataset. Validation loss drives early stopping.
    Each step adds M_trᵀ G to W, M_tr being the training rows of S X, so
    the loop steps B in W = M_trᵀ B on the Gram matrix of the training and
    validation rows (built as Â[rows] (Â X)) and forms W once, at the end.
    """
    y = training_labels(g, split)
    k = g.n_classes
    train, val = split.train_ids, split.validation_ids
    n_train = len(train)
    rows = np.concatenate([train, val])
    m = (na.ahat[rows] @ (na.ahat @ g.feature_matrix())).toarray()
    gram = m @ m[:n_train].T
    y_train, y_val = y[train], y[val]

    b = np.zeros((n_train, k), dtype=np.float64)
    probs = softmax(np.zeros((len(rows), k), dtype=np.float64))  # softmax(gram @ b)
    best_b = b
    best_val = np.inf
    stale = 0
    train_loss = np.nan
    epoch = 0
    for epoch in range(1, MAX_EPOCHS + 1):
        grad_out = probs[:n_train]
        train_loss = _cross_entropy(grad_out, y_train)
        if not np.isfinite(train_loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}")
        grad_out[np.arange(n_train), y_train] -= 1.0
        b = b - STEP * (grad_out / n_train)

        # The validation pass now and the training pass of the next epoch.
        probs = softmax(gram @ b)
        val_loss = _cross_entropy(probs[n_train:], y_val) if len(val) else train_loss
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_b = b
            stale = 0
        else:
            stale += 1
            if stale >= PATIENCE:
                break

    return SurrogateModel(weights=m[:n_train].T @ best_b, n_classes=k, epochs_run=epoch,
                          train_loss=train_loss,
                          validation_loss=float(best_val) if np.isfinite(best_val) else float("nan"))


def surrogate_logits(na: NormalizedAdjacency, g: AttributedGraph,
                     model: SurrogateModel) -> np.ndarray:
    """Pre-softmax class scores for every node, shape (N, K)."""
    return na.ahat @ (na.ahat @ (g.feature_matrix() @ model.weights))


def margin(scores: np.ndarray, ref) -> tuple[np.ndarray, np.ndarray]:
    """Reference-class score minus the best other score, and that other class.

    `scores` is (..., K) with K >= 2, and `ref` holds one class per row (an
    array of the leading shape, or one class for every row). On the
    victim's probabilities this is its evaluation margin; the paper's
    surrogate loss (best wrong class minus reference class) is `0.0 -
    margin` of the logits, which keeps an exact tie at +0.0.
    """
    k = scores.shape[-1]
    if k < 2:
        raise ValueError("need at least two classes")
    ref = np.asarray(ref)
    others = np.where(np.arange(k) == ref[..., None], -np.inf, scores)
    best = others.argmax(axis=-1)[..., None]
    # One class for every row is a plain index, much cheaper on one row.
    own = scores[..., ref] if ref.ndim == 0 else np.take_along_axis(
        scores, np.broadcast_to(ref, scores.shape[:-1])[..., None], -1)[..., 0]
    return own - np.take_along_axis(others, best, -1)[..., 0], best[..., 0]


def infer_old_class(na: NormalizedAdjacency, g: AttributedGraph,
                    model: SurrogateModel, v0: int) -> int:
    """Reference class for a target: its label when known, else the
    surrogate's clean-graph prediction. Returned 0-based."""
    if g.labels[v0] > 0:
        return int(g.labels[v0] - 1)
    return int(np.argmax(na.square_row(v0) @ (g.feature_matrix() @ model.weights)))
