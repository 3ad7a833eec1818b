"""Linearized two-layer surrogate: the per-graph context and training.

The surrogate scores nodes with softmax(S X W) where S is the square of
the symmetrically normalized self-loop adjacency Â. `NormalizedAdjacency`
is the context of one clean graph (Â and the feature co-occurrence
index); the self-loop degrees d̃ are read off the graph that each
function takes. S is never formed: an attack reads one row of it
(`square_row`), the fit the rows of S X it trains on. A single
symmetric edge flip changes a node's row of S by five weights, derived
once (`_flip_weights`). The attack applies them to the node's logits for
all candidates in one class-major array pass (`edge_flip_logits`, K x M,
so that each pass runs along the candidates), with constant work per
candidate, and to the row itself (`updated_square_row_from`) to settle
near-ties and commit flips. This module owns both, the one margin rule
(`margin`, which returns the value only) that the attack loss, target
selection and victim evaluation share, and the one cross-entropy
(`mean_cross_entropy`) that the surrogate and victim fits minimise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .constraints import CooccurrenceIndex, build_cooccurrence
from .data import DataSplit, json_object
from .graph import AttributedGraph, check_target, is_int

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
    the normalized self-loop adjacency Â and the feature co-occurrence
    index."""

    ahat: sp.csr_matrix
    cooc: CooccurrenceIndex

    @classmethod
    def build(cls, g: AttributedGraph) -> "NormalizedAdjacency":
        return cls(ahat=normalized_adjacency_matrix(g), cooc=build_cooccurrence(g))

    def square_row(self, u: int) -> np.ndarray:
        """Dense row u of the squared normalized adjacency, Â[u] Â."""
        return np.asarray((self.ahat[u] @ self.ahat).todense()).ravel()

    def apply_edge_flip(self, g: AttributedGraph, m: int, n: int) -> None:
        """Rebuild Â for a flip of edge (m, n); the feature index stays.

        `g` must be the graph *before* the flip; it is left unchanged.
        """
        self.ahat = normalized_adjacency_matrix(g.flip_edge(m, n))


def _flip_weights(row, d, u, m, n, a, at_m, at_n):
    """Weights (s, c_m, c_n, w_m, w_n) that give node `u`'s squared-adjacency
    row after the flip of (m, n) from quantities of the graph before it:

        s row + c_m (A + I)[m] / sqrt(d) + c_n (A + I)[n] / sqrt(d)
              + w_m e_m + w_n e_n.

    `row` is u's row under the self-loop degrees `d`, `a` the entry A[m, n]
    and `at_m`, `at_n` the entries (A + I)[u, m] and (A + I)[u, n]. The
    flip changes A + I only at (m, n) and d only at m and n (by x = 1 - 2a),
    so u's two-step sums move only through m and n. One body serves one flip
    (scalars) and many (arrays of m, n, a, at_m, at_n).
    """
    x = 1.0 - 2.0 * a
    d_m, d_n, d_u = d[m], d[n], d[u]
    dp_m, dp_n = d_m + x, d_n + x
    dp_u = d_u + x * ((m == u) | (n == u))
    # (A + I)[u, k] / d_k for k = m, n, before (al) and after (ga) the flip.
    al_m, al_n = at_m / d_m, at_n / d_n
    ga_m, ga_n = (at_m + x * (n == u)) / dp_m, (at_n + x * (m == u)) / dp_n
    # Two-step sums u -> m, n other than through m and n themselves.
    be_m = row[m] * (d_u * d_m) ** 0.5 - al_m - a * al_n
    be_n = row[n] * (d_u * d_n) ** 0.5 - a * al_m - al_n
    # 1 / sqrt(d_k) moves by r_k, so (A + I)[m] / sqrt(d) gains r_m at m,
    # a r_n at n and, from the flipped entry, x / sqrt(d'_n) at n; and
    # (A + I)[n] / sqrt(d) likewise.
    r_m = 1.0 / dp_m ** 0.5 - 1.0 / d_m ** 0.5
    r_n = 1.0 / dp_n ** 0.5 - 1.0 / d_n ** 0.5
    inv = 1.0 / dp_u ** 0.5
    return ((d_u / dp_u) ** 0.5, (ga_m - al_m) * inv, (ga_n - al_n) * inv,
            ((be_m + ga_m + a * ga_n) * r_m + x * ga_n / dp_m ** 0.5) * inv,
            ((be_n + ga_n + a * ga_m) * r_n + x * ga_m / dp_n ** 0.5) * inv)


def edge_flip_logits(row: np.ndarray, g: AttributedGraph, cvals: np.ndarray,
                     u: int, pairs: np.ndarray, a_mn: np.ndarray) -> np.ndarray:
    """Logits of node `u` after each single edge flip, class-major: (K, M).

    `row` is u's squared-adjacency row in `g`, the graph before any of the
    flips, `cvals` the X W product (C), `pairs` the (M, 2) flips (m, n)
    and `a_mn` their current adjacency entries. The flip weights apply to
    row C, H_m, H_n, C_m and C_n, with H = (A + I) (C / sqrt(d)) built
    once: O(K) work per candidate, whether or not u is an endpoint. Each
    term is gathered from a K x N table and added in place, so the K
    classes are the outer axis and every pass runs along the M candidates.
    """
    m, n = pairs[:, 0], pairs[:, 1]
    d = g.degrees + 1.0
    a_u = g.adjacency_row(u)
    s, c_m, c_n, w_m, w_n = _flip_weights(
        row, d, u, m, n, np.asarray(a_mn, dtype=np.float64),
        a_u[m] + (m == u), a_u[n] + (n == u))
    gm = cvals / np.sqrt(d)[:, None]
    h, c = np.ascontiguousarray((g.adj @ gm + gm).T), np.ascontiguousarray(cvals.T)
    out = np.multiply.outer(row @ cvals, s)
    term = np.empty_like(out)
    for table, k, weight in ((h, m, c_m), (h, n, c_n), (c, m, w_m), (c, n, w_n)):
        np.take(table, k, axis=1, out=term)
        term *= weight
        out += term
    return out


def updated_square_row_from(row: np.ndarray, g: AttributedGraph, m: int, n: int,
                            node: int) -> np.ndarray:
    """Row `node` of the squared normalized adjacency after flipping (m, n).

    The flip weights of `edge_flip_logits` applied to the row itself: its
    old dense value `row` plus the rows (A + I)[m] and (A + I)[n], scaled
    by 1 / sqrt(d), and two single entries. `g` must be the graph before
    the flip, the one `row` belongs to. The greedy attack builds this row
    only to settle near-ties exactly and to commit the winner; FGSM and
    RND advance their row with it.
    """
    if m == n:
        raise ValueError("self-loops are not allowed")
    check_target(g, node)
    nb_m, nb_n = g.neighbors(m), g.neighbors(n)
    d = g.degrees + 1.0
    s, c_m, c_n, w_m, w_n = _flip_weights(
        row, d, node, m, n, float(n in nb_m),
        float(node == m or node in nb_m), float(node == n or node in nb_n))
    out = s * row
    out[nb_m] += c_m / np.sqrt(d[nb_m])
    out[nb_n] += c_n / np.sqrt(d[nb_n])
    out[m] += c_m / d[m] ** 0.5 + w_m
    out[n] += c_n / d[n] ** 0.5 + w_n
    out[np.abs(out) < PRUNE_EPS] = 0.0
    return out


@dataclass
class SurrogateModel:
    """Single absorbed weight matrix of the linearized two-layer model."""

    weights: np.ndarray  # (D, K)
    n_classes: int
    epochs_run: int = 0
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
        except TypeError as exc:
            raise ValueError(f"malformed surrogate model: {exc}") from exc
        if w.ndim != 2:
            raise ValueError(f"surrogate model shape must be [D, K], got {list(w.shape)}")
        k, epochs_run = d["n_classes"], d.get("epochs_run", 0)
        for key, value in (("n_classes", k), ("epochs_run", epochs_run)):
            if not is_int(value):
                raise ValueError(f"surrogate model key {key!r} is not an integer: {value!r}")
        if k != w.shape[1]:
            raise ValueError(f"surrogate model key 'n_classes' is {k}; shape is {list(w.shape)}")
        if not np.all(np.isfinite(w)):
            raise ValueError("surrogate model weights must be finite")
        return SurrogateModel(weights=w, n_classes=k, epochs_run=epochs_run)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def mean_cross_entropy(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-replica mean cross-entropy of probs (R, n, K) against labels y (n,).

    One 1-D sum per replica: numpy may reduce an axis of a 2-D array in
    another order (here the picked values are column-major).
    """
    logs = np.log(probs[:, np.arange(len(y)), y] + 1e-12)
    return np.array([-(np.add.reduce(row) / len(y)) for row in logs])


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
    epoch = 0
    for epoch in range(1, MAX_EPOCHS + 1):
        grad_out = probs[:n_train]
        train_loss = float(mean_cross_entropy(grad_out[None], y_train)[0])
        if not np.isfinite(train_loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}")
        grad_out[np.arange(n_train), y_train] -= 1.0
        b = b - STEP * (grad_out / n_train)

        # The validation pass now and the training pass of the next epoch.
        probs = softmax(gram @ b)
        val_loss = (float(mean_cross_entropy(probs[None, n_train:], y_val)[0]) if len(val)
                    else train_loss)
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_b = b
            stale = 0
        else:
            stale += 1
            if stale >= PATIENCE:
                break

    return SurrogateModel(weights=m[:n_train].T @ best_b, n_classes=k, epochs_run=epoch,
                          validation_loss=float(best_val) if np.isfinite(best_val) else float("nan"))


def surrogate_logits(na: NormalizedAdjacency, g: AttributedGraph,
                     model: SurrogateModel) -> np.ndarray:
    """Pre-softmax class scores for every node, shape (N, K)."""
    return na.ahat @ (na.ahat @ (g.feature_matrix() @ model.weights))


def margin(scores: np.ndarray, ref) -> np.ndarray:
    """Reference-class score minus the best other score, per row.

    `scores` is (..., K) with K >= 2: row-major, or a class-major array
    seen through its transpose, which is reduced along its class axis
    without a copy. `ref` holds one class per row (an array of the leading
    shape, or one class for every row). On the victim's probabilities this
    is its evaluation margin; the paper's surrogate loss (best wrong class
    minus reference class) is `0.0 - margin` of the logits, which keeps an
    exact tie at +0.0.
    """
    k = scores.shape[-1]
    if k < 2:
        raise ValueError("need at least two classes")
    ref = np.asarray(ref)
    if ref.ndim == 0:  # one class for every row: the classes on either side of it
        return scores[..., ref] - np.maximum(scores[..., :ref].max(-1, initial=-np.inf),
                                             scores[..., ref + 1:].max(-1, initial=-np.inf))
    own = np.take_along_axis(
        scores, np.broadcast_to(ref, scores.shape[:-1])[..., None], -1)[..., 0]
    return own - np.where(np.arange(k) == ref[..., None], -np.inf, scores).max(-1)
