"""Two-layer graph convolutional victim with hand-derived gradients.

Forward pass: softmax(S relu(S X W1) W2) where S is the symmetrically
normalized self-loop adjacency. Gradients are written out explicitly so
the model has no framework dependency and can be checked against finite
differences.

Training has one loop, `_fit`, which trains R replicas of one graph and
split (one per seed) as one batched fit: `train_gcn` is its R = 1 case and
`poisoning_eval` fits all its runs at once. The replicas' first-layer
weights are stacked as (D, R·H); each replica keeps its own second layer,
Adam moments, dropout generator and early-stopping state, and leaves the
stack when it stops. The loss reads class scores only at the training
rows and early stopping only at the validation rows, so the hidden layer
is computed only on the closed one-hop neighbourhood of those rows and
the second propagation only at those rows. Every replica is bit-identical
to a model trained alone: a CSR product sums each output row in stored
order whatever rows or columns are sliced and however many columns the
dense operand has, the terms left out are exact zeros, and the dense
products keep the shapes of a one-model, full-graph pass.

Evaluation reads the victim at the target rows only, through the same
row-sliced pass: `poisoning_eval` averages the margins of its R retrained
replicas and `evasion_eval` is the R = 1 case with the clean model. Both
take margins from `surrogate.margin`. `gcn_forward`, the plain full-graph
pass, is kept as the reference the tests compare against.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .data import DataSplit
from .graph import AttributedGraph, GraphError, check_target, nan_to_none
from .surrogate import TrainingError, margin, normalized_adjacency_matrix, softmax


@dataclass
class GcnConfig:
    hidden: int = 16
    learning_rate: float = 0.01
    max_epochs: int = 200
    patience: int = 30
    weight_decay: float = 0.0
    dropout: float = 0.0

    def __post_init__(self):
        """Reject settings that cannot train, naming the field."""
        for name in ("hidden", "max_epochs", "patience"):
            value = getattr(self, name)
            self._require(name, isinstance(value, numbers.Integral) and value >= 1,
                          "an integer of at least 1")
        for name in ("learning_rate", "dropout", "weight_decay"):
            self._require(name, isinstance(getattr(self, name), numbers.Real), "a number")
        self._require("learning_rate",
                      math.isfinite(self.learning_rate) and self.learning_rate > 0,
                      "finite and above 0")
        self._require("dropout", 0 <= self.dropout < 1, "in [0, 1)")
        self._require("weight_decay", self.weight_decay >= 0, "at least 0")

    def _require(self, name: str, ok: bool, rule: str) -> None:
        if not ok:
            raise ValueError(f"GcnConfig.{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class GcnModel:
    w1: np.ndarray  # (D, H)
    w2: np.ndarray  # (H, K)
    seed: int = 0
    epochs_run: int = 0


@dataclass
class TargetMargin:
    node: int
    margin: float
    correct_fraction: float

    @property
    def correct(self) -> bool:
        return self.margin > 0.0


@dataclass
class MarginReport:
    targets: list[TargetMargin] = field(default_factory=list)

    @property
    def fraction_correct(self) -> float:
        if not self.targets:
            return float("nan")
        return float(np.mean([t.correct_fraction for t in self.targets]))

    def to_dict(self) -> dict:
        return {
            "targets": [{"node": t.node, "margin": t.margin,
                         "correct_fraction": t.correct_fraction}
                        for t in self.targets],
            "fraction_correct": nan_to_none(self.fraction_correct),
        }


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def gcn_forward(model: GcnModel, ahat: sp.csr_matrix,
                x: sp.csr_matrix) -> np.ndarray:
    """Class probabilities for every node, shape (N, K): the full-graph
    reference that the tests hold the row-sliced passes to."""
    h_pre = (ahat @ x) @ model.w1
    h = np.maximum(h_pre, 0.0)
    logits = (ahat @ h) @ model.w2
    return softmax(logits)


class _Rows:
    """Â at the rows one loss reads, over the columns `nb`.

    `nb` must hold every column those rows touch. Then `a @ h[nb]` is
    `(Â @ h)[rows]` bit for bit: a CSR product sums each output row's
    entries in stored order, whatever rows or columns are sliced and
    however many columns the dense operand has.
    """

    def __init__(self, ahat: sp.csr_matrix, rows: np.ndarray, nb: np.ndarray):
        self.rows = rows
        self.a = ahat[rows][:, nb]
        self.n_nodes = ahat.shape[0]

    def forward(self, h: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(m2, probs) of R replicas from h (|nb|, R·H) and w2 (R, H, K).

        m2 is (R, N, H) and zero outside `rows`; probs is (R, len(rows), K).
        The class scores are taken over all N rows so that each BLAS call has
        the shape of one full-graph model: a BLAS kernel may round a row
        differently when the row count changes.
        """
        r, hidden, _ = w2.shape
        m2 = np.zeros((r, self.n_nodes, hidden))
        m2[:, self.rows] = (self.a @ h).reshape(len(self.rows), r, hidden).transpose(1, 0, 2)
        return m2, softmax((m2 @ w2)[:, self.rows])


def _mean_cross_entropy(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-replica mean cross-entropy of probs (R, n, K) against labels y (n,).

    One 1-D sum per replica: numpy may reduce an axis of a 2-D array in
    another order (here the picked values are column-major).
    """
    logs = np.log(probs[:, np.arange(len(y)), y] + 1e-12)
    return np.array([-(np.add.reduce(row) / len(y)) for row in logs])


class _Problem:
    """What training reads of one graph and split, built once per fit.

    The loss reads class scores only at the training rows and early stopping
    only at the validation rows, so the hidden layer is needed only on `nb`,
    the closed one-hop neighbourhood of those rows, and the second
    propagation only at those rows.
    """

    def __init__(self, ahat: sp.csr_matrix, m1: sp.csr_matrix, y: np.ndarray,
                 train: np.ndarray, val: np.ndarray):
        # Ascending rows make the transposed products below add their terms
        # in the order the full-graph products do.
        train, val = np.unique(train), np.unique(val)
        self.nb = np.unique(ahat[np.concatenate([train, val])].indices)
        self.m1 = m1[self.nb]  # (Â·X)[nb]
        self.m1_t = self.m1.T.tocsr()
        self.train = _Rows(ahat, train, self.nb)
        self.train_t = self.train.a.T.tocsr()
        self.val = _Rows(ahat, val, self.nb) if len(val) else None
        self.y_train, self.y_val = y[train], y[val]


def _loss_and_grads(p: _Problem, h_pre: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                    weight_decay: float, hidden_mask: np.ndarray | None,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Training losses (R,) of R replicas and their weight gradients.

    `w1` is (D, R·H) with replica r in columns r·H to (r+1)·H, `h_pre` is
    `p.m1 @ w1` and `w2` is (R, H, K). Gradients have the shapes of the
    weights. `hidden_mask` (|nb|, R·H), when given, multiplies the hidden
    activations (dropout).
    """
    r, hidden, k = w2.shape
    h = np.maximum(h_pre, 0.0)
    if hidden_mask is not None:
        h = h * hidden_mask
    m2, probs = p.train.forward(h, w2)
    loss = _mean_cross_entropy(probs, p.y_train)
    if weight_decay:
        loss += [0.5 * weight_decay * (float(np.sum(a * a)) + float(np.sum(b * b)))
                 for a, b in zip(np.hsplit(w1, r), w2)]

    rows, n = p.train.rows, len(p.train.rows)
    grad_logits = np.zeros((r, p.train.n_nodes, k))
    grad_logits[:, rows] = probs
    grad_logits[:, rows, p.y_train] -= 1.0
    grad_logits /= n
    # The skipped terms of both transposed products are exact zeros.
    grad_w2 = m2.transpose(0, 2, 1) @ grad_logits
    grad_m2 = (grad_logits @ w2.transpose(0, 2, 1))[:, rows]
    grad_h = p.train_t @ grad_m2.transpose(1, 0, 2).reshape(n, r * hidden)
    if hidden_mask is not None:
        grad_h = grad_h * hidden_mask
    grad_w1 = p.m1_t @ (grad_h * (h_pre > 0.0))
    if weight_decay:
        grad_w1 = grad_w1 + weight_decay * w1
        grad_w2 = grad_w2 + weight_decay * w2
    return loss, grad_w1, grad_w2


def gcn_loss_and_grads(w1: np.ndarray, w2: np.ndarray, ahat: sp.csr_matrix,
                       x: sp.csr_matrix, y: np.ndarray, idx: np.ndarray,
                       weight_decay: float = 0.0,
                       hidden_mask: np.ndarray | None = None,
                       m1: sp.csr_matrix | None = None,
                       ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy over `idx` plus explicit weight gradients.

    The loss and gradient of one model through the code that training runs.
    `hidden_mask` (N, H), when given, multiplies the hidden activations
    (dropout); `m1` may carry a precomputed `ahat @ x`.
    """
    if m1 is None:
        m1 = ahat @ x
    p = _Problem(ahat, m1, y, idx, np.empty(0, dtype=np.int64))
    mask = None if hidden_mask is None else hidden_mask[p.nb]
    loss, grad_w1, grad_w2 = _loss_and_grads(p, p.m1 @ w1, w1, w2[None], weight_decay, mask)
    return float(loss[0]), grad_w1, grad_w2[0]


def _propagated_features(g: AttributedGraph) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Â and Â·X of a graph."""
    ahat = normalized_adjacency_matrix(g)
    return ahat, (ahat @ g.feature_matrix()).tocsr()


def _columns(blocks: np.ndarray, hidden: int) -> np.ndarray:
    """Stacked first-layer columns of the given replica blocks."""
    return (blocks[:, None] * hidden + np.arange(hidden)).ravel()


def _fit(g: AttributedGraph, split: DataSplit, seeds: list[int], cfg: GcnConfig,
         ahat: sp.csr_matrix, m1: sp.csr_matrix) -> list[GcnModel]:
    """Train one replica per seed on one graph and split, all at once.

    Replica r is bit-identical to a model trained alone from seed r: its
    first-layer weights are columns r·H to (r+1)·H of one stacked (D, R·H)
    matrix, its second layer and Adam moments are its own, its dropout masks
    come from its own generator, and it leaves the stack when it stops.
    """
    split.check(g.n_nodes)
    k = g.n_classes
    if k < 2:
        raise TrainingError("need at least two classes")
    y = g.labels - 1
    train, val = split.train_ids, split.validation_ids
    if np.any(y[train] < 0) or (len(val) and np.any(y[val] < 0)):
        raise TrainingError("train/validation nodes must be labeled")
    p = _Problem(ahat, m1, y, train, val)
    hid = cfg.hidden

    rngs = [np.random.default_rng(s) for s in seeds]
    inits = [(_glorot(rng, g.n_features, hid), _glorot(rng, hid, k)) for rng in rngs]
    w1 = np.hstack([a for a, _ in inits])
    w2 = np.stack([b for _, b in inits])
    best_w1, best_w2 = w1.copy(), w2.copy()
    live = np.arange(len(seeds))  # replica held in each stacked block
    epochs_run = np.full(len(seeds), cfg.max_epochs)
    errors: dict[int, str] = {}

    # Adam moments, full batch, and per-replica early stopping.
    b1, b2, eps = 0.9, 0.999, 1e-8
    m_w1, v_w1 = np.zeros_like(w1), np.zeros_like(w1)
    m_w2, v_w2 = np.zeros_like(w2), np.zeros_like(w2)
    best_val = np.full(len(seeds), np.inf)
    stale = np.zeros(len(seeds), dtype=np.int64)

    h_pre = p.m1 @ w1
    for epoch in range(1, cfg.max_epochs + 1):
        mask = None
        if cfg.dropout > 0.0:
            keep = 1.0 - cfg.dropout
            mask = np.hstack([((rngs[i].random((g.n_nodes, hid)) < keep) / keep)[p.nb]
                              for i in live])
        loss, g1, g2 = _loss_and_grads(p, h_pre, w1, w2, cfg.weight_decay, mask)
        diverged = ~np.isfinite(loss)
        for i in live[diverged]:
            errors[int(i)] = f"non-finite training loss at epoch {epoch}"
        m_w1 = b1 * m_w1 + (1 - b1) * g1
        v_w1 = b2 * v_w1 + (1 - b2) * g1 * g1
        m_w2 = b1 * m_w2 + (1 - b1) * g2
        v_w2 = b2 * v_w2 + (1 - b2) * g2 * g2
        c1 = 1 - b1 ** epoch
        c2 = 1 - b2 ** epoch
        w1 = w1 - cfg.learning_rate * (m_w1 / c1) / (np.sqrt(v_w1 / c2) + eps)
        w2 = w2 - cfg.learning_rate * (m_w2 / c1) / (np.sqrt(v_w2 / c2) + eps)

        h_pre = p.m1 @ w1  # the validation pass now, the training pass next epoch
        if p.val is not None:
            val_loss = _mean_cross_entropy(
                p.val.forward(np.maximum(h_pre, 0.0), w2)[1], p.y_val)
        else:
            val_loss = loss
        better = val_loss < best_val - 1e-12
        best_val = np.where(better, val_loss, best_val)
        stale = np.where(better, 0, stale + 1)
        best_w1[:, _columns(live[better], hid)] = w1[:, _columns(np.flatnonzero(better), hid)]
        best_w2[live[better]] = w2[better]

        stop = diverged | (stale >= cfg.patience)
        if stop.any():
            epochs_run[live[stop]] = epoch
            go = ~stop
            cols = _columns(np.flatnonzero(go), hid)
            w1, m_w1, v_w1, h_pre = w1[:, cols], m_w1[:, cols], v_w1[:, cols], h_pre[:, cols]
            w2, m_w2, v_w2 = w2[go], m_w2[go], v_w2[go]
            live, best_val, stale = live[go], best_val[go], stale[go]
            if not len(live):
                break

    if errors:  # the error a sequential loop over the seeds would meet first
        raise TrainingError(errors[min(errors)])
    return [GcnModel(w1=best_w1[:, i * hid:(i + 1) * hid].copy(), w2=best_w2[i].copy(),
                     seed=seed, epochs_run=int(epochs_run[i]))
            for i, seed in enumerate(seeds)]


def train_gcn(g: AttributedGraph, split: DataSplit, seed: int,
              config: GcnConfig | None = None) -> GcnModel:
    """Train the victim on one graph+split, deterministically per seed.

    Full-batch updates with adaptive per-parameter step sizes; early
    stopping tracks validation loss and restores the best weights.
    """
    return _fit(g, split, [seed], config or GcnConfig(), *_propagated_features(g))[0]


def _target_rows(g: AttributedGraph, targets) -> np.ndarray:
    """Evaluation targets as an array, each in range and labeled."""
    for v0 in targets:
        check_target(g, v0)
        if g.labels[v0] == 0:
            raise GraphError(f"target {v0} has no ground-truth label")
    return np.asarray(targets, dtype=np.int64)


def _target_report(g: AttributedGraph, models: list[GcnModel], rows: np.ndarray,
                   ahat: sp.csr_matrix, m1: sp.csr_matrix) -> MarginReport:
    """Margins of R models at the target rows, averaged over the models.

    Per target the report holds the mean margin (ground-truth class minus
    the best other class) and the fraction of models whose margin is
    positive. Only the target rows are propagated, by the pass training
    uses.
    """
    nb = np.unique(ahat[rows].indices)
    w1 = np.hstack([m.w1 for m in models])
    _, probs = _Rows(ahat, rows, nb).forward(np.maximum(m1[nb] @ w1, 0.0),
                                             np.stack([m.w2 for m in models]))
    margins = margin(probs, g.labels[rows] - 1)[0]  # (R, targets)
    return MarginReport([TargetMargin(node=int(v0), margin=float(margins[:, j].mean()),
                                      correct_fraction=float(np.mean(margins[:, j] > 0)))
                         for j, v0 in enumerate(rows)])


def evasion_eval(model_clean: GcnModel, g_attacked: AttributedGraph,
                 targets) -> MarginReport:
    """Margins under clean-graph weights evaluated on the perturbed graph:
    the one-model case of the poisoning report."""
    return _target_report(g_attacked, [model_clean], _target_rows(g_attacked, targets),
                          *_propagated_features(g_attacked))


def poisoning_eval(g_attacked: AttributedGraph, split: DataSplit, targets,
                   runs: int = 10, base_seed: int = 0,
                   config: GcnConfig | None = None) -> MarginReport:
    """Retrain-after-attack evaluation, averaged over seeded runs.

    Per target we report the mean margin and the fraction of runs whose
    margin was positive (thresholded per run, then averaged).
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    rows = _target_rows(g_attacked, targets)
    ahat, m1 = _propagated_features(g_attacked)
    models = _fit(g_attacked, split, [base_seed + r for r in range(runs)],
                  config or GcnConfig(), ahat, m1)
    return _target_report(g_attacked, models, rows, ahat, m1)
