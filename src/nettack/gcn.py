"""Two-layer graph convolutional victim with hand-derived gradients.

Forward pass: softmax(S relu(S X W1) W2) where S is the symmetrically
normalized self-loop adjacency. Gradients are written out explicitly so
the model has no framework dependency and can be checked against finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .data import DataSplit
from .graph import AttributedGraph, check_target, nan_to_none
from .surrogate import TrainingError, normalized_adjacency_matrix, softmax


@dataclass
class GcnConfig:
    hidden: int = 16
    learning_rate: float = 0.01
    max_epochs: int = 200
    patience: int = 30
    weight_decay: float = 0.0
    dropout: float = 0.0


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

    def margin_of(self, node: int) -> float:
        for t in self.targets:
            if t.node == node:
                return t.margin
        raise KeyError(node)

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
    """Class probabilities for every node, shape (N, K)."""
    h_pre = (ahat @ x) @ model.w1
    h = np.maximum(h_pre, 0.0)
    logits = (ahat @ h) @ model.w2
    return softmax(logits)


def _loss_forward(w1: np.ndarray, w2: np.ndarray, ahat: sp.csr_matrix,
                  m1: sp.csr_matrix, y: np.ndarray, idx: np.ndarray,
                  weight_decay: float = 0.0,
                  hidden_mask: np.ndarray | None = None,
                  ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Forward pass and mean cross-entropy over `idx`: (loss, h_pre, m2, probs).

    The last three feed the backward pass; validation needs only the loss.
    """
    h_pre = m1 @ w1
    h = np.maximum(h_pre, 0.0)
    if hidden_mask is not None:
        h = h * hidden_mask
    m2 = ahat @ h
    logits = m2 @ w2
    probs = softmax(logits)
    eps = 1e-12
    loss = float(-np.mean(np.log(probs[idx, y[idx]] + eps)))
    if weight_decay:
        loss += 0.5 * weight_decay * (float(np.sum(w1 * w1)) + float(np.sum(w2 * w2)))
    return loss, h_pre, m2, probs


def gcn_loss_and_grads(w1: np.ndarray, w2: np.ndarray, ahat: sp.csr_matrix,
                       x: sp.csr_matrix, y: np.ndarray, idx: np.ndarray,
                       weight_decay: float = 0.0,
                       hidden_mask: np.ndarray | None = None,
                       m1: sp.csr_matrix | None = None,
                       ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy over `idx` plus explicit weight gradients.

    `hidden_mask`, when given, multiplies the hidden activations (used for
    dropout during training; evaluation never passes one). `m1` may carry
    a precomputed `ahat @ x` so training loops pay for it once.
    """
    if m1 is None:
        m1 = ahat @ x  # sparse (N, D)
    loss, h_pre, m2, probs = _loss_forward(w1, w2, ahat, m1, y, idx,
                                           weight_decay, hidden_mask)

    grad_logits = np.zeros_like(probs)
    grad_logits[idx] = probs[idx]
    grad_logits[idx, y[idx]] -= 1.0
    grad_logits /= len(idx)

    grad_w2 = m2.T @ grad_logits
    grad_m2 = grad_logits @ w2.T
    grad_h = ahat.T @ grad_m2
    if hidden_mask is not None:
        grad_h = grad_h * hidden_mask
    grad_h_pre = grad_h * (h_pre > 0.0)
    grad_w1 = m1.T @ grad_h_pre
    if weight_decay:
        grad_w1 = grad_w1 + weight_decay * w1
        grad_w2 = grad_w2 + weight_decay * w2
    return loss, np.asarray(grad_w1), np.asarray(grad_w2)


def train_gcn(g: AttributedGraph, split: DataSplit, seed: int,
              config: GcnConfig | None = None) -> GcnModel:
    """Train the victim on one graph+split, deterministically per seed.

    Full-batch updates with adaptive per-parameter step sizes; early
    stopping tracks validation loss and restores the best weights.
    """
    cfg = config or GcnConfig()
    k = g.n_classes
    if k < 2:
        raise TrainingError("need at least two classes")
    rng = np.random.default_rng(seed)
    w1 = _glorot(rng, g.n_features, cfg.hidden)
    w2 = _glorot(rng, cfg.hidden, k)
    ahat = normalized_adjacency_matrix(g)
    x = g.feature_matrix()
    y = g.labels - 1
    train, val = split.train_ids, split.validation_ids
    if np.any(y[train] < 0) or (len(val) and np.any(y[val] < 0)):
        raise TrainingError("train/validation nodes must be labeled")

    # Adam moments, full batch.
    b1, b2, eps = 0.9, 0.999, 1e-8
    m_w1 = np.zeros_like(w1)
    v_w1 = np.zeros_like(w1)
    m_w2 = np.zeros_like(w2)
    v_w2 = np.zeros_like(w2)

    m1 = (ahat @ x).tocsr()  # shared across epochs
    best = (w1.copy(), w2.copy())
    best_val = np.inf
    stale = 0
    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        mask = None
        if cfg.dropout > 0.0:
            keep = 1.0 - cfg.dropout
            mask = (rng.random((g.n_nodes, cfg.hidden)) < keep) / keep
        loss, g1, g2 = gcn_loss_and_grads(w1, w2, ahat, x, y, train,
                                          cfg.weight_decay, mask, m1=m1)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}")
        m_w1 = b1 * m_w1 + (1 - b1) * g1
        v_w1 = b2 * v_w1 + (1 - b2) * g1 * g1
        m_w2 = b1 * m_w2 + (1 - b1) * g2
        v_w2 = b2 * v_w2 + (1 - b2) * g2 * g2
        c1 = 1 - b1 ** epoch
        c2 = 1 - b2 ** epoch
        w1 = w1 - cfg.learning_rate * (m_w1 / c1) / (np.sqrt(v_w1 / c2) + eps)
        w2 = w2 - cfg.learning_rate * (m_w2 / c1) / (np.sqrt(v_w2 / c2) + eps)

        if len(val):
            val_loss = _loss_forward(w1, w2, ahat, m1, y, val)[0]
        else:
            val_loss = loss
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best = (w1.copy(), w2.copy())
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    return GcnModel(w1=best[0], w2=best[1], seed=seed, epochs_run=epoch)


def margin_from_probs(prob_row: np.ndarray, c_old: int) -> float:
    """Probability of class c_old minus the best other class, in [-1, 1]."""
    mask = np.ones_like(prob_row, dtype=bool)
    mask[c_old] = False
    return float(prob_row[c_old] - prob_row[mask].max())


def evasion_eval(model_clean: GcnModel, g_attacked: AttributedGraph,
                 targets) -> MarginReport:
    """Margins under clean-graph weights evaluated on the perturbed graph.

    Uses each target's ground-truth label as the reference class.
    """
    for v0 in targets:
        check_target(g_attacked, v0)
    probs = gcn_forward(model_clean, normalized_adjacency_matrix(g_attacked),
                        g_attacked.feature_matrix())
    report = MarginReport()
    for v0 in targets:
        c_old = int(g_attacked.labels[v0] - 1)
        m = margin_from_probs(probs[v0], c_old)
        report.targets.append(TargetMargin(node=int(v0), margin=m,
                                           correct_fraction=float(m > 0)))
    return report


def poisoning_eval(g_attacked: AttributedGraph, split: DataSplit, targets,
                   runs: int = 10, base_seed: int = 0,
                   config: GcnConfig | None = None) -> MarginReport:
    """Retrain-after-attack evaluation, averaged over seeded runs.

    Per target we report the mean margin and the fraction of runs whose
    margin was positive (thresholded per run, then averaged).
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    for v0 in targets:
        check_target(g_attacked, v0)
    ahat, x = normalized_adjacency_matrix(g_attacked), g_attacked.feature_matrix()
    margins = np.zeros((runs, len(targets)))
    for r in range(runs):
        model = train_gcn(g_attacked, split, seed=base_seed + r, config=config)
        probs = gcn_forward(model, ahat, x)
        for j, v0 in enumerate(targets):
            c_old = int(g_attacked.labels[v0] - 1)
            margins[r, j] = margin_from_probs(probs[v0], c_old)
    report = MarginReport()
    for j, v0 in enumerate(targets):
        report.targets.append(TargetMargin(
            node=int(v0), margin=float(margins[:, j].mean()),
            correct_fraction=float(np.mean(margins[:, j] > 0))))
    return report
