"""Two-layer graph convolutional victim with hand-derived gradients.

Forward pass: softmax(S relu(S (X W1)) W2) where S is the symmetrically
normalized self-loop adjacency. The first layer is associated as S·(X·W1),
so both of its products are sparse-times-dense products over the binary,
sparse X and never over the denser S·X. Gradients are written out
explicitly so the model has no framework dependency and can be checked
against finite differences.

Training has one loop, `_fit`, which trains R replicas of one graph and
split (one per seed) as one batched fit: `train_gcn` is its R = 1 case and
`poisoning_eval` fits all its runs at once. The replicas' first-layer
weights are stacked as (D, R·H); each replica keeps its own second layer,
Adam moments and early-stopping state, and leaves the
stack when it stops. The loss reads class scores only at the training
rows and early stopping only at the validation rows, so the hidden layer
is computed only on the closed one-hop neighbourhood of those rows, X·W1
only at the rows that neighbourhood touches, and the whole second layer
(propagation, class scores and their gradients) only at the rows a pass
reads. The loss gradient reaches the hidden layer only at the training
rows' neighbours, so the first layer's backward products read only those
rows. Every replica is bit-identical to a model trained alone through the
same row-read pass, and within 1e-12 of the full-graph pass: a CSR product
sums each output row in stored order whatever rows or columns are sliced
and however many columns the dense operand has, and the terms left out are
exact zeros, but a BLAS kernel may round a row of a dense product
differently when the row count changes.

Evaluation reads the victim at the target rows only, through the same
row-read pass: `poisoning_eval` averages the margins of its R retrained
replicas and `evasion_eval` is the R = 1 case with the clean model. Both
take margins from `surrogate.margin`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .data import DataSplit
from .graph import (AttributedGraph, GraphError, check_target, is_finite_number, nan_to_none,
                    require_int)
from .surrogate import (TrainingError, margin, mean_cross_entropy,
                        normalized_adjacency_matrix, softmax, training_labels)


@dataclass
class GcnConfig:
    hidden: int = 16
    learning_rate: float = 0.01
    max_epochs: int = 200
    patience: int = 30

    def __post_init__(self):
        """Reject settings that cannot train, naming the field."""
        for name in ("hidden", "max_epochs", "patience"):
            require_int(f"GcnConfig.{name}", getattr(self, name), 1)
        lr = self.learning_rate
        if not (is_finite_number(lr) and lr > 0):
            rule = "above 0" if is_finite_number(lr) else "a finite number"
            raise ValueError(f"GcnConfig.learning_rate must be {rule}, got {lr!r}")


@dataclass
class GcnModel:
    w1: np.ndarray  # (D, H)
    w2: np.ndarray  # (H, K)
    epochs_run: int = 0


@dataclass
class TargetMargin:
    node: int
    margin: float
    correct_fraction: float


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


class _Rows:
    """Â at the rows one pass reads, over the columns `nb`.

    `nb` must hold every column those rows touch. Then `a @ h[nb]` is
    `(Â @ h)[rows]` bit for bit: a CSR product sums each output row's
    entries in stored order, whatever rows or columns are sliced and
    however many columns the dense operand has.
    """

    def __init__(self, ahat: sp.csr_matrix, rows: np.ndarray, nb: np.ndarray):
        self.a = ahat[rows][:, nb]

    def forward(self, h: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(m2, probs) of R replicas at `rows` from h (|nb|, R·H) and w2 (R, H, K).

        m2 is a contiguous (R, n, H) stack and probs is (R, n, K), for the n
        rows: each replica's class scores are one BLAS product of its own
        (n, H) block with its w2, the product a one-model pass at those rows
        forms.
        """
        r, hidden, _ = w2.shape
        m2 = np.ascontiguousarray(
            (self.a @ h).reshape(self.a.shape[0], r, hidden).transpose(1, 0, 2))
        return m2, softmax(m2 @ w2)


class _Layer1:
    """The hidden layer at the rows `rows`: relu(Â[rows]·(X·W₁)).

    X·W₁ is formed only at the columns those rows of Â touch, so
    `a @ (x @ w1)` is `(Â @ (X @ W₁))[rows]` bit for bit.
    """

    def __init__(self, ahat: sp.csr_matrix, x: sp.csr_matrix, rows: np.ndarray):
        cols = np.unique(ahat[rows].indices)
        self.a = ahat[rows][:, cols]
        self.x = x[cols]

    def __call__(self, w1: np.ndarray) -> np.ndarray:
        return np.maximum(self.a @ (self.x @ w1), 0.0)


class _Problem:
    """What training reads of one graph and split, built once per fit.

    The loss reads class scores only at the training rows and early stopping
    only at the validation rows, so the hidden layer is needed only on `nb`,
    the closed one-hop neighbourhood of those rows, and the second layer only
    at those rows. `layer1` gives the hidden layer on `nb` as
    relu(Â[nb]·(X·W₁)).

    The loss gradient reaches the hidden layer only at `nb[near]`, the
    training rows' neighbours, so the backward products read only those
    rows: the W₁ gradient is Xᵀ·(Â[nb[near]]ᵀ·G) over the columns they
    touch. Every term left out is an exact zero.
    """

    def __init__(self, ahat: sp.csr_matrix, x: sp.csr_matrix, y: np.ndarray,
                 train: np.ndarray, val: np.ndarray):
        # Ascending rows make the transposed products below add their terms
        # in the order the full-graph products do.
        train, val = np.unique(train), np.unique(val)
        self.nb = np.unique(ahat[np.concatenate([train, val])].indices)
        self.layer1 = _Layer1(ahat, x, self.nb)
        self.train = _Rows(ahat, train, self.nb)
        self.val = _Rows(ahat, val, self.nb) if len(val) else None
        self.y_train, self.y_val = y[train], y[val]
        near = np.unique(ahat[train].indices)
        self.near = np.searchsorted(self.nb, near)
        self.train_t = ahat[train][:, near].T.tocsr()
        back = _Layer1(ahat, x, near)
        self.a1_t, self.x_t = back.a.T.tocsr(), back.x.T.tocsr()


def _loss_and_grads(p: _Problem, h: np.ndarray,
                    w2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Training losses (R,) of R replicas and their weight gradients.

    `h` is `p.layer1(w1)` for the stacked first-layer weights w1 (D, R·H),
    replica r in columns r·H to (r+1)·H, and `w2` is (R, H, K). Gradients
    have the shapes of the weights.
    """
    r, hidden, _ = w2.shape
    m2, probs = p.train.forward(h, w2)
    loss = mean_cross_entropy(probs, p.y_train)

    n = len(p.y_train)
    grad_logits = probs  # formed in place: probs is not read again
    grad_logits[:, np.arange(n), p.y_train] -= 1.0
    grad_logits /= n
    grad_w2 = m2.transpose(0, 2, 1) @ grad_logits
    grad_m2 = grad_logits @ w2.transpose(0, 2, 1)
    grad_h = p.train_t @ grad_m2.transpose(1, 0, 2).reshape(n, r * hidden)  # at nb[near]
    grad_w1 = p.x_t @ (p.a1_t @ (grad_h * (h[p.near] > 0.0)))
    return loss, grad_w1, grad_w2


def _fit(g: AttributedGraph, split: DataSplit, seeds: list[int], cfg: GcnConfig,
         ahat: sp.csr_matrix, x: sp.csr_matrix) -> list[GcnModel]:
    """Train one replica per seed on one graph and split, all at once.

    Replica r is bit-identical to a model trained alone from seed r through
    the same row-read pass: its first-layer weights are columns r·H to
    (r+1)·H of one stacked (D, R·H) matrix, its Glorot init comes from its
    own generator, its second layer and Adam moments are its own, and it
    leaves the stack when it stops.
    """
    for seed in seeds:
        require_int("seed", seed, 0)
    y = training_labels(g, split)
    k = g.n_classes
    p = _Problem(ahat, x, y, split.train_ids, split.validation_ids)
    hid = cfg.hidden

    inits = [(_glorot(rng, g.n_features, hid), _glorot(rng, hid, k))
             for rng in map(np.random.default_rng, seeds)]
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

    h = p.layer1(w1)
    for epoch in range(1, cfg.max_epochs + 1):
        loss, g1, g2 = _loss_and_grads(p, h, w2)
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

        h = p.layer1(w1)  # the validation pass now, the training pass next epoch
        if p.val is not None:
            val_loss = mean_cross_entropy(p.val.forward(h, w2)[1], p.y_val)
        else:
            val_loss = loss
        better = val_loss < best_val - 1e-12
        best_val = np.where(better, val_loss, best_val)
        stale = np.where(better, 0, stale + 1)
        blocks = (len(w1), -1, hid)  # (D, replica, H) views: one copy per replica
        best_w1.reshape(blocks)[:, live[better]] = w1.reshape(blocks)[:, better]
        best_w2[live[better]] = w2[better]

        stop = diverged | (stale >= cfg.patience)
        if stop.any():
            epochs_run[live[stop]] = epoch
            go = ~stop
            w1, m_w1, v_w1, h = (a.reshape(len(a), -1, hid)[:, go].reshape(len(a), -1)
                                 for a in (w1, m_w1, v_w1, h))
            w2, m_w2, v_w2 = w2[go], m_w2[go], v_w2[go]
            live, best_val, stale = live[go], best_val[go], stale[go]
            if not len(live):
                break

    if errors:  # the error a sequential loop over the seeds would meet first
        raise TrainingError(errors[min(errors)])
    return [GcnModel(w1=best_w1[:, i * hid:(i + 1) * hid].copy(), w2=best_w2[i].copy(),
                     epochs_run=int(epochs_run[i]))
            for i in range(len(seeds))]


def train_gcn(g: AttributedGraph, split: DataSplit, seed: int,
              config: GcnConfig | None = None) -> GcnModel:
    """Train the victim on one graph+split, deterministically per seed.

    Full-batch updates with adaptive per-parameter step sizes; early
    stopping tracks validation loss and restores the best weights.
    """
    return _fit(g, split, [seed], config or GcnConfig(), normalized_adjacency_matrix(g),
                g.feature_matrix())[0]


def _target_rows(g: AttributedGraph, targets) -> np.ndarray:
    """Evaluation targets as an array, each in range and labeled."""
    for v0 in targets:
        check_target(g, v0)
        if g.labels[v0] == 0:
            raise GraphError(f"target {v0} has no ground-truth label")
    return np.asarray(targets, dtype=np.int64)


def _target_report(g: AttributedGraph, models: list[GcnModel], rows: np.ndarray,
                   ahat: sp.csr_matrix, x: sp.csr_matrix) -> MarginReport:
    """Margins of R models at the target rows, averaged over the models.

    Per target the report holds the mean margin (ground-truth class minus
    the best other class) and the fraction of models whose margin is
    positive. Only the target rows are propagated, by the pass training
    uses.
    """
    nb = np.unique(ahat[rows].indices)
    h = _Layer1(ahat, x, nb)(np.hstack([m.w1 for m in models]))
    _, probs = _Rows(ahat, rows, nb).forward(h, np.stack([m.w2 for m in models]))
    margins = margin(probs, g.labels[rows] - 1)  # (R, targets)
    return MarginReport([TargetMargin(node=int(v0), margin=float(margins[:, j].mean()),
                                      correct_fraction=float(np.mean(margins[:, j] > 0)))
                         for j, v0 in enumerate(rows)])


def evasion_eval(model_clean: GcnModel, g_attacked: AttributedGraph,
                 targets) -> MarginReport:
    """Margins under clean-graph weights evaluated on the perturbed graph:
    the one-model case of the poisoning report."""
    shape = [model_clean.w1.shape[0], model_clean.w2.shape[1]]
    want = [g_attacked.n_features, g_attacked.n_classes]
    if shape != want:
        raise ValueError(f"victim model [D, K] = {shape} does not match "
                         f"the graph's [D, K] = {want}")
    return _target_report(g_attacked, [model_clean], _target_rows(g_attacked, targets),
                          normalized_adjacency_matrix(g_attacked), g_attacked.feature_matrix())


def poisoning_eval(g_attacked: AttributedGraph, split: DataSplit, targets,
                   runs: int = 10, base_seed: int = 0,
                   config: GcnConfig | None = None) -> MarginReport:
    """Retrain-after-attack evaluation, averaged over seeded runs.

    Per target we report the mean margin and the fraction of runs whose
    margin was positive (thresholded per run, then averaged).
    """
    require_int("runs", runs, 1)
    rows = _target_rows(g_attacked, targets)
    ahat, x = normalized_adjacency_matrix(g_attacked), g_attacked.feature_matrix()
    models = _fit(g_attacked, split, [base_seed + r for r in range(runs)],
                  config or GcnConfig(), ahat, x)
    return _target_report(g_attacked, models, rows, ahat, x)
