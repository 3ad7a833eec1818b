"""Greedy targeted perturbation search plus random and gradient baselines.

Each greedy step scores every admissible edge flip through the
constant-time row update of the squared normalized adjacency and every
admissible feature flip through its exact (linear) effect on the target's
logits, then applies the single best flip. Admissibility combines the
attacker locality rule, the budget, and (in constrained mode) the degree
and co-occurrence unnoticeability gates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constraints import (DegreeTestState, build_cooccurrence,
                          feature_addition_allowed, lambda_statistic,
                          DEFAULT_D_MIN, DEFAULT_TAU)
from .graph import (EDGE, FEATURE, AttributedGraph, GraphError, Perturbation,
                    nan_to_none, none_to_nan)
from .surrogate import (NormalizedAdjacency, SurrogateModel, infer_old_class,
                        loss_from_logits, normalized_adjacency_matrix,
                        updated_square_row_from)

DIRECT = "direct"
INFLUENCER = "influencer"


@dataclass(frozen=True)
class AttackConfig:
    """Target, locality, budget and constraint switches for one attack run."""

    target: int
    budget: int
    mode: str = DIRECT
    attackers: tuple[int, ...] | None = None  # resolved from mode when None
    perturb_structure: bool = True
    perturb_features: bool = True
    constrained: bool = True
    d_min: int = DEFAULT_D_MIN
    tau: float = DEFAULT_TAU
    eq7_as_printed: bool = False
    seed: int = 0
    n_influencers: int = 5

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.mode not in (DIRECT, INFLUENCER):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (self.perturb_structure or self.perturb_features):
            raise ValueError("at least one perturbation kind must be enabled")
        if self.attackers is not None:
            a = set(self.attackers)
            if self.mode == DIRECT and a != {self.target}:
                raise ValueError("direct mode requires attackers == {target}")
            if self.mode == INFLUENCER and self.target in a:
                raise ValueError("influencer mode requires target not in attackers")


@dataclass
class AttackResult:
    """Ordered perturbation log with loss and constraint audit traces."""

    target: int
    attackers: tuple[int, ...]
    budget: int
    mode: str
    constrained: bool
    perturbations: list[Perturbation] = field(default_factory=list)
    initial_loss: float = float("nan")
    loss_trace: list[float] = field(default_factory=list)
    lambda_trace: list[float] = field(default_factory=list)
    feature_checks: list[dict] = field(default_factory=list)
    starved: bool = False

    @property
    def final_loss(self) -> float:
        return self.loss_trace[-1] if self.loss_trace else self.initial_loss

    def to_dict(self) -> dict:
        return {
            "target": int(self.target),
            "attackers": [int(a) for a in self.attackers],
            "budget": int(self.budget),
            "mode": self.mode,
            "constrained": bool(self.constrained),
            "perturbations": [p.to_dict() for p in self.perturbations],
            "initial_loss": nan_to_none(self.initial_loss),
            "loss_trace": [nan_to_none(v) for v in self.loss_trace],
            "lambda_trace": [float(v) for v in self.lambda_trace],
            "feature_checks": self.feature_checks,
            "starved": bool(self.starved),
        }

    @staticmethod
    def from_dict(d: dict) -> "AttackResult":
        return AttackResult(
            target=int(d["target"]), attackers=tuple(d["attackers"]),
            budget=int(d["budget"]), mode=d["mode"],
            constrained=bool(d["constrained"]),
            perturbations=[Perturbation.from_dict(p) for p in d["perturbations"]],
            initial_loss=none_to_nan(d["initial_loss"]),
            loss_trace=[none_to_nan(v) for v in d["loss_trace"]],
            lambda_trace=[float(v) for v in d["lambda_trace"]],
            feature_checks=list(d["feature_checks"]),
            starved=bool(d["starved"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=1,
                                          allow_nan=False) + "\n")


def resolve_attackers(g: AttributedGraph, cfg: AttackConfig) -> tuple[int, ...]:
    """Attacker set for a run: the target itself, or seeded influencers.

    Influencers default to `n_influencers` random neighbors of the target,
    topped up from the two-hop ring when the target's degree is short.
    """
    if cfg.attackers is not None:
        return tuple(sorted(cfg.attackers))
    if cfg.mode == DIRECT:
        return (cfg.target,)
    rng = np.random.default_rng(cfg.seed)
    nbrs = sorted(g.neighbors(cfg.target))
    want = cfg.n_influencers
    if len(nbrs) >= want:
        picked = sorted(rng.choice(nbrs, size=want, replace=False).tolist())
        return tuple(int(a) for a in picked)
    picked = list(nbrs)
    ring = sorted(g.two_hop_neighborhood(cfg.target) - set(nbrs) - {cfg.target})
    fill = min(want - len(picked), len(ring))
    if fill > 0:
        picked.extend(int(a) for a in rng.choice(ring, size=fill, replace=False))
    if not picked:
        raise GraphError("no candidate influencers around an isolated target")
    return tuple(sorted(picked))


def candidate_edges(g: AttributedGraph, cfg: AttackConfig,
                    degree_state: DegreeTestState | None = None,
                    attackers: tuple[int, ...] | None = None) -> list[tuple[int, int]]:
    """Admissible edge flips as sorted (m, n) pairs with m < v.

    A pair is admissible when one endpoint is an attacker, the flip keeps
    the degree-test statistic under the threshold (when a state is given),
    it would not isolate the target, and - in influencer mode - it does
    not touch the target.
    """
    if attackers is None:
        attackers = resolve_attackers(g, cfg)
    v0 = cfg.target
    degs = g.degrees
    out = []
    seen: set[tuple[int, int]] = set()
    for a in attackers:
        for b in range(g.n_nodes):
            if b == a:
                continue
            pair = (a, b) if a < b else (b, a)
            if pair in seen:
                continue
            seen.add(pair)
            if cfg.mode == INFLUENCER and v0 in pair:
                continue
            is_edge = b in g.neighbors(a)
            if is_edge and v0 in pair and degs[v0] == 1:
                continue  # removing the target's last edge degenerates its row
            if degree_state is not None and not degree_state.edge_allowed(
                    int(degs[pair[0]]), int(degs[pair[1]]), int(is_edge)):
                continue
            out.append(pair)
    out.sort()
    return out


def candidate_features(present: np.ndarray,
                       allowed: np.ndarray | None) -> np.ndarray:
    """Admissible feature flips of one node as a mask over features.

    `present` marks the node's current features. Removals are always
    admissible; additions only where `allowed` is set (every feature when
    `allowed` is None, i.e. unconstrained).
    """
    if allowed is None:
        return np.ones_like(present)
    return present | allowed


def score_features(row: np.ndarray, logits: np.ndarray, w: np.ndarray,
                   u: int, present: np.ndarray, c_old: int) -> np.ndarray:
    """Exact post-flip loss of the target for every feature of node u.

    `row` is the target's squared-adjacency row, `logits` its current
    logits and `present` marks u's current features. A single feature
    flip moves the logits linearly, so the new loss is re-evaluated
    exactly for the same cost as the paper's gradient score; unlike that
    score it sees a switch of the best wrong class.
    """
    direction = 1.0 - 2.0 * present.astype(np.float64)
    new_logits = logits[None, :] + row[u] * direction[:, None] * w
    masked = new_logits.copy()
    masked[:, c_old] = -np.inf
    return masked.max(axis=1) - new_logits[:, c_old]


@dataclass
class _Best:
    score: float
    kind: str
    u: int
    v: int
    insert: bool

    def beats(self, other: "_Best | None") -> bool:
        if other is None:
            return True
        if self.score != other.score:
            return self.score > other.score
        # Exact ties: structure first, then smallest (u, v).
        if self.kind != other.kind:
            return self.kind == EDGE
        return (self.u, self.v) < (other.u, other.v)


def run_nettack(g0: AttributedGraph, model: SurrogateModel, cfg: AttackConfig,
                na: NormalizedAdjacency | None = None) -> AttackResult:
    """Greedy budgeted attack on one target node.

    Applies up to `budget` flips, each step taking the admissible flip
    with the highest surrogate loss; the squared-adjacency row of the
    target and the degree-test state advance incrementally per step.
    """
    v0 = cfg.target
    if not 0 <= v0 < g0.n_nodes:
        raise GraphError(f"target {v0} out of range")
    attackers = resolve_attackers(g0, cfg)
    if cfg.mode == DIRECT and set(attackers) != {v0}:
        raise ValueError("direct mode requires attackers == {target}")

    if na is None:
        na = NormalizedAdjacency.build(g0)
    g = g0.copy()
    w = model.weights
    row = na.square_row(v0)
    cvals = g.feature_matrix() @ w  # dense (N, K); one row moves per feature flip
    c_old = infer_old_class(na, g0, model, v0)

    degree_state = DegreeTestState.from_graph(g0, cfg.d_min, cfg.tau,
                                              cfg.eq7_as_printed)
    coidx = build_cooccurrence(g0) if cfg.constrained else None
    allowed_add = {a: (coidx.allowed_additions(a) if coidx is not None else None)
                   for a in attackers}

    result = AttackResult(target=v0, attackers=attackers, budget=cfg.budget,
                          mode=cfg.mode, constrained=cfg.constrained)
    logits = row @ cvals
    result.initial_loss = loss_from_logits(logits, c_old)

    while len(result.perturbations) < cfg.budget:
        dtilde = g.degrees.astype(np.float64) + 1.0
        best: _Best | None = None

        if cfg.perturb_structure:
            gate = degree_state if cfg.constrained else None
            for (m, n) in candidate_edges(g, cfg, gate, attackers):
                new_row = updated_square_row_from(row, dtilde, g, m, n, v0)
                cand = _Best(score=loss_from_logits(new_row @ cvals, c_old),
                             kind=EDGE, u=m, v=n, insert=not g.has_edge(m, n))
                if cand.beats(best):
                    best = cand

        if cfg.perturb_features:
            logits = row @ cvals
            for a in attackers:
                present = np.zeros(g.n_features, dtype=bool)
                present[sorted(g.features_of(a))] = True
                losses = score_features(row, logits, w, a, present, c_old)
                idx = np.flatnonzero(candidate_features(present, allowed_add[a]))
                for i in idx[np.argsort(-losses[idx], kind="stable")[:1]]:
                    cand = _Best(score=float(losses[i]), kind=FEATURE,
                                 u=a, v=int(i), insert=not present[i])
                    if cand.beats(best):
                        best = cand

        if best is None:
            result.starved = True
            break

        if best.kind == EDGE:
            m, n = best.u, best.v
            a_mn = int(g.has_edge(m, n))
            row = updated_square_row_from(row, dtilde, g, m, n, v0)
            degree_state.commit_edge(int(g.degrees[m]), int(g.degrees[n]), a_mn)
            g.flip_edge_inplace(m, n)
        else:
            a, i = best.u, best.v
            sign = 1.0 if best.insert else -1.0
            cvals[a] += sign * w[i]
            g.flip_feature_inplace(a, i)
            check = "removal" if not best.insert else (
                "cooccurrence_pass" if cfg.constrained else "unconstrained")
            result.feature_checks.append(
                {"step": len(result.perturbations), "u": int(a), "i": int(i),
                 "insert": bool(best.insert), "test": check})

        result.perturbations.append(Perturbation(
            kind=best.kind, u=best.u, v=best.v, insert=best.insert, score=best.score))
        logits = row @ cvals
        result.loss_trace.append(loss_from_logits(logits, c_old))
        result.lambda_trace.append(degree_state.lambda_current())

    return result


def rnd_baseline(g0: AttributedGraph, cfg: AttackConfig,
                 model: SurrogateModel | None = None,
                 na: NormalizedAdjacency | None = None) -> AttackResult:
    """Random cross-class edge insertions at the target, no constraints."""
    v0 = cfg.target
    c0 = int(g0.labels[v0])
    if c0 == 0:
        raise GraphError("random baseline needs the target's ground-truth label")
    rng = np.random.default_rng(cfg.seed)
    g = g0.copy()
    degree_state = DegreeTestState.from_graph(g0, cfg.d_min, cfg.tau,
                                              cfg.eq7_as_printed)
    result = AttackResult(target=v0, attackers=(v0,), budget=cfg.budget,
                          mode=DIRECT, constrained=False)

    row = cvals = None
    c_old = 0
    if model is not None:
        if na is None:
            na = NormalizedAdjacency.build(g0)
        row = na.square_row(v0)
        cvals = g.feature_matrix() @ model.weights
        c_old = infer_old_class(na, g0, model, v0)
        result.initial_loss = loss_from_logits(row @ cvals, c_old)

    for _ in range(cfg.budget):
        pool = [u for u in range(g.n_nodes)
                if u != v0 and g.labels[u] != 0 and g.labels[u] != c0
                and not g.has_edge(v0, u)]
        if not pool:
            result.starved = True
            break
        u = int(pool[rng.integers(len(pool))])
        dtilde = g.degrees.astype(np.float64) + 1.0
        if row is not None:
            row = updated_square_row_from(row, dtilde, g, v0, u, v0)
        degree_state.commit_edge(int(g.degrees[v0]), int(g.degrees[u]), 0)
        g.flip_edge_inplace(v0, u)
        result.perturbations.append(Perturbation(kind=EDGE, u=min(v0, u),
                                                 v=max(v0, u), insert=True))
        if row is not None:
            result.loss_trace.append(loss_from_logits(row @ cvals, c_old))
        else:
            result.loss_trace.append(float("nan"))
        result.lambda_trace.append(degree_state.lambda_current())
    return result


def _structure_gradient(ahat, d: np.ndarray, row2: np.ndarray, q: np.ndarray,
                        v0: int) -> np.ndarray:
    """d(loss-gap)/d a_{v0,x} for every x, treating entries as continuous.

    `ahat` is the normalized adjacency, `d` the self-loop degrees and
    `row2` the target's squared-adjacency row. Accounts for the degree
    renormalization that an edge change induces on both endpoints.
    """
    h1 = ahat @ q
    h2 = np.asarray(ahat[v0].todense()).ravel()
    lc = float(row2 @ q)
    inv_sqrt = 1.0 / np.sqrt(d[v0] * d)
    grad = (h1 + h2[v0] * q + h2 * q[v0]) * inv_sqrt
    grad -= 0.5 * lc / d[v0]
    grad -= h2[v0] * h1[v0] / d[v0] + h2 * h1 / d
    grad -= 0.5 * (row2[v0] * q[v0] / d[v0] + row2 * q / d)
    grad[v0] = 0.0
    return grad


def fgsm_baseline(g0: AttributedGraph, model: SurrogateModel, cfg: AttackConfig,
                  na: NormalizedAdjacency | None = None) -> AttackResult:
    """Sign-gradient direct attack: flip the entry with the largest
    usable gradient each step, then re-evaluate exactly.

    Only the normalized adjacency, the degrees and the target's
    squared-adjacency row are tracked; edge flips advance the row with
    the same update the greedy attack uses. `na` is only read.
    """
    if cfg.mode != DIRECT:
        raise ValueError("the gradient baseline only runs as a direct attack")
    v0 = cfg.target
    if na is None:
        na = NormalizedAdjacency.build(g0)
    g = g0.copy()
    w = model.weights
    cvals = g.feature_matrix() @ w
    c_old = infer_old_class(na, g0, model, v0)
    degree_state = DegreeTestState.from_graph(g0, cfg.d_min, cfg.tau,
                                              cfg.eq7_as_printed)
    result = AttackResult(target=v0, attackers=(v0,), budget=cfg.budget,
                          mode=DIRECT, constrained=False)
    ahat, dtilde = na.ahat, na.dtilde
    row2 = na.square_row(v0)
    result.initial_loss = loss_from_logits(row2 @ cvals, c_old)

    for _ in range(cfg.budget):
        logits = row2 @ cvals
        masked = logits.copy()
        masked[c_old] = -np.inf
        c_best = int(np.argmax(masked))
        q = cvals[:, c_best] - cvals[:, c_old]

        best: _Best | None = None
        if cfg.perturb_structure:
            grad = _structure_gradient(ahat, dtilde, row2, q, v0)
            a_row = g.adjacency_row(v0).astype(bool)
            usable = np.where(a_row, grad < 0.0, grad > 0.0)
            usable[v0] = False
            mag = np.where(usable, np.abs(grad), 0.0)
            if mag.max() > 0.0:
                x = int(np.argmax(mag))
                best = _Best(score=float(mag[x]), kind=EDGE,
                             u=min(v0, x), v=max(v0, x), insert=not a_row[x])
        if cfg.perturb_features:
            fgrad = row2[v0] * (w[:, c_best] - w[:, c_old])
            feat_mask = np.zeros(g.n_features, dtype=bool)
            feat_mask[sorted(g.features_of(v0))] = True
            usable = np.where(feat_mask, fgrad < 0.0, fgrad > 0.0)
            mag = np.where(usable, np.abs(fgrad), 0.0)
            if mag.max() > 0.0:
                i = int(np.argmax(mag))
                cand = _Best(score=float(mag[i]), kind=FEATURE, u=v0, v=i,
                             insert=not feat_mask[i])
                if best is None or cand.score > best.score:
                    best = cand

        if best is None:
            result.starved = True
            break

        if best.kind == EDGE:
            m, n = best.u, best.v
            a_mn = int(g.has_edge(m, n))
            degree_state.commit_edge(int(g.degrees[m]), int(g.degrees[n]), a_mn)
            row2 = updated_square_row_from(row2, dtilde, g, m, n, v0)
            g.flip_edge_inplace(m, n)
            ahat = normalized_adjacency_matrix(g)
            dtilde = g.degrees.astype(np.float64) + 1.0
        else:
            sign = 1.0 if best.insert else -1.0
            cvals[best.u] += sign * w[best.v]
            g.flip_feature_inplace(best.u, best.v)

        result.perturbations.append(Perturbation(
            kind=best.kind, u=best.u, v=best.v, insert=best.insert, score=best.score))
        result.loss_trace.append(loss_from_logits(row2 @ cvals, c_old))
        result.lambda_trace.append(degree_state.lambda_current())
    return result


def apply_result(g0: AttributedGraph, result: AttackResult) -> AttributedGraph:
    """Clean graph plus every logged perturbation."""
    g = g0.copy()
    for p in result.perturbations:
        g.apply_inplace(p)
    return g


def replay_constraints(g0: AttributedGraph, result: AttackResult,
                       d_min: int = DEFAULT_D_MIN, tau: float = DEFAULT_TAU,
                       as_printed: bool = False) -> dict:
    """Re-run every logged flip through from-scratch constraint checks.

    Independent of the incremental machinery: the degree statistic is
    recomputed from full degree multisets after every edge flip, and
    feature additions re-run the co-occurrence test.
    """
    g = g0.copy()
    coidx = build_cooccurrence(g0)
    deg0 = g0.degrees.copy()
    violations = []
    lam_trace = []
    for step, p in enumerate(result.perturbations):
        if p.kind == EDGE:
            g.flip_edge_inplace(p.u, p.v)
            lam = lambda_statistic(deg0, g.degrees, d_min, as_printed)
            lam_trace.append(lam)
            if lam >= tau:
                violations.append({"step": step, "kind": EDGE, "lambda": lam})
        else:
            if p.insert and not feature_addition_allowed(coidx, p.u, p.v):
                violations.append({"step": step, "kind": FEATURE,
                                   "u": p.u, "i": p.v})
            g.flip_feature_inplace(p.u, p.v)
            lam_trace.append(lam_trace[-1] if lam_trace else 0.0)
    return {"ok": not violations, "violations": violations,
            "lambda_trace": lam_trace,
            "final_lambda": lam_trace[-1] if lam_trace else 0.0}
