"""Greedy targeted perturbation search plus random and gradient baselines.

Each greedy step scores every admissible edge flip in one closed-form
array pass over the target's logits (constant work per candidate) and
every admissible feature flip through its exact (linear) effect on the
target's logits, then applies the single best flip; near-ties among edge
flips are settled on the exact row update of the squared normalized
adjacency, which also commits the winner. Admissibility combines the
attacker locality rule, the budget, and (in constrained mode) the degree
and co-occurrence unnoticeability gates.

All three attacks advance one running state (`_Run`): the target's
squared-adjacency row, the self-loop degrees, C = X W, the degree test
and the result log, moved past each flip by one `commit`. They read the
clean graph's context (`NormalizedAdjacency`) and never write to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constraints import (DegreeTestState, build_cooccurrence,
                          feature_addition_allowed, lambda_statistic,
                          DEFAULT_D_MIN, DEFAULT_TAU)
from .data import write_json
from .graph import (EDGE, FEATURE, AttributedGraph, GraphError, Perturbation,
                    check_target, is_finite_number, is_int, nan_to_none, none_to_nan)
from .surrogate import (NormalizedAdjacency, SurrogateModel, edge_flip_logits,
                        infer_old_class, margin, updated_square_row_from)

DIRECT = "direct"
INFLUENCER = "influencer"
# Candidates whose batched score lies this close to the best are rescored
# on the exact row; the two differ by rounding only (about 1e-15).
NEAR_TIE = 1e-9


@dataclass(frozen=True)
class AttackConfig:
    """Target, locality, budget and constraint switches for one attack run."""

    target: int
    budget: int
    mode: str = DIRECT
    perturb_structure: bool = True
    perturb_features: bool = True
    constrained: bool = True
    d_min: int = DEFAULT_D_MIN
    tau: float = DEFAULT_TAU
    eq7_as_printed: bool = False
    seed: int = 0
    n_influencers: int = 5

    def __post_init__(self):
        for name in ("target", "seed"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("budget", "n_influencers", "d_min"):
            value = getattr(self, name)
            if not (is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        if not is_finite_number(self.tau):
            raise ValueError(f"tau must be a finite number, got {self.tau!r}")
        if self.mode not in (DIRECT, INFLUENCER):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (self.perturb_structure or self.perturb_features):
            raise ValueError("at least one perturbation kind must be enabled")


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
        write_json(path, self.to_dict(), indent=1)


def resolve_attackers(g: AttributedGraph, cfg: AttackConfig) -> tuple[int, ...]:
    """Attacker set for a run: the target itself, or seeded influencers.

    Influencers are `n_influencers` random neighbors of the target, topped
    up from the two-hop ring when the target's degree is short.
    """
    if cfg.mode == DIRECT:
        return (cfg.target,)
    rng = np.random.default_rng(cfg.seed)
    nbrs = g.neighbors(cfg.target).tolist()
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


@dataclass(frozen=True)
class EdgeCandidates:
    """Admissible edge flips: sorted (m, n) rows with m < n, and whether
    each pair is currently an edge (the flip removes it) or not."""

    pairs: np.ndarray    # (M, 2) int
    is_edge: np.ndarray  # (M,) bool

    def __len__(self) -> int:
        return len(self.pairs)


def candidate_edges(g: AttributedGraph, cfg: AttackConfig,
                    degree_state: DegreeTestState | None = None,
                    attackers: tuple[int, ...] | None = None) -> EdgeCandidates:
    """Admissible edge flips, sorted by (m, n) with m < n.

    A pair is admissible when one endpoint is an attacker, the flip keeps
    the degree-test statistic under the threshold (when a state is given),
    it would not isolate the target, and - in influencer mode - it does
    not touch the target. The degree test depends on a pair only through
    (deg m, deg n, a_mn), so it runs once per distinct triple.
    """
    if attackers is None:
        attackers = resolve_attackers(g, cfg)
    v0, degs, n_nodes = cfg.target, g.degrees, g.n_nodes
    att, others = np.asarray(attackers)[:, None], np.arange(n_nodes)[None, :]
    lo, hi = np.minimum(att, others).ravel(), np.maximum(att, others).ravel()
    key = np.unique((lo * n_nodes + hi)[lo != hi])
    pairs = np.c_[key // n_nodes, key % n_nodes]
    is_edge = np.asarray(g.adj[pairs[:, 0], pairs[:, 1]]).ravel()
    at_target = (pairs == v0).any(axis=1)
    if cfg.mode == INFLUENCER:
        keep = ~at_target
    else:  # removing the target's last edge degenerates its row
        keep = ~(at_target & is_edge & (degs[v0] == 1))
    pairs, is_edge = pairs[keep], is_edge[keep]
    if degree_state is not None:
        d_m, d_n = degs[pairs[:, 0]], degs[pairs[:, 1]]
        triple = (d_m * (n_nodes + 1) + d_n) * 2 + is_edge
        _, first, inverse = np.unique(triple, return_index=True, return_inverse=True)
        allowed = np.array([degree_state.edge_allowed(int(d_m[i]), int(d_n[i]),
                                                      int(is_edge[i]))
                            for i in first], dtype=bool)
        keep = allowed[inverse]
        pairs, is_edge = pairs[keep], is_edge[keep]
    return EdgeCandidates(pairs=pairs, is_edge=is_edge)


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


def _loss(logits: np.ndarray, c_old: int) -> np.ndarray:
    """Surrogate loss per row of logits: the best wrong class minus `c_old`."""
    return 0.0 - margin(logits, c_old)[0]


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
    return _loss(logits[None, :] + row[u] * direction[:, None] * w, c_old)


def _beats(p: Perturbation, best: Perturbation | None) -> bool:
    """Higher score wins; exact ties go to structure, then the smaller (u, v)."""
    if best is None:
        return True
    if p.score != best.score:
        return p.score > best.score
    if p.kind != best.kind:
        return p.kind == EDGE
    return (p.u, p.v) < (best.u, best.v)


class _Run:
    """Running state of one attack on a private copy of the clean graph.

    Holds the target's squared-adjacency row, the self-loop degrees, the
    X W product C, the degree-test state and the result log; `commit`
    advances all of them past one flip. The clean graph's context `na`
    (built here when not given) is only read.
    """

    def __init__(self, g0: AttributedGraph, model: SurrogateModel,
                 cfg: AttackConfig, na: NormalizedAdjacency | None,
                 attackers: tuple[int, ...] | None = None, mode: str = DIRECT,
                 constrained: bool = False):
        shape, want = list(model.weights.shape), [g0.n_features, g0.n_classes]
        if shape != want:
            raise ValueError(f"surrogate model shape {shape} does not match "
                             f"the graph's [D, K] = {want}")
        if na is None:
            na = NormalizedAdjacency.build(g0)
        self.na = na
        self.v0 = v0 = cfg.target
        self.g = g0.copy()
        self.w = model.weights
        self.row = na.square_row(v0)
        self.dtilde = na.dtilde  # shared with `na`: replaced, never updated in place
        self.cvals = self.g.feature_matrix() @ self.w  # one row moves per feature flip
        self.c_old = infer_old_class(na, g0, model, v0)
        self.degree_state = DegreeTestState.from_graph(g0, cfg.d_min, cfg.tau,
                                                       cfg.eq7_as_printed)
        self.result = AttackResult(target=v0, attackers=attackers or (v0,),
                                   budget=cfg.budget, mode=mode,
                                   constrained=constrained)
        self.result.initial_loss = self.loss()

    def loss(self, row: np.ndarray | None = None) -> float:
        """Surrogate loss of the target with `row` (its current row by default)."""
        return float(_loss((self.row if row is None else row) @ self.cvals, self.c_old))

    def commit(self, p: Perturbation, row: np.ndarray | None = None) -> None:
        """Apply and log one flip; `row` is the target's row after an edge
        flip when the caller already has it."""
        g = self.g
        if p.kind == EDGE:
            self.row = row if row is not None else updated_square_row_from(
                self.row, self.dtilde, g, p.u, p.v, self.v0)
            self.degree_state.commit_edge(int(g.degrees[p.u]), int(g.degrees[p.v]),
                                          int(not p.insert))
            g.flip_edge_inplace(p.u, p.v)
            self.dtilde = g.degrees.astype(np.float64) + 1.0
        else:
            self.cvals[p.u] += (1.0 if p.insert else -1.0) * self.w[p.v]
            g.flip_feature_inplace(p.u, p.v)
        self.result.perturbations.append(p)
        self.result.loss_trace.append(self.loss())
        self.result.lambda_trace.append(self.degree_state.lambda_current())


def run_nettack(g0: AttributedGraph, model: SurrogateModel, cfg: AttackConfig,
                na: NormalizedAdjacency | None = None) -> AttackResult:
    """Greedy budgeted attack on one target node.

    Applies up to `budget` flips, each step taking the admissible flip
    with the highest surrogate loss; the squared-adjacency row of the
    target and the degree-test state advance incrementally per step.
    """
    check_target(g0, cfg.target)
    attackers = resolve_attackers(g0, cfg)
    run = _Run(g0, model, cfg, na, attackers, cfg.mode, cfg.constrained)
    g, v0, c_old = run.g, run.v0, run.c_old
    allowed_add = {a: (run.na.cooc.allowed_additions(a) if cfg.constrained else None)
                   for a in attackers}

    while len(run.result.perturbations) < cfg.budget:
        best = best_row = None

        if cfg.perturb_structure:
            gate = run.degree_state if cfg.constrained else None
            cands = candidate_edges(g, cfg, gate, attackers)
            if len(cands):
                losses = _loss(edge_flip_logits(
                    run.row, run.dtilde, g, run.cvals, v0, cands.pairs, cands.is_edge),
                    c_old)
                # Settle the winner on the exact row: near-ties are rescored
                # in sorted pair order, so an exact tie goes to the smaller pair.
                for i in np.flatnonzero(losses >= losses.max() - NEAR_TIE):
                    m, n = cands.pairs[i].tolist()
                    new_row = updated_square_row_from(run.row, run.dtilde, g, m, n, v0)
                    cand = Perturbation(kind=EDGE, u=m, v=n, insert=not cands.is_edge[i],
                                        score=run.loss(new_row))
                    if _beats(cand, best):
                        best, best_row = cand, new_row

        if cfg.perturb_features:
            logits = run.row @ run.cvals
            for a in attackers:
                present = np.zeros(g.n_features, dtype=bool)
                present[g.features_of(a)] = True
                losses = score_features(run.row, logits, run.w, a, present, c_old)
                idx = np.flatnonzero(candidate_features(present, allowed_add[a]))
                for i in idx[np.argsort(-losses[idx], kind="stable")[:1]]:
                    cand = Perturbation(kind=FEATURE, u=a, v=int(i),
                                        insert=not present[i], score=float(losses[i]))
                    if _beats(cand, best):
                        best = cand

        if best is None:
            run.result.starved = True
            break
        if best.kind == FEATURE:
            check = "removal" if not best.insert else (
                "cooccurrence_pass" if cfg.constrained else "unconstrained")
            run.result.feature_checks.append(
                {"step": len(run.result.perturbations), "u": int(best.u),
                 "i": int(best.v), "insert": bool(best.insert), "test": check})
        run.commit(best, best_row)

    return run.result


def rnd_baseline(g0: AttributedGraph, cfg: AttackConfig, model: SurrogateModel,
                 na: NormalizedAdjacency | None = None) -> AttackResult:
    """Random cross-class edge insertions at the target, no constraints."""
    if cfg.mode != DIRECT:
        raise ValueError("the random baseline only runs as a direct attack")
    if not cfg.perturb_structure:
        raise ValueError("the random baseline only inserts edges; it cannot run features-only")
    v0 = cfg.target
    check_target(g0, v0)
    c0 = int(g0.labels[v0])
    if c0 == 0:
        raise GraphError("random baseline needs the target's ground-truth label")
    rng = np.random.default_rng(cfg.seed)
    run = _Run(g0, model, cfg, na)
    g = run.g
    for _ in range(cfg.budget):
        # Labeled nodes of another class (so never v0) not yet linked to v0.
        pool = np.flatnonzero((g.labels != 0) & (g.labels != c0)
                              & (g.adjacency_row(v0) == 0))
        if not len(pool):
            run.result.starved = True
            break
        u = int(pool[rng.integers(len(pool))])
        run.commit(Perturbation(kind=EDGE, u=min(v0, u), v=max(v0, u), insert=True))
    return run.result


def _structure_gradient(g: AttributedGraph, d: np.ndarray, row2: np.ndarray,
                        q: np.ndarray, v0: int) -> np.ndarray:
    """d(loss-gap)/d a_{v0,x} for every x, treating entries as continuous.

    `d` is the self-loop degrees of `g` and `row2` the target's
    squared-adjacency row. Accounts for the degree renormalization that an
    edge change induces on both endpoints. Â is never formed: with
    s = 1/sqrt(d), Â q = s (A (s q) + s q), and row v0 of Â is
    s[v0] s times v0's adjacency row with its own entry set to 1.
    """
    s = 1.0 / np.sqrt(d)
    sq = s * q
    h1 = s * (g.adj @ sq + sq)
    a_v0 = g.adjacency_row(v0)
    a_v0[v0] = 1.0
    h2 = s[v0] * s * a_v0
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

    It keeps only the running state every attack keeps: the gradient
    reads the graph and the self-loop degrees. `na` is only read.
    """
    if cfg.mode != DIRECT:
        raise ValueError("the gradient baseline only runs as a direct attack")
    v0 = cfg.target
    check_target(g0, v0)
    run = _Run(g0, model, cfg, na)
    g, w, c_old = run.g, run.w, run.c_old

    for _ in range(cfg.budget):
        c_best = int(margin(run.row @ run.cvals, c_old)[1])
        q = run.cvals[:, c_best] - run.cvals[:, c_old]

        best = None
        if cfg.perturb_structure:
            grad = _structure_gradient(g, run.dtilde, run.row, q, v0)
            a_row = g.adjacency_row(v0).astype(bool)
            usable = np.where(a_row, grad < 0.0, grad > 0.0)
            usable[v0] = False
            mag = np.where(usable, np.abs(grad), 0.0)
            if mag.max() > 0.0:
                x = int(np.argmax(mag))
                best = Perturbation(kind=EDGE, u=min(v0, x), v=max(v0, x),
                                    insert=not a_row[x], score=float(mag[x]))
        if cfg.perturb_features:
            fgrad = run.row[v0] * (w[:, c_best] - w[:, c_old])
            feat_mask = np.zeros(g.n_features, dtype=bool)
            feat_mask[g.features_of(v0)] = True
            usable = np.where(feat_mask, fgrad < 0.0, fgrad > 0.0)
            mag = np.where(usable, np.abs(fgrad), 0.0)
            if mag.max() > 0.0:
                i = int(np.argmax(mag))
                cand = Perturbation(kind=FEATURE, u=v0, v=i, insert=not feat_mask[i],
                                    score=float(mag[i]))
                if _beats(cand, best):
                    best = cand

        if best is None:
            run.result.starved = True
            break
        run.commit(best)
    return run.result


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
    deg0 = g0.degrees
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
