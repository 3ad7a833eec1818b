"""Greedy targeted perturbation search plus random and gradient baselines.

Each greedy step scores every structurally admissible edge flip on an
attacker x node grid in closed form (constant work per candidate) and
the feature flips of all attackers in one more pass, through
their exact (linear) effect on the target's logits, then applies the
single best flip; near-ties among edge flips are settled on the exact row
update of the squared normalized adjacency, which also commits the winner.
Both passes are class-major (the K classes on the outer axis), and the
loss is one max over the other classes per candidate. Admissibility
combines the attacker locality rule, the budget, and (in constrained
mode) the co-occurrence gate and, after scoring, the degree gate, asked
only about the degree triples that can still win. The candidate grid
and the co-occurrence masks are built once per run; the grid follows
the committed edge flips, and its invalid cells and the rules that
change within a run (the isolation guard, the degree gate) set a
candidate's loss to -inf.

All three attacks take (graph, surrogate, config, context) and advance
one running state (`_Run`): the graph, the target's squared-adjacency
row, C = X W, the degree test and the result log, moved past each flip
by one `commit`; the self-loop degrees are read off the graph. They read
the clean graph's context (`NormalizedAdjacency`) and never write to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constraints import (DegreeTestState, build_cooccurrence, lambda_statistic,
                          DEFAULT_D_MIN, DEFAULT_TAU)
from .data import write_json
from .graph import (EDGE, FEATURE, AttributedGraph, GraphError, Perturbation,
                    check_target, is_finite_number, is_int, nan_to_none, require_int)
from .surrogate import (NormalizedAdjacency, SurrogateModel, edge_flip_grid, margin,
                        updated_square_row_from)

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
        if not is_int(self.target):
            raise ValueError(f"target must be an integer, got {self.target!r}")
        for name, least in (("seed", 0), ("budget", 1), ("n_influencers", 1), ("d_min", 1)):
            require_int(name, getattr(self, name), least)
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
    """Admissible edge flips on an attacker x node grid, cell (j, x) at flat
    index j N + x: the pair (m, n), m < n, of `attackers[j]` and node x,
    whether it is a candidate, and whether it is an edge (the flip removes
    it). `run_nettack` builds one per run and sets `is_edge` of each edge
    flip it commits."""

    attackers: np.ndarray  # (A,) int
    pairs: np.ndarray      # (A N, 2) int
    valid: np.ndarray      # (A, N) bool
    is_edge: np.ndarray    # (A, N) bool

    def __len__(self) -> int:
        return int(np.count_nonzero(self.valid))


def candidate_edges(g: AttributedGraph, cfg: AttackConfig,
                    attackers: tuple[int, ...]) -> EdgeCandidates:
    """Structurally admissible edge flips, one row per attacker.

    A pair is a candidate when one endpoint is an attacker and - in
    influencer mode - it does not touch the target: the rules that hold for
    a whole run. A pair of two attackers is kept only in the row of its
    smaller end. The rules that change as flips are committed act on the
    scores: `run_nettack` sets -inf on the target's last edge (removing it
    would isolate the target) and `gate_from_top` applies the degree test.
    """
    att, nodes = np.asarray(attackers)[:, None], np.arange(g.n_nodes)
    is_attacker = np.zeros(g.n_nodes, dtype=bool)
    is_attacker[att] = True
    valid = ~is_attacker | (nodes > att)
    if cfg.mode == INFLUENCER:
        valid[:, cfg.target] = False
    is_edge = np.zeros(valid.shape, dtype=bool)
    for row, a in zip(is_edge, attackers):
        row[g.neighbors(a)] = True
    pairs = np.stack([np.minimum(att, nodes).ravel(), np.maximum(att, nodes).ravel()], axis=1)
    return EdgeCandidates(attackers=att[:, 0], pairs=pairs, valid=valid, is_edge=is_edge)


def gate_from_top(g: AttributedGraph, cands: EdgeCandidates, losses: np.ndarray,
                  degree_state: DegreeTestState) -> np.ndarray:
    """`losses`, flat over the grid, with -inf where the degree test rejects
    a candidate or is not asked. It is asked once per (deg m, deg n, a_mn)
    triple, from the best loss down, until a triple's best loss falls below
    the best admitted loss minus `NEAR_TIE`: the band that the greedy step
    rescores is the one that gating every pair would leave.
    """
    degs = g.degrees
    d_m, d_n = degs[cands.pairs[:, 0]], degs[cands.pairs[:, 1]]
    # Degrees are coded by rank among the values present, so the triple
    # table grows with the number of distinct degrees, not with the largest.
    present = np.zeros(degs.max() + 1, dtype=bool)
    present[d_m], present[d_n] = True, True
    values, rank = np.flatnonzero(present), np.cumsum(present) - 1
    k = len(values)
    code = (rank[d_m] * k + rank[d_n]) * 2 + cands.is_edge.ravel()
    best = np.full(2 * k * k, -np.inf)
    np.maximum.at(best, code, losses)
    triples = np.flatnonzero(best > -np.inf)
    admitted, top = np.zeros(len(best), dtype=bool), -np.inf
    for t in triples[np.argsort(-best[triples], kind="stable")].tolist():
        if best[t] < top - NEAR_TIE:
            break
        if degree_state.edge_allowed(int(values[t // 2 // k]), int(values[t // 2 % k]), t % 2):
            admitted[t] = True
            top = max(top, best[t])
    return np.where(admitted[code], losses, -np.inf)


def candidate_features(present: np.ndarray,
                       allowed: np.ndarray | None) -> np.ndarray:
    """Admissible feature flips as a mask over features, of one node (D,)
    or of a stack of nodes (A, D).

    `present` marks the nodes' current features. Removals are always
    admissible; additions only where `allowed` is set (every feature when
    `allowed` is None, i.e. unconstrained).
    """
    if allowed is None:
        return np.ones_like(present)
    return present | allowed


def _loss(logits: np.ndarray, c_old: int) -> np.ndarray:
    """Surrogate loss of class-major logits (K, ...), one per trailing
    index: the best wrong class minus `c_old`."""
    return 0.0 - margin(np.moveaxis(logits, 0, -1), c_old)


def score_features(row: np.ndarray, logits: np.ndarray, w: np.ndarray,
                   u: int | np.ndarray, present: np.ndarray, c_old: int) -> np.ndarray:
    """Exact post-flip loss of the target for every feature of node u.

    `row` is the target's squared-adjacency row, `logits` its current
    logits and `present` marks u's current features: (D,) for one node,
    or (A, D) for an array of A nodes, giving (D,) or (A, D) losses. A
    single feature flip moves the logits linearly, so the new loss is
    re-evaluated exactly for the same cost as the paper's gradient score;
    unlike that score it sees a switch of the best wrong class. The new
    logits are built class-major, (K, D) or (K, A, D).
    """
    direction = 1.0 - 2.0 * present.astype(np.float64)
    step = np.asarray(row[u])[..., None] * direction  # (r direction) first: it fixes the rounding
    ones = (1,) * (step.ndim - 1)
    out = np.ascontiguousarray(w.T).reshape(w.shape[1], *ones, w.shape[0]) * step  # (K, ..., D)
    out += logits.reshape(-1, *ones, 1)
    return _loss(out, c_old)


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

    Holds the graph, the target's squared-adjacency row, the X W product
    C, the degree-test state and the result log; `commit` advances all of
    them past one flip. The clean graph's context `na` is only read. The
    reference class is the target's label, or else the surrogate's
    clean-graph prediction from the row and C held here.
    """

    def __init__(self, g0: AttributedGraph, model: SurrogateModel,
                 cfg: AttackConfig, na: NormalizedAdjacency,
                 attackers: tuple[int, ...] | None = None, constrained: bool = False):
        shape, want = list(model.weights.shape), [g0.n_features, g0.n_classes]
        if shape != want:
            raise ValueError(f"surrogate model shape {shape} does not match "
                             f"the graph's [D, K] = {want}")
        self.na = na
        self.v0 = v0 = cfg.target
        self.g = g0.copy()
        self.w = model.weights
        self.row = na.square_row(v0)
        self.cvals = self.g.feat @ self.w  # one row moves per feature flip
        self.c_old = (int(g0.labels[v0] - 1) if g0.labels[v0] > 0
                      else int(np.argmax(self.row @ self.cvals)))
        self.degree_state = DegreeTestState.from_graph(g0, cfg.d_min, cfg.tau,
                                                       cfg.eq7_as_printed)
        self.result = AttackResult(target=v0, attackers=attackers or (v0,),
                                   budget=cfg.budget, mode=cfg.mode,
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
                self.row, g, p.u, p.v, self.v0)
            self.degree_state.commit_edge(g.degree(p.u), g.degree(p.v), int(not p.insert))
            g.flip_edge_inplace(p.u, p.v)
        else:
            self.cvals[p.u] += (1.0 if p.insert else -1.0) * self.w[p.v]
            g.flip_feature_inplace(p.u, p.v)
        self.result.perturbations.append(p)
        self.result.loss_trace.append(self.loss())
        self.result.lambda_trace.append(self.degree_state.lambda_current())


def run_nettack(g0: AttributedGraph, model: SurrogateModel, cfg: AttackConfig,
                na: NormalizedAdjacency) -> AttackResult:
    """Greedy budgeted attack on one target node.

    Applies up to `budget` flips, each step taking the admissible flip
    with the highest surrogate loss; the squared-adjacency row of the
    target and the degree-test state advance incrementally per step.
    """
    check_target(g0, cfg.target)
    attackers = resolve_attackers(g0, cfg)
    run = _Run(g0, model, cfg, na, attackers, cfg.constrained)
    g, v0, c_old = run.g, run.v0, run.c_old
    allowed_add = (run.na.cooc.allowed_additions(list(attackers))
                   if cfg.constrained else None)
    cands = candidate_edges(g, cfg, attackers) if cfg.perturb_structure else None

    while len(run.result.perturbations) < cfg.budget:
        best = best_row = None

        if cands is not None and len(cands):
            losses = _loss(edge_flip_grid(run.row, g, run.cvals, v0, cands.attackers,
                                          cands.pairs, cands.is_edge), c_old)
            losses[~cands.valid] = -np.inf
            if cfg.mode == DIRECT and g.degree(v0) == 1:
                # Every direct pair is at the target, and only its last
                # edge is an edge: removing it would isolate the target.
                losses[cands.is_edge] = -np.inf
            losses = losses.ravel()
            if cfg.constrained:
                losses = gate_from_top(g, cands, losses, run.degree_state)
            # Settle the winner on the exact row; an exact tie goes to the
            # smaller pair (`_beats`). Gated-off candidates (-inf) are never
            # rescored.
            for i in np.flatnonzero((losses >= losses.max() - NEAR_TIE) & (losses > -np.inf)):
                m, n = cands.pairs[i].tolist()
                new_row = updated_square_row_from(run.row, g, m, n, v0)
                cand = Perturbation(kind=EDGE, u=m, v=n, insert=not cands.is_edge.flat[i],
                                    score=run.loss(new_row))
                if _beats(cand, best):
                    best, best_row = cand, new_row

        if cfg.perturb_features:
            present = np.zeros((len(attackers), g.n_features), dtype=bool)
            for mask, a in zip(present, attackers):
                mask[g.features_of(a)] = True
            losses = score_features(run.row, run.row @ run.cvals, run.w,
                                    np.asarray(attackers), present, c_old)
            admissible = candidate_features(present, allowed_add)
            if admissible.any():
                # The first maximum in C order: attackers are sorted, so an
                # exact tie goes to the smaller (attacker, feature), as `_beats`.
                j, i = np.unravel_index(np.argmax(np.where(admissible, losses, -np.inf)),
                                        losses.shape)
                cand = Perturbation(kind=FEATURE, u=attackers[j], v=int(i),
                                    insert=not present[j, i], score=float(losses[j, i]))
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
        if best.kind == EDGE:
            cands.is_edge[cands.attackers == best.u, best.v] = best.insert
            cands.is_edge[cands.attackers == best.v, best.u] = best.insert

    return run.result


def rnd_baseline(g0: AttributedGraph, model: SurrogateModel, cfg: AttackConfig,
                 na: NormalizedAdjacency) -> AttackResult:
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


def _structure_gradient(g: AttributedGraph, row2: np.ndarray, q: np.ndarray,
                        v0: int) -> np.ndarray:
    """d(loss-gap)/d a_{v0,x} for every x, treating entries as continuous.

    `row2` is the target's squared-adjacency row in `g`. Accounts for the
    degree renormalization that an edge change induces on both endpoints.
    Â is never formed: with d the self-loop degrees and s = 1/sqrt(d),
    Â q = s (A (s q) + s q), and row v0 of Â is s[v0] s times v0's
    adjacency row with its own entry set to 1.
    """
    d = g.degrees + 1.0
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
                  na: NormalizedAdjacency) -> AttackResult:
    """Sign-gradient direct attack: flip the entry with the largest
    usable gradient each step, then re-evaluate exactly.

    It keeps only the running state every attack keeps: the gradient
    reads the graph. `na` is only read.
    """
    if cfg.mode != DIRECT:
        raise ValueError("the gradient baseline only runs as a direct attack")
    v0 = cfg.target
    check_target(g0, v0)
    run = _Run(g0, model, cfg, na)
    g, w, c_old = run.g, run.w, run.c_old

    for _ in range(cfg.budget):
        # The best wrong class, the first one on a tie.
        logits = run.row @ run.cvals
        c_best = int(np.argmax(np.where(np.arange(len(logits)) == c_old, -np.inf, logits)))
        q = run.cvals[:, c_best] - run.cvals[:, c_old]

        best = None
        if cfg.perturb_structure:
            grad = _structure_gradient(g, run.row, q, v0)
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
                       d_min: int = DEFAULT_D_MIN, tau: float = DEFAULT_TAU) -> dict:
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
            lam = lambda_statistic(deg0, g.degrees, d_min)
            lam_trace.append(lam)
            if lam >= tau:
                violations.append({"step": step, "kind": EDGE, "lambda": lam})
        else:
            if p.insert and not coidx.allowed_additions([p.u])[0, p.v]:
                violations.append({"step": step, "kind": FEATURE,
                                   "u": p.u, "i": p.v})
            g.flip_feature_inplace(p.u, p.v)
            lam_trace.append(lam_trace[-1] if lam_trace else 0.0)
    return {"ok": not violations, "violations": violations,
            "lambda_trace": lam_trace,
            "final_lambda": lam_trace[-1] if lam_trace else 0.0}
