"""End-to-end protocol: target selection, per-target attacks, evaluation.

One experiment sweeps split seeds; per seed it trains the surrogate,
picks margin-extreme plus random targets, runs each attack in the roster
with a degree-plus-two budget, and evaluates evasion and poisoning
margins of the victim. Everything is seeded, and all emitted files are
byte-stable across reruns.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .attack import (AttackConfig, AttackResult, DIRECT, INFLUENCER, apply_result,
                     fgsm_baseline, replay_constraints, rnd_baseline, run_nettack)
from .constraints import DEFAULT_D_MIN, DEFAULT_TAU
from .data import BUNDLE_FILES, DataSplit, load_bundle, make_split
from .gcn import GcnConfig, evasion_eval, poisoning_eval, train_gcn
from .graph import AttributedGraph, induced_subgraph
from .surrogate import (NormalizedAdjacency, SurrogateModel, softmax,
                        surrogate_logits, train_surrogate)

log = logging.getLogger(__name__)

ATTACK_NAMES = ("nettack", "nettack-in", "fgsm", "rnd", "nettack-u")

DEGREE_BUCKETS = ((1, 5), (6, 10), (11, 20), (21, 100), (101, None))


@dataclass
class ExperimentPlan:
    dataset: str
    out_dir: str
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    attacks: tuple[str, ...] = ATTACK_NAMES
    n_high: int = 10
    n_low: int = 10
    n_random: int = 20
    budget_offset: int = 2  # budget = target degree + offset
    poisoning_runs: int = 10
    d_min: int = DEFAULT_D_MIN
    tau: float = DEFAULT_TAU
    limited_fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0)
    gcn_hidden: int = 16
    gcn_learning_rate: float = 0.01
    gcn_max_epochs: int = 200
    gcn_patience: int = 30

    def __post_init__(self):
        for a in self.attacks:
            if a not in ATTACK_NAMES:
                raise ValueError(f"unknown attack {a!r}; choose from {ATTACK_NAMES}")

    def gcn_config(self) -> GcnConfig:
        return GcnConfig(hidden=self.gcn_hidden, learning_rate=self.gcn_learning_rate,
                         max_epochs=self.gcn_max_epochs, patience=self.gcn_patience)

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("seeds", "attacks", "limited_fractions"):
            d[key] = list(d[key])
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentPlan":
        d = dict(d)
        for key in ("seeds", "attacks", "limited_fractions"):
            if key in d:
                d[key] = tuple(d[key])
        return ExperimentPlan(**d)

    @staticmethod
    def load(path: str | Path) -> "ExperimentPlan":
        return ExperimentPlan.from_dict(json.loads(Path(path).read_text()))


@dataclass
class TargetSelection:
    high_margin: list[int]
    low_margin: list[int]
    random: list[int]

    @property
    def all(self) -> list[int]:
        return self.high_margin + self.low_margin + self.random


def select_targets(model: SurrogateModel, g: AttributedGraph,
                   na: NormalizedAdjacency, split: DataSplit,
                   seed: int, n_high: int = 10, n_low: int = 10,
                   n_random: int = 20) -> TargetSelection:
    """Margin-extreme and random correctly-classified test nodes.

    Highest-margin and lowest-margin correct nodes bracket the difficulty
    range; the random group samples the rest. Margin ties break toward
    the smaller node id. Falls back to every correct node with a warning
    when the pool is short.
    """
    probs = softmax(surrogate_logits(na, g, model))
    y = g.labels - 1
    pool = [int(u) for u in split.unlabeled_ids if y[u] >= 0]
    correct = []
    for u in pool:
        p = probs[u]
        if int(np.argmax(p)) != y[u]:
            continue
        mask = np.ones(len(p), dtype=bool)
        mask[y[u]] = False
        correct.append((float(p[y[u]] - p[mask].max()), u))

    want = n_high + n_low + n_random
    if len(correct) < want:
        log.warning("only %d correctly classified test nodes; wanted %d",
                    len(correct), want)
    by_margin_desc = sorted(correct, key=lambda t: (-t[0], t[1]))
    high = [u for _, u in by_margin_desc[:n_high]]
    rest = [t for t in correct if t[1] not in set(high)]
    by_margin_asc = sorted(rest, key=lambda t: (t[0], t[1]))
    low = [u for _, u in by_margin_asc[:n_low]]
    remainder = sorted(u for _, u in rest if u not in set(low))
    rng = np.random.default_rng(seed)
    n_rand = min(n_random, len(remainder))
    rand = sorted(int(u) for u in rng.choice(remainder, size=n_rand, replace=False)) \
        if n_rand else []
    return TargetSelection(high_margin=sorted(high), low_margin=sorted(low),
                           random=rand)


def limited_knowledge_subgraph(g: AttributedGraph, v0: int,
                               fraction: float) -> tuple[AttributedGraph, np.ndarray]:
    """Induced subgraph of the closest ceil(fraction*N) nodes around v0.

    Nodes join in breadth-first rings from v0; a partially used ring is
    filled smallest-id first, as are any nodes unreachable from v0 once
    the component is exhausted. Returns the subgraph (dense ids) plus the
    new-id -> original-id map.
    """
    if fraction <= 0:
        raise ValueError("fraction must be positive")
    fraction = min(fraction, 1.0)
    target_n = math.ceil(fraction * g.n_nodes)
    chosen: list[int] = [v0]
    seen = {v0}
    ring = [v0]
    while len(chosen) < target_n and ring:
        nxt = sorted({w for u in ring for w in g.neighbors(u)} - seen)
        if not nxt:
            break
        take = nxt[:target_n - len(chosen)]
        chosen.extend(take)
        seen.update(nxt)
        ring = nxt
    if len(chosen) < target_n:  # disconnected remainder, smallest ids first
        for u in range(g.n_nodes):
            if u not in seen:
                chosen.append(u)
                if len(chosen) == target_n:
                    break
    return induced_subgraph(g, chosen)


def degree_bucket_report(rows) -> list[dict]:
    """Fraction correct per degree bucket for clean and attacked runs.

    `rows` iterates (degree, clean_correct_fraction, attacked_correct_fraction).
    Empty buckets are omitted.
    """
    out = []
    rows = list(rows)
    for lo, hi in DEGREE_BUCKETS:
        members = [r for r in rows if r[0] >= lo and (hi is None or r[0] <= hi)]
        if not members:
            continue
        label = f"[{lo};{hi}]" if hi is not None else f"[{lo};inf)"
        out.append({
            "bucket": label,
            "n": len(members),
            "clean_fraction": float(np.mean([r[1] for r in members])),
            "attacked_fraction": float(np.mean([r[2] for r in members])),
        })
    return out


def run_attack_by_name(name: str, g0: AttributedGraph, model: SurrogateModel,
                       na: NormalizedAdjacency, target: int, budget: int,
                       seed: int, d_min: int = DEFAULT_D_MIN,
                       tau: float = DEFAULT_TAU) -> AttackResult:
    """Dispatch one roster attack with shared constraint settings."""
    base = dict(target=target, budget=budget, seed=seed, d_min=d_min, tau=tau)
    if name == "nettack":
        return run_nettack(g0, model, AttackConfig(mode=DIRECT, **base), na=na)
    if name == "nettack-u":
        return run_nettack(g0, model,
                           AttackConfig(mode=DIRECT, constrained=False, **base), na=na)
    if name == "nettack-in":
        return run_nettack(g0, model, AttackConfig(mode=INFLUENCER, **base), na=na)
    if name == "fgsm":
        return fgsm_baseline(g0, model, AttackConfig(mode=DIRECT, **base), na=na)
    if name == "rnd":
        return rnd_baseline(g0, AttackConfig(mode=DIRECT, **base), model=model, na=na)
    raise ValueError(f"unknown attack {name!r}")


def _content_hash(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(str(p) for p in paths):
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue())


@dataclass
class SeedOutcome:
    """All rows produced by one split seed, ready for aggregation."""

    seed: int
    targets: TargetSelection | None = None
    margin_rows: list = field(default_factory=list)   # seed, attack, mode, target, degree, margin, correct_fraction
    loss_rows: list = field(default_factory=list)     # seed, attack, target, step, loss
    lambda_rows: list = field(default_factory=list)   # seed, attack, target, step, lambda
    failures: list = field(default_factory=list)


def _run_one_seed(plan: ExperimentPlan, seed: int) -> SeedOutcome:
    g = load_bundle(plan.dataset)
    split = make_split(g, seed)
    na = NormalizedAdjacency.build(g)
    model = train_surrogate(g, na, split)
    targets = select_targets(model, g, na, split, seed=seed, n_high=plan.n_high,
                             n_low=plan.n_low, n_random=plan.n_random)
    out = SeedOutcome(seed=seed, targets=targets)
    cfg_gcn = plan.gcn_config()
    runs_dir = Path(plan.out_dir) / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    model_clean = train_gcn(g, split, seed=9000 + seed, config=cfg_gcn)
    clean_poison = poisoning_eval(g, split, targets.all, runs=plan.poisoning_runs,
                                  base_seed=seed * 100000, config=cfg_gcn)
    clean_evasion = evasion_eval(model_clean, g, targets.all)
    for t in clean_poison.targets:
        out.margin_rows.append([seed, "clean", "poisoning", t.node,
                                g.degree(t.node), t.margin, t.correct_fraction])
    for t in clean_evasion.targets:
        out.margin_rows.append([seed, "clean", "evasion", t.node,
                                g.degree(t.node), t.margin, t.correct_fraction])

    for ai, attack in enumerate(plan.attacks):
        for v0 in targets.all:
            budget = g.degree(v0) + plan.budget_offset
            run_seed = seed * 100000 + ai * 10000 + v0
            try:
                result = run_attack_by_name(attack, g, model, na, v0, budget,
                                            run_seed, plan.d_min, plan.tau)
                g_att = apply_result(g, result)
                evasion = evasion_eval(model_clean, g_att, [v0])
                poison = poisoning_eval(g_att, split, [v0],
                                        runs=plan.poisoning_runs,
                                        base_seed=seed * 100000, config=cfg_gcn)
                audit = replay_constraints(g, result, plan.d_min, plan.tau)
            except Exception as exc:  # keep the sweep alive, record the failure
                log.exception("run failed: seed=%s attack=%s target=%s", seed, attack, v0)
                out.failures.append({"seed": seed, "attack": attack,
                                     "target": v0, "error": repr(exc)})
                continue
            deg = g.degree(v0)
            te, tp = evasion.targets[0], poison.targets[0]
            out.margin_rows.append([seed, attack, "evasion", v0, deg,
                                    te.margin, te.correct_fraction])
            out.margin_rows.append([seed, attack, "poisoning", v0, deg,
                                    tp.margin, tp.correct_fraction])
            for step, loss in enumerate([result.initial_loss] + result.loss_trace):
                out.loss_rows.append([seed, attack, v0, step, loss])
            for step, lam in enumerate(result.lambda_trace):
                out.lambda_rows.append([seed, attack, v0, step + 1, lam])
            payload = {
                "seed": seed, "attack": attack,
                "result": result.to_dict(),
                "evasion": evasion.to_dict(),
                "poisoning": poison.to_dict(),
                "replay_audit": audit,
            }
            run_path = runs_dir / f"seed{seed}_{attack}_t{v0}.json"
            run_path.write_text(json.dumps(payload, sort_keys=True, indent=1,
                                           allow_nan=False) + "\n")
    return out


def run_limited_knowledge(plan: ExperimentPlan) -> list[list]:
    """Partial-visibility sweep: attack a subgraph, replay on the full graph.

    For each fraction, the attacker sees only the closest
    ceil(fraction * N) nodes around the target, trains its own surrogate
    there, and its flips are mapped back onto the full graph for
    poisoning evaluation. Runs on the plan's first seed (the sweep is an
    analysis, not part of the seed-averaged headline protocol); budgets
    still follow the full-graph degree rule.
    """
    g = load_bundle(plan.dataset)
    seed = plan.seeds[0]
    split = make_split(g, seed)
    na = NormalizedAdjacency.build(g)
    model = train_surrogate(g, na, split)
    targets = select_targets(model, g, na, split, seed=seed, n_high=plan.n_high,
                             n_low=plan.n_low, n_random=plan.n_random)
    cfg_gcn = plan.gcn_config()
    rows = []
    for fraction in plan.limited_fractions:
        for v0 in targets.all:
            sub, mapping = limited_knowledge_subgraph(g, v0, fraction)
            if sub.n_nodes < 10:
                continue  # too small to split and train on
            inverse = {int(orig): new for new, orig in enumerate(mapping)}
            sub_na = NormalizedAdjacency.build(sub)
            sub_model = train_surrogate(sub, sub_na, make_split(sub, seed))
            budget = g.degree(v0) + plan.budget_offset
            res = run_nettack(sub, sub_model,
                              AttackConfig(target=inverse[v0], budget=budget,
                                           seed=seed, d_min=plan.d_min,
                                           tau=plan.tau), na=sub_na)
            g_att = g.copy()
            for p in res.perturbations:
                if p.kind == "edge":
                    g_att.flip_edge_inplace(int(mapping[p.u]), int(mapping[p.v]))
                else:
                    g_att.flip_feature_inplace(int(mapping[p.u]), p.v)
            rep = poisoning_eval(g_att, split, [v0], runs=plan.poisoning_runs,
                                 base_seed=seed * 100000, config=cfg_gcn)
            rows.append([fraction, v0, sub.n_nodes, len(res.perturbations),
                         rep.targets[0].margin, rep.targets[0].correct_fraction])
    return rows


def run_experiment(plan: ExperimentPlan) -> dict:
    """Execute a plan and write run JSONs, aggregate CSVs, and a manifest.

    Honors NETTACK_WORKERS for seed-level parallelism; results are merged
    in seed order so outputs stay byte-identical either way.
    """
    raw = os.environ.get("NETTACK_WORKERS", "1")
    if not raw.strip().isdigit() or int(raw) < 1:
        raise ValueError(f"NETTACK_WORKERS must be an integer >= 1, got {raw!r}")
    workers = int(raw)
    out_dir = Path(plan.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = list(plan.seeds)
    if workers > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_one_seed, [plan] * len(seeds), seeds))
    else:
        outcomes = [_run_one_seed(plan, s) for s in seeds]

    margin_rows = [r for o in outcomes for r in o.margin_rows]
    loss_rows = [r for o in outcomes for r in o.loss_rows]
    lambda_rows = [r for o in outcomes for r in o.lambda_rows]
    failures = [f for o in outcomes for f in o.failures]

    _write_csv(out_dir / "margin_scatter.csv",
               ["seed", "attack", "mode", "target", "degree", "margin",
                "correct_fraction"], margin_rows)
    _write_csv(out_dir / "lambda_trace.csv",
               ["seed", "attack", "target", "step", "lambda"], lambda_rows)

    # Mean loss over (seed, target) runs per attack and step.
    loss_acc: dict[tuple[str, int], list[float]] = {}
    for seed, attack, v0, step, loss in loss_rows:
        if not (isinstance(loss, float) and math.isnan(loss)):
            loss_acc.setdefault((attack, step), []).append(loss)
    loss_out = [[a, s, float(np.mean(v)), len(v)]
                for (a, s), v in sorted(loss_acc.items())]
    _write_csv(out_dir / "loss_vs_perturbations.csv",
               ["attack", "step", "mean_loss", "n_runs"], loss_out)

    agg_acc: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for seed, attack, mode, v0, deg, margin, cf in margin_rows:
        agg_acc.setdefault((attack, mode), []).append((margin, cf))
    agg_rows = []
    dataset_name = Path(plan.dataset).name
    for (attack, mode), vals in sorted(agg_acc.items()):
        agg_rows.append([dataset_name, attack, mode,
                         float(np.mean([v[1] for v in vals])),
                         float(np.mean([v[0] for v in vals])),
                         len(vals)])
    _write_csv(out_dir / "aggregate.csv",
               ["dataset", "attack", "mode", "fraction_correct", "mean_margin",
                "n_rows"], agg_rows)

    # Degree buckets against the clean poisoning margins, per attack.
    clean_cf = {(r[0], r[3]): r[6] for r in margin_rows
                if r[1] == "clean" and r[2] == "poisoning"}
    bucket_rows = []
    for attack in plan.attacks:
        per_target = [(r[4], clean_cf.get((r[0], r[3]), float("nan")), r[6])
                      for r in margin_rows if r[1] == attack and r[2] == "poisoning"]
        for row in degree_bucket_report(per_target):
            bucket_rows.append([attack, row["bucket"], row["n"],
                                row["clean_fraction"], row["attacked_fraction"]])
    _write_csv(out_dir / "degree_buckets.csv",
               ["attack", "bucket", "n", "clean_fraction", "attacked_fraction"],
               bucket_rows)

    if plan.limited_fractions:
        _write_csv(out_dir / "limited_knowledge.csv",
                   ["fraction", "target", "visible_nodes", "n_flips",
                    "poisoned_margin", "correct_fraction"],
                   run_limited_knowledge(plan))

    manifest = {
        "plan": plan.to_dict(),
        "input_hash": _content_hash([Path(plan.dataset) / f for f in BUNDLE_FILES]),
        "plan_hash": hashlib.sha256(
            json.dumps(plan.to_dict(), sort_keys=True).encode()).hexdigest(),
        "failures": failures,
        "targets": {str(o.seed): o.targets.all for o in outcomes},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1, allow_nan=False) + "\n")
    return manifest


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
    with (Path(out_dir) / "margin_scatter.csv").open() as fh:
        rows = [r for r in csv.DictReader(fh) if r["mode"] == "poisoning"]
    fractions = {}
    for name in ("clean",) + tuple(attacks):
        sub = [float(r["correct_fraction"]) for r in rows if r["attack"] == name]
        fractions[name] = float(np.mean(sub)) if sub else float("nan")
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


def table3_csv(results_dir: str | Path, out_path: str | Path | None = None) -> str:
    """Summary table: poisoning fraction-correct per attack, clean first."""
    agg = Path(results_dir) / "aggregate.csv"
    rows = list(csv.DictReader(agg.open()))
    order = ["clean", "nettack", "fgsm", "rnd", "nettack-in", "nettack-u"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["attack", "fraction_correct"])
    for name in order:
        for r in rows:
            if r["attack"] == name and r["mode"] == "poisoning":
                writer.writerow([name, r["fraction_correct"]])
    text = buf.getvalue()
    if out_path is not None:
        Path(out_path).write_text(text)
    return text
