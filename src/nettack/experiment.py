"""End-to-end protocol: target selection, per-target attacks, evaluation.

One experiment sweeps split seeds. Per seed it trains the surrogate and
picks margin-extreme plus random targets; its tasks are the clean step,
each roster attack on each target (degree-plus-two budget, evasion and
poisoning margins of the victim) and, on the first seed, each (fraction,
target) task of the limited-knowledge sweep. Worker processes run them.
Target selection ranks margins with `surrogate.margin`, the rule behind
the attack loss and the victim's margins too. Everything is seeded, and
all emitted files are byte-stable across reruns.
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
from contextlib import nullcontext
from dataclasses import dataclass, fields, asdict, replace
from itertools import product, repeat
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import shortest_path

from .attack import (AttackConfig, AttackResult, DIRECT, INFLUENCER, apply_result,
                     fgsm_baseline, replay_constraints, rnd_baseline, run_nettack)
from .constraints import DEFAULT_D_MIN, DEFAULT_TAU
from .data import BUNDLE_FILES, DataSplit, json_object, load_bundle, make_split, write_json
from .gcn import GcnConfig, evasion_eval, poisoning_eval, train_gcn
from .graph import EDGE, AttributedGraph, induced_subgraph, is_finite_number, is_int
from .surrogate import (NormalizedAdjacency, SurrogateModel, margin, softmax,
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
        for name in ("dataset", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"plan key {name!r} must be a string, "
                                 f"got {getattr(self, name)!r}")
        if not self.seeds or not all(is_int(s) for s in self.seeds):
            raise ValueError(f"plan seeds must be a non-empty list of integers, "
                             f"got {list(self.seeds)!r}")
        for a in self.attacks:
            if a not in ATTACK_NAMES:
                raise ValueError(f"unknown attack {a!r}; choose from {ATTACK_NAMES}")
        for name, least in (("n_high", 0), ("n_low", 0), ("n_random", 0),
                            ("budget_offset", 0), ("poisoning_runs", 1), ("d_min", 1)):
            value = getattr(self, name)
            if not (is_int(value) and value >= least):
                raise ValueError(f"plan key {name!r} must be an integer of at least "
                                 f"{least}, got {value!r}")
        if not is_finite_number(self.tau):
            raise ValueError(f"plan key 'tau' must be a finite number, got {self.tau!r}")
        if not all(is_finite_number(f) and f > 0 for f in self.limited_fractions):
            raise ValueError(f"plan key 'limited_fractions' must hold finite numbers above "
                             f"0, got {list(self.limited_fractions)!r}")
        for name, what in (("seeds", "seed"), ("attacks", "attack"),
                           ("limited_fractions", "fraction")):
            values = getattr(self, name)
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"plan key {name!r} must be distinct, got {what} {v!r} twice")
        self.gcn_config()  # rejects GCN settings that cannot train

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
        json_object(d, "plan", ("dataset", "out_dir"))
        unknown = sorted(set(d) - {f.name for f in fields(ExperimentPlan)})
        if unknown:
            raise ValueError(f"unknown plan keys: {', '.join(unknown)}")
        d = dict(d)
        for key in ("seeds", "attacks", "limited_fractions"):
            if key in d:
                if not isinstance(d[key], list):
                    raise ValueError(f"plan key {key!r} must be a list, got {d[key]!r}")
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
    pool = split.unlabeled_ids[y[split.unlabeled_ids] >= 0]
    pool = pool[probs[pool].argmax(axis=1) == y[pool]]
    m = margin(probs[pool], y[pool])[0]

    want = n_high + n_low + n_random
    if len(pool) < want:
        log.warning("only %d correctly classified test nodes; wanted %d",
                    len(pool), want)
    by_margin_desc = np.lexsort((pool, -m))
    high, rest = by_margin_desc[:n_high], by_margin_desc[n_high:]
    by_margin_asc = rest[np.lexsort((pool[rest], m[rest]))]
    low = by_margin_asc[:n_low]
    remainder = np.sort(pool[by_margin_asc[n_low:]])
    rng = np.random.default_rng(seed)
    n_rand = min(n_random, len(remainder))
    rand = sorted(int(u) for u in rng.choice(remainder, size=n_rand, replace=False)) \
        if n_rand else []
    return TargetSelection(high_margin=sorted(pool[high].tolist()),
                           low_margin=sorted(pool[low].tolist()), random=rand)


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
    hops = shortest_path(g.adj, directed=False, unweighted=True, indices=v0)
    nearest = np.lexsort((np.arange(g.n_nodes), hops))[:math.ceil(fraction * g.n_nodes)]
    return induced_subgraph(g, nearest)


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


def _write_csv(path: str | Path | None, header: list[str], rows: list[list]) -> str:
    """CSV text of a header and rows, also written to `path` unless it is None."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    if path is not None:
        Path(path).write_text(buf.getvalue())
    return buf.getvalue()


# Set-ups of the plan that `run_experiment` runs, by split seed: graph, split,
# Â, surrogate, targets and clean victim (or the exception its fit raised).
# Forked workers inherit them; a worker that starts afresh builds its own.
_set_ups: dict[int, tuple] = {}


def _set_up(plan: ExperimentPlan, seed: int) -> tuple:
    if seed not in _set_ups:
        g = load_bundle(plan.dataset)
        split = make_split(g, seed)
        na = NormalizedAdjacency.build(g)
        model = train_surrogate(g, na, split)
        targets = select_targets(model, g, na, split, seed=seed, n_high=plan.n_high,
                                 n_low=plan.n_low, n_random=plan.n_random)
        try:
            victim = train_gcn(g, split, seed=9000 + seed, config=plan.gcn_config())
        except Exception as exc:  # every attack run of the seed needs the clean model
            log.exception("clean model failed: seed=%s", seed)
            victim = exc
        _set_ups[seed] = g, split, na, model, targets, victim
    return _set_ups[seed]


def _run_task(plan: ExperimentPlan, task: tuple, reuse: bool = True):
    """(rows, None) of one task, or (None, repr of the exception it raised).

    A task is (seed, "clean", None, None), (seed, "attack", attack index,
    target) or (seed, "fraction", fraction, target). `rows` maps tables to
    the rows the task adds, plus a run's `payload` and `sweep_row`. Under
    `reuse`, a fraction task that sees the whole graph returns None rows if
    the roster has `nettack`: the merge takes that run's row.
    """
    seed, kind, key, v0 = task
    g, split, na, model, targets, victim = _set_up(plan, seed)
    if kind != "fraction" and isinstance(victim, Exception):
        return None, repr(victim)  # the clean step failed, so its runs are skipped
    retrain = dict(runs=plan.poisoning_runs, base_seed=seed * 100000, config=plan.gcn_config())
    try:
        if kind == "clean":
            reports = {"poisoning": poisoning_eval(g, split, targets.all, **retrain),
                       "evasion": evasion_eval(victim, g, targets.all)}
        elif kind == "attack":
            result = run_attack_by_name(plan.attacks[key], g, model, na, v0,
                                        g.degree(v0) + plan.budget_offset,
                                        seed * 100000 + key * 10000 + v0, plan.d_min, plan.tau)
            g_att = apply_result(g, result)
            reports = {"evasion": evasion_eval(victim, g_att, [v0]),
                       "poisoning": poisoning_eval(g_att, split, [v0], **retrain)}
            audit = replay_constraints(g, result, plan.d_min, plan.tau)
        else:  # Nettack sees the nodes nearest v0 and fits its own surrogate there
            sub, mapping = limited_knowledge_subgraph(g, v0, key)
            if sub.n_nodes < 10:
                return {}, None
            # `induced_subgraph` sorts its ids, so a whole-graph `sub` is g: the
            # seed's split, surrogate and `nettack` run (direct mode ignores the seed).
            if sub.n_nodes < g.n_nodes:
                na = NormalizedAdjacency.build(sub)
                model = train_surrogate(sub, na, make_split(sub, seed))
            elif reuse and "nettack" in plan.attacks:
                return None, None
            result = run_attack_by_name("nettack", sub, model, na,
                                        int(np.searchsorted(mapping, v0)),
                                        g.degree(v0) + plan.budget_offset, seed, plan.d_min,
                                        plan.tau)
            flips = [replace(p, u=int(mapping[p.u]), v=int(mapping[p.v]) if p.kind == EDGE
                             else p.v) for p in result.perturbations]  # `mapping` is sorted: u < v
            g_att = apply_result(g, replace(result, perturbations=flips))
            tp = poisoning_eval(g_att, split, [v0], **retrain).targets[0]
            return {"limited": [[key, v0, sub.n_nodes, len(flips), tp.margin,
                                 tp.correct_fraction]]}, None
    except Exception as exc:  # keep the plan going, record the failure
        log.exception("%s task failed: seed=%s key=%s target=%s", kind, seed, key, v0)
        return None, repr(exc)
    name = plan.attacks[key] if kind == "attack" else "clean"
    rows = {"margin": [[seed, name, mode, t.node, g.degree(t.node), t.margin, t.correct_fraction]
                       for mode, report in reports.items() for t in report.targets]}
    if kind == "attack":
        tp = reports["poisoning"].targets[0]
        rows["loss"] = [[seed, name, v0, step, loss]
                        for step, loss in enumerate([result.initial_loss] + result.loss_trace)]
        rows["lambda"] = [[seed, name, v0, step + 1, lam]
                          for step, lam in enumerate(result.lambda_trace)]
        rows["sweep_row"] = [g.n_nodes, len(result.perturbations), tp.margin, tp.correct_fraction]
        rows["payload"] = {"seed": seed, "attack": name, "result": result.to_dict(),
                           "replay_audit": audit,
                           **{mode: report.to_dict() for mode, report in reports.items()}}
    return rows, None


def run_experiment(plan: ExperimentPlan) -> dict:
    """Execute a plan and write run JSONs, aggregate CSVs, and a manifest.

    Each seed is a list of tasks: its clean step, each (attack, target) run
    and, on the first seed, each (fraction, target) task of the limited-
    knowledge sweep. Up to NETTACK_WORKERS processes run them, and results
    merge in task order, so outputs are byte-identical either way. A task
    that raises becomes a `failures` entry.
    """
    raw = os.environ.get("NETTACK_WORKERS", "1")
    if not raw.strip().isdigit() or int(raw) < 1:
        raise ValueError(f"NETTACK_WORKERS must be an integer >= 1, got {raw!r}")
    out_dir = Path(plan.out_dir)
    (out_dir / "runs").mkdir(parents=True, exist_ok=True)
    tables = {"margin": [], "loss": [], "lambda": [], "limited": []}
    failures, clean_errors, run_rows = [], {}, {}
    try:
        tasks, targets = [], {}
        for seed in plan.seeds:
            targets[str(seed)] = ts = _set_up(plan, seed)[4].all
            sweep = plan.limited_fractions if seed == plan.seeds[0] else ()
            tasks += ([(seed, "clean", None, None)]
                      + [(seed, "attack", ai, v0) for ai in range(len(plan.attacks)) for v0 in ts]
                      + [(seed, "fraction", f, v0) for f, v0 in product(sweep, ts)])
        workers = min(int(raw), len(tasks))
        with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
            outcomes = (pool.map if pool else map)(_run_task, repeat(plan), tasks)
            for task, (rows, error) in zip(tasks, outcomes):
                seed, kind, key, v0 = task
                name = plan.attacks[key] if kind == "attack" else key
                if kind == "fraction" and rows is None and error is None:
                    # The whole graph: the target's `nettack` row, or a run of its own.
                    row = run_rows.get((seed, "nettack", v0))
                    rows, error = ({"limited": [[key, v0, *row]]}, None) if row else \
                        _run_task(plan, task, reuse=False)
                clean_errors.setdefault(seed, error)  # each seed's first task is its clean step
                error = clean_errors[seed] or error if kind == "attack" else error
                if error is not None:
                    if kind != "clean":
                        failures.append({"seed": seed, kind: name, "target": v0, "error": error})
                    continue
                if kind == "attack":
                    write_json(out_dir / "runs" / f"seed{seed}_{name}_t{v0}.json",
                               rows["payload"], indent=1)
                    run_rows[seed, name, v0] = rows["sweep_row"]
                for table, kept in tables.items():
                    kept += rows.get(table, [])
    finally:
        _set_ups.clear()

    _write_csv(out_dir / "margin_scatter.csv",
               ["seed", "attack", "mode", "target", "degree", "margin",
                "correct_fraction"], tables["margin"])
    _write_csv(out_dir / "lambda_trace.csv",
               ["seed", "attack", "target", "step", "lambda"], tables["lambda"])

    # Mean loss over (seed, target) runs per attack and step.
    loss_acc: dict[tuple[str, int], list[float]] = {}
    for seed, attack, v0, step, loss in tables["loss"]:
        if not (isinstance(loss, float) and math.isnan(loss)):
            loss_acc.setdefault((attack, step), []).append(loss)
    loss_out = [[a, s, float(np.mean(v)), len(v)]
                for (a, s), v in sorted(loss_acc.items())]
    _write_csv(out_dir / "loss_vs_perturbations.csv",
               ["attack", "step", "mean_loss", "n_runs"], loss_out)

    agg_acc: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for seed, attack, mode, v0, deg, margin, cf in tables["margin"]:
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
    clean_cf = {(r[0], r[3]): r[6] for r in tables["margin"]
                if r[1] == "clean" and r[2] == "poisoning"}
    bucket_rows = []
    for attack in plan.attacks:
        per_target = [(r[4], clean_cf.get((r[0], r[3]), float("nan")), r[6])
                      for r in tables["margin"] if r[1] == attack and r[2] == "poisoning"]
        for row in degree_bucket_report(per_target):
            bucket_rows.append([attack, row["bucket"], row["n"],
                                row["clean_fraction"], row["attacked_fraction"]])
    _write_csv(out_dir / "degree_buckets.csv",
               ["attack", "bucket", "n", "clean_fraction", "attacked_fraction"],
               bucket_rows)

    if plan.limited_fractions:
        _write_csv(out_dir / "limited_knowledge.csv",
                   ["fraction", "target", "visible_nodes", "n_flips",
                    "poisoned_margin", "correct_fraction"], tables["limited"])

    manifest = {
        "plan": plan.to_dict(),
        "input_hash": _content_hash([Path(plan.dataset) / f for f in BUNDLE_FILES]),
        "plan_hash": hashlib.sha256(
            json.dumps(plan.to_dict(), sort_keys=True).encode()).hexdigest(),
        "failures": failures,
        "targets": targets,
    }
    write_json(out_dir / "manifest.json", manifest, indent=1)
    return manifest


def table3_csv(results_dir: str | Path, out_path: str | Path | None = None) -> str:
    """Summary table: poisoning fraction-correct per attack, clean first."""
    agg = Path(results_dir) / "aggregate.csv"
    with agg.open() as fh:
        rows = list(csv.DictReader(fh))
    order = ["clean", "nettack", "fgsm", "rnd", "nettack-in", "nettack-u"]
    return _write_csv(out_path, ["attack", "fraction_correct"],
                      [[name, r["fraction_correct"]] for name in order for r in rows
                       if r["attack"] == name and r["mode"] == "poisoning"])
