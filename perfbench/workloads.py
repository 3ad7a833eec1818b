"""The benchmark's three workloads.

Each workload builds its inputs from the seed before any timing, then
runs whole rounds of the same operations until `seconds` have passed. It
times several set-ups before the rounds and as many after them, and
reports their median as `setup_s`. Rates are steps over the summed time
of every timed call. Outputs are checked after the timed calls return,
outside the timed regions. An operation whose output
fails a check counts as failed on every round it ran, and also makes the
run incorrect.

Program functions are always called through their module attribute
(`nt.attack.run_nettack`, not a bound name), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from sampler import SampledGraph, sample_graph, write_bundle

SETUP_REPEATS = 2  # at each end of the run
DIRECT_TARGET_DEGREES = (1, 2, 3)
FGSM_TARGET_DEGREES = (1, 2, 3) * 6  # FGSM's cost per step varies with the hub it links
INFLUENCER_TARGET_DEGREES = (1,)
N_INFLUENCERS = 5
ATTACK_SELECTION = {"n_high": 10, "n_low": 10, "n_random": 100}  # enough low-degree picks
DESK_ATTACKS = ("nettack", "fgsm", "rnd", "nettack-u")
DESK_TARGETS = {"n_high": 1, "n_low": 1, "n_random": 1}
DESK_RUNS = 10
DESK_SETUP_REPEATS = 10  # at each end of the run; a desk set-up takes about 0.14 s
DESK_SPLIT_SEED = 1
# Repeats of each call before and again after the protocol, so its samples
# span the whole round; FGSM calls are short, so they repeat more.
DESK_REPEATS = {"nettack": 4, "fgsm": 8}


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    n_setups: int
    n_rounds: int
    errors: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


@dataclass
class SetUp:
    g: object
    na: object
    model: object
    targets: object


def _set_up(nt, bundle: Path, seed: int, **select) -> SetUp:
    g, _ = nt.data.extract_lcc(nt.data.load_bundle(bundle))
    split = nt.data.make_split(g, seed)
    na = nt.surrogate.NormalizedAdjacency.build(g)
    model = nt.surrogate.train_surrogate(g, na, split)
    targets = nt.experiment.select_targets(model, g, na, split, seed=seed, **select)
    return SetUp(g, na, model, targets)


def timed_set_ups(ctx, bundle: Path, seed: int, repeats: int,
                  **select) -> tuple[SetUp, list[float]]:
    """The last set-up and the times of all of them.

    Workloads set up at both ends of the run, so that `setup_s` samples the
    host's speed at two moments rather than one.
    """
    ctx.phase("setup")
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        s = _set_up(ctx.nt, bundle, seed, **select)
        times.append(perf_counter() - t0)
    return s, times


def run_rounds(ctx, one_round) -> int:
    """Whole rounds until `ctx.seconds` of wall time have passed (at least one)."""
    ctx.phase("round")
    rounds = 0
    start = perf_counter()
    while not rounds or perf_counter() - start < ctx.seconds:
        one_round()
        rounds += 1
    return rounds


# -- timed attack calls ----------------------------------------------------------

class TimedCalls:
    """Attack calls keyed by (attack, target), each with its times and results."""

    def __init__(self):
        self.samples: dict[tuple[str, int], list] = {}

    def run(self, key, attack, *args, **kwargs) -> None:
        t0 = perf_counter()
        r = attack(*args, **kwargs)
        self.samples.setdefault(key, []).append((perf_counter() - t0, r))

    def steps(self, key) -> int:
        return len(self.samples[key][0][1].perturbations)

    def seconds(self, key) -> float:
        return sum(t for t, _ in self.samples[key])

    def rates(self) -> dict[str, float]:
        """Steps per second of each attack, and calls per minute, over all calls.

        Totals, not per-call medians: the host switches between a fast and a
        slow speed every few seconds, and a median of a few samples jumps
        from one to the other where a total moves with the time spent in each.
        """
        out = {}
        for kind in ("nettack", "fgsm"):
            keys = [k for k in self.samples if k[0] == kind]
            out[f"{kind}_steps_per_s"] = (
                sum(self.steps(k) * len(self.samples[k]) for k in keys)
                / sum(self.seconds(k) for k in keys))
        out["calls_per_min"] = (60.0 * sum(len(v) for v in self.samples.values())
                                / sum(self.seconds(k) for k in self.samples))
        return out

    def table(self) -> list[list]:
        """[attack, target, steps, mean seconds] per call, for the notes line."""
        return [[k[0], int(k[1]), self.steps(k), self.seconds(k) / len(v)]
                for k, v in self.samples.items()]


def _check_calls(ref, calls: TimedCalls, weights) -> tuple[list[str], int]:
    """Independent checks on each call's first result; repeats must match it.

    Returns the errors and the failed operations: every run of a call whose
    checks fail.
    """
    errors, failed = [], 0
    for (kind, v), samples in calls.samples.items():
        first = samples[0][1].to_dict()
        nettack = kind == "nettack"
        own = [f"{kind} t{v}: {e}" for e in checks.check_attack(ref, first, weights, nettack)]
        if any(r.to_dict() != first for _, r in samples[1:]):
            own.append(f"{kind} t{v}: a repeat differs from the first call")
        if own:
            failed += len(samples)
        errors += own + [f"self-test: {kind} t{v}: checks missed '{m}'"
                         for m in checks.self_test_attack(ref, first, weights, nettack)]
    return errors, failed


def _flip_mix(calls: TimedCalls) -> dict[str, int]:
    mix = {}
    for (kind, _), samples in calls.samples.items():
        for p in samples[0][1].perturbations:
            key = f"{kind}:{p.kind}:{p.direction}"
            mix[key] = mix.get(key, 0) + 1
    return mix


# -- attack-direct and attack-influencer ---------------------------------------------

def _pick_targets(ref, candidates, degrees, need_ring: int = 0) -> list[int]:
    """First selected target of each wanted degree, in selection order."""
    picked = []
    for d in degrees:
        v = next((v for v in candidates if v not in picked and ref.degrees[v] == d
                  and len(ref.two_hop(v)) >= need_ring), None)
        if v is None:
            raise RuntimeError(f"select_targets gave no usable target of degree {d}")
        picked.append(v)
    return picked


def _attack_workload(ctx, mode: str) -> Outcome:
    nt, seed = ctx.nt, ctx.seed
    ctx.phase("input")
    sampled = sample_graph(seed)
    bundle = ctx.workdir / "bundle"
    write_bundle(sampled, bundle)
    ref = checks.Reference(sampled)

    s, setup_times = timed_set_ups(ctx, bundle, seed, SETUP_REPEATS, **ATTACK_SELECTION)
    ctx.phase("check")
    errors = checks.check_lcc(ref, s.g.adjacency_matrix(), s.g.feature_matrix(),
                              s.g.labels - 1)
    # FGSM attacks more targets than Nettack: its cost per step depends on
    # the degree of the node it links, so a few targets give an unsteady rate.
    fgsm_targets = _pick_targets(ref, s.targets.all, FGSM_TARGET_DEGREES)
    if mode == "direct":
        targets = _pick_targets(ref, s.targets.all, DIRECT_TARGET_DEGREES)
    else:
        targets = _pick_targets(ref, s.targets.all, INFLUENCER_TARGET_DEGREES,
                                need_ring=N_INFLUENCERS)
    AttackConfig = nt.attack.AttackConfig
    calls = TimedCalls()

    def one_round():
        for v in targets:
            cfg = AttackConfig(target=v, budget=int(ref.degrees[v]) + 2, mode=mode,
                               seed=seed, n_influencers=N_INFLUENCERS)
            calls.run(("nettack", v), nt.attack.run_nettack, s.g, s.model, cfg, na=s.na)
        for v in fgsm_targets:
            cfg = AttackConfig(target=v, budget=int(ref.degrees[v]) + 2, seed=seed)
            calls.run(("fgsm", v), nt.attack.fgsm_baseline, s.g, s.model, cfg, na=s.na)

    rounds = run_rounds(ctx, one_round)
    setup_times += timed_set_ups(ctx, bundle, seed, SETUP_REPEATS, **ATTACK_SELECTION)[1]
    ctx.phase("check")
    call_errors, failed = _check_calls(ref, calls, s.model.weights)
    errors += call_errors
    rates = calls.rates()
    metrics = {"setup_s": statistics.median(setup_times),
               "nettack_steps_per_s": rates["nettack_steps_per_s"],
               "fgsm_steps_per_s": rates["fgsm_steps_per_s"],
               "runs_per_min": rates["calls_per_min"]}
    notes = {"n_nodes": s.g.n_nodes, "n_edges": s.g.n_edges,
             "targets": {int(v): int(ref.degrees[v]) for v in targets},
             "fgsm_targets": {int(v): int(ref.degrees[v]) for v in fgsm_targets},
             "attackers": {int(v): list(calls.samples[("nettack", v)][0][1].attackers)
                           for v in targets},
             "flips": _flip_mix(calls), "calls": calls.table()}
    return Outcome(metrics=metrics, attempted=len(calls.samples) * rounds, failed=failed,
                   n_setups=2 * SETUP_REPEATS, n_rounds=rounds, errors=errors, notes=notes)


def attack_direct(ctx) -> Outcome:
    return _attack_workload(ctx, "direct")


def attack_influencer(ctx) -> Outcome:
    return _attack_workload(ctx, "influencer")


# -- desk-protocol ----------------------------------------------------------------

def desk_protocol(ctx) -> Outcome:
    """The criterion-7 plan on the fixed desk graph; its inputs ignore the seed.

    A round is one `run_experiment` call, which gives `runs_per_min`, with
    repeats of the protocol's Nettack and FGSM calls on its targets before
    and after it, which give the step rates: inside the protocol each call
    runs once, too little work for a steady rate.
    """
    nt = ctx.nt
    ctx.phase("input")
    g, _ = nt.data.extract_lcc(nt.synthetic.planted_partition(seed=0))
    bundle = ctx.workdir / "bundle"
    nt.data.save_bundle(g, bundle)
    ref = checks.Reference(SampledGraph(
        n_nodes=g.n_nodes, n_features=g.n_features, n_classes=g.n_classes,
        edges=np.asarray(g.edge_list(), dtype=np.int64),
        features=np.asarray(g.feature_list(), dtype=np.int64),
        classes=np.asarray(g.labels - 1, dtype=np.int64)))

    s, setup_times = timed_set_ups(ctx, bundle, DESK_SPLIT_SEED, DESK_SETUP_REPEATS,
                                   **DESK_TARGETS)
    targets = s.targets.all
    protocol, calls = [], TimedCalls()

    def repeat_calls():
        # Repeats interleave, so a slow spell of the machine hits one sample
        # of a call rather than all of them.
        for rep in range(max(DESK_REPEATS.values())):
            for name in (n for n, repeats in DESK_REPEATS.items() if rep < repeats):
                for v in targets:
                    calls.run((name, v), nt.experiment.run_attack_by_name,
                              name, s.g, s.model, s.na, v, s.g.degree(v) + 2, 0)

    def one_round():
        repeat_calls()
        out = ctx.workdir / f"round{len(protocol)}"
        plan = nt.experiment.ExperimentPlan(
            dataset=str(bundle), out_dir=str(out), seeds=(DESK_SPLIT_SEED,),
            attacks=DESK_ATTACKS, poisoning_runs=DESK_RUNS,
            limited_fractions=(), **DESK_TARGETS)
        t0 = perf_counter()
        nt.experiment.run_experiment(plan)
        protocol.append((out, perf_counter() - t0))
        repeat_calls()

    rounds = run_rounds(ctx, one_round)
    setup_times += timed_set_ups(ctx, bundle, DESK_SPLIT_SEED, DESK_SETUP_REPEATS,
                                 **DESK_TARGETS)[1]

    ctx.phase("check")
    errors, failed = _check_calls(ref, calls, s.model.weights)
    n_runs = len(DESK_ATTACKS) * len(targets)
    for i, (out, _) in enumerate(protocol):
        round_failed, round_errors, samples = _check_desk_round(out, targets, n_runs)
        failed += round_failed
        errors += [f"round {i + 1}: {e}" for e in round_errors]
        if i == 0:
            margin_rows, nettack_payload = samples
            errors += [f"self-test: checks missed '{m}'" for m in checks.self_test_protocol(
                margin_rows, nettack_payload, DESK_ATTACKS, len(targets), DESK_RUNS)]
        shutil.rmtree(out, ignore_errors=True)

    rates = calls.rates()
    metrics = {"setup_s": statistics.median(setup_times),
               "nettack_steps_per_s": rates["nettack_steps_per_s"],
               "fgsm_steps_per_s": rates["fgsm_steps_per_s"],
               "runs_per_min": statistics.median(60.0 * n_runs / wall for _, wall in protocol)}
    notes = {"n_nodes": g.n_nodes, "n_edges": g.n_edges,
             "targets": {int(v): g.degree(v) for v in targets},
             "run_experiment_s": [wall for _, wall in protocol],
             "flips": _flip_mix(calls), "calls": calls.table()}
    attempted = (n_runs + 2 * sum(DESK_REPEATS.values()) * len(targets)) * rounds
    return Outcome(metrics=metrics, attempted=attempted, failed=failed,
                   n_setups=2 * DESK_SETUP_REPEATS, n_rounds=rounds, errors=errors, notes=notes)


def _check_desk_round(out: Path, targets: list[int], n_ops: int):
    """(failed operations, errors, (margin rows, a parsed nettack run file))."""
    errors = []
    n_targets = len(targets)
    manifest = checks.strict_json((out / "manifest.json").read_text())
    if manifest["targets"] != {str(DESK_SPLIT_SEED): targets}:
        errors.append(f"protocol targets {manifest['targets']} != set-up targets {targets}")
    run_files = sorted((out / "runs").glob("*.json"))
    failed = n_ops - len(run_files)  # an attack that raised writes no file
    if failed != len(manifest["failures"]):
        errors.append(f"{len(run_files)} run files but {len(manifest['failures'])} "
                      f"failures in the manifest")
    nettack_payload = None
    for path in run_files:
        try:
            payload = checks.strict_json(path.read_text())
        except ValueError:
            failed += 1
            continue
        if payload["attack"] == "nettack":
            nettack_payload = payload
        own = checks.check_run_payload(payload, DESK_RUNS)
        failed += bool(own)
        errors += [f"{path.name}: {e}" for e in own]
    tables = {}
    for name in ("margin_scatter", "aggregate", "lambda_trace", "loss_vs_perturbations",
                 "degree_buckets"):
        try:
            tables[name] = checks.strict_csv((out / f"{name}.csv").read_text())
        except ValueError as exc:
            errors.append(f"{name}.csv: {exc}")
    margin_rows = tables.get("margin_scatter", [])
    errors += checks.check_margin_rows(margin_rows, DESK_ATTACKS, n_targets, DESK_RUNS)
    errors += checks.check_aggregate(tables.get("aggregate", []), DESK_ATTACKS, n_targets)
    return failed, errors, (margin_rows, nettack_payload)


WORKLOADS = {
    "attack-direct": attack_direct,
    "attack-influencer": attack_influencer,
    "desk-protocol": desk_protocol,
}
