"""Guard for the benchmark's per-layer hooks.

`perfbench/tracer.py` patches library functions by module or class
attribute name. A rename in the library would otherwise only surface when
someone runs the traced benchmark.
"""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import nettack
import nettack.experiment  # noqa: F401  (makes every patched module an attribute)
from helpers import random_graph

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
# The submodules perfbench reaches as attributes of a bare `import nettack`.
PERFBENCH_MODULES = ("attack", "constraints", "data", "experiment", "gcn", "graph",
                     "surrogate", "synthetic")


def load_tracer() -> types.ModuleType:
    # Compiled from source so that nothing (no bytecode cache) is written
    # under perfbench/.
    mod = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def raw_attr(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_resolve_and_uninstall_restores():
    tracer = load_tracer()
    targets = [(tracer._resolve(nettack, owner_path), attr)
               for _, owner_path, attr, _, _ in tracer.PATCHES]
    before = [raw_attr(owner, attr) for owner, attr in targets]

    t = tracer.Tracer()
    t.install(nettack)
    try:
        for (owner, attr), orig in zip(targets, before):
            assert raw_attr(owner, attr) is not orig, f"{owner.__name__}.{attr} not patched"
    finally:
        t.uninstall()

    for (owner, attr), orig in zip(targets, before):
        assert raw_attr(owner, attr) is orig, f"{owner.__name__}.{attr} not restored"


def test_bare_import_exposes_every_module_perfbench_reads(tmp_path):
    # perfbench/run.py imports only `nettack`, and the workloads and the
    # tracer's owner paths reach modules as its attributes. This module's
    # own `import nettack.experiment` binds them all, so the check runs in a
    # fresh interpreter.
    tracer = load_tracer()
    read = {owner_path.split(".")[0] for _, owner_path, _, _, _ in tracer.PATCHES}
    read |= set(re.findall(r"\bnt\.(\w+)\.", WORKLOADS.read_text()))
    assert read <= set(PERFBENCH_MODULES), sorted(read - set(PERFBENCH_MODULES))
    code = ("import sys, types, nettack; print([n for n in sys.argv[1:] "
            "if not isinstance(getattr(nettack, n, None), types.ModuleType)])")
    proc = subprocess.run([sys.executable, "-c", code, *PERFBENCH_MODULES], cwd=tmp_path,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", f"not attributes of a bare import: {proc.stdout}"


def test_traced_attacks_feed_hot_counters():
    # One small constrained Nettack call and one FGSM call under the
    # tracer: the hot wrappers must see calls (a renamed function would
    # leave its counter at zero) and their results must be countable (an
    # `edge_allowed` returning an array fails `bool`).
    tracer = load_tracer()
    g = random_graph(30, 0.15, seed=1)
    na = nettack.surrogate.NormalizedAdjacency.build(g)
    model = nettack.surrogate.train_surrogate(g, na, nettack.data.make_split(g, seed=1))
    v0 = int(np.argmax(g.degrees))
    t = tracer.Tracer()
    t.install(nettack)
    try:
        t.phase = "round"
        cfg = nettack.attack.AttackConfig(target=v0, budget=2)
        nettack.attack.run_nettack(g, model, cfg, na=na)
        nettack.attack.fgsm_baseline(g, model, cfg, na=na)
    finally:
        t.uninstall()
    for name in ("row_update", "degree_gate", "candidate_edges"):
        assert t.stats[("round", name)].calls > 0, name
    metrics = t.layer_metrics(n_setups=0, n_rounds=1)
    assert metrics["attack.edge_candidates_per_step"] > 0
    assert metrics["attack.steps"] > 0
    assert all(np.isfinite(v) for v in metrics.values())


def test_traced_benchmark_call_forms():
    # The set-up and attack calls exactly as perfbench/workloads.py makes
    # them (positional `run_attack_by_name`, keyword `na=`), so that a
    # signature change which would break the benchmark fails here first.
    tracer = load_tracer()
    g = random_graph(30, 0.15, seed=2)
    t = tracer.Tracer()
    t.install(nettack)
    try:
        split = nettack.data.make_split(g, 2)
        na = nettack.surrogate.NormalizedAdjacency.build(g)
        model = nettack.surrogate.train_surrogate(g, na, split)
        targets = nettack.experiment.select_targets(model, g, na, split, seed=2,
                                                    n_high=1, n_low=1, n_random=1)
        t.phase = "round"
        v = targets.all[0]
        for name in ("nettack", "fgsm", "rnd", "nettack-u"):
            nettack.experiment.run_attack_by_name(name, g, model, na, v,
                                                  g.degree(v) + 2, 0)
    finally:
        t.uninstall()
    for name, calls in (("na_build", 1), ("train_surrogate", 1), ("select_targets", 1)):
        assert t.stats[("setup", name)].calls == calls, name
    for name, calls in (("run_nettack", 2), ("fgsm_baseline", 1), ("rnd_baseline", 1)):
        assert t.stats[("round", name)].calls == calls, name


def test_traced_victim_training_feeds_gcn_metrics():
    # `train_gcn` and `poisoning_eval` called as the experiment's set-up and
    # tasks call them: the tracer's gcn metrics must see them.
    tracer = load_tracer()
    g = random_graph(30, 0.15, seed=3)
    split = nettack.data.make_split(g, 1)
    cfg = nettack.gcn.GcnConfig(max_epochs=40)
    t = tracer.Tracer()
    t.install(nettack)
    try:
        t.phase = "round"
        nettack.experiment.train_gcn(g, split, seed=9001, config=cfg)
        nettack.experiment.poisoning_eval(g, split, [0, 4], runs=3, base_seed=100000,
                                          config=cfg)
    finally:
        t.uninstall()
    for name in ("train_gcn", "poisoning_eval"):
        assert t.stats[("round", name)].calls > 0, name
    metrics = t.layer_metrics(n_setups=0, n_rounds=1)
    assert metrics["gcn.epochs"] > 0
    assert metrics["gcn.poisoning_eval_s"] > 0
    assert all(np.isfinite(v) for v in metrics.values())
