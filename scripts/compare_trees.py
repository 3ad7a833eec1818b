#!/usr/bin/env python3
"""Compare what two source trees of this project compute.

Each tree runs in its own interpreter, with its own `src` on PYTHONPATH,
and records:
- desk: the files that its `scripts/run_desk_scale.py` writes with its
  defaults, at 1 worker and at 2 (`NETTACK_WORKERS`);
- sweep: the attack results of a fixed sweep on the desk LCC and on
  perfbench's sampler graph of seed 1 (loaded by path; it imports nothing
  from the program). Per target it runs Nettack direct, influencer,
  unconstrained, structure-only and features-only at tau = 0.004 and
  1e-6, plus FGSM and RND, and the clean victim's evasion margin on each
  attacked graph;
- epochs_run: the epochs of every surrogate and victim fit in call order
  (the 1-worker desk run, then the sweep).

The report is one strict-JSON file. Each desk file is byte-identical or
not (`manifest.json` is compared without its paths and `plan_hash`); each
sweep result says whether its perturbation sequence is unchanged and the
largest |delta| of its scores, losses and margin; `verdict` is
"identical" only when all of that matches and the epochs agree.

    python scripts/compare_trees.py --parent <tree> --change <tree> [--out report.json]

A tree is a checkout's root (it holds `src/nettack` and `scripts/`). The
exit code is 0 for "identical", 1 for "different" and 2 when a tree
fails to run. `--tiny` runs a small
plan (a 120-node desk graph at 1 worker, two sweep targets on its LCC)
in a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAMPLER = ROOT / "perfbench" / "sampler.py"
TAUS = (0.004, 1e-6)
SWEEP_TARGETS, TINY_TARGETS = 11, 2
TINY_DESK_ARGS = ("--n-nodes", "120", "--runs", "1", "--targets", "1", "1", "1")


# -- recording, inside one tree's interpreter ----------------------------------------


def _load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _record_epochs(epochs: list) -> None:
    """Wrap the victim fit and the surrogate fit so each logs its epochs."""
    import nettack.experiment
    import nettack.gcn
    import nettack.surrogate

    fit, train = nettack.gcn._fit, nettack.surrogate.train_surrogate

    def logged_fit(*args, **kwargs):
        models = fit(*args, **kwargs)
        epochs.append(["victim", [m.epochs_run for m in models]])
        return models

    def logged_train(*args, **kwargs):
        model = train(*args, **kwargs)
        epochs.append(["surrogate", model.epochs_run])
        return model

    nettack.gcn._fit = logged_fit
    nettack.surrogate.train_surrogate = nettack.experiment.train_surrogate = logged_train


def _run_desk(tree: Path, out: Path, tiny: bool) -> None:
    args = [str(tree / "scripts" / "run_desk_scale.py"), "--out", out.name,
            *(TINY_DESK_ARGS if tiny else ())]
    if out.name.endswith("-1"):  # in this process, so that its fits are logged
        os.environ.pop("NETTACK_WORKERS", None)
        sys.argv = args
        with open(out.parent / f"{out.name}.stdout", "w") as fh, \
                contextlib.redirect_stdout(fh):
            _load_by_path("run_desk_scale", Path(args[0])).main()
    else:
        env = {**os.environ, "NETTACK_WORKERS": "2"}
        with open(out.parent / f"{out.name}.stdout", "w") as fh:
            subprocess.run([sys.executable, *args], cwd=out.parent, env=env,
                           stdout=fh, check=True)


def _sweep_graphs(workdir: Path, tiny: bool):
    from nettack.data import extract_lcc, load_bundle
    from nettack.synthetic import planted_partition

    yield "desk", extract_lcc(planted_partition(n_nodes=120 if tiny else 500, seed=0))[0]
    if not tiny:
        sampler = _load_by_path("sampler", SAMPLER)
        sampler.write_bundle(sampler.sample_graph(1), workdir / "sampler1")
        yield "sampler1", extract_lcc(load_bundle(workdir / "sampler1"))[0]


def _sweep_attacks(target: int, budget: int):
    from nettack.attack import (AttackConfig, INFLUENCER, fgsm_baseline, rnd_baseline,
                                run_nettack)

    variants = {"direct": {}, "influencer": {"mode": INFLUENCER},
                "unconstrained": {"constrained": False},
                "structure": {"perturb_features": False},
                "features": {"perturb_structure": False}}
    for tau in TAUS:
        for name, over in variants.items():
            yield (f"nettack-{name}/tau={tau}", run_nettack,
                   AttackConfig(target=target, budget=budget, tau=tau, **over))
    for name, attack in (("fgsm", fgsm_baseline), ("rnd", rnd_baseline)):
        yield name, attack, AttackConfig(target=target, budget=budget)


def _sweep(workdir: Path, tiny: bool) -> dict:
    import numpy as np
    from nettack.attack import apply_result
    from nettack.data import make_split
    from nettack.gcn import evasion_eval, train_gcn
    from nettack.surrogate import NormalizedAdjacency, train_surrogate

    results = {}
    for graph, g in _sweep_graphs(workdir, tiny):
        split = make_split(g, seed=1)
        na = NormalizedAdjacency.build(g)
        model = train_surrogate(g, na, split)
        victim = train_gcn(g, split, seed=0)
        degrees = g.degrees
        pool = np.flatnonzero((g.labels > 0) & (degrees >= 1) & (degrees <= 8))
        picked = np.random.default_rng(0).choice(
            pool, size=TINY_TARGETS if tiny else SWEEP_TARGETS, replace=False)
        for v0 in sorted(picked.tolist()):
            for name, attack, cfg in _sweep_attacks(v0, int(degrees[v0]) + 2):
                key = f"{graph}/t{v0}/{name}"
                try:
                    r = attack(g, model, cfg, na)
                    evasion = evasion_eval(victim, apply_result(g, r), [v0]).targets[0]
                except Exception as exc:  # recorded and compared like any output
                    results[key] = {"error": f"{type(exc).__name__}: {exc}"}
                    continue
                results[key] = {
                    "sequence": [[p.kind, p.u, p.v, p.insert] for p in r.perturbations],
                    "scores": [p.score for p in r.perturbations],
                    "losses": [r.initial_loss, *r.loss_trace],
                    "margins": [evasion.margin]}
    return results


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def record(tree: Path, out: Path, tiny: bool) -> None:
    """Write `out/record.json` and the desk outputs under `out`."""
    epochs = []
    _record_epochs(epochs)
    os.chdir(out)
    for workers in (1,) if tiny else (1, 2):
        _run_desk(tree, out / f"desk-{workers}", tiny)
    sweep = _sweep(out, tiny)
    (out / "record.json").write_text(json.dumps(
        _json_safe({"sweep": sweep, "epochs_run": epochs}), allow_nan=False))


# -- comparing two records ------------------------------------------------------------


def _manifest_without_paths(path: Path) -> dict:
    m = json.loads(path.read_text())
    m.pop("plan_hash", None)
    for key in ("dataset", "out_dir"):
        m.get("plan", {}).pop(key, None)
    return m


def _compare_desk(a: Path, b: Path) -> dict:
    names = sorted({p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()})
    files = {}
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            files[name] = False
        elif Path(name).name == "manifest.json":
            files[name] = _manifest_without_paths(pa) == _manifest_without_paths(pb)
        else:
            files[name] = pa.read_bytes() == pb.read_bytes()
    return {"identical": all(files.values()), "files": files}


def _max_delta(xs: list, ys: list) -> float | None:
    """Largest |x - y| over aligned entries; None when the lengths differ."""
    if len(xs) != len(ys):
        return None
    return max((0.0 if x == y else abs(float(x) - float(y)) for x, y in zip(xs, ys)),
               default=0.0)


def _compare_sweep(a: dict, b: dict) -> dict:
    results, identical = {}, a.keys() == b.keys()
    for key in sorted(a.keys() | b.keys()):
        ra, rb = a.get(key), b.get(key)
        if ra is None or rb is None or "error" in ra or "error" in rb:
            same = ra == rb
            results[key] = {"sequence_unchanged": same, "errors": [
                (r or {"error": "missing"}).get("error") for r in (ra, rb)]}
            identical &= same
            continue
        row = {"sequence_unchanged": ra["sequence"] == rb["sequence"]}
        for part in ("scores", "losses", "margins"):
            row[f"max_abs_delta_{part}"] = _max_delta(ra[part], rb[part])
        identical &= row["sequence_unchanged"] and ra == rb
        results[key] = row
    changed = [k for k, r in results.items() if not r["sequence_unchanged"]]
    return {"identical": identical, "n_results": len(results),
            "changed_sequences": changed, "results": results}


def compare(parent: Path, change: Path, tiny: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix="compare_trees_") as tmp:
        outs, procs = {}, {}
        for side, tree in (("parent", parent), ("change", change)):
            outs[side] = Path(tmp) / side
            outs[side].mkdir()
            env = {**os.environ, "PYTHONPATH": str(tree / "src")}
            env.pop("NETTACK_WORKERS", None)
            procs[side] = subprocess.Popen(
                [sys.executable, __file__, "--record", str(tree), str(outs[side]),
                 *(["--tiny"] if tiny else [])],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for side, proc in procs.items():
            _, err = proc.communicate()
            if proc.returncode:
                raise RuntimeError(f"{side} tree failed:\n{err}")
        rec = {s: json.loads((outs[s] / "record.json").read_text()) for s in outs}
        desk = {d.name: _compare_desk(d, outs["change"] / d.name)
                for d in sorted(outs["parent"].glob("desk-*")) if d.is_dir()}
    sweep = _compare_sweep(rec["parent"]["sweep"], rec["change"]["sweep"])
    epochs = {"identical": rec["parent"]["epochs_run"] == rec["change"]["epochs_run"],
              "parent": rec["parent"]["epochs_run"], "change": rec["change"]["epochs_run"]}
    same = all(d["identical"] for d in desk.values()) and sweep["identical"] \
        and epochs["identical"]
    return {"verdict": "identical" if same else "different",
            "parent": str(parent), "change": str(change), "tiny": tiny,
            "desk": desk, "sweep": sweep, "epochs_run": epochs}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="root of the parent tree")
    ap.add_argument("--change", type=Path, help="root of the changed tree")
    ap.add_argument("--out", type=Path, default=Path("compare_trees.json"))
    ap.add_argument("--tiny", action="store_true", help="the few-second plan")
    ap.add_argument("--record", nargs=2, type=Path, metavar=("TREE", "OUT"),
                    help=argparse.SUPPRESS)  # one tree's side, in its own interpreter
    args = ap.parse_args()
    if args.record:
        record(args.record[0].resolve(), args.record[1].resolve(), args.tiny)
        return 0
    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")
    for tree in (args.parent, args.change):
        if not (tree / "src" / "nettack").is_dir():
            ap.error(f"{tree} holds no src/nettack")
    try:
        report = compare(args.parent.resolve(), args.change.resolve(), args.tiny)
    except RuntimeError as exc:  # a tree that cannot run has no outputs to compare
        print(f"compare_trees: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(report, indent=1, allow_nan=False) + "\n")
    print(f"{report['verdict']}: {report['sweep']['n_results']} sweep results, "
          f"{len(report['sweep']['changed_sequences'])} changed sequences -> {args.out}")
    return 0 if report["verdict"] == "identical" else 1


if __name__ == "__main__":
    sys.exit(main())
