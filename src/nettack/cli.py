"""Command-line front end.

Every command is seeded and writes byte-stable JSON/CSV, so identical
invocations produce identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .attack import (AttackConfig, DIRECT, fgsm_baseline, rnd_baseline,
                     run_nettack)
from .constraints import DEFAULT_D_MIN, DEFAULT_TAU
from .data import (DataSplit, extract_lcc, load_bundle, load_bundle_stats, make_split,
                   node_ids, save_bundle)
from .experiment import ExperimentPlan, run_experiment, table3_csv
from .gcn import GcnConfig, evasion_eval, poisoning_eval, train_gcn
from .surrogate import (NormalizedAdjacency, SurrogateModel, TrainingError,
                        train_surrogate)
from .synthetic import planted_partition


def _add_constraint_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-min", type=int, default=DEFAULT_D_MIN,
                   help="minimum degree counted by the degree test")
    p.add_argument("--tau", type=float, default=DEFAULT_TAU,
                   help="degree-test acceptance threshold")
    p.add_argument("--unconstrained", action="store_true",
                   help="disable the degree and co-occurrence gates")
    p.add_argument("--eq7-as-printed", action="store_true",
                   help="use the uncorrected log-likelihood sign variant")


def _cmd_convert(args) -> int:
    g, stats = load_bundle_stats(args.input)
    save_bundle(g, args.output)
    print(f"converted {args.input} -> {args.output} "
          f"(dropped {stats.self_loops_dropped} self-loops, "
          f"{stats.duplicate_edges_dropped} duplicates)")
    return 0


def _cmd_lcc(args) -> int:
    g = load_bundle(args.input)
    sub, mapping = extract_lcc(g)
    save_bundle(sub, args.output)
    map_path = Path(args.output) / "lcc_mapping.json"
    map_path.write_text(json.dumps([int(x) for x in mapping], allow_nan=False) + "\n")
    print(f"largest component: {sub.n_nodes} nodes, {sub.n_edges} edges "
          f"(of {g.n_nodes}/{g.n_edges})")
    return 0


def _cmd_split(args) -> int:
    g = load_bundle(args.input)
    split = make_split(g, args.seed)
    split.save(args.output)
    print(f"split seed={args.seed}: train={len(split.train_ids)} "
          f"val={len(split.validation_ids)} unlabeled={len(split.unlabeled_ids)}")
    return 0


def _load_or_make_split(g, args) -> DataSplit:
    if getattr(args, "split", None):
        split = DataSplit.load(args.split)
        split.check(g.n_nodes)
        return split
    return make_split(g, args.seed)


def _cmd_train_surrogate(args) -> int:
    g = load_bundle(args.input)
    split = _load_or_make_split(g, args)
    na = NormalizedAdjacency.build(g)
    model = train_surrogate(g, na, split)
    Path(args.output).write_text(
        json.dumps(model.to_dict(), sort_keys=True, allow_nan=False) + "\n")
    print(f"surrogate trained: epochs={model.epochs_run} "
          f"val_loss={model.validation_loss:.6f}")
    return 0


def _cmd_attack(args) -> int:
    g = load_bundle(args.input)
    na = NormalizedAdjacency.build(g)
    if args.model:
        model = SurrogateModel.from_dict(json.loads(Path(args.model).read_text()))
    else:
        split = _load_or_make_split(g, args)
        model = train_surrogate(g, na, split)
    budget = args.budget if args.budget is not None else g.degree(args.target) + 2
    cfg = AttackConfig(
        target=args.target, budget=budget, mode=args.mode,
        perturb_structure=not args.features_only,
        perturb_features=not args.structure_only,
        constrained=not args.unconstrained,
        d_min=args.d_min, tau=args.tau,
        eq7_as_printed=args.eq7_as_printed, seed=args.seed)
    if args.baseline == "none":
        result = run_nettack(g, model, cfg, na=na)
    elif args.baseline == "fgsm":
        result = fgsm_baseline(g, model, cfg, na=na)
    else:
        result = rnd_baseline(g, cfg, model=model, na=na)
    result.save(args.output)
    print(f"attack target={args.target} budget={budget} "
          f"applied={len(result.perturbations)} final_loss={result.final_loss:.6f}"
          + (" STARVED" if result.starved else ""))
    return 0


def _cmd_evaluate(args) -> int:
    g = load_bundle(args.graph)
    split = _load_or_make_split(g, args)
    targets = node_ids(json.loads(Path(args.targets).read_text()), "--targets")
    cfg = GcnConfig()
    if args.mode == "evasion":
        clean = load_bundle(args.clean_graph) if args.clean_graph else g
        model = train_gcn(clean, split, seed=args.seed, config=cfg)
        report = evasion_eval(model, g, targets)
    else:
        report = poisoning_eval(g, split, targets, runs=args.runs,
                                base_seed=args.seed, config=cfg)
    Path(args.output).write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=1, allow_nan=False) + "\n")
    print(f"{args.mode} fraction_correct={report.fraction_correct:.4f} "
          f"targets={len(targets)}")
    return 0


def _cmd_experiment(args) -> int:
    plan = ExperimentPlan.load(args.plan)
    if args.out:
        plan = ExperimentPlan.from_dict({**plan.to_dict(), "out_dir": args.out})
    manifest = run_experiment(plan)
    print(f"experiment complete: {len(manifest['targets'])} seeds, "
          f"{len(manifest['failures'])} failures, outputs in {plan.out_dir}")
    return 0


def _cmd_report(args) -> int:
    if args.table != 3:
        print(f"unsupported table {args.table}", file=sys.stderr)
        return 2
    text = table3_csv(args.input, args.output)
    if not args.output:
        sys.stdout.write(text)
    return 0


def _cmd_synth(args) -> int:
    g = planted_partition(n_nodes=args.n_nodes, n_classes=args.n_classes,
                          seed=args.seed)
    save_bundle(g, args.output)
    print(f"synthetic bundle: {g.n_nodes} nodes, {g.n_edges} edges, "
          f"{g.n_classes} classes -> {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nettack",
                                description="Adversarial perturbations for "
                                            "graph-convolutional node classifiers")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("convert", help="canonicalize a graph bundle")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--out", dest="output", required=True)
    c.set_defaults(func=_cmd_convert)

    c = sub.add_parser("lcc", help="extract the largest connected component")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--out", dest="output", required=True)
    c.set_defaults(func=_cmd_lcc)

    c = sub.add_parser("split", help="write a seeded train/val/unlabeled split")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out", dest="output", required=True)
    c.set_defaults(func=_cmd_split)

    c = sub.add_parser("train-surrogate", help="train the linearized surrogate")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--split", default=None)
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--out", dest="output", required=True)
    c.set_defaults(func=_cmd_train_surrogate)

    c = sub.add_parser("attack", help="run a targeted attack")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--model", default=None, help="surrogate JSON (trained if absent)")
    c.add_argument("--split", default=None)
    c.add_argument("--target", type=int, required=True)
    c.add_argument("--budget", type=int, default=None,
                   help="flip budget (default: target degree + 2)")
    c.add_argument("--mode", choices=[DIRECT, "influencer"], default=DIRECT)
    c.add_argument("--structure-only", action="store_true")
    c.add_argument("--features-only", action="store_true")
    c.add_argument("--baseline", choices=["none", "rnd", "fgsm"], default="none")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", dest="output", required=True)
    _add_constraint_flags(c)
    c.set_defaults(func=_cmd_attack)

    c = sub.add_parser("evaluate", help="victim margins on a (perturbed) graph")
    c.add_argument("--graph", required=True)
    c.add_argument("--clean-graph", default=None,
                   help="clean bundle for evasion-mode training")
    c.add_argument("--split", required=True)
    c.add_argument("--targets", required=True, help="JSON list of node ids")
    c.add_argument("--mode", choices=["evasion", "poisoning"], required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", dest="output", required=True)
    c.set_defaults(func=_cmd_evaluate)

    c = sub.add_parser("experiment", help="run a full protocol plan")
    c.add_argument("--plan", required=True)
    c.add_argument("--out", default=None, help="override the plan's output dir")
    c.set_defaults(func=_cmd_experiment)

    c = sub.add_parser("report", help="emit summary tables from experiment output")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--table", type=int, required=True)
    c.add_argument("--out", dest="output", default=None)
    c.set_defaults(func=_cmd_report)

    c = sub.add_parser("synth", help="write a seeded planted-partition bundle")
    c.add_argument("--out", dest="output", required=True)
    c.add_argument("--n-nodes", type=int, default=500)
    c.add_argument("--n-classes", type=int, default=4)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_synth)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "structure_only", False) and getattr(args, "features_only", False):
        print("--structure-only and --features-only are mutually exclusive",
              file=sys.stderr)
        return 2
    try:
        return args.func(args)
    # GraphError and BundleError are ValueErrors; OSError covers unreadable paths.
    except (TrainingError, ValueError, OSError) as exc:
        print(f"nettack: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
