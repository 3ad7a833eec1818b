#!/usr/bin/env python3
"""Attack with partial graph visibility and replay onto the full graph.

For each knowledge fraction, the attacker sees only the nodes closest to
the target (breadth-first rings), trains its surrogate on that subgraph,
attacks it, and the chosen flips are mapped back onto the full graph
where the victim is retrained. Emits one CSV row per (fraction, target).
The sweep runs inside `run_experiment`, with `nettack` as the roster on
one seed, whose full-visibility runs it reuses; only its CSV is kept.
"""

import argparse
import csv
import shutil
import sys
import tempfile
from pathlib import Path

from nettack.data import extract_lcc, save_bundle
from nettack.experiment import ExperimentPlan, run_experiment
from nettack.synthetic import planted_partition


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bundle", default=None,
                    help="graph bundle (default: built-in synthetic)")
    ap.add_argument("--out", default="limited_knowledge.csv")
    ap.add_argument("--fractions", type=float, nargs="+",
                    default=[0.1, 0.25, 0.5, 0.75, 1.0])
    ap.add_argument("--n-targets", type=int, default=6)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        bundle = args.bundle
        if bundle is None:
            bundle = Path(tmp) / "bundle"
            g, _ = extract_lcc(planted_partition(seed=0))
            save_bundle(g, bundle)
        k = max(1, args.n_targets // 3)
        plan = ExperimentPlan(
            dataset=str(bundle), out_dir=str(Path(tmp) / "out"), seeds=(args.seed,),
            attacks=("nettack",), n_high=k, n_low=k,
            n_random=max(0, args.n_targets - 2 * k),
            poisoning_runs=args.runs, limited_fractions=tuple(args.fractions))
        run_experiment(plan)
        shutil.copyfile(Path(plan.out_dir) / "limited_knowledge.csv", args.out)
    with open(args.out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for fraction, target, seen, _, margin, _ in rows:
        print(f"fraction={float(fraction):.2f} target={target} seen={seen} "
              f"margin={float(margin):+.3f}")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
