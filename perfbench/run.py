#!/usr/bin/env python3
"""Benchmark entry point: one workload, one JSON result line.

    python3 perfbench/run.py --workload attack-direct --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from `src/` of the
same checkout. With `--trace 0` the last line of standard output holds the
end-to-end metrics; with `--trace 1` the public functions of each layer
are wrapped (see tracer.py), the last line holds the per-layer metrics,
the line before it the end-to-end metrics as measured under tracing, and
the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

# One BLAS thread (never more than the machine's cores) and no worker
# pool: both must be settled before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NETTACK_WORKERS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def import_program():
    """Import nettack from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nettack
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {src}: {exc}")
    if src not in Path(nettack.__file__).resolve().parents:
        sys.exit(f"perfbench: nettack was imported from {nettack.__file__}, not {src}")
    return nettack


class Context:
    def __init__(self, nt, seed, seconds, workdir, tracer):
        self.nt, self.seed, self.seconds, self.workdir = nt, seed, seconds, workdir
        self.tracer = tracer

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name


def main() -> int:
    import workloads
    from tracer import Tracer

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    nt = import_program()
    out = HERE / "out"
    workdir = out / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(nt)
    try:
        ctx = Context(nt, args.seed, args.seconds, workdir, tracer)
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = dict(outcome.metrics)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for e in outcome.errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": outcome.n_rounds, **outcome.notes}, sort_keys=True))
    print(f"attempted {outcome.attempted}, failed {outcome.failed}")
    if tracer is not None:
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json")
        print(json.dumps({"traced_end_to_end": e2e}, sort_keys=True))
        values = tracer.layer_metrics(outcome.n_setups, outcome.n_rounds)
    else:
        values = e2e
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": not outcome.errors, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
