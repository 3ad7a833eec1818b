"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions of each layer with timing
wrappers, at the module or class attribute that the caller looks up, and
`uninstall` puts the originals back. Every call records its inclusive
time and its self time (inclusive time minus the time of wrapped calls
made inside it). Calls of the coarse functions are also kept as spans
(id, parent id, name, phase, start, end) in memory and written out at the end;
the two functions called once per scored candidate only add to their
counters, so that the trace stays small and cheap.

Counters are kept per phase. A workload sets `phase` to "setup" while it
sets up, to "round" while it runs its operations and to "check" while it
checks outputs; `layer_metrics` reports one set-up plus one round and
leaves the checks out.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _epochs(out):
    return out.epochs_run


def _steps(out):
    return len(out.perturbations)


# (counter name, owner path, attribute, count taken from each result, hot)
# The owner path names a module, or a module and a class. Hot functions run
# once per scored candidate and keep counters only, no spans.
PATCHES = (
    ("load_bundle", "data", "load_bundle", None, False),
    ("load_bundle", "experiment", "load_bundle", None, False),
    ("extract_lcc", "data", "extract_lcc", None, False),
    ("adjacency_matrix", "graph.AttributedGraph", "adjacency_matrix", None, False),
    ("feature_matrix", "graph.AttributedGraph", "feature_matrix", None, False),
    ("copy", "graph.AttributedGraph", "copy", None, False),
    ("na_build", "surrogate.NormalizedAdjacency", "build", None, False),
    ("apply_edge_flip", "surrogate.NormalizedAdjacency", "apply_edge_flip", None, False),
    ("train_surrogate", "surrogate", "train_surrogate", _epochs, False),
    ("train_surrogate", "experiment", "train_surrogate", _epochs, False),
    ("row_update", "attack", "updated_square_row_from", None, True),
    ("degree_gate", "constraints.DegreeTestState", "edge_allowed",
     bool, True),
    ("build_cooccurrence", "attack", "build_cooccurrence", None, False),
    ("candidate_edges", "attack", "candidate_edges", len, False),
    ("run_nettack", "attack", "run_nettack", _steps, False),
    ("run_nettack", "experiment", "run_nettack", _steps, False),
    ("fgsm_baseline", "attack", "fgsm_baseline", _steps, False),
    ("fgsm_baseline", "experiment", "fgsm_baseline", _steps, False),
    ("rnd_baseline", "experiment", "rnd_baseline", _steps, False),
    ("replay_constraints", "experiment", "replay_constraints", None, False),
    ("train_gcn", "gcn", "train_gcn", _epochs, False),
    ("train_gcn", "experiment", "train_gcn", _epochs, False),
    ("poisoning_eval", "experiment", "poisoning_eval", None, False),
    ("evasion_eval", "experiment", "evasion_eval", None, False),
    ("select_targets", "experiment", "select_targets", None, False),
    ("run_experiment", "experiment", "run_experiment", None, False),
)


class _Stat:
    __slots__ = ("calls", "total", "self_time", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra = 0


def _resolve(package, path: str):
    parts = path.split(".")
    owner = getattr(package, parts[0])
    for name in parts[1:]:
        owner = getattr(owner, name)
    return owner


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stats: dict[tuple[str, str], _Stat] = defaultdict(_Stat)
        self.spans: list[tuple] = []
        self._stack: list[list] = [[None, 0.0]]  # [span id, child time]
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, extra, hot):
        tracer, clock, count = self, perf_counter, extra

        if hot:
            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    tracer._stack[-1][1] += dt
                    st = tracer.stats[(tracer.phase, name)]
                    st.calls += 1
                    st.total += dt
                    st.self_time += dt
                if count is not None:
                    st.extra += count(out)
                return out
            return hot_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                st = tracer.stats[(tracer.phase, name)]
                st.calls += 1
                st.total += dt
                st.self_time += dt - frame[1]
                tracer.spans.append((frame[0], parent[0], name, tracer.phase, t0, t1))
            if count is not None:
                st.extra += count(out)
            return out
        return wrapper

    def install(self, package) -> None:
        for name, owner_path, attr, extra, hot in PATCHES:
            owner = _resolve(package, owner_path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, extra, hot))
            else:
                wrapped = self._wrap(name, raw, extra, hot)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- reporting ------------------------------------------------------------

    def layer_metrics(self, n_setups: int, n_rounds: int) -> dict[str, float]:
        """Per-layer figures for one set-up plus one round of operations."""
        per = {"setup": n_setups, "round": n_rounds}

        def get(name, field):
            return sum(getattr(self.stats[(phase, name)], field) / n
                       for phase, n in per.items() if n)

        def ratio(a, b):
            return a / b if b else 0.0

        gate_calls = get("degree_gate", "calls")
        gcn_s, gcn_epochs = get("train_gcn", "total"), get("train_gcn", "extra")
        row_calls, row_s = get("row_update", "calls"), get("row_update", "total")
        return {
            "data.load_s": get("load_bundle", "total"),
            "data.lcc_s": get("extract_lcc", "total"),
            "graph.adjacency_matrix_calls": get("adjacency_matrix", "calls"),
            "graph.adjacency_matrix_s": get("adjacency_matrix", "total"),
            "graph.feature_matrix_calls": get("feature_matrix", "calls"),
            "graph.feature_matrix_s": get("feature_matrix", "total"),
            "graph.copy_calls": get("copy", "calls"),
            "graph.copy_s": get("copy", "total"),
            "surrogate.build_s": get("na_build", "total"),
            "surrogate.train_s": get("train_surrogate", "total"),
            "surrogate.train_epochs": get("train_surrogate", "extra"),
            "surrogate.row_updates": row_calls,
            "surrogate.row_update_s": row_s,
            "surrogate.row_update_us": 1e6 * ratio(row_s, row_calls),
            "surrogate.matrix_flips": get("apply_edge_flip", "calls"),
            "surrogate.matrix_flip_s": get("apply_edge_flip", "total"),
            "constraints.degree_gate_calls": gate_calls,
            "constraints.degree_gate_s": get("degree_gate", "total"),
            "constraints.degree_gate_pass_ratio": ratio(get("degree_gate", "extra"),
                                                        gate_calls),
            "constraints.cooc_builds": get("build_cooccurrence", "calls"),
            "constraints.cooc_build_s": get("build_cooccurrence", "total"),
            "attack.steps": sum(get(n, "extra") for n in
                                ("run_nettack", "fgsm_baseline", "rnd_baseline")),
            "attack.edge_candidates_per_step": ratio(get("candidate_edges", "extra"),
                                                     get("candidate_edges", "calls")),
            "attack.candidates_s": get("candidate_edges", "total"),
            "attack.nettack_self_s": get("run_nettack", "self_time"),
            "attack.fgsm_self_s": get("fgsm_baseline", "self_time"),
            "attack.replay_s": get("replay_constraints", "total"),
            "gcn.trains": get("train_gcn", "calls"),
            "gcn.train_s": gcn_s,
            "gcn.epochs": gcn_epochs,
            "gcn.epoch_ms": 1e3 * ratio(gcn_s, gcn_epochs),
            "gcn.poisoning_eval_s": get("poisoning_eval", "total"),
            "gcn.evasion_eval_s": get("evasion_eval", "total"),
            "experiment.select_targets_s": get("select_targets", "total"),
            "experiment.self_s": get("run_experiment", "self_time"),
        }

    def write(self, path: Path) -> None:
        counters = {f"{phase}/{name}": {"calls": s.calls, "total_s": s.total,
                                        "self_s": s.self_time, "extra": s.extra}
                    for (phase, name), s in sorted(self.stats.items())}
        spans = [list(s) for s in self.spans]
        path.write_text(json.dumps({"counters": counters, "spans": spans}) + "\n")
