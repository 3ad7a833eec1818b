"""Output checks computed apart from the program.

Nothing here imports the program or compares against stored output. The
attack checks replay each result's flips on a clean graph that is rebuilt
from the sampler's arrays with scipy alone, and recompute from scratch
what the program computes incrementally: the target's row of the squared
normalized adjacency, the surrogate loss, the power-law degree test and
the feature co-occurrence test. The protocol checks parse the files that
`run_experiment` writes and test properties that any correct run has.

Every check returns a list of error strings; an empty list is a pass.
`self_test_*` feed the checks corrupted copies of real outputs and return
the names of the corruptions that went unnoticed.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

LOSS_TOL = 1e-9
LAMBDA_TOL = 1e-6
REACH_TOL = 1e-12  # reach probabilities this close to the threshold are undecidable
D_MIN = 2
TAU = 0.004


class Reference:
    """Clean largest connected component of a sampled graph, as scipy matrices.

    Node ids follow the program's convention: the component's original ids
    in ascending order, ties between equally large components going to the
    one that holds the smallest id.
    """

    def __init__(self, sampled):
        n = sampled.n_nodes
        e = sampled.edges
        a = sp.coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n)).tocsr()
        a = (a + a.T).tocsr()
        n_comp, comp = connected_components(a, directed=False)
        sizes = np.bincount(comp)
        smallest = np.full(n_comp, n)
        np.minimum.at(smallest, comp, np.arange(n))
        best = min(range(n_comp), key=lambda c: (-sizes[c], smallest[c]))
        keep = np.flatnonzero(comp == best)
        f = sampled.features
        x = sp.coo_matrix((np.ones(len(f)), (f[:, 0], f[:, 1])),
                          shape=(n, sampled.n_features)).tocsr()
        x.data[:] = 1.0
        self.adj = a[keep][:, keep].tocsr()
        self.feat = x[keep].tocsr()
        self.classes = sampled.classes[keep]
        self.degrees = np.asarray(self.adj.sum(axis=1)).ravel().astype(np.int64)
        cooc = (self.feat.T @ self.feat).tocsr()
        cooc.setdiag(0.0)
        cooc.eliminate_zeros()
        cooc.data[:] = 1.0
        deg = np.asarray(cooc.sum(axis=1)).ravel()
        self.cooc = cooc
        self.inv_cooc_degree = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)

    def two_hop(self, v: int) -> set[int]:
        one = set(self.adj[v].indices.tolist())
        out = set(one)
        for w in one:
            out.update(self.adj[w].indices.tolist())
        out.discard(v)
        return out


# -- closed forms -------------------------------------------------------------

def square_row(adj: sp.csr_matrix, v: int) -> np.ndarray:
    """Row v of (D^-1/2 (A + I) D^-1/2)^2, built from scratch."""
    at = (adj + sp.identity(adj.shape[0], format="csr")).tocsr()
    scale = sp.diags(1.0 / np.sqrt(np.asarray(at.sum(axis=1)).ravel()))
    ahat = (scale @ at @ scale).tocsr()
    return np.asarray((ahat[v] @ ahat).todense()).ravel()


def surrogate_loss(adj, feat, weights, v: int, c: int) -> float:
    logits = (feat.T @ square_row(adj, v)) @ weights
    return float(np.delete(logits, c).max() - logits[c])


def _powerlaw_loglik(n: int, log_sum: float) -> float:
    alpha = 1.0 + n / (log_sum - n * math.log(D_MIN - 0.5))
    return n * math.log(alpha) + n * alpha * math.log(D_MIN) - (alpha + 1.0) * log_sum


def degree_lambda(deg0: np.ndarray, deg1: np.ndarray) -> float:
    """Likelihood-ratio statistic of two degree samples under one power law."""
    d0 = np.log(deg0[deg0 >= D_MIN].astype(np.float64))
    d1 = np.log(deg1[deg1 >= D_MIN].astype(np.float64))
    l0 = _powerlaw_loglik(d0.size, float(d0.sum()))
    l1 = _powerlaw_loglik(d1.size, float(d1.sum()))
    lc = _powerlaw_loglik(d0.size + d1.size, float(d0.sum() + d1.sum()))
    return -2.0 * lc + 2.0 * (l0 + l1)


def _toggle(m: sp.csr_matrix, cells, sign: float) -> sp.csr_matrix:
    rows, cols = zip(*cells)
    delta = sp.csr_matrix(([sign] * len(cells), (rows, cols)), shape=m.shape)
    out = (m + delta).tocsr()
    out.eliminate_zeros()
    return out


def replay(ref: Reference, result: dict):
    """Yield (step, flip, adjacency, features, error) after each logged flip."""
    adj, feat = ref.adj, ref.feat
    for step, p in enumerate(result["perturbations"]):
        u, v = p["u"], p["v"]
        if p["kind"] == "edge":
            present = adj[u, v] != 0
            adj = _toggle(adj, [(u, v), (v, u)], -1.0 if present else 1.0)
        else:
            present = feat[u, v] != 0
            feat = _toggle(feat, [(u, v)], -1.0 if present else 1.0)
        error = None
        if p["insert"] == present:
            error = f"step {step}: insert={p['insert']} but entry was {int(present)}"
        yield step, p, adj, feat, error


# -- attack checks --------------------------------------------------------------

def check_losses(ref: Reference, result: dict, weights, scores_are_losses: bool):
    v0 = result["target"]
    c = int(ref.classes[v0])
    errors = []
    loss0 = surrogate_loss(ref.adj, ref.feat, weights, v0, c)
    if abs(loss0 - result["initial_loss"]) > LOSS_TOL:
        errors.append(f"initial loss {result['initial_loss']} != scratch {loss0}")
    trace = result["loss_trace"]
    if len(trace) != len(result["perturbations"]):
        errors.append("loss trace and flip log differ in length")
    for step, p, adj, feat, error in replay(ref, result):
        if error:
            errors.append(error)
        loss = surrogate_loss(adj, feat, weights, v0, c)
        if step < len(trace) and abs(loss - trace[step]) > LOSS_TOL:
            errors.append(f"step {step}: loss {trace[step]} != scratch {loss}")
        if scores_are_losses and not abs(loss - p["score"]) <= LOSS_TOL:
            errors.append(f"step {step}: score {p['score']} != scratch loss {loss}")
    return errors


def check_degree_test(ref: Reference, result: dict):
    errors = []
    trace = result["lambda_trace"]
    for step, p, adj, _, _ in replay(ref, result):
        if p["kind"] != "edge":
            continue
        lam = degree_lambda(ref.degrees, np.asarray(adj.sum(axis=1)).ravel())
        if not lam < TAU:
            errors.append(f"step {step}: degree statistic {lam} >= tau {TAU}")
        if step < len(trace) and abs(lam - trace[step]) > LAMBDA_TOL:
            errors.append(f"step {step}: lambda trace {trace[step]} != scratch {lam}")
    return errors


def feature_reachable(ref: Reference, u: int, i: int) -> bool:
    own = ref.feat[u].indices
    if i in own:
        return True
    if own.size == 0:
        return False
    inv = ref.inv_cooc_degree[own]
    reach = float(np.asarray(ref.cooc[own, i].todense()).ravel() @ inv) / own.size
    sigma = 0.5 * float(inv.sum()) / own.size
    return reach > sigma - REACH_TOL


def check_cooccurrence(ref: Reference, result: dict):
    return [f"step {s}: feature {p['v']} unreachable from node {p['u']}"
            for s, p in enumerate(result["perturbations"])
            if p["kind"] == "feature" and p["insert"]
            and not feature_reachable(ref, p["u"], p["v"])]


def check_locality(ref: Reference, result: dict):
    v0 = result["target"]
    attackers = set(result["attackers"])
    errors = []
    if result["mode"] == "direct":
        if attackers != {v0}:
            errors.append(f"direct attackers {sorted(attackers)} != target {v0}")
    else:
        if v0 in attackers or not attackers <= ref.two_hop(v0):
            errors.append(f"influencers {sorted(attackers)} not in the two-hop "
                          f"ring of {v0}")
    for step, p in enumerate(result["perturbations"]):
        ends = {p["u"], p["v"]} if p["kind"] == "edge" else {p["u"]}
        if result["mode"] == "direct" and v0 not in ends:
            errors.append(f"step {step}: direct flip {sorted(ends)} misses the target")
        if result["mode"] != "direct" and (v0 in ends or not ends & attackers):
            errors.append(f"step {step}: influencer flip {sorted(ends)} breaks locality")
    return errors


def check_budget(ref: Reference, result: dict):
    budget = int(ref.degrees[result["target"]]) + 2
    n = len(result["perturbations"])
    errors = []
    if result["budget"] != budget or n > budget:
        errors.append(f"{n} flips with budget {result['budget']}; degree rule gives {budget}")
    if len(result["lambda_trace"]) != n:
        errors.append("lambda trace and flip log differ in length")
    return errors


def check_attack(ref: Reference, result: dict, weights, scores_are_losses: bool):
    errors = (check_budget(ref, result) + check_locality(ref, result)
              + check_losses(ref, result, weights, scores_are_losses))
    if result["constrained"]:
        errors += check_degree_test(ref, result) + check_cooccurrence(ref, result)
    return errors


def check_lcc(ref: Reference, adj: sp.csr_matrix, feat: sp.csr_matrix, classes):
    """The program's cleaned graph equals the independently rebuilt one."""
    errors = []
    if adj.shape != ref.adj.shape or (adj != ref.adj).nnz:
        errors.append("program LCC adjacency differs from the scipy rebuild")
    if feat.shape != ref.feat.shape or (feat != ref.feat).nnz:
        errors.append("program LCC features differ from the scipy rebuild")
    if not np.array_equal(np.asarray(classes), ref.classes):
        errors.append("program LCC labels differ from the scipy rebuild")
    return errors


def self_test_attack(ref: Reference, result: dict, weights, scores_are_losses: bool):
    """Corrupt a real result one way per check; return the corruptions missed."""
    v0 = result["target"]
    missed = []

    def expect(name, check, bad):
        if not check(bad):
            missed.append(name)

    bad = copy.deepcopy(result)
    others = (x for x in range(ref.adj.shape[0])
              if x != v0 and ref.adj[v0, x] == 0 and x not in result["attackers"])
    while len(bad["perturbations"]) <= bad["budget"]:
        x = next(others)
        bad["perturbations"].append({"kind": "edge", "u": min(v0, x), "v": max(v0, x),
                                     "insert": True, "score": 0.0})
        bad["lambda_trace"].append(0.0)
        bad["loss_trace"].append(0.0)
    expect("extra edge flip", lambda r: check_budget(ref, r), bad)

    bad = copy.deepcopy(result)
    if bad["loss_trace"]:
        bad["loss_trace"][-1] += 1e-6
    else:
        bad["initial_loss"] += 1e-6
    expect("wrong loss", lambda r: check_losses(ref, r, weights, scores_are_losses), bad)

    bad = copy.deepcopy(result)
    a, b = [x for x in range(ref.adj.shape[0]) if x != v0 and x not in result["attackers"]][:2]
    if result["mode"] != "direct":
        a = v0
    bad["perturbations"][:1] = [{"kind": "edge", "u": min(a, b), "v": max(a, b),
                                 "insert": True, "score": 0.0}]
    expect("flip away from the attackers", lambda r: check_locality(ref, r), bad)

    if result["constrained"]:
        bad = copy.deepcopy(result)
        leaves = np.flatnonzero(ref.degrees == 1)[:200]
        bad["perturbations"] = [{"kind": "edge", "u": int(p), "v": int(q), "insert": True,
                                 "score": 0.0} for p, q in zip(leaves[::2], leaves[1::2])]
        expect("degree test broken", lambda r: check_degree_test(ref, r), bad)

        bad = copy.deepcopy(result)
        u, i = next((u, i) for u in range(ref.adj.shape[0]) for i in range(ref.feat.shape[1])
                    if not feature_reachable(ref, u, i))
        bad["perturbations"].append({"kind": "feature", "u": u, "v": i, "insert": True,
                                     "score": 0.0})
        expect("unreachable feature insertion", lambda r: check_cooccurrence(ref, r), bad)
    return missed


# -- protocol checks ------------------------------------------------------------

def _no_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity tokens."""
    return json.loads(text, parse_constant=_no_constant)


def strict_csv(text: str) -> list[dict]:
    """Parse a CSV with a header; refuse ragged rows and non-finite numbers."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    header, body = rows[0], rows[1:]
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"row {row} has {len(row)} cells, header {len(header)}")
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise ValueError(f"non-finite number {cell!r}")
    return [dict(zip(header, row)) for row in body]


def _is_multiple(x: float, runs: int) -> bool:
    return abs(x * runs - round(x * runs)) <= 1e-9


def check_margin_rows(rows: list[dict], attacks, n_targets: int, runs: int):
    errors = []
    for name in ("clean",) + tuple(attacks):
        for mode in ("evasion", "poisoning"):
            n = sum(r["attack"] == name and r["mode"] == mode for r in rows)
            if n != n_targets:
                errors.append(f"margin_scatter: {n} rows for ({name}, {mode}), "
                              f"want {n_targets}")
    for r in rows:
        if not -1.0 <= float(r["margin"]) <= 1.0:
            errors.append(f"margin {r['margin']} outside [-1, 1]")
        if not _is_multiple(float(r["correct_fraction"]), runs):
            errors.append(f"correct_fraction {r['correct_fraction']} not a multiple "
                          f"of 1/{runs}")

    def mean_poisoned(name):
        sub = [float(r["margin"]) for r in rows
               if r["attack"] == name and r["mode"] == "poisoning"]
        return sum(sub) / len(sub) if sub else math.nan

    if not mean_poisoned("nettack") < mean_poisoned("clean"):
        errors.append(f"nettack mean poisoned margin {mean_poisoned('nettack')} not "
                      f"below clean {mean_poisoned('clean')}")
    return errors


def check_aggregate(rows: list[dict], attacks, n_targets: int):
    want = {(a, m) for a in ("clean",) + tuple(attacks) for m in ("evasion", "poisoning")}
    got = {(r["attack"], r["mode"]) for r in rows}
    errors = [] if got == want and len(rows) == len(want) else [
        f"aggregate rows {sorted(got)} != {sorted(want)}"]
    for r in rows:
        if int(r["n_rows"]) != n_targets:
            errors.append(f"aggregate ({r['attack']}, {r['mode']}): n_rows {r['n_rows']}")
        if not -1.0 <= float(r["mean_margin"]) <= 1.0:
            errors.append(f"aggregate mean margin {r['mean_margin']} outside [-1, 1]")
    return errors


def check_run_payload(payload: dict, runs: int):
    errors = []
    for mode in ("evasion", "poisoning"):
        for t in payload[mode]["targets"]:
            if not -1.0 <= t["margin"] <= 1.0:
                errors.append(f"{mode} margin {t['margin']} outside [-1, 1]")
            if not _is_multiple(t["correct_fraction"], runs):
                errors.append(f"{mode} correct_fraction {t['correct_fraction']}")
    return errors


def self_test_protocol(margin_rows: list[dict], nettack_payload: dict | None, attacks,
                       n_targets: int, runs: int):
    """Corrupt real protocol outputs one way per check; return those missed."""
    missed = []

    def corrupted_rows(edit):
        rows = copy.deepcopy(margin_rows)
        edit(rows)
        return check_margin_rows(rows, attacks, n_targets, runs)

    def set_first(key, value):
        return lambda rows: rows[0].__setitem__(key, value)

    def raise_nettack(rows):
        for r in rows:
            if r["attack"] == "nettack":
                r["margin"] = "0.999"

    if not margin_rows:
        missed.append("CSV row checks (no parsed margin rows to corrupt)")
    else:
        if not corrupted_rows(set_first("margin", "1.5")):
            missed.append("margin outside [-1, 1]")
        if not corrupted_rows(set_first("correct_fraction", str(0.5 / runs))):
            missed.append("correct_fraction off the 1/runs grid")
        if not corrupted_rows(lambda rows: rows.pop()):
            missed.append("missing CSV row")
        if not corrupted_rows(raise_nettack):
            missed.append("nettack margin above clean")
    if nettack_payload is None:
        missed.append("NaN in JSON (no parsed nettack run file to corrupt)")
    else:
        bad = copy.deepcopy(nettack_payload)
        bad["result"]["initial_loss"] = math.nan
        if _accepts(strict_json, json.dumps(bad)):  # json.dumps writes a bare NaN
            missed.append("NaN in JSON")
    if _accepts(strict_csv, "a,b\n1,nan\n"):
        missed.append("NaN in CSV")
    return missed


def _accepts(parse, text: str) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True
