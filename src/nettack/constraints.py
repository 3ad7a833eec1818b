"""Unnoticeability gates: power-law degree test and feature co-occurrence.

Structure flips must keep the degree sequence statistically compatible
with the clean graph's (likelihood-ratio statistic below a chi-square
threshold); feature additions must be reachable by a one-step random walk
on the clean graph's feature co-occurrence graph. Degree-test quantities
update in constant time per candidate edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import AttributedGraph

DEFAULT_D_MIN = 2
DEFAULT_TAU = 0.004  # 5th percentile of chi-square with one degree of freedom


class DegreeTestError(ValueError):
    """Unusable degree sample for the power-law test."""


def _filtered_stats(degrees: np.ndarray, d_min: int) -> tuple[int, float]:
    """Sample size and sum of log-degrees over entries >= d_min."""
    d = np.asarray(degrees, dtype=np.float64)
    d = d[d >= d_min]
    return int(d.size), float(np.sum(np.log(d))) if d.size else 0.0


def alpha_from_stats(n: int, log_sum: float, d_min: int) -> float:
    """Closed-form scaling-parameter estimate from (n, sum of log degrees)."""
    if n == 0:
        raise DegreeTestError("no degrees at or above d_min")
    denom = log_sum - n * math.log(d_min - 0.5)
    return 1.0 + n / denom


def loglik_from_stats(n: int, log_sum: float, alpha: float, d_min: int,
                      as_printed: bool = False) -> float:
    """Power-law log-likelihood from sufficient statistics.

    The default uses the sign-corrected density exponent -(alpha + 1); the
    as_printed variant keeps +(alpha + 1), which grows without bound in
    alpha and exists only for comparison runs.
    """
    if alpha <= 0:
        raise DegreeTestError(f"alpha must be positive, got {alpha}")
    if n == 0:
        return 0.0
    sign = 1.0 if as_printed else -1.0
    return n * math.log(alpha) + n * alpha * math.log(d_min) + sign * (alpha + 1.0) * log_sum


def lambda_from_stats(n0: int, r0: float, n1: int, r1: float, d_min: int,
                      as_printed: bool = False) -> float:
    """Likelihood-ratio statistic between two degree samples.

    Null: one shared power law over the concatenated samples. Alternative:
    each sample keeps its own fitted scaling parameter.
    """
    a0 = alpha_from_stats(n0, r0, d_min) if n0 else 1.0
    a1 = alpha_from_stats(n1, r1, d_min) if n1 else 1.0
    nc, rc = n0 + n1, r0 + r1
    ac = alpha_from_stats(nc, rc, d_min) if nc else 1.0
    l0 = loglik_from_stats(n0, r0, a0, d_min, as_printed)
    l1 = loglik_from_stats(n1, r1, a1, d_min, as_printed)
    lc = loglik_from_stats(nc, rc, ac, d_min, as_printed)
    return -2.0 * lc + 2.0 * (l0 + l1)


def lambda_statistic(deg0, deg1, d_min: int = DEFAULT_D_MIN,
                     as_printed: bool = False) -> float:
    """Two-sample degree-distribution test statistic (multiset inputs)."""
    n0, r0 = _filtered_stats(deg0, d_min)
    n1, r1 = _filtered_stats(deg1, d_min)
    if n0 == 0 or n1 == 0:
        raise DegreeTestError("both degree samples need entries at or above d_min")
    return lambda_from_stats(n0, r0, n1, r1, d_min, as_printed)


@dataclass
class CandidateDegreeTest:
    """Constant-time degree-test evaluation of one candidate edge flip."""

    n_new: int
    log_sum_new: float
    alpha_new: float
    loglik_new: float
    lam: float


@dataclass
class DegreeTestState:
    """Running degree-test statistics of the evolving graph.

    Carries the frozen reference-sample statistics (the clean graph),
    fitted once, alongside the current ones, so the two-sample statistic
    against the clean graph updates in constant time per candidate edge.
    """

    d_min: int
    tau: float
    n_ref: int
    log_sum_ref: float
    loglik_ref: float
    n_cur: int
    log_sum_cur: float
    as_printed: bool = False

    @classmethod
    def from_graph(cls, g: AttributedGraph, d_min: int = DEFAULT_D_MIN,
                   tau: float = DEFAULT_TAU,
                   as_printed: bool = False) -> "DegreeTestState":
        n, log_sum = _filtered_stats(g.degrees, d_min)
        alpha = alpha_from_stats(n, log_sum, d_min) if n else 1.0
        loglik = loglik_from_stats(n, log_sum, alpha, d_min, as_printed)
        return cls(d_min=d_min, tau=tau, n_ref=n, log_sum_ref=log_sum,
                   loglik_ref=loglik, n_cur=n, log_sum_cur=log_sum,
                   as_printed=as_printed)

    @property
    def alpha(self) -> float:
        return alpha_from_stats(self.n_cur, self.log_sum_cur, self.d_min)

    def _shift(self, d_m: int, d_n: int, a_mn: int) -> tuple[int, float]:
        """(n, log-sum) after flipping an edge between nodes of degree d_m, d_n."""
        x = 1 - 2 * a_mn
        n_new = self.n_cur
        if d_m + 1 - a_mn == self.d_min:
            n_new += x
        if d_n + 1 - a_mn == self.d_min:
            n_new += x
        r_new = self.log_sum_cur
        for dk in (d_m, d_n):
            if dk >= self.d_min:
                r_new -= math.log(dk)
            if dk + x >= self.d_min:
                r_new += math.log(dk + x)
        return n_new, r_new

    def _lambda(self, n: int, log_sum: float, loglik: float) -> float:
        """`lambda_from_stats` against the reference, given the other
        sample's own log-likelihood: only the pooled sample is fitted."""
        nc, rc = self.n_ref + n, self.log_sum_ref + log_sum
        ac = alpha_from_stats(nc, rc, self.d_min) if nc else 1.0
        lc = loglik_from_stats(nc, rc, ac, self.d_min, self.as_printed)
        return -2.0 * lc + 2.0 * (self.loglik_ref + loglik)

    def evaluate_edge(self, d_m: int, d_n: int, a_mn: int) -> CandidateDegreeTest:
        """Test statistics if the edge between degrees (d_m, d_n) flipped.

        `a_mn` is the current adjacency entry (1 removes, 0 inserts).
        """
        n_new, r_new = self._shift(d_m, d_n, a_mn)
        alpha_new = alpha_from_stats(n_new, r_new, self.d_min) if n_new else float("nan")
        ll_new = (loglik_from_stats(n_new, r_new, alpha_new, self.d_min, self.as_printed)
                  if n_new else 0.0)
        return CandidateDegreeTest(n_new=n_new, log_sum_new=r_new,
                                   alpha_new=alpha_new, loglik_new=ll_new,
                                   lam=self._lambda(n_new, r_new, ll_new))

    def commit_edge(self, d_m: int, d_n: int, a_mn: int) -> None:
        """Advance the current statistics past an applied edge flip."""
        self.n_cur, self.log_sum_cur = self._shift(d_m, d_n, a_mn)

    def lambda_current(self) -> float:
        """Statistic of the current graph against the frozen reference."""
        return lambda_from_stats(self.n_ref, self.log_sum_ref,
                                 self.n_cur, self.log_sum_cur,
                                 self.d_min, self.as_printed)

    def edge_allowed(self, d_m: int, d_n: int, a_mn: int) -> bool:
        return self.evaluate_edge(d_m, d_n, a_mn).lam < self.tau


@dataclass
class CooccurrenceIndex:
    """Feature co-occurrence graph of the clean graph, frozen for a run.

    A feature addition (u, i) is unnoticeable when a one-step random walk
    started uniformly on u's original features reaches i with probability
    above half the maximum achievable for that node.
    """

    cooc: sp.csr_matrix          # binary feature-feature co-occurrence
    feature_degrees: np.ndarray  # degree of each feature in the co-occurrence graph
    features: sp.csr_matrix      # the clean graph's boolean node-feature matrix
    sigma: np.ndarray            # per-node acceptance threshold
    walk_rows: sp.csr_matrix     # cooc with row j scaled by 1/degree(j)

    def reach_probabilities(self, u: int) -> np.ndarray:
        """One-step reach probability from u's original features to each feature."""
        idx = self.features[u].indices
        if not len(idx):
            return np.zeros(self.cooc.shape[0], dtype=np.float64)
        p = np.asarray(self.walk_rows[idx].sum(axis=0)).ravel()
        return p / len(idx)

    def allowed_additions(self, u: int) -> np.ndarray:
        """Boolean mask over features whose addition to u passes the test."""
        mask = self.reach_probabilities(u) > self.sigma[u]
        mask[self.features[u].indices] = True
        return mask


def build_cooccurrence(g0: AttributedGraph) -> CooccurrenceIndex:
    """Index the clean graph's feature co-occurrences; never updated after."""
    x = g0.feature_matrix()
    counts = (x.T @ x).tocsr()
    counts = (counts - sp.diags(counts.diagonal())).tocsr()
    counts.eliminate_zeros()
    cooc = counts.copy()
    cooc.data = np.ones_like(cooc.data)
    deg = np.asarray(cooc.sum(axis=1)).ravel()

    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    walk_rows = (sp.diags(inv_deg) @ cooc).tocsr()

    n_feats = np.diff(g0.feat.indptr)
    sigma = np.divide(0.5 * (g0.feat @ inv_deg), n_feats,
                      out=np.zeros(g0.n_nodes), where=n_feats > 0)
    return CooccurrenceIndex(cooc=cooc, feature_degrees=deg, features=g0.feat,
                             sigma=sigma, walk_rows=walk_rows)


def feature_addition_allowed(idx: CooccurrenceIndex, u: int, i: int) -> bool:
    """Whether setting feature i on node u passes the co-occurrence test.

    Features originally present always pass; a node with no original
    features admits no additions (the walk has nowhere to start).
    Removals are not gated and never reach this check.
    """
    return bool(idx.allowed_additions(u)[i])
