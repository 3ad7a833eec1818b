"""Adversarial structure/feature perturbations for GCN node classifiers."""

from .attack import (AttackConfig, AttackResult, apply_result, candidate_edges,
                     candidate_features, fgsm_baseline, replay_constraints,
                     rnd_baseline, run_nettack, score_features)
from .constraints import (CooccurrenceIndex, DegreeTestState, build_cooccurrence,
                          estimate_alpha, feature_addition_allowed,
                          lambda_statistic, powerlaw_loglikelihood)
from .data import DataSplit, extract_lcc, load_bundle, make_split, save_bundle
from .gcn import (GcnConfig, GcnModel, MarginReport, evasion_eval,
                  poisoning_eval, train_gcn)
from .graph import AttributedGraph, GraphError, Perturbation
from .experiment import (ExperimentPlan, degree_bucket_report,
                         limited_knowledge_subgraph, run_experiment,
                         select_targets)
from .surrogate import (NormalizedAdjacency, SurrogateModel, train_surrogate,
                        updated_square_row_from)
from .synthetic import planted_partition

__version__ = "0.1.0"
