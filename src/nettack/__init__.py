"""Adversarial structure/feature perturbations for GCN node classifiers."""

from . import attack, constraints, data, experiment, gcn, graph, surrogate, synthetic

__version__ = "0.1.0"
