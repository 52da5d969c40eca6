"""Deterministic simulation toolkit for federated learning with noisy labels.

Pipeline stages: heterogeneous client partitioning, label-noise injection
under globalized/localized/real-world scenes, and FedAvg training with
pluggable robust local strategies.  Analysis turns the accuracies of
finished runs into the paper's drop-ratio and sensitivity series.
"""

__version__ = "0.11.0"
