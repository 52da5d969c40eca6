"""Deterministic simulation toolkit for federated learning with noisy labels.

Pipeline stages: heterogeneous client partitioning, label-noise injection
under globalized/localized/real-world scenes, FedAvg training with
pluggable robust local strategies, and analysis metrics over the results.
"""

from .analysis import (
    AccuracyTable,
    accuracy_drop_ratio,
    grad_norm_series,
    last_k_average,
    overall_noise_ratio,
    sensitivity,
)
from .datasets import (
    ClassHistogram,
    LabeledDataset,
    class_histogram,
    load_csv,
    load_npy,
    make_synthetic_blobs,
    save_csv,
    save_npy,
)
from .federation import (
    FedConfig,
    FederationResult,
    RoundRecord,
    aggregate,
    evaluate,
    run_federation,
    select_clients,
)
from .localtrain import TrainerConfig, TrainStats, sgd_step, train_local, train_local_coteaching
from .models import (
    LinearSoftmaxLayout,
    MLPLayout,
    ModelParams,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .noise import (
    NoiseReport,
    NoiseSpec,
    TransitionMatrix,
    apply_noise,
    asymmetric_matrix,
    cyclic_target_map,
    localized_asym_target,
    run_scene,
    symmetric_matrix,
)
from .partition import (
    PartitionPlan,
    PartitionSpec,
    load_plan,
    make_partition,
    partition_iid,
    partition_label_dirichlet,
    partition_label_quantity,
    partition_quantity_skew,
    restrict,
    save_plan,
)

__version__ = "0.4.0"

__all__ = [
    "AccuracyTable",
    "ClassHistogram",
    "FedConfig",
    "FederationResult",
    "LabeledDataset",
    "LinearSoftmaxLayout",
    "MLPLayout",
    "ModelParams",
    "NoiseReport",
    "NoiseSpec",
    "PartitionPlan",
    "PartitionSpec",
    "RoundRecord",
    "TrainStats",
    "TrainerConfig",
    "TransitionMatrix",
    "accuracy_drop_ratio",
    "aggregate",
    "apply_noise",
    "asymmetric_matrix",
    "class_histogram",
    "cyclic_target_map",
    "evaluate",
    "forward",
    "grad_norm_series",
    "init_params",
    "last_k_average",
    "load_checkpoint",
    "load_csv",
    "load_npy",
    "load_plan",
    "localized_asym_target",
    "make_partition",
    "make_synthetic_blobs",
    "overall_noise_ratio",
    "partition_iid",
    "partition_label_dirichlet",
    "partition_label_quantity",
    "partition_quantity_skew",
    "restrict",
    "run_federation",
    "run_scene",
    "save_checkpoint",
    "save_csv",
    "save_npy",
    "save_plan",
    "select_clients",
    "sensitivity",
    "sgd_step",
    "symmetric_matrix",
    "train_local",
    "train_local_coteaching",
]
