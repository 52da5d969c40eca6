"""Deterministic simulation toolkit for federated learning with noisy labels.

Pipeline stages: heterogeneous client partitioning, label-noise injection
under globalized/localized/real-world scenes, and FedAvg training with
pluggable robust local strategies.  Analysis turns the accuracies of
finished runs into the paper's drop-ratio and sensitivity series.
"""

from .analysis import (
    AccuracyTable,
    accuracy_drop_ratio,
    last_k_average,
    sensitivity,
)
from .datasets import (
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

__version__ = "0.5.0"

__all__ = [
    "AccuracyTable",
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
    "init_params",
    "last_k_average",
    "load_checkpoint",
    "load_csv",
    "load_npy",
    "load_plan",
    "make_partition",
    "make_synthetic_blobs",
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
