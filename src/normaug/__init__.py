"""Normalization-guided augmentation for domain generalization, desk scale.

A two-path network normalizes each training batch both as a whole (main
route) and group-by-group under a randomly sampled partition of the source
domains (auxiliary route, one BN unit and classifier per domain subset).
At test time the main prediction is fused with the single-domain sub-path
predictions.
"""

from .datagen import Dataset, DomainSpec, generate, load, save, split_lodo
from .gradcheck import grad_check_params
from .inference import EvalReport, FusionStrategy, SubpathScope, evaluate, predict
from .model import (
    ModelConfig,
    TwoPathNetwork,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .normbank import (
    BNBank,
    BNUnit,
    DomainSubset,
    ONUnit,
    Partition,
    bn_forward,
    compute_batch_stats,
    enumerate_full_combinations,
    enumerate_reduced_combinations,
    partitioned_forward,
)
from .tensor import Tensor, backward, no_grad
from .training import (
    DomainBatch,
    TrainConfig,
    sample_combination,
    train,
    train_step,
    two_path_loss,
)

__all__ = [
    "BNBank",
    "BNUnit",
    "Dataset",
    "DomainBatch",
    "DomainSpec",
    "DomainSubset",
    "EvalReport",
    "FusionStrategy",
    "ModelConfig",
    "ONUnit",
    "Partition",
    "SubpathScope",
    "Tensor",
    "TrainConfig",
    "TwoPathNetwork",
    "backward",
    "bn_forward",
    "compute_batch_stats",
    "enumerate_full_combinations",
    "enumerate_reduced_combinations",
    "evaluate",
    "generate",
    "grad_check_params",
    "init_model",
    "load",
    "load_checkpoint",
    "no_grad",
    "partitioned_forward",
    "predict",
    "sample_combination",
    "save",
    "save_checkpoint",
    "split_lodo",
    "train",
    "train_step",
    "two_path_loss",
]
