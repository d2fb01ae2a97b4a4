"""From-scratch CNN for polygon shape classification."""
from __future__ import annotations

from .data import (
    LabeledImage,
    batch_arrays,
    generate_dataset,
    load_dataset,
    perturbed_polygon,
    save_dataset,
    split_dataset,
)
from .layers import (
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    MaxPoolLayer,
    ReLULayer,
    cross_entropy,
    softmax,
    softmax_cross_entropy,
)
from .network import FEATURE_MAPS, Network, load_model, save_model
from .train import (
    AdamState,
    TrainConfig,
    accuracy,
    adam_step,
    compute_gradients,
    confusion_matrix,
    evaluate,
    train,
)

__all__ = [
    "AdamState",
    "BatchNormLayer",
    "ConvLayer",
    "DenseLayer",
    "FEATURE_MAPS",
    "LabeledImage",
    "MaxPoolLayer",
    "Network",
    "ReLULayer",
    "TrainConfig",
    "accuracy",
    "adam_step",
    "batch_arrays",
    "compute_gradients",
    "confusion_matrix",
    "cross_entropy",
    "evaluate",
    "generate_dataset",
    "load_dataset",
    "load_model",
    "perturbed_polygon",
    "save_dataset",
    "save_model",
    "softmax",
    "softmax_cross_entropy",
    "split_dataset",
    "train",
]
