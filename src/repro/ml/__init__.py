"""ML models implementing the protocol Rain's influence machinery needs."""

from .base import ClassificationModel, HessianOperator, TrainingSet
from .linear import LogisticRegression, SoftmaxRegression
from .neural import (
    NeuralClassifier,
    flatten_input_adapter,
    image_input_adapter,
    make_cnn,
    make_mlp,
)

__all__ = [
    "ClassificationModel",
    "HessianOperator",
    "TrainingSet",
    "LogisticRegression",
    "SoftmaxRegression",
    "NeuralClassifier",
    "flatten_input_adapter",
    "image_input_adapter",
    "make_cnn",
    "make_mlp",
]
