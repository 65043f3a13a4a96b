"""DLRM substrate: model, embeddings, optimizers, and metrics.

This subpackage is a from-scratch NumPy implementation of the Deep Learning
Recommendation Model (Naumov et al.) that the paper's serving system hosts.
"""

from .embedding import EmbeddingBagCollection, EmbeddingTable, SparseRowGrad
from .interaction import DotInteraction
from .metrics import StreamingAUC, auc_roc, calibration_ratio, log_loss
from .mlp import MLP, ActivationCache, DenseGrads, clip_by_global_norm
from .model import DLRM, DLRMConfig, ForwardCache, TrainStepResult, sigmoid
from .optim import SGD, RowwiseAdagrad

__all__ = [
    "DLRM",
    "DLRMConfig",
    "ForwardCache",
    "TrainStepResult",
    "sigmoid",
    "EmbeddingTable",
    "EmbeddingBagCollection",
    "SparseRowGrad",
    "DotInteraction",
    "MLP",
    "ActivationCache",
    "DenseGrads",
    "clip_by_global_norm",
    "SGD",
    "RowwiseAdagrad",
    "auc_roc",
    "log_loss",
    "calibration_ratio",
    "StreamingAUC",
]
