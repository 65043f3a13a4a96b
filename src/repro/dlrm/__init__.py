"""DLRM substrate: model, embeddings, optimizers, and metrics.

This subpackage is a from-scratch NumPy implementation of the Deep Learning
Recommendation Model (Naumov et al.) that the paper's serving system hosts.
"""

from .embedding import EmbeddingBagCollection, EmbeddingTable, SparseRowGrad
from .interaction import DotInteraction
from .metrics import auc_roc
from .mlp import MLP, ActivationCache, DenseGrads
from .model import DLRM, DLRMConfig, ForwardCache, TrainStepResult, sigmoid
from .optim import RowwiseAdagrad

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
    "RowwiseAdagrad",
    "auc_roc",
]
