"""Per-prompt merging of cluster-trained low-rank experts for a small
character-level language model."""

from .config import EvalProtocol, RunConfig
from .embedding import EmbedderConfig, embed
from .model import BaseParams, LoraAdapter, TrainConfig, Vocab
from .routing import MergeWeights, RoutingConfig, sparse_softmax

__all__ = [
    "BaseParams",
    "EmbedderConfig",
    "EvalProtocol",
    "LoraAdapter",
    "MergeWeights",
    "RoutingConfig",
    "RunConfig",
    "TrainConfig",
    "Vocab",
    "embed",
    "sparse_softmax",
]
