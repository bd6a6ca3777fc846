"""Merging-coefficient computation from a prompt embedding.

Routing is sparse cross-attention over expert centroids: cosine logits
scaled by a temperature, a sparse softmax that prunes experts whose
probability falls below a threshold, and renormalization of the
survivors. A fixed-n variant keeps the n nearest centroids instead of
thresholding. rbf_weights states the equivalent RBF-kernel form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _softmax


@dataclass(frozen=True)
class RoutingConfig:
    beta: float = 0.05  # temperature; untuned: within 0.1% of the best of 0.02-0.2 on seed 0
    tau: float = 0.01  # sparsity threshold, must satisfy tau < 1/K
    fixed_n: int | None = None  # fixed number of active experts instead of tau

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"tau must be >= 0 and finite, got {self.tau}")
        n = self.fixed_n
        if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 1):
            raise ValueError(f"fixed_n must be an integer >= 1 when set, got {n!r}")


@dataclass
class MergeWeights:
    """Sparse convex distribution over expert ids."""

    entries: dict[int, float]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("merge weights must have at least one entry")
        if any(w <= 0 for w in self.entries.values()):
            raise ValueError("merge weights must be strictly positive")
        total = math.fsum(self.entries.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"merge weights must sum to 1, got {total}")

    @property
    def support(self) -> list[int]:
        return sorted(self.entries)

    @property
    def n_active(self) -> int:
        return len(self.entries)


def sparse_softmax(z: np.ndarray, tau: float) -> MergeWeights:
    """softmax, prune entries with probability <= tau, renormalize.

    tau < 1/K guarantees at least one survivor: the largest softmax
    probability is always >= 1/K.
    """
    z = np.asarray(z, dtype=np.float64)
    K = len(z)
    if K < 1:
        raise ValueError("empty logit vector")
    if tau >= 1.0 / K:
        raise ValueError(f"tau too large for K: tau={tau} >= 1/{K}")
    p = _softmax(z)
    clipped = np.maximum(p - tau, 0.0)
    total = clipped.sum()
    entries = {int(k): float(clipped[k] / total) for k in np.flatnonzero(clipped > 0)}
    return MergeWeights(entries=entries)


def _cosine_logits(query: np.ndarray, catalog) -> np.ndarray:
    return catalog.centroids.astype(np.float64) @ np.asarray(query, dtype=np.float64)


def route(query: np.ndarray, catalog, cfg: RoutingConfig) -> MergeWeights:
    """Cross-attention weights: sparse softmax of cosine/beta logits."""
    if cfg.fixed_n is not None:
        return route_fixed_n(query, catalog, cfg.fixed_n, cfg.beta)
    logits = _cosine_logits(query, catalog) / cfg.beta
    return sparse_softmax(logits, cfg.tau)


def top_n(scores: np.ndarray, n: int) -> np.ndarray:
    """Ids of the n highest scores, by descending score; ties go to the
    lower id."""
    K = len(scores)
    if n < 1 or n > K:
        raise ValueError(f"n out of range [1, {K}]: {n}")
    return np.lexsort((np.arange(K), -scores))[:n]


def route_fixed_n(query: np.ndarray, catalog, n: int, beta: float) -> MergeWeights:
    """Softmax at temperature beta over the n nearest centroids only."""
    logits = _cosine_logits(query, catalog) / beta
    ids = top_n(logits, n)
    p = _softmax(logits[ids])
    return MergeWeights(entries={int(k): float(w) for k, w in zip(ids, p)})


def rbf_weights(query: np.ndarray, centroids: np.ndarray, beta: float) -> np.ndarray:
    """normalize(exp(-||q - c_k||^2 / (2 beta))); equals the softmax of
    cosine/beta logits when all vectors are unit-norm."""
    q = np.asarray(query, dtype=np.float64)
    c = np.asarray(centroids, dtype=np.float64)
    d2 = ((c - q) ** 2).sum(axis=1)
    return _softmax(-d2 / (2.0 * beta))
