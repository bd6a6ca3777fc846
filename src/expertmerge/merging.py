"""Expert combination in parameter space.

Merging contracts the weighted low-rank factors into one dense delta per
target matrix before applying it to the base weights, so merged inference
costs a single model evaluation however many experts contribute.
Prediction-space ensembling, one evaluation per active expert, is
evaluation.ensemble_perplexity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as lm
from .routing import MergeWeights


@dataclass
class MergedAdapter:
    deltas: dict[str, np.ndarray]  # name -> (d_out, d_in) float32
    provenance: MergeWeights

    def __post_init__(self) -> None:
        # a float64 delta past the float32 range casts to inf, which the check rejects
        with np.errstate(over="ignore"):
            for name, delta in self.deltas.items():
                delta = np.ascontiguousarray(delta, dtype=np.float32)
                if not np.isfinite(delta).all():
                    raise ValueError(f"non-finite entries in merged delta {name}")
                self.deltas[name] = delta


def merge_adapters(
    weights: MergeWeights, adapters: dict[int, lm.LoraAdapter]
) -> MergedAdapter:
    """Dense per-target delta sum_k w_k * (alpha_k/r_k) * B_k @ A_k.

    Accumulates in float64 and stores float32. Mixed ranks are allowed;
    each expert contributes its own alpha/r scaling.
    """
    support = weights.support
    for k in support:
        if k not in adapters:
            raise KeyError(f"missing adapter for expert {k}")
    shapes = dict(zip(lm.TARGET_NAMES, adapters[support[0]].shapes))
    deltas = {name: np.zeros(shape, dtype=np.float64) for name, shape in shapes.items()}
    for k in support:
        adapter = adapters[k]
        w = weights.entries[k]
        for (name, shape), got in zip(shapes.items(), adapter.shapes):
            if got != shape:
                raise ValueError(
                    f"shape mismatch for matrix {name!r}: expert {k} has {got}, expected {shape}"
                )
            deltas[name] += w * adapter.delta(name)
    return MergedAdapter(deltas=deltas, provenance=weights)


def apply_merged(base: lm.BaseParams, merged: MergedAdapter) -> lm.BaseParams:
    """New BaseParams with W + delta per adapted matrix, built once; base
    untouched. It shares the base's arrays of the matrices no delta touches.

    Both operands are float32, so the float32 sum has the bits of the float64
    sum rounded to float32; a sum past the float32 range is inf, which
    BaseParams rejects."""
    weights = {name: getattr(base, name) for name in lm.DENSE_NAMES}
    with np.errstate(over="ignore"):
        for name, delta in merged.deltas.items():
            current = weights[name]
            if current.shape != delta.shape:
                raise ValueError(
                    f"shape mismatch for matrix {name!r}: base {current.shape}, "
                    f"delta {delta.shape}"
                )
            weights[name] = current + delta
    return lm.BaseParams(vocab=base.vocab, **weights)

