"""Run-wide configuration: one document covering every stage.

Loads from YAML with command-line overrides. Desk defaults are tuned for
the tiny character model; the published reference values (lr 2e-4, rank
64, alpha 16, batch 4, tau 0.01, 1024-token sequences) remain reachable
through the same fields.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .corpus import CorpusConfig
from .embedding import EmbedderConfig
from .model import TrainConfig
from .routing import RoutingConfig


class _Loader(yaml.SafeLoader):
    """The safe loader, reading a float written without a dot (1e-3, -3e2)
    as a float, as YAML 1.2 does, not as a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?[0-9]+[eE][-+]?[0-9]+$"), list("-+0123456789")
)


def parse_yaml(text: str, source: str) -> Any:
    """text as YAML; text that does not parse raises one-line ValueError naming source."""
    try:
        return yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        # one line: the problem and where, without the echoed source text
        mark = getattr(exc, "problem_mark", None)
        detail = (
            f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"
            if mark
            else " ".join(str(exc).split())
        )
        raise ValueError(f"bad config: {source} is not valid YAML ({detail})") from exc


@dataclass(frozen=True)
class EvalProtocol:
    query_prefix_len: int = 30  # characters used as the routing query
    eval_prefix_len: int = 30  # characters excluded from scoring
    holdout_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.query_prefix_len < 0 or self.eval_prefix_len < 0:
            raise ValueError("prefix lengths must be >= 0")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in [0, 1)")


def _check_numbers(defaults: Any, values: dict[str, Any], prefix: str) -> None:
    """Reject a bool or a non-number for each key whose default value is a
    number: an int field takes an int, a float field an int or a float."""
    for key, value in values.items():
        kind = type(getattr(defaults, key, None))
        if kind in (int, float) and (
            isinstance(value, bool) or not isinstance(value, (int, kind))
        ):
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"bad config: {prefix}{key} must be {what}, got {value!r}")


@dataclass
class RunConfig:
    seed: int = 0
    n_clusters: int = 32
    hidden: int = 64
    lora_rank: int = 8  # reference value 64; desk model is far smaller
    lora_alpha: float = 16.0
    base_pretrain_fraction: float = 0.35  # share of train docs used to pre-train the base
    ttt_neighbors: int = 100
    ttt_learning_rate: float = 2e-3
    embedder: EmbedderConfig = field(default_factory=EmbedderConfig)
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    base_train: TrainConfig = field(default_factory=lambda: TrainConfig(learning_rate=5e-3))
    expert_train: TrainConfig = field(
        default_factory=lambda: TrainConfig(learning_rate=1e-2, epochs=2)
    )
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    protocol: EvalProtocol = field(default_factory=EvalProtocol)

    _NESTED = {
        "embedder": EmbedderConfig,
        "corpus": CorpusConfig,
        "base_train": TrainConfig,
        "expert_train": TrainConfig,
        "routing": RoutingConfig,
        "protocol": EvalProtocol,
    }

    def __post_init__(self) -> None:
        for name in ("n_clusters", "hidden", "lora_rank", "ttt_neighbors"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lora_alpha) and self.lora_alpha > 0):
            raise ValueError(f"lora_alpha must be positive and finite, got {self.lora_alpha}")
        if not (math.isfinite(self.ttt_learning_rate) and self.ttt_learning_rate >= 0):
            raise ValueError(
                f"ttt_learning_rate must be >= 0 and finite, got {self.ttt_learning_rate}"
            )
        if not 0.0 < self.base_pretrain_fraction <= 1.0:
            raise ValueError(
                f"base_pretrain_fraction must be in (0, 1], got {self.base_pretrain_fraction}"
            )
        # sparse_softmax needs tau < 1/K to keep at least one expert
        if self.routing.fixed_n is None and self.routing.tau >= 1.0 / self.n_clusters:
            raise ValueError(
                f"routing.tau={self.routing.tau} must be below 1/n_clusters "
                f"= 1/{self.n_clusters} unless routing.fixed_n is set"
            )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in self._NESTED:
                sub = dataclasses.asdict(value)
                for k, v in sub.items():
                    if isinstance(v, tuple):
                        sub[k] = list(v)
                out[f.name] = sub
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        """Build from nested dicts; an unknown or mistyped key raises ValueError."""
        defaults = cls()
        kwargs: dict[str, Any] = {}
        try:
            for key, value in data.items():
                if key in cls._NESTED:
                    if not isinstance(value, dict):
                        raise ValueError(f"bad config: {key} must be a mapping")
                    sub = dict(value)
                    _check_numbers(getattr(defaults, key), sub, f"{key}.")
                    if "ngram_orders" in sub:
                        sub["ngram_orders"] = tuple(sub["ngram_orders"])
                    kwargs[key] = cls._NESTED[key](**sub)
                else:
                    kwargs[key] = value
            _check_numbers(defaults, kwargs, "")
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"bad config: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        data = parse_yaml(Path(path).read_text(encoding="utf-8"), str(path)) or {}
        if not isinstance(data, dict):
            raise ValueError(f"bad config: {path} holds a {type(data).__name__}, not a mapping")
        return cls.from_dict(data)

    def to_yaml(self) -> str:
        """The config as the YAML text that `load` reads back."""
        return yaml.safe_dump(self.to_dict(), sort_keys=True)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_yaml(), encoding="utf-8")

    def with_overrides(self, overrides: dict[str, Any]) -> "RunConfig":
        """Apply dotted-key overrides, e.g. {"routing.tau": 0.02}."""
        data = self.to_dict()
        for dotted, value in overrides.items():
            *parents, leaf = dotted.split(".")
            node = data
            for part in parents:
                node = node.get(part) if isinstance(node, dict) else None
            if not isinstance(node, dict) or leaf not in node:
                raise ValueError(f"unknown config key: {dotted}")
            node[leaf] = value
        return RunConfig.from_dict(data)
