"""Synthetic multi-domain character corpus generator.

Each domain owns a disjoint slice of the alphabet and contains several
modes, each a distinct first-order Markov source (a preferred-successor
permutation followed with high probability). The result is genuinely
multi-modal: clustering recovers the modes and per-mode experts have
something real to specialize on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789+-*/()[]{}<>=.,;:!?"


@dataclass(frozen=True)
class CorpusConfig:
    n_domains: int = 8
    modes_per_domain: int = 4
    docs_per_domain: int = 400
    min_doc_len: int = 90
    max_doc_len: int = 150
    chars_per_domain: int = 6
    follow_prob: float = 0.85  # chance of taking the mode's preferred successor
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_domains * self.chars_per_domain > len(ALPHABET):
            raise ValueError("not enough alphabet for the requested domains")
        if self.min_doc_len < 2 or self.max_doc_len < self.min_doc_len:
            raise ValueError("invalid document length range")


def generate_corpus(cfg: CorpusConfig) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Returns (documents, domain labels, mode labels).

    Mode labels are global: domain * modes_per_domain + mode index.
    """
    rng = np.random.default_rng(cfg.seed)
    docs: list[str] = []
    domains: list[int] = []
    modes: list[int] = []
    for d in range(cfg.n_domains):
        chars = ALPHABET[d * cfg.chars_per_domain : (d + 1) * cfg.chars_per_domain]
        successors = [rng.permutation(len(chars)) for _ in range(cfg.modes_per_domain)]
        for i in range(cfg.docs_per_domain):
            mode = i % cfg.modes_per_domain
            succ = successors[mode]
            length = int(rng.integers(cfg.min_doc_len, cfg.max_doc_len + 1))
            idx = int(rng.integers(len(chars)))
            out = [chars[idx]]
            for _ in range(length - 1):
                if rng.random() < cfg.follow_prob:
                    idx = int(succ[idx])
                else:
                    idx = int(rng.integers(len(chars)))
                out.append(chars[idx])
            docs.append("".join(out))
            domains.append(d)
            modes.append(d * cfg.modes_per_domain + mode)
    return docs, np.array(domains), np.array(modes)


def read_utf8(path: Path) -> str:
    """The text of a file; an unreadable or non-UTF-8 one raises ValueError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path} ({exc})") from exc


def read_corpus(path: str | Path) -> list[str]:
    """One document per line, or one per file under a directory."""
    path = Path(path)
    if path.is_dir():
        docs = [read_utf8(p).rstrip("\n") for p in sorted(path.iterdir()) if p.is_file()]
    else:
        docs = read_utf8(path).splitlines()
    docs = [d for d in docs if d]
    if not docs:
        raise ValueError(f"no documents found at {path}")
    return docs


def write_corpus(docs: list[str], path: str | Path) -> None:
    Path(path).write_text("\n".join(docs) + "\n", encoding="utf-8")
