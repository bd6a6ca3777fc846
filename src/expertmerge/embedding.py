"""Deterministic hashed character n-gram embedder.

Maps a text to a mean-pooled, L2-normalized dense vector using signed
feature hashing of character n-grams. Fully deterministic for a fixed
seed, which makes clustering and routing exactly reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EmbedderConfig:
    dim: int = 256
    ngram_orders: tuple[int, ...] = (2, 3, 4)
    hash_seed: int = 0x5EED_1E55_C0FF_EE00

    def __post_init__(self) -> None:
        if self.dim < 8:
            raise ValueError(f"dim must be >= 8, got {self.dim}")
        if not self.ngram_orders:
            raise ValueError("ngram_orders must be non-empty")
        if any(n < 1 for n in self.ngram_orders):
            raise ValueError(f"ngram orders must be >= 1, got {self.ngram_orders}")

    def fingerprint(self) -> str:
        """Hex digest identifying this embedder configuration."""
        payload = f"{self.dim}|{','.join(map(str, self.ngram_orders))}|{self.hash_seed}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _hash_ngram(seed: int, gram: str) -> int:
    """Stable 64-bit hash of an n-gram under a fixed seed."""
    key = seed.to_bytes(8, "little", signed=False)
    digest = hashlib.blake2b(gram.encode("utf-8"), key=key, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def ngrams(text: str, orders: tuple[int, ...]) -> list[str]:
    grams: list[str] = []
    for n in orders:
        if n <= len(text):
            grams.extend(text[i : i + n] for i in range(len(text) - n + 1))
        else:
            # shorter texts still contribute the whole string once per order
            grams.append(text)
    return grams


def bucket_sign(config: EmbedderConfig, gram: str) -> tuple[int, int]:
    """(bucket index, ±1 sign) for one n-gram. Exposed for test oracles."""
    h = _hash_ngram(config.hash_seed, gram)
    bucket = (h >> 1) % config.dim
    sign = 1 if (h & 1) else -1
    return bucket, sign


def _embed_texts(config: EmbedderConfig, texts: list[str]) -> np.ndarray:
    """Embed each text into one row of an (n, dim) float32 matrix.

    Each character n-gram of each configured order is hashed into one of
    dim buckets with a ±1 sign; bucket sums are averaged over the n-gram
    count and L2-normalized. Each distinct gram of the call is hashed once,
    into the code 2*bucket + (sign > 0) by a copy of one keyed hasher made
    per call (the digest of bucket_sign), and a text's bucket sums are the
    exact integer differences of its code counts.
    """
    keyed = hashlib.blake2b(key=config.hash_seed.to_bytes(8, "little"), digest_size=8)
    codes_of: dict[str, int] = {}
    out = np.empty((len(texts), config.dim), dtype=np.float32)
    for row, text in enumerate(texts):
        if not text:
            raise ValueError("empty sequence")
        grams = ngrams(text, config.ngram_orders)
        for gram in set(grams).difference(codes_of):
            hasher = keyed.copy()
            hasher.update(gram.encode("utf-8"))
            h = int.from_bytes(hasher.digest(), "little")
            codes_of[gram] = 2 * ((h >> 1) % config.dim) + (h & 1)
        codes = np.fromiter(map(codes_of.__getitem__, grams), dtype=np.intp, count=len(grams))
        counts = np.bincount(codes, minlength=2 * config.dim)
        acc = (counts[1::2] - counts[0::2]).astype(np.float64)
        acc /= len(grams)
        norm = float(np.linalg.norm(acc))
        if norm == 0.0:
            raise ValueError("degenerate embedding")
        out[row] = acc / norm
    return out


def embed(config: EmbedderConfig, text: str) -> np.ndarray:
    """Embed text into a unit-norm float32 vector of length config.dim."""
    return _embed_texts(config, [text])[0]


def embed_corpus(config: EmbedderConfig, docs: list[str]) -> np.ndarray:
    """Stack embeddings of all documents into an (n, dim) float32 matrix."""
    return _embed_texts(config, docs)
