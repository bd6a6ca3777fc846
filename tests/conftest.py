import numpy as np
import pytest

from expertmerge import model as lm


class FakeCatalog:
    """Minimal routable object: just a centroid matrix."""

    def __init__(self, centroids: np.ndarray) -> None:
        self.centroids = np.asarray(centroids, dtype=np.float32)


class CallCounter:
    """Replaces module.name with a wrapper that counts its calls."""

    def __init__(self, monkeypatch, module, name: str) -> None:
        self.calls = 0
        original = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def heaviest(weights) -> int:
    """The expert id of the largest merge weight; the lower id wins ties."""
    return min(weights.entries, key=lambda k: (-weights.entries[k], k))


def random_unit_vectors(n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


@pytest.fixture
def tiny_vocab() -> lm.Vocab:
    return lm.Vocab.from_corpus(["abc"])


@pytest.fixture
def tiny_base(tiny_vocab) -> lm.BaseParams:
    return lm.BaseParams.init_random(tiny_vocab, hidden=4, seed=1)


@pytest.fixture
def small_base() -> lm.BaseParams:
    vocab = lm.Vocab.from_corpus(["abcdefgh"])
    return lm.BaseParams.init_random(vocab, hidden=8, seed=3)
