"""Small autoregressive character-level language model with low-rank adapters.

The base network is a per-position MLP: token embedding, two tanh dense
blocks, and an output projection to next-token logits. Adapters add a
rank-r update (alpha/r) * B @ A to any of the dense matrices while the
base weights stay frozen. Parameters are stored in float32; all forward,
gradient, and reduction arithmetic runs in float64 so that results are
reproducible and finite-difference checks are tight.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

BOS = "\x02"
EOS = "\x03"

# the matrices every adapter targets, in storage order
TARGET_NAMES = ("block0", "block1", "out_proj")
# the dense weights of one model, in the order BaseParams stores them
DENSE_NAMES = ("embed_table",) + TARGET_NAMES


def _code_points(text: str) -> np.ndarray:
    """One uint32 per character of text (lone surrogates included)."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def _ravel(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """One float64 vector of the arrays' entries, array after array."""
    return np.concatenate([np.zeros(0)] + [np.ravel(x) for x in arrays])


def _unravel(theta: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Views of theta shaped like the arrays of `like`, in the _ravel layout."""
    ends = np.cumsum([x.size for x in like])
    return [part.reshape(x.shape) for part, x in zip(np.split(theta, ends[:-1]), like)]


@dataclass(frozen=True)
class Vocab:
    symbols: str  # ordered characters, BOS first, EOS second

    def __post_init__(self) -> None:
        if len(self.symbols) < 3:
            raise ValueError("vocab needs BOS, EOS and at least one character")
        if self.symbols[0] != BOS or self.symbols[1] != EOS:
            raise ValueError("symbols must start with BOS, EOS markers")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols in vocab")
        # code point -> id, -1 outside the vocab; the last entry is -1 and
        # stands for every code point past the largest symbol
        points = _code_points(self.symbols)
        ids = np.full(int(points.max()) + 2, -1, dtype=np.int64)
        ids[points] = np.arange(len(points))
        object.__setattr__(self, "_ids", ids)

    @property
    def size(self) -> int:
        return len(self.symbols)

    @staticmethod
    def from_corpus(docs: list[str]) -> "Vocab":
        chars = sorted(set("".join(docs)) - {BOS, EOS})
        return Vocab(symbols=BOS + EOS + "".join(chars))

    def encode(self, text: str) -> np.ndarray:
        ids = self._ids[np.minimum(_code_points(text), len(self._ids) - 1)]
        if len(ids) and ids.min() < 0:
            raise ValueError(f"out of vocabulary: {text[int(np.argmax(ids < 0))]!r}")
        return ids


@dataclass
class BaseParams:
    vocab: Vocab
    embed_table: np.ndarray  # (V, h) float32
    block0: np.ndarray  # (h, h) float32
    block1: np.ndarray  # (h, h) float32
    out_proj: np.ndarray  # (V, h) float32

    def __post_init__(self) -> None:
        v, h = self.embed_table.shape
        if v != self.vocab.size:
            raise ValueError("embed_table rows must match vocab size")
        for name in ("block0", "block1"):
            if getattr(self, name).shape != (h, h):
                raise ValueError(f"{name} must be ({h}, {h})")
        if self.out_proj.shape != (v, h):
            raise ValueError(f"out_proj must be ({v}, {h})")
        for name in DENSE_NAMES:
            arr = getattr(self, name)
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite entries in {name}")
            setattr(self, name, np.ascontiguousarray(arr, dtype=np.float32))

    def fingerprint(self) -> bytes:
        """32-byte digest of architecture and weights."""
        digest = hashlib.sha256()
        digest.update(self.vocab.symbols.encode("utf-8"))
        for name in DENSE_NAMES:
            arr = getattr(self, name)
            digest.update(name.encode())
            digest.update(np.array(arr.shape, dtype=np.int64).tobytes())
            digest.update(arr.tobytes())
        return digest.digest()

    @staticmethod
    def init_random(vocab: Vocab, hidden: int, seed: int, scale: float = 0.2) -> "BaseParams":
        rng = np.random.default_rng(seed)
        v = vocab.size
        return BaseParams(
            vocab=vocab,
            embed_table=(rng.standard_normal((v, hidden)) * scale).astype(np.float32),
            block0=(rng.standard_normal((hidden, hidden)) * scale).astype(np.float32),
            block1=(rng.standard_normal((hidden, hidden)) * scale).astype(np.float32),
            out_proj=(rng.standard_normal((v, hidden)) * scale).astype(np.float32),
        )


@dataclass(frozen=True)
class LoraAdapter:
    """Low-rank factors of every target in one float32 vector theta, the
    theta layout: A (r, d_in) then B (d_out, r) of each TARGET_NAMES entry,
    row-major. A target matrix W has shape (d_out, d_in) and applies as
    y = W @ x; its delta is (alpha/r) * B @ A. theta is stored read-only and
    factors (name -> (A, B)) are views of it."""

    theta: np.ndarray
    shapes: tuple[tuple[int, int], ...]  # (d_out, d_in) per target
    rank: int
    alpha: float
    factors: Mapping[str, tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        r = self.rank
        if r < 1:
            raise ValueError(f"rank must be >= 1, got {r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        shapes = tuple(map(tuple, self.shapes))
        if len(shapes) != len(TARGET_NAMES) or min(map(min, shapes)) < 1:
            raise ValueError(f"shapes {shapes} are not one positive (d_out, d_in) per target")
        theta = np.array(self.theta, dtype=np.float32)  # a copy no caller can write
        size = r * sum(d_out + d_in for d_out, d_in in shapes)
        if theta.shape != (size,):
            raise ValueError(f"theta must have shape ({size},), got {theta.shape}")
        if not np.isfinite(theta).all():
            raise ValueError("non-finite entries in adapter factors")
        theta.flags.writeable = False
        factors, end = {}, 0
        for name, (d_out, d_in) in zip(TARGET_NAMES, shapes):
            start, mid, end = end, end + r * d_in, end + r * (d_in + d_out)
            factors[name] = (theta[start:mid].reshape(r, d_in), theta[mid:end].reshape(d_out, r))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "factors", MappingProxyType(factors))

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    def delta(self, name: str) -> np.ndarray:
        """Materialized (d_out, d_in) update for one target, in float64."""
        a, b = self.factors[name]
        return self.scale * (b.astype(np.float64) @ a.astype(np.float64))

    @staticmethod
    def init(base: BaseParams, rank: int = 8, alpha: float = 16.0, seed: int = 0) -> "LoraAdapter":
        # A seeded Gaussian (std 0.02), B zero: the delta starts at zero
        rng = np.random.default_rng(seed)
        shapes = [getattr(base, name).shape for name in TARGET_NAMES]
        theta = []
        for d_out, d_in in shapes:
            theta += [rng.standard_normal(rank * d_in) * 0.02, np.zeros(d_out * rank)]
        return LoraAdapter(np.concatenate(theta), shapes, rank, alpha)


@dataclass(frozen=True)
class TrainConfig:
    # published reference hyperparameters: lr 2e-4, batch 4, betas
    # (0.9, 0.999), eps 1e-8, weight decay 0.01, one epoch; the desk
    # pipeline overrides lr/epochs for the tiny model (see config.py)
    learning_rate: float = 2e-4
    batch_size: int = 4
    epochs: int = 1
    max_seq_len: int = 256
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be >= 0 and finite, got {self.learning_rate}")
        for name in ("epochs", "batch_size", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be > 0, got {self.adam_eps}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


def check_fits(base: BaseParams, adapter: LoraAdapter, label: str = "adapter") -> None:
    """ValueError naming label unless each target of adapter has the shape
    of the base's matrix."""
    for name, shape in zip(TARGET_NAMES, adapter.shapes):
        want = getattr(base, name).shape
        if shape != want:
            raise ValueError(f"{label}: {name} is {shape}, the base's {name} is {want}")


def _effective_weights(
    base: BaseParams, adapter: LoraAdapter | None
) -> dict[str, np.ndarray]:
    weights = {name: getattr(base, name).astype(np.float64) for name in DENSE_NAMES}
    if adapter is not None:
        check_fits(base, adapter)
        for name in TARGET_NAMES:
            weights[name] = weights[name] + adapter.delta(name)
    return weights


def _position_logits(
    weights: dict[str, np.ndarray], tokens: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Next-token logits for each input token plus cached activations.

    Each row depends on its own input token only, so the model is a
    bigram model: the V rows of all tokens describe it completely.
    """
    x = weights["embed_table"][tokens]  # (n, h)
    h1 = np.tanh(x @ weights["block0"].T)
    h2 = np.tanh(h1 @ weights["block1"].T)
    logits = h2 @ weights["out_proj"].T  # (n, V)
    return logits, {"x": x, "h1": h1, "h2": h2}


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _prob_table(base: BaseParams, adapter: LoraAdapter | None) -> np.ndarray:
    """(V, V) next-token distribution: row i follows input token i."""
    weights = _effective_weights(base, adapter)
    logits, _ = _position_logits(weights, np.arange(base.vocab.size))
    return _softmax(logits)


def forward(
    base: BaseParams, adapter: LoraAdapter | None, prefix: str
) -> np.ndarray:
    """Next-token distribution after `prefix` (document start if empty)."""
    token = int(np.append(0, base.vocab.encode(prefix))[-1])  # BOS if empty
    logits, _ = _position_logits(_effective_weights(base, adapter), np.array([token]))
    return _softmax(logits)[0]


def _pair_keys(vocab: Vocab, doc: str, max_seq_len: int | None = None) -> np.ndarray:
    """Key input * V + target of each (input, target) pair of doc, cut to
    max_seq_len characters (None: whole); BOS is the first input and EOS
    the last target."""
    ids = vocab.encode(doc[:max_seq_len])
    return np.concatenate(([0], ids)) * vocab.size + np.concatenate((ids, [1]))


def _pair_counts(v: int, keys: list[np.ndarray]) -> np.ndarray:
    """(v, v) count of each (input, target) pair over the keys' arrays."""
    return np.bincount(np.concatenate(keys), minlength=v * v).reshape(v, v).astype(np.float64)


def _scored_counts(vocab: Vocab, docs: list[str], eval_prefix_len: int) -> np.ndarray:
    """_pair_counts of whole docs, for scoring: every doc must extend past the prefix."""
    if not docs:
        raise ValueError("docs must be non-empty")
    for doc in docs:
        if len(doc) <= eval_prefix_len:
            raise ValueError(
                f"document shorter than eval prefix ({len(doc)} <= {eval_prefix_len}): {doc[:32]!r}"
            )
    return _pair_counts(vocab.size, [_pair_keys(vocab, doc)[eval_prefix_len:] for doc in docs])


def _nll(table: np.ndarray, counts: np.ndarray) -> float:
    """Mean NLL of the counted (input, target) pairs; row i of table is the
    next-token distribution of counts' row i."""
    seen = counts > 0
    return float(-(counts[seen] * np.log(table[seen])).sum() / counts.sum())


def _backward(
    weights: dict[str, np.ndarray], counts: np.ndarray, embed: bool = False
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean NLL of the counted pairs and its gradient w.r.t. each target
    weight, and w.r.t. the embedding table if embed (only train_base trains it).

    Runs on the distinct input tokens only: a token seen c times with
    target counts c_j contributes c * p - c_j to its logit gradient.
    """
    rows = np.flatnonzero(counts.any(axis=1))
    c = counts[rows]
    n = c.sum()
    logits, cache = _position_logits(weights, rows)
    probs = _softmax(logits)
    nll = _nll(probs, c)

    dlogits = (c.sum(axis=1, keepdims=True) * probs - c) / n
    grads = {"out_proj": dlogits.T @ cache["h2"]}
    da2 = (dlogits @ weights["out_proj"]) * (1.0 - cache["h2"] ** 2)
    grads["block1"] = da2.T @ cache["h1"]
    da1 = (da2 @ weights["block1"]) * (1.0 - cache["h1"] ** 2)
    grads["block0"] = da1.T @ cache["x"]
    if embed:
        grads["embed_table"] = np.zeros_like(weights["embed_table"])
        grads["embed_table"][rows] = da1 @ weights["block0"]
    return nll, grads


def nll_and_grad(
    dense: dict[str, np.ndarray], factors: list[np.ndarray], scale: float, keys: list[np.ndarray]
) -> tuple[float, np.ndarray]:
    """Mean next-token NLL over a batch of documents' _pair_keys and its
    gradient w.r.t. the factors, as one vector in the theta layout. dense is
    _effective_weights(base, None), factors the adapter's factors in float64 in
    the theta layout, scale its alpha/r."""
    if not keys:
        raise ValueError("empty batch")
    targets = list(zip(TARGET_NAMES, factors[0::2], factors[1::2]))
    weights = {**dense, **{name: dense[name] + scale * (b @ a) for name, a, b in targets}}
    nll, d_w = _backward(weights, _pair_counts(len(dense["embed_table"]), keys))
    grads = []
    for name, a, b in targets:
        grads += [scale * (b.T @ d_w[name]), scale * (d_w[name] @ a.T)]
    return nll, _ravel(grads)


class _AdamW:
    """AdamW over one float64 vector; t counts the steps taken."""

    def __init__(self, theta: np.ndarray, cfg: TrainConfig) -> None:
        self.cfg = cfg
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        cfg = self.cfg
        self.t += 1
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        self.m = b1 * self.m + (1 - b1) * grad
        self.v = b2 * self.v + (1 - b2) * grad * grad
        m_hat = self.m / (1 - b1**self.t)
        v_hat = self.v / (1 - b2**self.t)
        theta -= cfg.learning_rate * (
            m_hat / (np.sqrt(v_hat) + cfg.adam_eps) + cfg.weight_decay * theta
        )


def _minibatches(keys: list[np.ndarray], cfg: TrainConfig) -> Iterator[list[np.ndarray]]:
    """cfg.epochs passes over keys in seeded shuffled batches of cfg.batch_size."""
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(keys))
        for start in range(0, len(keys), cfg.batch_size):
            yield [keys[i] for i in order[start : start + cfg.batch_size]]


def _fit(
    theta: np.ndarray,
    batches: Iterable[list[np.ndarray]],
    loss_and_grad: Callable[[list[np.ndarray]], tuple[float, np.ndarray]],
    cfg: TrainConfig,
) -> None:
    """One AdamW step per batch on theta, in place; stops on a non-finite loss."""
    opt = _AdamW(theta, cfg)
    for batch in batches:
        loss, grad = loss_and_grad(batch)
        if not np.isfinite(loss):
            raise ArithmeticError(f"diverged at step {opt.t}")
        opt.step(theta, grad)


def fit_adapter(
    base: BaseParams, init: LoraAdapter, batches: Iterable[list[np.ndarray]], cfg: TrainConfig
) -> LoraAdapter:
    """Train init's factors with one AdamW step per batch of _pair_keys. Each
    gradient is taken at the float32-rounded factors that the result stores."""
    check_fits(base, init)
    dense = _effective_weights(base, None)
    theta = init.theta.astype(np.float64)
    rounded = np.empty_like(theta)  # theta rounded to float32, refilled each step
    factors = _unravel(rounded, [x for pair in init.factors.values() for x in pair])

    def loss_and_grad(batch: list[np.ndarray]) -> tuple[float, np.ndarray]:
        rounded[:] = theta.astype(np.float32)
        return nll_and_grad(dense, factors, init.scale, batch)

    _fit(theta, batches, loss_and_grad, cfg)
    return LoraAdapter(theta, init.shapes, init.rank, init.alpha)


def train_adapter(
    base: BaseParams,
    docs: list[str],
    cfg: TrainConfig,
    rank: int = 8,
    alpha: float = 16.0,
) -> LoraAdapter:
    """Train a fresh adapter with AdamW over shuffled seeded minibatches."""
    if not docs:
        raise ValueError("docs must be non-empty")
    init = LoraAdapter.init(base, rank=rank, alpha=alpha, seed=cfg.seed)
    keys = [_pair_keys(base.vocab, doc, cfg.max_seq_len) for doc in docs]
    return fit_adapter(base, init, _minibatches(keys, cfg), cfg)


def train_base(
    vocab: Vocab, docs: list[str], cfg: TrainConfig, hidden: int = 64
) -> BaseParams:
    """Full-parameter pre-training of a base model with AdamW."""
    if not docs:
        raise ValueError("docs must be non-empty")
    init = [getattr(BaseParams.init_random(vocab, hidden, cfg.seed), n) for n in DENSE_NAMES]
    theta = _ravel(init)
    weights = dict(zip(DENSE_NAMES, _unravel(theta, init)))  # views of theta

    def loss_and_grad(batch: list[np.ndarray]) -> tuple[float, np.ndarray]:
        nll, grads = _backward(weights, _pair_counts(vocab.size, batch), embed=True)
        return nll, _ravel(grads[n] for n in DENSE_NAMES)

    keys = [_pair_keys(vocab, doc, cfg.max_seq_len) for doc in docs]
    _fit(theta, _minibatches(keys, cfg), loss_and_grad, cfg)
    return BaseParams(vocab=vocab, **{n: w.astype(np.float32) for n, w in weights.items()})


def perplexity(
    base: BaseParams,
    adapter: LoraAdapter | None,
    docs: list[str],
    eval_prefix_len: int = 0,
) -> float:
    """exp(mean NLL) over all positions of whole docs after the first eval_prefix_len."""
    counts = _scored_counts(base.vocab, docs, eval_prefix_len)
    return float(np.exp(_nll(_prob_table(base, adapter), counts)))


def generate(
    base: BaseParams,
    adapter: LoraAdapter | None,
    prompt: str,
    n_tokens: int,
    seed: int,
) -> str:
    """Ancestral sampling continuation; stops early at EOS."""
    if n_tokens < 0:
        raise ValueError("n_tokens must be >= 0")
    rng = np.random.default_rng(seed)
    table = _prob_table(base, adapter)
    # rng.choice(V, p=row / row.sum())'s own draw, from CDFs built once per call
    cdf = np.cumsum(table / table.sum(axis=1, keepdims=True), axis=1)
    cdf /= cdf[:, -1:]
    token = int(np.append(0, base.vocab.encode(prompt))[-1])  # BOS if empty
    out = prompt
    for _ in range(n_tokens):
        token = int(cdf[token].searchsorted(rng.random(), side="right"))
        if token == 1:  # EOS
            break
        out += base.vocab.symbols[token]
    return out
