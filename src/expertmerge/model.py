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
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

BOS = "\x02"
EOS = "\x03"

# names of the matrices an adapter may target, in storage order
TARGET_NAMES = ("block0", "block1", "out_proj")

# global counter of single-model distribution evaluations; tests use it
# to verify that ensembling costs one evaluation per active expert while
# merged inference costs exactly one
FORWARD_EVALS = 0


def reset_forward_evals() -> None:
    global FORWARD_EVALS
    FORWARD_EVALS = 0


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
        for name in ("embed_table", "block0", "block1", "out_proj"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite entries in {name}")
            setattr(self, name, np.ascontiguousarray(arr, dtype=np.float32))

    @property
    def hidden(self) -> int:
        return self.embed_table.shape[1]

    def target_shape(self, name: str) -> tuple[int, int]:
        # convention: every target matrix W has shape (d_out, d_in) and
        # applies as y = W @ x
        return getattr(self, name).shape

    def fingerprint(self) -> bytes:
        """32-byte digest of architecture and weights."""
        digest = hashlib.sha256()
        digest.update(self.vocab.symbols.encode("utf-8"))
        for name in ("embed_table", "block0", "block1", "out_proj"):
            arr = getattr(self, name)
            digest.update(name.encode())
            digest.update(np.array(arr.shape, dtype=np.int64).tobytes())
            digest.update(arr.tobytes())
        return digest.digest()

    def copy(self) -> "BaseParams":
        return BaseParams(
            vocab=self.vocab,
            embed_table=self.embed_table.copy(),
            block0=self.block0.copy(),
            block1=self.block1.copy(),
            out_proj=self.out_proj.copy(),
        )

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


@dataclass
class LoraAdapter:
    """Per-target low-rank factor pair; effective delta is (alpha/r) * B @ A."""

    factors: dict[str, tuple[np.ndarray, np.ndarray]]  # name -> (A (r, d_in), B (d_out, r))
    rank: int
    alpha: float

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        fixed = {}
        for name, (a, b) in self.factors.items():
            if a.shape[0] != self.rank or b.shape[1] != self.rank:
                raise ValueError(f"{name}: factor shapes inconsistent with rank {self.rank}")
            fixed[name] = (
                np.ascontiguousarray(a, dtype=np.float32),
                np.ascontiguousarray(b, dtype=np.float32),
            )
        # one check over all factors: loading runs it for every active expert
        flat = [x.ravel() for pair in fixed.values() for x in pair]
        if flat and not np.isfinite(np.concatenate(flat)).all():
            raise ValueError("non-finite entries in adapter factors")
        self.factors = fixed

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    def delta(self, name: str) -> np.ndarray:
        """Materialized (d_out, d_in) update for one target, in float64."""
        a, b = self.factors[name]
        return self.scale * (b.astype(np.float64) @ a.astype(np.float64))

    def copy(self) -> "LoraAdapter":
        return LoraAdapter(
            factors={n: (a.copy(), b.copy()) for n, (a, b) in self.factors.items()},
            rank=self.rank,
            alpha=self.alpha,
        )

    def flat(self) -> np.ndarray:
        """Float64 vector of the factors: A then B of each target, in factors order."""
        return _ravel(x for pair in self.factors.values() for x in pair)

    def with_flat(self, theta: np.ndarray) -> "LoraAdapter":
        """Float32 adapter with these targets, rank and alpha, and the factors
        read from theta in the flat() layout."""
        like = [x for pair in self.factors.values() for x in pair]
        theta = np.asarray(theta)
        size = sum(x.size for x in like)
        if theta.shape != (size,):
            raise ValueError(f"theta must have shape ({size},), got {theta.shape}")
        parts = _unravel(theta.astype(np.float32), like)
        return LoraAdapter(
            factors=dict(zip(self.factors, zip(parts[0::2], parts[1::2]))),
            rank=self.rank,
            alpha=self.alpha,
        )

    @staticmethod
    def init(
        base: BaseParams,
        rank: int = 8,
        alpha: float = 16.0,
        seed: int = 0,
        targets: tuple[str, ...] = TARGET_NAMES,
    ) -> "LoraAdapter":
        # A seeded Gaussian (std 0.02), B zero: the delta starts at zero
        rng = np.random.default_rng(seed)
        factors = {}
        for name in targets:
            d_out, d_in = base.target_shape(name)
            a = (rng.standard_normal((rank, d_in)) * 0.02).astype(np.float32)
            b = np.zeros((d_out, rank), dtype=np.float32)
            factors[name] = (a, b)
        return LoraAdapter(factors=factors, rank=rank, alpha=alpha)


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
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


# the dense weights of one model, in the order BaseParams stores them
DENSE_NAMES = ("embed_table",) + TARGET_NAMES


def _effective_weights(
    base: BaseParams, adapter: LoraAdapter | None
) -> dict[str, np.ndarray]:
    weights = {name: getattr(base, name).astype(np.float64) for name in DENSE_NAMES}
    if adapter is not None:
        for name in adapter.factors:
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
    global FORWARD_EVALS
    token = int(np.append(0, base.vocab.encode(prefix))[-1])  # BOS if empty
    logits, _ = _position_logits(_effective_weights(base, adapter), np.array([token]))
    FORWARD_EVALS += 1
    return _softmax(logits)[0]


def _pair_counts(
    vocab: Vocab, docs: list[str], max_seq_len: int, eval_prefix_len: int = 0
) -> np.ndarray:
    """(V, V) count of each (input, target) pair over the docs, skipping the
    first eval_prefix_len predictions of each; BOS is the first input and EOS
    the last target."""
    v = vocab.size
    keys = []
    for doc in docs:
        ids = vocab.encode(doc[:max_seq_len])
        pairs = np.concatenate(([0], ids)) * v + np.concatenate((ids, [1]))
        keys.append(pairs[eval_prefix_len:])
    return np.bincount(np.concatenate(keys), minlength=v * v).reshape(v, v).astype(np.float64)


def _scored_counts(
    vocab: Vocab, docs: list[str], eval_prefix_len: int, max_seq_len: int
) -> np.ndarray:
    """_pair_counts for scoring: every doc must extend past the prefix."""
    if not docs:
        raise ValueError("docs must be non-empty")
    for doc in docs:
        if len(doc) <= eval_prefix_len:
            raise ValueError(
                f"document shorter than eval prefix ({len(doc)} <= {eval_prefix_len}): {doc[:32]!r}"
            )
    return _pair_counts(vocab, docs, max_seq_len, eval_prefix_len)


def _nll(table: np.ndarray, counts: np.ndarray) -> float:
    """Mean NLL of the counted (input, target) pairs; row i of table is the
    next-token distribution of counts' row i."""
    seen = counts > 0
    return float(-(counts[seen] * np.log(table[seen])).sum() / counts.sum())


def _backward(
    weights: dict[str, np.ndarray], counts: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean NLL of the counted pairs and its gradient w.r.t. every dense weight.

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
    grads["embed_table"] = np.zeros_like(weights["embed_table"])
    grads["embed_table"][rows] = da1 @ weights["block0"]
    return nll, grads


def nll_and_grad(
    base: BaseParams,
    adapter: LoraAdapter,
    docs: list[str],
    max_seq_len: int = 256,
) -> tuple[float, np.ndarray]:
    """Mean next-token NLL over the batch and its gradient w.r.t. the
    factors, as one vector in the adapter.flat() layout."""
    if not docs:
        raise ValueError("empty batch")
    weights = _effective_weights(base, adapter)
    nll, d_w = _backward(weights, _pair_counts(base.vocab, docs, max_seq_len))
    grads = []
    for name, (a, b) in adapter.factors.items():
        dw = d_w[name]
        grads.append(adapter.scale * (b.astype(np.float64).T @ dw))
        grads.append(adapter.scale * (dw @ a.astype(np.float64).T))
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


def _minibatches(docs: list[str], cfg: TrainConfig) -> Iterator[list[str]]:
    """cfg.epochs passes over docs in seeded shuffled batches of cfg.batch_size."""
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(docs))
        for start in range(0, len(docs), cfg.batch_size):
            yield [docs[i] for i in order[start : start + cfg.batch_size]]


def _fit(
    theta: np.ndarray,
    batches: Iterable[list[str]],
    loss_and_grad: Callable[[list[str]], tuple[float, np.ndarray]],
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
    base: BaseParams, init: LoraAdapter, batches: Iterable[list[str]], cfg: TrainConfig
) -> LoraAdapter:
    """Train init's factors with one AdamW step per batch. Each gradient is
    taken at the float32-rounded factors that the result stores."""
    theta = init.flat()

    def loss_and_grad(batch: list[str]) -> tuple[float, np.ndarray]:
        return nll_and_grad(base, init.with_flat(theta), batch, cfg.max_seq_len)

    _fit(theta, batches, loss_and_grad, cfg)
    return init.with_flat(theta)


def train_adapter(
    base: BaseParams,
    docs: list[str],
    cfg: TrainConfig,
    rank: int = 8,
    alpha: float = 16.0,
    targets: tuple[str, ...] = TARGET_NAMES,
) -> LoraAdapter:
    """Train a fresh adapter with AdamW over shuffled seeded minibatches."""
    if not docs:
        raise ValueError("docs must be non-empty")
    init = LoraAdapter.init(base, rank=rank, alpha=alpha, seed=cfg.seed, targets=targets)
    return fit_adapter(base, init, _minibatches(docs, cfg), cfg)


def train_base(
    vocab: Vocab, docs: list[str], cfg: TrainConfig, hidden: int = 64
) -> BaseParams:
    """Full-parameter pre-training of a base model with AdamW."""
    if not docs:
        raise ValueError("docs must be non-empty")
    init = [getattr(BaseParams.init_random(vocab, hidden, cfg.seed), n) for n in DENSE_NAMES]
    theta = _ravel(init)
    weights = dict(zip(DENSE_NAMES, _unravel(theta, init)))  # views of theta

    def loss_and_grad(batch: list[str]) -> tuple[float, np.ndarray]:
        nll, grads = _backward(weights, _pair_counts(vocab, batch, cfg.max_seq_len))
        return nll, _ravel(grads[n] for n in DENSE_NAMES)

    _fit(theta, _minibatches(docs, cfg), loss_and_grad, cfg)
    return BaseParams(vocab=vocab, **{n: w.astype(np.float32) for n, w in weights.items()})


def perplexity(
    base: BaseParams,
    adapter: LoraAdapter | None,
    docs: list[str],
    eval_prefix_len: int = 0,
    max_seq_len: int = 100_000,
) -> float:
    """exp(mean NLL) over all positions after the first eval_prefix_len."""
    counts = _scored_counts(base.vocab, docs, eval_prefix_len, max_seq_len)
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
    token = int(np.append(0, base.vocab.encode(prompt))[-1])  # BOS if empty
    out = prompt
    for _ in range(n_tokens):
        row = table[token]
        token = int(rng.choice(base.vocab.size, p=row / row.sum()))
        if token == 1:  # EOS
            break
        out += base.vocab.symbols[token]
    return out
