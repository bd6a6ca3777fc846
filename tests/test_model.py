import dataclasses
import re
import string

import numpy as np
import pytest

from conftest import CallCounter
from expertmerge import model as lm


def doc_keys(vocab: lm.Vocab, docs: list[str], max_seq_len: int | None = None):
    """Each document's (input, target) pair keys, the batch nll_and_grad reads."""
    return [lm._pair_keys(vocab, doc, max_seq_len) for doc in docs]


def adapter_nll_and_grad(base: lm.BaseParams, adapter: lm.LoraAdapter, keys):
    """nll_and_grad at the adapter's factors over the base."""
    dense = lm._effective_weights(base, None)
    factors = [x.astype(np.float64) for pair in adapter.factors.values() for x in pair]
    return lm.nll_and_grad(dense, factors, adapter.scale, keys)


def zero_base(vocab: lm.Vocab, hidden: int = 4) -> lm.BaseParams:
    v = vocab.size
    return lm.BaseParams(
        vocab=vocab,
        embed_table=np.zeros((v, hidden), dtype=np.float32),
        block0=np.zeros((hidden, hidden), dtype=np.float32),
        block1=np.zeros((hidden, hidden), dtype=np.float32),
        out_proj=np.zeros((v, hidden), dtype=np.float32),
    )


def test_vocab_roundtrip(tiny_vocab):
    ids = tiny_vocab.encode("cab")
    assert "".join(tiny_vocab.symbols[i] for i in ids) == "cab"
    assert tiny_vocab.size == 5  # BOS, EOS, a, b, c


def test_vocab_oov(tiny_vocab):
    with pytest.raises(ValueError, match="out of vocabulary"):
        tiny_vocab.encode("z")


def test_vocab_encode_by_code_point(tiny_vocab):
    assert tiny_vocab.encode("").dtype == np.int64
    assert tiny_vocab.encode("").size == 0
    text = lm.BOS + "cab" + lm.EOS
    assert tiny_vocab.encode(text).tolist() == [tiny_vocab.symbols.index(ch) for ch in text]
    # the first bad character is named: past the largest symbol, astral,
    # a lone surrogate, and one below the largest symbol
    for text, bad in (
        ("ab\uffffc", "\uffff"),
        ("a\U0001F600b", "\U0001F600"),
        ("c\ud800", "\ud800"),
        ("abzy", "z"),
        ("a b", " "),
    ):
        with pytest.raises(ValueError, match=re.escape(f"out of vocabulary: {bad!r}")):
            tiny_vocab.encode(text)
    astral = lm.Vocab.from_corpus(["a\U0001F600"])
    assert astral.encode("\U0001F600a").tolist() == [3, 2]


def test_vocab_validation():
    with pytest.raises(ValueError):
        lm.Vocab(symbols="ab")
    with pytest.raises(ValueError):
        lm.Vocab(symbols="abc")  # missing markers


def test_forward_zero_delta_is_bitwise_base(tiny_base):
    adapter = lm.LoraAdapter.init(tiny_base, rank=2, seed=0)
    with_adapter = lm.forward(tiny_base, adapter, "ab")
    without = lm.forward(tiny_base, None, "ab")
    assert np.array_equal(with_adapter, without)


def test_forward_uniform_for_zero_params(tiny_vocab):
    base = zero_base(tiny_vocab)
    probs = lm.forward(base, None, "a")
    assert np.allclose(probs, 1.0 / tiny_vocab.size, atol=1e-12)


def test_forward_sums_to_one(tiny_base):
    for prefix in ("", "a", "abc"):
        probs = lm.forward(tiny_base, None, prefix)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert (probs >= 0).all()


def test_prompt_validated_whole(tiny_base):
    # a bad character anywhere in the prompt fails, not only the last one
    with pytest.raises(ValueError, match="out of vocabulary: 'é'"):
        lm.forward(tiny_base, None, "abéZc")
    with pytest.raises(ValueError, match="out of vocabulary: 'é'"):
        lm.generate(tiny_base, None, "abéZc", 5, seed=0)
    # an in-vocabulary prompt is still read through its last character
    assert np.array_equal(lm.forward(tiny_base, None, "abc"), lm.forward(tiny_base, None, "c"))
    assert lm.generate(tiny_base, None, "abc", 12, seed=3) == "ab" + lm.generate(
        tiny_base, None, "c", 12, seed=3
    )


def test_forward_max_seq(tiny_base):
    probs = lm.forward(tiny_base, None, "abcabcabc")
    assert probs.shape == (tiny_base.vocab.size,)


def finite_difference_grads(base, adapter, docs, eps=1e-5):
    """Central differences over every coordinate of the adapter's theta (oracle)."""

    def log_ppl(theta):
        return np.log(lm.perplexity(base, dataclasses.replace(adapter, theta=theta), docs))

    theta = adapter.theta.copy()
    grads = np.zeros(theta.size)
    for i, original in enumerate(adapter.theta):
        # use the actually stored float32 perturbations so the
        # difference quotient denominator is exact
        theta[i] = original + eps
        hi_val, hi = float(theta[i]), log_ppl(theta)
        theta[i] = original - eps
        lo_val, lo = float(theta[i]), log_ppl(theta)
        theta[i] = original
        grads[i] = (hi - lo) / (hi_val - lo_val)
    return grads


def max_relative_error(analytic, numeric):
    denom = np.maximum(np.abs(numeric), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_gradients_match_finite_differences():
    vocab = lm.Vocab.from_corpus(["abc"])  # V = 5
    base = lm.BaseParams.init_random(vocab, hidden=4, seed=11)
    adapter = lm.LoraAdapter.init(base, rank=2, alpha=4.0, seed=12)
    rng = np.random.default_rng(13)
    adapter = dataclasses.replace(adapter, theta=rng.standard_normal(adapter.theta.size) * 0.1)
    docs = ["abca", "cab"]
    _, analytic = adapter_nll_and_grad(base, adapter, doc_keys(vocab, docs))
    numeric = finite_difference_grads(base, adapter, docs)
    assert max_relative_error(analytic, numeric) <= 1e-4


def test_nll_uniform_model(tiny_vocab):
    base = zero_base(tiny_vocab)
    adapter = lm.LoraAdapter.init(base, rank=1, seed=0)
    nll, _ = adapter_nll_and_grad(base, adapter, doc_keys(tiny_vocab, ["a"]))
    assert nll == pytest.approx(np.log(tiny_vocab.size), rel=1e-12)


def test_nll_batch_doubling_invariant(tiny_base):
    adapter = lm.LoraAdapter.init(tiny_base, rank=2, seed=4)
    keys = doc_keys(tiny_base.vocab, ["ab", "cba"])
    nll_once, _ = adapter_nll_and_grad(tiny_base, adapter, keys)
    nll_twice, _ = adapter_nll_and_grad(tiny_base, adapter, keys + keys)
    assert nll_twice == pytest.approx(nll_once, rel=1e-12)


def test_nll_empty_batch(tiny_base):
    adapter = lm.LoraAdapter.init(tiny_base, rank=1, seed=0)
    with pytest.raises(ValueError, match="empty batch"):
        adapter_nll_and_grad(tiny_base, adapter, [])


def test_train_lr_zero_keeps_zero_delta(tiny_base):
    cfg = lm.TrainConfig(learning_rate=0.0, epochs=1, seed=2)
    adapter = lm.train_adapter(tiny_base, ["abc", "cab"], cfg, rank=2)
    for _, b in adapter.factors.values():
        assert not b.any()
    out = lm.forward(tiny_base, adapter, "ab")
    assert np.array_equal(out, lm.forward(tiny_base, None, "ab"))


def test_train_decreases_nll(tiny_base):
    doc = "abcabcabc"
    cfg = lm.TrainConfig(learning_rate=5e-3, epochs=5, batch_size=1, seed=3)
    before = np.log(lm.perplexity(tiny_base, None, [doc]))
    adapter = lm.train_adapter(tiny_base, [doc], cfg, rank=2)
    after = np.log(lm.perplexity(tiny_base, adapter, [doc]))
    assert after < before


def test_train_deterministic(tiny_base):
    cfg = lm.TrainConfig(learning_rate=1e-3, epochs=2, seed=9)
    a1 = lm.train_adapter(tiny_base, ["abc", "bca", "cab"], cfg, rank=2)
    a2 = lm.train_adapter(tiny_base, ["abc", "bca", "cab"], cfg, rank=2)
    assert np.array_equal(a1.theta, a2.theta)


@pytest.mark.parametrize("train", ["adapter", "base"])
def test_training_encodes_each_document_once(tiny_base, monkeypatch, train):
    docs = ["abc", "cab", "bca", "aabb", "c"]
    counter = CallCounter(monkeypatch, lm.Vocab, "encode")
    cfg = lm.TrainConfig(batch_size=2, epochs=2)
    if train == "adapter":
        lm.train_adapter(tiny_base, docs, cfg, rank=2)
    else:
        lm.train_base(tiny_base.vocab, docs, cfg, hidden=4)
    assert counter.calls == len(docs)


@pytest.mark.parametrize("n_docs", [1, 6])
def test_training_builds_no_adapter_per_step(tiny_base, monkeypatch, n_docs):
    # the factors of each step are views of the rounded theta: a fit builds
    # its initial adapter and its result, however many steps it takes
    from expertmerge.evaluation import ttt_adapt

    docs = ["abc", "cab", "bca", "aabb", "c", "ba"][:n_docs]
    counter = CallCounter(monkeypatch, lm.LoraAdapter, "__post_init__")
    lm.train_adapter(tiny_base, docs, lm.TrainConfig(batch_size=1, epochs=2), rank=2)
    assert counter.calls == 2
    counter.calls = 0
    embs = np.random.default_rng(n_docs).standard_normal((n_docs, 4)).astype(np.float32)
    ttt_adapt(tiny_base, embs[0], embs, docs, n_docs, lm.TrainConfig(batch_size=1), 2, 4.0)
    assert counter.calls == 2


def test_train_diverged_reported(tiny_base, monkeypatch):
    def exploding(*args, **kwargs):
        return float("nan"), {}

    monkeypatch.setattr(lm, "nll_and_grad", exploding)
    cfg = lm.TrainConfig(learning_rate=1e-3, epochs=1, seed=0)
    with pytest.raises(ArithmeticError, match="diverged at step 0"):
        lm.train_adapter(tiny_base, ["abc"], cfg)


def test_theta_layout():
    # theta is A then B of each target, row-major; factors are read-only views of it
    base, adapter, _ = random_model(0)
    r = adapter.rank
    assert adapter.theta.dtype == np.float32 and not adapter.theta.flags.writeable
    assert adapter.shapes == tuple(getattr(base, n).shape for n in lm.TARGET_NAMES)
    assert list(adapter.factors) == list(lm.TARGET_NAMES)
    off = 0
    for (name, (a, b)), (d_out, d_in) in zip(adapter.factors.items(), adapter.shapes):
        assert (a.shape, b.shape) == ((r, d_in), (d_out, r))
        for x in (a, b):
            assert np.shares_memory(x, adapter.theta) and not x.flags.writeable
            assert np.array_equal(x.ravel(), adapter.theta[off : off + x.size])
            off += x.size
    assert off == adapter.theta.size
    # a float64 theta is rounded to float32, and the caller's array is copied
    theta = adapter.theta.astype(np.float64) + 1e-9
    again = dataclasses.replace(adapter, theta=theta)
    assert np.array_equal(again.theta, theta.astype(np.float32))
    assert not np.shares_memory(again.theta, theta) and theta.flags.writeable
    with pytest.raises(TypeError):
        again.factors["block0"] = again.factors["block1"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        again.theta = theta


# The per-array dict AdamW that the one-vector optimiser replaced, kept as
# the oracle: every training loop must reproduce it bit for bit.


def reference_fit(params, batches, loss_and_grad, cfg):
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(x) for k, x in params.items()}
    for t, batch in enumerate(batches, start=1):
        _, grads = loss_and_grad(batch)
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            m_hat = m[k] / (1 - b1**t)
            v_hat = v[k] / (1 - b2**t)
            params[k] -= cfg.learning_rate * (
                m_hat / (np.sqrt(v_hat) + cfg.adam_eps) + cfg.weight_decay * params[k]
            )
    return m, v


def test_adamw_one_vector_matches_dict():
    # the float64 state is compared directly: a reordered rounding in the
    # moments is mostly absorbed by the time it reaches theta
    rng = np.random.default_rng(0)
    shapes = {"a": (3, 4), "b": (5,), "c": (2, 2)}
    params = {k: rng.standard_normal(s) for k, s in shapes.items()}
    theta = np.concatenate([x.ravel() for x in params.values()])
    grads = [{k: rng.standard_normal(s) for k, s in shapes.items()} for _ in range(50)]
    cfg = lm.TrainConfig(learning_rate=1e-2, weight_decay=0.1)
    m, v = reference_fit(params, grads, lambda g: (0.0, g), cfg)
    opt = lm._AdamW(theta, cfg)
    for g in grads:
        opt.step(theta, np.concatenate([x.ravel() for x in g.values()]))
    for got, want in ((theta, params), (opt.m, m), (opt.v, v)):
        assert np.array_equal(got, np.concatenate([x.ravel() for x in want.values()]))


def reference_fit_adapter(base, init, batches, cfg):
    params = {
        (n, s): x.astype(np.float64) for n, pair in init.factors.items() for s, x in zip("AB", pair)
    }

    def rounded():
        theta = np.concatenate([x.astype(np.float32).ravel() for x in params.values()])
        return dataclasses.replace(init, theta=theta)

    def loss_and_grad(batch):
        adapter = rounded()
        weights = lm._effective_weights(base, adapter)
        nll, dense = lm._backward(weights, lm._pair_counts(base.vocab.size, batch))
        grads = {}
        for n, (a, b) in adapter.factors.items():
            grads[n, "A"] = adapter.scale * (b.astype(np.float64).T @ dense[n])
            grads[n, "B"] = adapter.scale * (dense[n] @ a.astype(np.float64).T)
        return nll, grads

    reference_fit(params, batches, loss_and_grad, cfg)
    return rounded()


def assert_same_adapter(got, want):
    assert (got.shapes, got.rank, got.alpha) == (want.shapes, want.rank, want.alpha)
    assert np.array_equal(got.theta, want.theta)


@pytest.mark.parametrize(
    "seed, changes",
    [pytest.param(seed, {}, id=str(seed)) for seed in range(3)]
    + [
        pytest.param(3, {"weight_decay": 0.0}, id="no_decay"),
        pytest.param(4, {"epochs": 1, "batch_size": 1}, id="one_epoch_batch_1"),
    ],
)
def test_train_adapter_matches_dict_adamw(seed, changes):
    base, _, docs = random_model(seed)
    cfg = lm.TrainConfig(learning_rate=2e-2, batch_size=2, epochs=3, max_seq_len=12, seed=seed)
    cfg = dataclasses.replace(cfg, **changes)
    got = lm.train_adapter(base, docs, cfg, rank=2, alpha=3.0)
    init = lm.LoraAdapter.init(base, rank=2, alpha=3.0, seed=seed)
    batches = lm._minibatches(doc_keys(base.vocab, docs, cfg.max_seq_len), cfg)
    assert_same_adapter(got, reference_fit_adapter(base, init, batches, cfg))
    assert any(b.any() for _, b in got.factors.values())


@pytest.mark.parametrize("seed", range(3))
def test_ttt_adapt_matches_dict_adamw(seed):
    from expertmerge.evaluation import ttt_adapt

    base, _, _ = random_model(seed)
    rng = np.random.default_rng(seed)
    docs = ["".join(rng.choice(list("abcdef"), size=int(rng.integers(3, 20)))) for _ in range(9)]
    embs = rng.standard_normal((len(docs), 6)).astype(np.float32)
    query = rng.standard_normal(6).astype(np.float32)
    cfg = lm.TrainConfig(learning_rate=2e-2, batch_size=1, epochs=1, seed=seed)
    got = ttt_adapt(base, query, embs, docs, 5, cfg, rank=2, alpha=3.0)
    sims = embs.astype(np.float64) @ query.astype(np.float64)
    order = np.lexsort((np.arange(len(sims)), -sims))[:5]
    init = lm.LoraAdapter.init(base, rank=2, alpha=3.0, seed=seed)
    batches = ([lm._pair_keys(base.vocab, docs[i], cfg.max_seq_len)] for i in order)
    assert_same_adapter(got, reference_fit_adapter(base, init, batches, cfg))


@pytest.mark.parametrize("hidden", [5, 8])
def test_train_base_matches_dict_adamw(hidden):
    vocab = lm.Vocab.from_corpus(["abcdef"])
    docs = ["abcabcdef", "fedcba", "aabbcc", "defdef", "c"]
    cfg = lm.TrainConfig(learning_rate=1e-2, batch_size=2, epochs=3, max_seq_len=7, seed=hidden)
    got = lm.train_base(vocab, docs, cfg, hidden=hidden)
    init = lm.BaseParams.init_random(vocab, hidden, cfg.seed)
    params = {n: getattr(init, n).astype(np.float64) for n in lm.DENSE_NAMES}

    def loss_and_grad(batch):
        return lm._backward(params, lm._pair_counts(vocab.size, batch), embed=True)

    batches = lm._minibatches(doc_keys(vocab, docs, cfg.max_seq_len), cfg)
    reference_fit(params, batches, loss_and_grad, cfg)
    for n in lm.DENSE_NAMES:
        assert np.array_equal(getattr(got, n), params[n].astype(np.float32))
        assert not np.array_equal(getattr(got, n), getattr(init, n))


def test_perplexity_uniform_equals_vocab_size(tiny_vocab):
    base = zero_base(tiny_vocab)
    ppl = lm.perplexity(base, None, ["abc", "ba"])
    assert ppl == pytest.approx(tiny_vocab.size, rel=1e-9)


def test_perplexity_at_least_one(tiny_base):
    assert lm.perplexity(tiny_base, None, ["abc"]) >= 1.0


def test_perplexity_closed_form_bigram(tiny_vocab):
    # deterministic successor model built by hand through the output
    # projection of a zero hidden network is impossible (hidden is zero),
    # so verify against a direct hand computation of the NLL instead
    base = lm.BaseParams.init_random(tiny_vocab, hidden=4, seed=21)
    doc = "abc"
    inputs = [0] + tiny_vocab.encode(doc).tolist()
    targets = tiny_vocab.encode(doc).tolist() + [1]
    total = 0.0
    for tok, target in zip(inputs, targets):
        probs = lm.forward(base, None, tiny_vocab.symbols[tok] if tok >= 2 else "")
        total += -np.log(probs[target])
    expected = float(np.exp(total / len(targets)))
    assert lm.perplexity(base, None, [doc]) == pytest.approx(expected, rel=1e-9)


def test_perplexity_prefix_exclusion(tiny_base):
    with pytest.raises(ValueError, match="shorter than eval prefix"):
        lm.perplexity(tiny_base, None, ["ab"], eval_prefix_len=2)
    full = lm.perplexity(tiny_base, None, ["abcabc"], eval_prefix_len=0)
    suffix_only = lm.perplexity(tiny_base, None, ["abcabc"], eval_prefix_len=3)
    assert full != suffix_only  # different scored sets in general


def test_generate_zero_tokens(tiny_base):
    assert lm.generate(tiny_base, None, "ab", 0, seed=0) == "ab"


def test_generate_deterministic(tiny_base):
    g1 = lm.generate(tiny_base, None, "a", 20, seed=7)
    g2 = lm.generate(tiny_base, None, "a", 20, seed=7)
    assert g1 == g2


def test_generate_greedy_when_deterministic(tiny_vocab):
    # one-hot next-token model: every input maps to symbol 'a' with
    # overwhelming logit mass
    base = zero_base(tiny_vocab, hidden=4)
    base.embed_table = np.ones_like(base.embed_table)
    base.block0 = np.eye(4, dtype=np.float32)
    base.block1 = np.eye(4, dtype=np.float32)
    out = np.full((tiny_vocab.size, 4), -100.0, dtype=np.float32)
    out[tiny_vocab.symbols.index("a")] = 100.0
    base.out_proj = out
    for seed in (0, 1, 2):
        assert lm.generate(base, None, "b", 3, seed=seed) == "baaa"


def test_adapter_linearity_in_b(tiny_base):
    # with only out_proj adapted, logit deltas are linear in B
    rng = np.random.default_rng(31)
    a = (rng.standard_normal((2, 4)) * 0.3).astype(np.float32)
    b = (rng.standard_normal((tiny_base.vocab.size, 2)) * 0.3).astype(np.float32)
    shapes = [getattr(tiny_base, n).shape for n in lm.TARGET_NAMES]

    def logits(badapter):
        probs = lm.forward(tiny_base, badapter, "ab")
        return np.log(probs)

    base_logits = logits(None)

    def delta_for(scale):
        theta = [np.ones(8), np.zeros(8)] * 2 + [a, (scale * b).astype(np.float32)]
        adapter = lm.LoraAdapter(np.concatenate([x.ravel() for x in theta]), shapes, 2, 2.0)
        raw = logits(adapter) - base_logits
        return raw - raw.mean()  # log-softmax shift invariance

    assert np.allclose(delta_for(2.0), 2.0 * delta_for(1.0), atol=1e-4)


def test_adapter_validation(tiny_base):
    adapter = lm.LoraAdapter.init(tiny_base, rank=2, seed=0)
    theta, shapes = adapter.theta, adapter.shapes
    with pytest.raises(ValueError, match="rank"):
        lm.LoraAdapter(theta, shapes, rank=0, alpha=1.0)
    for alpha in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha"):
            lm.LoraAdapter(theta, shapes, rank=2, alpha=alpha)
    # one positive (d_out, d_in) per target of TARGET_NAMES
    for wrong in (shapes[:2], shapes + shapes[:1], shapes[:2] + ((0, 4),)):
        with pytest.raises(ValueError, match="not one positive"):
            lm.LoraAdapter(theta, wrong, rank=2, alpha=16.0)


def test_with_flat_validation():
    # an adapter built from a flat vector takes exactly the factors that
    # rank and shapes give, all finite
    _, adapter, _ = random_model(1)
    theta, shapes = adapter.theta, adapter.shapes
    for wrong in (theta[:-1], np.append(theta, 0.0), theta[None, :]):
        with pytest.raises(ValueError, match=rf"theta must have shape \({theta.size},\)"):
            lm.LoraAdapter(wrong, shapes, rank=2, alpha=3.0)
    with pytest.raises(ValueError, match="theta must have shape"):
        lm.LoraAdapter(theta, shapes, rank=1, alpha=3.0)
    for value in (np.nan, np.inf):
        broken = theta.copy()
        broken[3] = value
        with pytest.raises(ValueError, match="non-finite entries in adapter factors"):
            lm.LoraAdapter(broken, shapes, rank=2, alpha=3.0)


def test_train_base_learns(tiny_vocab):
    docs = ["abcabcabcabc"] * 8
    cfg = lm.TrainConfig(learning_rate=5e-3, epochs=4, seed=0)
    base = lm.train_base(tiny_vocab, docs, cfg, hidden=8)
    random_base = lm.BaseParams.init_random(tiny_vocab, hidden=8, seed=0)
    assert lm.perplexity(base, None, docs) < lm.perplexity(random_base, None, docs)


# Per-token reference implementation: one model evaluation per scored
# position, with the whole prefix passed to lm.forward. The library scores
# through a (V, V) table and trains on (input, target) pair counts, which
# is exact only while the next-token distribution depends on the last
# token alone; if the model ever reads more context, these tests fail.


def random_model(seed: int):
    vocab = lm.Vocab.from_corpus(["abcdef"])
    base = lm.BaseParams.init_random(vocab, hidden=5, seed=seed, scale=0.5)
    adapter = lm.LoraAdapter.init(base, rank=2, alpha=3.0, seed=seed)
    rng = np.random.default_rng(seed)
    adapter = dataclasses.replace(adapter, theta=rng.standard_normal(adapter.theta.size) * 0.3)
    docs = [
        "".join(rng.choice(list("abcdef"), size=int(rng.integers(1, 25))))
        for _ in range(int(rng.integers(1, 6)))
    ]
    return base, adapter, docs


def reference_log_probs(base, adapter, doc, eval_prefix_len=0):
    """log p(target) at every scored position, one forward call each."""
    targets = [base.vocab.symbols.index(ch) for ch in doc] + [1]  # EOS last
    return [
        float(np.log(lm.forward(base, adapter, doc[:t])[targets[t]]))
        for t in range(eval_prefix_len, len(targets))
    ]


def reference_dense_grads(base, adapter, docs, max_seq_len=256):
    """Mean NLL and dense-weight gradients with one backward row per token."""
    weights = {n: getattr(base, n).astype(np.float64) for n in lm.DENSE_NAMES}
    for name in lm.TARGET_NAMES:
        weights[name] = weights[name] + adapter.delta(name)
    inputs, targets = [], []
    for doc in docs:
        ids = base.vocab.encode(doc[:max_seq_len]).tolist()
        inputs += [0] + ids
        targets += ids + [1]
    n = len(inputs)
    x = weights["embed_table"][inputs]
    h1 = np.tanh(x @ weights["block0"].T)
    h2 = np.tanh(h1 @ weights["block1"].T)
    logits = h2 @ weights["out_proj"].T
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    nll = float(-np.log(probs[np.arange(n), targets]).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), targets] -= 1.0
    dlogits /= n
    grads = {"out_proj": dlogits.T @ h2}
    da2 = (dlogits @ weights["out_proj"]) * (1.0 - h2**2)
    grads["block1"] = da2.T @ h1
    da1 = (da2 @ weights["block1"]) * (1.0 - h1**2)
    grads["block0"] = da1.T @ x
    grads["embed_table"] = np.zeros_like(weights["embed_table"])
    np.add.at(grads["embed_table"], inputs, da1 @ weights["block0"])
    return nll, grads


def rel_err(got, ref) -> float:
    return float(np.linalg.norm(np.asarray(got) - ref) / np.linalg.norm(ref))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("eval_prefix_len", [0, 3])
def test_perplexity_matches_per_token_reference(seed, eval_prefix_len):
    base, adapter, docs = random_model(seed)
    docs = [doc + "abcd" for doc in docs]  # longer than the prefix
    for model_adapter in (None, adapter):
        logs = [
            lp
            for doc in docs
            for lp in reference_log_probs(base, model_adapter, doc, eval_prefix_len)
        ]
        expected = float(np.exp(-np.mean(logs)))
        got = lm.perplexity(base, model_adapter, docs, eval_prefix_len)
        assert got == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_nll_and_grad_match_per_token_reference(seed):
    base, adapter, docs = random_model(seed)
    max_seq_len = 12  # truncation applies to longer documents
    nll, grads = adapter_nll_and_grad(base, adapter, doc_keys(base.vocab, docs, max_seq_len))
    ref_nll, ref_dense = reference_dense_grads(base, adapter, docs, max_seq_len)
    # scoring reads whole documents, so it gets them cut as training cuts them
    cut = [doc[:max_seq_len] for doc in docs]
    logs = [lp for doc in cut for lp in reference_log_probs(base, adapter, doc)]
    assert nll == pytest.approx(ref_nll, rel=1e-10)
    assert nll == pytest.approx(-np.mean(logs), rel=1e-10)
    ppl = lm.perplexity(base, adapter, cut)
    assert np.log(ppl) == pytest.approx(ref_nll, rel=1e-10)
    ref = []
    for name, (a, b) in adapter.factors.items():
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        ref += [adapter.scale * (b64.T @ ref_dense[name]), adapter.scale * (ref_dense[name] @ a64.T)]
    assert grads.shape == adapter.theta.shape
    for got, want in zip(np.split(grads, np.cumsum([r.size for r in ref])[:-1]), ref):
        assert rel_err(got, want.ravel()) <= 1e-10
    # the same backward trains the base, embedding included
    weights = lm._effective_weights(base, adapter)
    counts = lm._pair_counts(base.vocab.size, doc_keys(base.vocab, docs, max_seq_len))
    dense_nll, dense = lm._backward(weights, counts, embed=True)
    assert dense_nll == pytest.approx(ref_nll, rel=1e-10)
    for name in lm.DENSE_NAMES:
        assert rel_err(dense[name], ref_dense[name]) <= 1e-10
    # adapter training skips the embedding gradient and keeps the rest bit for bit
    frozen_nll, frozen = lm._backward(weights, counts)
    assert frozen_nll == dense_nll
    assert sorted(frozen) == sorted(lm.TARGET_NAMES)
    for name in frozen:
        assert np.array_equal(frozen[name], dense[name])


@pytest.mark.parametrize("seed", range(4))
def test_ensemble_perplexity_matches_per_token_reference(seed):
    from expertmerge.evaluation import ensemble_perplexity
    from expertmerge.routing import MergeWeights

    base, _, docs = random_model(seed)
    docs = [doc + "fedc" for doc in docs]
    adapters = {k: random_model(100 * seed + k)[1] for k in range(3)}
    weights = MergeWeights(entries={0: 0.5, 2: 0.3, 1: 0.2})
    for eval_prefix_len in (0, 2):
        logs = []
        for doc in docs:
            text = doc
            targets = [base.vocab.symbols.index(ch) for ch in text] + [1]
            for t in range(eval_prefix_len, len(targets)):
                mix = sum(
                    w * lm.forward(base, adapters[k], text[:t])
                    for k, w in weights.entries.items()
                )
                logs.append(np.log(mix[targets[t]]))
        expected = float(np.exp(-np.mean(logs)))
        got = ensemble_perplexity(base, weights, adapters, docs, eval_prefix_len)
        assert got == pytest.approx(expected, rel=1e-10)


def reference_generate(base, adapter, prompt, n_tokens, seed):
    """Ancestral sampling with one lm.forward call on the whole text per token."""
    rng = np.random.default_rng(seed)
    out = prompt
    for _ in range(n_tokens):
        probs = lm.forward(base, adapter, out)
        token = int(rng.choice(base.vocab.size, p=probs / probs.sum()))
        if token == 1:  # EOS
            break
        out += base.vocab.symbols[token]
    return out


@pytest.mark.parametrize("seed", range(6))
def test_generate_matches_per_token_reference(seed):
    base, adapter, docs = random_model(seed)
    for model_adapter in (None, adapter):
        for i, prompt in enumerate(["", docs[0][:3], docs[-1]]):
            for n_tokens in (0, 1, 40, 200):
                expected = reference_generate(base, model_adapter, prompt, n_tokens, 10 * seed + i)
                got = lm.generate(base, model_adapter, prompt, n_tokens, seed=10 * seed + i)
                assert got == expected


def test_generate_matches_reference_on_peaked_rows():
    # a one-hot hidden state per token, so out_proj's column t is row t's logits:
    # 'a' is followed by 'b' up to ~1e-13, 'b' draws from a spread row, and
    # EOS is the likeliest successor of 'c'
    vocab = lm.Vocab.from_corpus(["abcd"])
    v = vocab.size
    a, b, c = (vocab.symbols.index(ch) for ch in "abc")
    out = np.random.default_rng(0).standard_normal((v, v))
    out[:, a] = 0.0
    out[b, a] = 30.0
    out[:, c] = 0.0
    out[1, c] = 2.0
    eye = np.eye(v, dtype=np.float32)
    base = lm.BaseParams(
        vocab=vocab, embed_table=3 * eye, block0=3 * eye, block1=3 * eye, out_proj=out
    )
    assert 1 - 1e-12 < lm.forward(base, None, "a")[b] < 1
    assert lm.forward(base, None, "c").argmax() == 1
    stopped = 0
    for seed in range(40):
        for prompt in ("a", "b", "c", ""):
            for n_tokens in (1, 200):
                text = lm.generate(base, None, prompt, n_tokens, seed)
                assert text == reference_generate(base, None, prompt, n_tokens, seed)
                stopped += n_tokens == 200 and len(text) < len(prompt) + n_tokens
    assert stopped > 0  # some runs of 200 tokens end early at EOS


def test_generate_matches_reference_on_many_models():
    # 200 seeded (prompt, seed) pairs over 20 random models of 28 symbols
    vocab = lm.Vocab.from_corpus([string.ascii_lowercase])
    pairs = 0
    for m in range(20):
        rng = np.random.default_rng(1000 + m)
        scale = float(rng.uniform(0.3, 1.5))
        base = lm.BaseParams.init_random(vocab, hidden=6, seed=m, scale=scale)
        adapter = None
        if m % 2:
            adapter = lm.LoraAdapter.init(base, rank=2, alpha=3.0, seed=m)
            theta = [
                x.ravel()
                for fa, fb in adapter.factors.values()
                for x in (fa * 20, (rng.standard_normal(fb.shape) * 0.3).astype(np.float32))
            ]
            adapter = dataclasses.replace(adapter, theta=np.concatenate(theta))
        for _ in range(10):
            prompt = "".join(rng.choice(list(string.ascii_lowercase), size=int(rng.integers(0, 8))))
            seed = int(rng.integers(2**31))
            expected = reference_generate(base, adapter, prompt, 50, seed)
            assert lm.generate(base, adapter, prompt, 50, seed) == expected
            pairs += 1
    assert pairs == 200
