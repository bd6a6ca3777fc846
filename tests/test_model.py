import numpy as np
import pytest

from expertmerge import model as lm


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
    assert tiny_vocab.decode(ids) == "cab"
    assert tiny_vocab.size == 5  # BOS, EOS, a, b, c


def test_vocab_oov(tiny_vocab):
    with pytest.raises(ValueError, match="out of vocabulary"):
        tiny_vocab.encode("z")


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


def test_forward_max_seq(tiny_base):
    probs = lm.forward(tiny_base, None, "abcabcabc")
    assert probs.shape == (tiny_base.vocab.size,)


def finite_difference_grads(base, adapter, docs, eps=1e-5):
    """Central differences over every adapter coordinate (oracle)."""
    grads = {}
    for name, (a, b) in adapter.factors.items():
        for label, mat in (("A", a), ("B", b)):
            g = np.zeros(mat.shape, dtype=np.float64)
            for idx in np.ndindex(mat.shape):
                original = mat[idx]
                # use the actually stored float32 perturbations so the
                # difference quotient denominator is exact
                mat[idx] = np.float32(original + eps)
                hi_val = float(np.float64(mat[idx]))
                hi = np.log(lm.perplexity(base, adapter, docs))
                mat[idx] = np.float32(original - eps)
                lo_val = float(np.float64(mat[idx]))
                lo = np.log(lm.perplexity(base, adapter, docs))
                mat[idx] = original
                g[idx] = (hi - lo) / (hi_val - lo_val)
            grads.setdefault(name, {})[label] = g
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        ga, gb = analytic[name]
        for label, g in (("A", ga), ("B", gb)):
            ref = numeric[name][label]
            denom = np.maximum(np.abs(ref), 1e-6)
            worst = max(worst, float(np.max(np.abs(g - ref) / denom)))
    return worst


def test_gradients_match_finite_differences():
    vocab = lm.Vocab.from_corpus(["abc"])  # V = 5
    base = lm.BaseParams.init_random(vocab, hidden=4, seed=11)
    adapter = lm.LoraAdapter.init(base, rank=2, alpha=4.0, seed=12)
    rng = np.random.default_rng(13)
    for name, (a, b) in adapter.factors.items():
        adapter.factors[name] = (
            (rng.standard_normal(a.shape) * 0.1).astype(np.float32),
            (rng.standard_normal(b.shape) * 0.1).astype(np.float32),
        )
    docs = ["abca", "cab"]
    _, analytic = lm.nll_and_grad(base, adapter, docs)
    numeric = finite_difference_grads(base, adapter, docs)
    assert max_relative_error(analytic, numeric) <= 1e-4


def test_nll_uniform_model(tiny_vocab):
    base = zero_base(tiny_vocab)
    adapter = lm.LoraAdapter.init(base, rank=1, seed=0)
    nll, _ = lm.nll_and_grad(base, adapter, ["a"])
    assert nll == pytest.approx(np.log(tiny_vocab.size), rel=1e-12)


def test_nll_batch_doubling_invariant(tiny_base):
    adapter = lm.LoraAdapter.init(tiny_base, rank=2, seed=4)
    docs = ["ab", "cba"]
    nll_once, _ = lm.nll_and_grad(tiny_base, adapter, docs)
    nll_twice, _ = lm.nll_and_grad(tiny_base, adapter, docs + docs)
    assert nll_twice == pytest.approx(nll_once, rel=1e-12)


def test_nll_empty_batch(tiny_base):
    adapter = lm.LoraAdapter.init(tiny_base, rank=1, seed=0)
    with pytest.raises(ValueError, match="empty batch"):
        lm.nll_and_grad(tiny_base, adapter, [])


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
    for name in a1.factors:
        assert np.array_equal(a1.factors[name][0], a2.factors[name][0])
        assert np.array_equal(a1.factors[name][1], a2.factors[name][1])


def test_train_diverged_reported(tiny_base, monkeypatch):
    def exploding(*args, **kwargs):
        return float("nan"), {}

    monkeypatch.setattr(lm, "nll_and_grad", exploding)
    cfg = lm.TrainConfig(learning_rate=1e-3, epochs=1, seed=0)
    with pytest.raises(ArithmeticError, match="diverged at step 0"):
        lm.train_adapter(tiny_base, ["abc"], cfg)


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
    out[tiny_vocab.index("a")] = 100.0
    base.out_proj = out
    for seed in (0, 1, 2):
        assert lm.generate(base, None, "b", 3, seed=seed) == "baaa"


def test_adapter_linearity_in_b(tiny_base):
    # with only out_proj adapted, logit deltas are linear in B
    rng = np.random.default_rng(31)
    a = (rng.standard_normal((2, 4)) * 0.3).astype(np.float32)
    b = (rng.standard_normal((tiny_base.vocab.size, 2)) * 0.3).astype(np.float32)

    def logits(badapter):
        probs = lm.forward(tiny_base, badapter, "ab")
        return np.log(probs)

    base_logits = logits(None)

    def delta_for(scale):
        adapter = lm.LoraAdapter(
            factors={"out_proj": (a, (scale * b).astype(np.float32))}, rank=2, alpha=2.0
        )
        raw = logits(adapter) - base_logits
        return raw - raw.mean()  # log-softmax shift invariance

    assert np.allclose(delta_for(2.0), 2.0 * delta_for(1.0), atol=1e-4)


def test_adapter_validation(tiny_base):
    with pytest.raises(ValueError, match="rank"):
        lm.LoraAdapter(factors={}, rank=0, alpha=1.0)
    for alpha in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha"):
            lm.LoraAdapter(factors={}, rank=1, alpha=alpha)
    adapter = lm.LoraAdapter.init(tiny_base, rank=2, seed=0)
    for bad in (np.inf, np.nan):
        a, b = adapter.factors["block1"]
        a = a.copy()
        a[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite entries in adapter factors"):
            lm.LoraAdapter(factors={"block1": (a, b)}, rank=2, alpha=16.0)


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
    for name, (a, b) in adapter.factors.items():
        adapter.factors[name] = (
            (rng.standard_normal(a.shape) * 0.3).astype(np.float32),
            (rng.standard_normal(b.shape) * 0.3).astype(np.float32),
        )
    docs = [
        "".join(rng.choice(list("abcdef"), size=int(rng.integers(1, 25))))
        for _ in range(int(rng.integers(1, 6)))
    ]
    return base, adapter, docs


def reference_log_probs(base, adapter, doc, eval_prefix_len=0, max_seq_len=100_000):
    """log p(target) at every scored position, one forward call each."""
    text = doc[:max_seq_len]
    targets = [base.vocab.index(ch) for ch in text] + [1]  # EOS last
    return [
        float(np.log(lm.forward(base, adapter, text[:t])[targets[t]]))
        for t in range(eval_prefix_len, len(targets))
    ]


def reference_dense_grads(base, adapter, docs, max_seq_len=256):
    """Mean NLL and dense-weight gradients with one backward row per token."""
    weights = {n: getattr(base, n).astype(np.float64) for n in lm.DENSE_NAMES}
    for name in adapter.factors:
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
    nll, grads = lm.nll_and_grad(base, adapter, docs, max_seq_len)
    ref_nll, ref_dense = reference_dense_grads(base, adapter, docs, max_seq_len)
    logs = [lp for doc in docs for lp in reference_log_probs(base, adapter, doc, 0, max_seq_len)]
    assert nll == pytest.approx(ref_nll, rel=1e-10)
    assert nll == pytest.approx(-np.mean(logs), rel=1e-10)
    ppl = lm.perplexity(base, adapter, docs, max_seq_len=max_seq_len)
    assert np.log(ppl) == pytest.approx(ref_nll, rel=1e-10)
    for name, (a, b) in adapter.factors.items():
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        ga, gb = grads[name]
        assert rel_err(ga, adapter.scale * (b64.T @ ref_dense[name])) <= 1e-10
        assert rel_err(gb, adapter.scale * (ref_dense[name] @ a64.T)) <= 1e-10
    # the same backward trains the base, embedding included
    weights = lm._effective_weights(base, adapter)
    counts = lm._pair_counts(base.vocab, docs, max_seq_len)
    dense_nll, dense = lm._backward(weights, counts)
    assert dense_nll == pytest.approx(ref_nll, rel=1e-10)
    for name in lm.DENSE_NAMES:
        assert rel_err(dense[name], ref_dense[name]) <= 1e-10


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
            targets = [base.vocab.index(ch) for ch in text] + [1]
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
            expected = reference_generate(base, model_adapter, prompt, 40, seed=10 * seed + i)
            assert lm.generate(base, model_adapter, prompt, 40, seed=10 * seed + i) == expected
