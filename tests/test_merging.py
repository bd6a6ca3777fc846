import numpy as np
import pytest

from conftest import CallCounter
from expertmerge import model as lm
from expertmerge.evaluation import ensemble_perplexity
from expertmerge.merging import apply_merged, merge_adapters
from expertmerge.routing import MergeWeights


def trained_adapters(base, n, rank=2, seed0=50):
    out = {}
    rng_docs = ["abcd", "dcba", "bacd", "abdc"]
    for k in range(n):
        cfg = lm.TrainConfig(learning_rate=5e-3, epochs=1, seed=seed0 + k)
        out[k] = lm.train_adapter(base, rng_docs, cfg, rank=rank)
    return out


def test_one_hot_merge_is_exact(small_base):
    adapters = trained_adapters(small_base, 3)
    merged = merge_adapters(MergeWeights(entries={1: 1.0}), adapters)
    model = apply_merged(small_base, merged)
    for prefix in ("a", "abc", ""):
        direct = lm.forward(small_base, adapters[1], prefix)
        via_merge = lm.forward(model, None, prefix)
        assert np.max(np.abs(direct - via_merge)) <= 1e-6


def test_merged_delta_is_convex_combination(small_base):
    adapters = trained_adapters(small_base, 2)
    w = MergeWeights(entries={0: 0.3, 1: 0.7})
    merged = merge_adapters(w, adapters)
    for name, delta in merged.deltas.items():
        expected = 0.3 * adapters[0].delta(name) + 0.7 * adapters[1].delta(name)
        assert np.allclose(delta, expected, atol=1e-7)
        # entrywise inside the hull of the expert deltas
        lo = np.minimum(adapters[0].delta(name), adapters[1].delta(name))
        hi = np.maximum(adapters[0].delta(name), adapters[1].delta(name))
        assert (delta >= lo - 1e-6).all()
        assert (delta <= hi + 1e-6).all()


def full_adapter(block0, vocab_size, hidden):
    """Rank-1 adapter with these block0 factors and a zero B on the other targets."""
    zero = [np.ones(hidden), np.zeros(hidden), np.ones(hidden), np.zeros(vocab_size)]
    theta = np.concatenate([np.ravel(x) for x in (*block0, *zero)])
    shapes = [(hidden, hidden), (hidden, hidden), (vocab_size, hidden)]
    return lm.LoraAdapter(theta, shapes, rank=1, alpha=1.0)


def test_merge_rank_one_oracle():
    # two rank-1 adapters whose average delta is 0.5 * I_2, by hand
    a1 = full_adapter((np.array([[1.0, 0.0]]), np.array([[1.0], [0.0]])), 5, 2)
    a2 = full_adapter((np.array([[0.0, 1.0]]), np.array([[0.0], [1.0]])), 5, 2)
    merged = merge_adapters(MergeWeights(entries={0: 0.5, 1: 0.5}), {0: a1, 1: a2})
    assert np.array_equal(merged.deltas["block0"], 0.5 * np.eye(2, dtype=np.float32))
    assert not merged.deltas["block1"].any() and not merged.deltas["out_proj"].any()


def test_merge_float32_overflow_raises():
    # 1e20 * 1e20 is finite in float64 but not in float32, where the delta is stored
    big = full_adapter((np.full((1, 2), 1e20), np.full((2, 1), 1e20)), 5, 2)
    with pytest.raises(ValueError, match="non-finite entries in merged delta block0"):
        merge_adapters(MergeWeights(entries={0: 1.0}), {0: big})


def test_merge_mixed_ranks(small_base):
    a_r1 = lm.train_adapter(
        small_base, ["abcd"], lm.TrainConfig(learning_rate=5e-3, epochs=1, seed=1), rank=1
    )
    a_r4 = lm.train_adapter(
        small_base, ["dcba"], lm.TrainConfig(learning_rate=5e-3, epochs=1, seed=2), rank=4
    )
    merged = merge_adapters(MergeWeights(entries={0: 0.5, 1: 0.5}), {0: a_r1, 1: a_r4})
    for name, delta in merged.deltas.items():
        expected = 0.5 * a_r1.delta(name) + 0.5 * a_r4.delta(name)
        assert np.allclose(delta, expected, atol=1e-7)


def test_merge_missing_and_mismatched(small_base):
    adapters = trained_adapters(small_base, 2)
    with pytest.raises(KeyError, match="missing adapter"):
        merge_adapters(MergeWeights(entries={0: 0.5, 5: 0.5}), adapters)
    lopsided = dict(adapters)
    narrow = lm.BaseParams.init_random(small_base.vocab, hidden=4, seed=0)
    lopsided[1] = lm.LoraAdapter.init(narrow, rank=2)
    with pytest.raises(ValueError, match=r"shape mismatch for matrix 'block0': expert 1"):
        merge_adapters(MergeWeights(entries={0: 0.5, 1: 0.5}), lopsided)


def test_apply_then_subtract_recovers_base(small_base):
    adapters = trained_adapters(small_base, 2)
    merged = merge_adapters(MergeWeights(entries={0: 0.4, 1: 0.6}), adapters)
    model = apply_merged(small_base, merged)
    for name, delta in merged.deltas.items():
        recovered = getattr(model, name).astype(np.float64) - delta.astype(np.float64)
        assert np.max(np.abs(recovered - getattr(small_base, name))) <= 1e-6
        # the float32 sum is the float64 sum rounded to float32, bit for bit
        rounded = (getattr(small_base, name).astype(np.float64) + delta).astype(np.float32)
        assert getattr(model, name).tobytes() == rounded.tobytes()
    # base itself untouched
    for name in merged.deltas:
        assert not np.array_equal(getattr(model, name), getattr(small_base, name))
    # a matrix that no delta touches is the base's own array, not a copy
    assert model.embed_table is small_base.embed_table


def test_apply_overflow_raises(small_base):
    from expertmerge.merging import MergedAdapter

    base = lm.BaseParams(
        vocab=small_base.vocab,
        embed_table=small_base.embed_table,
        block0=small_base.block0,
        block1=small_base.block1,
        out_proj=np.full_like(small_base.out_proj, 3e38),
    )
    delta = np.zeros_like(base.out_proj)
    delta[0, 0] = 3e38  # finite in float32, but W + delta is not
    merged = MergedAdapter(deltas={"out_proj": delta}, provenance=MergeWeights(entries={0: 1.0}))
    with pytest.raises(ValueError, match="non-finite entries in out_proj"):
        apply_merged(base, merged)


def test_apply_shape_mismatch(small_base):
    from expertmerge.merging import MergedAdapter
    from expertmerge.routing import MergeWeights as MW

    bad = MergedAdapter(
        deltas={"block0": np.zeros((3, 3), dtype=np.float32)},
        provenance=MW(entries={0: 1.0}),
    )
    with pytest.raises(ValueError, match="shape mismatch"):
        apply_merged(small_base, bad)


def test_forward_eval_accounting(small_base, monkeypatch):
    adapters = trained_adapters(small_base, 4)
    w = MergeWeights(entries={0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25})
    tables = CallCounter(monkeypatch, lm, "_prob_table")
    ensemble_perplexity(small_base, w, adapters, ["ab"])
    assert tables.calls == 4
    merged = merge_adapters(w, adapters)
    model = apply_merged(small_base, merged)
    lm.perplexity(model, None, ["ab"])
    assert tables.calls == 5
