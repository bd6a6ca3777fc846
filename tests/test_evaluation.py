import numpy as np
import pytest

from expertmerge import model as lm
from expertmerge import pipeline
from expertmerge.catalog import load_active
from expertmerge.clustering import ClusterAssignment
from expertmerge.config import EvalProtocol, RunConfig
from expertmerge.corpus import generate_corpus
from expertmerge.embedding import EmbedderConfig, embed_corpus
from expertmerge.evaluation import (
    diagonal_rowmin_fraction,
    ensemble_perplexity,
    expert_cluster_matrix,
    global_finetune,
    pass_at_n,
    split_holdout,
    ttt_adapt,
)
from expertmerge.merging import apply_merged, merge_adapters
from expertmerge.routing import MergeWeights


def make_assignment(labels):
    labels = np.asarray(labels)
    return ClusterAssignment(labels=labels, K=int(labels.max()) + 1)


def test_split_is_partition():
    labels = [0] * 10 + [1] * 6 + [2] * 4
    split = split_holdout(20, make_assignment(labels), EvalProtocol(seed=3))
    pieces = [split.train_idx.tolist(), list(split.test.values())]
    pieces.extend(idx.tolist() for idx in split.holdout.values())
    flat = [i for piece in pieces for i in piece]
    assert sorted(flat) == list(range(20))
    # test docs come from their own cluster
    for k, i in split.test.items():
        assert labels[i] == k


def test_split_deterministic():
    labels = [0] * 8 + [1] * 8
    a = split_holdout(16, make_assignment(labels), EvalProtocol(seed=5))
    b = split_holdout(16, make_assignment(labels), EvalProtocol(seed=5))
    assert np.array_equal(a.train_idx, b.train_idx)
    assert a.test == b.test


def test_split_tiny_fraction_still_tests():
    labels = [0] * 5 + [1] * 5
    proto = EvalProtocol(holdout_fraction=0.0, seed=0)
    split = split_holdout(10, make_assignment(labels), proto)
    assert len(split.test) == 2
    assert len(split.train_idx) == 8


def test_split_cluster_too_small():
    labels = [0, 0, 0, 1]
    with pytest.raises(ValueError, match="too small"):
        split_holdout(4, make_assignment(labels), EvalProtocol(seed=0))


def test_split_size_mismatch():
    with pytest.raises(ValueError, match="does not cover"):
        split_holdout(5, make_assignment([0, 0, 1, 1]), EvalProtocol(seed=0))


def test_global_finetune_lr_zero_is_base(small_base):
    cfg = lm.TrainConfig(learning_rate=0.0, epochs=1, seed=0)
    adapter = global_finetune(small_base, ["abcd", "efgh"], cfg, rank=2, alpha=16.0)
    out = lm.forward(small_base, adapter, "ab")
    assert np.array_equal(out, lm.forward(small_base, None, "ab"))


def test_one_cluster_expert_is_global_finetune(tmp_path):
    # K=1: the one expert trains on global_finetune's documents, in its order, with its seed
    cfg = RunConfig().with_overrides({"n_clusters": 1, "corpus.docs_per_domain": 60})
    docs, _, _ = generate_corpus(cfg.corpus)
    built = pipeline.build_catalog(docs, cfg, tmp_path / "catalog")
    train_docs = [docs[i] for i in built.split.train_idx]
    finetune = global_finetune(
        built.base, train_docs, cfg.expert_train, cfg.lora_rank, cfg.lora_alpha
    )
    expert = load_active(built.catalog, [0], built.base)[0]
    assert np.array_equal(expert.theta, finetune.theta)
    # apply_merged rounds W + delta to float32, so the tables differ by that rounding
    merged = apply_merged(built.base, merge_adapters(MergeWeights(entries={0: 1.0}), {0: expert}))
    gap = np.abs(lm._prob_table(merged, None) - lm._prob_table(built.base, finetune)).max()
    assert gap <= 1e-7


def corpus_embeddings(docs):
    cfg = EmbedderConfig(dim=32, ngram_orders=(1, 2), hash_seed=5)
    return cfg, embed_corpus(cfg, docs)


def test_ttt_lr_zero_keeps_base(small_base):
    docs = ["abcd", "bcda", "efgh"]
    _, embs = corpus_embeddings(docs)
    cfg = lm.TrainConfig(learning_rate=0.0, epochs=1, seed=0)
    adapter = ttt_adapt(small_base, embs[0], embs, docs, 2, cfg, rank=2, alpha=2.0)
    assert np.array_equal(
        lm.forward(small_base, adapter, "ab"), lm.forward(small_base, None, "ab")
    )


def test_ttt_single_self_neighbor_improves(small_base):
    docs = ["abcdabcdabcd", "hgfe", "gfeh"]
    _, embs = corpus_embeddings(docs)
    cfg = lm.TrainConfig(learning_rate=5e-3, epochs=1, seed=1)
    adapter = ttt_adapt(small_base, embs[0], embs, docs, 1, cfg, rank=2, alpha=16.0)
    before = np.log(lm.perplexity(small_base, None, [docs[0]]))
    after = np.log(lm.perplexity(small_base, adapter, [docs[0]]))
    assert after < before


def test_ttt_n_too_large(small_base):
    docs = ["abcd"]
    _, embs = corpus_embeddings(docs)
    cfg = lm.TrainConfig(learning_rate=1e-3, epochs=1, seed=0)
    with pytest.raises(ValueError, match="exceeds corpus size"):
        ttt_adapt(small_base, embs[0], embs, docs, 2, cfg, rank=1, alpha=1.0)


def test_expert_cluster_matrix_matches_perplexity(small_base):
    adapters = {
        k: lm.train_adapter(
            small_base,
            [doc],
            lm.TrainConfig(learning_rate=5e-3, epochs=1, seed=k),
            rank=1,
        )
        for k, doc in enumerate(["abab", "cdcd", "hgfehgfe"])
    }
    holdout = {0: ["abba"], 1: ["dccd", "cdcdcd"], 2: ["efgh", "hhhh", "gfe"]}
    for eval_prefix_len in (0, 2):
        matrix = expert_cluster_matrix(small_base, adapters, holdout, eval_prefix_len)
        assert matrix.shape == (3, 3)
        for k in range(3):
            for j in range(3):
                expected = lm.perplexity(small_base, adapters[k], holdout[j], eval_prefix_len)
                assert matrix[k, j] == pytest.approx(expected, rel=1e-12)


def test_diagonal_rowmin_fraction():
    good = np.array([[1.0, 5.0], [4.0, 2.0]])
    assert diagonal_rowmin_fraction(good) == 1.0
    half = np.array([[1.0, 5.0], [1.0, 2.0]])
    assert diagonal_rowmin_fraction(half) == 0.5


def test_pass_at_n_separable_blobs():
    centroids = np.eye(3, dtype=np.float32)
    samples = []
    rng = np.random.default_rng(0)
    for k in range(3):
        for _ in range(5):
            v = rng.standard_normal(3) * 0.05
            v[k] += 1.0
            samples.append(((v / np.linalg.norm(v)).astype(np.float32), k))
    results = pass_at_n(centroids, samples, [1, 2, 3])
    accs = [acc for _, acc in results]
    assert accs[0] == 1.0
    assert accs == sorted(accs)  # nondecreasing in N
    assert accs[-1] == 1.0  # pass@K is always exact


def test_pass_at_n_wrong_cluster_counted():
    centroids = np.eye(2, dtype=np.float32)
    samples = [(centroids[0], 1)]  # labeled with the far cluster
    assert pass_at_n(centroids, samples, [1]) == [(1, 0.0)]
    assert pass_at_n(centroids, samples, [2]) == [(2, 1.0)]
    with pytest.raises(ValueError):
        pass_at_n(centroids, samples, [3])


def test_ensemble_perplexity_single_expert(small_base):
    adapter = lm.train_adapter(
        small_base, ["abcd"], lm.TrainConfig(learning_rate=5e-3, epochs=1, seed=2), rank=2
    )
    docs = ["abcd", "dcba"]
    mix = ensemble_perplexity(small_base, MergeWeights(entries={0: 1.0}), {0: adapter}, docs)
    assert mix == pytest.approx(lm.perplexity(small_base, adapter, docs), rel=1e-9)


def test_ensemble_perplexity_identical_experts(small_base):
    adapter = lm.LoraAdapter.init(small_base, rank=1, seed=0)
    w = MergeWeights(entries={0: 0.5, 1: 0.5})
    mix = ensemble_perplexity(small_base, w, {0: adapter, 1: adapter}, ["abcd"])
    assert mix == pytest.approx(lm.perplexity(small_base, None, ["abcd"]), rel=1e-9)
