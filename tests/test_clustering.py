import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_unit_vectors
from expertmerge.clustering import (
    MIN_CLUSTER_SIZE,
    ClusterAssignment,
    _diameter,
    _rebalance,
    _row_distances,
    _split_cluster,
    bisecting_kmeans,
    cluster_diameter,
    compute_centroids,
    elbow_curve,
    kmeans_loss,
)
from expertmerge.config import RunConfig
from expertmerge.corpus import generate_corpus
from expertmerge.embedding import embed_corpus


def blobs_around(axes: list[int], per_blob: int, d: int, seed: int) -> np.ndarray:
    """Unit vectors near distinct coordinate axes (tight blobs)."""
    rng = np.random.default_rng(seed)
    points = []
    for axis in axes:
        for _ in range(per_blob):
            v = rng.standard_normal(d) * 0.05
            v[axis] += 1.0
            points.append(v / np.linalg.norm(v))
    return np.array(points)


def test_k1_single_cluster():
    x = random_unit_vectors(6, 4, 0)
    a = bisecting_kmeans(x, 1, 0)
    assert a.K == 1
    assert set(a.labels.tolist()) == {0}


def test_k_equals_n_singletons():
    x = random_unit_vectors(5, 4, 1)
    a = bisecting_kmeans(x, 5, 0)
    assert a.K == 5
    assert sorted(a.labels.tolist()) == [0, 1, 2, 3, 4]
    assert kmeans_loss(x, a) == 0.0


def test_k_out_of_range():
    x = random_unit_vectors(3, 4, 2)
    with pytest.raises(ValueError, match="K > n"):
        bisecting_kmeans(x, 4, 0)
    with pytest.raises(ValueError):
        bisecting_kmeans(x, 0, 0)


def brute_force_best_2partition(x: np.ndarray) -> float:
    """Minimum k-means loss over all 2-partitions (oracle, n <= 12)."""
    n = len(x)
    best = np.inf
    for mask in range(1, 2 ** (n - 1)):
        side = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        loss = 0.0
        for part in (x[side], x[~side]):
            if len(part):
                loss += float(((part - part.mean(axis=0)) ** 2).sum())
        best = min(best, loss)
    return best


def test_two_blobs_recovered():
    x = blobs_around([0, 1], per_blob=5, d=6, seed=3)
    a = bisecting_kmeans(x, 2, 0)
    labels = a.labels
    # blob membership: first 5 vs last 5
    assert len(set(labels[:5].tolist())) == 1
    assert len(set(labels[5:].tolist())) == 1
    assert labels[0] != labels[5]
    # and the split is optimal per the exhaustive 2-partition oracle
    assert kmeans_loss(x, a) == pytest.approx(brute_force_best_2partition(x), rel=1e-9)


def test_kmeans_loss_matches_definition():
    x = random_unit_vectors(10, 5, 4)
    a = bisecting_kmeans(x, 3, 0)
    # independent re-implementation of the sum
    expected = 0.0
    for k in range(3):
        part = x[a.labels == k].astype(np.float64)
        mean = part.mean(axis=0)
        expected += sum(float(((p - mean) ** 2).sum()) for p in part)
    assert kmeans_loss(x, a) == pytest.approx(expected, rel=1e-12)


def test_antipodal_pair_loss():
    v = np.zeros(4)
    v[0] = 1.0
    x = np.stack([v, -v])
    a = ClusterAssignment(labels=np.array([0, 0]), K=1)
    assert kmeans_loss(x, a) == pytest.approx(2.0, abs=1e-12)


def test_cluster_diameter_cases():
    v = np.zeros(3)
    v[1] = 1.0
    x = np.stack([v, -v, v])
    a = ClusterAssignment(labels=np.array([0, 1, 2]), K=3)
    assert cluster_diameter(x, a, 0) == 0.0
    a2 = ClusterAssignment(labels=np.array([0, 0, 1]), K=2)
    assert cluster_diameter(x, a2, 0) == pytest.approx(2.0, abs=1e-12)


def test_cluster_diameter_exhaustive_oracle():
    x = random_unit_vectors(8, 5, 7)
    a = ClusterAssignment(labels=np.zeros(8, dtype=int), K=1)
    expected = max(
        float(np.linalg.norm(x[i].astype(np.float64) - x[j].astype(np.float64)))
        for i, j in itertools.combinations(range(8), 2)
    )
    assert cluster_diameter(x, a, 0) == pytest.approx(expected, rel=1e-9)


def test_cluster_diameter_bad_id():
    x = random_unit_vectors(4, 3, 8)
    a = ClusterAssignment(labels=np.zeros(4, dtype=int), K=1)
    with pytest.raises(ValueError):
        cluster_diameter(x, a, 1)


def test_centroids_singleton_and_norms():
    x = random_unit_vectors(6, 4, 9)
    a = bisecting_kmeans(x, 6, 0)
    cs = compute_centroids(x, a)
    for k in range(6):
        member = a.members(k)[0]
        assert np.allclose(cs.centroids[k], x[member], atol=1e-6)
    norms = np.linalg.norm(cs.centroids.astype(np.float64), axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-6)
    assert cs.sizes.sum() == 6


def test_centroid_orthogonal_pair():
    e1 = np.zeros(4, dtype=np.float32)
    e2 = np.zeros(4, dtype=np.float32)
    e1[0] = 1.0
    e2[1] = 1.0
    a = ClusterAssignment(labels=np.array([0, 0]), K=1)
    cs = compute_centroids(np.stack([e1, e2]), a)
    expected = (e1 + e2) / np.sqrt(2.0)
    assert np.allclose(cs.centroids[0], expected, atol=1e-6)


def test_degenerate_centroid_rejected():
    v = np.zeros(4)
    v[2] = 1.0
    a = ClusterAssignment(labels=np.array([0, 0]), K=1)
    with pytest.raises(ValueError, match="degenerate centroid.*0"):
        compute_centroids(np.stack([v, -v]), a)


def test_elbow_curve():
    x = blobs_around([0, 1, 2], per_blob=4, d=6, seed=10)
    curve = elbow_curve(x, [1, 2, 3, 12], 0)
    losses = [loss for _, loss in curve]
    assert losses == sorted(losses, reverse=True) or all(
        losses[i] >= losses[i + 1] for i in range(len(losses) - 1)
    )
    assert losses[-1] == 0.0
    total_variance = kmeans_loss(x, ClusterAssignment(labels=np.zeros(12, dtype=int), K=1))
    assert curve[0][1] == pytest.approx(total_variance, rel=1e-12)
    with pytest.raises(ValueError):
        elbow_curve(x, [3, 1], 0)


def test_determinism():
    x = random_unit_vectors(40, 8, 11)
    a = bisecting_kmeans(x, 7, seed=5)
    b = bisecting_kmeans(x, 7, seed=5)
    assert np.array_equal(a.labels, b.labels)


def test_splits_never_increase_loss():
    x = random_unit_vectors(30, 6, 12)
    losses = [kmeans_loss(x, bisecting_kmeans(x, k, 0)) for k in range(1, 10)]
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier + 1e-9


def test_assignment_validation():
    with pytest.raises(ValueError, match="no members"):
        ClusterAssignment(labels=np.array([0, 0]), K=2)


@functools.lru_cache(maxsize=2)
def corpus_embeddings(seed: int) -> tuple[np.ndarray, int, int]:
    """(embeddings, K, clustering seed) of the default corpus at `seed`."""
    cfg = RunConfig().with_overrides({"corpus.seed": seed})
    docs, _, _ = generate_corpus(cfg.corpus)
    return embed_corpus(cfg.embedder, docs), cfg.n_clusters, cfg.seed


def test_seed15_corpus_clusters_reach_minimum():
    # at this corpus seed the widest cluster's 2-means split once cut a
    # single outlier document off, which left nothing to hold out
    x, K, seed = corpus_embeddings(15)
    a = bisecting_kmeans(x, K, seed)
    assert a.K == K
    assert np.bincount(a.labels).min() >= MIN_CLUSTER_SIZE


def test_lone_outlier_not_cut_off():
    # the only 2-means split of the five points cuts the outlier off; the
    # cut moves so that the outlier keeps its nearest neighbour
    x = np.array([[0.0], [0.1], [0.2], [0.3], [10.0]])
    a = bisecting_kmeans(x, 2, 0)
    assert sorted(np.bincount(a.labels).tolist()) == [2, 3]
    assert a.labels[3] == a.labels[4]


@settings(max_examples=80, deadline=None)
@given(
    x=st.integers(2, 24).flatmap(
        lambda n: arrays(
            np.float64, (n, 2), elements=st.sampled_from([-3.0, -1.0, 0.0, 0.5, 2.0, 40.0])
        )
    ),
    data=st.data(),
)
def test_min_cluster_size_property(x, data):
    K = data.draw(st.integers(1, len(x) // MIN_CLUSTER_SIZE))
    seed = data.draw(st.integers(0, 3))
    a = bisecting_kmeans(x, K, seed)
    assert a.K == K
    assert np.bincount(a.labels, minlength=K).min() >= MIN_CLUSTER_SIZE


def reference_bisecting_kmeans(embeddings: np.ndarray, K: int, seed: int) -> ClusterAssignment:
    """The bisecting loop as it was before widths were stored: every
    cluster's diameter is computed again at every split (test oracle)."""
    x = np.asarray(embeddings, dtype=np.float64)
    n = len(x)
    m = MIN_CLUSTER_SIZE if K * MIN_CLUSTER_SIZE <= n else 1
    rng = np.random.default_rng(seed)
    clusters: list[np.ndarray] = [np.arange(n)]
    while len(clusters) < K:
        spare = sum(len(idx) // m for idx in clusters) - K

        def allowed(size: int, n1: int) -> bool:
            room = n1 // m + (size - n1) // m - size // m
            return m <= n1 <= size - m and spare + room >= 0

        candidates = sorted(
            (i for i, idx in enumerate(clusters) if len(idx) >= 2 * m),
            key=lambda i: -_diameter(x[clusters[i]]),
        )
        if not candidates:
            raise ValueError(f"no cluster can be split into sides of {m} or more")
        widest = None
        for target in candidates:
            idx = clusters[target]
            side = _split_cluster(x[idx], rng)
            if allowed(len(idx), int(side.sum())):
                break
            widest = widest or (target, side)
        else:
            target, side = widest
            idx = clusters[target]
            sizes = [a for a in range(len(idx) + 1) if allowed(len(idx), a)]
            side = _rebalance(x[idx], side, sizes)
        clusters.pop(target)
        clusters.insert(target, idx[side == 0])
        clusters.insert(target + 1, idx[side == 1])
    labels = np.empty(n, dtype=np.int64)
    for cid, idx in enumerate(clusters):
        labels[idx] = cid
    return ClusterAssignment(labels=labels, K=K)


def assert_matches_reference(x: np.ndarray, K: int, seed: int) -> None:
    try:
        expected = reference_bisecting_kmeans(x, K, seed).labels
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            bisecting_kmeans(x, K, seed)
        return
    assert np.array_equal(bisecting_kmeans(x, K, seed).labels, expected)


@pytest.mark.parametrize("corpus_seed", [0, 15])
def test_stored_widths_match_reference_on_corpus(corpus_seed):
    assert_matches_reference(*corpus_embeddings(corpus_seed))


@pytest.mark.slow
@pytest.mark.parametrize("corpus_seed", range(40))
def test_stored_widths_match_reference_on_every_corpus_seed(corpus_seed):
    assert_matches_reference(*corpus_embeddings(corpus_seed))


@st.composite
def small_data(draw) -> tuple[np.ndarray, int, int]:
    """Rows drawn with repetition from a few distinct points, so that many
    points coincide and some clusters cannot be split by 2-means."""
    n = draw(st.integers(8, 60))
    d = draw(st.integers(2, 8))
    distinct = draw(
        arrays(
            np.float64,
            (draw(st.integers(1, n)), d),
            elements=st.sampled_from([-3.0, 0.0, 0.5, 2.0, 40.0])
            | st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
        )
    )
    pick = draw(arrays(np.int64, n, elements=st.integers(0, len(distinct) - 1)))
    return distinct[pick], draw(st.integers(1, n // 2)), draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(case=small_data())
def test_stored_widths_match_reference_on_small_data(case):
    assert_matches_reference(*case)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 20), st.integers(1, 12)),
    data=st.data(),
)
def test_row_distances_match_linalg_norm(shape, data):
    # entries from 1e-150 to 1e150 in size, mixed within one array; squares
    # and their sums stay finite and normal
    scaled = st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 10.0, exclude_max=True),
        st.integers(-150, 149),
    )
    points = data.draw(arrays(np.float64, shape, elements=scaled))
    c = data.draw(arrays(np.float64, shape[1], elements=scaled))
    assert np.array_equal(_row_distances(points, c), np.linalg.norm(points - c, axis=1))
