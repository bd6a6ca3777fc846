"""Bisecting k-means over embedding vectors.

Starts from one cluster and repeatedly splits the cluster with the
largest diameter using seeded 2-means until K clusters exist. Each
cluster's diameter is computed once, when the cluster is made. A split
that would leave a side below MIN_CLUSTER_SIZE is not kept: the next
widest cluster is split instead, so an outlier document is never cut off
on its own. Centroids are arithmetic means renormalized to unit length
so that large clusters do not end up with systematically smaller
centroid norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Above this size the exact O(n^2) diameter is replaced by the surrogate
# 2 * max distance to the cluster mean.
EXACT_DIAMETER_CAP = 512

TWO_MEANS_MAX_ITER = 25

# Smallest cluster bisecting_kmeans leaves whenever K clusters of this size
# fit in the data (K * MIN_CLUSTER_SIZE <= n). The evaluation protocol holds
# out one test document per cluster and trains the expert on the rest.
MIN_CLUSTER_SIZE = 2


@dataclass
class ClusterAssignment:
    labels: np.ndarray  # (n,) int array with values in [0, K)
    K: int

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.labels.min(initial=0) < 0 or (
            self.labels.size and self.labels.max() >= self.K
        ):
            raise ValueError("labels out of range [0, K)")
        counts = np.bincount(self.labels, minlength=self.K)
        if (counts == 0).any():
            empty = int(np.flatnonzero(counts == 0)[0])
            raise ValueError(f"cluster {empty} has no members")

    def members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster_id)


@dataclass
class CentroidSet:
    centroids: np.ndarray  # (K, d) float32, each row unit-norm
    sizes: np.ndarray  # (K,) int


def _pairwise_max_distance(points: np.ndarray) -> float:
    x = points.astype(np.float64)
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    return float(np.sqrt(max(0.0, d2.max())))


def _row_distances(points: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Euclidean distance of each row of `points` to `c`. The same ufuncs as
    np.linalg.norm(points - c, axis=1), so the same bits, with one
    temporary in place of three."""
    diff = np.subtract(points, c)
    np.multiply(diff, diff, out=diff)
    return np.sqrt(np.add.reduce(diff, axis=1))


def _diameter(points: np.ndarray) -> float:
    if len(points) <= 1:
        return 0.0
    if len(points) <= EXACT_DIAMETER_CAP:
        return _pairwise_max_distance(points)
    return 2.0 * float(_row_distances(points, points.mean(axis=0)).max())


def cluster_diameter(
    embeddings: np.ndarray, assignment: ClusterAssignment, cluster_id: int
) -> float:
    """Exact max pairwise Euclidean distance within one cluster."""
    if cluster_id < 0 or cluster_id >= assignment.K:
        raise ValueError(f"cluster id {cluster_id} out of range [0, {assignment.K})")
    members = assignment.members(cluster_id)
    if len(members) <= 1:
        return 0.0
    return _pairwise_max_distance(np.asarray(embeddings)[members])


def _two_means_labels(points: np.ndarray, c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    d0 = _row_distances(points, c0)
    d1 = _row_distances(points, c1)
    # ties go to side 0 to keep the split deterministic
    return (d1 < d0).astype(np.int64)


def _two_means(points: np.ndarray, init: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, float]:
    """Lloyd iterations with k=2; returns (side labels, loss)."""
    c0, c1 = (c.astype(np.float64) for c in init)
    labels = _two_means_labels(points, c0, c1)
    for _ in range(TWO_MEANS_MAX_ITER):
        if labels.all() or not labels.any():
            break
        c0 = points[labels == 0].mean(axis=0)
        c1 = points[labels == 1].mean(axis=0)
        new_labels = _two_means_labels(points, c0, c1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    loss = 0.0
    for side in (0, 1):
        part = points[labels == side]
        if len(part):
            loss += float(((part - part.mean(axis=0)) ** 2).sum())
    return labels, loss


def _farthest_pair_init(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = points.mean(axis=0)
    a = int(np.argmax(_row_distances(points, mean)))
    b = int(np.argmax(_row_distances(points, points[a])))
    return points[a].copy(), points[b].copy()


def _random_init(points: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    i, j = rng.choice(len(points), size=2, replace=False)
    return points[i].copy(), points[j].copy()


def _split_cluster(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Split points into two non-empty sides; returns 0/1 side labels."""
    candidates = [_farthest_pair_init(points), _random_init(points, rng)]
    best_labels: np.ndarray | None = None
    best_loss = np.inf
    for init in candidates:
        labels, loss = _two_means(points, init)
        if labels.any() and not labels.all() and loss < best_loss:
            best_labels, best_loss = labels, loss
    if best_labels is None:
        # retry once with a fresh seeded init, then force a split by
        # moving the point farthest from the mean to its own side
        labels, _ = _two_means(points, _random_init(points, rng))
        if labels.any() and not labels.all():
            return labels
        best_labels = np.zeros(len(points), dtype=np.int64)
        far = int(np.argmax(_row_distances(points, points.mean(axis=0))))
        best_labels[far] = 1
    return best_labels


def _rebalance(points: np.ndarray, side: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Move a 2-means cut so that side 1 gets the allowed size nearest its
    own; points join side 1 in order of how much nearer its mean they are."""
    c0 = points[side == 0].mean(axis=0)
    c1 = points[side == 1].mean(axis=0)
    margin = _row_distances(points, c0) - _row_distances(points, c1)
    n1 = min(sizes, key=lambda a: abs(a - int(side.sum())))
    out = np.zeros(len(points), dtype=np.int64)
    out[np.lexsort((np.arange(len(points)), -margin))[:n1]] = 1
    return out


def bisecting_kmeans(embeddings: np.ndarray, K: int, seed: int) -> ClusterAssignment:
    """Cluster rows of `embeddings` into exactly K non-empty clusters.

    When K * MIN_CLUSTER_SIZE <= n every cluster gets at least
    MIN_CLUSTER_SIZE members. Each step splits the widest cluster whose
    2-means split keeps both sides at that size and leaves room for K such
    clusters; if no cluster has such a split, the widest cluster's cut is
    moved until it does.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    n = len(x)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K > n:
        raise ValueError(f"K > n: requested {K} clusters for {n} embeddings")
    m = MIN_CLUSTER_SIZE if K * MIN_CLUSTER_SIZE <= n else 1
    rng = np.random.default_rng(seed)
    clusters: list[np.ndarray] = [np.arange(n)]
    widths = [_diameter(x[clusters[0]])]  # widths[i] is the diameter of clusters[i]
    while len(clusters) < K:
        # clusters of size m that could still be formed beyond the K needed
        spare = sum(len(idx) // m for idx in clusters) - K

        def allowed(size: int, n1: int) -> bool:
            room = n1 // m + (size - n1) // m - size // m
            return m <= n1 <= size - m and spare + room >= 0

        # widest first; ties keep the lower position
        candidates = sorted(
            (i for i, idx in enumerate(clusters) if len(idx) >= 2 * m),
            key=lambda i: -widths[i],
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
        halves = [idx[side == 0], idx[side == 1]]
        clusters[target : target + 1] = halves
        widths[target : target + 1] = [_diameter(x[h]) for h in halves]
    labels = np.empty(n, dtype=np.int64)
    for cid, idx in enumerate(clusters):
        labels[idx] = cid
    return ClusterAssignment(labels=labels, K=K)


def kmeans_loss(embeddings: np.ndarray, assignment: ClusterAssignment) -> float:
    """Sum of squared distances to the (un-normalized) cluster means."""
    x = np.asarray(embeddings, dtype=np.float64)
    total = 0.0
    for k in range(assignment.K):
        part = x[assignment.members(k)]
        total += float(((part - part.mean(axis=0)) ** 2).sum())
    return total


def compute_centroids(embeddings: np.ndarray, assignment: ClusterAssignment) -> CentroidSet:
    """Per-cluster mean embedding, renormalized to unit length."""
    x = np.asarray(embeddings, dtype=np.float64)
    centroids = np.empty((assignment.K, x.shape[1]), dtype=np.float32)
    sizes = np.empty(assignment.K, dtype=np.int64)
    for k in range(assignment.K):
        members = assignment.members(k)
        mean = x[members].mean(axis=0)
        norm = float(np.linalg.norm(mean))
        if norm == 0.0:
            raise ValueError(f"degenerate centroid: cluster {k} has zero-norm mean")
        centroids[k] = (mean / norm).astype(np.float32)
        sizes[k] = len(members)
    return CentroidSet(centroids=centroids, sizes=sizes)


def elbow_curve(
    embeddings: np.ndarray, K_list: list[int], seed: int
) -> list[tuple[int, float]]:
    """(K, k-means loss) for each K; loss is non-increasing in K."""
    if sorted(K_list) != list(K_list):
        raise ValueError("K_list must be sorted ascending")
    curve = []
    for K in K_list:
        assignment = bisecting_kmeans(embeddings, K, seed)
        curve.append((K, kmeans_loss(embeddings, assignment)))
    return curve
