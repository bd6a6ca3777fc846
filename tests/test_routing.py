import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeCatalog, heaviest, random_unit_vectors
from expertmerge.routing import (
    MergeWeights,
    RoutingConfig,
    rbf_weights,
    route,
    route_fixed_n,
    sparse_softmax,
    top_n,
)


def softmax(z):
    e = np.exp(z - np.max(z))
    return e / e.sum()


def test_merge_weights_validation():
    with pytest.raises(ValueError):
        MergeWeights(entries={})
    with pytest.raises(ValueError):
        MergeWeights(entries={0: 0.5, 1: 0.4})
    with pytest.raises(ValueError):
        MergeWeights(entries={0: 1.5, 1: -0.5})
    w = MergeWeights(entries={3: 0.25, 1: 0.75})
    assert w.support == [1, 3]


def test_sparse_softmax_equal_logits():
    w = sparse_softmax(np.zeros(3), tau=0.0)
    assert w.entries == {0: pytest.approx(1 / 3), 1: pytest.approx(1 / 3), 2: pytest.approx(1 / 3)}


def test_sparse_softmax_hand_example():
    # softmax probs (0.5, 0.3, 0.2) with tau 0.25 -> (5/6, 1/6, dropped)
    z = np.log(np.array([0.5, 0.3, 0.2]))
    w = sparse_softmax(z, tau=0.25)
    assert w.entries[0] == pytest.approx(5 / 6, rel=1e-12)
    assert w.entries[1] == pytest.approx(1 / 6, rel=1e-12)
    assert 2 not in w.entries


def test_sparse_softmax_single_expert():
    w = sparse_softmax(np.array([2.5]), tau=0.99)
    assert w.entries == {0: 1.0}


def test_sparse_softmax_tau_too_large():
    with pytest.raises(ValueError, match="tau too large"):
        sparse_softmax(np.zeros(4), tau=0.25)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=16).flatmap(
        lambda k: st.tuples(
            st.lists(
                st.floats(min_value=-30, max_value=30), min_size=k, max_size=k
            ),
            st.floats(min_value=0, max_value=1.0 / k, exclude_max=True),
        )
    )
)
def test_sparse_softmax_invariants(case):
    logits, tau = case
    z = np.array(logits)
    w = sparse_softmax(z, tau)
    assert w.n_active >= 1
    assert abs(sum(w.entries.values()) - 1.0) <= 1e-9
    p = softmax(z)
    for k in range(len(z)):
        if k not in w.entries:
            assert p[k] <= tau + 1e-12
    assert heaviest(w) == int(np.argmax(p))


def test_sparse_softmax_monotone_in_logit():
    z = np.array([0.5, 0.1, -0.2])
    before = sparse_softmax(z, 0.0).entries[0]
    z[0] += 0.3
    after = sparse_softmax(z, 0.0).entries[0]
    assert after >= before


def test_route_sharp_beta_one_hot():
    centroids = random_unit_vectors(6, 16, 0)
    catalog = FakeCatalog(centroids)
    cfg = RoutingConfig(beta=1e-3, tau=0.0)
    w = route(centroids[4], catalog, cfg)
    assert w.entries[4] > 1 - 1e-6


def test_route_flat_beta_uniform():
    centroids = random_unit_vectors(5, 8, 1)
    catalog = FakeCatalog(centroids)
    w = route(centroids[0], catalog, RoutingConfig(beta=1e9, tau=0.0))
    for k in range(5):
        assert w.entries[k] == pytest.approx(0.2, abs=1e-9)


def test_route_permutation_equivariance():
    centroids = random_unit_vectors(7, 12, 2)
    query = random_unit_vectors(1, 12, 3)[0]
    cfg = RoutingConfig(beta=0.1, tau=0.0)
    w = route(query, FakeCatalog(centroids), cfg)
    perm = np.array([3, 0, 6, 1, 5, 2, 4])
    w_perm = route(query, FakeCatalog(centroids[perm]), cfg)
    for new_id, old_id in enumerate(perm):
        assert w_perm.entries[new_id] == pytest.approx(w.entries[old_id], rel=1e-12)


def test_top_n_descending_with_ties_to_lower_id():
    scores = np.array([0.5, 0.9, 0.5, 0.9, 0.1])
    assert top_n(scores, 5).tolist() == [1, 3, 0, 2, 4]
    assert top_n(scores, 3).tolist() == [1, 3, 0]
    for n in (0, 6):
        with pytest.raises(ValueError, match="out of range"):
            top_n(scores, n)


def test_route_fixed_n_full_equals_tau_zero():
    centroids = random_unit_vectors(6, 10, 8)
    q = random_unit_vectors(1, 10, 9)[0]
    catalog = FakeCatalog(centroids)
    fixed = route_fixed_n(q, catalog, 6, beta=0.05)
    dynamic = route(q, catalog, RoutingConfig(beta=0.05, tau=0.0))
    for k in range(6):
        assert fixed.entries[k] == pytest.approx(dynamic.entries[k], rel=1e-10)


def test_route_fixed_n_one_hot_and_errors():
    centroids = random_unit_vectors(6, 10, 10)
    q = centroids[2]
    catalog = FakeCatalog(centroids)
    w = route_fixed_n(q, catalog, 1, beta=0.05)
    assert w.entries == {2: 1.0}
    with pytest.raises(ValueError, match="out of range"):
        route_fixed_n(q, catalog, 7, beta=0.05)
    with pytest.raises(ValueError, match="out of range"):
        route_fixed_n(q, catalog, 0, beta=0.05)


def test_route_fixed_n_brute_force():
    centroids = random_unit_vectors(6, 10, 11)
    q = random_unit_vectors(1, 10, 12)[0]
    catalog = FakeCatalog(centroids)
    w = route_fixed_n(q, catalog, 3, beta=0.07)
    sims = centroids.astype(np.float64) @ q.astype(np.float64)
    top3 = sorted(np.argsort(-sims)[:3].tolist())
    assert sorted(w.entries) == top3
    expected = softmax(sims[top3] / 0.07)
    for k, e in zip(top3, expected):
        assert w.entries[k] == pytest.approx(e, rel=1e-10)


def test_rbf_equivalence():
    rng = np.random.default_rng(23)
    for beta in (0.01, 0.1, 1.0):
        for trial in range(20):
            centroids = random_unit_vectors(8, 16, 100 + trial)
            q = random_unit_vectors(1, 16, 200 + trial)[0]
            attention = softmax(
                centroids.astype(np.float64) @ q.astype(np.float64) / beta
            )
            rbf = rbf_weights(q, centroids, beta)
            assert np.max(np.abs(attention - rbf)) <= 1e-6


def test_argmax_matches_nearest_centroid():
    centroids = random_unit_vectors(10, 16, 24)
    q = random_unit_vectors(1, 16, 25)[0]
    w = route(q, FakeCatalog(centroids), RoutingConfig(beta=0.05, tau=0.01))
    sims = centroids.astype(np.float64) @ q.astype(np.float64)
    assert heaviest(w) == int(np.argmax(sims))


def test_routing_config_validation():
    with pytest.raises(ValueError):
        RoutingConfig(beta=0.0)
    with pytest.raises(ValueError):
        RoutingConfig(tau=-0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_routing_config_rejects_non_finite(value):
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        RoutingConfig(beta=value)
    with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
        RoutingConfig(tau=value)
