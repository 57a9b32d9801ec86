"""The fast kernels against the plain-loop oracles, exactly.

Equality here is strict: the same partition with the same member order, Q
compared with ``==``, path statistics compared as exact tuples, the
clustering coefficient compared with ``==`` and the DivRank transitions
with ``np.array_equal``.
"""

import numpy as np
import pytest
from conftest import make_graph
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    average_shortest_path_oracle,
    cluster_cnm_oracle,
    cluster_visit_order_oracle,
    clustering_coefficient_oracle,
    divrank_base_transitions_oracle,
)

from citesum.community import Clustering, block_sums, cluster_cnm, modularity
from citesum.graph import (
    BFS_BLOCK,
    average_shortest_path,
    build_citation_summary_network,
    clustering_coefficient,
)
from citesum.rank import _divrank_base_transitions
from citesum.summarize import cluster_visit_order

FAMILIES = ("uniform", "quantized", "sparse-binary")


def random_graph(rng: np.random.Generator, n: int, family: str):
    """Exactly symmetric, zero-diagonal weights from one of three families."""
    if family == "uniform":
        w = rng.uniform(0.0, 1.0, size=(n, n))
    elif family == "quantized":  # many equal gains: exercises the tie rule
        w = rng.choice([0.0, 0.5, 1.0], size=(n, n))
    else:
        w = (rng.uniform(size=(n, n)) < rng.uniform(0.02, 0.3)).astype(float)
    w = np.triu(w, 1)
    return make_graph(w + w.T)


def assert_same_clustering(fast: Clustering, oracle: Clustering) -> None:
    assert fast == oracle
    assert fast.q == oracle.q
    assert list(fast.assignment.items()) == list(oracle.assignment.items())


@pytest.mark.parametrize("family", FAMILIES)
def test_cnm_matches_oracle_on_random_graphs(family):
    rng = np.random.default_rng(FAMILIES.index(family) + 101)
    for _ in range(67):
        g = random_graph(rng, int(rng.integers(1, 61)), family)
        assert_same_clustering(cluster_cnm(g), cluster_cnm_oracle(g))


def test_cnm_matches_oracle_on_fixture(nine_citations, nine_idf):
    g = build_citation_summary_network(nine_citations, nine_idf)
    assert_same_clustering(cluster_cnm(g), cluster_cnm_oracle(g))


def test_cnm_tie_with_merged_column_goes_to_lower_column():
    # After a merge, a row's new gain to the merged cluster equals its
    # cached best gain to a higher column; the lower column must win.  About
    # one small quantized graph in two thousand has such a tie.
    w = [
        [0.0, 0.5, 0.5, 0.5, 0.0],
        [0.5, 0.0, 0.0, 1.0, 0.5],
        [0.5, 0.0, 0.0, 0.5, 0.5],
        [0.5, 1.0, 0.5, 0.0, 0.5],
        [0.0, 0.5, 0.5, 0.5, 0.0],
    ]
    g = make_graph(w)
    assert_same_clustering(cluster_cnm(g), cluster_cnm_oracle(g))


@st.composite
def quantized_graphs(draw):
    n = draw(st.integers(1, 16))
    pairs = n * (n - 1) // 2
    levels = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=pairs, max_size=pairs))
    w = np.zeros((n, n))
    w[np.triu_indices(n, 1)] = levels
    return make_graph(w + w.T)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(quantized_graphs())
def test_property_cnm_equals_oracle_and_reported_q(g):
    fast = cluster_cnm(g)
    assert_same_clustering(fast, cluster_cnm_oracle(g))
    assert abs(fast.q - modularity(g, fast.assignment)) <= 1e-12


def test_bfs_matches_oracle_on_random_densities():
    rng = np.random.default_rng(211)
    for _ in range(40):
        n = int(rng.integers(1, 2 * BFS_BLOCK))
        g = random_graph(rng, n, "uniform")
        # Thresholds near 1 leave the graph disconnected or empty.
        threshold = float(rng.uniform(0.6, 1.0))
        assert tuple(average_shortest_path(g, threshold)) == tuple(
            average_shortest_path_oracle(g, threshold)
        )


@pytest.mark.parametrize("n", [1, 2, BFS_BLOCK, BFS_BLOCK + 1])
def test_bfs_matches_oracle_at_block_edges(n):
    rng = np.random.default_rng(n)
    for family in FAMILIES:
        g = random_graph(rng, n, family)
        for threshold in (0.1, 0.9):
            assert average_shortest_path(g, threshold) == average_shortest_path_oracle(g, threshold)


def test_bfs_long_path_across_blocks():
    # A path over three blocks of sources plus an isolated node: distances
    # up to 2 * BFS_BLOCK + 1 hops, and pairs that are never connected.
    n = 2 * BFS_BLOCK + 3
    w = np.zeros((n, n))
    for i in range(n - 2):
        w[i, i + 1] = w[i + 1, i] = 1.0
    g = make_graph(w)
    stats = average_shortest_path(g, 0.5)
    assert stats == average_shortest_path_oracle(g, 0.5)
    assert stats.disconnected_fraction > 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_block_sums_and_visit_order_match_the_loops(family):
    rng = np.random.default_rng(FAMILIES.index(family) + 301)
    for _ in range(60):
        g = random_graph(rng, int(rng.integers(1, 40)), family)
        k = int(rng.integers(1, len(g) + 1))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, len(g) - k)])
        rng.shuffle(labels)
        expected = np.array(
            [[g.weights[np.ix_(labels == a, labels == b)].sum() for b in range(k)] for a in range(k)]
        )
        np.testing.assert_allclose(block_sums(g, labels, k), expected, rtol=0, atol=1e-12)
        clustering = Clustering(dict(zip(g.nodes, labels.tolist())), g=k, q=0.0)
        assert cluster_visit_order(g, clustering) == cluster_visit_order_oracle(g, clustering)
        found = cluster_cnm(g)
        assert cluster_visit_order(g, found) == cluster_visit_order_oracle(g, found)


@pytest.mark.parametrize("family", FAMILIES)
def test_clustering_coefficient_matches_oracle(family):
    rng = np.random.default_rng(FAMILIES.index(family) + 401)
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(1, 90)), family)
        for threshold in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert clustering_coefficient(g, threshold) == clustering_coefficient_oracle(g, threshold)


def test_clustering_coefficient_matches_oracle_on_fixture(nine_citations, nine_idf):
    g = build_citation_summary_network(nine_citations, nine_idf)
    for threshold in (0.0, 0.05, 0.1, 0.2):
        assert clustering_coefficient(g, threshold) == clustering_coefficient_oracle(g, threshold)


@pytest.mark.parametrize("family", FAMILIES)
def test_divrank_transitions_match_oracle(family):
    rng = np.random.default_rng(FAMILIES.index(family) + 501)
    for _ in range(40):
        n = int(rng.integers(1, 60))
        w = random_graph(rng, n, family).weights.copy()
        isolated = rng.uniform(size=n) < 0.2  # zero-degree rows take the self-loop branch
        w[isolated, :] = 0.0
        w[:, isolated] = 0.0
        g = make_graph(w)
        alpha = float(rng.uniform(0.01, 0.99))
        assert np.array_equal(
            _divrank_base_transitions(g, alpha), divrank_base_transitions_oracle(g, alpha)
        )


def test_divrank_transitions_single_node():
    g = make_graph([[0.0]])
    assert np.array_equal(_divrank_base_transitions(g, 0.25), divrank_base_transitions_oracle(g, 0.25))
    assert _divrank_base_transitions(g, 0.25).tolist() == [[1.0]]
