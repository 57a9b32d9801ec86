"""The fast kernels against the plain-loop oracles, exactly.

Equality here is strict: the same partition with the same member order, Q
compared with ``==``, path statistics compared as exact tuples, the
clustering coefficient compared with ``==``, the LexRank and DivRank
transitions, the LexRank and DivRank scores and the similarity weights with
``np.array_equal``, each walk's iteration count and residual and the MMR
ordering with ``==``, and the DOT text with ``==``.  The one exception is a
walk over several blocks of rows, whose scores must agree to the relative
bound ``DIVRANK_BLOCKED_RTOL``; there, the scores' bytes, the iteration
count and the residual must not depend on the number of usable CPUs.
"""

import functools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import oracles
import pytest
from conftest import make_graph, toy_citation_set
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    average_shortest_path_oracle,
    build_citation_summary_network_oracle,
    cluster_cnm_oracle,
    cluster_visit_order_oracle,
    clustering_coefficient_oracle,
    divrank_base_transitions_oracle,
    divrank_oracle,
    lexrank_oracle,
    mmr_order_oracle,
    to_dot_oracle,
    transition_matrix_oracle,
)

from citesum import rank
from citesum.community import Clustering, block_sums, cluster_cnm, modularity
from citesum.corpus import CitationSet, IdfTable, uniform_idf
from citesum.graph import (
    BFS_BLOCK,
    PAIR_CHUNK,
    _postings,
    average_shortest_path,
    build_citation_summary_network,
    clustering_coefficient,
    to_dot,
)
from citesum.lexical import TokenizerConfig, tfidf_vector, tokenize
from citesum.rank import (
    _divrank_base_transitions,
    _transition_matrix,
    divrank,
    divrank_prior_from_length,
    lexrank,
    mmr_order,
)
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


def visit_indices(g, clustering: Clustering, visit: list[list[int]]) -> list[int]:
    """The cluster index of each member list, after checking that the lists
    hold every node once, each list in input order and within one cluster."""
    assert sorted(i for members in visit for i in members) == list(range(len(g)))
    indices = []
    for members in visit:
        assert members == sorted(members)
        labels = {clustering.assignment[g.nodes[i]] for i in members}
        assert len(labels) == 1
        indices.append(labels.pop())
    return indices


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


@pytest.mark.parametrize("family", ["uniform", "quantized"])
def test_cnm_matches_oracle_at_bench_size(family):
    # At 150 nodes most merges leave many dead rows below the merged one.
    g = random_graph(np.random.default_rng(FAMILIES.index(family) + 151), 150, family)
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


def test_cnm_best_partition_before_a_last_merge_below_half_an_ulp():
    # A 4-clique and two 2-cliques; the 2-cliques are joined by four edges
    # of weight c.  At this c, joining them is the last merge, and its gain,
    # about 1.4e-17, is positive but below half an ulp of Q (about 0.40), so
    # Q stays the same and the best partition is the one before that merge.
    c = float.fromhex("0x1.4c583ada5b52bp-4")
    w = np.zeros((8, 8))
    for group in ((0, 1, 2, 3), (4, 5), (6, 7)):
        w[np.ix_(group, group)] = 1.0
    w[np.ix_((4, 5), (6, 7))] = c
    w[np.ix_((6, 7), (4, 5))] = c
    np.fill_diagonal(w, 0.0)
    g = make_graph(w)
    oracle = cluster_cnm_oracle(g)
    assert oracle.g == 3
    assert_same_clustering(cluster_cnm(g), oracle)


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
        found = cluster_cnm(g)
        for partition in (clustering, found):
            visit = cluster_visit_order(g, partition)
            assert visit_indices(g, partition, visit) == cluster_visit_order_oracle(g, partition)


@pytest.mark.parametrize("family", FAMILIES)
def test_visit_order_weights_have_the_bits_of_block_sums(family):
    """Clusters of up to a few hundred nodes: each member list's block, added
    left to right in row-major order, has the bits of the diagonal of
    ``block_sums``, and the visiting order is the oracle's and the one that
    diagonal gives."""
    rng = np.random.default_rng(FAMILIES.index(family) + 311)
    for _ in range(4):
        n = int(rng.integers(100, 401))
        g = random_graph(rng, n, family)
        k = int(rng.integers(1, 5))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(labels)
        clustering = Clustering(dict(zip(g.nodes, labels.tolist())), g=k, q=0.0)
        visit = cluster_visit_order(g, clustering)
        indices = visit_indices(g, clustering, visit)
        diagonal = np.diag(block_sums(g, labels, k))
        internal = np.array([np.cumsum(g.weights[np.ix_(m, m)])[-1] for m in visit])
        assert internal.tobytes() == diagonal[indices].tobytes()
        sizes = np.bincount(labels, minlength=k)
        assert indices == sorted(range(k), key=lambda c: (-sizes[c], -diagonal[c], c))
        assert indices == cluster_visit_order_oracle(g, clustering)


def test_visit_order_breaks_near_ties_as_block_sums_does():
    """Two clusters of one size whose blocks hold the same weights in other
    orders: their sums differ only by rounding, and the cluster visited first
    is the one the diagonal of ``block_sums`` puts first, which a pairwise
    sum (``np.sum``) gets wrong in about two of five cases."""
    rng = np.random.default_rng(331)
    for _ in range(40):
        s = int(rng.integers(3, 40))
        upper = np.triu_indices(s, 1)
        weights = rng.uniform(size=len(upper[0]))
        w = np.zeros((2 * s, 2 * s))
        for block in (slice(0, s), slice(s, 2 * s)):
            w[block, block][upper] = rng.permutation(weights)
        order = rng.permutation(2 * s)
        g = make_graph((w + w.T)[np.ix_(order, order)])
        labels = (order >= s).astype(int)
        clustering = Clustering(dict(zip(g.nodes, labels.tolist())), g=2, q=0.0)
        diagonal = np.diag(block_sums(g, labels, 2))
        visit = cluster_visit_order(g, clustering)
        assert visit_indices(g, clustering, visit) == sorted(range(2), key=lambda c: (-diagonal[c], c))


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


def with_isolated_nodes(rng: np.random.Generator, n: int, family: str, share: float):
    """A random graph whose nodes, each with probability ``share``, lose every edge."""
    w = random_graph(rng, n, family).weights.copy()
    isolated = rng.uniform(size=n) < share
    w[isolated, :] = 0.0
    w[:, isolated] = 0.0
    return make_graph(w), isolated


@pytest.mark.parametrize("family", FAMILIES)
def test_divrank_transitions_match_oracle(family):
    rng = np.random.default_rng(FAMILIES.index(family) + 501)
    for _ in range(40):
        # zero-degree rows take the self-loop branch
        g, _ = with_isolated_nodes(rng, int(rng.integers(1, 60)), family, 0.2)
        alpha = float(rng.uniform(0.01, 0.99))
        assert np.array_equal(
            _divrank_base_transitions(g, alpha), divrank_base_transitions_oracle(g, alpha)
        )


def test_divrank_transitions_single_node():
    g = make_graph([[0.0]])
    assert np.array_equal(_divrank_base_transitions(g, 0.25), divrank_base_transitions_oracle(g, 0.25))
    assert _divrank_base_transitions(g, 0.25).tolist() == [[1.0]]


@pytest.mark.parametrize("family", FAMILIES)
def test_lexrank_transitions_match_oracle(family):
    rng = np.random.default_rng(FAMILIES.index(family) + 521)
    for _ in range(40):
        # dangling rows go uniform
        g, _ = with_isolated_nodes(rng, int(rng.integers(1, 60)), family, 0.2)
        adj = g.binarize(float(rng.uniform(0.0, 0.9)))
        assert np.array_equal(_transition_matrix(adj), transition_matrix_oracle(adj))


@pytest.mark.parametrize("walk", ["lexrank", "divrank"])
def test_transitions_are_built_in_place(walk):
    # The n x n result plus O(n) vectors; one n x n temporary would double it.
    g, _ = with_isolated_nodes(np.random.default_rng(531), 300, "uniform", 0.1)
    if walk == "lexrank":
        build = functools.partial(_transition_matrix, g.binarize(0.1))
    else:
        build = functools.partial(_divrank_base_transitions, g, 0.25)
    build()  # first-call allocations are not the build's
    tracemalloc.start()
    try:
        t = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * t.nbytes


def test_cnm_holds_two_matrices():
    # e and the gain matrix, n x n each, plus O(n) vectors and the n x n
    # boolean mask of the initial build.
    n = 300
    g = random_graph(np.random.default_rng(541), n, "uniform")
    cluster_cnm(g)  # first-call allocations are not the kernel's
    tracemalloc.start()
    try:
        cluster_cnm(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * n * n * 8


def assert_same_divrank(g, **kwargs) -> np.ndarray:
    fast, oracle = divrank(g, **kwargs), divrank_oracle(g, **kwargs)
    assert list(fast.scores) == list(oracle.scores)
    scores = np.array(list(fast.scores.values()))
    assert np.array_equal(scores, np.array(list(oracle.scores.values())))
    assert fast.iterations == oracle.iterations
    assert fast.residual == oracle.residual
    assert (fast.ids, fast.converged) == (oracle.ids, oracle.converged)
    assert fast.method == oracle.method
    return scores


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("isolated_share", [0.0, 0.2])
def test_divrank_matches_oracle(family, isolated_share):
    rng = np.random.default_rng(FAMILIES.index(family) + (711 if isolated_share else 701))
    for _ in range(8):
        n = int(rng.integers(1, 60))
        g, _ = with_isolated_nodes(rng, n, family, isolated_share)
        texts = [" ".join(["w"] * int(k)) for k in rng.integers(0, 40, n)]
        length_prior = divrank_prior_from_length(toy_citation_set(texts, ids=list(g.nodes)))
        lam = float(rng.uniform(0.5, 0.95))
        alpha = float(rng.uniform(0.05, 0.95))
        for prior in (None, length_prior):
            assert_same_divrank(g, lam=lam, alpha=alpha, prior=prior)


def test_divrank_matches_oracle_on_fixture(nine_citations, nine_idf):
    g = build_citation_summary_network(nine_citations, nine_idf)
    for prior in (None, divrank_prior_from_length(nine_citations)):
        assert_same_divrank(g, prior=prior)


def test_divrank_matches_oracle_when_mass_underflows(monkeypatch):
    # An isolated node with zero prior keeps only lam of its mass per sweep,
    # so with no stopping rule its score underflows to exactly 0, here within
    # 800 sweeps.  From then on p / d is 0/0 there and only the masked product
    # stays finite.
    monkeypatch.setattr("citesum.rank.RESIDUAL_TOLERANCE", -1.0)
    monkeypatch.setattr("citesum.rank.MAX_ITERATIONS", 1000)
    rng = np.random.default_rng(801)
    for trial in range(12):
        family = FAMILIES[trial % len(FAMILIES)]
        g, isolated = with_isolated_nodes(rng, int(rng.integers(4, 20)), family, 0.4)
        isolated[0] = False  # at least one node keeps prior mass
        assert isolated.any()
        prior = {node: (0.0 if iso else float(rng.uniform(0.1, 1.0))) for node, iso in zip(g.nodes, isolated)}
        scores = assert_same_divrank(g, lam=0.3, prior=prior)
        assert np.all(scores[isolated] == 0.0)
        assert np.all(np.isfinite(scores))


def test_divrank_matches_oracle_with_an_empty_mask():
    # alpha = 1 empties the diagonal and lam = 0 makes p the prior after one
    # sweep, so in the second sweep n0 has p > 0 but d = 0 and n1 has p = 0.
    g = make_graph([[0.0, 0.5], [0.5, 0.0]])
    scores = assert_same_divrank(g, lam=0.0, alpha=1.0, prior={"n0": 1.0, "n1": 0.0})
    assert scores.tolist() == [1.0, 0.0]


def assert_same_lexrank(g, threshold: float, damping: float) -> None:
    fast, oracle = lexrank(g, threshold, damping), lexrank_oracle(g, threshold, damping)
    assert list(fast.scores) == list(oracle.scores)
    assert np.array_equal(np.array(list(fast.scores.values())), np.array(list(oracle.scores.values())))
    assert fast.iterations == oracle.iterations
    assert fast.residual == oracle.residual
    assert (fast.ids, fast.converged) == (oracle.ids, oracle.converged)
    assert fast.method == oracle.method


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("isolated_share", [0.0, 0.2])
def test_lexrank_matches_oracle(family, isolated_share):
    # Isolated nodes, and nodes the threshold cuts off, are dangling rows.
    rng = np.random.default_rng(FAMILIES.index(family) + (731 if isolated_share else 721))
    for _ in range(12):
        g, _ = with_isolated_nodes(rng, int(rng.integers(1, 60)), family, isolated_share)
        assert_same_lexrank(g, float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.05, 0.95)))


def test_lexrank_matches_oracle_on_fixture(nine_citations, nine_idf):
    g = build_citation_summary_network(nine_citations, nine_idf)
    assert_same_lexrank(g, 0.10, 0.85)


@pytest.mark.parametrize("max_iterations", [1, 3])
def test_capped_walks_match_oracle(max_iterations, monkeypatch, nine_citations, nine_idf):
    monkeypatch.setattr(rank, "MAX_ITERATIONS", max_iterations)
    g = build_citation_summary_network(nine_citations, nine_idf)
    assert_same_lexrank(g, 0.10, 0.85)
    assert_same_divrank(g)
    assert not lexrank_oracle(g).converged and not divrank_oracle(g).converged


def test_walk_oracles_use_none_of_the_walk_helpers(monkeypatch, nine_citations, nine_idf):
    # A tie-order, convergence or transition bug in these helpers would
    # otherwise reach both sides of every walk comparison.
    g = build_citation_summary_network(nine_citations, nine_idf)
    prior = divrank_prior_from_length(nine_citations)
    expected = lexrank_oracle(g), divrank_oracle(g), divrank_oracle(g, prior=prior)

    def broken(*args, **kwargs):
        raise AssertionError("a walk oracle called the package's helper")

    for name in ("_ranking", "_transition_matrix", "_divrank_base_transitions"):
        monkeypatch.setattr(rank, name, broken)
        monkeypatch.setattr(oracles, name, broken, raising=False)
    assert (lexrank_oracle(g), divrank_oracle(g), divrank_oracle(g, prior=prior)) == expected


# Over several blocks of rows, a walk adds its product block by block, so the
# summation order differs from the one-pass oracle's.  Scores then agree to
# this relative bound (observed: under 4e-15 for DivRank, 2e-15 for LexRank),
# the iteration counts exactly, and the orderings wherever the oracle's scores
# are further apart than the bound allows either side to move.
DIVRANK_BLOCKED_RTOL = 1e-12


# Each walk's solver, its oracle, and the name of its block job in citesum.rank.
WALKS = {
    "lexrank": (lexrank, lexrank_oracle, "_lexrank_block"),
    "divrank": (divrank, divrank_oracle, "_divrank_block"),
}


def assert_close_walk(walk: str, g, rows: int, monkeypatch, **kwargs) -> np.ndarray:
    """The walk in blocks of ``rows`` rows (the last one ragged), in ``walk_in_thread``, against its oracle."""
    solve_oracle = WALKS[walk][1]
    monkeypatch.setattr("citesum.rank.ROW_BLOCK_BYTES", 8 * len(g) * rows)
    fast, oracle = walk_in_thread(walk, g, **kwargs), solve_oracle(g, **kwargs)
    assert list(fast.scores) == list(oracle.scores)
    assert fast.iterations == oracle.iterations
    assert fast.method == oracle.method
    scores = np.array(list(fast.scores.values()))
    expected = np.array(list(oracle.scores.values()))
    np.testing.assert_allclose(scores, expected, rtol=DIVRANK_BLOCKED_RTOL, atol=0.0)
    # oracle order, cut where neighbours differ by more than both may move
    ranked = oracle.ids
    runs = [[ranked[0]]]
    for above, below in zip(ranked, ranked[1:]):
        if oracle.scores[above] - oracle.scores[below] > 2 * DIVRANK_BLOCKED_RTOL * oracle.scores[above]:
            runs.append([])
        runs[-1].append(below)
    got = fast.ids
    start = 0
    for run in runs:
        assert set(got[start : start + len(run)]) == set(run)
        start += len(run)
    return scores


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("isolated_share", [0.0, 0.2])
def test_divrank_in_several_blocks_matches_oracle(family, isolated_share, monkeypatch):
    rng = np.random.default_rng(FAMILIES.index(family) + (1211 if isolated_share else 1201))
    for _ in range(4):
        n = int(rng.integers(5, 61))
        g, _ = with_isolated_nodes(rng, n, family, isolated_share)
        texts = [" ".join(["w"] * int(k)) for k in rng.integers(0, 40, n)]
        length_prior = divrank_prior_from_length(toy_citation_set(texts, ids=list(g.nodes)))
        lam = float(rng.uniform(0.5, 0.95))
        alpha = float(rng.uniform(0.05, 0.95))
        # one-row blocks, then two to n - 1 rows with a ragged last block
        for rows in (1, int(rng.integers(2, n))):
            for prior in (None, length_prior):
                assert_close_walk("divrank", g, rows, monkeypatch, lam=lam, alpha=alpha, prior=prior)


def test_divrank_in_several_blocks_when_mass_underflows(monkeypatch):
    # As in the one-block case above, zero-prior isolated nodes underflow to
    # 0 and take the masked product from then on; here they sit in some
    # blocks of rows and not in others.
    monkeypatch.setattr("citesum.rank.RESIDUAL_TOLERANCE", -1.0)
    monkeypatch.setattr("citesum.rank.MAX_ITERATIONS", 1000)
    rng = np.random.default_rng(1301)
    for trial in range(8):
        family = FAMILIES[trial % len(FAMILIES)]
        n = int(rng.integers(8, 24))
        isolated = np.arange(n) >= rng.integers(n // 2, n)  # only in the last blocks
        w = random_graph(rng, n, family).weights.copy()
        w[isolated, :] = 0.0
        w[:, isolated] = 0.0
        g = make_graph(w)
        prior = {node: (0.0 if iso else float(rng.uniform(0.1, 1.0))) for node, iso in zip(g.nodes, isolated)}
        for rows in (1, 3):
            scores = assert_close_walk("divrank", g, rows, monkeypatch, lam=0.3, prior=prior)
            assert np.all(scores[isolated] == 0.0)
            assert np.all(np.isfinite(scores))


def test_divrank_in_several_blocks_with_an_empty_mask(monkeypatch):
    # One row per block: n0's block has p > 0 but d = 0, n1's has p = 0.
    g = make_graph([[0.0, 0.5], [0.5, 0.0]])
    scores = assert_close_walk("divrank", g, 1, monkeypatch, lam=0.0, alpha=1.0, prior={"n0": 1.0, "n1": 0.0})
    assert scores.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("isolated_share", [0.0, 0.2])
def test_lexrank_in_several_blocks_matches_oracle(family, isolated_share, monkeypatch):
    rng = np.random.default_rng(FAMILIES.index(family) + (1231 if isolated_share else 1221))
    for _ in range(6):
        n = int(rng.integers(5, 61))
        g, _ = with_isolated_nodes(rng, n, family, isolated_share)
        threshold, damping = float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.05, 0.95))
        # one-row blocks, then two to n - 1 rows with a ragged last block
        for rows in (1, int(rng.integers(2, n))):
            assert_close_walk("lexrank", g, rows, monkeypatch, threshold=threshold, damping=damping)


@pytest.fixture
def short_switch_interval():
    """Threads take turns every 10 us, so a race between a walk's threads shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def walk_in_thread(walk: str, g, **kwargs):
    """The walk on ``g`` in a thread named ``solve``, so that a hang fails the
    test instead of stopping the suite.  The solve, ended by a result or an
    exception, must leave no thread behind."""
    solve_walk = WALKS[walk][0]
    outcome = []

    def solve():
        try:
            outcome.append(solve_walk(g, **kwargs))
        except Exception as exc:
            outcome.append(exc)

    before = threading.active_count()
    solver = threading.Thread(target=solve, name="solve", daemon=True)
    solver.start()
    solver.join(timeout=60)
    assert not solver.is_alive(), f"{walk} hung"
    assert threading.active_count() == before
    if isinstance(outcome[0], Exception):
        raise outcome[0]
    return outcome[0]


def assert_same_on_any_cpu_count(walk: str, g, rng, monkeypatch, **kwargs) -> np.ndarray:
    """The walk in 2 to 7 blocks of rows gives the same bits on 1, 2 and 3 usable CPUs.

    ``g`` has at least 14 nodes.  The sweeps take one thread per usable CPU,
    up to one per block.
    """
    n = len(g)
    rows = int(rng.integers(-(-n // 7), -(-n // 2) + 1))
    blocks = -(-n // rows)
    assert 2 <= blocks <= 7
    monkeypatch.setattr("citesum.rank.ROW_BLOCK_BYTES", 8 * n * rows)
    job = WALKS[walk][2]
    solve_block = getattr(rank, job)
    seen = set()

    def recording_block(*args):
        seen.add(threading.get_ident())
        solve_block(*args)

    monkeypatch.setattr(rank, job, recording_block)
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr("citesum.rank._usable_cpus", lambda: cpus)
        seen.clear()
        results.append(walk_in_thread(walk, g, **kwargs))
        assert len(seen) == min(cpus, blocks)
    first = results[0]
    for other in results[1:]:
        assert np.array(list(other.scores.values())).tobytes() == np.array(list(first.scores.values())).tobytes()
        assert other.ids == first.ids
        assert other.iterations == first.iterations
        assert other.residual == first.residual
    return np.array(list(first.scores.values()))


@pytest.mark.usefixtures("short_switch_interval")
@pytest.mark.parametrize("family", FAMILIES)
def test_divrank_bits_do_not_depend_on_the_cpu_count(family, monkeypatch):
    rng = np.random.default_rng(FAMILIES.index(family) + 1401)
    for _ in range(4):
        n = int(rng.integers(14, 61))
        g, _ = with_isolated_nodes(rng, n, family, 0.1)
        texts = [" ".join(["w"] * int(k)) for k in rng.integers(0, 40, n)]
        length_prior = divrank_prior_from_length(toy_citation_set(texts, ids=list(g.nodes)))
        lam = float(rng.uniform(0.5, 0.95))
        alpha = float(rng.uniform(0.05, 0.95))
        for prior in (None, length_prior):
            assert_same_on_any_cpu_count("divrank", g, rng, monkeypatch, lam=lam, alpha=alpha, prior=prior)


@pytest.mark.usefixtures("short_switch_interval")
def test_divrank_bits_do_not_depend_on_the_cpu_count_when_mass_underflows(monkeypatch):
    # Zero-prior isolated nodes in the last blocks underflow to 0 and take
    # the masked product there, as in the several-blocks case above.
    monkeypatch.setattr("citesum.rank.RESIDUAL_TOLERANCE", -1.0)
    monkeypatch.setattr("citesum.rank.MAX_ITERATIONS", 1000)
    rng = np.random.default_rng(1501)
    for trial in range(6):
        family = FAMILIES[trial % len(FAMILIES)]
        n = int(rng.integers(14, 24))
        isolated = np.arange(n) >= rng.integers(n // 2, n)
        w = random_graph(rng, n, family).weights.copy()
        w[isolated, :] = 0.0
        w[:, isolated] = 0.0
        g = make_graph(w)
        prior = {node: (0.0 if iso else float(rng.uniform(0.1, 1.0))) for node, iso in zip(g.nodes, isolated)}
        scores = assert_same_on_any_cpu_count("divrank", g, rng, monkeypatch, lam=0.3, prior=prior)
        assert np.all(scores[isolated] == 0.0)


@pytest.mark.usefixtures("short_switch_interval")
@pytest.mark.parametrize("family", FAMILIES)
def test_lexrank_bits_do_not_depend_on_the_cpu_count(family, monkeypatch):
    rng = np.random.default_rng(FAMILIES.index(family) + 1421)
    for _ in range(6):
        g, _ = with_isolated_nodes(rng, int(rng.integers(14, 61)), family, 0.1)
        threshold, damping = float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.05, 0.95))
        assert_same_on_any_cpu_count("lexrank", g, rng, monkeypatch, threshold=threshold, damping=damping)


def assert_failing_share_raises(walk: str, failing: str, monkeypatch) -> None:
    """Four blocks over three threads; the worker's or the caller's share fails on the sixth sweep."""
    g = random_graph(np.random.default_rng(1601), 40, "uniform")
    monkeypatch.setattr("citesum.rank.ROW_BLOCK_BYTES", 8 * 40 * 10)
    monkeypatch.setattr("citesum.rank._usable_cpus", lambda: 3)
    job = WALKS[walk][2]
    solve_block = getattr(rank, job)
    calls = []

    def failing_block(*args):
        calls.append(None)
        if len(calls) > 20 and (threading.current_thread().name == "solve") == (failing == "caller"):
            raise RuntimeError(f"{failing} share failed")
        solve_block(*args)

    monkeypatch.setattr(rank, job, failing_block)
    with pytest.raises(RuntimeError, match=f"^{failing} share failed$"):
        walk_in_thread(walk, g)


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_divrank_failing_share_raises_and_leaves_no_thread(failing, monkeypatch):
    assert_failing_share_raises("divrank", failing, monkeypatch)


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_lexrank_failing_share_raises_and_leaves_no_thread(failing, monkeypatch):
    assert_failing_share_raises("lexrank", failing, monkeypatch)


@pytest.mark.parametrize("family", FAMILIES)
def test_mmr_matches_oracle(family):
    rng = np.random.default_rng(FAMILIES.index(family) + 901)
    for _ in range(60):
        g = random_graph(rng, int(rng.integers(1, 60)), family)
        assert mmr_order(g).ids == mmr_order_oracle(g).ids


def test_mmr_matches_oracle_on_fixed_graphs(nine_citations, nine_idf):
    for g in (
        make_graph(np.zeros((7, 7))),
        make_graph([[0.0]]),
        build_citation_summary_network(nine_citations, nine_idf),
    ):
        assert mmr_order(g).ids == mmr_order_oracle(g).ids


@pytest.mark.parametrize("family", FAMILIES)
def test_dot_matches_oracle(family):
    rng = np.random.default_rng(FAMILIES.index(family) + 601)
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(1, 40)), family)
        for threshold in (0.0, float(rng.uniform(0.0, 1.0)), 0.5, 1.0):
            assert to_dot(g, threshold) == to_dot_oracle(g, threshold)


def test_dot_matches_oracle_on_fixture(nine_citations, nine_idf):
    g = build_citation_summary_network(nine_citations, nine_idf)
    for threshold in (0.0, 0.05, 0.1, 0.2):
        assert to_dot(g, threshold) == to_dot_oracle(g, threshold)


# Random corpora for the graph build.  Words differ in case and carry
# punctuation, so the tokenizer settings change the terms.
VOCAB = [
    f"{stem}{tail}" for stem in ("Parse", "tree", "CRF", "model", "the", "of") for tail in ("", ",", ".")
]
STOPWORDS = frozenset({"the", "of", "model"})
CORPUS_FAMILIES = ("tiny-vocab", "skewed", "duplicates", "empty-texts")
TOKENIZERS = (
    TokenizerConfig(),
    TokenizerConfig(lowercase=False),
    TokenizerConfig(stopwords=STOPWORDS),
)


def random_texts(rng: np.random.Generator, n: int, family: str) -> list[str]:
    """Sentence texts from one of four families."""
    if family == "tiny-vocab":  # pairs share most of their terms
        vocab = VOCAB[:15]
        return [" ".join(rng.choice(vocab, size=int(rng.integers(5, 25)))) for _ in range(n)]
    wide = VOCAB + [f"w{k}" for k in range(200)]
    if family == "skewed":  # a few terms everywhere, a long tail of rare ones
        p = 1.0 / np.arange(1, len(wide) + 1) ** 1.3
        return [
            " ".join(rng.choice(wide, size=int(rng.integers(1, 30)), p=p / p.sum()))
            for _ in range(n)
        ]
    if family == "duplicates":  # repeated sentences, so the min(1, .) clip can fire
        base = [" ".join(rng.choice(wide, size=int(rng.integers(2, 40)))) for _ in range(3)]
        return [base[int(k)] for k in rng.integers(0, len(base), size=n)]
    # empty, punctuation-only and all-stopword texts have zero norms
    blanks = ["", "  ", "!! ,,", "the of", "The, OF model"]
    return [
        str(rng.choice(blanks)) if rng.uniform() < 0.4
        else " ".join(rng.choice(wide[:40], size=int(rng.integers(1, 12))))
        for _ in range(n)
    ]


def random_idf(rng: np.random.Generator) -> IdfTable:
    """Zero, tiny and ordinary idf values over the words of VOCAB and some of the tail."""
    terms = sorted({w.lower().strip(",.") for w in VOCAB} | {w.strip(",.") for w in VOCAB})
    terms += [f"w{k}" for k in range(0, 200, 3)]
    # 1.5e-162 squares to 0.0: a sentence that has such a term once, and no
    # other term, has a zero norm but a nonzero weight, whose product with
    # the weight of a sentence that repeats the term is nonzero.
    choices = np.array([0.0, 1.5e-162, 1e-150, 1e-9, 1e-3])
    values = {
        t: float(rng.choice(choices) if rng.uniform() < 0.3 else rng.uniform(0.0, 9.0))
        for t in terms
    }
    return IdfTable(values, default_idf=float(rng.uniform(0.5, 9.0)))


def assert_build_matches_oracle(cs: CitationSet, idf: IdfTable, tokenizer: TokenizerConfig) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a zero-norm divide may not warn on stderr
        fast = build_citation_summary_network(cs, idf, tokenizer)
        oracle = build_citation_summary_network_oracle(cs, idf, tokenizer)
    assert fast.nodes == oracle.nodes
    assert np.array_equal(fast.weights, oracle.weights)


@pytest.mark.parametrize("family", CORPUS_FAMILIES)
def test_graph_build_matches_oracle_on_random_corpora(family):
    rng = np.random.default_rng(CORPUS_FAMILIES.index(family) + 701)
    for _ in range(12):
        cs = toy_citation_set(random_texts(rng, int(rng.integers(1, 40)), family))
        for idf in (random_idf(rng), uniform_idf()):
            for tokenizer in TOKENIZERS:
                assert_build_matches_oracle(cs, idf, tokenizer)


def test_graph_build_matches_oracle_on_fixture(nine_citations, nine_idf):
    for idf in (nine_idf, uniform_idf()):
        for tokenizer in TOKENIZERS:
            assert_build_matches_oracle(nine_citations, idf, tokenizer)


def test_graph_build_zeroes_sentences_with_zero_norm():
    # "tiny" once weighs 1.5e-162, whose square is 0.0, so that sentence's
    # norm is 0 although its product with the 40-fold sentence is not.
    cs = toy_citation_set(["tiny", " ".join(["tiny"] * 40) + " tree", "", "tree tiny"])
    idf = IdfTable({"tiny": 1.5e-162}, default_idf=1.0)
    assert_build_matches_oracle(cs, idf, TokenizerConfig())
    g = build_citation_summary_network(cs, idf)
    assert not g.weights[[0, 2]].any()
    assert g.weights[1, 3] > 0.0


# The weighing's edge cases.  Under every tokenizer, "zero" weighs 0, so its
# entries are dropped; in float and mixed tables "tiny" weighs 1.5e-162 once,
# whose square underflows to 0.0; "the", "of" and "model" are stopwords under
# STOPWORDS.
# Every corpus holds a sentence that repeats one token and one whose every
# term weighs 0.
WEIGHING_WORDS = ["zero", "zero.", "tiny", "Tiny,", "tree", "Parse", "crf", "the", "of", "model", "w1", "unseen"]
WEIGHING_TERMS = ["tree", "parse", "Parse", "crf", "the", "of", "model", "w1"]


@st.composite
def weighing_cases(draw):
    floats = st.sampled_from([1.5e-162, 1e-150, 1e-3, 2**0.5]) | st.floats(0.0, 9.0)
    ints = st.integers(0, 2**40)  # count * idf stays below 2**53, where products are exact
    kind = draw(st.sampled_from(["float", "int", "mixed"]))
    value = {"float": floats, "int": ints, "mixed": floats | ints}[kind]
    values = {t: draw(value) for t in WEIGHING_TERMS}
    values["zero"] = 0 if kind == "int" else 0.0
    if kind != "int":
        values["tiny"] = values["Tiny"] = 1.5e-162
    idf = IdfTable(values, default_idf=draw(value))
    words = st.sampled_from(WEIGHING_WORDS)
    texts = draw(st.lists(st.lists(words, max_size=10).map(" ".join), max_size=10))
    for text in (" ".join([draw(words)] * draw(st.integers(2, 5))), "zero zero. zero"):
        texts.insert(draw(st.integers(0, len(texts))), text)
    return toy_citation_set(texts), idf, draw(st.sampled_from(TOKENIZERS))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(weighing_cases())
def test_property_graph_build_weighs_edge_cases_like_the_oracle(case):
    cs, idf, tokenizer = case
    assert_build_matches_oracle(cs, idf, tokenizer)
    p = _postings(cs, idf, tokenizer)
    vectors = [tfidf_vector(tokenize(s.text, tokenizer), idf) for s in cs.sentences]
    assert p.norms.tobytes() == np.array([v.norm for v in vectors]).tobytes()
    for i, v in enumerate(vectors):  # a sentence's entries, in sorted term order
        expected = np.array([v.weights[t] for t in sorted(v.weights)], dtype=float)
        assert p.weight[p.row == i].tobytes() == expected.tobytes()


def test_graph_build_overflows_to_inf_without_a_warning():
    # tfidf_vector's Python floats overflow to inf silently: 2 * 1e308 is an
    # inf weight, and 1e200 squared an inf norm.  Neither term is shared, so
    # no pair product overflows.
    cs = toy_citation_set(["huge huge", "big a", "a b", "b"])
    idf = IdfTable({"huge": 1e308, "big": 1e200}, default_idf=1.0)
    assert_build_matches_oracle(cs, idf, TokenizerConfig())
    assert np.isinf(_postings(cs, idf, TokenizerConfig()).norms[:2]).all()


def test_graph_build_matches_oracle_across_postings_blocks():
    # "tree" is in every sentence and sorts after every other term, so its
    # n * n pairs, more than two chunks, start mid-chunk and hold at least
    # one chunk boundary, which also falls inside one of its rows of n pairs.
    rng = np.random.default_rng(801)
    n = math.isqrt(2 * PAIR_CHUNK) + 1
    assert n * n > 2 * PAIR_CHUNK and PAIR_CHUNK % n != 0
    texts = [f"tree {' '.join(rng.choice(VOCAB, size=int(rng.integers(1, 6))))}" for _ in range(n)]
    idf = IdfTable({"parse": 1.7, "crf": 0.3, "of": 2.9}, default_idf=1.1)
    for tokenizer in TOKENIZERS:
        assert_build_matches_oracle(toy_citation_set(texts), idf, tokenizer)


def test_graph_build_matches_oracle_when_small_terms_fill_a_chunk():
    # Every term is in exactly two sentences, so it has 4 ordered pairs:
    # PAIR_CHUNK / 4 terms fill the first chunk exactly and one more term
    # starts the second.  Most terms share the same few sentence pairs, so
    # each of those cells gets hundreds of adds whose order shows in the bits.
    assert PAIR_CHUNK % 4 == 0
    rng = np.random.default_rng(811)
    n, terms = 12, PAIR_CHUNK // 4 + 1
    words: list[list[str]] = [[] for _ in range(n)]
    for t in range(terms):
        for i in rng.choice(n, size=2, replace=False):
            words[i].append(f"t{t}")
    texts = [" ".join(rng.permutation(w)) for w in words]
    idf = IdfTable({f"t{t}": float(rng.uniform(0.1, 9.0)) for t in range(terms)})
    assert_build_matches_oracle(toy_citation_set(texts), idf, TokenizerConfig())


@pytest.mark.parametrize(
    "texts",
    [["a lone sentence"], [""], ["alpha beta", "gamma delta", "epsilon", ""], ["x", "y", "z x"]],
    ids=["n=1", "n=1-empty", "no-shared-term", "one-shared-term"],
)
def test_graph_build_matches_oracle_with_few_pairs(texts):
    assert_build_matches_oracle(toy_citation_set(texts), uniform_idf(), TokenizerConfig())


def zipf_corpus(n: int, seed: int) -> tuple[CitationSet, IdfTable]:
    """n sentences of 8-29 words from a Zipf vocabulary, with idf = log(n / df)."""
    rng = np.random.default_rng(seed)
    vocab = np.array([f"w{k}" for k in range(3000)])
    p = 1.0 / np.arange(1, len(vocab) + 1) ** 1.1
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(8, 30)), p=p / p.sum()))
        for _ in range(n)
    ]
    df: dict[str, int] = {}
    for text in texts:
        for word in set(text.split()):
            df[word] = df.get(word, 0) + 1
    values = {word: math.log(n / d) for word, d in df.items()}
    return toy_citation_set(texts), IdfTable(values, default_idf=max(values.values()))


# Peak bytes above the n x n result of the per-term postings build that the
# chunked one replaced, on zipf_corpus(n, n) (Python 3.11, numpy 2.4).
POSTINGS_BUILD_EXTRA_MB = {250: 1.15, 1000: 3.91}


@pytest.mark.parametrize("n", sorted(POSTINGS_BUILD_EXTRA_MB))
def test_graph_build_memory_beyond_result_is_bounded(n):
    cs, idf = zipf_corpus(n, n)
    build_citation_summary_network(cs, idf)  # first-call allocations are not the build's
    tracemalloc.start()
    try:
        g = build_citation_summary_network(cs, idf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - g.weights.nbytes) / 1e6 <= POSTINGS_BUILD_EXTRA_MB[n]


@st.composite
def permuted_corpora(draw):
    words = st.sampled_from(["tree", "Parse", "crf", "of", "model", "w1", "w2", "w3", ""])
    texts = draw(st.lists(st.lists(words, max_size=12).map(" ".join), min_size=1, max_size=14))
    return texts, draw(st.permutations(range(len(texts))))


PERMUTATION_IDF = IdfTable(
    {"tree": 0.7, "parse": 1.3, "crf": 2.9, "of": 0.1, "w1": 1e-3}, default_idf=2**0.5
)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(permuted_corpora())
def test_property_graph_build_is_permutation_equivariant(corpus):
    texts, perm = corpus
    cs = toy_citation_set(texts)
    permuted = CitationSet(sentences=tuple(cs.sentences[i] for i in perm))
    g = build_citation_summary_network(cs, PERMUTATION_IDF)
    g_perm = build_citation_summary_network(permuted, PERMUTATION_IDF)
    assert g_perm.nodes == tuple(g.nodes[i] for i in perm)
    assert np.array_equal(g_perm.weights, g.weights[np.ix_(perm, perm)])
