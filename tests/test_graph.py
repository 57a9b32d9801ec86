"""Similarity network construction and small-world statistics vs brute-force oracles."""

import numpy as np
import pytest
from conftest import make_graph, symmetric_random_graph, toy_citation_set

from citesum.corpus import uniform_idf
from citesum.graph import (
    average_shortest_path,
    build_citation_summary_network,
    clustering_coefficient,
    to_dot,
)


def triangle_oracle(adj: np.ndarray) -> float:
    """Exhaustive local clustering: triangles at i over neighbor pairs at i."""
    n = adj.shape[0]
    total = 0.0
    for i in range(n):
        neighbors = [j for j in range(n) if adj[i, j]]
        k = len(neighbors)
        if k < 2:
            continue
        triangles = sum(
            1
            for a in range(k)
            for b in range(a + 1, k)
            if adj[neighbors[a], neighbors[b]]
        )
        total += triangles / (k * (k - 1) / 2)
    return total / n


def floyd_warshall_oracle(adj: np.ndarray) -> tuple[float, float]:
    """All-pairs hop distances by Floyd-Warshall, not BFS."""
    n = adj.shape[0]
    inf = float("inf")
    dist = [[0 if i == j else (1 if adj[i, j] else inf) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    finite = [dist[i][j] for i in range(n) for j in range(i + 1, n) if dist[i][j] < inf]
    pairs = n * (n - 1) // 2
    average = sum(finite) / len(finite) if finite else inf
    return average, (pairs - len(finite)) / pairs if pairs else 0.0


class TestBuild:
    def test_single_sentence(self):
        cs = toy_citation_set(["just one sentence"])
        g = build_citation_summary_network(cs, uniform_idf())
        assert len(g) == 1
        assert g.edge_count(0.0) == 0

    def test_identical_sentences_weigh_one(self):
        cs = toy_citation_set(["same words here", "same words here"])
        g = build_citation_summary_network(cs, uniform_idf())
        assert g.weights[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_fixture_pipelined_pair_dominates(self, nine_citations, nine_idf):
        # Direct-cosine check: s2 and s5 share the distinctive wording and the
        # long shared citation block, so their edge outweighs unrelated pairs.
        g = build_citation_summary_network(nine_citations, nine_idf)
        i2, i5, i8 = g.nodes.index("s2"), g.nodes.index("s5"), g.nodes.index("s8")
        assert g.weights[i2, i5] > g.weights[i2, i8]
        assert g.weights[i2, i5] == max(
            g.weights[i, j] for i in range(9) for j in range(i + 1, 9)
        )

    def test_node_order_matches_input(self, nine_citations, nine_idf):
        g = build_citation_summary_network(nine_citations, nine_idf)
        assert list(g.nodes) == nine_citations.ids

    def test_permutation_equivariance(self, nine_citations, nine_idf):
        from citesum.corpus import CitationSet

        g = build_citation_summary_network(nine_citations, nine_idf)
        rng = np.random.default_rng(5)
        perm = rng.permutation(len(nine_citations))
        permuted = CitationSet(sentences=tuple(nine_citations.sentences[i] for i in perm))
        g_perm = build_citation_summary_network(permuted, nine_idf)
        assert np.array_equal(g_perm.weights, g.weights[np.ix_(perm, perm)])

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            make_graph([[0.0, 0.3], [0.1, 0.0]])
        # One ulp off is still asymmetric: cluster_cnm reads only the upper triangle.
        with pytest.raises(ValueError, match="symmetric"):
            make_graph([[0.0, 0.3], [np.nextafter(0.3, 1.0), 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            make_graph([[0.5, 0.3], [0.3, 0.0]])
        with pytest.raises(ValueError, match="0,1"):
            make_graph([[0.0, 1.3], [1.3, 0.0]])


class TestClusteringCoefficient:
    def test_triangle(self):
        g = make_graph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert clustering_coefficient(g, 0.5) == 1.0

    def test_path(self):
        g = make_graph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert clustering_coefficient(g, 0.5) == 0.0

    def test_four_cycle_with_chord(self):
        # 0-1-2-3-0 plus chord 0-2
        w = np.zeros((4, 4))
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]:
            w[a, b] = w[b, a] = 1.0
        g = make_graph(w)
        expected = triangle_oracle(g.binarize(0.5))
        assert clustering_coefficient(g, 0.5) == pytest.approx(expected, abs=1e-12)
        # hand value: c0=c2=2/3 (two triangles, three neighbor pairs), c1=c3=1
        assert expected == pytest.approx((2 / 3 + 1 + 2 / 3 + 1) / 4, abs=1e-12)

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            g = symmetric_random_graph(rng, int(rng.integers(2, 13)))
            threshold = float(rng.uniform(0.2, 0.8))
            assert clustering_coefficient(g, threshold) == pytest.approx(
                triangle_oracle(g.binarize(threshold)), abs=1e-12
            )


class TestAverageShortestPath:
    def test_complete_k4(self):
        w = 1.0 - np.eye(4)
        stats = average_shortest_path(make_graph(w), 0.5)
        assert stats == (1.0, 0.0)

    def test_path_of_three(self):
        g = make_graph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        stats = average_shortest_path(g, 0.5)
        assert stats.average == pytest.approx((1 + 1 + 2) / 3, abs=1e-12)
        assert stats.disconnected_fraction == 0.0

    def test_two_disconnected_edges(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        stats = average_shortest_path(make_graph(w), 0.5)
        assert stats.average == 1.0
        assert stats.disconnected_fraction == pytest.approx(4 / 6, abs=1e-12)

    def test_singleton(self):
        stats = average_shortest_path(make_graph([[0.0]]), 0.5)
        assert stats.average == float("inf")

    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            g = symmetric_random_graph(rng, int(rng.integers(2, 13)))
            threshold = float(rng.uniform(0.3, 0.9))
            got = average_shortest_path(g, threshold)
            expected_avg, expected_frac = floyd_warshall_oracle(g.binarize(threshold))
            if expected_avg == float("inf"):
                assert got.average == float("inf")
            else:
                assert got.average == pytest.approx(expected_avg, abs=1e-12)
            assert got.disconnected_fraction == pytest.approx(expected_frac, abs=1e-12)


class TestDotExport:
    def test_format(self):
        g = make_graph([[0.0, 0.5], [0.5, 0.0]], names=["s1", "s2"])
        dot = to_dot(g, 0.1)
        assert dot.startswith("graph ")
        assert '"s1";' in dot
        assert '"s1" -- "s2" [label="0.5000"];' in dot
        assert dot.rstrip().endswith("}")

    def test_threshold_filters_edges(self):
        g = make_graph([[0.0, 0.05], [0.05, 0.0]], names=["a", "b"])
        assert "--" not in to_dot(g, 0.1)
