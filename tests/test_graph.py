"""Similarity network construction and small-world statistics vs brute-force oracles."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import make_graph, symmetric_random_graph, toy_citation_set
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import to_dot_oracle
from strategies import split_random_graphs

import citesum
from citesum.corpus import ValidationError, uniform_idf
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

    def test_ids_come_back_from_a_spec_rule_parse(self):
        names = ['a"b', 'a\\"b', "a\\b", '"', "plain"]
        g = make_graph(np.ones((5, 5)) - np.eye(5), names=names)
        dot = to_dot(g, 0.1)
        assert dot == to_dot_oracle(g, 0.1)
        statements = [dot_quoted_strings(line) for line in dot.splitlines()[1:-1]]
        assert statements[:5] == [[name] for name in names]
        assert statements[5:] == [[a, b, "1.0000"] for i, a in enumerate(names) for b in names[i + 1:]]

    @pytest.mark.parametrize("bad", ["a\\", "\\", 'a"\\'])
    def test_an_id_ending_in_a_backslash_is_refused(self, bad):
        g = make_graph([[0.0, 0.5], [0.5, 0.0]], names=["s1", bad])
        with pytest.raises(ValidationError, match=re.escape(repr(bad))):
            to_dot(g, 0.1)
        with pytest.raises(ValueError):
            to_dot_oracle(g, 0.1)


def dot_quoted_strings(line: str) -> list[str]:
    """Every quoted string of one DOT statement, read by the DOT spec's rule:
    inside quotes, ``\\"`` stands for ``"`` and every other character for itself."""
    strings, i = [], 0
    while (i := line.find('"', i)) >= 0:
        chars, i = [], i + 1
        while line[i] != '"':
            if line.startswith('\\"', i):
                chars.append('"')
                i += 2
            else:
                chars.append(line[i])
                i += 1
        strings.append("".join(chars))
        i += 1
    return strings


def test_graph_build_does_not_depend_on_hash_order(fixture_paths, nine_citations, nine_idf):
    """The fixture graph's weight bytes under two string-hash seeds, and in this process."""
    script = (
        "import sys\n"
        "from citesum.corpus import load_citation_set, load_idf_table\n"
        "from citesum.graph import build_citation_summary_network\n"
        "g = build_citation_summary_network(load_citation_set(sys.argv[1]), load_idf_table(sys.argv[2]))\n"
        "sys.stdout.write(g.weights.tobytes().hex())\n"
    )
    src = str(Path(citesum.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    weights = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        argv = [sys.executable, "-c", script, str(fixture_paths["citations"]), str(fixture_paths["idf"])]
        weights.append(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)
    assert weights[0] == weights[1]
    assert weights[0] == build_citation_summary_network(nine_citations, nine_idf).weights.tobytes().hex()


THRESHOLDS = st.sampled_from([0.0, 0.1, 0.3, 0.6])


def to_binary_networkx(networkx, g, threshold):
    """The binarized graph as a networkx ``Graph`` on nodes 0..n-1."""
    return networkx.from_numpy_array(g.binarize(threshold).astype(int))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(split_random_graphs(), THRESHOLDS)
def test_property_clustering_coefficient_matches_networkx(networkx, g, threshold):
    expected = networkx.average_clustering(to_binary_networkx(networkx, g, threshold))
    assert abs(clustering_coefficient(g, threshold) - expected) <= 1e-12


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(split_random_graphs(), THRESHOLDS)
def test_property_average_shortest_path_matches_networkx(networkx, g, threshold):
    n = len(g)
    lengths = dict(networkx.all_pairs_shortest_path_length(to_binary_networkx(networkx, g, threshold)))
    hops = [lengths[i][j] for i in range(n) for j in range(i + 1, n) if j in lengths[i]]
    pairs = n * (n - 1) // 2
    got = average_shortest_path(g, threshold)
    assert got.average == (sum(hops) / len(hops) if hops else float("inf"))
    assert got.disconnected_fraction == ((pairs - len(hops)) / pairs if pairs else 0.0)
