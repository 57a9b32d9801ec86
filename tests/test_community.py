"""Modularity, greedy agglomeration, purity, and NMI against independent oracles."""

import math
import random

import numpy as np
import pytest
from conftest import make_graph, symmetric_random_graph
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from citesum.community import Clustering, cluster_cnm, clustering_to_tsv, modularity, nmi, purity
from citesum.graph import SimilarityGraph


def modularity_oracle(g: SimilarityGraph, assignment: dict[str, int]) -> float:
    """Direct double-sum evaluation: (1/2m) sum_vw (A_vw - k_v k_w / 2m) [c_v == c_w]."""
    w = g.weights
    n = len(g)
    two_m = w.sum()
    if two_m == 0.0:
        return 0.0
    k = w.sum(axis=1)
    labels = [assignment[node] for node in g.nodes]
    q = 0.0
    for v in range(n):
        for u in range(n):
            if labels[v] == labels[u]:
                q += w[v, u] - k[v] * k[u] / two_m
    return q / two_m


def set_partitions(items: list):
    """All partitions of a list (restricted growth strings)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i, subset in enumerate(smaller):
            yield smaller[:i] + [subset + [first]] + smaller[i + 1 :]
        yield [[first]] + smaller


def clustering_from_blocks(blocks: list[list[str]]) -> Clustering:
    assignment = {node: i for i, block in enumerate(blocks) for node in block}
    return Clustering(assignment=assignment, g=len(blocks), q=0.0)


def purity_oracle(blocks: list[list[str]], classes: dict[str, str]) -> float:
    n = sum(len(b) for b in blocks)
    total = 0
    class_sets = {}
    for node, label in classes.items():
        class_sets.setdefault(label, set()).add(node)
    for block in blocks:
        total += max(len(set(block) & members) for members in class_sets.values())
    return total / n


def nmi_oracle(blocks: list[list[str]], classes: dict[str, str]) -> float:
    """Probability-form evaluation of mutual information over entropy mean."""
    n = sum(len(b) for b in blocks)
    class_sets: dict[str, set] = {}
    for node, label in classes.items():
        class_sets.setdefault(label, set()).add(node)
    p_cluster = [len(b) / n for b in blocks]
    p_class = [len(c) / n for c in class_sets.values()]
    mutual = 0.0
    for block, pk in zip(blocks, p_cluster):
        for members, pj in zip(class_sets.values(), p_class):
            p_joint = len(set(block) & members) / n
            if p_joint > 0.0:
                mutual += p_joint * math.log(p_joint / (pk * pj))
    h_cluster = -sum(p * math.log(p) for p in p_cluster if p > 0)
    h_class = -sum(p * math.log(p) for p in p_class if p > 0)
    if h_cluster == 0.0 and h_class == 0.0:
        return 1.0
    return mutual / ((h_cluster + h_class) / 2)


def nmi_loop_oracle(clustering: Clustering, classes: dict[str, str]) -> float:
    """``nmi`` as it was written with its own loops: each accumulator starts at
    0.0 and takes one plain float add or subtract per term."""
    nodes = list(clustering.assignment)
    n = len(nodes)
    cluster_sizes: dict[int, int] = {}
    class_sizes: dict[str, int] = {}
    joint: dict[tuple[int, str], int] = {}
    for node in nodes:
        ck, cj = clustering.assignment[node], classes[node]
        cluster_sizes[ck] = cluster_sizes.get(ck, 0) + 1
        class_sizes[cj] = class_sizes.get(cj, 0) + 1
        joint[(ck, cj)] = joint.get((ck, cj), 0) + 1
    h_clusters = h_classes = 0.0
    for s in cluster_sizes.values():
        h_clusters -= s / n * math.log(s / n)
    for s in class_sizes.values():
        h_classes -= s / n * math.log(s / n)
    if h_clusters == 0.0 and h_classes == 0.0:
        return 1.0
    mutual = 0.0
    for (ck, cj), count in joint.items():
        mutual += count / n * math.log(n * count / (cluster_sizes[ck] * class_sizes[cj]))
    return min(1.0, max(0.0, mutual / ((h_clusters + h_classes) / 2.0)))


def two_triangles() -> SimilarityGraph:
    w = np.zeros((6, 6))
    for base in (0, 3):
        for i in range(3):
            for j in range(3):
                if i != j:
                    w[base + i, base + j] = 1.0
    return make_graph(w)


class TestModularity:
    def test_single_cluster_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = symmetric_random_graph(rng, int(rng.integers(2, 9)))
            assert modularity(g, {node: 0 for node in g.nodes}) == 0.0

    def test_two_cliques_split_is_half(self):
        g = two_triangles()
        split = {node: (0 if i < 3 else 1) for i, node in enumerate(g.nodes)}
        assert modularity(g, split) == pytest.approx(0.5, abs=1e-12)

    def test_random_assignment_near_zero_in_expectation(self):
        # Monte-Carlo over iid 2-way label draws.  At n=6 the exact expectation
        # is -1/12 (a variance term that vanishes as n grows), so "about zero"
        # here means near -1/12 and nowhere near the planted split's 0.5.
        g = two_triangles()
        rng = np.random.default_rng(29)
        values = []
        for _ in range(3000):
            assignment = {node: int(rng.integers(0, 2)) for node in g.nodes}
            values.append(modularity(g, assignment))
        mean = float(np.mean(values))
        assert mean == pytest.approx(-1 / 12, abs=0.02)
        assert abs(mean) < 0.15 < 0.5

    def test_relabeling_invariance(self):
        g = two_triangles()
        split = {node: (0 if i < 3 else 1) for i, node in enumerate(g.nodes)}
        swapped = {node: 1 - c for node, c in split.items()}
        assert modularity(g, split) == pytest.approx(modularity(g, swapped), abs=1e-15)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            g = symmetric_random_graph(rng, n)
            assignment = {node: int(rng.integers(0, n)) for node in g.nodes}
            # densify labels so Clustering-style and arbitrary labels both occur
            assert modularity(g, assignment) == pytest.approx(
                modularity_oracle(g, assignment), abs=1e-12
            )

    def test_empty_graph_rejected(self):
        g = make_graph(np.zeros((0, 0)))
        with pytest.raises(ValueError, match="undefined"):
            modularity(g, {})


class TestClusterCnm:
    def test_single_node(self):
        c = cluster_cnm(make_graph([[0.0]]))
        assert c.g == 1
        assert c.q == 0.0

    def test_recovers_disconnected_cliques(self):
        g = two_triangles()
        c = cluster_cnm(g)
        assert c.g == 2
        groups = {frozenset(members) for members in c.clusters()}
        assert groups == {frozenset(["n0", "n1", "n2"]), frozenset(["n3", "n4", "n5"])}
        # exhaustive search confirms this is the max-Q partition
        best = max(
            (modularity(g, clustering_from_blocks(blocks).assignment), blocks)
            for blocks in set_partitions(list(g.nodes))
        )
        assert {frozenset(b) for b in best[1]} == groups

    def test_returned_q_matches_recomputation(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            g = symmetric_random_graph(rng, int(rng.integers(2, 10)))
            c = cluster_cnm(g)
            assert c.q == pytest.approx(modularity(g, c.assignment), abs=1e-10)

    def test_beats_trivial_partitions_and_bounded_by_optimum(self):
        rng = np.random.default_rng(41)
        for _ in range(12):
            n = int(rng.integers(2, 8))
            g = symmetric_random_graph(rng, n)
            c = cluster_cnm(g)
            q = modularity(g, c.assignment)
            singletons = {node: i for i, node in enumerate(g.nodes)}
            one = {node: 0 for node in g.nodes}
            assert q >= modularity(g, singletons) - 1e-12
            assert q >= modularity(g, one) - 1e-12
            optimum = max(
                modularity(g, clustering_from_blocks(blocks).assignment)
                for blocks in set_partitions(list(g.nodes))
            )
            assert q <= optimum + 1e-10

    def test_zero_weight_graph_keeps_singletons(self):
        g = make_graph(np.zeros((4, 4)))
        c = cluster_cnm(g)
        assert c.g == 4
        assert c.q == 0.0

    def test_deterministic(self, nine_citations, nine_idf):
        from citesum.graph import build_citation_summary_network

        g = build_citation_summary_network(nine_citations, nine_idf)
        assert cluster_cnm(g) == cluster_cnm(g)

    def test_fixture_groups_pipelined_pair(self, nine_citations, nine_idf):
        # Soft golden check: the two sentences sharing the distinctive wording
        # end up together, the partition is non-trivial, and Q is positive.
        from citesum.graph import build_citation_summary_network

        g = build_citation_summary_network(nine_citations, nine_idf)
        c = cluster_cnm(g)
        assert c.g >= 2
        assert c.assignment["s2"] == c.assignment["s5"]
        assert modularity(g, c.assignment) > 0.0


class TestPurityNmi:
    def test_identical_partitions(self):
        blocks = [["a", "b"], ["c", "d", "e"]]
        classes = {"a": "x", "b": "x", "c": "y", "d": "y", "e": "y"}
        c = clustering_from_blocks(blocks)
        assert purity(c, classes) == 1.0
        assert nmi(c, classes) == pytest.approx(1.0, abs=1e-12)

    def test_crossed_pairs(self):
        c = clustering_from_blocks([["a", "b"], ["c", "d"]])
        classes = {"a": "x", "c": "x", "b": "y", "d": "y"}
        assert purity(c, classes) == 0.5
        assert nmi(c, classes) == pytest.approx(0.0, abs=1e-12)

    def test_single_cluster_single_class_convention(self):
        c = clustering_from_blocks([["a", "b"]])
        assert nmi(c, {"a": "x", "b": "x"}) == 1.0

    def test_entropies_add_left_to_right(self):
        # Compensated summation of the entropies (sum() since Python 3.12, or
        # math.fsum) gives 0.1809948690450145, one ulp lower.
        c = clustering_from_blocks([["a"], ["b", "c", "d", "e", "f"]])
        classes = {"a": "x", "b": "y", "c": "y", "d": "x", "e": "x", "f": "z"}
        assert nmi(c, classes) == 0.18099486904501452

    def test_bits_match_the_loop_copy_on_random_partitions(self):
        for seed in range(400):
            rng = random.Random(seed)
            n = rng.randint(1, 60)
            nodes = [f"n{i}" for i in range(n)]
            rng.shuffle(nodes)
            k = rng.randint(1, n)
            labels = [rng.randrange(k) for _ in nodes]
            dense = {label: i for i, label in enumerate(dict.fromkeys(labels))}
            c = Clustering({node: dense[label] for node, label in zip(nodes, labels)}, g=len(dense), q=0.0)
            classes = {node: f"c{rng.randrange(rng.randint(1, n))}" for node in nodes}
            assert nmi(c, classes).hex() == nmi_loop_oracle(c, classes).hex(), seed

    def test_matches_oracle_over_all_partitions(self):
        items = ["a", "b", "c", "d", "e"]
        all_blocks = list(set_partitions(items))
        for cluster_blocks in all_blocks:
            c = clustering_from_blocks(cluster_blocks)
            for class_blocks in all_blocks:
                classes = {
                    node: f"c{i}" for i, block in enumerate(class_blocks) for node in block
                }
                assert purity(c, classes) == pytest.approx(
                    purity_oracle(cluster_blocks, classes), abs=1e-12
                )
                got = nmi(c, classes)
                assert got == pytest.approx(nmi_oracle(cluster_blocks, classes), abs=1e-12)
                assert 0.0 <= got <= 1.0


@st.composite
def permuted_random_graphs(draw):
    """Uniform weights from a drawn seed, so no two merge gains tie, and a node permutation."""
    n = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.0, 1.0, size=(n, n))
    w = np.triu(w, 1) * (rng.uniform(size=(n, n)) < draw(st.sampled_from([0.3, 0.7, 1.0])))
    return make_graph(w + w.T), draw(st.permutations(range(n)))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(permuted_random_graphs())
def test_property_cnm_is_permutation_equivariant(case):
    g, perm = case
    permuted = make_graph(g.weights[np.ix_(perm, perm)], [g.nodes[i] for i in perm])
    a, b = cluster_cnm(g), cluster_cnm(permuted)
    assert {frozenset(m) for m in a.clusters()} == {frozenset(m) for m in b.clusters()}
    # The weight totals are added in node order, so Q may move in the last bits.
    assert abs(a.q - b.q) <= 1e-12


def to_networkx(networkx, g: SimilarityGraph):
    """The weighted graph as a networkx ``Graph``, one edge per nonzero weight."""
    nx_graph = networkx.Graph()
    nx_graph.add_nodes_from(g.nodes)
    for i, j in zip(*np.nonzero(np.triu(g.weights, 1))):
        nx_graph.add_edge(g.nodes[i], g.nodes[j], weight=g.weights[i, j])
    return nx_graph


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(permuted_random_graphs(), st.lists(st.integers(0, 3), min_size=16, max_size=16))
def test_property_modularity_matches_networkx(networkx, case, labels):
    g, _ = case
    assume(g.weights.sum() > 0.0)
    assignment = {node: labels[i] for i, node in enumerate(g.nodes)}
    nx_graph = to_networkx(networkx, g)
    communities = [
        {node for node, label in assignment.items() if label == c} for c in set(labels[: len(g)])
    ]
    expected = networkx.community.modularity(nx_graph, communities, weight="weight")
    assert abs(modularity(g, assignment) - expected) <= 1e-12


@st.composite
def tie_free_graphs(draw):
    """Uniform weights at a drawn density: no two merge gains tie, so the tie rules never matter."""
    n = draw(st.integers(3, 39))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
    w *= rng.uniform(size=(n, n)) < draw(st.sampled_from([0.05, 0.15, 0.4, 1.0]))
    return make_graph(w + w.T)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(tie_free_graphs())
def test_property_cnm_matches_networkx(networkx, g):
    # networkx breaks ties differently, so graphs with ties are left to
    # cluster_cnm_oracle in test_kernels.py.
    assume(g.weights.sum() > 0.0)
    nx_graph = to_networkx(networkx, g)
    expected = networkx.community.greedy_modularity_communities(nx_graph, weight="weight")
    got = cluster_cnm(g)
    assert {frozenset(m) for m in got.clusters()} == {frozenset(m) for m in expected}


def test_clustering_tsv_export():
    c = clustering_from_blocks([["a", "b"], ["c"]])
    c = Clustering(assignment=c.assignment, g=c.g, q=0.25)
    tsv = clustering_to_tsv(c, ["a", "b", "c"])
    lines = tsv.splitlines()
    assert lines[0] == "# Q=0.250000"
    assert lines[1:] == ["a\t0", "b\t0", "c\t1"]


def test_one_cluster_q_residue_exports_as_zero():
    # CNM merges all three nodes; its Q is -5.55e-17 where modularity() gives 0.0.
    g = make_graph([[0.0, 0.9, 0.1], [0.9, 0.0, 0.2], [0.1, 0.2, 0.0]], names="abc")
    c = cluster_cnm(g)
    assert c.g == 1 and -1e-12 < c.q < 0.0
    assert clustering_to_tsv(c, g.nodes).splitlines()[0] == "# Q=0.000000"
