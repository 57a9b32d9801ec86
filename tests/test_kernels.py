"""The fast kernels against the plain-loop oracles, exactly.

Equality here is strict: the same partition with the same member order, Q
compared with ``==``, path statistics compared as exact tuples, the
clustering coefficient compared with ``==``, the DivRank transitions and the
similarity weights with ``np.array_equal``, and the DOT text with ``==``.
"""

import warnings

import numpy as np
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
    to_dot_oracle,
)

from citesum.community import Clustering, block_sums, cluster_cnm, modularity
from citesum.corpus import CitationSet, IdfTable, uniform_idf
from citesum.graph import (
    BFS_BLOCK,
    POSTINGS_BLOCK,
    average_shortest_path,
    build_citation_summary_network,
    clustering_coefficient,
    to_dot,
)
from citesum.lexical import TokenizerConfig
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


def test_graph_build_matches_oracle_across_postings_blocks():
    # One term in every sentence spans three blocks of its outer product.
    rng = np.random.default_rng(801)
    n = 2 * POSTINGS_BLOCK + 3
    texts = [f"tree {' '.join(rng.choice(VOCAB, size=int(rng.integers(1, 6))))}" for _ in range(n)]
    assert_build_matches_oracle(toy_citation_set(texts), uniform_idf(), TokenizerConfig())


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
