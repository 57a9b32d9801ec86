"""The fast kernels against the plain-loop oracles, exactly.

Equality here is strict: the same partition with the same member order, Q
compared with ``==``, path statistics compared as exact tuples, the
clustering coefficient compared with ``==``, the LexRank and DivRank
transitions, the DivRank scores and the similarity weights with
``np.array_equal``, DivRank's iteration count and residual and the MMR
ordering with ``==``, and the DOT text with ``==``.  The one exception is
DivRank over several blocks of rows, whose scores must agree to the relative
bound ``DIVRANK_BLOCKED_RTOL``.
"""

import functools
import math
import tracemalloc
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
    divrank_oracle,
    mmr_order_oracle,
    to_dot_oracle,
    transition_matrix_oracle,
)

from citesum.community import Clustering, block_sums, cluster_cnm, modularity
from citesum.corpus import CitationSet, IdfTable, uniform_idf
from citesum.graph import (
    BFS_BLOCK,
    PAIR_CHUNK,
    average_shortest_path,
    build_citation_summary_network,
    clustering_coefficient,
    to_dot,
)
from citesum.lexical import TokenizerConfig
from citesum.rank import (
    _divrank_base_transitions,
    _transition_matrix,
    divrank,
    divrank_prior_from_length,
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


def assert_same_divrank(g, **kwargs) -> np.ndarray:
    fast, oracle = divrank(g, **kwargs), divrank_oracle(g, **kwargs)
    assert list(fast.scores) == list(oracle.scores)
    scores = np.array(list(fast.scores.values()))
    assert np.array_equal(scores, np.array(list(oracle.scores.values())))
    assert fast.iterations == oracle.iterations
    assert fast.residual == oracle.residual
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


# Over several blocks of rows, DivRank adds its reinforced product block by
# block, so the summation order differs from the one-pass oracle's.  Scores
# then agree to this relative bound (observed: under 4e-15), the iteration
# counts exactly, and the orderings wherever the oracle's scores are further
# apart than the bound allows either side to move.
DIVRANK_BLOCKED_RTOL = 1e-12


def assert_close_divrank(g, rows: int, monkeypatch, **kwargs) -> np.ndarray:
    """DivRank in blocks of ``rows`` rows (the last one ragged) against the oracle."""
    monkeypatch.setattr("citesum.rank.DIVRANK_BLOCK_BYTES", 8 * len(g) * rows)
    fast, oracle = divrank(g, **kwargs), divrank_oracle(g, **kwargs)
    assert list(fast.scores) == list(oracle.scores)
    assert fast.iterations == oracle.iterations
    assert fast.method == oracle.method
    scores = np.array(list(fast.scores.values()))
    expected = np.array(list(oracle.scores.values()))
    np.testing.assert_allclose(scores, expected, rtol=DIVRANK_BLOCKED_RTOL, atol=0.0)
    # oracle order, cut where neighbours differ by more than both may move
    ranked = oracle.ranked_ids()
    runs = [[ranked[0]]]
    for above, below in zip(ranked, ranked[1:]):
        if oracle.scores[above] - oracle.scores[below] > 2 * DIVRANK_BLOCKED_RTOL * oracle.scores[above]:
            runs.append([])
        runs[-1].append(below)
    got = fast.ranked_ids()
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
                assert_close_divrank(g, rows, monkeypatch, lam=lam, alpha=alpha, prior=prior)


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
            scores = assert_close_divrank(g, rows, monkeypatch, lam=0.3, prior=prior)
            assert np.all(scores[isolated] == 0.0)
            assert np.all(np.isfinite(scores))


def test_divrank_in_several_blocks_with_an_empty_mask(monkeypatch):
    # One row per block: n0's block has p > 0 but d = 0, n1's has p = 0.
    g = make_graph([[0.0, 0.5], [0.5, 0.0]])
    scores = assert_close_divrank(g, 1, monkeypatch, lam=0.0, alpha=1.0, prior={"n0": 1.0, "n1": 0.0})
    assert scores.tolist() == [1.0, 0.0]


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
