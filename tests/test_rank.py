"""Salience rankers against linear-algebra and simulation oracles."""

import math

import numpy as np
import pytest
from conftest import make_graph, symmetric_random_graph, toy_citation_set, two_cliques_graph
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import random_order_oracle
from strategies import split_random_graphs

from citesum.community import cluster_cnm
from citesum.corpus import ValidationError
from citesum.rank import (
    RESIDUAL_TOLERANCE,
    Ordering,
    RankScores,
    divrank,
    divrank_prior_from_length,
    lexrank,
    mmr_order,
    random_order,
    scores_to_tsv,
)


def lexrank_dense_solve(g, threshold, damping):
    """Oracle: solve (I - damping * T^T) p = (1-damping)/n directly."""
    n = len(g)
    t = g.binarize(threshold).astype(float)
    degrees = t.sum(axis=1)
    t[degrees == 0.0, :] = 1.0 / n
    t[degrees > 0.0] /= t[degrees > 0.0].sum(axis=1, keepdims=True)
    p = np.linalg.solve(np.eye(n) - damping * t.T, (1.0 - damping) / n * np.ones(n))
    return p / p.sum()


class TestLexrank:
    def test_single_node(self):
        scores = lexrank(make_graph([[0.0]]))
        assert scores.scores == {"n0": 1.0}

    def test_complete_graph_uniform(self):
        w = 0.8 * (1.0 - np.eye(5))
        scores = lexrank(make_graph(w))
        for v in scores.scores.values():
            assert v == pytest.approx(0.2, abs=1e-9)

    def test_star_center_dominates_and_matches_solve(self):
        w = np.zeros((5, 5))
        w[0, 1:] = w[1:, 0] = 0.5
        g = make_graph(w)
        scores = lexrank(g, 0.10, 0.85)
        center, leaves = scores.scores["n0"], [scores.scores[f"n{i}"] for i in range(1, 5)]
        assert all(center > leaf for leaf in leaves)
        expected = lexrank_dense_solve(g, 0.10, 0.85)
        for i in range(5):
            assert scores.scores[f"n{i}"] == pytest.approx(expected[i], abs=1e-6)

    def test_scores_sum_to_one_nonnegative(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            g = symmetric_random_graph(rng, int(rng.integers(1, 13)))
            scores = lexrank(g)
            values = list(scores.scores.values())
            assert all(v >= 0.0 for v in values)
            assert sum(values) == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_solve_on_random_graphs(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            g = symmetric_random_graph(rng, n)
            damping = float(rng.uniform(0.5, 0.95))
            got = lexrank(g, 0.10, damping)
            expected = lexrank_dense_solve(g, 0.10, damping)
            diff = max(abs(got.scores[g.nodes[i]] - expected[i]) for i in range(n))
            assert diff < 1e-6

    def test_binarization_makes_scaling_irrelevant(self):
        # Any uniform rescale of weights that keeps every edge on the same
        # side of the threshold gives identical scores.  Weights are sampled
        # away from the 0.10 boundary so scales in [0.6, 1.4] never cross it.
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = 8
            low = rng.uniform(0.0, 0.05, size=(n, n))
            high = rng.uniform(0.2, 0.7, size=(n, n))
            w = np.where(rng.random((n, n)) < 0.5, low, high)
            w = np.triu(w, 1)
            w = w + w.T
            g = make_graph(w)
            scale = float(rng.uniform(0.6, 1.4))
            scaled = make_graph(np.clip(w * scale, 0.0, 1.0))
            assert np.array_equal(g.binarize(0.10), scaled.binarize(0.10))
            assert lexrank(g).scores == lexrank(scaled).scores

    def test_isolated_graph_degenerates_to_uniform(self):
        scores = lexrank(make_graph(np.zeros((4, 4))))
        for v in scores.scores.values():
            assert v == pytest.approx(0.25, abs=1e-9)

    def test_metadata_present(self):
        scores = lexrank(make_graph([[0.0, 0.9], [0.9, 0.0]]))
        assert scores.method == "lexrank"
        assert scores.iterations >= 1
        assert scores.residual < 1e-8


def simulate_reinforced_walk(g, lam, alpha, steps, seed):
    """Oracle: explicit vertex-reinforced random walk, visit frequencies.

    Transition at time T from u: (1-lam)*p*(v) + lam * p0(u,v) N_T(v) / D_T(u),
    with N_T the actual visit counts so far (initialized to 1).
    """
    n = len(g)
    w = g.weights
    degrees = w.sum(axis=1)
    p0 = np.zeros((n, n))
    for u in range(n):
        if degrees[u] == 0.0:
            p0[u, u] = 1.0
        else:
            p0[u, :] = alpha * w[u, :] / degrees[u]
            p0[u, u] = 1.0 - alpha
    p_star = np.full(n, 1.0 / n)
    rng = np.random.default_rng(seed)
    visits = np.ones(n)
    current = int(rng.integers(0, n))
    visits[current] += 1.0
    base = (1.0 - lam) * p_star
    for _ in range(steps):
        reinforced = p0[current] * visits
        probs = base + lam * reinforced / reinforced.sum()
        current = int(rng.choice(n, p=probs / probs.sum()))
        visits[current] += 1.0
    return visits / visits.sum()


class TestDivrank:
    def test_single_node(self):
        scores = divrank(make_graph([[0.0]]))
        assert scores.scores["n0"] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_two_node(self):
        scores = divrank(make_graph([[0.0, 0.7], [0.7, 0.0]]))
        values = list(scores.scores.values())
        assert sum(values) == pytest.approx(1.0, abs=1e-9)
        assert values[0] == pytest.approx(values[1], abs=1e-9)

    def test_sum_one_nonnegative(self):
        rng = np.random.default_rng(59)
        for _ in range(15):
            g = symmetric_random_graph(rng, int(rng.integers(1, 10)))
            scores = divrank(g)
            values = list(scores.scores.values())
            assert all(v >= -1e-15 for v in values)
            assert sum(values) == pytest.approx(1.0, abs=1e-9)

    def test_two_cliques_diversity_vs_lexrank(self):
        g = two_cliques_graph(bridge=0.1)
        d = divrank(g)
        ranked = sorted(d.scores, key=d.scores.get, reverse=True)
        top2 = set(ranked[:2])
        clique_a = set(g.nodes[:4])
        # the two best reinforced-walk nodes sit in different cliques
        assert len(top2 & clique_a) == 1
        # plain lexrank at the default threshold sees two disconnected cliques
        # and ties everything, so its top-2 share the first clique
        lx = lexrank(g)
        lex_top2 = set(lx.ranked_ids()[:2])
        assert lex_top2 <= clique_a

    def test_prior_shifts_mass(self):
        g = two_cliques_graph()
        prior = {node: (10.0 if node == g.nodes[0] else 0.1) for node in g.nodes}
        scores = divrank(g, prior=prior)
        assert scores.scores[g.nodes[0]] == max(scores.scores.values())
        assert scores.method == "divrank-prior"

    def test_bad_prior_rejected(self):
        g = make_graph([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError):
            divrank(g, prior={"n0": -1.0, "n1": 1.0})
        with pytest.raises(ValueError):
            divrank(g, prior={"n0": 0.0, "n1": 0.0})
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                divrank(g, prior={"n0": bad, "n1": 1.0})
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            divrank(g, prior={"n0": 1e308, "n1": 1e308})  # each finite, the total not
        with pytest.raises(ValueError, match="n2"):
            divrank(g, prior={"n0": 1.0, "n1": 1.0, "n2": 1.0})


class TestLengthPrior:
    def test_equal_lengths_uniform(self):
        cs = toy_citation_set(["one two three", "four five six"])
        prior = divrank_prior_from_length(cs)
        assert prior["s1"] == pytest.approx(0.5, abs=1e-12)

    def test_hand_ratio(self):
        cs = toy_citation_set(["w " * 10, "w " * 20])
        prior = divrank_prior_from_length(cs, beta=0.1)
        expected_ratio = 10 ** -0.1 / 20 ** -0.1
        assert prior["s1"] / prior["s2"] == pytest.approx(expected_ratio, abs=1e-12)
        assert prior["s1"] + prior["s2"] == pytest.approx(1.0, abs=1e-12)

    def test_beta_zero_uniform(self):
        cs = toy_citation_set(["a", "b c d e f g h"])
        prior = divrank_prior_from_length(cs, beta=0.0)
        assert prior["s1"] == pytest.approx(prior["s2"], abs=1e-15)

    def test_shorter_gets_more(self):
        cs = toy_citation_set(["tiny one", "a much longer sentence with many more words here"])
        prior = divrank_prior_from_length(cs, beta=0.1)
        assert prior["s1"] > prior["s2"]

    def test_total_adds_left_to_right(self):
        # beta = -8 weighs 100 words as 1e16 and one word as 1.0.  1e16 + 1 + 1
        # is 1e16 with plain adds; compensated summation (sum() since Python
        # 3.12, or math.fsum) gives 1e16 + 2 and shifts every value by an ulp.
        cs = toy_citation_set(["w " * 100, "w", "w"])
        assert divrank_prior_from_length(cs, beta=-8.0) == {"s1": 1.0, "s2": 1e-16, "s3": 1e-16}

    @pytest.mark.parametrize("beta", [1000.0, -400.0, float("nan")])
    def test_prior_that_overflows_or_vanishes_is_a_value_error(self, beta):
        cs = toy_citation_set(["w " * 10, "w " * 20])
        with pytest.raises(ValidationError, match=f"divrank_beta = {beta!r}") as exc:
            divrank_prior_from_length(cs, beta=beta)
        assert isinstance(exc.value, ValueError)


class TestMmr:
    def test_single_node(self):
        assert mmr_order(make_graph([[0.0]])).ids == ("n0",)

    def test_anti_similarity_hand_case(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 0.9
        w[0, 2] = w[2, 0] = 0.1
        w[1, 2] = w[2, 1] = 0.1
        order = mmr_order(make_graph(w, names=["a", "b", "c"]))
        assert order.ids[0] == "a"  # ties on total similarity break by input order
        assert order.ids[1] == "c"  # sim(c,a)=0.1 < sim(b,a)=0.9

    def test_zero_graph_keeps_input_order(self):
        order = mmr_order(make_graph(np.zeros((4, 4))))
        assert order.ids == ("n0", "n1", "n2", "n3")

    def test_each_pick_minimizes_objective(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            g = symmetric_random_graph(rng, int(rng.integers(2, 10)))
            order = [g.nodes.index(node) for node in mmr_order(g).ids]
            selected = [order[0]]
            for pick in order[1:]:
                candidates = [i for i in range(len(g)) if i not in selected]
                objective = {i: max(g.weights[i, j] for j in selected) for i in candidates}
                assert objective[pick] == min(objective.values())
                selected.append(pick)


class TestRandomOrder:
    def test_single(self):
        cs = toy_citation_set(["only"])
        assert random_order(cs, 7).ids == ("s1",)

    def test_seed_determinism(self):
        cs = toy_citation_set([f"sentence {i}" for i in range(8)])
        assert random_order(cs, 7).ids == random_order(cs, 7).ids
        assert random_order(cs, 7).ids != random_order(cs, 8).ids

    def test_matches_the_randint_swap_loop(self):
        for n in range(300):
            cs = toy_citation_set([f"sentence {i}" for i in range(n)])
            for seed in range(5):
                assert random_order(cs, seed) == random_order_oracle(cs, seed)

    def test_uniform_over_permutations(self):
        cs = toy_citation_set(["a", "b", "c", "d"])
        counts = {}
        trials = 10_000
        for seed in range(trials):
            perm = random_order(cs, seed).ids
            counts[perm] = counts.get(perm, 0) + 1
        assert len(counts) == 24
        p = 1 / 24
        sigma = math.sqrt(trials * p * (1 - p))
        for count in counts.values():
            assert abs(count - trials * p) <= 3 * sigma


def test_scores_tsv_sorted_descending():
    g = make_graph([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    tsv = scores_to_tsv(lexrank(g, 0.1, 0.85))
    rows = [line.split("\t") for line in tsv.strip().splitlines()]
    values = [float(v) for _, v in rows]
    assert values == sorted(values, reverse=True)
    assert all(len(v.split(".")[1]) == 6 for _, v in rows)


def test_tied_scores_keep_input_order():
    scores = RankScores({"c": 0.2, "a": 0.3, "d": 0.2, "b": 0.2, "e": 0.1}, "manual", 1, 0.0)
    assert scores.ranked_ids() == ["a", "c", "d", "b", "e"]
    assert scores_to_tsv(scores) == "a\t0.300000\nc\t0.200000\nd\t0.200000\nb\t0.200000\ne\t0.100000\n"


@pytest.mark.parametrize(
    ("function", "message"),
    [
        (lexrank, "cannot rank an empty graph"),
        (divrank, "cannot rank an empty graph"),
        (mmr_order, "cannot order an empty graph"),
        (cluster_cnm, "cannot cluster an empty graph"),
    ],
)
def test_empty_graph_raises_value_error(function, message):
    with pytest.raises(ValueError, match=message):
        function(make_graph(np.zeros((0, 0))))


def test_ordering_rejects_duplicates():
    with pytest.raises(ValueError, match="permutation"):
        Ordering(ids=("a", "a"), method="x")


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(split_random_graphs(), st.sampled_from([0.0, 0.1, 0.3]), st.sampled_from([0.5, 0.85, 0.95]))
def test_property_lexrank_matches_networkx_pagerank(networkx, g, threshold, damping):
    scores = lexrank(g, threshold, damping)
    digraph = networkx.from_numpy_array(g.binarize(threshold).astype(int), create_using=networkx.DiGraph)
    expected = networkx.pagerank(digraph, alpha=damping, weight=None, tol=1e-15, max_iter=100_000)
    got = np.array([scores.scores[node] for node in g.nodes])
    want = np.array([expected[i] for i in range(len(g))])
    # Each power step shrinks the L1 step by ``damping``, so a stop after an
    # L1 step r leaves at most damping / (1 - damping) * r to the fixed point.
    bound = damping / (1.0 - damping) * scores.residual + 1e-12
    assert np.abs(got - want).max() <= bound
    ranked = [g.nodes.index(node) for node in scores.ranked_ids()]
    for a, b in zip(ranked, ranked[1:]):
        if got[a] - got[b] > 2.0 * bound:
            assert want[a] > want[b]


def divrank_update(w: list[list[float]], p: list[float], lam: float, alpha: float, p_star: list[float]):
    """One step of cumulative DivRank (Mei, Guo and Radev, KDD 2010), the scores standing in for visits.

    p0(u, v) = alpha * w(u, v) / deg(u) for v != u and p0(u, u) = 1 - alpha,
    or p0(u, u) = 1 for a node of degree 0; D(u) = sum_v p0(u, v) * p(v); and
    p'(v) = (1 - lam) * p*(v) + lam * sum_u p(u) * p0(u, v) * p(v) / D(u).
    """
    n = len(p)
    p0 = []
    for u in range(n):
        degree = sum(w[u])
        row = [alpha * w[u][v] / degree if degree else 0.0 for v in range(n)]
        row[u] = 1.0 - alpha if degree else 1.0
        p0.append(row)
    d = [sum(p0[u][v] * p[v] for v in range(n)) for u in range(n)]
    return [
        (1.0 - lam) * p_star[v] + lam * sum(p[u] * p0[u][v] * p[v] / d[u] for u in range(n) if d[u] > 0.0)
        for v in range(n)
    ]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    split_random_graphs(max_n=25), st.sampled_from([0.5, 0.75, 0.9]), st.sampled_from([0.1, 0.25, 0.75]),
    st.none() | st.lists(st.floats(0.05, 1.0), min_size=25, max_size=25),
)
def test_property_divrank_is_a_fixed_point_of_the_update(g, lam, alpha, weights):
    n = len(g)
    prior = None if weights is None else dict(zip(g.nodes, weights))
    scores = divrank(g, lam, alpha, prior)
    p = [scores.scores[node] for node in g.nodes]
    p_star = [1.0 / n] * n if weights is None else [x / sum(weights[:n]) for x in weights[:n]]
    step = divrank_update(g.weights.tolist(), p, lam, alpha, p_star)
    assert sum(abs(a - b) for a, b in zip(step, p)) < RESIDUAL_TOLERANCE


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    split_random_graphs(max_n=25), st.sampled_from([0.3, 0.5, 0.8]), st.sampled_from([0.1, 0.25, 0.75]),
    st.lists(st.floats(0.05, 1.0), min_size=25, max_size=25), st.integers(0, 24), st.sampled_from([0.5, 2.0]),
)
def test_property_more_prior_mass_never_lowers_a_divrank_score(g, lam, alpha, weights, k, extra):
    """Up to lam = 0.8; at the default 0.9 the walk can settle elsewhere (next test)."""
    prior = dict(zip(g.nodes, weights))
    node = g.nodes[k % len(g)]
    before = divrank(g, lam, alpha, prior).scores[node]
    prior[node] += extra
    assert divrank(g, lam, alpha, prior).scores[node] >= before


def test_more_prior_mass_can_move_divrank_to_a_fixed_point_where_the_node_scores_less():
    """The reinforced walk has several stable fixed points, and DivRank returns
    the one its uniform start reaches.  On this 4-cycle at the default lam and
    alpha, doubling n0's prior moves that start into another basin: n0 falls
    from 0.286 to 0.075, although a fixed point with n0 at 0.540 exists."""
    w = [[0.0, 0.1, 0.9, 0.0], [0.1, 0.0, 0.0, 1.0], [0.9, 0.0, 0.0, 0.4], [0.0, 1.0, 0.4, 0.0]]
    g = make_graph(w)
    uniform = divrank(g).scores["n0"]
    doubled = divrank(g, prior={"n0": 2.0, "n1": 1.0, "n2": 1.0, "n3": 1.0}).scores["n0"]
    assert doubled < uniform - 0.2
    p_star = [0.4, 0.2, 0.2, 0.2]
    p = [0.7, 0.1, 0.1, 0.1]  # from a start that favours n0, the walk settles high on n0
    for _ in range(5000):
        p = divrank_update(w, p, 0.9, 0.25, p_star)
    assert p[0] > 0.5
    assert sum(abs(a - b) for a, b in zip(divrank_update(w, p, 0.9, 0.25, p_star), p)) < RESIDUAL_TOLERANCE
