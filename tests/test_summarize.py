"""Budgeted extraction: cluster-driven summaries and ordering assembly."""

import math

import numpy as np
import pytest
from conftest import make_graph, toy_citation_set
from hypothesis import given, settings
from hypothesis import strategies as st

from citesum.cli import SUMMARIZERS
from citesum.community import Clustering
from citesum.corpus import RunConfig, uniform_idf
from citesum.graph import build_citation_summary_network
from citesum.rank import Ordering, lexrank, random_order
from citesum.summarize import (
    assemble_from_ordering,
    c_lexrank_summary,
    c_rr_summary,
    cluster_visit_order,
    summary_from_json,
)


def total_words(cs):
    return sum(s.word_count for s in cs.sentences)


def single_cluster(cs):
    return Clustering(assignment={sid: 0 for sid in cs.ids}, g=1, q=0.0)


@pytest.fixture()
def fixture_graph(nine_citations, nine_idf):
    return build_citation_summary_network(nine_citations, nine_idf)


class TestAssemble:
    def test_order_respected(self):
        cs = toy_citation_set(["first sentence", "second sentence"])
        order = Ordering(ids=("s2", "s1"), method="manual")
        summary = assemble_from_ordering(cs, order, 10_000)
        assert summary.sentence_ids == ["s2", "s1"]
        assert summary.total_words == 4

    def test_truncation_at_budget(self):
        cs = toy_citation_set(["w " * 60, "v " * 60])
        order = Ordering(ids=("s1", "s2"), method="manual")
        summary = assemble_from_ordering(cs, order, 100)
        assert summary.total_words == 100
        assert [e.words for e in summary.entries] == [60, 40]
        assert [e.truncated for e in summary.entries] == [False, True]
        assert summary.entries[1].text == " ".join(["v"] * 40)

    def test_budget_zero(self):
        cs = toy_citation_set(["anything at all"])
        summary = assemble_from_ordering(cs, Ordering(("s1",), "manual"), 0)
        assert summary.entries == ()
        assert summary.total_words == 0

    def test_partial_coverage_rejected(self):
        cs = toy_citation_set(["a", "b"])
        with pytest.raises(ValueError, match="cover"):
            assemble_from_ordering(cs, Ordering(("s1",), "manual"), 10)

    def test_json_round_trip(self, tmp_path):
        cs = toy_citation_set(["first sentence here", "second one"])
        summary = assemble_from_ordering(cs, Ordering(("s1", "s2"), "manual"), 4)
        path = tmp_path / "s.json"
        path.write_text(summary.to_json(), encoding="utf-8")
        assert summary_from_json(path) == summary

    def test_text_header(self):
        cs = toy_citation_set(["alpha beta"])
        summary = assemble_from_ordering(cs, Ordering(("s1",), "manual"), 50)
        first = summary.to_text().splitlines()[0]
        assert first == "# method=manual budget=50 words=2"


class TestCLexrank:
    def test_unbounded_budget_contains_every_sentence(self, nine_citations, fixture_graph):
        summary = c_lexrank_summary(nine_citations, fixture_graph, 10_000)
        assert sorted(summary.sentence_ids) == sorted(nine_citations.ids)
        assert summary.total_words == total_words(nine_citations)

    def test_single_sentence_set(self):
        cs = toy_citation_set(["lonely sentence " * 3])
        g = build_citation_summary_network(cs, uniform_idf())
        summary = c_lexrank_summary(cs, g, 100)
        assert summary.sentence_ids == ["s1"]

    def test_single_sentence_truncated_over_budget(self):
        cs = toy_citation_set(["word " * 150])
        g = build_citation_summary_network(cs, uniform_idf())
        summary = c_lexrank_summary(cs, g, 100)
        assert summary.total_words == 100
        assert summary.entries[0].truncated

    def test_no_duplicates(self, nine_citations, fixture_graph):
        for budget in (30, 80, 200, 10_000):
            summary = c_lexrank_summary(nine_citations, fixture_graph, budget)
            assert len(set(summary.sentence_ids)) == len(summary.sentence_ids)

    def test_single_cluster_override_equals_lexrank_baseline(
        self, nine_citations, fixture_graph
    ):
        cfg = RunConfig()
        forced = c_lexrank_summary(
            nine_citations, fixture_graph, 100, cfg, clustering=single_cluster(nine_citations)
        )
        scores = lexrank(fixture_graph, cfg.lexrank_edge_threshold, cfg.lexrank_damping)
        baseline = assemble_from_ordering(
            nine_citations, Ordering(tuple(scores.ranked_ids()), "lexrank"), 100
        )
        assert forced.sentence_ids == baseline.sentence_ids
        assert [e.text for e in forced.entries] == [e.text for e in baseline.entries]

    def test_cluster_coverage(self, nine_citations, fixture_graph):
        # With a budget that admits at least one sentence per cluster, every
        # affordable largest cluster contributes.
        from citesum.community import cluster_cnm

        clustering = cluster_cnm(fixture_graph)
        summary = c_lexrank_summary(nine_citations, fixture_graph, 200)
        chosen_clusters = {clustering.assignment[sid] for sid in summary.sentence_ids}
        clusters = clustering.clusters()
        sizes = sorted(range(clustering.g), key=lambda c: -len(clusters[c]))
        affordable = sizes[: len(summary.sentence_ids)]
        assert set(affordable) <= chosen_clusters

    def test_visit_order_prefers_size_then_weight_then_index(self):
        w = np.zeros((5, 5))
        # cluster 0 = {0,1} weight 0.2; cluster 1 = {2,3} weight 0.9; cluster 2 = {4}
        w[0, 1] = w[1, 0] = 0.2
        w[2, 3] = w[3, 2] = 0.9
        g = make_graph(w)
        clustering = Clustering(
            assignment={"n0": 0, "n1": 0, "n2": 1, "n3": 1, "n4": 2}, g=3, q=0.0
        )
        assert cluster_visit_order(g, clustering) == [1, 0, 2]


class TestCRR:
    def test_one_cluster_one_sentence(self):
        cs = toy_citation_set(["only sentence"])
        g = build_citation_summary_network(cs, uniform_idf())
        summary = c_rr_summary(cs, g, 100, seed=3)
        assert summary.sentence_ids == ["s1"]

    def test_seed_determinism(self, nine_citations, fixture_graph):
        a = c_rr_summary(nine_citations, fixture_graph, 100, seed=11)
        b = c_rr_summary(nine_citations, fixture_graph, 100, seed=11)
        assert a == b

    def test_first_pick_uniform_over_largest_cluster(self):
        # Two explicit clusters; the larger one is visited first and within it
        # the pick is uniform across seeds.
        cs = toy_citation_set([f"sentence number {i} padding" for i in range(5)])
        g = build_citation_summary_network(cs, uniform_idf())
        clustering = Clustering(
            assignment={"s1": 0, "s2": 0, "s3": 0, "s4": 1, "s5": 1}, g=2, q=0.0
        )
        counts = {sid: 0 for sid in ("s1", "s2", "s3")}
        trials = 1000
        for seed in range(trials):
            summary = c_rr_summary(cs, g, 10_000, seed, clustering=clustering)
            counts[summary.sentence_ids[0]] += 1
        p = 1 / 3
        sigma = math.sqrt(trials * p * (1 - p))
        for count in counts.values():
            assert abs(count - trials * p) <= 3 * sigma

    def test_unbounded_budget_is_permutation(self, nine_citations, fixture_graph):
        summary = c_rr_summary(nine_citations, fixture_graph, 10_000, seed=5)
        assert sorted(summary.sentence_ids) == sorted(nine_citations.ids)


class TestBaselineAssembly:
    def test_random_method_permutation_when_unbounded(self, nine_citations):
        order = random_order(nine_citations, 9)
        summary = assemble_from_ordering(nine_citations, order, 10_000)
        assert sorted(summary.sentence_ids) == sorted(nine_citations.ids)

    def test_budget_monotone_words(self, nine_citations, fixture_graph):
        words = [
            c_lexrank_summary(nine_citations, fixture_graph, budget).total_words
            for budget in (10, 50, 100, 400)
        ]
        assert words == sorted(words)
        assert all(
            c_lexrank_summary(nine_citations, fixture_graph, budget).total_words <= budget
            for budget in (10, 50, 100, 400)
        )


@st.composite
def corpora_with_budgets(draw):
    words = st.sampled_from(["tree", "Parse", "crf", "of", "model", "w1", "w2", "w3"])
    texts = draw(st.lists(st.lists(words, max_size=10).map(" ".join), min_size=1, max_size=12))
    return texts, draw(st.integers(1, 60)), draw(st.integers(0, 2**16))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(corpora_with_budgets())
def test_property_every_summarizer_fits_its_budget(case):
    texts, budget, seed = case
    cs = toy_citation_set(texts)
    g = build_citation_summary_network(cs, uniform_idf())
    for method, summarizer in SUMMARIZERS.items():
        summary, _ = summarizer.run(cs, g, RunConfig(), budget, seed)
        assert summary.total_words <= budget, method
        assert summary.total_words == sum(e.words for e in summary.entries), method
        assert len(set(summary.sentence_ids)) == len(summary.sentence_ids), method
        assert not any(e.truncated for e in summary.entries[:-1]), method
