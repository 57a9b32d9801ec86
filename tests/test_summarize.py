"""Budgeted extraction: cluster-driven summaries and ordering assembly."""

import json
import math
import re

import numpy as np
import pytest
from conftest import make_graph, toy_citation_set
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import c_lexrank_summary_oracle, c_rr_summary_oracle, pack_oracle

from citesum.cli import SUMMARIZERS
from citesum.community import Clustering
from citesum.corpus import DataError, RunConfig, uniform_idf
from citesum.graph import build_citation_summary_network
from citesum.rank import Ordering, RankScores, lexrank, random_order
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

    @pytest.mark.parametrize("ids", [("s1", "s2", "zzz"), ("zzz", "s1", "s2"), ("yy", "s1", "s2", "zzz")])
    def test_unknown_ids_rejected(self, ids):
        cs = toy_citation_set(["a", "b"])
        unknown = sorted(set(ids) - {"s1", "s2"})
        with pytest.raises(ValueError, match=re.escape(f"ordering names sentence(s) not in the set: {unknown}")):
            assemble_from_ordering(cs, Ordering(ids, "manual"), 10)

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


def entry_field(key, value):
    return lambda payload: payload["entries"][0].__setitem__(key, value)


class TestSummaryFromJson:
    """Every field keeps the JSON type ``to_json`` writes and the summary keeps
    the packer's rules; nothing is coerced."""

    @staticmethod
    def payload():
        cs = toy_citation_set(["first sentence here", "second one"])
        summary = assemble_from_ordering(cs, Ordering(("s1", "s2"), "manual"), 4)
        return summary, json.loads(summary.to_json())

    def test_cli_json_round_trips(self, tmp_path):
        summary, payload = self.payload()
        path = tmp_path / "s.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert summary_from_json(path) == summary

    @pytest.mark.parametrize(
        "field, corrupt",
        [
            ("entries[0].truncated", entry_field("truncated", "false")),
            ("entries[0].truncated", entry_field("truncated", 0)),
            ("entries[0].words", entry_field("words", 3.9)),
            ("entries[0].words", entry_field("words", True)),
            ("entries[0].words", entry_field("words", "3")),
            ("entries[0].id", entry_field("id", 1)),
            ("entries[0].text", entry_field("text", None)),
            ("entries[0].source_doc", entry_field("source_doc", None)),
            ("entries[1]", lambda p: p["entries"].__setitem__(1, ["s2"])),
            ("entries[0].words", lambda p: p["entries"][0].pop("words")),
            ("entries", lambda p: p.__setitem__("entries", {"0": {}})),
            ("total_words", lambda p: p.__setitem__("total_words", 4.0)),
            ("total_words", lambda p: p.__setitem__("total_words", False)),
            ("budget", lambda p: p.__setitem__("budget", "100")),
            ("budget", lambda p: p.__setitem__("budget", None)),
            ("method", lambda p: p.__setitem__("method", 7)),
        ],
    )
    def test_wrong_type_rejected_naming_file_and_field(self, tmp_path, field, corrupt):
        _, payload = self.payload()
        corrupt(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError) as info:
            summary_from_json(path)
        assert str(info.value).startswith(f"{path}: summary field {field} ")

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (
                lambda p: p.__setitem__("total_words", 3),
                "summary total_words 3 is not the sum of the entries' words (4)",
            ),
            (lambda p: p.__setitem__("budget", 3), "summary total_words 4 exceeds budget 3"),
            (
                lambda p: p["entries"][1].__setitem__("id", "s1"),
                "summary entries[1].id 's1' repeats an earlier id",
            ),
            (
                lambda p: p["entries"][0].__setitem__("truncated", True),
                "summary entries[0] is truncated but not the last entry",
            ),
            (lambda p: p.__setitem__("budget", -1), "summary budget -1 is negative"),
            (lambda p: p.__setitem__("total_words", -4), "summary total_words -4 is negative"),
            (
                lambda p: p["entries"][0].__setitem__("words", -3),
                "summary entries[0].words -3 is negative",
            ),
            (
                lambda p: p["entries"][0].__setitem__("words", 2),
                "summary entries[0].words 2 is not the word count of its text (3)",
            ),
            (
                lambda p: p["entries"][1].__setitem__("words", 2),
                "summary entries[1].words 2 is not the word count of its text (1)",
            ),
        ],
        ids=[
            "total-not-sum", "over-budget", "repeated-id", "truncated-not-last", "negative-budget",
            "negative-total", "negative-words", "words-not-text-count", "truncated-words-not-text-count",
        ],
    )
    def test_broken_rule_rejected_naming_file_and_rule(self, tmp_path, corrupt, message):
        _, payload = self.payload()
        corrupt(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError) as info:
            summary_from_json(path)
        assert str(info.value) == f"{path}: {message}"

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(DataError, match="summary field summary must be an object"):
            summary_from_json(path)

    def test_a_byte_that_is_not_utf8_is_named_by_its_lf_line(self, tmp_path):
        summary, _ = self.payload()
        text = summary.to_json().replace('"text": "', '"text": "\u2028', 1)
        assert "\u2028" in text  # to_json writes it unescaped, inside one line
        path = tmp_path / "s.json"
        path.write_bytes(text.encode("utf-8") + b"\xe9")
        with pytest.raises(DataError, match=rf"s\.json:{text.count(chr(10)) + 1}: not valid UTF-8"):
            summary_from_json(path)

    def test_missing_source_doc_reads_empty(self, tmp_path):
        _, payload = self.payload()
        del payload["entries"][0]["source_doc"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert summary_from_json(path).entries[0].source_doc == ""


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
        baseline = assemble_from_ordering(nine_citations, scores, 100)
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
        visit = cluster_visit_order(g, clustering)
        assert [clustering.assignment[g.nodes[m[0]]] for m in visit] == [1, 0, 2]
        assert visit == [[2, 3], [0, 1], [4]]


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


@pytest.mark.parametrize("method", SUMMARIZERS)
def test_every_summarizer_returns_an_ordering_of_every_sentence(method, nine_citations, fixture_graph):
    summarizer = SUMMARIZERS[method]
    order = summarizer.run(nine_citations, fixture_graph if summarizer.reads_graph else None, RunConfig(), 5)
    assert isinstance(order, Ordering)
    assert sorted(order.ids) == sorted(nine_citations.ids)
    assert order.method == method
    assert isinstance(order, RankScores) is summarizer.yields_scores


@st.composite
def corpora_with_budgets(draw):
    words = st.sampled_from(["tree", "Parse", "crf", "of", "model", "w1", "w2", "w3"])
    texts = draw(st.lists(st.lists(words, max_size=10).map(" ".join), min_size=1, max_size=12))
    return texts, draw(st.integers(1, 60)), draw(st.integers(0, 2**16))


@pytest.fixture(scope="module")
def summary_path(tmp_path_factory):
    return tmp_path_factory.mktemp("summary") / "summary.json"


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(corpora_with_budgets())
def test_property_every_summarizer_fits_its_budget(summary_path, case):
    texts, budget, seed = case
    cs = toy_citation_set(texts)
    g = build_citation_summary_network(cs, uniform_idf())
    for method, summarizer in SUMMARIZERS.items():
        summary = assemble_from_ordering(cs, summarizer.run(cs, g, RunConfig(), seed), budget)
        assert summary.total_words <= budget, method
        assert summary.total_words == sum(e.words for e in summary.entries), method
        assert len(set(summary.sentence_ids)) == len(summary.sentence_ids), method
        assert not any(e.truncated for e in summary.entries[:-1]), method
        summary_path.write_text(summary.to_json(), encoding="utf-8")
        assert summary_from_json(summary_path) == summary, method


@st.composite
def corpora_with_clusterings(draw):
    """A corpus case plus a threshold and, half the time, a clustering of up to four labels."""
    texts, budget, seed = draw(corpora_with_budgets())
    threshold = draw(st.sampled_from([0.0, 0.1, 0.5]))
    labels = draw(st.none() | st.lists(st.integers(0, 3), min_size=len(texts), max_size=len(texts)))
    return texts, budget, seed, threshold, labels


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(corpora_with_clusterings())
def test_property_cluster_summaries_equal_the_queue_oracles(case):
    texts, budget, seed, threshold, labels = case
    cs = toy_citation_set(texts)
    g = build_citation_summary_network(cs, uniform_idf())
    cfg = RunConfig(lexrank_edge_threshold=threshold)
    clustering = None
    if labels is not None:
        dense = {label: k for k, label in enumerate(sorted(set(labels)))}
        clustering = Clustering({sid: dense[c] for sid, c in zip(cs.ids, labels)}, g=len(dense), q=0.0)
    lexrank_oracle = c_lexrank_summary_oracle(cs, g, budget, cfg, clustering)
    rr_oracle = c_rr_summary_oracle(cs, g, budget, seed, clustering)
    assert c_lexrank_summary(cs, g, budget, cfg, clustering) == lexrank_oracle
    assert c_rr_summary(cs, g, budget, seed, clustering) == rr_oracle
    if clustering is None:  # the path cmd_summarize takes
        for method, oracle in (("c-lexrank", lexrank_oracle), ("c-rr", rr_oracle)):
            order = SUMMARIZERS[method].run(cs, g, cfg, seed)
            assert assemble_from_ordering(cs, order, budget) == oracle
            assert not isinstance(order, RankScores)  # no scores to write


@st.composite
def orderings_with_budgets(draw):
    """Sentences of zero or more words, with runs of spaces, in a random order, and a budget
    from 0 to five words past the whole set."""
    pieces = st.sampled_from(["a", "bb", "dé", " ", "   "])
    texts = draw(st.lists(st.lists(pieces, max_size=10).map("".join), min_size=1, max_size=8))
    cs = toy_citation_set(texts)
    order = Ordering(tuple(draw(st.permutations(cs.ids))), "test")
    return cs, order, draw(st.integers(0, total_words(cs) + 5))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(orderings_with_budgets())
def test_property_packing_equals_the_plain_loop(case):
    cs, order, budget = case
    assert assemble_from_ordering(cs, order, budget) == pack_oracle(cs, order, budget)
