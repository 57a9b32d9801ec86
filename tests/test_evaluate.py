"""Pyramid scoring, n-gram agreement kappa, and ROUGE-N against hand oracles."""

from collections import Counter

import pytest
from conftest import toy_citation_set
from oracles import kappa_oracle, rouge_n_oracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import citesum.evaluate
from citesum.corpus import DataError, FactoidAnnotation, NuggetSpanAnnotation
from citesum.evaluate import (
    build_pyramid,
    ngram_kappa,
    optimal_weight,
    pyramid_score,
    report_to_tsv,
    rouge_n,
)
from citesum.rank import Ordering
from citesum.summarize import assemble_from_ordering


def annotation(mapping: dict[str, set[str]]) -> FactoidAnnotation:
    factoids = set().union(*mapping.values()) if mapping else set()
    return FactoidAnnotation(
        factoid_ids=frozenset(factoids),
        sentence_factoids={sid: frozenset(f) for sid, f in mapping.items()},
    )


def summary_of(cs, sentence_ids, budget=10_000):
    order = list(sentence_ids) + [sid for sid in cs.ids if sid not in sentence_ids]
    summary = assemble_from_ordering(cs, Ordering(tuple(order), "test"), budget)
    # keep only the requested prefix
    from citesum.summarize import Summary

    entries = tuple(e for e in summary.entries if e.sentence_id in sentence_ids)
    return Summary(
        entries=entries,
        total_words=sum(e.words for e in entries),
        method="test",
        budget=budget,
    )


def pyramid_brute_force(ann: FactoidAnnotation, summary_ids: list[str]) -> tuple[int, int, float]:
    """Independent evaluation: direct counting for D, top-X weight sum for Max.

    Weights come straight from occurrence counts; the optimum is the best
    total over all factoid subsets of size X (maximized by taking the X
    heaviest, cross-checked by enumeration in the acceptance suite).
    """
    counts = Counter()
    for facts in ann.sentence_factoids.values():
        counts.update(facts)
    covered = set()
    for sid in summary_ids:
        covered |= ann.sentence_factoids.get(sid, frozenset())
    d = sum(counts[f] for f in covered)
    x = len(summary_ids)
    weights = sorted(counts.values(), reverse=True)
    max_weight = sum(weights[:x])
    d = min(d, max_weight)
    score = 1.0 if max_weight == 0 else d / max_weight
    return d, max_weight, score


TABLE_ANN = {
    "s1": {"f1"},
    "s2": {"f3"},
    "s3": {"f2"},
    "s4": {"f1"},
    "s5": {"f3"},
    "s6": {"f1", "f2"},
    "s7": {"f2"},
    "s8": {"f1"},
    "s9": set(),
}


@pytest.fixture()
def table_cs():
    return toy_citation_set([f"sentence number {i} words" for i in range(1, 10)])


class TestBuildPyramid:
    def test_table_fixture_tiers(self):
        pyr = build_pyramid(annotation(TABLE_ANN))
        assert pyr.tiers[4] == frozenset({"f1"})
        assert pyr.tiers[3] == frozenset({"f2"})
        assert pyr.tiers[2] == frozenset({"f3"})
        assert pyr.n == 4

    def test_empty_annotation(self):
        pyr = build_pyramid(annotation({"s1": set()}))
        assert pyr.tiers == {}
        assert pyr.n == 0

    def test_single_mention(self):
        pyr = build_pyramid(annotation({"s1": {"f1"}}))
        assert pyr.tiers == {1: frozenset({"f1"})}


class TestOptimalWeight:
    def test_table_fixture_two_sentences(self):
        pyr = build_pyramid(annotation(TABLE_ANN))
        # top tiers hold 1 factoid at weight 4, then 1 at weight 3
        assert optimal_weight(pyr, 2) == 7

    def test_oversized_summary_takes_whole_pyramid(self):
        pyr = build_pyramid(annotation(TABLE_ANN))
        assert optimal_weight(pyr, 50) == 4 + 3 + 2

    def test_zero(self):
        pyr = build_pyramid(annotation(TABLE_ANN))
        assert optimal_weight(pyr, 0) == 0


class TestPyramidScore:
    def test_two_sentence_cap_case(self, table_cs):
        # sentences 6 and 2 cover all three factoids: D = 9 capped at Max = 7
        ann = annotation(TABLE_ANN)
        pyr = build_pyramid(ann)
        report = pyramid_score(summary_of(table_cs, ["s6", "s2"]), ann, pyr)
        assert report.weight_optimal == 7
        assert report.weight_covered == 7  # capped from 9
        assert report.pyramid_score == 1.0

    def test_no_factoid_sentence_scores_zero(self, table_cs):
        ann = annotation(TABLE_ANN)
        report = pyramid_score(summary_of(table_cs, ["s9"]), ann, build_pyramid(ann))
        assert report.pyramid_score == 0.0
        assert report.covered_factoids == 0

    def test_full_summary_scores_one(self, table_cs):
        ann = annotation(TABLE_ANN)
        report = pyramid_score(summary_of(table_cs, list(table_cs.ids)), ann, build_pyramid(ann))
        assert report.pyramid_score == 1.0

    def test_monotone_in_added_sentences(self, table_cs):
        # Raw coverage and the optimum both grow with each added sentence, so
        # the capped covered weight never decreases.
        ann = annotation(TABLE_ANN)
        pyr = build_pyramid(ann)
        ids = []
        last_d = 0
        for sid in table_cs.ids:
            ids.append(sid)
            report = pyramid_score(summary_of(table_cs, ids), ann, pyr)
            assert report.weight_covered >= last_d
            last_d = report.weight_covered

    def test_score_in_unit_interval_randomized(self, table_cs):
        import random

        rng = random.Random(67)
        ann = annotation(TABLE_ANN)
        pyr = build_pyramid(ann)
        for _ in range(100):
            ids = rng.sample(table_cs.ids, rng.randint(1, 9))
            report = pyramid_score(summary_of(table_cs, ids), ann, pyr)
            assert 0.0 <= report.pyramid_score <= 1.0

    def test_matches_brute_force(self, table_cs):
        import random

        rng = random.Random(71)
        ann = annotation(TABLE_ANN)
        pyr = build_pyramid(ann)
        for _ in range(60):
            ids = rng.sample(table_cs.ids, rng.randint(1, 9))
            report = pyramid_score(summary_of(table_cs, ids), ann, pyr)
            d, max_w, score = pyramid_brute_force(ann, ids)
            assert (report.weight_covered, report.weight_optimal) == (d, max_w)
            assert report.pyramid_score == score

    def test_unknown_sentence_rejected(self, table_cs):
        ann = annotation({sid: set() for sid in table_cs.ids if sid != "s1"})
        with pytest.raises(DataError, match="s1"):
            pyramid_score(summary_of(table_cs, ["s1"]), ann, build_pyramid(ann))


def spans(annotator: str, mapping: dict[str, list[tuple[int, int]]]) -> NuggetSpanAnnotation:
    return NuggetSpanAnnotation(
        annotator=annotator,
        sentence_spans={sid: tuple(sp) for sid, sp in mapping.items()},
    )


class TestNgramKappa:
    def test_identical_annotations(self):
        cs = toy_citation_set(["alpha beta gamma delta", "epsilon zeta eta"])
        a = spans("a", {"s1": [(0, 10)]})
        b = spans("b", {"s1": [(0, 10)]})
        for n in (1, 2, 3):
            assert ngram_kappa(a, b, cs, n) == 1.0

    def test_balanced_total_disagreement_negative(self):
        # A marks exactly the tokens B leaves out: observed agreement 0 and
        # both marginals 1/2, so kappa = -1 under per-annotator chance.
        cs = toy_citation_set(["aa bb"])
        a = spans("a", {"s1": [(0, 2)]})
        b = spans("b", {"s1": [(3, 5)]})
        assert ngram_kappa(a, b, cs, 1) == pytest.approx(-1.0, abs=1e-12)

    def test_all_vs_nothing_by_chance_model(self):
        # One annotator marks everything, the other nothing: Pr(a)=0.  The
        # per-annotator model gives expected agreement 0 hence kappa 0; the
        # pooled-marginal model gives -1.
        cs = toy_citation_set(["aa bb cc"])
        a = spans("a", {"s1": [(0, 8)]})
        b = spans("b", {})
        assert ngram_kappa(a, b, cs, 1, chance_model="cohen") == 0.0
        assert ngram_kappa(a, b, cs, 1, chance_model="scott") == pytest.approx(-1.0, abs=1e-12)
        assert ngram_kappa(a, b, cs, 1, chance_model="uniform") == pytest.approx(-1.0, abs=1e-12)

    def test_symmetric_in_annotators(self):
        cs = toy_citation_set(["one two three four five", "six seven eight"])
        a = spans("a", {"s1": [(0, 13)], "s2": [(4, 9)]})
        b = spans("b", {"s1": [(8, 23)]})
        for n in (1, 2, 3):
            for model in ("cohen", "scott", "uniform"):
                assert ngram_kappa(a, b, cs, n, model) == ngram_kappa(b, a, cs, n, model)

    def test_window_containment_rule(self):
        # "one two three": annotator a covers "one two", b covers only "one";
        # bigram window [one two] is in for a, out for b.
        cs = toy_citation_set(["one two three"])
        a = spans("a", {"s1": [(0, 7)]})
        b = spans("b", {"s1": [(0, 3)]})
        # windows: unigrams one/two/three -> a: in,in,out; b: in,out,out
        got = ngram_kappa(a, b, cs, 1)
        pr_a = 2 / 3
        pr_e = (2 / 3) * (1 / 3) + (1 / 3) * (2 / 3)
        assert got == pytest.approx((pr_a - pr_e) / (1 - pr_e), abs=1e-12)

    def test_no_units_error(self):
        cs = toy_citation_set(["short"])
        a = spans("a", {})
        b = spans("b", {})
        with pytest.raises(DataError, match="no units"):
            ngram_kappa(a, b, cs, 3)

    def test_partial_token_overlap_is_out(self):
        cs = toy_citation_set(["partial overlap here"])
        a = spans("a", {"s1": [(0, 4)]})  # covers only part of "partial"
        b = spans("b", {})
        assert ngram_kappa(a, b, cs, 1) == 1.0  # both label every token out

    def test_tokenizes_each_sentence_once_per_call(self, monkeypatch):
        cs = toy_citation_set(["one two three", "four five", "six"])
        a = spans("a", {"s1": [(0, 7)]})
        b = spans("b", {"s2": [(0, 4)]})
        texts = []
        original = citesum.evaluate._token_byte_offsets
        monkeypatch.setattr(
            citesum.evaluate, "_token_byte_offsets", lambda text: texts.append(text) or original(text)
        )
        for n in (1, 2, 3):
            ngram_kappa(a, b, cs, n)
        assert texts == 3 * [s.text for s in cs.sentences]


class TestRougeN:
    def test_identity(self):
        assert rouge_n("a b c d", ["a b c d"], n=2) == 1.0

    def test_disjoint(self):
        assert rouge_n("x y z", ["a b c"], n=1) == 0.0

    def test_hand_bigram_count(self):
        assert rouge_n("a b c", ["a b d"], n=2) == 0.5

    def test_multi_reference_pooling(self):
        # refs: "a b" (1 bigram), "b c" (1 bigram); candidate "a b c" matches both
        assert rouge_n("a b c", ["a b", "b c"], n=2) == 1.0
        # clipped counting: candidate has one "a b" but reference has two
        assert rouge_n("a b x", ["a b a b"], n=2) == pytest.approx(1 / 3, abs=1e-12)

    def test_jackknife_requires_two_references(self):
        with pytest.raises(DataError, match="two references"):
            rouge_n("a b", ["a b"], n=1, jackknife=True)

    def test_jackknife_identical_references_holdout_invariant(self):
        refs = ["the cat sat", "the cat sat", "the cat sat"]
        score = rouge_n("the cat sat on", refs, n=2, jackknife=True)
        assert score == rouge_n("the cat sat on", refs[:2], n=2, jackknife=True)
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_jackknife_hand_case(self):
        # holdout ref1 -> best of {ref2} ; holdout ref2 -> best of {ref1}
        cand = "the cat sat on the mat"
        refs = ["the cat sat on a mat", "a dog sat on the mat"]
        assert rouge_n(cand, refs, n=1, jackknife=True) == pytest.approx(0.75, abs=1e-12)
        assert rouge_n(cand, refs, n=2, jackknife=True) == pytest.approx(0.6, abs=1e-12)

    def test_jackknife_mean_adds_left_to_right(self):
        # Ten holdout scores of 0.1 add to 0.9999999999999999 with plain adds;
        # compensated summation (sum() since Python 3.12, or math.fsum) gives 1.0.
        refs = ["a b c d e f g h i j"] * 10
        assert rouge_n("a", refs, n=1, jackknife=True) == 0.9999999999999999 / 10

    def test_empty_reference_rejected(self):
        with pytest.raises(DataError, match="empty"):
            rouge_n("a", ["a", "  "], n=1)
        with pytest.raises(DataError):
            rouge_n("a", [], n=1)

    def test_case_insensitive(self):
        assert rouge_n("The Cat", ["the cat"], n=2) == 1.0


def test_report_tsv_layout(table_cs):
    ann = annotation(TABLE_ANN)
    pyr = build_pyramid(ann)
    reports = [pyramid_score(summary_of(table_cs, ["s6", "s2"]), ann, pyr)]
    tsv = report_to_tsv(reports)
    header, row = tsv.strip().splitlines()
    assert header.split("\t")[:3] == ["method", "budget", "pyramid"]
    assert row.split("\t")[0] == "test"


WORDS = st.sampled_from(["a", "bb", "ccc", "dé", "e"])


@st.composite
def annotated_summaries(draw):
    texts = draw(st.lists(st.lists(WORDS, max_size=8).map(" ".join), min_size=1, max_size=10))
    cs = toy_citation_set(texts)
    factoids = st.sets(st.sampled_from(["f1", "f2", "f3", "f4"]), max_size=3)
    ann = annotation({sid: draw(factoids) for sid in cs.ids})
    order = Ordering(tuple(draw(st.permutations(cs.ids))), "test")
    return assemble_from_ordering(cs, order, draw(st.integers(1, 40))), ann


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(annotated_summaries())
def test_property_pyramid_score_in_unit_interval(case):
    summary, ann = case
    report = pyramid_score(summary, ann, build_pyramid(ann))
    assert 0.0 <= report.pyramid_score <= 1.0
    assert report.weight_covered <= report.weight_optimal


@st.composite
def two_annotators(draw):
    texts = draw(st.lists(st.lists(WORDS, min_size=1, max_size=8).map(" ".join), min_size=1, max_size=6))
    cs = toy_citation_set(texts)

    def marks(name):
        mapping = {}
        for s in cs.sentences:
            size = len(s.text.encode("utf-8"))
            cuts = sorted(draw(st.sets(st.integers(0, size), max_size=4)))
            mapping[s.id] = [(lo, hi) for lo, hi in zip(cuts[::2], cuts[1::2])]
        return spans(name, mapping)

    return cs, marks("a"), marks("b")


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(two_annotators(), st.integers(1, 3), st.sampled_from(["cohen", "scott", "uniform"]))
def test_property_kappa_is_symmetric(case, n, model):
    cs, a, b = case
    assume(any(s.word_count >= n for s in cs.sentences))
    assert ngram_kappa(a, b, cs, n, model) == ngram_kappa(b, a, cs, n, model)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(two_annotators(), st.integers(1, 3), st.sampled_from(["cohen", "scott", "uniform"]))
def test_property_kappa_equals_the_window_oracle(case, n, model):
    cs, a, b = case
    assume(any(s.word_count >= n for s in cs.sentences))
    assert ngram_kappa(a, b, cs, n, model).hex() == kappa_oracle(a, b, cs, n, model).hex()


@st.composite
def candidates_and_references(draw):
    text = st.lists(st.sampled_from(["a", "A", "bb", "dé", "e"]), max_size=10).map(" ".join)
    return draw(text), draw(st.lists(text.filter(str.strip), min_size=2, max_size=5))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(candidates_and_references(), st.integers(1, 3), st.booleans())
def test_property_rouge_equals_the_counter_oracle(case, n, jackknife):
    candidate, references = case
    got = rouge_n(candidate, references, n, jackknife=jackknife)
    assert got.hex() == rouge_n_oracle(candidate, references, n, jackknife).hex()
