"""Tokenizer, TF-IDF weighting, and the one-pair cosine oracle in ``tests/oracles.py``."""

import random

import pytest
from oracles import cosine_similarity

from citesum.corpus import IdfTable, uniform_idf
from citesum.lexical import TermVector, TokenizerConfig, tfidf_vector, tokenize


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Three New Probabilistic Models") == [
            "three",
            "new",
            "probabilistic",
            "models",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_stripped_golden(self):
        # Frozen default-config behavior: punctuation collapses within a token.
        assert tokenize("O(n3) parsing algorithm") == ["on3", "parsing", "algorithm"]
        assert tokenize("(Cohn & Blunsom, 2005;") == ["cohn", "blunsom", "2005"]

    def test_stopwords_removed(self):
        cfg = TokenizerConfig(stopwords=frozenset({"the", "a"}))
        assert tokenize("The cat and a hat", cfg) == ["cat", "and", "hat"]

    def test_no_lowercase_option(self):
        cfg = TokenizerConfig(lowercase=False)
        assert tokenize("Tree CRF", cfg) == ["Tree", "CRF"]

    def test_deterministic(self):
        text = "Some researchers used a pipelined approach; others did not."
        assert tokenize(text) == tokenize(text)


class TestTfidfVector:
    def test_raw_tf_times_idf(self):
        idf = IdfTable({"a": 2.0, "b": 3.0}, default_idf=3.0)
        vec = tfidf_vector(["a", "a", "b"], idf)
        assert vec.weights == {"a": 4.0, "b": 3.0}

    def test_empty_tokens(self):
        vec = tfidf_vector([], uniform_idf())
        assert vec.weights == {}
        assert vec.norm == 0.0

    def test_unseen_term_uses_default(self):
        idf = IdfTable({"a": 2.0}, default_idf=5.0)
        assert tfidf_vector(["mystery"], idf).weights == {"mystery": 5.0}

    def test_norm_matches_recomputation(self):
        idf = IdfTable({"a": 2.0, "b": 3.0, "c": 0.5}, default_idf=3.0)
        vec = tfidf_vector(["a", "b", "b", "c"], idf)
        recomputed = sum(w * w for w in vec.weights.values()) ** 0.5
        assert abs(vec.norm - recomputed) <= 1e-9 * recomputed

    def test_norm_adds_squares_left_to_right(self):
        # 1e16 + 1 + 1 is 1e16 with plain adds; compensated summation (sum()
        # since Python 3.12) gives 1e16 + 2, whose root is one ulp higher.
        assert vec({"a": 1e8, "b": 1.0, "c": 1.0}).norm == 1e8

    def test_zero_weight_entries_dropped(self):
        idf = IdfTable({"a": 0.0, "b": 1.0}, default_idf=1.0)
        assert tfidf_vector(["a", "b"], idf).weights == {"b": 1.0}


def vec(weights):
    return TermVector.from_weights(weights)


class TestCosine:
    def test_self_similarity_is_one(self):
        v = vec({"a": 1.0, "b": 2.0})
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        assert cosine_similarity(vec({"a": 1.0}), vec({"b": 1.0})) == 0.0

    def test_hand_value(self):
        # dot = 1, norms = sqrt(2) and 1
        got = cosine_similarity(vec({"a": 1.0, "b": 1.0}), vec({"a": 1.0}))
        assert got == pytest.approx(2 ** -0.5, abs=1e-12)

    def test_dot_adds_products_left_to_right(self):
        # The same plain-add order as the graph build, on every Python.
        u = vec({"a": 1e16, "b": 1.0, "c": 1.0})
        got = cosine_similarity(u, vec({"a": 1.0, "b": 1.0, "c": 1.0}))
        assert got == 1e16 / (1e16 * 3**0.5)

    def test_zero_norm_convention(self):
        assert cosine_similarity(vec({}), vec({"a": 1.0})) == 0.0
        assert cosine_similarity(vec({}), vec({})) == 0.0

    def test_symmetry_exact(self):
        rng = random.Random(7)
        terms = [f"t{i}" for i in range(12)]
        for _ in range(200):
            u = vec({t: rng.uniform(0.1, 5.0) for t in rng.sample(terms, rng.randint(1, 8))})
            v = vec({t: rng.uniform(0.1, 5.0) for t in rng.sample(terms, rng.randint(1, 8))})
            assert cosine_similarity(u, v) == cosine_similarity(v, u)

    def test_scale_invariance(self):
        rng = random.Random(11)
        for _ in range(100):
            u = vec({f"t{i}": rng.uniform(0.1, 4.0) for i in range(rng.randint(1, 6))})
            v = vec({f"t{i}": rng.uniform(0.1, 4.0) for i in range(rng.randint(1, 6))})
            c = rng.uniform(0.01, 100.0)
            scaled = vec({t: c * w for t, w in u.weights.items()})
            assert abs(cosine_similarity(scaled, v) - cosine_similarity(u, v)) < 1e-12

    def test_range(self):
        rng = random.Random(13)
        for _ in range(200):
            u = vec({f"t{i}": rng.uniform(0.0, 3.0) for i in range(rng.randint(1, 7))})
            v = vec({f"t{i}": rng.uniform(0.0, 3.0) for i in range(rng.randint(1, 7))})
            c = cosine_similarity(u, v)
            assert 0.0 <= c <= 1.0 + 1e-12
