"""Tokenizer, TF-IDF weighting, and the one-pair cosine oracle in ``tests/oracles.py``."""

import itertools
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cosine_similarity, fold_token_oracle, tokenize_oracle

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

    def test_stopwords_are_folded_like_tokens(self):
        cfg = TokenizerConfig(stopwords=frozenset({"The.", "it's", "DON'T"}))
        assert cfg.stopwords == frozenset({"the", "its", "dont"})
        assert tokenize("The cat: it's here, don't go.", cfg) == ["cat", "here", "go"]
        keep_case = TokenizerConfig(lowercase=False, stopwords=frozenset({"The"}))
        assert tokenize("The the THE", keep_case) == ["the", "THE"]
        keep_marks = TokenizerConfig(strip_punctuation=False, stopwords=frozenset({"It's"}))
        assert tokenize("it's its", keep_marks) == ["its"]

    def test_deterministic(self):
        text = "Some researchers used a pipelined approach; others did not."
        assert tokenize(text) == tokenize(text)


# Characters where a whole-text tokenizer could part from the per-token one:
# every whitespace character ``str.split()`` knows below U+3100 (U+0085
# among them), letters whose lowercase depends on context (final sigma) or
# is longer than the letter (dotted capital I), and marks with no width.
TOKENIZER_ALPHABET = (
    string.ascii_letters
    + string.digits
    + string.punctuation
    + "".join(chr(c) for c in range(0x3100) if chr(c).isspace())
    + "\u0085\u03a3\u03c3\u03c2\u0130"
    + "\u0300\u0301\u0307\u0345\u200b\u200c\u200d\u2060\ufeff\u00ad"
)
TOKENIZER_CONFIGS = [
    TokenizerConfig(lowercase, strip, stopwords)
    for lowercase, strip, stopwords in itertools.product(
        (True, False), (True, False), (frozenset(), frozenset({"a", "i", "ab", "A", "\u03c3"}))
    )
]


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.text(alphabet=st.sampled_from(TOKENIZER_ALPHABET), max_size=60))
def test_property_tokenize_matches_per_token_oracle(text):
    for cfg in TOKENIZER_CONFIGS:
        assert tokenize(text, cfg) == tokenize_oracle(text, cfg)


WORD_CHARS = [c for c in TOKENIZER_ALPHABET if not c.isspace()]


@st.composite
def stopword_cases(draw):
    """Whitespace-free raw stopwords, and a text made of them (as written or
    case-swapped) and of random pieces, joined by whitespace."""
    words = draw(st.lists(st.text(st.sampled_from(WORD_CHARS), min_size=1, max_size=6), min_size=1, max_size=6))
    pieces = draw(st.lists(
        st.one_of(
            st.sampled_from(words),
            st.sampled_from(words).map(str.swapcase),
            st.text(st.sampled_from(TOKENIZER_ALPHABET), max_size=8),
        ),
        max_size=12,
    ))
    separator = st.sampled_from([" ", "\t", "\u3000", "\x1c"])
    return words, "".join(p + draw(separator) for p in pieces)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(stopword_cases())
def test_property_stopwords_are_folded_like_tokens(case):
    words, text = case
    for lowercase, strip in itertools.product((True, False), repeat=2):
        plain = TokenizerConfig(lowercase, strip)
        cfg = TokenizerConfig(lowercase, strip, frozenset(words))
        # The expected terms come from the oracle's own fold, never from cfg.stopwords.
        dropped = {fold_token_oracle(w, plain) for w in words}
        assert tokenize(text, cfg) == [t for t in tokenize_oracle(text, plain) if t not in dropped]
        for w in words:
            assert tokenize(w, cfg) == [], (w, lowercase, strip)


def test_tokenize_matches_oracle_on_context_sensitive_text():
    # Final sigma next to a separator, a dotted capital I whose lowercase
    # carries a combining dot, and separators that are not ASCII spaces.
    text = "\u03a3A\u03a3\u0085\u03a3\u0301x \u0130stanbul\u3000a\u200bb\x1cC\u2028d-e"
    for cfg in TOKENIZER_CONFIGS:
        assert tokenize(text, cfg) == tokenize_oracle(text, cfg)
    assert tokenize(text) == ["a", "x", "istanbul", "ab", "c", "de"]


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
