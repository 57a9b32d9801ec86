"""Tokenization and TF-IDF term vectors.

The default tokenizer lowercases, strips every character that is neither an
ASCII letter or digit nor whitespace, splits on whitespace, and removes
nothing else; stopword removal is opt-in.
No stemming, so results are reproducible without external linguistic
resources.

``tfidf_vector`` weighs one sentence: it is the library's one-sentence form
and the weighting of the graph oracle in ``tests/oracles.py``.  The graph
build (``citesum.graph``) calls only ``tokenize`` per sentence, weighs the
whole set in array passes with the same bits, and takes the cosine of all
pairs at once; the one-pair ``cosine_similarity`` it equals is in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

from .corpus import IdfTable, plain_sum

_NON_ALNUM = re.compile(r"[^0-9a-zA-Z\s]+")


@dataclass(frozen=True)
class TokenizerConfig:
    """How text becomes terms.  Each stopword is folded as a token is, so a
    listed word is dropped exactly when its own token would be: under the
    default tokenizer ``The.`` drops ``the`` and ``it's`` drops ``its``."""

    lowercase: bool = True
    strip_punctuation: bool = True
    stopwords: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "stopwords", frozenset(_fold(w, self) for w in self.stopwords))


def _fold(text: str, cfg: TokenizerConfig) -> str:
    """The term rule: lowercase (``cfg.lowercase``), then strip every character
    that is not an ASCII letter, digit or whitespace (``cfg.strip_punctuation``)."""
    if cfg.lowercase:
        text = text.lower()
    if cfg.strip_punctuation:
        text = _NON_ALNUM.sub("", text)
    return text


def tokenize(text: str, cfg: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Deterministic term list for a sentence; empty text gives an empty list.

    The whole text is folded once (``_fold``: one lower, one regex pass),
    then split with ``str.split()``.  Regex ``\\s`` and ``str.split()`` use
    the same whitespace test, so stripping never joins two tokens: the terms
    are those of folding each whitespace token on its own, minus the tokens
    left empty.  (``str.lower`` maps a token the same inside the text as
    alone: its one context rule, final sigma, does not look past
    whitespace.)  Stopwords, folded alike, are dropped last.
    """
    terms = _fold(text, cfg).split()
    if cfg.stopwords:
        terms = [t for t in terms if t not in cfg.stopwords]
    return terms


@dataclass(frozen=True)
class TermVector:
    """Sparse non-negative term weights with a cached L2 norm.

    Zero-weight entries are never stored, so the cached norm stays consistent
    with the weights map.  The squares are added by ``corpus.plain_sum``.
    """

    weights: dict[str, float]
    norm: float

    @staticmethod
    def from_weights(weights: dict[str, float]) -> "TermVector":
        nonzero = {t: w for t, w in weights.items() if w != 0.0}
        return TermVector(nonzero, math.sqrt(plain_sum(w * w for w in nonzero.values())))


def tfidf_vector(tokens: list[str] | tuple[str, ...], idf: IdfTable) -> TermVector:
    """weight(term) = raw in-sentence count x idf(term)."""
    counts = Counter(tokens)
    values, default = idf.values, idf.default_idf
    return TermVector.from_weights({t: c * values.get(t, default) for t, c in counts.items()})
