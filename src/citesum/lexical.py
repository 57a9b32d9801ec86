"""Tokenization and TF-IDF term vectors.

The default tokenizer lowercases, strips non-alphanumeric characters inside
each whitespace token, and removes nothing else; stopword removal is opt-in.
No stemming, so results are reproducible without external linguistic
resources.  The graph build (``citesum.graph``) takes the cosine of all pairs
at once; the one-pair ``cosine_similarity`` it equals is in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

from .corpus import IdfTable, RunConfig, load_stopwords

_NON_ALNUM = re.compile(r"[^0-9a-zA-Z]+")


@dataclass(frozen=True)
class TokenizerConfig:
    lowercase: bool = True
    strip_punctuation: bool = True
    stopwords: frozenset[str] = frozenset()

    @staticmethod
    def from_run_config(cfg: RunConfig) -> "TokenizerConfig":
        """The tokenizer a run's config names, reading its stopword file if any."""
        stopwords: frozenset[str] = frozenset()
        if cfg.stopword_path is not None:
            stopwords = load_stopwords(cfg.stopword_path)
        return TokenizerConfig(cfg.lowercase, cfg.strip_punctuation, stopwords)


def tokenize(text: str, cfg: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Deterministic term list for a sentence; empty text gives an empty list."""
    terms = []
    for raw in text.split():
        term = raw.lower() if cfg.lowercase else raw
        if cfg.strip_punctuation:
            term = _NON_ALNUM.sub("", term)
        if term and term not in cfg.stopwords:
            terms.append(term)
    return terms


@dataclass(frozen=True)
class TermVector:
    """Sparse non-negative term weights with a cached L2 norm.

    Zero-weight entries are never stored, so the cached norm stays consistent
    with the weights map.  The squares are added left to right with plain
    float adds, not ``sum()``, which compensates its additions since Python
    3.12: the norm has the same bits on every supported Python.
    """

    weights: dict[str, float]
    norm: float

    @staticmethod
    def from_weights(weights: dict[str, float]) -> "TermVector":
        nonzero = {t: w for t, w in weights.items() if w != 0.0}
        squares = 0.0
        for w in nonzero.values():
            squares += w * w
        return TermVector(nonzero, math.sqrt(squares))


def tfidf_vector(tokens: list[str] | tuple[str, ...], idf: IdfTable) -> TermVector:
    """weight(term) = raw in-sentence count x idf(term)."""
    counts = Counter(tokens)
    return TermVector.from_weights({t: c * idf.idf(t) for t, c in counts.items()})
