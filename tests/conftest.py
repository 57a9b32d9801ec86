"""Shared fixtures: the bundled nine-sentence citation set and synthetic graphs."""

from pathlib import Path

import numpy as np
import pytest

from citesum.corpus import (
    CitationSet,
    Sentence,
    load_citation_set,
    load_factoid_annotation,
    load_idf_table,
)
from citesum.graph import SimilarityGraph

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def fixture_paths() -> dict:
    return {
        "citations": DATA_DIR / "w05-0622.jsonl",
        "factoids": DATA_DIR / "w05-0622.factoids.tsv",
        "idf": DATA_DIR / "w05-0622.idf.tsv",
    }


@pytest.fixture(scope="session")
def nine_citations(fixture_paths):
    return load_citation_set(fixture_paths["citations"])


@pytest.fixture(scope="session")
def nine_factoids(fixture_paths, nine_citations):
    return load_factoid_annotation(fixture_paths["factoids"], nine_citations)


@pytest.fixture(scope="session")
def nine_idf(fixture_paths):
    return load_idf_table(fixture_paths["idf"])


def make_graph(weights, names=None) -> SimilarityGraph:
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    nodes = tuple(names) if names else tuple(f"n{i}" for i in range(n))
    return SimilarityGraph(nodes=nodes, weights=w)


def symmetric_random_graph(rng: np.random.Generator, n: int) -> SimilarityGraph:
    """Random similarity matrix in [0,1], symmetric, zero diagonal."""
    w = rng.uniform(0.0, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return make_graph(w)


def two_cliques_graph(bridge: float = 0.1) -> SimilarityGraph:
    """Two 4-cliques of unit edges joined by one weak bridge (nodes 3-4)."""
    w = np.zeros((8, 8))
    for base in (0, 4):
        for i in range(4):
            for j in range(4):
                if i != j:
                    w[base + i, base + j] = 1.0
    w[3, 4] = w[4, 3] = bridge
    return make_graph(w)


def toy_citation_set(texts: list[str], ids: list[str] | None = None) -> CitationSet:
    ids = ids or [f"s{i + 1}" for i in range(len(texts))]
    sentences = tuple(
        Sentence(
            id=sid,
            text=text,
            word_count=len(text.split()),
            source_doc="doc",
        )
        for sid, text in zip(ids, texts)
    )
    return CitationSet(sentences=sentences)
