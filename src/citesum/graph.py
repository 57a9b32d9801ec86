"""The sentence similarity network and its small-world statistics.

Vertices are sentences, edges carry the TF-IDF cosine similarity of the pair.
The network itself is weighted and complete (minus zero-similarity pairs);
statistics that need an unweighted graph binarize it with a configurable
threshold, edge iff weight strictly above it.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import NamedTuple

import numpy as np

from .corpus import CitationSet, IdfTable
from .lexical import TokenizerConfig, tfidf_vector, tokenize

PAIR_CHUNK = 1 << 13  # term-pair products per np.add.at call; also bounds the row-block quotients


@dataclass(frozen=True)
class SimilarityGraph:
    """Exactly symmetric weighted graph over sentence ids, zero diagonal, weights in [0,1].

    Node order matches the source citation set order.
    """

    nodes: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = self.weights
        n = len(self.nodes)
        if w.shape != (n, n):
            raise ValueError(f"weight matrix shape {w.shape} does not match {n} nodes")
        if not np.array_equal(w, w.T):
            raise ValueError("weight matrix must be symmetric")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("diagonal must be zero")
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise ValueError("weights must lie in [0,1]")
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def binarize(self, threshold: float) -> np.ndarray:
        """Boolean adjacency: edge iff weight strictly above threshold."""
        return self.weights > threshold

    def edge_count(self, threshold: float) -> int:
        return int(np.triu(self.binarize(threshold), 1).sum())

    def induced_subgraph(self, indices: list[int]) -> "SimilarityGraph":
        idx = np.asarray(indices, dtype=int)
        return SimilarityGraph(
            nodes=tuple(self.nodes[i] for i in indices),
            weights=self.weights[np.ix_(idx, idx)].copy(),
        )


def build_citation_summary_network(
    cs: CitationSet, idf: IdfTable, tokenizer: TokenizerConfig = TokenizerConfig()
) -> SimilarityGraph:
    """Pairwise TF-IDF cosine graph over the citation set, no thresholding.

    Each sentence's text is split into terms by ``tokenizer`` here, the one
    place that reads terms, and weighted against ``idf``.  Permutation
    equivariant: permuting the input sentences permutes the rows and columns
    of the weight matrix identically.

    The weights are the IEEE values of ``min(1.0, cosine_similarity(u, v))``
    for every pair, the one-pair loop in ``tests/oracles.py``.  The dot
    products come from term postings (``_Postings``): the ordered pairs of
    entries of every term found in two or more sentences, term after term in
    ``sorted()`` order.  ``np.add.at`` adds each pair's product into its
    cell and applies its adds in index order, so every cell starts from 0.0
    and receives the products of its common terms left to right in sorted
    term order, as the oracle's ``cosine_similarity`` adds them.  The pairs
    go PAIR_CHUNK at a time; a chunk may end inside a term, and the next
    carries on from there, so chunking changes no add and no add's order.
    Each row is then divided by the product of the two norms, a block of
    rows at a time; rows and columns of zero-norm sentences are zeroed, and
    the diagonal is cleared.  ``w[i, j]`` and ``w[j, i]`` see the same adds
    and the same commuted norm product, so symmetry is exact.  No BLAS is
    used, so the weights do not depend on the BLAS thread count.

    Memory: one n x n float64 array, the result; six arrays of at most one
    element per (sentence, term) entry; and during each chunk four arrays of
    PAIR_CHUNK elements, or one for a block of row quotients.  The term
    strings and weight maps are dropped before the pairs are added.
    """
    if len(cs) == 0:
        raise ValueError("citation set is empty")
    n = len(cs)
    p = _postings(cs, idf, tokenizer)
    w = np.zeros((n, n))
    flat = w.reshape(-1)
    total = int(p.bounds[-1])
    for lo in range(0, total, PAIR_CHUNK):
        hi = min(lo + PAIR_CHUNK, total)
        r0 = int(np.searchsorted(p.bounds, lo, side="right")) - 1
        r1 = int(np.searchsorted(p.bounds, hi, side="left"))
        counts = np.diff(p.bounds[r0 : r1 + 1])  # pairs of rows r0..r1-1 in this chunk
        counts[0] -= lo - p.bounds[r0]
        counts[-1] -= p.bounds[r1] - hi
        other = np.arange(lo, hi)
        other -= np.repeat(p.shift[r0:r1], counts)
        cells = p.row[other]
        cells += np.repeat(p.lead_cell[r0:r1], counts)
        products = p.weight[other]
        products *= np.repeat(p.lead_weight[r0:r1], counts)
        np.add.at(flat, cells, products)

    empty = p.norms == 0.0
    safe = np.where(empty, 1.0, p.norms)
    rows_per_block = max(1, PAIR_CHUNK // n)
    for lo in range(0, n, rows_per_block):
        block = slice(lo, lo + rows_per_block)
        w[block] /= safe[block, None] * safe
    w[empty, :] = 0.0
    w[:, empty] = 0.0
    np.minimum(w, 1.0, out=w)
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(nodes=tuple(cs.ids), weights=w)


class _Postings(NamedTuple):
    """A set's TF-IDF vector norms, and the ordered pairs of every shared term's entries.

    An entry is one (sentence, term) of a TF-IDF vector; ``row`` and
    ``weight`` hold the entries sorted by term, in sentence order within a
    term.  Each entry of a term with k >= 2 entries leads one pair row: the
    entry against each of the term's k entries.  Pair p of the enumeration
    lies in pair row r with ``bounds[r] <= p < bounds[r + 1]``; it pairs the
    lead, whose cell row starts at ``lead_cell[r]`` and whose weight is
    ``lead_weight[r]``, with entry ``p - shift[r]``.
    """

    norms: np.ndarray
    row: np.ndarray
    weight: np.ndarray
    bounds: np.ndarray
    shift: np.ndarray
    lead_cell: np.ndarray
    lead_weight: np.ndarray


def _postings(cs: CitationSet, idf: IdfTable, tokenizer: TokenizerConfig) -> _Postings:
    """The postings of a citation set, from one ``tfidf_vector`` call per sentence.

    Term ids are assigned in one pass, in order of first appearance, and
    each sentence's entries go straight into flat arrays, so no term string
    or weight map outlives this call except in ``idf``.  One stable argsort
    by each term's ``sorted()`` rank then groups the entries by term.
    """
    n = len(cs)
    norms = np.empty(n)
    sizes = np.empty(n, dtype=np.intp)
    term_id: defaultdict[str, int] = defaultdict(count().__next__)
    ids, weights = array("q"), array("d")
    for i, s in enumerate(cs.sentences):
        v = tfidf_vector(tokenize(s.text, tokenizer), idf)
        norms[i] = v.norm
        sizes[i] = len(v.weights)
        ids.extend(map(term_id.__getitem__, v.weights))
        weights.extend(v.weights.values())
    names = list(term_id)
    rank = np.empty(len(names), dtype=np.intp)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    term = rank[np.asarray(ids)]
    order = np.argsort(term, kind="stable")
    term = term[order]
    row = np.repeat(np.arange(n), sizes)[order]
    weight = np.asarray(weights)[order]

    k = np.bincount(term, minlength=len(names))
    first = np.cumsum(k) - k
    lead = np.flatnonzero(k[term] >= 2)
    bounds = np.zeros(len(lead) + 1, dtype=np.intp)
    np.cumsum(k[term[lead]], out=bounds[1:])
    shift = bounds[:-1] - first[term[lead]]
    return _Postings(norms, row, weight, bounds, shift, row[lead] * n, weight[lead])


def clustering_coefficient(g: SimilarityGraph, threshold: float = 0.10) -> float:
    """Mean local clustering over all vertices of the binarized graph.

    Local value at i = triangles through i / pairs of neighbors of i,
    defined 0 for degree < 2.

    Row i of ``(A @ A) * A`` counts, for each neighbor j of i, the neighbors
    i and j share, so its sum is twice the links among i's neighbors.  The
    product runs in float32 on 0/1 entries, exact for n < 2^24 in any
    summation order; the row sums run in int64.  The local values are added
    in node order, one float add at a time, so the mean does not depend on
    BLAS threading.
    """
    adj = g.binarize(threshold)
    a32 = adj.astype(np.float32)
    links = ((a32 @ a32) * a32).astype(np.int64).sum(axis=1) // 2
    k = adj.sum(axis=1)
    pairs = k * (k - 1) / 2
    local = np.where(k >= 2, links / np.maximum(pairs, 1.0), 0.0)
    return float(np.cumsum(local)[-1]) / len(g)


class PathStats(NamedTuple):
    """Mean hop distance over connected pairs, plus the unreachable fraction."""

    average: float
    disconnected_fraction: float


BFS_BLOCK = 64  # sources per level-synchronous BFS block


def average_shortest_path(g: SimilarityGraph, threshold: float = 0.10) -> PathStats:
    """BFS hop distances on the binarized graph, averaged over connected pairs.

    Disconnected pairs are excluded from the mean (infinity would destroy it)
    and reported as a fraction of all unordered pairs.  With no pairs at all
    (n < 2) or no connected pairs, the average is inf.

    Level-synchronous BFS from blocks of BFS_BLOCK sources: one hop of the
    whole block is one product ``frontier @ A > 0`` in float32.  The sums are
    counts of 0/1 products, exact in float32 for n < 2^24 in any summation
    order, so the result does not depend on BLAS threading and the integer
    distance totals are exact.  Cost: n / BFS_BLOCK blocks of at most d + 1
    products each, d the largest hop distance, so O(n^3 * d) flops, all of
    them inside BLAS.
    """
    adj = g.binarize(threshold)
    n = len(g)
    all_pairs = n * (n - 1) // 2
    if all_pairs == 0:
        return PathStats(float("inf"), 0.0)
    a32 = adj.astype(np.float32)
    total = 0
    connected_pairs = 0
    for start in range(0, n, BFS_BLOCK):
        sources = np.arange(start, min(start + BFS_BLOCK, n))
        ahead = np.arange(n) > sources[:, None]  # count each pair from its lower end
        frontier = np.zeros((len(sources), n), dtype=bool)
        frontier[np.arange(len(sources)), sources] = True
        visited = frontier.copy()
        hops = 0
        while frontier.any():
            hops += 1
            frontier = (frontier.astype(np.float32) @ a32 > 0) & ~visited
            visited |= frontier
            reached = int(np.count_nonzero(frontier & ahead))
            total += hops * reached
            connected_pairs += reached
    average = total / connected_pairs if connected_pairs else float("inf")
    return PathStats(average, (all_pairs - connected_pairs) / all_pairs)


def to_dot(g: SimilarityGraph, threshold: float = 0.10) -> str:
    """DOT rendering of the binarized graph; edge labels carry the raw weight."""
    lines = ["graph citation_summary_network {"]
    for node in g.nodes:
        lines.append(f'  "{node}";')
    # np.nonzero lists the upper triangle's edges in row-major order; the
    # edges are formatted from Python ints and floats, not numpy scalars.
    rows, cols = np.nonzero(np.triu(g.binarize(threshold), 1))
    nodes = g.nodes
    for i, j, w in zip(rows.tolist(), cols.tolist(), g.weights[rows, cols].tolist()):
        lines.append(f'  "{nodes[i]}" -- "{nodes[j]}" [label="{w:.4f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
