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
from itertools import count, repeat
from typing import NamedTuple

import numpy as np

from .corpus import CitationSet, IdfTable, ValidationError
from .lexical import TokenizerConfig, tokenize
# Not called here: bench/tracing.py patches tfidf_vector by name in this module.
from .lexical import tfidf_vector  # noqa: F401

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
        return SimilarityGraph(
            nodes=tuple(self.nodes[i] for i in indices), weights=self.weights[np.ix_(indices, indices)]
        )


def build_citation_summary_network(
    cs: CitationSet, idf: IdfTable, tokenizer: TokenizerConfig = TokenizerConfig()
) -> SimilarityGraph:
    """Pairwise TF-IDF cosine graph over the citation set, no thresholding.

    Each sentence's text is split into terms by ``tokenizer`` here, the one
    place that reads terms, and weighted against ``idf``.  Permutation
    equivariant: permuting the input sentences permutes the rows and columns
    of the weight matrix identically.

    Per sentence, only the tokenizer runs; the TF-IDF weights and norms of
    the whole set are then taken in array passes over its token stream
    (``_postings``), with the bits of ``tfidf_vector``, the one-sentence
    form the oracle weighs with.

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

    Memory: one n x n float64 array, the result; while weighing, a few
    8-byte arrays per token (see ``_postings``); then six arrays of at most
    one element per (sentence, term) entry; and during each chunk four
    arrays of PAIR_CHUNK elements, or one for a block of row quotients.  No
    term string outlives the weighing.
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
    """The postings of a citation set, weighed in array passes over its token stream.

    Per sentence, only ``tokenize`` runs (one lower, one regex sub, one
    split), and one C-level ``map`` replaces each token by its term's id in
    order of first appearance over the set.  The token strings die with the
    sentence; only the distinct terms are kept, until the idfs are read.

    Per set, in array passes:

    - one ``sorted()`` of the vocabulary gives each term its rank, and its
      idf, looked up once per term;
    - one argsort of the tokens by (term rank, sentence) puts the tokens of
      each (sentence, term) entry next to each other, the entries already
      in postings order: by term, in sentence order within a term.  An
      entry's count is its run's length, and its first token the run's
      smallest position;
    - each weight is ``count * idf``, the product ``tfidf_vector`` takes;
    - each norm adds its squares left to right in first-appearance order,
      as ``TermVector.from_weights`` does.  The squares sit at their
      entries' first tokens in a token-long array of 0.0, which adds
      nothing, and ``np.add.at`` adds the array into the norms in token
      order; then one ``np.sqrt``;
    - zero weights are dropped, then the pair rows are bounded per term.

    Memory per token: 8 bytes for its id while the sentences are read, and
    at most three 8-byte arrays alive at once afterwards (the sort key, its
    argsort and the sorted key, or the squares and each token's sentence),
    each freed once used.  An ``int`` idf is read as float64: exact below
    2**53, where the products match Python's.
    """
    n = len(cs)
    term_id: defaultdict[str, int] = defaultdict(count().__next__)
    ids, ends = array("q"), array("q")
    for s in cs.sentences:
        ids.extend(map(term_id.__getitem__, tokenize(s.text, tokenizer)))
        ends.append(len(ids))
    names = sorted(term_id)
    v = len(names)
    rank = np.empty(v, dtype=np.int64)
    rank[np.fromiter(map(term_id.__getitem__, names), np.int64, v)] = np.arange(v)
    idfs = np.fromiter(map(idf.values.get, names, repeat(idf.default_idf, v)), float, v)
    del term_id, names
    sizes = np.diff(ends, prepend=0)
    key = rank[np.asarray(ids)]
    del ids, rank
    key *= n
    key += np.repeat(np.arange(n), sizes)
    tokens = np.argsort(key)  # ties are tokens of one entry; their order is recovered below
    key = key[tokens]
    new = np.empty(len(key), dtype=bool)  # the first token of each entry
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    del new
    term, row = np.divmod(key[starts], n)
    del key
    # Python's float arithmetic, which tfidf_vector uses, overflows to inf
    # without a warning; so do these passes.
    with np.errstate(over="ignore"):
        weight = np.diff(starts, append=len(tokens)) * idfs[term]
        squares = np.zeros(len(tokens))  # 0.0 at every token but an entry's first
        squares[np.minimum.reduceat(tokens, starts)] = weight * weight
        del tokens, starts, idfs
        norms = np.zeros(n)
        np.add.at(norms, np.repeat(np.arange(n), sizes), squares)
        del squares
    np.sqrt(norms, out=norms)
    kept = weight != 0.0
    term, row, weight = term[kept], row[kept], weight[kept]

    k = np.bincount(term, minlength=v)
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
    """DOT rendering of the binarized graph; edge labels carry the raw weight.

    Node ids are DOT quoted strings, in which ``\\"`` stands for ``"`` and
    every other character for itself.  An id that ends in a backslash cannot
    be quoted: its last backslash would escape the closing quote.  Such an
    id raises ``ValidationError``, naming it.
    """
    names = [_dot_quoted(node) for node in g.nodes]
    lines = ["graph citation_summary_network {"]
    lines.extend(f"  {name};" for name in names)
    # np.nonzero lists the upper triangle's edges in row-major order; the
    # edges are formatted from Python ints and floats, not numpy scalars.
    rows, cols = np.nonzero(np.triu(g.binarize(threshold), 1))
    for i, j, w in zip(rows.tolist(), cols.tolist(), g.weights[rows, cols].tolist()):
        lines.append(f'  {names[i]} -- {names[j]} [label="{w:.4f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_quoted(node: str) -> str:
    if node.endswith("\\"):
        raise ValidationError(f"node id {node!r} ends in a backslash, which DOT cannot quote")
    return '"' + node.replace('"', '\\"') + '"'
