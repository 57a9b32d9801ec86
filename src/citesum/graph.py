"""The sentence similarity network and its small-world statistics.

Vertices are sentences, edges carry the TF-IDF cosine similarity of the pair.
The network itself is weighted and complete (minus zero-similarity pairs);
statistics that need an unweighted graph binarize it with a configurable
threshold, edge iff weight strictly above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import CitationSet, IdfTable
from .lexical import TokenizerConfig, tfidf_vector, tokenize

POSTINGS_BLOCK = 64  # rows of one term's outer product added per step


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
    products come from term postings: the terms found in two or more
    sentences are visited in ``sorted()`` order, and each adds the outer
    product of its weights into the cells of its sentences, one add per
    cell.  So every pair starts from 0.0 and receives the products of its
    common terms left to right in sorted term order, as the oracle's
    ``cosine_similarity`` adds them.  Each row is then divided by the product
    of the two norms, rows and columns of zero-norm sentences are zeroed, and
    the diagonal is cleared.  ``w[i, j]`` and ``w[j, i]`` see the same adds
    and the same commuted norm product, so symmetry is exact.  No BLAS is
    used, so the weights do not depend on the BLAS thread count.

    Memory: one n x n float64 array, the result, plus per-term temporaries
    of at most POSTINGS_BLOCK x k entries, k the term's sentence count.
    """
    if len(cs) == 0:
        raise ValueError("citation set is empty")
    vectors = [tfidf_vector(tokenize(s.text, tokenizer), idf) for s in cs.sentences]
    n = len(vectors)
    postings: dict[str, tuple[list[int], list[float]]] = {}
    for i, v in enumerate(vectors):
        for term, x in v.weights.items():
            rows, xs = postings.setdefault(term, ([], []))
            rows.append(i)
            xs.append(x)
    w = np.zeros((n, n))
    flat = w.reshape(-1)
    for term in sorted(postings):
        rows, xs = postings[term]
        if len(rows) < 2:
            continue
        r = np.array(rows)
        x = np.array(xs)
        for start in range(0, len(r), POSTINGS_BLOCK):
            block = slice(start, start + POSTINGS_BLOCK)
            flat[r[block, None] * n + r] += np.multiply.outer(x[block], x)
    norms = np.array([v.norm for v in vectors])
    empty = norms == 0.0
    safe = np.where(empty, 1.0, norms)
    for i in range(n):
        w[i] /= safe[i] * safe
    w[empty, :] = 0.0
    w[:, empty] = 0.0
    np.minimum(w, 1.0, out=w)
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(nodes=tuple(cs.ids), weights=w)


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
    # np.nonzero lists the upper triangle's edges in row-major order.
    for i, j in zip(*np.nonzero(np.triu(g.binarize(threshold), 1))):
        lines.append(f'  "{g.nodes[i]}" -- "{g.nodes[j]}" [label="{g.weights[i, j]:.4f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
