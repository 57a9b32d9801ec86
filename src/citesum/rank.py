"""Sentence salience scores and orderings: LexRank, DivRank, MMR, random.

LexRank and DivRank return stationary distributions (non-negative, sum 1);
MMR and the random baseline return orderings directly.  Everything here is
pure given (graph, parameters, seed).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .corpus import CitationSet, ValidationError
from .graph import SimilarityGraph

MAX_ITERATIONS = 10_000
RESIDUAL_TOLERANCE = 1e-8
# DivRank walks its n x n transitions in blocks of this many bytes of rows:
# each sweep reads a block twice, the second time from cache.  1 MiB holds the
# whole matrix up to n = 362.
DIVRANK_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class RankScores:
    """Per-node salience plus convergence metadata."""

    scores: dict[str, float]
    method: str
    iterations: int
    residual: float

    def ranked_ids(self) -> list[str]:
        """Node ids by descending score; ties keep input (insertion) order,
        since ``sorted`` is stable."""
        return sorted(self.scores, key=lambda node: -self.scores[node])


@dataclass(frozen=True)
class Ordering:
    """A selection sequence over every node of a citation set or graph."""

    ids: tuple[str, ...]
    method: str

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("ordering must be a permutation (duplicate ids)")


def _transition_matrix(adj: np.ndarray) -> np.ndarray:
    """Row-stochastic transitions on a boolean adjacency; dangling rows go uniform."""
    n = adj.shape[0]
    t = adj.astype(float)
    degrees = t.sum(axis=1)
    dangling = degrees == 0
    t /= np.where(dangling, 1.0, degrees)[:, None]  # in place: no n x n temporary
    t[dangling, :] = 1.0 / n
    return t


def lexrank(
    g: SimilarityGraph,
    threshold: float = 0.10,
    damping: float = 0.85,
) -> RankScores:
    """Stationary distribution of a damped walk on the binarized graph.

    Edges exist where cosine is strictly above the threshold; transitions are
    uniform over a node's edges, and nodes with no edges jump uniformly.
    Power iteration with an L1 stopping rule.
    """
    n = len(g)
    if n == 0:
        raise ValueError("cannot rank an empty graph")
    t = _transition_matrix(g.binarize(threshold))
    p = np.full(n, 1.0 / n)
    jump = (1.0 - damping) / n
    residual = 0.0
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        p_next = jump + damping * (t.T @ p)
        residual = float(np.abs(p_next - p).sum())
        p = p_next
        if residual < RESIDUAL_TOLERANCE:
            break
    p /= p.sum()
    return RankScores(
        scores={node: float(p[i]) for i, node in enumerate(g.nodes)},
        method="lexrank",
        iterations=iterations,
        residual=residual,
    )


def _divrank_base_transitions(g: SimilarityGraph, alpha: float) -> np.ndarray:
    """Pre-reinforcement transitions: alpha*w(u,v)/deg(u) off-diagonal, 1-alpha self.

    Zero-degree nodes keep all mass on their self loop.  Their weight row is
    all zeros, so dividing it by 1.0 leaves it zero.
    """
    w = g.weights
    degrees = w.sum(axis=1)
    isolated = degrees == 0.0
    p0 = np.multiply(w, alpha)
    p0 /= np.where(isolated, 1.0, degrees)[:, None]  # in place: no n x n temporary
    np.fill_diagonal(p0, np.where(isolated, 1.0, 1.0 - alpha))
    return p0


def divrank(
    g: SimilarityGraph,
    lam: float = 0.90,
    alpha: float = 0.25,
    prior: dict[str, float] | None = None,
) -> RankScores:
    """Diversity-aware centrality from a vertex-reinforced walk.

    Uses the cumulative approximation: the running score stands in for the
    visit count, so each sweep redistributes mass toward already-heavy nodes
    while the (1-lam) teleport keeps the prior in play.  Uniform prior when
    none is supplied; a supplied prior must be finite and non-negative, not
    all zero, and name only nodes of ``g`` (a node it omits gets 0).

    Each sweep reads the n x n base transitions ``p0`` once, in blocks of
    ``DIVRANK_BLOCK_BYTES`` of rows: a block gives its rows of ``d = p0 @ p``
    and, while still in cache, adds its rows' share of ``(p / d) @ p0``.
    Memory is ``p0`` plus a few length-n buffers.  With one block (n <= 362
    at 1 MiB) the arithmetic is that of the unblocked walk, bit for bit;
    above that, the per-block partial sums change the summation order, and
    scores by a few units in the last place.

    The reinforced product leaves out nodes with ``p == 0`` or ``d == 0``,
    where ``p / d`` is undefined.  It runs masked only when there is such a
    node, which takes a prior with zeros: a positive prior keeps ``p > 0``,
    and then ``d > 0``, since every row of the base transitions sums to 1.
    """
    n = len(g)
    if n == 0:
        raise ValueError("cannot rank an empty graph")
    if prior is None:
        p_star = np.full(n, 1.0 / n)
    else:
        unknown = prior.keys() - set(g.nodes)
        if unknown:
            raise ValueError(f"prior names ids not in the graph: {sorted(unknown)}")
        p_star = np.array([float(prior.get(node, 0.0)) for node in g.nodes])
        total = p_star.sum()  # NaN or inf when any value is
        if not np.isfinite(total) or np.any(p_star < 0.0) or total <= 0.0:
            raise ValueError("prior must be finite, non-negative and not all zero")
        p_star = p_star / total

    p0 = _divrank_base_transitions(g, alpha)
    rows = max(1, DIVRANK_BLOCK_BYTES // (8 * n))
    blocks = [(slice(i, i + rows), p0[i : i + rows]) for i in range(0, n, rows)]
    # Odd sweeps walk the blocks backwards, starting from the block the
    # previous sweep read last, which may still be in cache.
    orders = (blocks[::-1], blocks)
    teleport = (1.0 - lam) * p_star
    p, p_next = np.full(n, 1.0 / n), np.empty(n)
    d, part, step = np.empty(n), np.empty(n), np.empty(n)
    residual = 0.0
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        # contrib[v] = sum_u p[u] * p0(u,v) / d[u], with d[u] = sum_v p0(u,v) * p[v]
        # (the visit count N estimated by p), summed one block of rows at a time.
        contrib = p_next  # the spare buffer, which becomes p at the end of the sweep
        positive = p.min() > 0.0
        for k, (b, p0_b) in enumerate(orders[iterations % 2]):
            d_b = np.matmul(p0_b, p, out=d[b])
            out = part if k else contrib
            if positive and d_b.min() > 0.0:
                np.matmul(np.divide(p[b], d_b, out=d_b), p0_b, out=out)
            else:  # an empty mask gives zeros
                active = (p[b] > 0.0) & (d_b > 0.0)
                np.matmul(p[b][active] / d_b[active], p0_b[active], out=out)
            if k:
                contrib += part
        contrib *= p
        contrib *= lam
        contrib += teleport
        contrib /= contrib.sum()
        np.subtract(contrib, p, out=step)
        residual = float(np.abs(step, out=step).sum())
        p, p_next = contrib, p
        if residual < RESIDUAL_TOLERANCE:
            break
    return RankScores(
        scores={node: float(p[i]) for i, node in enumerate(g.nodes)},
        method="divrank" if prior is None else "divrank-prior",
        iterations=iterations,
        residual=residual,
    )


def divrank_prior_from_length(cs: CitationSet, beta: float = 0.1) -> dict[str, float]:
    """Length-based visiting preference: weight = word_count^(-beta), normalized.

    Shorter sentences get larger prior mass; zero-word sentences count as one
    word so the power stays defined.  Raises ValidationError when a weight
    overflows or the total is not finite and positive: no such beta gives a
    distribution.
    """
    try:
        raw = {s.id: max(s.word_count, 1) ** (-beta) for s in cs.sentences}
        total = 0.0  # plain left-to-right adds: sum() compensates since Python 3.12
        for v in raw.values():
            total += v
    except OverflowError:
        total = math.inf
    if not 0.0 < total < math.inf:
        raise ValidationError(
            f"divrank_beta = {beta!r}: the length prior word_count^(-beta) sums to {total!r}, "
            "not a finite positive total"
        )
    return {sid: v / total for sid, v in raw.items()}


def mmr_order(g: SimilarityGraph) -> Ordering:
    """Greedy anti-similarity ordering over the raw weighted graph.

    The first pick is the node with the largest total similarity to all
    others (the selection objective is undefined on an empty summary); each
    later pick minimizes its maximum similarity to the already-picked set.
    Ties break by input order: the first pick is the first node of largest
    total, and each later pick the first unpicked node of smallest maximum.
    """
    n = len(g)
    if n == 0:
        raise ValueError("cannot order an empty graph")
    w = g.weights
    totals = w.sum(axis=1)
    first = int(np.argmax(totals))  # argmax takes the first maximal index
    selected = [first]
    # Picked nodes hold inf, above every weight in [0, 1], so argmin (which
    # takes the first minimal index) only ever returns an unpicked node.
    max_sim_to_selected = w[first].copy()
    max_sim_to_selected[first] = np.inf
    for _ in range(n - 1):
        pick = int(np.argmin(max_sim_to_selected))
        selected.append(pick)
        np.maximum(max_sim_to_selected, w[pick], out=max_sim_to_selected)
        max_sim_to_selected[pick] = np.inf
    return Ordering(ids=tuple(g.nodes[i] for i in selected), method="mmr")


def random_order(cs: CitationSet, seed: int) -> Ordering:
    """Seeded Fisher-Yates permutation of the citation set."""
    ids = list(cs.ids)
    random.Random(seed).shuffle(ids)
    return Ordering(ids=tuple(ids), method="random")


def scores_to_tsv(scores: RankScores) -> str:
    """Export: ``node_id<TAB>score`` rows, descending score, six decimals."""
    lines = [f"{node}\t{scores.scores[node]:.6f}" for node in scores.ranked_ids()]
    return "\n".join(lines) + "\n"
