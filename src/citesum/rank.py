"""Sentence salience scores and orderings: LexRank, DivRank, MMR, random.

LexRank and DivRank return stationary distributions (non-negative, sum 1);
MMR and the random baseline return orderings directly.  Everything here is
pure given (graph, parameters, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .corpus import CitationSet
from .graph import SimilarityGraph

MAX_ITERATIONS = 10_000
RESIDUAL_TOLERANCE = 1e-8


@dataclass(frozen=True)
class RankScores:
    """Per-node salience plus convergence metadata."""

    scores: dict[str, float]
    method: str
    iterations: int
    residual: float

    def ranked_ids(self) -> list[str]:
        """Node ids by descending score; ties keep input (insertion) order."""
        ids = list(self.scores)
        order = {node: i for i, node in enumerate(ids)}
        return sorted(ids, key=lambda node: (-self.scores[node], order[node]))


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
    t[dangling, :] = 1.0 / n
    t[~dangling, :] /= degrees[~dangling, None]
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
    p0 = alpha * w / np.where(isolated, 1.0, degrees)[:, None]
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
    none is supplied.
    """
    n = len(g)
    if prior is None:
        p_star = np.full(n, 1.0 / n)
    else:
        p_star = np.array([float(prior.get(node, 0.0)) for node in g.nodes])
        if np.any(p_star < 0.0) or p_star.sum() <= 0.0:
            raise ValueError("prior must be non-negative and not all zero")
        p_star = p_star / p_star.sum()

    p0 = _divrank_base_transitions(g, alpha)
    p = np.full(n, 1.0 / n)
    residual = 0.0
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        d = p0 @ p  # d[u] = sum_v p0(u,v) * N(v), with N estimated by p
        contrib = np.zeros(n)
        active = (p > 0.0) & (d > 0.0)
        if np.any(active):
            # incoming mass at v: sum_u p[u] * p0(u,v) * p[v] / d[u]
            contrib = (p[active] / d[active]) @ p0[active, :] * p
        p_next = (1.0 - lam) * p_star + lam * contrib
        p_next /= p_next.sum()
        residual = float(np.abs(p_next - p).sum())
        p = p_next
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
    word so the power stays defined.
    """
    raw = {s.id: max(s.word_count, 1) ** (-beta) for s in cs.sentences}
    total = 0.0  # plain left-to-right adds: sum() compensates since Python 3.12
    for v in raw.values():
        total += v
    return {sid: v / total for sid, v in raw.items()}


def mmr_order(g: SimilarityGraph) -> Ordering:
    """Greedy anti-similarity ordering over the raw weighted graph.

    The first pick is the node with the largest total similarity to all
    others (the selection objective is undefined on an empty summary); each
    later pick minimizes its maximum similarity to the already-picked set.
    Ties break by input order.
    """
    n = len(g)
    if n == 0:
        raise ValueError("cannot order an empty graph")
    w = g.weights
    totals = w.sum(axis=1)
    first = int(np.argmax(totals))  # argmax takes the first maximal index
    selected = [first]
    max_sim_to_selected = w[first].copy()
    remaining = [i for i in range(n) if i != first]
    while remaining:
        pick = min(remaining, key=lambda i: (max_sim_to_selected[i], i))
        selected.append(pick)
        remaining.remove(pick)
        np.maximum(max_sim_to_selected, w[pick], out=max_sim_to_selected)
    return Ordering(ids=tuple(g.nodes[i] for i in selected), method="mmr")


def random_order(cs: CitationSet, seed: int) -> Ordering:
    """Seeded Fisher-Yates permutation of the citation set."""
    ids = list(cs.ids)
    rng = random.Random(seed)
    for i in range(len(ids) - 1, 0, -1):
        j = rng.randint(0, i)
        ids[i], ids[j] = ids[j], ids[i]
    return Ordering(ids=tuple(ids), method="random")


def scores_to_tsv(scores: RankScores) -> str:
    """Export: ``node_id<TAB>score`` rows, descending score, six decimals."""
    lines = [f"{node}\t{scores.scores[node]:.6f}" for node in scores.ranked_ids()]
    return "\n".join(lines) + "\n"
