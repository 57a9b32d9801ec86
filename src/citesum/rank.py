"""Sentence orderings: LexRank, DivRank, MMR, random.

Every method returns an Ordering of every node.  A walk's (LexRank,
DivRank) is a RankScores: the ids by descending stationary score, plus the
scores themselves (non-negative, sum 1) and how the solve ended.  Everything
here is pure given (graph, parameters, seed).

Both walks sweep an n x n matrix once per iteration through one row-block
pool, ``_row_block_pool``: above one block of ``ROW_BLOCK_BYTES`` of rows,
a sweep's blocks are split over up to one thread per usable CPU, and the
blocks' shares are added in a fixed order, so the result does not depend
on the number of threads.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .corpus import CitationSet, ValidationError, plain_sum
from .graph import SimilarityGraph

MAX_ITERATIONS = 10_000
RESIDUAL_TOLERANCE = 1e-8
# Both walks read their n x n transitions in blocks of this many bytes of
# rows; DivRank reads a block twice per sweep, the second time from cache.
# 1 MiB holds the whole matrix up to n = 362.
ROW_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class Ordering:
    """A selection sequence over every node of a citation set or graph."""

    ids: tuple[str, ...]
    method: str

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("ordering must be a permutation (duplicate ids)")


@dataclass(frozen=True)
class RankScores(Ordering):
    """A walk's Ordering: ``ids`` by descending score, ties in node order, plus
    ``scores`` in node order.  The solve is not ``converged`` if it ran all
    ``MAX_ITERATIONS`` and its last L1 step ``residual`` is still at or above
    ``RESIDUAL_TOLERANCE``."""

    scores: dict[str, float]
    iterations: int
    residual: float
    converged: bool


def _ranking(g: SimilarityGraph, p: np.ndarray, method: str, iterations: int, residual: float) -> RankScores:
    """A walk's result from its scores ``p`` over ``g``'s nodes; ``sorted`` is stable, so ties keep node order."""
    scores = dict(zip(g.nodes, p.tolist()))
    ids = tuple(sorted(scores, key=scores.get, reverse=True))
    converged = iterations < MAX_ITERATIONS or residual < RESIDUAL_TOLERANCE
    return RankScores(ids, method, scores, iterations, residual, converged)


def _transition_matrix(adj: np.ndarray) -> np.ndarray:
    """Row-stochastic transitions on a boolean adjacency; dangling rows go uniform."""
    n = adj.shape[0]
    t = adj.astype(float)
    degrees = t.sum(axis=1)
    dangling = degrees == 0
    t /= np.where(dangling, 1.0, degrees)[:, None]  # in place: no n x n temporary
    t[dangling, :] = 1.0 / n
    return t


def _check_unit_interval(**params: float) -> None:
    """Raise ValueError naming the first of ``params`` that is NaN or outside [0, 1]."""
    for name, value in params.items():
        if not 0.0 <= value <= 1.0:  # false for NaN too
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _lexrank_block(b: slice, t_b: np.ndarray, p: np.ndarray, out: np.ndarray) -> None:
    """Rows ``b``'s share of ``t.T @ p``, ``p[b] @ t[b]``, into ``out``; ``t_b`` is ``t[b]``.

    ``np.dot(p, t)`` gives the bits of ``t.T @ p``; ``np.dot`` for the reason
    ``_divrank_block`` gives.
    """
    np.dot(p[b], t_b, out=out)


def lexrank(
    g: SimilarityGraph,
    threshold: float = 0.10,
    damping: float = 0.85,
) -> RankScores:
    """Stationary distribution of a damped walk on the binarized graph.

    Edges exist where cosine is strictly above the threshold; transitions are
    uniform over a node's edges, and nodes with no edges jump uniformly.
    Power iteration with an L1 stopping rule; ``damping`` must be in [0, 1].

    Each sweep's ``t.T @ p`` runs through ``_row_block_pool``, its blocks'
    shares added in block order.  With one block (n <= 362 at 1 MiB) that is
    one ``np.dot(p, t)``, whose bits are those of ``t.T @ p``; above that, the
    per-block partial sums change the summation order, and scores by a few
    units in the last place.  The bits never depend on the number of
    threads.
    """
    _check_unit_interval(damping=damping)
    n = len(g)
    if n == 0:
        raise ValueError("cannot rank an empty graph")
    t = _transition_matrix(g.binarize(threshold))
    p, p_next, step = np.full(n, 1.0 / n), np.empty(n), np.empty(n)
    jump = (1.0 - damping) / n
    residual = 0.0
    iterations = 0
    with _row_block_pool(t, _lexrank_block) as sweep:
        for iterations in range(1, MAX_ITERATIONS + 1):
            sweep((p,), True, p_next)  # t.T @ p
            p_next *= damping
            p_next += jump
            np.subtract(p_next, p, out=step)
            residual = float(np.abs(step, out=step).sum())
            p, p_next = p_next, p
            if residual < RESIDUAL_TOLERANCE:
                break
    p /= p.sum()
    return _ranking(g, p, "lexrank", iterations, residual)


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


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _divrank_block(b: slice, p0_b: np.ndarray, p: np.ndarray, d: np.ndarray, positive: bool, out: np.ndarray) -> None:
    """Rows ``b`` of ``d = p0 @ p`` into ``d[b]``, and their share of ``(p / d) @ p0`` into ``out``.

    ``p0_b`` is ``p0[b]``; ``positive`` says that ``p`` has no zero.  A row
    with ``p == 0`` or ``d == 0`` adds nothing.  ``np.dot`` rather than
    ``np.matmul``: both give the same bits here, and ``np.dot`` holds the
    GIL for less of each product, so threads calling it scale better.
    """
    d_b = np.dot(p0_b, p, out=d[b])
    if positive and d_b.min() > 0.0:
        np.dot(np.divide(p[b], d_b, out=d_b), p0_b, out=out)
    else:  # an empty mask gives zeros
        active = (p[b] > 0.0) & (d_b > 0.0)
        np.dot(p[b][active] / d_b[active], p0_b[active], out=out)


@contextlib.contextmanager
def _row_block_pool(m: np.ndarray, job: Callable[..., None]) -> Iterator[Callable[[tuple, bool, np.ndarray], None]]:
    """Yield ``sweep(args, forward, out)``, which sets ``out`` to the sum over
    ``m``'s blocks of ``ROW_BLOCK_BYTES`` of rows of what ``job(rows, m[rows],
    *args, share)`` writes into ``share``.

    With one block (n <= 362 at 1 MiB) the caller runs the job into ``out``
    itself.  Otherwise each block writes its share into its own row of a
    blocks x n partials buffer, and the caller adds the rows in block order
    when ``forward`` and in reverse order otherwise, so every add and its
    order are the same on any number of threads.  The blocks are split into
    contiguous shares over ``min(blocks, usable CPUs)`` threads: the caller
    and workers started here, each walking its share in the sweep's
    direction.  A pair of locks per worker marks the start and the end of
    each sweep, and on any exit every worker is stopped and joined.  A
    worker's exception is raised in the caller at the end of the sweep.
    """
    n = len(m)
    rows = max(1, ROW_BLOCK_BYTES // (8 * n))
    blocks = [(slice(i, i + rows), m[i : i + rows]) for i in range(0, n, rows)]
    nb = len(blocks)
    if nb == 1:

        def sweep(args: tuple, forward: bool, out: np.ndarray) -> None:
            job(*blocks[0], *args, out)

        yield sweep
        return

    parts = np.empty((nb, n))
    workers = min(nb, _usable_cpus())
    shares = [range(w * nb // workers, (w + 1) * nb // workers) for w in range(workers)]
    current = [(), True]  # this sweep's args and direction
    # Each worker's two locks, held while it may not run: the caller releases
    # ``go`` to start a sweep, the worker releases ``done`` when its share is in.
    go = [threading.Lock() for _ in shares[1:]]
    done = [threading.Lock() for _ in shares[1:]]
    for lock in go + done:
        lock.acquire()
    stopping = threading.Event()
    errors = []

    def run(share: range) -> None:
        args, forward = current
        for k in share if forward else share[::-1]:
            job(*blocks[k], *args, parts[k])

    def work(go: threading.Lock, done: threading.Lock, share: range) -> None:
        while True:
            go.acquire()
            if stopping.is_set():
                return
            try:
                run(share)
            except BaseException as exc:  # raised in the caller
                errors.append(exc)
            done.release()

    def sweep(args: tuple, forward: bool, out: np.ndarray) -> None:
        current[:] = args, forward
        for lock in go:
            lock.release()
        run(shares[0])
        for lock in done:
            lock.acquire()
        if errors:
            raise errors[0]
        first, second, *rest = range(nb) if forward else range(nb)[::-1]
        np.add(parts[first], parts[second], out=out)
        for k in rest:
            out += parts[k]

    threads = []
    try:
        for args in zip(go, done, shares[1:]):
            thread = threading.Thread(target=work, args=args, name="row-blocks", daemon=True)
            thread.start()
            threads.append(thread)
        yield sweep
    finally:
        # Each worker checks ``stopping`` after taking its ``go``.  Only this
        # thread releases a ``go``, so one that is not held is still to be
        # taken by its worker, which then stops.
        stopping.set()
        for lock in go:
            if lock.locked():
                lock.release()
        for thread in threads:
            thread.join()


def divrank(
    g: SimilarityGraph,
    lam: float = 0.90,
    alpha: float = 0.25,
    prior: dict[str, float] | None = None,
) -> RankScores:
    """Diversity-aware centrality from a vertex-reinforced walk.

    Uses the cumulative approximation: the running score stands in for the
    visit count, so each sweep redistributes mass toward already-heavy nodes
    while the (1-lam) teleport keeps the prior in play.  ``lam`` and
    ``alpha`` must be in [0, 1].  Uniform prior when none is supplied; a
    supplied prior must be finite and non-negative, not all zero, and name
    only nodes of ``g`` (a node it omits gets 0).

    Each sweep reads the n x n base transitions ``p0`` once, through
    ``_row_block_pool``: a block gives its rows of ``d = p0 @ p`` and, while
    still in cache, its rows' share of ``(p / d) @ p0``.  A block needs only
    the previous sweep's ``p``, so the blocks may run on several threads.
    The shares are added forward on odd sweeps and backward on even ones,
    and each sweep walks the blocks in that direction, so it starts on the
    block the last one read.  Memory is ``p0`` plus the partials and a few
    length-n buffers.  With one block (n <= 362 at 1 MiB) the arithmetic is
    that of the unblocked walk, bit for bit; above that, the per-block
    partial sums change the summation order, and scores by a few units in
    the last place.  The bits never depend on the number of threads.

    The reinforced product leaves out nodes with ``p == 0`` or ``d == 0``,
    where ``p / d`` is undefined.  It runs masked only when there is such a
    node, which takes a prior with zeros: a positive prior keeps ``p > 0``,
    and then ``d > 0``, since every row of the base transitions sums to 1.
    """
    _check_unit_interval(lam=lam, alpha=alpha)
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

    teleport = (1.0 - lam) * p_star
    p, p_next = np.full(n, 1.0 / n), np.empty(n)
    d, step = np.empty(n), np.empty(n)
    residual = 0.0
    iterations = 0
    with _row_block_pool(_divrank_base_transitions(g, alpha), _divrank_block) as sweep:
        for iterations in range(1, MAX_ITERATIONS + 1):
            # contrib[v] = sum_u p[u] * p0(u,v) / d[u], with d[u] = sum_v p0(u,v) * p[v]
            # (the visit count N estimated by p).
            contrib = p_next  # the spare buffer, which becomes p at the end of the sweep
            sweep((p, d, p.min() > 0.0), iterations % 2 == 1, contrib)
            contrib *= p
            contrib *= lam
            contrib += teleport
            contrib /= contrib.sum()
            np.subtract(contrib, p, out=step)
            residual = float(np.abs(step, out=step).sum())
            p, p_next = contrib, p
            if residual < RESIDUAL_TOLERANCE:
                break
    return _ranking(g, p, "divrank" if prior is None else "divrank-prior", iterations, residual)


def divrank_prior_from_length(cs: CitationSet, beta: float = 0.1) -> dict[str, float]:
    """Length-based visiting preference: weight = word_count^(-beta), normalized.

    Shorter sentences get larger prior mass; zero-word sentences count as one
    word so the power stays defined.  Raises ValidationError when a weight
    overflows or the total is not finite and positive: no such beta gives a
    distribution.
    """
    try:
        raw = {s.id: max(s.word_count, 1) ** (-beta) for s in cs.sentences}
        total = plain_sum(raw.values())
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
    lines = [f"{node}\t{scores.scores[node]:.6f}" for node in scores.ids]
    return "\n".join(lines) + "\n"
