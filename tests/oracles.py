"""Reference kernels the fast ones in ``citesum`` must match.

These are the plain-loop implementations of greedy modularity agglomeration,
all-pairs BFS, the cluster visiting order, the clustering coefficient, the
LexRank and DivRank transitions, the DivRank walk, the MMR ordering, the
seeded random ordering, the tokenizer, the similarity graph build with its
one-pair cosine, the DOT export and the per-line IDF table loader that the
package shipped before its vectorized kernels, and the C-LexRank and C-RR
summarizers that drained per-cluster queues and packed the budget
themselves before every summarizer returned an ordering.  They are kept
verbatim as oracles: same partition, same member order, the same IEEE value
of Q, the same path statistics, the same visiting order, the same
coefficient, the same transition matrices, the same ordering, the same
terms, the same weights, the same DOT text, the same IDF table (items in
order, the default's bits) or the same exception type and message, and the
same summary.  DivRank gives the same scores, iteration count and residual
while its transitions fit in one block of ``citesum.rank.DIVRANK_BLOCK_BYTES``;
over several blocks, the same iteration count and scores within a stated
relative bound (see ``tests/test_kernels.py``).  The graph oracle tokenizes
with ``tokenize_oracle``, so it is independent of the package's tokenizer
too.  Test use only; the first two are cubic in the node count.
"""

from __future__ import annotations

import math
import random
import re
from collections import deque
from pathlib import Path

import numpy as np

from citesum import rank
from citesum.community import Clustering, _clustering_from_members, cluster_cnm
from citesum.corpus import CitationSet, IdfTable, ParseError, RunConfig, ValidationError, _tsv_rows
from citesum.graph import PathStats, SimilarityGraph
from citesum.lexical import TermVector, TokenizerConfig, tfidf_vector
from citesum.rank import Ordering, RankScores, _divrank_base_transitions, lexrank
from citesum.summarize import Summary, _cluster_members, assemble_from_ordering, cluster_visit_order


def cluster_cnm_oracle(g: SimilarityGraph) -> Clustering:
    """Greedy modularity agglomeration from singletons.

    Repeatedly merges the cluster pair with the largest modularity gain
    (ties broken by lowest index pair), stops once no merge increases Q, and
    returns the best partition seen.  O(n^3) worst case, fine at sentence
    scale.
    """
    n = len(g)
    if n == 0:
        raise ValueError("cannot cluster an empty graph")
    w = g.weights
    total = w.sum()  # ordered pairs: twice the undirected total
    if total == 0.0:
        # No edges: every partition has Q = 0; keep singletons.
        return Clustering(
            assignment={node: i for i, node in enumerate(g.nodes)}, g=n, q=0.0
        )

    # e[i,j]: weight fraction between current clusters i and j (ordered pairs);
    # row sums a[i] are the degree fractions, so merging i,j gains
    # 2*(e[i,j] - a[i]*a[j]).
    e = w / total
    a = e.sum(axis=1)
    alive = list(range(n))
    parents = {i: [i] for i in range(n)}  # cluster index -> member node indices

    q = float(np.trace(e) - (a * a).sum())
    best_q = q
    best_members = [list(m) for m in parents.values()]

    while len(alive) > 1:
        best_gain = 0.0
        best_pair: tuple[int, int] | None = None
        for ai in range(len(alive)):
            i = alive[ai]
            for bi in range(ai + 1, len(alive)):
                j = alive[bi]
                gain = 2.0 * (e[i, j] - a[i] * a[j])
                if gain > best_gain:
                    best_gain = gain
                    best_pair = (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        # Row+column fold leaves e[i,i] = e_ii + e_jj + 2*e_ij as required.
        e[i, :] += e[j, :]
        e[:, i] += e[:, j]
        a[i] += a[j]
        parents[i].extend(parents[j])
        del parents[j]
        alive.remove(j)
        q += best_gain
        if q > best_q:
            best_q = q
            best_members = [list(parents[c]) for c in alive]

    return _clustering_from_members(g, best_members, best_q)


def average_shortest_path_oracle(g: SimilarityGraph, threshold: float = 0.10) -> PathStats:
    """BFS hop distances on the binarized graph, averaged over connected pairs.

    Disconnected pairs are excluded from the mean (infinity would destroy it)
    and reported as a fraction of all unordered pairs.  With no pairs at all
    (n < 2) or no connected pairs, the average is inf.
    """
    adj = g.binarize(threshold)
    n = len(g)
    neighbor_lists = [np.flatnonzero(adj[i]) for i in range(n)]
    total = 0
    connected_pairs = 0
    for source in range(n):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in neighbor_lists[u]:
                v = int(v)
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for v, d in dist.items():
            if v > source:
                total += d
                connected_pairs += 1
    all_pairs = n * (n - 1) // 2
    if all_pairs == 0:
        return PathStats(float("inf"), 0.0)
    average = total / connected_pairs if connected_pairs else float("inf")
    return PathStats(average, (all_pairs - connected_pairs) / all_pairs)


def cluster_visit_order_oracle(g: SimilarityGraph, clustering: Clustering) -> list[int]:
    """Cluster indices by decreasing size, then decreasing internal weight
    (a Python sum over each cluster's node pairs), then lower index."""
    node_index = {node: i for i, node in enumerate(g.nodes)}
    keys = []
    for c, members in enumerate(clustering.clusters()):
        idx = [node_index[node] for node in members]
        internal = sum(
            g.weights[i, j] for pos, i in enumerate(idx) for j in idx[pos + 1 :]
        )
        keys.append((-len(members), -internal, c))
    return [c for _, _, c in sorted(keys)]


def clustering_coefficient_oracle(g: SimilarityGraph, threshold: float = 0.10) -> float:
    """Mean local clustering over all vertices of the binarized graph, one node at a time."""
    adj = g.binarize(threshold)
    n = len(g)
    total = 0.0
    for i in range(n):
        neighbors = np.flatnonzero(adj[i])
        k = len(neighbors)
        if k < 2:
            continue
        links = int(np.triu(adj[np.ix_(neighbors, neighbors)], 1).sum())
        total += links / (k * (k - 1) / 2)
    return total / n


def transition_matrix_oracle(adj: np.ndarray) -> np.ndarray:
    """LexRank's row-stochastic transitions, dividing only the rows with edges."""
    n = adj.shape[0]
    t = adj.astype(float)
    degrees = t.sum(axis=1)
    dangling = degrees == 0
    t[dangling, :] = 1.0 / n
    t[~dangling, :] /= degrees[~dangling, None]
    return t


def divrank_base_transitions_oracle(g: SimilarityGraph, alpha: float) -> np.ndarray:
    """alpha*w(u,v)/deg(u) off-diagonal and 1-alpha self, row by row; isolated rows stay put."""
    n = len(g)
    w = g.weights
    degrees = w.sum(axis=1)
    p0 = np.zeros((n, n))
    for u in range(n):
        if degrees[u] == 0.0:
            p0[u, u] = 1.0
        else:
            p0[u, :] = alpha * w[u, :] / degrees[u]
            p0[u, u] = 1.0 - alpha
    return p0


def divrank_oracle(
    g: SimilarityGraph,
    lam: float = 0.90,
    alpha: float = 0.25,
    prior: dict[str, float] | None = None,
) -> RankScores:
    """The DivRank walk with the masked reinforced product on every iteration.

    Reads ``MAX_ITERATIONS`` and ``RESIDUAL_TOLERANCE`` from ``citesum.rank``
    at call time, so a test that patches them patches both solvers.
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
    for iterations in range(1, rank.MAX_ITERATIONS + 1):
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
        if residual < rank.RESIDUAL_TOLERANCE:
            break
    return RankScores(
        scores={node: float(p[i]) for i, node in enumerate(g.nodes)},
        method="divrank" if prior is None else "divrank-prior",
        iterations=iterations,
        residual=residual,
    )


def mmr_order_oracle(g: SimilarityGraph) -> Ordering:
    """Greedy anti-similarity ordering by ``min`` over the list of unpicked nodes."""
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


def random_order_oracle(cs: CitationSet, seed: int) -> Ordering:
    """Seeded Fisher-Yates permutation, one ``randint(0, i)`` swap per position."""
    ids = list(cs.ids)
    rng = random.Random(seed)
    for i in range(len(ids) - 1, 0, -1):
        j = rng.randint(0, i)
        ids[i], ids[j] = ids[j], ids[i]
    return Ordering(ids=tuple(ids), method="random")


_NON_ALNUM = re.compile(r"[^0-9a-zA-Z]+")


def tokenize_oracle(text: str, cfg: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Deterministic term list for a sentence; empty text gives an empty list."""
    terms = []
    for raw in text.split():
        term = raw.lower() if cfg.lowercase else raw
        if cfg.strip_punctuation:
            term = _NON_ALNUM.sub("", term)
        if term and term not in cfg.stopwords:
            terms.append(term)
    return terms


def cosine_similarity(u: TermVector, v: TermVector) -> float:
    """dot(u,v) / (|u||v|), with 0.0 when either vector is empty.

    Symmetric, scale invariant, and in [0,1] for non-negative weights.  The
    products are added left to right in sorted term order with plain float
    adds, the order the graph build reproduces.
    """
    if u.norm == 0.0 or v.norm == 0.0:
        return 0.0
    # Canonical term order keeps cos(u,v) == cos(v,u) bit-exact.
    dot = 0.0
    for t in sorted(u.weights.keys() & v.weights.keys()):
        dot += u.weights[t] * v.weights[t]
    return dot / (u.norm * v.norm)


def build_citation_summary_network_oracle(
    cs: CitationSet, idf: IdfTable, tokenizer: TokenizerConfig = TokenizerConfig()
) -> SimilarityGraph:
    """Pairwise TF-IDF cosine graph over the citation set, one cosine per pair."""
    if len(cs) == 0:
        raise ValueError("citation set is empty")
    vectors = [tfidf_vector(tokenize_oracle(s.text, tokenizer), idf) for s in cs.sentences]
    n = len(vectors)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            w[i, j] = w[j, i] = min(1.0, cosine_similarity(vectors[i], vectors[j]))
    return SimilarityGraph(nodes=tuple(cs.ids), weights=w)


def to_dot_oracle(g: SimilarityGraph, threshold: float = 0.10) -> str:
    """DOT rendering of the binarized graph; edge labels carry the raw weight."""
    lines = ["graph citation_summary_network {"]
    for node in g.nodes:
        lines.append(f'  "{node}";')
    adj = g.binarize(threshold)
    n = len(g)
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i, j]:
                lines.append(
                    f'  "{g.nodes[i]}" -- "{g.nodes[j]}" [label="{g.weights[i, j]:.4f}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_idf_table_oracle(path: str | Path) -> IdfTable:
    """Load ``term<TAB>idf`` rows, one per term; unseen terms default to the max observed idf."""
    values: dict[str, float] = {}
    for lineno, (term, value_s) in _tsv_rows(path, ("term", "idf")):
        value_s = value_s.strip()
        try:
            value = float(value_s)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad idf value {value_s!r}") from None
        if not math.isfinite(value):
            raise ValidationError(f"{path}:{lineno}: non-finite idf {value_s!r} for term {term!r}")
        if value < 0:
            raise ValidationError(f"{path}:{lineno}: negative idf {value} for term {term!r}")
        if term in values:
            raise ValidationError(f"{path}:{lineno}: repeated idf term {term!r}")
        values[term] = value
    if not values:
        raise ValidationError(f"{path}: empty idf table")
    return IdfTable(values=values, default_idf=max(values.values()))


def _clustered_rankings_oracle(
    g: SimilarityGraph, clustering: Clustering, cfg: RunConfig
) -> dict[int, list[str]]:
    """Within-cluster salience orderings on the induced binarized subgraphs."""
    rankings: dict[int, list[str]] = {}
    for c, idx in enumerate(_cluster_members(g, clustering)):
        sub = g.induced_subgraph(idx)
        scores = lexrank(sub, cfg.lexrank_edge_threshold, cfg.lexrank_damping)
        rankings[c] = scores.ranked_ids()
    return rankings


def _round_robin_oracle(
    visit_order: list[int],
    per_cluster: dict[int, list[str]],
) -> list[str]:
    """Interleave cluster queues: one sentence per cluster per pass."""
    queues = {c: list(per_cluster[c]) for c in visit_order}
    selection: list[str] = []
    while any(queues.values()):
        for c in visit_order:
            if queues[c]:
                selection.append(queues[c].pop(0))
    return selection


def c_lexrank_summary_oracle(
    cs: CitationSet,
    g: SimilarityGraph,
    budget: int,
    cfg: RunConfig | None = None,
    clustering: Clustering | None = None,
) -> Summary:
    """Cluster the network, then pick each cluster's most salient unselected
    sentence per pass, clusters visited largest first.

    ``clustering`` overrides the detected communities (the single-cluster case
    reduces this summarizer to the plain LexRank baseline).
    """
    cfg = cfg or RunConfig()
    clustering = clustering or cluster_cnm(g)
    visit = cluster_visit_order(g, clustering)
    rankings = _clustered_rankings_oracle(g, clustering, cfg)
    order = Ordering(tuple(_round_robin_oracle(visit, rankings)), "c-lexrank")
    return assemble_from_ordering(cs, order, budget)


def c_rr_summary_oracle(
    cs: CitationSet,
    g: SimilarityGraph,
    budget: int,
    seed: int,
    clustering: Clustering | None = None,
) -> Summary:
    """Same cluster visiting order, but uniform seeded picks within clusters."""
    clustering = clustering or cluster_cnm(g)
    visit = cluster_visit_order(g, clustering)
    members = _cluster_members(g, clustering)
    rng = random.Random(seed)
    shuffled: dict[int, list[str]] = {}
    for c in visit:
        shuffled[c] = [g.nodes[i] for i in members[c]]
        rng.shuffle(shuffled[c])
    order = Ordering(tuple(_round_robin_oracle(visit, shuffled)), "c-rr")
    return assemble_from_ordering(cs, order, budget)
