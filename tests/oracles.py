"""Reference kernels the fast ones in ``citesum`` must match exactly.

These are the plain-loop implementations of greedy modularity agglomeration,
all-pairs BFS, the cluster visiting order, the clustering coefficient, the
DivRank base transitions, the similarity graph build with its one-pair
cosine, and the DOT export that the package shipped before its vectorized
kernels.  They are kept verbatim as oracles: same partition, same member
order, the same IEEE value of Q, the same path statistics, the same visiting
order, the same coefficient, the same transition matrix, the same weights
and the same DOT text.  Test use only; the first two are cubic in the node
count.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from citesum.community import Clustering, _clustering_from_members
from citesum.corpus import CitationSet, IdfTable
from citesum.graph import PathStats, SimilarityGraph
from citesum.lexical import TermVector, TokenizerConfig, tfidf_vector, tokenize


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
    vectors = [tfidf_vector(tokenize(s.text, tokenizer), idf) for s in cs.sentences]
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
