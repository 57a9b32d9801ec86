"""Modularity and greedy agglomerative community detection on the weighted graph.

Clustering operates on raw cosine weights, no thresholding: the similarity
network is weighted from the start and community structure should see the
weak edges too.  Purity and NMI measure a clustering against gold classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import SimilarityGraph


@dataclass(frozen=True)
class Clustering:
    """Partition of graph nodes: node id -> dense cluster index 0..g-1."""

    assignment: dict[str, int]
    g: int
    q: float

    def __post_init__(self):
        indices = set(self.assignment.values())
        if indices != set(range(self.g)):
            raise ValueError(f"cluster indices must be dense 0..{self.g - 1}, got {sorted(indices)}")

    def clusters(self) -> list[list[str]]:
        out: list[list[str]] = [[] for _ in range(self.g)]
        for node, c in self.assignment.items():
            out[c].append(node)
        return out


def block_sums(g: SimilarityGraph, labels: np.ndarray, k: int) -> np.ndarray:
    """S[a,b] = total weight between clusters a and b over ordered node pairs.

    One ``np.bincount`` over the weights in row-major order: the summation
    order is fixed and uses no BLAS, so the sums do not depend on threading.
    """
    pair_labels = labels[:, None] * k + labels[None, :]
    return np.bincount(pair_labels.ravel(), weights=g.weights.ravel(), minlength=k * k).reshape(k, k)


def modularity(g: SimilarityGraph, assignment: dict[str, int]) -> float:
    """Weighted modularity of a partition.

    Q = sum_a e_aa - sum_a (sum_b e_ab)^2 over the cluster-pair weight
    fractions e, where e is built from ordered node pairs so that row sums
    equal the clusters' degree fractions.  Q is exactly 0.0 for the
    single-cluster partition, and 0.0 by convention on a zero-weight graph.
    """
    if len(g) == 0:
        raise ValueError("modularity undefined on an empty graph")
    missing = [node for node in g.nodes if node not in assignment]
    if missing:
        raise ValueError(f"assignment missing node(s): {missing}")
    labels_list = [assignment[node] for node in g.nodes]
    k = max(labels_list) + 1
    labels = np.asarray(labels_list)
    s = block_sums(g, labels, k)
    total = s.sum()
    if total == 0.0:
        return 0.0
    e = s / total
    a = e.sum(axis=1)
    return float(np.trace(e) - (a * a).sum())


def cluster_cnm(g: SimilarityGraph) -> Clustering:
    """Greedy modularity agglomeration from singletons (Clauset-Newman-Moore).

    Repeatedly merges the cluster pair with the largest modularity gain
    2*(e_ij - a_i*a_j), stops once no merge strictly increases Q, and returns
    the best partition seen.  Ties go to the lowest index pair: lowest row i,
    then lowest column j.

    Each alive row i caches the best gain over alive columns j > i and the
    first column reaching it.  A merge of j into i changes only the gains
    that involve i or j, so it refreshes row i, the rows whose cached column
    was i or j, and compares gain(k, i) against the cache of every other row
    k < i.  The step's pair is the argmax over the row cache.  Each gain is
    read from the upper triangle with the same IEEE arithmetic as a rescan
    of every pair, so the partition and Q equal those of a full rescan at
    every step.  Cost: O(n) vectorized work per merge plus O(n) per
    refreshed row, so O(n^2) in the usual case.
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
    alive = np.ones(n, dtype=bool)
    parents = {i: [i] for i in range(n)}  # cluster index -> member node indices

    q = float(np.trace(e) - (a * a).sum())
    best_q = q
    best_members = [list(m) for m in parents.values()]

    # Row cache: best_val[i] = max gain over alive j > i, best_col[i] = the
    # first such j; -inf for dead rows and rows with no alive column right of
    # them.
    best_val = np.full(n, -np.inf)
    best_col = np.zeros(n, dtype=np.intp)
    _refresh_rows(e, a, alive, np.arange(n), best_val, best_col)

    while True:
        i = int(np.argmax(best_val))  # lowest row among the best
        best_gain = best_val[i]
        if not best_gain > 0.0:
            break
        j = int(best_col[i])
        # Row+column fold leaves e[i,i] = e_ii + e_jj + 2*e_ij as required.
        e[i, :] += e[j, :]
        e[:, i] += e[:, j]
        a[i] += a[j]
        parents[i].extend(parents[j])
        del parents[j]
        alive[j] = False
        best_val[j] = -np.inf
        q += best_gain
        if q > best_q:
            best_q = q
            best_members = [list(m) for m in parents.values()]

        # Rows that lost their cached column (j) or saw its gain change (i);
        # row i itself is among them, since its cached column was j.
        stale = alive & ((best_col == i) | (best_col == j))
        _refresh_rows(e, a, alive, np.flatnonzero(stale), best_val, best_col)
        # Every other row k < i: only gain(k, i) changed; equal gains go to
        # the lower column.
        k = np.flatnonzero(alive[:i] & ~stale[:i])
        gain = 2.0 * (e[k, i] - a[k] * a[i])
        cached = best_val[k]
        better = (gain > cached) | ((gain == cached) & (i < best_col[k]))
        best_val[k[better]] = gain[better]
        best_col[k[better]] = i

    return _clustering_from_members(g, best_members, best_q)


_REFRESH_BLOCK = 64  # rows per block: bounds the temporary at 64 x n gains


def _refresh_rows(
    e: np.ndarray,
    a: np.ndarray,
    alive: np.ndarray,
    rows: np.ndarray,
    best_val: np.ndarray,
    best_col: np.ndarray,
) -> None:
    """Recompute the row cache of ``rows`` over their alive columns j > row."""
    n = len(a)
    columns = np.arange(n)
    for start in range(0, len(rows), _REFRESH_BLOCK):
        block = rows[start : start + _REFRESH_BLOCK]
        gains = 2.0 * (e[block] - a[block, None] * a)
        gains[~(alive & (columns > block[:, None]))] = -np.inf
        col = np.argmax(gains, axis=1)
        best_col[block] = col
        best_val[block] = gains[np.arange(len(block)), col]


def _clustering_from_members(
    g: SimilarityGraph, members: list[list[int]], q: float
) -> Clustering:
    # Relabel clusters by first node appearance so indices are deterministic.
    ordered = sorted(members, key=min)
    assignment: dict[str, int] = {}
    for cluster_index, nodes in enumerate(ordered):
        for node_index in nodes:
            assignment[g.nodes[node_index]] = cluster_index
    return Clustering(assignment=assignment, g=len(ordered), q=q)


def purity(clustering: Clustering, classes: dict[str, str]) -> float:
    """Fraction of items whose cluster's majority class matches their own."""
    nodes = list(clustering.assignment)
    missing = [node for node in nodes if node not in classes]
    if missing:
        raise ValueError(f"class labels missing for node(s): {missing}")
    n = len(nodes)
    correct = 0
    for cluster_nodes in clustering.clusters():
        counts: dict[str, int] = {}
        for node in cluster_nodes:
            counts[classes[node]] = counts.get(classes[node], 0) + 1
        correct += max(counts.values())
    return correct / n


def nmi(clustering: Clustering, classes: dict[str, str]) -> float:
    """Mutual information normalized by the mean of the two entropies.

    Natural logs (the base cancels in the ratio).  1.0 by convention when
    both entropies are zero (one cluster and one class); clamped to [0,1]
    against last-ulp drift.
    """
    nodes = list(clustering.assignment)
    missing = [node for node in nodes if node not in classes]
    if missing:
        raise ValueError(f"class labels missing for node(s): {missing}")
    n = len(nodes)
    cluster_sizes: dict[int, int] = {}
    class_sizes: dict[str, int] = {}
    joint: dict[tuple[int, str], int] = {}
    for node in nodes:
        ck, cj = clustering.assignment[node], classes[node]
        cluster_sizes[ck] = cluster_sizes.get(ck, 0) + 1
        class_sizes[cj] = class_sizes.get(cj, 0) + 1
        joint[(ck, cj)] = joint.get((ck, cj), 0) + 1

    h_clusters = h_classes = 0.0  # plain left-to-right adds: sum() compensates since 3.12
    for s in cluster_sizes.values():
        h_clusters -= s / n * math.log(s / n)
    for s in class_sizes.values():
        h_classes -= s / n * math.log(s / n)
    if h_clusters == 0.0 and h_classes == 0.0:
        return 1.0
    mutual = 0.0
    for (ck, cj), count in joint.items():
        # 0 log 0 := 0; counts here are always positive.
        mutual += count / n * math.log(n * count / (cluster_sizes[ck] * class_sizes[cj]))
    return min(1.0, max(0.0, mutual / ((h_clusters + h_classes) / 2.0)))


def clustering_to_tsv(clustering: Clustering, node_order: list[str] | tuple[str, ...]) -> str:
    """Export: header line with Q, then ``node_id<TAB>cluster_index`` rows."""
    lines = [f"# Q={clustering.q:.6f}"]
    for node in node_order:
        lines.append(f"{node}\t{clustering.assignment[node]}")
    return "\n".join(lines) + "\n"
