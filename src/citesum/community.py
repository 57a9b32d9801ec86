"""Modularity and greedy agglomerative community detection on the weighted graph.

Clustering operates on raw cosine weights, no thresholding: the similarity
network is weighted from the start and community structure should see the
weak edges too.  Purity and NMI measure a clustering against gold classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import plain_sum
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

    The loop logs each merge ``(i, j)`` and the merge count at each new best
    Q.  The best partition is rebuilt once at the end by replaying that
    prefix of the log from singletons, with the same ``extend`` and ``del``
    as the merges, so its member lists and their order are those the
    partition had when its Q was reached.  A last merge whose gain is below
    half an ulp of Q leaves Q unchanged, so it is not part of the prefix.

    The gains live in one n x n matrix, built in place: ``gain[r, c]`` is
    2*(e[r,c] - a[r]*a[c]) for alive clusters r < c and -inf everywhere else.
    Each alive row caches its largest gain and the first column reaching it,
    and the step's pair is the argmax over that cache.  A merge of j into i
    computes the merged cluster's gains once from row i of ``e``, writes them
    into row i (columns > i) and column i (rows < i), and sets column j to
    -inf.  A row's cache can then only be wrong if its cached column was i
    or j, or if its new gain to i is at least its cached gain (an equal gain
    goes to the lower column), so only those alive rows are rescanned, in
    one gather.  Both folds add the same two IEEE values to e[i,k] and
    e[k,i], so ``e`` stays exactly symmetric off the diagonal and the gain
    read from row i has the bits of the upper-triangle value a rescan of
    every pair reads: the partition and Q equal those of a full rescan at
    every step.  Cost: O(n) vectorized work per merge plus O(n) per
    rescanned row, so O(n^2) in the usual case, plus one O(n) replay.
    Memory: two n x n float arrays, ``e`` and the gains.
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
    merges: list[tuple[int, int]] = []  # (i, j): cluster j folded into cluster i

    q = float(np.trace(e) - (a * a).sum())
    best_q = q
    best_merges = 0  # the best partition is singletons after this many merges

    gain = np.multiply.outer(a, a)
    np.subtract(e, gain, out=gain)
    gain *= 2.0
    gain[np.tri(n, dtype=bool)] = -np.inf
    best_col = gain.argmax(axis=1)
    best_val = gain.max(axis=1)
    merged = np.empty(n)  # the merged cluster's gains

    while True:
        i = int(best_val.argmax())  # lowest row among the best
        best_gain = best_val[i]
        if not best_gain > 0.0:
            break
        j = int(best_col[i])
        # Row+column fold leaves e[i,i] = e_ii + e_jj + 2*e_ij as required.
        e[i, :] += e[j, :]
        e[:, i] += e[:, j]
        a[i] += a[j]
        # A dead cluster's degree fraction is inf, so every gain against it
        # is -inf: a merge needs e[i,j] > 0, which makes a[i] > 0.
        a[j] = np.inf
        merges.append((i, j))
        alive[j] = False
        best_val[j] = -np.inf
        q += best_gain
        if q > best_q:
            best_q = q
            best_merges = len(merges)

        np.multiply(a, a[i], out=merged)
        np.subtract(e[i], merged, out=merged)
        merged *= 2.0
        gain[i, i + 1 :] = merged[i + 1 :]
        gain[:i, i] = merged[:i]
        gain[:j, j] = -np.inf

        # Row i is among the rescanned rows, since its cached column was j.
        stale = (best_col == i) | (best_col == j)
        stale[:i] |= merged[:i] >= best_val[:i]
        stale &= alive
        rows = np.flatnonzero(stale)
        block = gain[rows]
        best_col[rows] = block.argmax(axis=1)
        best_val[rows] = block.max(axis=1)

    parents = {c: [c] for c in range(n)}  # cluster index -> member node indices
    for i, j in merges[:best_merges]:
        parents[i].extend(parents[j])
        del parents[j]
    return _clustering_from_members(g, list(parents.values()), best_q)


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

    h_clusters = plain_sum(-(s / n * math.log(s / n)) for s in cluster_sizes.values())
    h_classes = plain_sum(-(s / n * math.log(s / n)) for s in class_sizes.values())
    if h_clusters == 0.0 and h_classes == 0.0:
        return 1.0
    # 0 log 0 := 0; counts here are always positive.
    mutual = plain_sum(
        count / n * math.log(n * count / (cluster_sizes[ck] * class_sizes[cj])) for (ck, cj), count in joint.items()
    )
    return min(1.0, max(0.0, mutual / ((h_clusters + h_classes) / 2.0)))


def clustering_to_tsv(clustering: Clustering, node_order: list[str] | tuple[str, ...]) -> str:
    """Export: header line with Q, then ``node_id<TAB>cluster_index`` rows."""
    q = f"{clustering.q:.6f}"
    if q == "-0.000000":  # a rounding residue of Q = 0 (one cluster) reads as zero
        q = q[1:]
    lines = [f"# Q={q}"]
    for node in node_order:
        lines.append(f"{node}\t{clustering.assignment[node]}")
    return "\n".join(lines) + "\n"
