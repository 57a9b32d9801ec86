"""Word-budgeted extractive summaries.

The cluster-then-rank summarizer partitions the similarity network into
communities, ranks each community's sentences by within-cluster LexRank, and
round-robins across communities in decreasing size order so each pass adds
one more perspective.  The round-robin variant replaces the within-cluster
ranking with seeded uniform picks.  Every summarizer ends in a full Ordering
that ``assemble_from_ordering`` packs under the word budget.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .community import Clustering, block_sums, cluster_cnm
from .corpus import CitationSet, DataError, RunConfig
from .graph import SimilarityGraph
from .rank import Ordering, lexrank


@dataclass(frozen=True)
class SummaryEntry:
    sentence_id: str
    text: str
    words: int
    truncated: bool
    source_doc: str = ""


@dataclass(frozen=True)
class Summary:
    """Selection-ordered sentences fitting a word budget.

    Only the final entry may be truncated; total_words never exceeds budget.
    """

    entries: tuple[SummaryEntry, ...]
    total_words: int
    method: str
    budget: int

    @property
    def sentence_ids(self) -> list[str]:
        return [e.sentence_id for e in self.entries]

    def to_text(self) -> str:
        header = f"# method={self.method} budget={self.budget} words={self.total_words}"
        return "\n".join([header] + [e.text for e in self.entries]) + "\n"

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "budget": self.budget,
            "total_words": self.total_words,
            "entries": [
                {
                    "id": e.sentence_id,
                    "text": e.text,
                    "words": e.words,
                    "truncated": e.truncated,
                    "source_doc": e.source_doc,
                }
                for e in self.entries
            ],
        }
        return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def assemble_from_ordering(cs: CitationSet, order: Ordering, budget: int) -> Summary:
    """Summary from a full ordering: take sentences in order until the word
    budget is exhausted.

    The sentence that crosses the budget is cut mid-sentence at the budget
    boundary; with budget 0 or an exhausted budget nothing more is added.
    """
    missing = set(cs.ids) - set(order.ids)
    if missing:
        raise ValueError(f"ordering does not cover sentence(s): {sorted(missing)}")
    by_id = {s.id: s for s in cs.sentences}
    entries: list[SummaryEntry] = []
    used = 0
    for sid in order.ids:
        if used >= budget:
            break
        sentence = by_id[sid]
        remaining = budget - used
        if sentence.word_count <= remaining:
            entries.append(
                SummaryEntry(sid, sentence.text, sentence.word_count, False, sentence.source_doc)
            )
            used += sentence.word_count
        else:
            words = sentence.text.split()[:remaining]
            entries.append(SummaryEntry(sid, " ".join(words), remaining, True, sentence.source_doc))
            used = budget
            break
    return Summary(entries=tuple(entries), total_words=used, method=order.method, budget=budget)


def cluster_visit_order(g: SimilarityGraph, clustering: Clustering) -> list[int]:
    """Cluster indices in visiting order: decreasing size, then decreasing
    internal weight, then lower index."""
    labels = np.array([clustering.assignment[node] for node in g.nodes])
    sizes = np.bincount(labels, minlength=clustering.g)
    internal = np.diag(block_sums(g, labels, clustering.g))
    return sorted(range(clustering.g), key=lambda c: (-sizes[c], -internal[c], c))


def _cluster_members(g: SimilarityGraph, clustering: Clustering) -> list[list[int]]:
    """Each cluster's node indices in input order, from one pass over the nodes."""
    members: list[list[int]] = [[] for _ in range(clustering.g)]
    for i, node in enumerate(g.nodes):
        members[clustering.assignment[node]].append(i)
    return members


def _clustered_rankings(
    g: SimilarityGraph, clustering: Clustering, cfg: RunConfig
) -> dict[int, list[str]]:
    """Within-cluster salience orderings on the induced binarized subgraphs."""
    rankings: dict[int, list[str]] = {}
    for c, idx in enumerate(_cluster_members(g, clustering)):
        sub = g.induced_subgraph(idx)
        scores = lexrank(sub, cfg.lexrank_edge_threshold, cfg.lexrank_damping)
        rankings[c] = scores.ranked_ids()
    return rankings


def _round_robin(
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


def c_lexrank_summary(
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
    rankings = _clustered_rankings(g, clustering, cfg)
    order = Ordering(tuple(_round_robin(visit, rankings)), "c-lexrank")
    return assemble_from_ordering(cs, order, budget)


def c_rr_summary(
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
    order = Ordering(tuple(_round_robin(visit, shuffled)), "c-rr")
    return assemble_from_ordering(cs, order, budget)


def summary_from_json(path) -> Summary:
    """Read back the machine form written by Summary.to_json."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        entries = tuple(
            SummaryEntry(
                sentence_id=e["id"],
                text=e["text"],
                words=int(e["words"]),
                truncated=bool(e["truncated"]),
                source_doc=e.get("source_doc", ""),
            )
            for e in payload["entries"]
        )
        return Summary(
            entries=entries,
            total_words=int(payload["total_words"]),
            method=str(payload["method"]),
            budget=int(payload["budget"]),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: not a valid summary JSON ({exc})") from None
