"""Word-budgeted extractive summaries.

The cluster-then-rank ordering (``c_lexrank_order``) partitions the
similarity network into communities, ranks each community's sentences by
within-cluster LexRank, and round-robins across communities in decreasing
size order so each pass adds one more perspective; ties go to the larger
internal weight, added left to right, since ``np.sum``'s pairwise rounding
could reorder near-equal clusters.  The round-robin variant (``c_rr_order``)
replaces the within-cluster ranking with seeded uniform picks.  Like every
method, both return a full Ordering and never see the budget;
``assemble_from_ordering`` packs an ordering under the word budget, and
``c_lexrank_summary`` / ``c_rr_summary`` are the one-call forms.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .community import Clustering, cluster_cnm
from .corpus import CitationSet, DataError, RunConfig, _read_text, _split_at_lf
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
    An ordering must list every sentence of ``cs`` and no other id.
    """
    by_id = {s.id: s for s in cs.sentences}
    listed = set(order.ids)
    missing = by_id.keys() - listed
    if missing:
        raise ValueError(f"ordering does not cover sentence(s): {sorted(missing)}")
    unknown = listed - by_id.keys()
    if unknown:
        raise ValueError(f"ordering names sentence(s) not in the set: {sorted(unknown)}")
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


def cluster_visit_order(g: SimilarityGraph, clustering: Clustering) -> list[list[int]]:
    """Each cluster's node indices in input order, clusters in visiting order:
    decreasing size, then decreasing internal weight, then lower index.

    A cluster's internal weight is its block of ``g.weights`` added left to
    right in row-major order (``np.cumsum``), as ``community.block_sums`` adds
    it; ``np.sum`` adds pairwise, which could swap two clusters of one size.
    """
    members: list[list[int]] = [[] for _ in range(clustering.g)]
    for i, node in enumerate(g.nodes):
        members[clustering.assignment[node]].append(i)
    # sorted is stable, so equal keys keep the lower cluster index first
    return sorted(members, key=lambda m: (-len(m), -np.cumsum(g.weights[np.ix_(m, m)])[-1]))


def _cluster_round_robin(g: SimilarityGraph, clustering: Clustering, order_cluster, method: str) -> Ordering:
    """Every sentence, one per cluster per pass, clusters in visiting order.

    ``order_cluster`` is called on each cluster's node indices, clusters in
    visiting order, and returns the cluster's sentence ids in picking order.
    """
    queues = [order_cluster(m) for m in cluster_visit_order(g, clustering)]
    picks = [sid for row in zip_longest(*queues) for sid in row if sid is not None]
    return Ordering(tuple(picks), method)


def c_lexrank_order(
    g: SimilarityGraph, cfg: RunConfig | None = None, clustering: Clustering | None = None
) -> Ordering:
    """Cluster the network, then take each cluster's most salient unpicked
    sentence (LexRank on its induced subgraph) per pass, largest cluster first.

    ``clustering`` overrides the detected communities (the single-cluster case
    reduces this ordering to the plain LexRank baseline's).
    """
    cfg = cfg or RunConfig()

    def by_salience(idx: list[int]) -> tuple[str, ...]:
        return lexrank(g.induced_subgraph(idx), cfg.lexrank_edge_threshold, cfg.lexrank_damping).ids

    return _cluster_round_robin(g, clustering or cluster_cnm(g), by_salience, "c-lexrank")


def c_rr_order(g: SimilarityGraph, seed: int, clustering: Clustering | None = None) -> Ordering:
    """Same cluster visiting order, but each cluster seeded-shuffled, in that order."""
    rng = random.Random(seed)

    def shuffled(idx: list[int]) -> list[str]:
        ids = [g.nodes[i] for i in idx]
        rng.shuffle(ids)
        return ids

    return _cluster_round_robin(g, clustering or cluster_cnm(g), shuffled, "c-rr")


def c_lexrank_summary(
    cs: CitationSet,
    g: SimilarityGraph,
    budget: int,
    cfg: RunConfig | None = None,
    clustering: Clustering | None = None,
) -> Summary:
    """``c_lexrank_order`` packed under ``budget`` words."""
    return assemble_from_ordering(cs, c_lexrank_order(g, cfg, clustering), budget)


def c_rr_summary(
    cs: CitationSet,
    g: SimilarityGraph,
    budget: int,
    seed: int,
    clustering: Clustering | None = None,
) -> Summary:
    """``c_rr_order`` packed under ``budget`` words."""
    return assemble_from_ordering(cs, c_rr_order(g, seed, clustering), budget)


def summary_from_json(path, data: bytes | None = None) -> Summary:
    """Read back the machine form written by Summary.to_json.

    Each field must have the JSON type ``to_json`` writes: ``words``,
    ``total_words`` and ``budget`` integers (a boolean is not one),
    ``truncated`` a boolean, the rest strings.  Anything else is a DataError
    that names the file and the field; nothing is coerced.  An entry without
    ``source_doc`` reads it as "".  The summary must also keep the rules
    ``assemble_from_ordering`` keeps: no count is negative, each entry's
    ``words`` is the word count of its ``text`` (``len(text.split())``, a
    truncated entry's too), no sentence id repeats, only the last entry may
    be truncated, and ``total_words`` is the sum of the entries' ``words``
    and at most ``budget``; a DataError names the broken one.  The file is
    read as every loader reads its input (``corpus._read_text``), so bytes
    that are not UTF-8, or a leading byte order mark, are a ParseError
    naming the line, its lines ending at LF alone as a citation set's do,
    since ``to_json`` writes U+0085, U+2028 and U+2029 unescaped; ``data``
    is the file's bytes if the caller has read them.
    """
    text = _read_text(path, data, _split_at_lf)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a valid summary JSON ({exc})") from None
    _typed(path, payload, dict, "summary")
    entries = []
    for k, e in enumerate(_field(path, payload, "entries", list)):
        where = f"entries[{k}]"
        _typed(path, e, dict, where)
        entries.append(
            SummaryEntry(
                sentence_id=_field(path, e, "id", str, where),
                text=_field(path, e, "text", str, where),
                words=_field(path, e, "words", int, where),
                truncated=_field(path, e, "truncated", bool, where),
                source_doc=_typed(path, e.get("source_doc", ""), str, f"{where}.source_doc"),
            )
        )
    summary = Summary(
        entries=tuple(entries),
        total_words=_field(path, payload, "total_words", int),
        method=_field(path, payload, "method", str),
        budget=_field(path, payload, "budget", int),
    )
    for name, count in (("budget", summary.budget), ("total_words", summary.total_words)):
        if count < 0:
            raise DataError(f"{path}: summary {name} {count} is negative")
    seen: set[str] = set()
    for k, e in enumerate(entries):
        if e.words < 0:
            raise DataError(f"{path}: summary entries[{k}].words {e.words} is negative")
        if e.words != len(e.text.split()):
            raise DataError(
                f"{path}: summary entries[{k}].words {e.words} is not the word count of its "
                f"text ({len(e.text.split())})"
            )
        if e.sentence_id in seen:
            raise DataError(
                f"{path}: summary entries[{k}].id {e.sentence_id!r} repeats an earlier id"
            )
        seen.add(e.sentence_id)
        if e.truncated and k != len(entries) - 1:
            raise DataError(f"{path}: summary entries[{k}] is truncated but not the last entry")
    words = sum(e.words for e in entries)
    if summary.total_words != words:
        raise DataError(
            f"{path}: summary total_words {summary.total_words} is not the sum of the "
            f"entries' words ({words})"
        )
    if summary.total_words > summary.budget:
        raise DataError(
            f"{path}: summary total_words {summary.total_words} exceeds budget {summary.budget}"
        )
    return summary


_JSON_TYPES = {
    dict: "an object", list: "a list", str: "a string", int: "an integer", bool: "a boolean"
}


def _typed(path, value, kind: type, name: str):
    """``value`` if its JSON type is ``kind``, else a DataError naming the field."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise DataError(
            f"{path}: summary field {name} must be {_JSON_TYPES[kind]}, got {value!r:.40}"
        )
    return value


def _field(path, record: dict, key: str, kind: type, where: str = ""):
    name = f"{where}.{key}" if where else key
    if key not in record:
        raise DataError(f"{path}: summary field {name} is missing")
    return _typed(path, record[key], kind, name)
