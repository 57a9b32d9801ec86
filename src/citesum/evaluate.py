"""Content evaluation: tiered factoid pyramids, n-gram agreement kappa, ROUGE-N.

The pyramid weighs each factoid by the number of sentences that mention it;
a summary scores the weight it covers against the best weight any summary
with as many sentences could cover.  Kappa measures two annotators' span
markings over n-gram windows.  ROUGE-N is recall of reference n-grams, with
optional leave-one-reference-out jackknifing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .corpus import CitationSet, DataError, FactoidAnnotation, NuggetSpanAnnotation
from .summarize import Summary


@dataclass(frozen=True)
class Pyramid:
    """tiers[i] = factoids mentioned in exactly i sentences; n is the top tier."""

    tiers: dict[int, frozenset[str]]
    n: int

    @cached_property
    def _tier_of(self) -> dict[str, int]:
        return {f: tier for tier, members in self.tiers.items() for f in members}

    def weight(self, factoid: str) -> int:
        return self._tier_of.get(factoid, 0)


@dataclass(frozen=True)
class EvalReport:
    """One pyramid evaluation cell: a method/budget pair with its coverage."""

    method: str
    budget: int
    pyramid_score: float
    covered_factoids: int
    weight_covered: int
    weight_optimal: int

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "budget": self.budget,
            "pyramid": self.pyramid_score,
            "covered_factoids": self.covered_factoids,
            "D": self.weight_covered,
            "Max": self.weight_optimal,
        }


def build_pyramid(ann: FactoidAnnotation) -> Pyramid:
    """Tier each factoid by its sentence-occurrence count; unmentioned factoids drop out."""
    counts: Counter[str] = Counter()
    for facts in ann.sentence_factoids.values():
        counts.update(facts)
    tiers: dict[int, set[str]] = {}
    for factoid, count in counts.items():
        tiers.setdefault(count, set()).add(factoid)
    return Pyramid(
        tiers={t: frozenset(members) for t, members in tiers.items()},
        n=max(tiers) if tiers else 0,
    )


def optimal_weight(pyr: Pyramid, size: int) -> int:
    """Best achievable factoid weight for a summary of ``size`` sentences.

    The sum of the ``size`` heaviest factoid weights, taken tier by tier from
    the top; when size exceeds the factoid inventory, the whole pyramid's
    weight is the cap.
    """
    heaviest_first = (tier for tier in sorted(pyr.tiers, reverse=True) for _ in pyr.tiers[tier])
    return sum(islice(heaviest_first, max(size, 0)))


def pyramid_score(summary: Summary, ann: FactoidAnnotation, pyr: Pyramid) -> EvalReport:
    """Covered-factoid weight over the optimal weight at equal sentence count.

    Each distinct covered factoid counts once at its tier weight; the ideal
    summary is assumed to contribute one new top-tier factoid per sentence,
    so coverage is capped at the optimum and the score stays in [0,1].
    A zero optimum (empty pyramid or empty summary) scores 1.0 by convention.
    """
    unknown = [sid for sid in summary.sentence_ids if sid not in ann.sentence_factoids]
    if unknown:
        raise DataError(f"summary sentence(s) missing from annotation: {unknown}")
    covered: set[str] = set()
    for sid in summary.sentence_ids:
        covered |= ann.factoids_of(sid)
    d = sum(pyr.weight(f) for f in covered)
    max_weight = optimal_weight(pyr, len(summary.sentence_ids))
    d = min(d, max_weight)
    score = 1.0 if max_weight == 0 else d / max_weight
    return EvalReport(
        method=summary.method,
        budget=summary.budget,
        pyramid_score=score,
        covered_factoids=len(covered),
        weight_covered=d,
        weight_optimal=max_weight,
    )


def _token_byte_offsets(text: str) -> list[tuple[int, int]]:
    """Whitespace tokens as (start, end) byte ranges into the UTF-8 text."""
    offsets = []
    byte_pos = 0
    char_pos = 0
    for token in text.split():
        char_start = text.index(token, char_pos)
        byte_pos += len(text[char_pos:char_start].encode("utf-8"))
        token_bytes = len(token.encode("utf-8"))
        offsets.append((byte_pos, byte_pos + token_bytes))
        byte_pos += token_bytes
        char_pos = char_start + len(token)
    return offsets


def _window_labels(
    annotations: tuple[NuggetSpanAnnotation, ...], cs: CitationSet, n: int
) -> list[list[bool]]:
    """Per annotation, one in/out label per n-gram token window, pooled over all sentences.

    Each sentence is tokenized once for all annotations.  A token is inside a
    nugget iff its full byte range lies within one span; a window is inside
    iff all of its tokens are.
    """
    labels: list[list[bool]] = [[] for _ in annotations]
    for sentence in cs.sentences:
        tokens = _token_byte_offsets(sentence.text)
        for annotation, out in zip(annotations, labels):
            spans = annotation.spans_of(sentence.id)
            in_nugget = [
                any(start <= ts and te <= end for start, end in spans) for ts, te in tokens
            ]
            out.extend(all(in_nugget[i : i + n]) for i in range(len(tokens) - n + 1))
    return labels


def ngram_kappa(
    a: NuggetSpanAnnotation,
    b: NuggetSpanAnnotation,
    cs: CitationSet,
    n: int = 1,
    chance_model: str = "cohen",
) -> float:
    """Chance-corrected agreement on in/out-of-nugget labels of n-gram windows.

    ``chance_model`` picks how expected agreement is computed from the label
    frequencies: per-annotator marginals ("cohen", default), pooled marginals
    ("scott"), or a flat 1/2 ("uniform").  Symmetric in the two annotators;
    1.0 when expected agreement is already total.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    labels_a, labels_b = _window_labels((a, b), cs, n)
    total = len(labels_a)
    if total == 0:
        raise DataError("no units: no sentence has enough tokens for this n-gram size")
    observed = sum(la == lb for la, lb in zip(labels_a, labels_b)) / total
    pa_in = sum(labels_a) / total
    pb_in = sum(labels_b) / total
    if chance_model == "cohen":
        expected = pa_in * pb_in + (1 - pa_in) * (1 - pb_in)
    elif chance_model == "scott":
        pooled = (pa_in + pb_in) / 2
        expected = pooled * pooled + (1 - pooled) * (1 - pooled)
    elif chance_model == "uniform":
        expected = 0.5
    else:
        raise ValueError(f"unknown chance model {chance_model!r}")
    if expected == 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)


def _ngrams(text: str, n: int) -> Counter:
    tokens = [t.lower() for t in text.split()]
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(
    candidate: str,
    references: list[str],
    n: int = 2,
    jackknife: bool = False,
) -> float:
    """ROUGE-N recall of a candidate against reference summaries.

    Without jackknifing, clipped matches and reference counts pool over all
    references.  With jackknifing (needs >= 2 references), each reference is
    held out in turn, the best single-reference score among the rest is
    taken, and the holdout scores are averaged; this keeps automatic scores
    comparable to human-vs-human numbers.
    """
    if not references:
        raise DataError("at least one reference summary is required")
    if any(not ref.strip() for ref in references):
        raise DataError("empty reference summary")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cand = _ngrams(candidate, n)
    refs = [_ngrams(ref, n) for ref in references]
    matches = [sum(min(count, cand[gram]) for gram, count in ref.items()) for ref in refs]
    totals = [sum(ref.values()) for ref in refs]

    if not jackknife:
        pooled = sum(totals)
        return sum(matches) / pooled if pooled else 0.0

    if len(references) < 2:
        raise DataError("jackknifing requires at least two references")
    recalls = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    total = 0.0  # plain left-to-right adds: sum() compensates since Python 3.12
    for held_out in range(len(recalls)):
        total += max(r for i, r in enumerate(recalls) if i != held_out)
    return total / len(recalls)


def report_to_tsv(reports: list[EvalReport]) -> str:
    """One row per report, columns = the ``to_dict`` fields; fixed six-decimal scores."""
    lines = ["method\tbudget\tpyramid\tcovered_factoids\tD\tMax"]
    for report in reports:
        row = report.to_dict() | {"pyramid": f"{report.pyramid_score:.6f}"}
        lines.append("\t".join(map(str, row.values())))
    return "\n".join(lines) + "\n"
