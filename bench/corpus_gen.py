"""Seeded text-level citation corpora with planted topics.

This is the text form of the acceptance suite's planted-partition idea: each
citation set has a few planted topics, each topic owns a small vocabulary and
one to three factoids, and a factoid is stated by a fixed nugget phrase.
About 60% of a topic's sentences state a factoid with dense topical wording;
the rest mention the topic vaguely and carry no factoid.  Filler words come
from a wide shared pool and common citation words appear everywhere, so the
IDF table has real work to do.

Two random streams build a set.  The *shape* stream decides the structure:
topic sizes, which sentence states which factoid, sentence lengths, which
vocabulary slot fills each word position, annotator disagreements.  The
*surface* stream, drawn from the benchmark seed, spells every vocabulary slot
as a pseudo-word and picks the citing documents.  So every seed yields
different files with the same structure, and the same amount of work for the
program; the shape stream is fixed per corpus label.  (With random structure,
DivRank's iteration count on one 800-sentence set ranges over 600-6000, a
tenfold spread in run time that no run length averages out.)

For every set the generator writes the files the CLI reads:

  <set>.jsonl           citations, {"id", "text", "source_doc"} per line
  <set>.factoids.tsv    sentence_id<TAB>factoid_id
  <set>.spans_a.tsv     annotator A's nugget spans (byte offsets)
  <set>.spans_b.tsv     annotator B's nugget spans
  <set>.ref1.txt .. <set>.ref4.txt   reference summaries
  <set>.topics.tsv      sentence_id<TAB>planted topic (read by the benchmark only)

plus one IDF table (idf.tsv) over the whole corpus.  The same seed gives
byte-identical files: all randomness comes from ``random.Random`` seeded with
strings, and nothing depends on hash order or the clock.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCES = 4
FILLER_WORDS = 3000
TOPIC_WORDS = 12
_SYLLABLES = [c + v for c in "bcdfghklmnprstvz" for v in "aeiou"] + ["tra", "ste", "qui", "phi"]
_COMMON = (
    "the of and a in to is we for that this with as on by are an be our "
    "approach method model proposed uses show results et al work based task"
).split()
_NON_ALNUM = re.compile(r"[^0-9a-z]+")
_SUFFIX = {
    "citations": ".jsonl",
    "factoids": ".factoids.tsv",
    "spans_a": ".spans_a.tsv",
    "spans_b": ".spans_b.tsv",
    "topics": ".topics.tsv",
}


@dataclass(frozen=True)
class SetSpec:
    """Shape of one generated citation set."""

    name: str
    sentences: int
    topics: int


@dataclass(frozen=True)
class GeneratedSet:
    name: str
    paths: dict[str, str]  # file kind -> path
    gold: dict[str, str]  # sentence id -> planted topic


def _pseudo_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _byte_span(words: list[str], first: int, last: int) -> tuple[int, int]:
    """Byte range of words[first:last] in " ".join(words)."""
    start = len(" ".join(words[:first]).encode("utf-8")) + (1 if first else 0)
    return start, len(" ".join(words[:last]).encode("utf-8"))


def _generate_set(shape: random.Random, surface: random.Random, spec: SetSpec, filler, taken):
    """File texts and gold topics of one set."""
    topic_words = [_pseudo_words(surface, TOPIC_WORDS, taken) for _ in range(spec.topics)]
    slots = range(TOPIC_WORDS)
    factoids = []  # (topic, factoid id, nugget word slots)
    for t in range(spec.topics):
        for k in range(shape.randint(1, 3)):
            factoids.append((t, f"f{t}.{k}", shape.sample(slots, shape.randint(3, 5))))
    by_topic = {t: [f for f in factoids if f[0] == t] for t in range(spec.topics)}
    # Every topic gets at least two sentences, so that a topic is a community;
    # the rest follow a skewed topic popularity.
    weights = [1.0 / (t + 1) ** 0.5 for t in range(spec.topics)]
    topics = [t for t in range(spec.topics) for _ in range(2)]
    topics += shape.choices(range(spec.topics), weights=weights, k=spec.sentences - len(topics))
    shape.shuffle(topics)

    citations, fact_rows, spans_a, spans_b = [], [], [], []
    stated: dict[int, list[list[str]]] = {t: [] for t in range(spec.topics)}
    for i, t in enumerate(topics, start=1):
        sid = f"s{i}"
        vocab = topic_words[t]
        fact = shape.choice(by_topic[t]) if shape.random() < 0.6 else None
        if fact:
            words = [vocab[j] for j in shape.choices(slots, k=shape.randint(4, 8))]
            words += [filler[j] for j in shape.sample(range(len(filler)), shape.randint(3, 6))]
        else:
            words = [vocab[j] for j in shape.sample(slots, shape.randint(2, 4))]
            words += [filler[j] for j in shape.sample(range(len(filler)), shape.randint(8, 14))]
        words += shape.choices(_COMMON, k=shape.randint(3, 6))
        shape.shuffle(words)
        nugget = [vocab[j] for j in fact[2]] if fact else []
        at = shape.randint(0, len(words))
        words[at:at] = nugget
        words[0] = words[0].capitalize()
        if shape.random() < 0.5:
            words[shape.randrange(len(words))] += ","
        words.append(f"({1990 + shape.randrange(30)}).")
        source = f"P{surface.randrange(spec.sentences // 2 + 1)}"
        citations.append(json.dumps({"id": sid, "text": " ".join(words), "source_doc": source}))
        if fact is None:
            if shape.random() < 0.05:  # a stray marking by the second annotator
                spans_b.append(("B", sid, *_byte_span(words, 0, 2)))
            continue
        fact_rows.append(f"{sid}\t{fact[1]}")
        if len(by_topic[t]) > 1 and shape.random() < 0.15:
            other = shape.choice([f for f in by_topic[t] if f is not fact])
            fact_rows.append(f"{sid}\t{other[1]}")
        stated[t].append(nugget)
        first, last = at, at + len(nugget)
        spans_a.append(("A", sid, *_byte_span(words, first, last)))
        roll = shape.random()
        if roll < 0.75:
            spans_b.append(("B", sid, *_byte_span(words, first, last)))
        elif roll < 0.9:
            spans_b.append(("B", sid, *_byte_span(words, first, min(len(words), last + 1))))
        elif last - first > 1:
            spans_b.append(("B", sid, *_byte_span(words, first + 1, last)))

    files = {
        "citations": "\n".join(citations) + "\n",
        "factoids": "\n".join(fact_rows) + "\n",
        "spans_a": "".join("\t".join(map(str, row)) + "\n" for row in spans_a),
        "spans_b": "".join("\t".join(map(str, row)) + "\n" for row in spans_b),
        "topics": "".join(f"s{i}\tt{t}\n" for i, t in enumerate(topics, start=1)),
    }
    by_size = sorted(range(spec.topics), key=lambda t: (-topics.count(t), t))
    for r in range(1, REFERENCES + 1):
        words: list[str] = []
        while len(words) < 100:
            for t in by_size:
                phrase = shape.choice(stated[t]) if stated[t] else []
                words += shape.sample(_COMMON, 2) + phrase
                words += [topic_words[t][j] for j in shape.sample(slots, 3)]
        files[f"ref{r}"] = " ".join(words[:100]) + ".\n"
    gold = {f"s{i}": f"t{t}" for i, t in enumerate(topics, start=1)}
    return files, gold


def write_corpus(
    seed: int, label: str, specs: list[SetSpec], out_dir: Path
) -> tuple[str, list[GeneratedSet]]:
    """Generate every set of one corpus into ``out_dir``; returns the idf path and the sets."""
    surface = random.Random(f"citesum-bench:surface:{label}:{seed}")
    taken: set[str] = {w.lower() for w in _COMMON}
    filler = _pseudo_words(surface, FILLER_WORDS, taken)
    out_dir.mkdir(parents=True, exist_ok=True)
    sets: list[GeneratedSet] = []
    df: dict[str, int] = {}
    documents = 0
    for spec in specs:
        shape = random.Random(f"citesum-bench:shape:{label}:{spec.name}")
        files, gold = _generate_set(shape, surface, spec, filler, taken)
        paths = {}
        for kind, text in files.items():
            path = out_dir / (spec.name + _SUFFIX.get(kind, f".{kind}.txt"))
            path.write_text(text, encoding="utf-8")
            paths[kind] = str(path)
        for line in files["citations"].splitlines():
            documents += 1
            text = json.loads(line)["text"]
            for term in {_NON_ALNUM.sub("", w.lower()) for w in text.split()} - {""}:
                df[term] = df.get(term, 0) + 1
        sets.append(GeneratedSet(spec.name, paths, gold))
    rows = [f"{term}\t{math.log(documents / count):.6f}" for term, count in sorted(df.items())]
    idf_path = out_dir / "idf.tsv"
    idf_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(idf_path), sets
