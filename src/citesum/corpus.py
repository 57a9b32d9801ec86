"""On-disk formats and loaders for citation sets, annotations, IDF tables, and run configuration.

File formats (all UTF-8, line oriented):
  - citation set: JSON lines, one object per sentence:
        {"id": str, "text": str, "source_doc": str}
    Line order is significant and preserved.
  - factoid annotation: TSV rows ``sentence_id<TAB>factoid_id`` (one row per pair).
  - nugget spans: TSV rows ``annotator<TAB>sentence_id<TAB>start<TAB>end`` where
    start/end are byte offsets into the UTF-8 encoding of the sentence text and
    must fall on codepoint boundaries.
  - IDF table: TSV rows ``term<TAB>idf``, one per term, each idf finite and non-negative.
  - reference summary: plain text, one summary per file.
  - run configuration: ``key = value`` lines naming RunConfig fields.

In the TSV files, blank lines and lines starting with ``#`` are skipped.
Every loader names the offending line of a file it rejects.  The IDF table,
which every job loads, is parsed in bulk: a few passes over all rows at once
split terms from values, convert the values with ``float`` and check the
whole table.  Only a file that fails those checks is walked line by line,
with the same checks, to name its first bad line; a valid file never is.
Loaders only parse and validate: they keep each sentence's raw text and
never tokenize it, since terms feed only the similarity graph, which
tokenizes as it builds (``citesum.graph``).  Loaders are pure given the file bytes; everything they
return is immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from itertools import compress
from pathlib import Path
from typing import NoReturn


class DataError(ValueError):
    """Base class for input data problems; the CLI maps these to exit code 1."""


class ParseError(DataError):
    """A file could not be parsed (message names the offending line)."""


class ValidationError(DataError):
    """A file parsed but violates an invariant."""


@dataclass(frozen=True)
class Sentence:
    """One citing/abstract/paper sentence: the atomic summarization unit.

    ``word_count`` is the whitespace token count of the raw text, what a human
    would count against a summary budget.  Terms are not stored: the graph
    build tokenizes ``text`` itself, the only place that reads terms.
    """

    id: str
    text: str
    word_count: int
    source_doc: str


@dataclass(frozen=True)
class CitationSet:
    """Ordered sentences about one target paper."""

    sentences: tuple[Sentence, ...]

    def __post_init__(self):
        ids = [s.id for s in self.sentences]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate sentence id(s): {', '.join(dup)}")

    @property
    def ids(self) -> list[str]:
        return [s.id for s in self.sentences]

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class FactoidAnnotation:
    """Which factoids (atomic contributions) each sentence mentions.

    Sentences with no factoids map to an empty set.  Pyramid tier weights
    come from occurrence counts.
    """

    factoid_ids: frozenset[str]
    sentence_factoids: dict[str, frozenset[str]]

    def __post_init__(self):
        for sid, facts in self.sentence_factoids.items():
            unknown = facts - self.factoid_ids
            if unknown:
                raise ValidationError(
                    f"sentence {sid} references unknown factoid(s): {sorted(unknown)}"
                )

    def factoids_of(self, sentence_id: str) -> frozenset[str]:
        return self.sentence_factoids.get(sentence_id, frozenset())


@dataclass(frozen=True)
class NuggetSpanAnnotation:
    """One annotator's nugget phrase spans, keyed by sentence id.

    Spans are half-open byte ranges into the UTF-8 sentence text, normalized so
    that spans on one sentence are sorted and non-overlapping.
    """

    annotator: str
    sentence_spans: dict[str, tuple[tuple[int, int], ...]]

    def spans_of(self, sentence_id: str) -> tuple[tuple[int, int], ...]:
        return self.sentence_spans.get(sentence_id, ())


def _finite_non_negative(value) -> bool:
    try:
        return math.isfinite(value) and value >= 0
    except TypeError:  # not a number
        return False


@dataclass(frozen=True)
class IdfTable:
    """term -> inverse document frequency; unseen terms get ``default_idf``.

    Unseen terms are treated as maximally informative, so loaders set the
    default to the largest observed idf.
    """

    values: dict[str, float]
    default_idf: float = 1.0

    def __post_init__(self):
        idfs = self.values.values()
        try:  # one C-level pass; a value that is no number raises TypeError
            valid = all(map(math.isfinite, idfs)) and min(idfs, default=0.0) >= 0
        except TypeError:
            valid = False
        if not valid:
            for term, v in self.values.items():  # name the first bad term
                if not _finite_non_negative(v):
                    raise ValidationError(
                        f"idf for term {term!r} must be finite and non-negative: {v!r}"
                    )
        if not _finite_non_negative(self.default_idf):
            raise ValidationError(
                f"default idf must be finite and non-negative: {self.default_idf!r}"
            )

    def idf(self, term: str) -> float:
        return self.values.get(term, self.default_idf)


def uniform_idf() -> IdfTable:
    """Neutral table: every term weighs 1.0, reducing TF-IDF to raw TF."""
    return IdfTable({}, default_idf=1.0)


@dataclass(frozen=True)
class RunConfig:
    """All tunables of the graph build and the rankers.

    Defaults: LexRank edges need cosine above 0.10, damping 0.85; the
    reinforced walk uses lambda 0.90, alpha 0.25, length-prior beta 0.1.
    ``lowercase``, ``strip_punctuation`` and ``stopword_path`` make up the
    tokenizer (``TokenizerConfig.from_run_config``).  The budget, seed and
    trial count are per-run CLI arguments, not config.
    """

    lexrank_damping: float = 0.85
    lexrank_edge_threshold: float = 0.10
    divrank_lambda: float = 0.90
    divrank_alpha: float = 0.25
    divrank_beta: float = 0.1
    lowercase: bool = True
    strip_punctuation: bool = True
    stopword_path: str | None = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(v):
                raise ValidationError(f"{f.name} must be finite, got {v}")
        for name in ("lexrank_damping", "divrank_lambda", "divrank_alpha"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValidationError(f"{name} must be in (0,1), got {v}")
        if not (0.0 <= self.lexrank_edge_threshold <= 1.0):
            raise ValidationError(
                f"lexrank_edge_threshold must be in [0,1], got {self.lexrank_edge_threshold}"
            )


_CONFIG_BOOLS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def load_run_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Parse a ``key = value`` config file; ``overrides`` (CLI flags) win."""
    values: dict = {}
    fieldtypes = {f: RunConfig.__dataclass_fields__[f].type for f in RunConfig.__dataclass_fields__}
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in fieldtypes:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce_config_value(key, value, path, lineno)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)


def _coerce_config_value(key: str, value: str, path, lineno: int):
    annot = str(RunConfig.__dataclass_fields__[key].type)
    try:
        if "bool" in annot:
            return _CONFIG_BOOLS[value.lower()]
        if "float" not in annot:
            return value
        number = float(value)
    except (KeyError, ValueError):
        raise ParseError(f"{path}:{lineno}: bad value {value!r} for {key}") from None
    if not math.isfinite(number):
        raise ValidationError(f"{path}:{lineno}: {key} must be finite, got {value!r}")
    return number


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One stopword per line; blank lines and # comments ignored."""
    words = set()
    for raw in _read_lines(path):
        w = raw.split("#", 1)[0].strip()
        if w:
            words.add(w.lower())
    return frozenset(words)


def _read_lines(path: str | Path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def _tsv_rows(path: str | Path, fields: tuple[str, ...], lines: list[str] | None = None):
    """Yield ``(line number, cells)`` for each row of a TSV file with these fields.

    ``lines`` are the file's lines if the caller has read them already.
    Blank lines and lines starting with ``#`` are skipped.  A row with the
    wrong number of cells is a ParseError naming the line and the layout.
    """
    for lineno, raw in enumerate(_read_lines(path) if lines is None else lines, start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        cells = raw.split("\t")
        if len(cells) != len(fields):
            raise ParseError(f"{path}:{lineno}: expected '{'<TAB>'.join(fields)}'")
        yield lineno, cells


def load_citation_set(path: str | Path) -> CitationSet:
    """Load a JSON-lines citation set, preserving file order.

    Raises ParseError naming the offending line for malformed JSON, and
    ValidationError for missing or non-string fields, an id with a tab or a
    line break (no TSV row could name it), duplicate ids, or an empty file.
    """
    path = Path(path)
    sentences: list[Sentence] = []
    for lineno, raw in enumerate(_read_lines(path), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise ParseError(f"{path}:{lineno}: expected a JSON object")
        missing = {"id", "text"} - set(record)
        if missing:
            raise ValidationError(f"{path}:{lineno}: missing field(s) {sorted(missing)}")
        record.setdefault("source_doc", "")
        not_strings = [k for k in ("id", "text", "source_doc") if not isinstance(record[k], str)]
        if not_strings:
            raise ValidationError(f"{path}:{lineno}: field(s) {not_strings} must be strings")
        sid = record["id"]
        if "\t" in sid or "".join(sid.splitlines()) != sid:
            raise ValidationError(f"{path}:{lineno}: sentence id {sid!r} holds a tab or a line break")
        text = record["text"]
        sentences.append(
            Sentence(
                id=sid,
                text=text,
                word_count=len(text.split()),
                source_doc=record["source_doc"],
            )
        )
    if not sentences:
        raise ValidationError(f"{path}: no sentences")
    return CitationSet(sentences=tuple(sentences))


def load_factoid_annotation(path: str | Path, cs: CitationSet) -> FactoidAnnotation:
    """Load ``sentence_id<TAB>factoid_id`` rows against a citation set.

    Sentences absent from the file get the empty factoid set.  Unknown
    sentence ids are validation errors (referential integrity).
    """
    known = set(cs.ids)
    sentence_factoids: dict[str, set[str]] = {s.id: set() for s in cs.sentences}
    factoid_ids: set[str] = set()
    for lineno, (sid, fid) in _tsv_rows(path, ("sentence_id", "factoid_id")):
        sid, fid = sid.strip(), fid.strip()
        if sid not in known:
            raise ValidationError(f"{path}:{lineno}: unknown sentence id {sid!r}")
        if not fid:
            raise ParseError(f"{path}:{lineno}: empty factoid id")
        sentence_factoids[sid].add(fid)
        factoid_ids.add(fid)
    return FactoidAnnotation(
        factoid_ids=frozenset(factoid_ids),
        sentence_factoids={sid: frozenset(f) for sid, f in sentence_factoids.items()},
    )


def load_nugget_spans(path: str | Path, cs: CitationSet) -> dict[str, NuggetSpanAnnotation]:
    """Load ``annotator<TAB>sentence_id<TAB>start<TAB>end`` rows, one annotation per annotator.

    Offsets are validated against the UTF-8 byte length of the sentence text
    and must fall on codepoint boundaries; overlapping spans from one
    annotator are merged.
    """
    text_bytes = {s.id: s.text.encode("utf-8") for s in cs.sentences}
    per_annotator: dict[str, dict[str, list[tuple[int, int]]]] = {}
    for lineno, cells in _tsv_rows(path, ("annotator", "sentence_id", "start", "end")):
        annotator, sid, start_s, end_s = (c.strip() for c in cells)
        if sid not in text_bytes:
            raise ValidationError(f"{path}:{lineno}: unknown sentence id {sid!r}")
        try:
            start, end = int(start_s), int(end_s)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: offsets must be integers") from None
        data = text_bytes[sid]
        if not (0 <= start < end <= len(data)):
            raise ValidationError(
                f"{path}:{lineno}: span ({start},{end}) out of bounds for sentence {sid!r} "
                f"({len(data)} bytes)"
            )
        for offset in (start, end):
            if not _is_codepoint_boundary(data, offset):
                raise ValidationError(
                    f"{path}:{lineno}: offset {offset} splits a UTF-8 codepoint in sentence {sid!r}"
                )
        per_annotator.setdefault(annotator, {}).setdefault(sid, []).append((start, end))

    return {
        annotator: NuggetSpanAnnotation(
            annotator=annotator,
            sentence_spans={sid: _merge_spans(spans) for sid, spans in by_sentence.items()},
        )
        for annotator, by_sentence in per_annotator.items()
    }


def _is_codepoint_boundary(data: bytes, offset: int) -> bool:
    # UTF-8 continuation bytes match 0b10xxxxxx.
    return offset == 0 or offset == len(data) or (data[offset] & 0xC0) != 0x80


def _merge_spans(spans: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    merged: list[tuple[int, int]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return tuple(merged)


# A comment row, in rows joined with a newline before each.  Regex ``\S``
# and ``str.strip`` share one whitespace test.
_COMMENT_ROW = re.compile(r"\n[^\S\n]*#[^\n]*")
# Every byte but tab and newline; no multi-byte UTF-8 character holds either.
_NOT_TAB_OR_NEWLINE = bytes(b for b in range(256) if b not in b"\t\n")


def load_idf_table(path: str | Path) -> IdfTable:
    """Load ``term<TAB>idf`` rows, one per term; unseen terms default to the max observed idf.

    A valid file is parsed in bulk, by ``_idf_table_in_bulk``.  Only when
    that finds a bad row or no row at all does ``_raise_first_bad_idf_line``
    walk the same lines one at a time to name the first bad one.
    """
    lines = _read_lines(path)
    table = _idf_table_in_bulk(lines)
    if table is None:
        _raise_first_bad_idf_line(path, lines)
    return table


def _idf_table_in_bulk(lines: list[str]) -> IdfTable | None:
    """The table of an IDF file's lines, or None if a row breaks a rule or there is none.

    Each step is one C-level pass over all rows.  Blank and comment lines
    are dropped and the rows joined into one text, each after a newline; a
    row holds exactly one tab iff that text's tabs and newlines alternate.
    One split then gives every term and value, the values are stripped as
    the line checks strip them (``float`` alone rejects the U+001F that
    ``str.strip`` removes) and converted with ``float``, and the finite,
    non-negative and unique-term checks cover the whole table.
    """
    text = "\n" + "\n".join(compress(lines, map(str.strip, lines)))
    if "#" in text:
        text = _COMMENT_ROW.sub("", text)
    rows = text.count("\n")
    if not rows or text.encode().translate(None, _NOT_TAB_OR_NEWLINE) != b"\n\t" * rows:
        return None
    cells = text.replace("\n", "\t").split("\t")  # "", then each row's term and value
    try:
        idfs = list(map(float, map(str.strip, cells[2::2])))
    except ValueError:
        return None
    if not (all(map(math.isfinite, idfs)) and min(idfs) >= 0):
        return None
    values = dict(zip(cells[1::2], idfs))
    if len(values) != rows:
        return None
    return IdfTable(values=values, default_idf=max(idfs))


def _raise_first_bad_idf_line(path: str | Path, lines: list[str]) -> NoReturn:
    """Raise the error that names the first bad line of an IDF file.

    The per-line checks of ``load_idf_table``, run only once the bulk checks
    have failed, so some line or the empty table breaks a rule.
    """
    seen: set[str] = set()
    for lineno, (term, value_s) in _tsv_rows(path, ("term", "idf"), lines):
        value_s = value_s.strip()
        try:
            value = float(value_s)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad idf value {value_s!r}") from None
        if not math.isfinite(value):
            raise ValidationError(f"{path}:{lineno}: non-finite idf {value_s!r} for term {term!r}")
        if value < 0:
            raise ValidationError(f"{path}:{lineno}: negative idf {value} for term {term!r}")
        if term in seen:
            raise ValidationError(f"{path}:{lineno}: repeated idf term {term!r}")
        seen.add(term)
    if seen:
        raise RuntimeError(f"{path}: the bulk idf checks rejected rows the line checks accept")
    raise ValidationError(f"{path}: empty idf table")


def load_reference_summary(path: str | Path) -> str:
    """Plain-text reference summary; the whole file is one summary."""
    text = Path(path).read_text(encoding="utf-8").strip()
    if not text:
        raise ValidationError(f"{path}: empty reference summary")
    return text
