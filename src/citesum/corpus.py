"""On-disk formats and loaders for citation sets, annotations, IDF tables, and run configuration.

File formats (all UTF-8 without a byte order mark, line oriented; every
loader reads through ``_read_text``, which names the line of a byte that is
not UTF-8; the loaders of a run's inputs also take the file's bytes as
``data`` when the caller has read them already):
  - citation set: JSON lines, one object per sentence:
        {"id": str, "text": str, "source_doc": str}
    Line order is significant and preserved.  Lines end at LF alone (after
    CRLF and CR become LF), since a JSON string may hold U+0085, U+2028 and
    U+2029 unescaped; the other formats end lines where ``str.splitlines``
    does.
  - factoid annotation: TSV rows ``sentence_id<TAB>factoid_id`` (one row per pair).
  - nugget spans: TSV rows ``annotator<TAB>sentence_id<TAB>start<TAB>end``; the
    annotator is not blank, and start/end are byte offsets into the UTF-8
    encoding of the sentence text that fall on codepoint boundaries.
  - IDF table: TSV rows ``term<TAB>idf``, one per term, each idf finite and non-negative.
  - reference summary: plain text, one summary per file.
  - run configuration: ``key = value`` lines naming RunConfig fields.

In the TSV files, blank lines and lines starting with ``#`` are skipped;
``_tsv_rows`` alone decides which lines those are, for every TSV loader.
Every loader names the offending line of a file it rejects.  The IDF table,
which every job loads, is parsed one of two ways.  A file in normal form
(one tab in every newline-ended row, no ``#``, and no character that
``str.splitlines`` breaks on or ``str.strip`` removes but ``float`` keeps),
which one ``bytes.translate`` pass proves, is parsed in bulk: a few passes
over all rows at once split terms from values, convert the values with
``float`` and check the whole table.  Any other file, and a file in normal
form that fails those checks, is loaded line by line through
``_tsv_rows``, which gives the same table or names the first bad line.
Loaders only parse and validate: they keep each sentence's raw text and
never tokenize it, since terms feed only the similarity graph, which
tokenizes as it builds (``citesum.graph``).  Loaders are pure given the file bytes; everything they
return is immutable after construction and safe to share across threads.

``plain_sum`` is the package's one sum of Python floats that reach an
output (the mean pyramid, the length prior's total, the jackknife mean,
NMI's entropies and mutual information, a term vector's norm).  It lives
here because every module imports ``corpus``.
"""

from __future__ import annotations

import codecs
import json
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass, fields
from pathlib import Path


def plain_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from ``0.0``, one IEEE add each.

    Not ``sum()``, which compensates its float additions since Python 3.12,
    so an output's bits would depend on the Python version; nor
    ``math.fsum``, whose exactly rounded total would change recorded outputs.
    """
    total = 0.0
    for v in values:
        total += v
    return total


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


def uniform_idf() -> IdfTable:
    """Neutral table: every term weighs 1.0, reducing TF-IDF to raw TF."""
    return IdfTable({}, default_idf=1.0)


@dataclass(frozen=True)
class RunConfig:
    """All tunables of the graph build and the rankers.

    Defaults: LexRank edges need cosine above 0.10, damping 0.85; the
    reinforced walk uses lambda 0.90, alpha 0.25, length-prior beta 0.1.
    ``lowercase``, ``strip_punctuation`` and the words of ``stopword_path``
    make up the graph build's ``lexical.TokenizerConfig``.  The budget, seed
    and trial count are per-run CLI arguments, not config.
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


def load_run_config(path: str | Path, overrides: dict | None = None, data: bytes | None = None) -> RunConfig:
    """Parse a ``key = value`` config file; ``overrides`` (CLI flags) win."""
    values: dict = {}
    for lineno, raw in enumerate(_read_lines(path, data), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in RunConfig.__dataclass_fields__:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ParseError(f"{path}:{lineno}: config key {key!r} is set twice")
        values[key] = _coerce_config_value(key, value, path, lineno)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)


def ends_in_file_name(path: str) -> bool:
    """Whether ``path``'s last part is a file name, not empty, ``.`` or ``..``.  Only the
    string is tested, never the filesystem: a pyramid job passes a hundred paths."""
    return os.path.basename(path) not in ("", ".", "..")


def _coerce_config_value(key: str, value: str, path, lineno: int):
    """``value`` parsed by its field's declared type, one of ``"str | None"`` (a
    path), ``"bool"`` and ``"float"``."""
    kind = RunConfig.__dataclass_fields__[key].type
    if kind == "str | None":
        if ends_in_file_name(value):
            return value
        raise ParseError(f"{path}:{lineno}: bad value {value!r} for {key}: it must end in a file name")
    try:
        if kind == "bool":
            return _CONFIG_BOOLS[value.lower()]
        number = float(value)
    except (KeyError, ValueError):
        raise ParseError(f"{path}:{lineno}: bad value {value!r} for {key}") from None
    if not math.isfinite(number):
        raise ValidationError(f"{path}:{lineno}: {key} must be finite, got {value!r}")
    return number


def load_stopwords(path: str | Path, data: bytes | None = None) -> frozenset[str]:
    """One stopword per line, as written; blank lines and # comments ignored.
    ``lexical.TokenizerConfig`` folds each word as it folds a token, so a line
    that still holds whitespace could match no token: a ParseError naming it."""
    words = set()
    for lineno, raw in enumerate(_read_lines(path, data), start=1):
        w = raw.split("#", 1)[0].strip()
        if len(w.split()) > 1:
            raise ParseError(f"{path}:{lineno}: a stopword line holds one word, got {w!r}")
        if w:
            words.add(w)
    return frozenset(words)


def _read_text(path: str | Path, data: bytes | None = None, lines=str.splitlines) -> str:
    """The text of a UTF-8 file, its line breaks read as ``Path.read_text`` reads them.

    ``data`` is the file's bytes if the caller has read them already.  Bytes
    that are not UTF-8, or a leading byte order mark, are a ParseError naming
    the line, numbered by ``lines``, the file format's line rule.  CRLF and a
    lone CR become LF.
    """
    if data is None:
        data = Path(path).read_bytes()
    if data.startswith(codecs.BOM_UTF8):
        raise ParseError(f"{path}:1: starts with a UTF-8 byte order mark")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(lines(_to_lf(data[: exc.start].decode("utf-8")) + "?"))
        raise ParseError(f"{path}:{lineno}: not valid UTF-8 ({exc.reason})") from None
    return _to_lf(text)


def _to_lf(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_lines(path: str | Path, data: bytes | None = None, lines=str.splitlines) -> list[str]:
    return lines(_read_text(path, data, lines))


def _split_at_lf(text: str) -> list[str]:
    """A citation set's line rule: lines end at LF alone.  JSON may hold U+0085,
    U+2028 and U+2029 unescaped, and ``str.splitlines`` would break inside
    such a string."""
    return text.split("\n")


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


def load_citation_set(path: str | Path, data: bytes | None = None) -> CitationSet:
    """Load a JSON-lines citation set, preserving file order.

    Raises ParseError naming the offending line for malformed JSON, and
    ValidationError naming it for missing or non-string fields, an id that
    no TSV row could name exactly (empty, with a tab or a line break, or with
    whitespace the TSV loaders would strip at either end), or an id that
    repeats an earlier one; also for an empty file.
    """
    path = Path(path)
    sentences: list[Sentence] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(_read_lines(path, data, _split_at_lf), start=1):
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
        if not sid or sid != sid.strip():
            raise ValidationError(f"{path}:{lineno}: sentence id {sid!r} is empty or starts or ends with whitespace")
        if sid in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate sentence id {sid!r}")
        seen.add(sid)
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


def load_factoid_annotation(path: str | Path, cs: CitationSet, data: bytes | None = None) -> FactoidAnnotation:
    """Load ``sentence_id<TAB>factoid_id`` rows against a citation set.

    Sentences absent from the file get the empty factoid set.  Unknown
    sentence ids are validation errors (referential integrity).
    """
    known = set(cs.ids)
    sentence_factoids: dict[str, set[str]] = {s.id: set() for s in cs.sentences}
    factoid_ids: set[str] = set()
    for lineno, (sid, fid) in _tsv_rows(path, ("sentence_id", "factoid_id"), _read_lines(path, data)):
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


def load_nugget_spans(path: str | Path, cs: CitationSet, data: bytes | None = None) -> dict[str, NuggetSpanAnnotation]:
    """Load ``annotator<TAB>sentence_id<TAB>start<TAB>end`` rows, one annotation per annotator.

    An empty or blank annotator cell is a ParseError naming the line.
    Offsets are validated against the UTF-8 byte length of the sentence text
    and must fall on codepoint boundaries; overlapping spans from one
    annotator are merged.
    """
    text_bytes = {s.id: s.text.encode("utf-8") for s in cs.sentences}
    per_annotator: dict[str, dict[str, list[tuple[int, int]]]] = {}
    for lineno, cells in _tsv_rows(path, ("annotator", "sentence_id", "start", "end"), _read_lines(path, data)):
        annotator, sid, start_s, end_s = (c.strip() for c in cells)
        if not annotator:
            raise ParseError(f"{path}:{lineno}: empty annotator")
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


# The bytes that decide an IDF file's normal form are tab, newline, "#",
# the ASCII characters that ``str.splitlines`` breaks on or ``str.strip``
# removes but ``float`` keeps (CR, VT, FF, U+001C to U+001F), and 0xC2 and
# 0xE2, the lead bytes of the other three (U+0085, U+2028, U+2029).  This is
# every other byte.  A lead byte also starts other characters, so a file
# holding one of those is loaded line by line.
_NOT_A_FORM_BYTE = bytes(b for b in range(256) if b not in b"\t\n#\r\v\f\x1c\x1d\x1e\x1f\xc2\xe2")


def load_idf_table(path: str | Path, data: bytes | None = None) -> IdfTable:
    """Load ``term<TAB>idf`` rows, one per term; unseen terms default to the max observed idf.

    A file in normal form, which is what a tool writing one row per term
    writes, is parsed in bulk by ``_idf_table_in_normal_form``: one tab in
    every row, each row ending in a newline, no ``#``, and none of the
    characters that ``str.splitlines`` breaks on or ``str.strip`` removes but
    ``float`` keeps.  Such a file has no blank or comment line, and
    stripping a value cannot change what ``float`` reads, so its cells are
    split out as they are.  Any other file, or one whose rows the shortcut
    rejects, is loaded line by line by ``_idf_table_by_line``, which gives
    the same table or names the first bad line.
    """
    if data is None:
        data = Path(path).read_bytes()
    text = _read_text(path, data)
    table = _idf_table_in_normal_form(data, text)
    return table if table is not None else _idf_table_by_line(path, text.splitlines())


def _idf_table_in_normal_form(data: bytes, text: str) -> IdfTable | None:
    """The table of an IDF file in normal form, or None if it is not or a row breaks a rule.

    One ``bytes.translate`` pass keeps the bytes that decide normal form;
    the file is in it iff they are a tab and a newline once per row.  The
    values are converted with ``float``, and the finite, non-negative and
    unique-term checks cover the whole table.  A blank row holds one tab
    and only whitespace, so its value fails ``float`` and the file is
    loaded line by line, which skips the row.
    """
    form = data.translate(None, _NOT_A_FORM_BYTE)
    rows = len(form) // 2
    if not rows or form != b"\t\n" * rows:
        return None
    cells = text.replace("\n", "\t").split("\t")  # each row's term and value, then ""
    try:
        idfs = list(map(float, cells[1::2]))
    except ValueError:
        return None
    if not (all(map(math.isfinite, idfs)) and min(idfs) >= 0):
        return None
    table = dict(zip(cells[::2], idfs))
    if len(table) != rows:  # a repeated term
        return None
    return IdfTable(values=table, default_idf=max(idfs))


def _idf_table_by_line(path: str | Path, lines: list[str]) -> IdfTable:
    """The table of an IDF file's ``lines``, read one row at a time; the first bad line raises."""
    values: dict[str, float] = {}
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
        if term in values:
            raise ValidationError(f"{path}:{lineno}: repeated idf term {term!r}")
        values[term] = value
    if not values:
        raise ValidationError(f"{path}: empty idf table")
    return IdfTable(values=values, default_idf=max(values.values()))


def load_reference_summary(path: str | Path, data: bytes | None = None) -> str:
    """Plain-text reference summary; the whole file is one summary."""
    text = _read_text(path, data).strip()
    if not text:
        raise ValidationError(f"{path}: empty reference summary")
    return text
