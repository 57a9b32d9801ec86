"""Loader behavior: formats, validation, round trips."""

import json
import math
import tracemalloc
from dataclasses import fields
from unittest import mock

import pytest
from conftest import toy_citation_set
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import load_idf_table_oracle

from citesum import corpus
from citesum.corpus import (
    IdfTable,
    ParseError,
    ValidationError,
    load_citation_set,
    load_factoid_annotation,
    load_idf_table,
    load_nugget_spans,
    load_run_config,
    load_stopwords,
    RunConfig,
)
from citesum.lexical import tfidf_vector


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestCitationSet:
    def test_nine_record_fixture(self, nine_citations):
        assert len(nine_citations) == 9
        assert nine_citations.ids == [f"s{i}" for i in range(1, 10)]

    def test_order_preserved_and_word_count(self, tmp_path):
        path = write(
            tmp_path,
            "cs.jsonl",
            '{"id": "b", "text": "two words", "source_doc": "d"}\n'
            '{"id": "a", "text": "one", "source_doc": "d"}\n',
        )
        cs = load_citation_set(path)
        assert cs.ids == ["b", "a"]
        assert [s.word_count for s in cs.sentences] == [2, 1]

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "empty.jsonl", "")
        with pytest.raises(ValidationError, match="no sentences"):
            load_citation_set(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "dup.jsonl",
            '{"id": "s1", "text": "x", "source_doc": "d"}\n'
            '{"id": "s1", "text": "y", "source_doc": "d"}\n',
        )
        with pytest.raises(ValidationError, match="duplicate"):
            load_citation_set(path)

    def test_duplicate_id_names_its_first_repeat(self, tmp_path):
        path = write(
            tmp_path,
            "dup.jsonl",
            "".join(json.dumps({"id": sid, "text": "x"}) + "\n" for sid in ("s1", "s2", "s1", "s2")),
        )
        with pytest.raises(ValidationError) as exc:
            load_citation_set(path)
        assert str(exc.value) == f"{path}:3: duplicate sentence id 's1'"

    def test_library_citation_set_still_rejects_duplicates(self):
        with pytest.raises(ValidationError, match="duplicate sentence id"):
            toy_citation_set(["x", "y"], ids=["s1", "s1"])

    @pytest.mark.parametrize("sid", ["", "  ", " s1", "s1 ", "\u00a0s2", "s2\u3000"])
    def test_empty_or_padded_id_rejected(self, tmp_path, sid):
        path = write(
            tmp_path,
            "ids.jsonl",
            '{"id": "s1", "text": "x"}\n' + json.dumps({"id": sid, "text": "y"}) + "\n",
        )
        message = r"ids\.jsonl:2: sentence id .* is empty or starts or ends with whitespace"
        with pytest.raises(ValidationError, match=message):
            load_citation_set(path)

    def test_inner_spaces_in_an_id_are_kept(self, tmp_path):
        path = write(tmp_path, "ids.jsonl", '{"id": "s 1", "text": "x"}\n{"id": "s  2", "text": "y"}\n')
        assert load_citation_set(path).ids == ["s 1", "s  2"]

    @pytest.mark.parametrize("sid", ["a\tb", "a\nb", "a\r", "\x0bb", "a\x1cb", "a\x85b", "a\u2028b"])
    def test_id_with_a_tab_or_line_break_rejected(self, tmp_path, sid):
        path = write(
            tmp_path,
            "ids.jsonl",
            '{"id": "s1", "text": "x"}\n' + json.dumps({"id": sid, "text": "y"}) + "\n",
        )
        with pytest.raises(ValidationError, match=r"ids\.jsonl:2: sentence id .* tab or a line break"):
            load_citation_set(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = write(
            tmp_path,
            "bad.jsonl",
            '{"id": "s1", "text": "x", "source_doc": "d"}\nnot json\n',
        )
        with pytest.raises(ParseError, match=":2"):
            load_citation_set(path)

    def test_lines_end_at_lf_alone(self, tmp_path):
        # JSON may hold these three unescaped, as json.dumps(..., ensure_ascii=False)
        # writes them; str.splitlines would break a line inside the string.
        texts = ["a\u2028b", "c\x85d \u2029e"]
        body = "".join(
            json.dumps({"id": f"s{i}", "text": text}, ensure_ascii=False) + "\n" for i, text in enumerate(texts, 1)
        ).encode("utf-8")
        assert b"\xe2\x80\xa8" in body and b"\xc2\x85" in body
        path = tmp_path / "raw.jsonl"
        path.write_bytes(body)
        assert [s.text for s in load_citation_set(path).sentences] == texts
        path.write_bytes(body + b"not json\n")
        with pytest.raises(ParseError, match=r"raw\.jsonl:3: malformed JSON"):
            load_citation_set(path)
        path.write_bytes(body + b"ca\xe9\n")
        with pytest.raises(ParseError, match=r"raw\.jsonl:3: not valid UTF-8"):
            load_citation_set(path)

    def test_missing_field_rejected(self, tmp_path):
        path = write(tmp_path, "missing.jsonl", '{"id": "s1"}\n')
        with pytest.raises(ValidationError, match="text"):
            load_citation_set(path)

    @pytest.mark.parametrize(
        "record",
        [
            '{"id": "s2", "text": null}',
            '{"id": "s2", "text": ["x", "y"]}',
            '{"id": 2, "text": "x"}',
            '{"id": "s2", "text": "x", "source_doc": 7}',
        ],
    )
    def test_non_string_field_rejected(self, tmp_path, record):
        path = write(tmp_path, "typed.jsonl", '{"id": "s1", "text": "x"}\n' + record + "\n")
        with pytest.raises(ValidationError, match=":2: .*must be strings"):
            load_citation_set(path)


class TestFactoidAnnotation:
    def test_table_fixture(self, nine_citations, nine_factoids):
        assert nine_factoids.factoid_ids == frozenset({"f1", "f2", "f3"})
        assert nine_factoids.factoids_of("s6") == frozenset({"f1", "f2"})
        assert nine_factoids.factoids_of("s9") == frozenset()

    def test_unannotated_sentences_get_empty_set(self, nine_factoids, nine_citations):
        assert set(nine_factoids.sentence_factoids) == set(nine_citations.ids)

    def test_unknown_sentence_rejected(self, tmp_path, nine_citations):
        path = write(tmp_path, "ann.tsv", "s99\tf1\n")
        with pytest.raises(ValidationError, match="s99"):
            load_factoid_annotation(path, nine_citations)

    def test_zero_factoids_is_legal(self, tmp_path, nine_citations):
        path = write(tmp_path, "ann.tsv", "\n")
        ann = load_factoid_annotation(path, nine_citations)
        assert ann.factoid_ids == frozenset()

    def test_wrong_arity_names_line(self, tmp_path, nine_citations):
        path = write(tmp_path, "ann.tsv", "# header\ns1\tf1\ns2\tf1\textra\n")
        with pytest.raises(ParseError, match=":3: expected 'sentence_id<TAB>factoid_id'"):
            load_factoid_annotation(path, nine_citations)


def plain_loop(values):
    total = 0.0
    for v in values:
        total += v
    return total


class TestPlainSum:
    @settings(derandomize=True, max_examples=500, deadline=None, database=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
    def test_equals_a_loop_from_zero_bit_for_bit(self, values):
        assert corpus.plain_sum(values).hex() == plain_loop(values).hex()
        assert corpus.plain_sum(iter(values)).hex() == plain_loop(values).hex()

    def test_adds_left_to_right(self):
        # Compensated summation (sum() since Python 3.12, math.fsum) keeps both ones.
        assert math.fsum([1e16, 1.0, 1.0]) == 1e16 + 2.0
        assert corpus.plain_sum([1e16, 1.0, 1.0]) == 1e16

    def test_empty_is_positive_zero(self):
        assert corpus.plain_sum([]).hex() == "0x0.0p+0"
        assert corpus.plain_sum([-0.0]).hex() == "0x0.0p+0"


class TestIdfTable:
    def test_read_back(self, tmp_path):
        path = write(tmp_path, "idf.tsv", "the\t0.01\nparsing\t4.2\n")
        assert load_idf_table(path).values == {"the": 0.01, "parsing": 4.2}

    def test_unseen_term_gets_max_observed(self, tmp_path):
        path = write(tmp_path, "idf.tsv", "the\t0.01\nparsing\t4.2\n")
        assert tfidf_vector(["zyzzyva"], load_idf_table(path)).weights == {"zyzzyva": 4.2}

    def test_negative_idf_rejected(self, tmp_path):
        path = write(tmp_path, "idf.tsv", "w\t-1.0\n")
        with pytest.raises(ValidationError, match="negative"):
            load_idf_table(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_idf_rejected(self, tmp_path, value):
        path = write(tmp_path, "idf.tsv", f"the\t0.5\nw\t{value}\n")
        with pytest.raises(ValidationError, match=":2: non-finite idf"):
            load_idf_table(path)

    def test_repeated_term_rejected(self, tmp_path):
        path = write(tmp_path, "idf.tsv", "the\t0.5\nw\t1.0\n# note\nw\t2.0\n")
        with pytest.raises(ValidationError, match=r":4: repeated idf term 'w'"):
            load_idf_table(path)

    def test_direct_construction_validates(self):
        with pytest.raises(ValidationError, match="term 'w' must be finite and non-negative: -0.5"):
            IdfTable({"ok": 1.0, "w": -0.5, "v": -1.0})
        with pytest.raises(ValidationError, match="term 'w' must be finite and non-negative: nan"):
            IdfTable({"ok": 1.0, "w": float("nan"), "v": -1.0})
        with pytest.raises(ValidationError):
            IdfTable({"w": 1.0}, default_idf=float("inf"))

    def test_direct_construction_rejects_a_non_number(self):
        with pytest.raises(ValidationError, match="term 'a' must be finite and non-negative: 'x'"):
            IdfTable({"ok": 1.0, "a": "x", "v": -1.0})
        with pytest.raises(ValidationError, match="default idf must be finite and non-negative: None"):
            IdfTable({"w": 1.0}, default_idf=None)

    def test_rows_with_two_tabs_and_none_do_not_pair_up(self, tmp_path):
        path = write(tmp_path, "idf.tsv", "a\t1\t2\n3\n")  # four cells, two rows
        with pytest.raises(ParseError, match=r":1: expected 'term<TAB>idf'"):
            load_idf_table(path)


# Pieces of generated IDF files.  Every str.splitlines() line break, every
# kind of padding str.strip() removes (U+001F is one that float() alone does
# not), and values float() reads only after stripping or not at all.
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
PADDING = ["", " ", "\t", "\xa0", "\x1f", "\u2003", "\u3000"]
GOOD_VALUES = [
    "0", "0.5", "4.2", "-0.0", "1_0", "1e-320", "+3", "7.", "1E2", "\u0661\u0662", "\uff11.5"
]
BAD_VALUES = [
    "-1", "-1e-9", "nan", "inf", "-Infinity", "1e400", "", "abc", "1 2", "_1", "1__0", "0x1"
]
TERMS = ["the", "crf", "c#", "a b", " lead", "trail ", "\u00e9", "x\x1f", "", "\xa0nb"]
COMMENTS = ["#", "# note", "#a\tb", "#\t1.0", " \t# indented", "\xa0#nbsp"]


@st.composite
def idf_texts(draw, valid: bool):
    """An IDF file's text; with ``valid``, one the per-line loader accepts."""
    pad = st.sampled_from(PADDING)
    value_pad = st.sampled_from([p for p in PADDING if p != "\t"]) if valid else pad
    value = st.sampled_from(GOOD_VALUES if valid else GOOD_VALUES + BAD_VALUES)
    row = st.builds(lambda *parts: "".join(parts), value_pad, value, value_pad)
    if valid:
        terms = draw(st.lists(st.sampled_from(TERMS), min_size=1, unique=True))
        lines = [term + "\t" + draw(row) for term in terms]
    else:
        term = st.sampled_from(TERMS + GOOD_VALUES + COMMENTS)
        one_tab = st.builds(lambda t, v: t + "\t" + v, term, row)
        no_tab = st.builds(lambda t, v: t + v, term, row)
        two_tabs = st.builds(lambda t, v, w: t + "\t" + v + "\t" + w, term, row, row)
        lines = draw(st.lists(st.one_of(one_tab, one_tab, one_tab, no_tab, two_tabs)))
    for _ in range(draw(st.integers(0, 3))):
        skipped = st.one_of(st.sampled_from(COMMENTS), st.lists(pad).map("".join))
        lines.insert(draw(st.integers(0, len(lines))), draw(skipped))
    text = "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text


def in_normal_form(piece: str) -> bool:
    """Whether ``piece`` holds none of the bytes that take an IDF file out of normal form."""
    return not set(piece.encode("utf-8")) & set(b"\t\n#\r\v\f\x1c\x1d\x1e\x1f\xc2\xe2")


@st.composite
def normal_form_idf_texts(draw):
    """A valid IDF file in normal form: one ``term<TAB>value`` row per term, each ending in a newline."""
    pad = st.sampled_from([p for p in PADDING if in_normal_form(p)])
    value = st.sampled_from([v for v in GOOD_VALUES if in_normal_form(v)])
    terms = draw(st.lists(st.sampled_from([t for t in TERMS if in_normal_form(t)]), min_size=1, unique=True))
    return "".join(f"{term}\t{draw(pad)}{draw(value)}{draw(pad)}\n" for term in terms)


def load_outcome(load, path):
    """The table's items in order with each value's bits, or the error raised."""
    try:
        table = load(path)
    except Exception as exc:  # the error is what is compared
        return type(exc), str(exc)
    return [(term, v.hex()) for term, v in table.values.items()], table.default_idf.hex()


@pytest.fixture(scope="module")
def idf_path(tmp_path_factory):
    return tmp_path_factory.mktemp("idf") / "idf.tsv"


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(idf_texts(valid=False))
def test_property_idf_loader_matches_per_line_oracle(idf_path, text):
    idf_path.write_bytes(text.encode("utf-8"))
    assert load_outcome(load_idf_table, idf_path) == load_outcome(load_idf_table_oracle, idf_path)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(idf_texts(valid=True))
def test_property_valid_idf_file_gives_the_oracle_table(idf_path, text):
    idf_path.write_bytes(text.encode("utf-8"))
    outcome = load_outcome(load_idf_table, idf_path)
    assert outcome == load_outcome(load_idf_table_oracle, idf_path)
    assert isinstance(outcome[0], list), outcome


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(normal_form_idf_texts())
def test_property_normal_form_idf_file_never_reaches_the_line_loader(idf_path, text):
    idf_path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(corpus, "_idf_table_by_line", wraps=corpus._idf_table_by_line) as by_line:
        outcome = load_outcome(load_idf_table, idf_path)
    assert outcome == load_outcome(load_idf_table_oracle, idf_path)
    assert isinstance(outcome[0], list), outcome
    assert by_line.call_count == 0


def test_idf_loader_peak_memory_is_within_twice_the_oracle(tmp_path):
    rows = [
        f"term{i:04d}{'xyz'[i % 3] * (i % 7)}\t{(i * 0.6180339887) % 9:.6f}" for i in range(5000)
    ]
    path = write(tmp_path, "idf.tsv", "\n".join(rows) + "\n")
    peaks = {}
    for load in (load_idf_table, load_idf_table_oracle):
        load(path)  # first-call allocations are not the load's
        tracemalloc.start()
        try:
            load(path)
            peaks[load] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[load_idf_table] <= 2 * peaks[load_idf_table_oracle]


def five_thousand_idf_rows() -> str:
    """The table of the peak-memory test: 5,000 rows in normal form."""
    rows = [
        f"term{i:04d}{'xyz'[i % 3] * (i % 7)}\t{(i * 0.6180339887) % 9:.6f}" for i in range(5000)
    ]
    return "\n".join(rows) + "\n"


@pytest.fixture()
def normal_form_results(monkeypatch):
    """What each ``_idf_table_in_normal_form`` call returned: a table iff the shortcut was taken."""
    results = []
    shortcut = corpus._idf_table_in_normal_form

    def spy(*args):
        results.append(shortcut(*args))
        return results[-1]

    monkeypatch.setattr(corpus, "_idf_table_in_normal_form", spy)
    return results


class TestIdfNormalForm:
    def test_a_table_in_normal_form_takes_the_shortcut(self, tmp_path, normal_form_results):
        path = write(tmp_path, "idf.tsv", five_thousand_idf_rows())
        outcome = load_outcome(load_idf_table, path)
        assert [r is not None for r in normal_form_results] == [True]
        assert outcome == load_outcome(load_idf_table_oracle, path)
        assert len(outcome[0]) == 5000

    @pytest.mark.parametrize(
        "text",
        [
            "the\t0.5\n# note\nw\t1.0\n",  # a comment
            "the\t0.5\n\nw\t1.0\n",  # a blank line
            "the\t0.5\r\nw\t1.0\r\n",
            "the\t0.5\x1f\nw\t1.0\n",
            "the\t0.5\u2028w\t1.0\n",
        ],
    )
    def test_other_valid_tables_load_line_by_line(self, text, tmp_path, normal_form_results):
        path = write(tmp_path, "idf.tsv", text)
        with mock.patch.object(corpus, "_idf_table_by_line", wraps=corpus._idf_table_by_line) as by_line:
            outcome = load_outcome(load_idf_table, path)
        assert normal_form_results == [None]
        assert by_line.call_count == 1
        assert outcome == load_outcome(load_idf_table_oracle, path)
        assert isinstance(outcome[0], list), outcome

    @pytest.mark.parametrize(
        "text",
        [
            "the\t0.5\n\t\nw\t1.0\n",  # a row that is a tab: blank, so skipped
            "the\t0.5\n \t \nw\t1.0\n",  # blank too
            "the\t0.5\nw\t\x1f1.0\x1f\n",  # float keeps U+001F, str.strip removes it
            "the\t0.5\nw\t1.0",  # no trailing newline
            "the\t0.5\nthe\t1.0\n",  # a repeated term
            "the\t0.5\nw\t-1\n",
            "the\t0.5\nw\tnan\n",
        ],
    )
    def test_one_tab_per_row_is_not_enough(self, text, tmp_path, normal_form_results):
        path = write(tmp_path, "idf.tsv", text)
        assert load_outcome(load_idf_table, path) == load_outcome(load_idf_table_oracle, path)
        assert normal_form_results == [None]

    @pytest.mark.parametrize("line_break", [b for b in LINE_BREAKS if b not in ("\n", "\r\n")])
    def test_a_term_holding_a_line_break_is_two_lines(self, line_break, tmp_path, normal_form_results):
        path = write(tmp_path, "idf.tsv", f"the\t0.5\nw{line_break}x\t1.0\n")
        outcome = load_outcome(load_idf_table, path)
        assert outcome == load_outcome(load_idf_table_oracle, path)
        assert outcome[0] is ParseError and ":2: expected 'term<TAB>idf'" in outcome[1]
        assert normal_form_results == [None]


class TestReadText:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.text(st.sampled_from("ab\t \r\n\x85\u2028\xe9\U0001f600")))
    def test_reads_what_path_read_text_reads(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("read") / "file.txt"
        path.write_bytes(text.encode("utf-8"))
        assert corpus._read_text(path) == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "data, lineno",
        [
            (b"\xff", 1),
            (b"ok\nca\xe9\n", 2),
            (b"ok\r\nok\rca\xc3", 3),  # truncated at the end
            (b"a\xc2\x85b\n\xed\xa0\x80\n", 3),  # U+0085 breaks a line; then a surrogate
        ],
    )
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, data, lineno):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=rf"bad.txt:{lineno}: not valid UTF-8 \("):
            corpus._read_text(path)


class TestNuggetSpans:
    def test_load_and_merge(self, tmp_path, nine_citations):
        path = write(
            tmp_path,
            "spans.tsv",
            "ann1\ts1\t0\t11\nann1\ts1\t4\t20\nann1\ts2\t5\t16\n",
        )
        annotations = load_nugget_spans(path, nine_citations)
        ann = annotations["ann1"]
        assert ann.spans_of("s1") == ((0, 20),)  # overlapping rows merged
        assert ann.spans_of("s2") == ((5, 16),)
        assert ann.spans_of("s3") == ()

    def test_out_of_bounds_rejected(self, tmp_path, nine_citations):
        path = write(tmp_path, "spans.tsv", "ann1\ts9\t0\t100000\n")
        with pytest.raises(ValidationError, match="out of bounds"):
            load_nugget_spans(path, nine_citations)

    def test_unknown_sentence_rejected(self, tmp_path, nine_citations):
        path = write(tmp_path, "spans.tsv", "ann1\tsX\t0\t3\n")
        with pytest.raises(ValidationError, match="sX"):
            load_nugget_spans(path, nine_citations)

    def test_codepoint_boundary_enforced(self, tmp_path):
        cs = toy_citation_set(["café time"])  # 'caf\xc3\xa9 time' in bytes
        path = write(tmp_path, "spans.tsv", "ann1\ts1\t0\t4\n")
        with pytest.raises(ValidationError, match="codepoint"):
            load_nugget_spans(path, cs)
        ok = write(tmp_path, "ok.tsv", "ann1\ts1\t0\t5\n")
        assert load_nugget_spans(ok, cs)["ann1"].spans_of("s1") == ((0, 5),)

    @pytest.mark.parametrize("annotator", ["", "  "])
    def test_a_row_without_an_annotator_names_the_line(self, tmp_path, nine_citations, annotator):
        path = write(tmp_path, "spans.tsv", f"# spans\nann1\ts1\t0\t5\n{annotator}\ts1\t0\t5\n")
        with pytest.raises(ParseError, match=r"spans.tsv:3: empty annotator"):
            load_nugget_spans(path, nine_citations)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.lexrank_edge_threshold == 0.10
        assert cfg.lexrank_damping == 0.85
        assert cfg.divrank_lambda == 0.90
        assert cfg.divrank_alpha == 0.25
        assert cfg.divrank_beta == 0.1

    def test_validation(self):
        with pytest.raises(ValidationError):
            RunConfig(lexrank_damping=1.5)
        with pytest.raises(ValidationError, match="divrank_beta must be finite"):
            RunConfig(divrank_beta=float("nan"))

    def test_config_file_and_overrides(self, tmp_path):
        path = write(
            tmp_path,
            "run.cfg",
            "# a comment\nlexrank_damping = 0.5\ndivrank_beta = 0.3\nlowercase = false\n",
        )
        cfg = load_run_config(path)
        assert cfg.lexrank_damping == 0.5
        assert cfg.divrank_beta == 0.3
        assert cfg.lowercase is False
        cfg2 = load_run_config(path, {"lexrank_damping": 0.7, "divrank_beta": None})
        assert cfg2.lexrank_damping == 0.7  # flags win
        assert cfg2.divrank_beta == 0.3  # an unset flag keeps the file's value

    @pytest.mark.parametrize("line", ["divrank_beta = nan", "lexrank_damping = inf"])
    def test_non_finite_float_names_line(self, tmp_path, line):
        path = write(tmp_path, "run.cfg", "# a comment\n" + line + "\n")
        with pytest.raises(ValidationError, match=":2: .* must be finite"):
            load_run_config(path)

    @pytest.mark.parametrize("key", ["summary_budget_words", "random_seed", "random_trials"])
    def test_per_run_values_are_not_config_keys(self, tmp_path, key):
        path = write(tmp_path, "run.cfg", f"{key} = 5\n")
        with pytest.raises(ValidationError, match="unknown config key"):
            load_run_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "run.cfg", "no_such_option = 3\n")
        with pytest.raises(ValidationError, match="no_such_option"):
            load_run_config(path)

    def test_an_empty_stopword_path_names_line(self, tmp_path):
        path = write(tmp_path, "run.cfg", "# a comment\nstopword_path =\n")
        with pytest.raises(ParseError, match=r"run.cfg:2: bad value '' for stopword_path"):
            load_run_config(path)

    def test_stopwords_loaded(self, tmp_path):
        sw = write(tmp_path, "stop.txt", "the\nand\n# comment\n\n")
        assert load_stopwords(sw) == frozenset({"the", "and"})

    def test_stopwords_loaded_as_written(self, tmp_path):
        # The loader only parses; lexical.TokenizerConfig folds each word as a token.
        sw = write(tmp_path, "stop.txt", "the\nAnd\n  It's  # comment\n# comment\n\n")
        assert load_stopwords(sw) == frozenset({"the", "And", "It's"})

    @pytest.mark.parametrize("line", ["of the", "  of\tthe  # two words", "a\u00a0b"])
    def test_a_stopword_line_holds_one_word(self, tmp_path, line):
        sw = write(tmp_path, "stop.txt", f"the\n# comment\n{line}\n--\n")
        with pytest.raises(ParseError, match=r"stop.txt:3: a stopword line holds one word"):
            load_stopwords(sw)

    def test_a_punctuation_stopword_is_kept(self, tmp_path):
        # Under strip_punctuation = false "--" is a token like any other.
        sw = write(tmp_path, "stop.txt", "--\n")
        assert load_stopwords(sw) == frozenset({"--"})

    def test_every_field_has_a_type_the_config_parser_reads(self):
        # _coerce_config_value picks its parser by these declared types exactly.
        assert {f.type for f in fields(RunConfig)} == {"float", "bool", "str | None"}

    def test_a_repeated_key_names_the_file_line_and_key(self, tmp_path):
        path = write(tmp_path, "run.cfg", "lexrank_damping = 0.5\n# again\nlexrank_damping = 0.7\n")
        with pytest.raises(ParseError, match=r"run.cfg:3: config key 'lexrank_damping' is set twice"):
            load_run_config(path)
