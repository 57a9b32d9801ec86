"""Loader behavior: formats, validation, round trips."""

import json
import tracemalloc
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


class TestIdfTable:
    def test_read_back(self, tmp_path):
        path = write(tmp_path, "idf.tsv", "the\t0.01\nparsing\t4.2\n")
        table = load_idf_table(path)
        assert table.idf("parsing") == 4.2

    def test_unseen_term_gets_max_observed(self, tmp_path):
        path = write(tmp_path, "idf.tsv", "the\t0.01\nparsing\t4.2\n")
        assert load_idf_table(path).idf("zyzzyva") == 4.2

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

    def test_line_checks_that_find_nothing_are_an_error(self, tmp_path):
        path = write(tmp_path, "idf.tsv", "the\t0.5\n")
        with mock.patch.object(corpus, "_idf_table_in_bulk", return_value=None):
            with pytest.raises(RuntimeError, match="bulk idf checks rejected"):
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
def test_property_valid_idf_file_never_reaches_the_line_loop(idf_path, text):
    idf_path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(
        corpus, "_raise_first_bad_idf_line", wraps=corpus._raise_first_bad_idf_line
    ) as line_loop:
        outcome = load_outcome(load_idf_table, idf_path)
    assert outcome == load_outcome(load_idf_table_oracle, idf_path)
    assert isinstance(outcome[0], list), outcome
    assert line_loop.call_count == 0


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

    def test_stopwords_loaded(self, tmp_path):
        sw = write(tmp_path, "stop.txt", "the\nand\n# comment\n\n")
        assert load_stopwords(sw) == frozenset({"the", "and"})
