"""The names the benchmark patches must exist where it patches them.

``bench/tracing.py`` and ``bench/run.py`` replace package functions by
attribute name in ``citesum.cli``, ``citesum.summarize`` and
``citesum.graph``.  A refactor that drops or renames one of them would only
show up as a crash of the benchmark; these tests make it fail here.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import citesum.cli
import citesum.graph
import citesum.summarize
from citesum.lexical import tokenize

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


def test_every_traced_name_exists(tracing):
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.TRACED
        if not hasattr(module, attr)
    ]
    assert missing == []


@pytest.mark.parametrize("module", [citesum.cli, citesum.summarize])
def test_cnm_recorder_targets_exist(module):
    assert callable(module.cluster_cnm)


@pytest.mark.parametrize("method", citesum.cli.SUMMARIZERS)
def test_summarizers_call_through_the_patched_names(method, fixture_paths, tmp_path, monkeypatch):
    """The CLI looks each summarizer up in its module at call time."""
    calls = []
    for name in ("c_lexrank_summary", "c_rr_summary", "assemble_from_ordering"):
        original = getattr(citesum.cli, name)
        monkeypatch.setattr(
            citesum.cli, name, lambda *a, _f=original, **k: calls.append(1) or _f(*a, **k)
        )
    code = citesum.cli.main(
        ["summarize", "--in", str(fixture_paths["citations"]), "--method", method,
         "--budget", "50", "--seed", "1", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    assert calls == [1]


EVALUATE_CALLS = {
    "pyramid": {"build_pyramid": 1, "pyramid_score": 2},  # one pyramid_score per --summary
    "rouge": {"rouge_n": 2},
    "kappa": {"ngram_kappa": 3},
}


@pytest.mark.parametrize("metric", EVALUATE_CALLS)
def test_evaluate_calls_through_the_patched_names(metric, fixture_paths, tmp_path, monkeypatch):
    """The traced ``evaluate.calls`` count assumes these calls per evaluate run,
    each looked up in ``citesum.cli``."""
    citations = str(fixture_paths["citations"])
    summaries = []
    for method in ("c-lexrank", "lexrank"):
        assert citesum.cli.main(["summarize", "--in", citations, "--method", method,
                                 "--budget", "40", "--out-dir", str(tmp_path)]) == 0
        summaries.append(str(tmp_path / f"w05-0622.{method}.40.json"))
    for name, text in (("cand.txt", "a b c d"), ("ref1.txt", "a b c"), ("ref2.txt", "b c d")):
        (tmp_path / name).write_text(text + "\n", encoding="utf-8")
    for name in ("a", "b"):
        (tmp_path / f"{name}.tsv").write_text(f"{name}\ts1\t0\t11\n", encoding="utf-8")
    args = {
        "pyramid": ["--summary", *summaries, "--citations", citations,
                    "--annotations", str(fixture_paths["factoids"])],
        "rouge": ["--candidate", str(tmp_path / "cand.txt"), "--jackknife",
                  "--references", str(tmp_path / "ref1.txt"), str(tmp_path / "ref2.txt")],
        "kappa": ["--citations", citations, "--spans-a", str(tmp_path / "a.tsv"),
                  "--spans-b", str(tmp_path / "b.tsv")],
    }[metric]
    calls = []
    for name in ("build_pyramid", "pyramid_score", "rouge_n", "ngram_kappa"):
        original = getattr(citesum.cli, name)
        monkeypatch.setattr(
            citesum.cli, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k)
        )
    code = citesum.cli.main(["evaluate", "--metric", metric, "--out", str(tmp_path / metric), *args])
    assert code == 0
    assert Counter(calls) == EVALUATE_CALLS[metric]


def test_graph_build_weighs_each_sentence_once(nine_citations, nine_idf, monkeypatch):
    """The traced ``lexical.tokens`` count and ``lexical.tfidf`` span assume
    one ``tfidf_vector`` call per sentence per build, looked up in ``citesum.graph``."""
    calls = []
    original = citesum.graph.tfidf_vector
    monkeypatch.setattr(
        citesum.graph,
        "tfidf_vector",
        lambda tokens, idf: calls.append(list(tokens)) or original(tokens, idf),
    )
    for _ in range(2):
        citesum.graph.build_citation_summary_network(nine_citations, nine_idf)
    assert calls == 2 * [tokenize(s.text) for s in nine_citations.sentences]
