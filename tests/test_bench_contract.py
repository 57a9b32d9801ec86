"""The names the benchmark patches must exist where it patches them.

``bench/tracing.py`` and ``bench/run.py`` replace package functions by
attribute name in ``citesum.cli``, ``citesum.summarize`` and
``citesum.graph``, and read attributes of what those functions return.  A
refactor that drops or renames one of them, or changes what one returns,
would only show up as a crash of the benchmark; these tests make it fail
here.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import numpy as np

import citesum.cli
import citesum.graph
import citesum.summarize
from citesum.community import nmi

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


@pytest.fixture(scope="module")
def workloads(tracing):
    return sys.modules["workloads"]  # imported by tracing, from the same directory


def test_ranking_methods_are_the_summarizers_that_yield_scores(workloads):
    """The bench's own list of ranking methods is a second copy of the table's."""
    ranking = tuple(name for name, method in citesum.cli.SUMMARIZERS.items() if method.yields_scores)
    assert workloads.RANKING_METHODS == ranking


def test_traced_results_expose_what_the_bench_reads(tracing, fixture_paths, tmp_path, monkeypatch):
    """Run every summarize method, ``graph-stats`` and ``cluster`` with the
    recorded names of ``tracing.TRACED`` wrapped, and read each result the way
    ``tracing.layer_metrics`` does."""
    records = []

    def recorded(kind, fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            records.append((kind, args, result))
            return result

        return call

    for module, attr, _, kind in tracing.TRACED:
        if kind in ("graph", "cnm", "solve", "summary"):
            monkeypatch.setattr(module, attr, recorded(kind, getattr(module, attr)))
    common = ["--in", str(fixture_paths["citations"]), "--idf", str(fixture_paths["idf"])]
    for method in citesum.cli.SUMMARIZERS:
        argv = ["summarize", *common, "--method", method, "--budget", "50", "--seed", "1",
                "--out-dir", str(tmp_path)]
        if method in ("lexrank", "divrank", "divrank-prior"):
            argv += ["--scores-out", str(tmp_path / f"{method}.scores.tsv")]
        assert citesum.cli.main(argv) == 0
    assert citesum.cli.main(["graph-stats", *common]) == 0
    assert citesum.cli.main(["cluster", *common, "--out", str(tmp_path / "clusters.tsv")]) == 0

    assert {kind for kind, _, _ in records} == {"graph", "cnm", "solve", "summary"}
    for kind, args, result in records:
        if kind == "graph":
            n = len(result)
            assert isinstance(result.weights, np.ndarray) and result.weights.shape == (n, n)
        elif kind == "cnm":
            assert isinstance(result.g, int) and 1 <= result.g <= len(args[0])
            assert isinstance(result.q, float)
            assert set(result.assignment) == set(args[0].nodes)
            assert 0.0 <= nmi(result, {node: "topic" for node in args[0].nodes}) <= 1.0
        elif kind == "solve":
            assert result.method in ("lexrank", "divrank", "divrank-prior")
            assert isinstance(result.iterations, int) and result.iterations >= 1
            assert isinstance(result.residual, float)
        else:
            assert isinstance(result.total_words, int) and isinstance(result.budget, int)
            assert result.total_words <= result.budget == 50


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


@pytest.mark.parametrize("method", ["c-lexrank", "c-rr"])
def test_clustered_methods_call_through_the_summarize_names(method, fixture_paths, tmp_path, monkeypatch):
    """``community.cnm_calls`` and ``rank.lexrank_solves`` count calls of the
    names in ``citesum.summarize``, looked up there at call time: one
    ``cluster_cnm`` per job, and for c-lexrank one ``lexrank`` per cluster."""
    partitions, solves = [], []
    original_cnm, original_lexrank = citesum.summarize.cluster_cnm, citesum.summarize.lexrank
    monkeypatch.setattr(
        citesum.summarize, "cluster_cnm", lambda g: partitions.append(original_cnm(g)) or partitions[-1]
    )
    monkeypatch.setattr(
        citesum.summarize, "lexrank", lambda g, *a: solves.append(len(g)) or original_lexrank(g, *a)
    )
    code = citesum.cli.main(
        ["summarize", "--in", str(fixture_paths["citations"]), "--idf", str(fixture_paths["idf"]),
         "--method", method, "--budget", "50", "--seed", "1", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    assert len(partitions) == 1
    if method == "c-lexrank":
        sizes = sorted(len(members) for members in partitions[0].clusters())
        assert partitions[0].g > 1 and sorted(solves) == sizes
    else:
        assert solves == []


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


def test_graph_build_tokenizes_each_sentence_once(nine_citations, nine_idf, monkeypatch):
    """A build reads each sentence's terms with one ``tokenize`` call, in
    sentence order, looked up in ``citesum.graph``, and weighs them in array
    passes: it never calls ``tfidf_vector``, which stays bound in
    ``citesum.graph`` only because ``bench/tracing.py`` patches it there."""
    texts, weighed = [], []
    original = citesum.graph.tokenize
    monkeypatch.setattr(
        citesum.graph,
        "tokenize",
        lambda text, cfg: texts.append(text) or original(text, cfg),
    )
    monkeypatch.setattr(citesum.graph, "tfidf_vector", lambda *a, **k: weighed.append(a))
    graphs = [citesum.graph.build_citation_summary_network(nine_citations, nine_idf) for _ in range(2)]
    assert texts == 2 * [s.text for s in nine_citations.sentences]
    assert weighed == []
    assert graphs[0].weights.any()
