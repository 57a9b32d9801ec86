"""Outside-in tracing of the citesum layers.

The tracer replaces the package's public functions at the names where
``citesum.cli``, ``citesum.summarize`` and ``citesum.graph`` look them up, so
the program itself is unchanged.  Each call records a span (name, start, end,
parent span, job) in memory; hooks keep references to arguments or results
for the counts, and all arithmetic on them happens after the traced pass, so
it is charged to no span.  ``cosine_similarity`` runs n^2/2 times per graph
and is deliberately not wrapped: its time stays in ``graph.build``.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import citesum.cli
import citesum.graph
import citesum.summarize
from citesum.community import nmi
from citesum.rank import MAX_ITERATIONS, RESIDUAL_TOLERANCE
from workloads import RANKING_METHODS

_CLI, _SUM, _GRAPH = citesum.cli, citesum.summarize, citesum.graph

# (module, attribute, span name, record kind or None)
TRACED = (
    (_CLI, "load_citation_set", "corpus.load", "sentences"),
    (_CLI, "load_factoid_annotation", "corpus.load", None),
    (_CLI, "load_idf_table", "corpus.load", None),
    (_CLI, "load_nugget_spans", "corpus.load", None),
    (_CLI, "load_reference_summary", "corpus.load", None),
    (_GRAPH, "tfidf_vector", "lexical.tfidf", "tokens"),
    (_CLI, "build_citation_summary_network", "graph.build", "graph"),
    (_CLI, "clustering_coefficient", "graph.cc", None),
    (_CLI, "average_shortest_path", "graph.asp", None),
    (_CLI, "to_dot", "graph.dot", None),
    (_CLI, "cluster_cnm", "community.cnm", "cnm"),
    (_SUM, "cluster_cnm", "community.cnm", "cnm"),
    (_CLI, "modularity", "community.modularity", None),
    (_CLI, "lexrank", "rank.lexrank", "solve"),
    (_SUM, "lexrank", "rank.lexrank", "solve"),
    (_CLI, "divrank", "rank.divrank", "solve"),
    (_CLI, "mmr_order", "rank.mmr", None),
    (_CLI, "random_order", "rank.random", None),
    (_CLI, "c_lexrank_summary", "summarize.summary", "summary"),
    (_CLI, "c_rr_summary", "summarize.summary", "summary"),
    (_CLI, "assemble_from_ordering", "summarize.summary", "summary"),
    (_CLI, "summary_from_json", "summarize.read", None),
    (_CLI, "build_pyramid", "evaluate.pyramid", None),
    (_CLI, "pyramid_score", "evaluate.pyramid", "evaluation"),
    (_CLI, "rouge_n", "evaluate.rouge", "evaluation"),
    (_CLI, "ngram_kappa", "evaluate.kappa", "evaluation"),
    (_CLI, "_write_atomic", "cli.write", "write"),
    (_CLI, "_sha256", "cli.digest", None),
)

# Seconds per pass, from the self time of these spans.
TIME_METRICS = {
    "corpus.load_s": "corpus.load",
    "lexical.tfidf_s": "lexical.tfidf",
    "graph.build_s": "graph.build",
    "graph.asp_s": "graph.asp",
    "graph.cc_s": "graph.cc",
    "graph.dot_s": "graph.dot",
    "community.cnm_s": "community.cnm",
    "community.modularity_s": "community.modularity",
    "rank.lexrank_s": "rank.lexrank",
    "rank.divrank_s": "rank.divrank",
    "rank.mmr_s": "rank.mmr",
    "rank.random_s": "rank.random",
    "summarize.self_s": "summarize.summary",
    "summarize.read_s": "summarize.read",
    "evaluate.pyramid_s": "evaluate.pyramid",
    "evaluate.rouge_s": "evaluate.rouge",
    "evaluate.kappa_s": "evaluate.kappa",
    "cli.write_s": "cli.write",
    "cli.digest_s": "cli.digest",
}
JOB_SPAN = "job"


class Tracer:
    """Spans and records of traced jobs; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job name]
        self.records: list[tuple] = []  # (kind, job, payload)
        self._stack: list[int] = []
        self._job = None
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, kind):
        spans, stack, records = self.spans, self._stack, self.records

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self._job.name])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if kind is not None:
                records.append((kind, self._job, (args, result)))
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, kind in TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, kind))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def begin_job(self, job) -> None:
        self._job = job
        self._stack.append(len(self.spans))
        self.spans.append([JOB_SPAN, time.perf_counter(), 0.0, None, job.name])

    def end_job(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._job = None


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, gold: dict[str, dict[str, str]], ranking_jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``gold`` maps set -> sentence -> planted topic for every set of the pass;
    ``ranking_jobs`` counts the pass's summarize jobs with a ranking method.
    """
    own = self_times(tracer.spans)
    by_name: dict[str, float] = defaultdict(float)
    for span, seconds in zip(tracer.spans, own):
        by_name[span[0]] += seconds
    m: dict[str, float] = {metric: by_name[name] for metric, name in TIME_METRICS.items()}
    m["cli.self_s"] = by_name[JOB_SPAN]
    m["trace.wall_s"] = sum(end - start for name, start, end, _, _ in tracer.spans if name == JOB_SPAN)

    sets = len(gold)
    count: dict[str, float] = defaultdict(float)
    q, nmis = [], []
    words = budget = 0
    for kind, job, (args, result) in tracer.records:
        if kind == "sentences":
            count["corpus.sentences"] += len(result)
        elif kind == "tokens":
            count["lexical.tokens"] += len(args[0])
        elif kind == "graph":
            n = len(result)
            count["graph.builds"] += 1
            count["graph.pairs"] += n * (n - 1) // 2
            count["graph.edges"] += int((result.weights > 0.0).sum()) // 2
        elif kind == "cnm":
            n = len(args[0])
            count["community.cnm_calls"] += 1
            count["community.merges"] += n - result.g
            count["community.clusters"] += result.g
            q.append(result.q)
            nmis.append(nmi(result, {node: gold[job.set_name][node] for node in args[0].nodes}))
        elif kind == "solve":
            method = "lexrank" if result.method == "lexrank" else "divrank"
            count[f"rank.{method}_solves"] += 1
            count[f"rank.{method}_iters"] += result.iterations
            if result.iterations >= MAX_ITERATIONS and result.residual >= RESIDUAL_TOLERANCE:
                count["rank.nonconverged"] += 1
            if job.command == "summarize" and job.method in RANKING_METHODS:
                count["rank.ranking_job_solves"] += 1
        elif kind == "summary":
            words += result.total_words
            budget += result.budget
        elif kind == "evaluation":
            count["evaluate.calls"] += 1
        elif kind == "write":
            count["cli.files_written"] += 1
            if not str(args[0]).endswith(".manifest.json"):  # timings vary in length
                count["cli.bytes_written"] += len(args[1].encode("utf-8"))
    for name in ("corpus.sentences", "lexical.tokens", "graph.builds", "graph.pairs", "graph.edges",
                 "community.cnm_calls", "community.merges", "community.clusters",
                 "rank.lexrank_solves", "rank.lexrank_iters", "rank.divrank_solves",
                 "rank.divrank_iters", "rank.nonconverged", "evaluate.calls",
                 "cli.files_written", "cli.bytes_written"):
        m[name] = count[name]
    m["graph.builds_per_set"] = count["graph.builds"] / sets
    m["community.cnm_calls_per_set"] = count["community.cnm_calls"] / sets
    m["community.q_mean"] = statistics.fmean(q) if q else 0.0
    m["community.nmi_mean"] = statistics.fmean(nmis) if nmis else 0.0
    m["rank.divrank_us_per_iter"] = (
        1e6 * m["rank.divrank_s"] / count["rank.divrank_iters"] if count["rank.divrank_iters"] else 0.0
    )
    m["rank.solves_per_ranking_job"] = count["rank.ranking_job_solves"] / ranking_jobs if ranking_jobs else 0.0
    m["summarize.budget_fill"] = words / budget if budget else 0.0
    return m

