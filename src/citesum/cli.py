"""Command-line surface: ingestion -> graph -> clustering -> summarization -> evaluation.

Subcommands: ``summarize``, ``evaluate``, ``graph-stats``, ``cluster``.
Exit codes: 0 ok, 1 data error, 2 usage error.  Stochastic methods require an
explicit seed, so identical inputs, config, and seed reproduce byte-identical
output artifacts; the run manifest (which carries wall-clock timings) is
metadata, not an artifact.  Output files are written atomically: each goes
to a temporary file in its directory, renamed over the target once complete,
and ends with the permissions the umask gives a new file (0o644 under umask
0o022).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .community import cluster_cnm, clustering_to_tsv, modularity
from .corpus import (
    DataError, RunConfig, load_citation_set, load_factoid_annotation, load_idf_table, load_nugget_spans,
    load_reference_summary, load_run_config, uniform_idf,
)
from .evaluate import EvalReport, build_pyramid, ngram_kappa, pyramid_score, report_to_tsv, rouge_n
from .graph import average_shortest_path, build_citation_summary_network, clustering_coefficient, to_dot
from .lexical import TokenizerConfig
from .rank import Ordering, divrank, divrank_prior_from_length, lexrank, mmr_order, random_order, scores_to_tsv
from .summarize import assemble_from_ordering, c_lexrank_order, c_rr_order, summary_from_json
# Not called here: bench/tracing.py patches these two by name in this module.
from .summarize import c_lexrank_summary, c_rr_summary  # noqa: F401


class Summarizer(NamedTuple):
    """One ``--method``: ``run(cs, graph, cfg, seed)`` returns an Ordering of every
    sentence, or, if ``yields_scores``, the RankScores to order them by.  A method
    that does not ``reads_graph`` gets None for the graph, which is never built."""

    run: Callable
    needs_seed: bool = False
    yields_scores: bool = False
    reads_graph: bool = True

    def summarize(self, cs, g, cfg, budget, seed):
        """``(Summary of budget words, the RankScores it ranked by or None)``."""
        ranked = self.run(cs, g, cfg, seed)
        scores = ranked if self.yields_scores else None
        if scores is not None:
            ranked = Ordering(tuple(scores.ranked_ids()), scores.method)
        return assemble_from_ordering(cs, ranked, budget), scores


# The lambdas look the methods up in this module when called, never at import.
SUMMARIZERS = {
    "c-lexrank": Summarizer(lambda cs, g, cfg, seed: c_lexrank_order(g, cfg)),
    "c-rr": Summarizer(lambda cs, g, cfg, seed: c_rr_order(g, seed), needs_seed=True),
    "lexrank": Summarizer(
        lambda cs, g, cfg, seed: lexrank(g, cfg.lexrank_edge_threshold, cfg.lexrank_damping), yields_scores=True
    ),
    "mmr": Summarizer(lambda cs, g, cfg, seed: mmr_order(g)),
    "divrank": Summarizer(
        lambda cs, g, cfg, seed: divrank(g, cfg.divrank_lambda, cfg.divrank_alpha), yields_scores=True
    ),
    "divrank-prior": Summarizer(
        lambda cs, g, cfg, seed: divrank(
            g, cfg.divrank_lambda, cfg.divrank_alpha, divrank_prior_from_length(cs, cfg.divrank_beta)
        ),
        yields_scores=True,
    ),
    "random": Summarizer(lambda cs, g, cfg, seed: random_order(cs, seed), needs_seed=True, reads_graph=False),
}


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 to a temporary file beside ``path``, then rename it over ``path``.

    The temporary file is created with mode 0o666, so the final file gets
    the permissions the umask leaves, like any new file.  The directory must
    exist; ``_write_files`` creates it.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_files(files: dict[Path, str]) -> None:
    """The one writer: create each parent directory once, then write the files atomically, in order."""
    for parent in dict.fromkeys(path.parent for path in files):
        parent.mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        _write_atomic(path, text)


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class _Run:
    """What a graph subcommand reads, and the seconds each stage of its run took.

    The config is ``--config`` with the flags on top; each config flag's dest
    is its RunConfig field.  Stage ``load`` reads the tokenizer, citation
    set, IDF table and any ``--annotations``; stage ``graph`` builds the
    sentence graph, or leaves ``graph`` None if not ``build_graph``.
    """

    def __init__(self, args: argparse.Namespace, build_graph: bool = True):
        self.stages: dict[str, float] = {}
        self._last = time.perf_counter()
        overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
        if args.config:
            self.cfg = load_run_config(args.config, overrides)
        else:
            self.cfg = RunConfig(**{k: v for k, v in overrides.items() if v is not None})
        tokenizer = TokenizerConfig.from_run_config(self.cfg)
        self.cs = load_citation_set(args.infile)
        idf = load_idf_table(args.idf) if args.idf else uniform_idf()
        annotations = getattr(args, "annotations", None)
        self.annotation = load_factoid_annotation(annotations, self.cs) if annotations else None
        self.mark("load")
        self.graph = build_citation_summary_network(self.cs, idf, tokenizer) if build_graph else None
        self.mark("graph")

    def mark(self, stage: str) -> None:
        """Record the seconds since the previous mark as ``stage``."""
        now = time.perf_counter()
        self.stages[stage] = round(now - self._last, 6)
        self._last = now


def cmd_summarize(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.budget <= 0:
        parser.error("--budget must be positive")
    method = SUMMARIZERS[args.method]
    if method.needs_seed and args.seed is None:
        parser.error(f"--seed is required for method {args.method} (no wall-clock seeding)")
    if args.trials is not None and args.method != "random":
        parser.error("--trials is only valid with --method random")
    if args.trials is not None and args.trials <= 0:
        parser.error("--trials must be positive")
    if args.scores_out and not method.yields_scores:
        ranking = sorted(name for name, m in SUMMARIZERS.items() if m.yields_scores)
        parser.error(f"--scores-out is only valid for {ranking}")

    run = _Run(args, build_graph=method.reads_graph)
    out_dir = Path(args.out_dir)
    name = f"{Path(args.infile).stem}.{args.method}.{args.budget}"
    trials = args.trials if args.trials is not None else 1
    outputs: dict[Path, str] = {}
    reports: list[EvalReport] = []
    pyramid = build_pyramid(run.annotation) if run.annotation else None
    for trial in range(trials):
        seed = (args.seed + trial) if args.seed is not None else None
        summary, scores = method.summarize(run.cs, run.graph, run.cfg, args.budget, seed)
        base = f"{name}.t{trial:03d}" if trials > 1 else name
        outputs[out_dir / f"{base}.txt"] = summary.to_text()
        outputs[out_dir / f"{base}.json"] = summary.to_json()
        if pyramid:
            reports.append(pyramid_score(summary, run.annotation, pyramid))
    run.mark("summarize")

    if reports:
        total = 0.0  # plain left-to-right adds: sum() compensates since Python 3.12
        for r in reports:
            total += r.pyramid_score
        tsv = report_to_tsv(reports) + f"# mean_pyramid={total / len(reports):.6f}\n"
        outputs[out_dir / f"{name}.report.tsv"] = tsv
    if args.scores_out:  # a ranking method, so a single trial with scores
        outputs[Path(args.scores_out)] = scores_to_tsv(scores)
    run.mark("evaluate")

    # All computation succeeded; only now touch the filesystem.
    _write_files(outputs)
    run.mark("write")

    manifest = {
        "tool": "citesum",
        "version": __version__,
        "command": "summarize",
        "method": args.method,
        "budget": args.budget,
        "seed": args.seed,
        "trials": trials,
        "config": asdict(run.cfg),
        "inputs": {
            str(p): _sha256(p)
            for p in [args.infile, args.idf, args.annotations, args.config, run.cfg.stopword_path]
            if p
        },
        "outputs": sorted(map(str, outputs)),
        "timings": run.stages,
    }
    manifest_path = out_dir / f"{name}.manifest.json"
    _write_files({manifest_path: json.dumps(manifest, indent=2) + "\n"})
    print(manifest_path)
    return 0


def cmd_evaluate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.metric == "pyramid":
        if not (args.summary and args.citations and args.annotations):
            parser.error("--metric pyramid requires --summary, --citations, --annotations")
        cs = load_citation_set(args.citations)
        annotation = load_factoid_annotation(args.annotations, cs)
        pyramid = build_pyramid(annotation)
        reports = [
            pyramid_score(summary_from_json(path), annotation, pyramid)
            for path in args.summary
        ]
        tsv, payload = report_to_tsv(reports), [r.to_dict() for r in reports]
    elif args.metric == "rouge":
        if not (args.candidate and args.references):
            parser.error("--metric rouge requires --candidate and --references")
        candidate = load_reference_summary(args.candidate)
        references = [load_reference_summary(p) for p in args.references]
        payload = {
            f"rouge_{n}": rouge_n(candidate, references, n, jackknife=args.jackknife) for n in (1, 2)
        }
        tsv = "metric\tvalue\n" + "".join(f"{key}\t{score:.6f}\n" for key, score in payload.items())
        payload["jackknife"] = args.jackknife
    else:  # kappa
        if not (args.citations and args.spans_a and args.spans_b):
            parser.error("--metric kappa requires --citations, --spans-a, --spans-b")
        cs = load_citation_set(args.citations)
        ann_a = _single_annotator(load_nugget_spans(args.spans_a, cs), args.spans_a)
        ann_b = _single_annotator(load_nugget_spans(args.spans_b, cs), args.spans_b)
        payload = {
            name: ngram_kappa(ann_a, ann_b, cs, n, chance_model=args.chance_model)
            for n, name in ((1, "unigram"), (2, "bigram"), (3, "trigram"))
        }
        tsv = "pair\t" + "\t".join(payload) + "\n"
        tsv += f"{ann_a.annotator} vs {ann_b.annotator}\t" + "\t".join(f"{k:.6f}" for k in payload.values()) + "\n"
        payload["chance_model"] = args.chance_model
    tsv_path = Path(f"{args.out}.tsv")
    _write_files({tsv_path: tsv, Path(f"{args.out}.json"): json.dumps(payload, indent=2) + "\n"})
    print(tsv_path)
    return 0


def _single_annotator(annotations: dict, path) -> "object":
    if len(annotations) != 1:
        raise DataError(
            f"{path}: expected exactly one annotator per span file, found {sorted(annotations)}"
        )
    return next(iter(annotations.values()))


def cmd_graph_stats(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    run = _Run(args)
    graph, threshold = run.graph, run.cfg.lexrank_edge_threshold
    coefficient = clustering_coefficient(graph, threshold)
    paths = average_shortest_path(graph, threshold)
    clustering = cluster_cnm(graph)
    q = modularity(graph, clustering.assignment)

    print(f"nodes\t{len(graph)}")
    print(f"edges\t{graph.edge_count(threshold)}")
    print(f"threshold\t{threshold:.6f}")
    print(f"clustering_coefficient\t{coefficient:.6f}")
    avg = "inf" if paths.average == float("inf") else f"{paths.average:.6f}"
    print(f"avg_shortest_path\t{avg}")
    print(f"disconnected_fraction\t{paths.disconnected_fraction:.6f}")
    print(f"clusters\t{clustering.g}")
    print(f"modularity\t{q:.6f}")
    if len(graph) == 1:
        print("caveat\tsingle-node graph: C is trivially 0 and Q is degenerate")
    if args.dot:
        _write_files({Path(args.dot): to_dot(graph, threshold)})
        print(f"dot\t{args.dot}")
    return 0


def cmd_cluster(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    graph = _Run(args).graph
    _write_files({Path(args.out): clustering_to_tsv(cluster_cnm(graph), graph.nodes)})
    print(args.out)
    return 0


def _add_common(sub: argparse.ArgumentParser, threshold: bool = True) -> None:
    """The inputs of every subcommand that builds the graph, and ``--threshold`` if it reads one."""
    sub.add_argument("--in", dest="infile", required=True, help="citation set (JSON lines)")
    sub.add_argument("--idf", help="IDF table TSV (default: uniform idf of 1.0)")
    sub.add_argument("--config", help="key = value config file; flags win over its values")
    sub.add_argument(
        "--stopwords", dest="stopword_path", metavar="STOPWORDS",
        help="stopword list, one word per line",
    )
    if threshold:
        sub.add_argument(
            "--threshold", type=float, dest="lexrank_edge_threshold", metavar="THRESHOLD",
            help="edge threshold for LexRank and the binarized statistics",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citesum",
        description="Diversity-aware extractive summaries of citation sentences, plus evaluation tools.",
    )
    parser.add_argument("--version", action="version", version=f"citesum {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_sum = subs.add_parser("summarize", help="write a word-budgeted extractive summary")
    _add_common(p_sum)
    p_sum.add_argument(
        "--damping", type=float, dest="lexrank_damping", metavar="DAMPING",
        help="teleport damping for LexRank",
    )
    p_sum.add_argument("--method", required=True, choices=tuple(SUMMARIZERS))
    p_sum.add_argument("--budget", type=int, required=True, help="summary budget in words")
    p_sum.add_argument("--seed", type=int, help="required for stochastic methods")
    p_sum.add_argument("--trials", type=int, help="repeat count for --method random")
    p_sum.add_argument("--annotations", help="factoid TSV; adds a pyramid report")
    p_sum.add_argument("--out-dir", default=".", help="directory for output files")
    p_sum.add_argument("--scores-out", help="also write the salience scores TSV")
    for name in ("lambda", "alpha", "beta"):
        p_sum.add_argument(f"--divrank-{name}", type=float)
    p_sum.set_defaults(func=cmd_summarize)

    p_eval = subs.add_parser("evaluate", help="score summaries or annotations")
    p_eval.add_argument("--metric", required=True, choices=("pyramid", "rouge", "kappa"))
    p_eval.add_argument("--out", default="report", help="output path prefix (.tsv/.json added)")
    p_eval.add_argument("--summary", nargs="+", help="summary JSON file(s) (pyramid); one row each")
    p_eval.add_argument("--citations", help="citation set JSONL (pyramid, kappa)")
    p_eval.add_argument("--annotations", help="factoid TSV (pyramid)")
    p_eval.add_argument("--candidate", help="candidate summary text file (rouge)")
    p_eval.add_argument("--references", nargs="+", help="reference summary files (rouge)")
    p_eval.add_argument("--jackknife", action="store_true", help="leave-one-reference-out (rouge)")
    p_eval.add_argument("--spans-a", help="first annotator span TSV (kappa)")
    p_eval.add_argument("--spans-b", help="second annotator span TSV (kappa)")
    p_eval.add_argument("--chance-model", choices=("cohen", "scott", "uniform"), default="cohen")
    p_eval.set_defaults(func=cmd_evaluate)

    p_stats = subs.add_parser("graph-stats", help="small-world statistics of the sentence graph")
    _add_common(p_stats)
    p_stats.add_argument("--dot", help="also write the binarized graph in DOT format")
    p_stats.set_defaults(func=cmd_graph_stats)

    p_cluster = subs.add_parser("cluster", help="detect communities and export the partition")
    _add_common(p_cluster, threshold=False)
    p_cluster.add_argument("--out", required=True, help="clustering TSV path")
    p_cluster.set_defaults(func=cmd_cluster)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
