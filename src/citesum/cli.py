"""Command-line surface: ingestion -> graph -> clustering -> summarization -> evaluation.

Subcommands: ``summarize``, ``evaluate``, ``graph-stats``, ``cluster``.
Exit codes: 0 ok, 1 data error, 2 usage error.  Stochastic methods require an
explicit seed, so identical inputs, config, and seed reproduce byte-identical
output artifacts; the run manifest (which carries wall-clock timings) is
metadata, not an artifact.  Output files are written atomically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .community import cluster_cnm, clustering_to_tsv, modularity
from .corpus import (
    DataError,
    RunConfig,
    load_citation_set,
    load_factoid_annotation,
    load_idf_table,
    load_nugget_spans,
    load_run_config,
    load_reference_summary,
    uniform_idf,
)
from .evaluate import (
    EvalReport,
    build_pyramid,
    ngram_kappa,
    pyramid_score,
    report_to_tsv,
    rouge_n,
)
from .graph import average_shortest_path, build_citation_summary_network, clustering_coefficient, to_dot
from .lexical import TokenizerConfig
from .rank import (
    Ordering,
    divrank,
    divrank_prior_from_length,
    lexrank,
    mmr_order,
    random_order,
    scores_to_tsv,
)
from .summarize import (
    assemble_from_ordering,
    c_lexrank_summary,
    c_rr_summary,
    summary_from_json,
)


class Summarizer(NamedTuple):
    """One ``--method``: ``run(cs, graph, cfg, budget, seed)`` returns the summary
    and the scores it ranked by, or None unless ``yields_scores``."""

    run: Callable
    needs_seed: bool = False
    yields_scores: bool = False


def _by_scores(solve) -> Summarizer:
    """The method that packs sentences in the order of ``solve(cs, graph, cfg)``'s scores."""

    def run(cs, g, cfg, budget, seed):
        scores = solve(cs, g, cfg)
        order = Ordering(tuple(scores.ranked_ids()), scores.method)
        return assemble_from_ordering(cs, order, budget), scores

    return Summarizer(run, yields_scores=True)


# The lambdas look the summarizers up in this module when called, never at import.
SUMMARIZERS = {
    "c-lexrank": Summarizer(lambda cs, g, cfg, budget, seed: (c_lexrank_summary(cs, g, budget, cfg), None)),
    "c-rr": Summarizer(
        lambda cs, g, cfg, budget, seed: (c_rr_summary(cs, g, budget, seed), None), needs_seed=True
    ),
    "lexrank": _by_scores(lambda cs, g, cfg: lexrank(g, cfg.lexrank_edge_threshold, cfg.lexrank_damping)),
    "mmr": Summarizer(
        lambda cs, g, cfg, budget, seed: (assemble_from_ordering(cs, mmr_order(g), budget), None)
    ),
    "divrank": _by_scores(lambda cs, g, cfg: divrank(g, cfg.divrank_lambda, cfg.divrank_alpha)),
    "divrank-prior": _by_scores(
        lambda cs, g, cfg: divrank(
            g, cfg.divrank_lambda, cfg.divrank_alpha, divrank_prior_from_length(cs, cfg.divrank_beta)
        )
    ),
    "random": Summarizer(
        lambda cs, g, cfg, budget, seed: (assemble_from_ordering(cs, random_order(cs, seed), budget), None),
        needs_seed=True,
    ),
}


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


class _Timings:
    def __init__(self):
        self.stages: dict[str, float] = {}
        self._last = time.perf_counter()

    def mark(self, stage: str) -> None:
        now = time.perf_counter()
        self.stages[stage] = round(now - self._last, 6)
        self._last = now


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """``--config`` with the flags on top; each config flag's dest is its RunConfig field."""
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    if args.config:
        return load_run_config(args.config, overrides)
    return RunConfig(**{k: v for k, v in overrides.items() if v is not None})


def _load_inputs(args: argparse.Namespace, cfg: RunConfig):
    """The citation set, the idf table and the tokenizer the graph build reads."""
    tokenizer = TokenizerConfig.from_run_config(cfg)
    cs = load_citation_set(args.infile)
    idf = load_idf_table(args.idf) if args.idf else uniform_idf()
    return cs, idf, tokenizer


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

    timings = _Timings()
    cfg = _resolve_config(args)
    cs, idf, tokenizer = _load_inputs(args, cfg)
    annotation = (
        load_factoid_annotation(args.annotations, cs) if args.annotations else None
    )
    timings.mark("load")

    graph = build_citation_summary_network(cs, idf, tokenizer)
    timings.mark("graph")

    out_dir = Path(args.out_dir)
    stem = Path(args.infile).stem
    trials = args.trials if args.trials is not None else 1
    outputs: dict[str, str] = {}
    extra_writes: list[tuple[Path, str]] = []
    reports: list[EvalReport] = []
    pyramid = build_pyramid(annotation) if annotation else None

    for trial in range(trials):
        seed = (args.seed + trial) if args.seed is not None else None
        summary, scores = method.run(cs, graph, cfg, args.budget, seed)
        suffix = f".t{trial:03d}" if trials > 1 else ""
        base = f"{stem}.{args.method}.{args.budget}{suffix}"
        outputs[f"{base}.txt"] = summary.to_text()
        outputs[f"{base}.json"] = summary.to_json()
        if annotation and pyramid:
            reports.append(pyramid_score(summary, annotation, pyramid))
    timings.mark("summarize")

    if args.scores_out:  # a ranking method, so a single trial with scores
        extra_writes.append((Path(args.scores_out), scores_to_tsv(scores)))

    if reports:
        total = 0.0  # plain left-to-right adds: sum() compensates since Python 3.12
        for r in reports:
            total += r.pyramid_score
        mean = total / len(reports)
        tsv = report_to_tsv(reports)
        tsv += f"# mean_pyramid={mean:.6f}\n"
        outputs[f"{stem}.{args.method}.{args.budget}.report.tsv"] = tsv
    timings.mark("evaluate")

    # All computation succeeded; only now touch the filesystem.
    for name, text in outputs.items():
        _write_atomic(out_dir / name, text)
    for path, text in extra_writes:
        _write_atomic(path, text)
    timings.mark("write")

    manifest = {
        "tool": "citesum",
        "version": __version__,
        "command": "summarize",
        "method": args.method,
        "budget": args.budget,
        "seed": args.seed,
        "trials": trials,
        "config": asdict(cfg),
        "inputs": {
            str(p): _sha256(p)
            for p in [args.infile, args.idf, args.annotations, args.config, cfg.stopword_path]
            if p
        },
        "outputs": sorted(outputs),
        "timings": timings.stages,
    }
    manifest_path = out_dir / f"{stem}.{args.method}.{args.budget}.manifest.json"
    _write_atomic(manifest_path, json.dumps(manifest, indent=2) + "\n")
    print(manifest_path)
    return 0


def cmd_evaluate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    out_prefix = Path(args.out)
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
        _write_atomic(out_prefix.with_suffix(".tsv"), report_to_tsv(reports))
        detail = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
        _write_atomic(out_prefix.with_suffix(".json"), detail)
    elif args.metric == "rouge":
        if not (args.candidate and args.references):
            parser.error("--metric rouge requires --candidate and --references")
        candidate = load_reference_summary(args.candidate)
        references = [load_reference_summary(p) for p in args.references]
        scores = {
            n: rouge_n(candidate, references, n, jackknife=args.jackknife) for n in (1, 2)
        }
        lines = ["metric\tvalue"]
        lines += [f"rouge_{n}\t{score:.6f}" for n, score in sorted(scores.items())]
        _write_atomic(out_prefix.with_suffix(".tsv"), "\n".join(lines) + "\n")
        payload = {f"rouge_{n}": score for n, score in sorted(scores.items())}
        payload["jackknife"] = args.jackknife
        _write_atomic(out_prefix.with_suffix(".json"), json.dumps(payload, indent=2) + "\n")
    else:  # kappa
        if not (args.citations and args.spans_a and args.spans_b):
            parser.error("--metric kappa requires --citations, --spans-a, --spans-b")
        cs = load_citation_set(args.citations)
        ann_a = _single_annotator(load_nugget_spans(args.spans_a, cs), args.spans_a)
        ann_b = _single_annotator(load_nugget_spans(args.spans_b, cs), args.spans_b)
        kappas = {
            n: ngram_kappa(ann_a, ann_b, cs, n, chance_model=args.chance_model)
            for n in (1, 2, 3)
        }
        names = {1: "unigram", 2: "bigram", 3: "trigram"}
        header = "pair\t" + "\t".join(names[n] for n in (1, 2, 3))
        row = f"{ann_a.annotator} vs {ann_b.annotator}\t" + "\t".join(
            f"{kappas[n]:.6f}" for n in (1, 2, 3)
        )
        _write_atomic(out_prefix.with_suffix(".tsv"), header + "\n" + row + "\n")
        payload = {names[n]: kappas[n] for n in (1, 2, 3)}
        payload["chance_model"] = args.chance_model
        _write_atomic(out_prefix.with_suffix(".json"), json.dumps(payload, indent=2) + "\n")
    print(out_prefix.with_suffix(".tsv"))
    return 0


def _single_annotator(annotations: dict, path) -> "object":
    if len(annotations) != 1:
        raise DataError(
            f"{path}: expected exactly one annotator per span file, found {sorted(annotations)}"
        )
    return next(iter(annotations.values()))


def cmd_graph_stats(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cfg = _resolve_config(args)
    cs, idf, tokenizer = _load_inputs(args, cfg)
    graph = build_citation_summary_network(cs, idf, tokenizer)
    threshold = cfg.lexrank_edge_threshold
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
        _write_atomic(Path(args.dot), to_dot(graph, threshold))
        print(f"dot\t{args.dot}")
    return 0


def cmd_cluster(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cs, idf, tokenizer = _load_inputs(args, _resolve_config(args))
    graph = build_citation_summary_network(cs, idf, tokenizer)
    clustering = cluster_cnm(graph)
    _write_atomic(Path(args.out), clustering_to_tsv(clustering, graph.nodes))
    print(args.out)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    """The inputs of every subcommand that builds the graph."""
    sub.add_argument("--in", dest="infile", required=True, help="citation set (JSON lines)")
    sub.add_argument("--idf", help="IDF table TSV (default: uniform idf of 1.0)")
    sub.add_argument("--config", help="key = value config file; flags win over its values")
    sub.add_argument(
        "--stopwords", dest="stopword_path", metavar="STOPWORDS",
        help="stopword list, one word per line",
    )


def _add_threshold(sub: argparse.ArgumentParser) -> None:
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
    _add_threshold(p_sum)
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
    p_sum.add_argument("--divrank-lambda", type=float, dest="divrank_lambda")
    p_sum.add_argument("--divrank-alpha", type=float, dest="divrank_alpha")
    p_sum.add_argument("--divrank-beta", type=float, dest="divrank_beta")
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
    p_eval.add_argument(
        "--chance-model", choices=("cohen", "scott", "uniform"), default="cohen"
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_stats = subs.add_parser("graph-stats", help="small-world statistics of the sentence graph")
    _add_common(p_stats)
    _add_threshold(p_stats)
    p_stats.add_argument("--dot", help="also write the binarized graph in DOT format")
    p_stats.set_defaults(func=cmd_graph_stats)

    p_cluster = subs.add_parser("cluster", help="detect communities and export the partition")
    _add_common(p_cluster)
    p_cluster.add_argument("--out", required=True, help="clustering TSV path")
    p_cluster.set_defaults(func=cmd_cluster)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
