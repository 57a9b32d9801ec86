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
import functools
import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .community import cluster_cnm, clustering_to_tsv, modularity
from .corpus import (
    DataError, RunConfig, ends_in_file_name, load_citation_set, load_factoid_annotation, load_idf_table,
    load_nugget_spans, load_reference_summary, load_run_config, load_stopwords, plain_sum, uniform_idf,
)
from .evaluate import EvalReport, build_pyramid, ngram_kappa, pyramid_score, report_to_tsv, rouge_n
from .graph import average_shortest_path, build_citation_summary_network, clustering_coefficient, to_dot
from .lexical import TokenizerConfig
from .rank import divrank, divrank_prior_from_length, lexrank, mmr_order, random_order, scores_to_tsv
from .summarize import assemble_from_ordering, c_lexrank_order, c_rr_order, summary_from_json
# Not called here: bench/tracing.py patches these two by name in this module.
from .summarize import c_lexrank_summary, c_rr_summary  # noqa: F401


class Summarizer(NamedTuple):
    """One ``--method``: ``run(cs, graph, cfg, seed)`` returns an Ordering of every
    sentence, which ``assemble_from_ordering`` packs.  A method that
    ``yields_scores`` is a walk: its Ordering is a RankScores, which also carries
    the scores and the solve.  A method that does not ``reads_graph`` gets None
    for the graph, which is never built."""

    run: Callable
    needs_seed: bool = False
    yields_scores: bool = False
    reads_graph: bool = True


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


# The dests of every flag that names a file a subcommand reads.
_INPUT_DESTS = (
    "infile", "idf", "config", "stopword_path", "annotations",
    "summary", "citations", "candidate", "references", "spans_a", "spans_b",
)


def _refuse_overwrites(
    args: argparse.Namespace, parser: argparse.ArgumentParser, outputs: list[tuple[str, str | Path]]
) -> None:
    """A usage error (exit 2) if one of ``outputs``, ``(flag, path)`` pairs in
    write order, names an input flag's file or an earlier output.

    Paths are compared by ``os.path.abspath``, as strings: no filesystem
    call, since a pyramid job passes a hundred summaries.  A subcommand
    calls this before it reads anything.
    """
    taken = set()
    for dest in _INPUT_DESTS:
        value = getattr(args, dest, None)
        taken.update(os.path.abspath(p) for p in (value if isinstance(value, list) else [value]) if p)
    for flag, path in outputs:
        key = os.path.abspath(path)
        if key in taken:
            parser.error(f"{flag} {str(path)!r} names another file of the run")
        taken.add(key)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Run:
    """What a graph subcommand reads, and the seconds each stage of its run took.

    The config is ``--config`` with the flags on top; each config flag's dest
    is its RunConfig field.  Stage ``load`` reads the tokenizer, citation
    set, IDF table and any ``--annotations``; stage ``graph`` builds the
    sentence graph, or leaves ``graph`` None if not ``build_graph``.  Each
    input file is read once, and ``inputs`` keeps the bytes its loader
    parsed, by path, for the manifest's digests.
    """

    def __init__(self, args: argparse.Namespace, build_graph: bool = True):
        self.stages: dict[str, float] = {}
        self.inputs: dict[str, bytes] = {}
        self._last = time.perf_counter()
        overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
        if args.config:
            self.cfg = load_run_config(args.config, overrides, self._read(args.config))
        else:
            self.cfg = RunConfig(**{k: v for k, v in overrides.items() if v is not None})
        stopword_path = self.cfg.stopword_path
        stopwords = load_stopwords(stopword_path, self._read(stopword_path)) if stopword_path else frozenset()
        tokenizer = TokenizerConfig(self.cfg.lowercase, self.cfg.strip_punctuation, stopwords)
        self.cs = load_citation_set(args.infile, self._read(args.infile))
        idf = load_idf_table(args.idf, self._read(args.idf)) if args.idf else uniform_idf()
        annotations = getattr(args, "annotations", None)
        self.annotation = (
            load_factoid_annotation(annotations, self.cs, self._read(annotations)) if annotations else None
        )
        self.mark("load")
        self.graph = build_citation_summary_network(self.cs, idf, tokenizer) if build_graph else None
        self.mark("graph")

    def _read(self, path: str) -> bytes:
        """The bytes of the input file at ``path``, kept in ``inputs``."""
        data = self.inputs[str(path)] = Path(path).read_bytes()
        return data

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
    out_dir = Path(args.out_dir)
    name = f"{Path(args.infile).stem}.{args.method}.{args.budget}"
    if args.scores_out:  # a ranking method, so one trial: these are the run's other outputs
        exts = (".txt", ".json", ".report.tsv", ".manifest.json")
        others = [("--out-dir", out_dir / f"{name}{ext}") for ext in exts]
        _refuse_overwrites(args, parser, [*others, ("--scores-out", args.scores_out)])

    run = _Run(args, build_graph=method.reads_graph)
    trials = args.trials if args.trials is not None else 1
    outputs: dict[Path, str] = {}
    reports: list[EvalReport] = []
    pyramid = build_pyramid(run.annotation) if run.annotation else None
    for trial in range(trials):
        seed = (args.seed + trial) if args.seed is not None else None
        ranking = method.run(run.cs, run.graph, run.cfg, seed)
        if method.yields_scores and not ranking.converged:
            print(
                f"warning: {ranking.method} did not converge: stopped after {ranking.iterations} "
                f"iterations at residual {ranking.residual:.3g}",
                file=sys.stderr,
            )
        summary = assemble_from_ordering(run.cs, ranking, args.budget)
        base = f"{name}.t{trial:03d}" if trials > 1 else name
        outputs[out_dir / f"{base}.txt"] = summary.to_text()
        outputs[out_dir / f"{base}.json"] = summary.to_json()
        if pyramid:
            reports.append(pyramid_score(summary, run.annotation, pyramid))
    run.mark("summarize")

    if reports:
        mean = plain_sum(r.pyramid_score for r in reports) / len(reports)
        tsv = report_to_tsv(reports) + f"# mean_pyramid={mean:.6f}\n"
        outputs[out_dir / f"{name}.report.tsv"] = tsv
    if args.scores_out:  # a ranking method, so a single trial with scores
        outputs[Path(args.scores_out)] = scores_to_tsv(ranking)
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
        "inputs": {path: _sha256(data) for path, data in run.inputs.items()},
        "outputs": sorted(map(str, outputs)),
        "timings": run.stages,
    }
    manifest_path = out_dir / f"{name}.manifest.json"
    _write_files({manifest_path: json.dumps(manifest, indent=2) + "\n"})
    print(manifest_path)
    return 0


def cmd_evaluate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    tsv_path, json_path = Path(f"{args.out}.tsv"), Path(f"{args.out}.json")
    _refuse_overwrites(args, parser, [("--out", tsv_path), ("--out", json_path)])
    if args.metric == "pyramid":
        if not (args.summary and args.citations and args.annotations):
            parser.error("--metric pyramid requires --summary, --citations, --annotations")
        cs = load_citation_set(args.citations)
        annotation = load_factoid_annotation(args.annotations, cs)
        pyramid = build_pyramid(annotation)
        reports = []
        for path in args.summary:
            summary = summary_from_json(path)
            try:
                reports.append(pyramid_score(summary, annotation, pyramid))
            except DataError as exc:
                raise DataError(f"{path}: {exc}") from None
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
    _write_files({tsv_path: tsv, json_path: json.dumps(payload, indent=2) + "\n"})
    print(tsv_path)
    return 0


def _single_annotator(annotations: dict, path) -> "object":
    if len(annotations) != 1:
        raise DataError(
            f"{path}: expected exactly one annotator per span file, found {sorted(annotations)}"
        )
    return next(iter(annotations.values()))


def cmd_graph_stats(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _refuse_overwrites(args, parser, [("--dot", args.dot)] if args.dot else [])
    run = _Run(args)
    graph, threshold = run.graph, run.cfg.lexrank_edge_threshold
    coefficient = clustering_coefficient(graph, threshold)
    paths = average_shortest_path(graph, threshold)
    clustering = cluster_cnm(graph)
    q = modularity(graph, clustering.assignment)
    dot = to_dot(graph, threshold) if args.dot else None  # an id DOT cannot quote fails here, before any output

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
    if dot is not None:
        _write_files({Path(args.dot): dot})
        print(f"dot\t{args.dot}")
    return 0


def cmd_cluster(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _refuse_overwrites(args, parser, [("--out", args.out)])
    graph = _Run(args).graph
    _write_files({Path(args.out): clustering_to_tsv(cluster_cnm(graph), graph.nodes)})
    print(args.out)
    return 0


def _file_path(value: str) -> str:
    """The ``type`` of every flag that names a file: ``value``, if it ``ends_in_file_name``,
    else a usage error before anything is read or written."""
    if not ends_in_file_name(value):
        raise argparse.ArgumentTypeError(f"{value!r} must end in a file name, not a directory")
    return value


def _add_common(sub: argparse.ArgumentParser, threshold: bool = True) -> None:
    """The inputs of every subcommand that builds the graph, and ``--threshold`` if it reads one."""
    sub.add_argument("--in", dest="infile", required=True, type=_file_path, help="citation set (JSON lines)")
    sub.add_argument("--idf", type=_file_path, help="IDF table TSV (default: uniform idf of 1.0)")
    sub.add_argument("--config", type=_file_path, help="key = value config file; flags win over its values")
    sub.add_argument(
        "--stopwords", dest="stopword_path", metavar="STOPWORDS", type=_file_path,
        help="stopword list, one word per line",
    )
    if threshold:
        sub.add_argument(
            "--threshold", type=float, dest="lexrank_edge_threshold", metavar="THRESHOLD",
            help="edge threshold for LexRank and the binarized statistics",
        )


def _summarize_arguments(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument(
        "--damping", type=float, dest="lexrank_damping", metavar="DAMPING",
        help="teleport damping for LexRank",
    )
    sub.add_argument("--method", required=True, choices=tuple(SUMMARIZERS))
    sub.add_argument("--budget", type=int, required=True, help="summary budget in words")
    sub.add_argument("--seed", type=int, help="required for stochastic methods")
    sub.add_argument("--trials", type=int, help="repeat count for --method random")
    sub.add_argument("--annotations", type=_file_path, help="factoid TSV; adds a pyramid report")
    sub.add_argument("--out-dir", default=".", help="directory for output files")
    sub.add_argument("--scores-out", type=_file_path, help="also write the salience scores TSV")
    for name in ("lambda", "alpha", "beta"):
        sub.add_argument(f"--divrank-{name}", type=float)


def _evaluate_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--metric", required=True, choices=("pyramid", "rouge", "kappa"))
    sub.add_argument("--out", default="report", type=_file_path, help="output path prefix (.tsv/.json added)")
    sub.add_argument("--summary", nargs="+", type=_file_path, help="summary JSON file(s) (pyramid); one row each")
    sub.add_argument("--citations", type=_file_path, help="citation set JSONL (pyramid, kappa)")
    sub.add_argument("--annotations", type=_file_path, help="factoid TSV (pyramid)")
    sub.add_argument("--candidate", type=_file_path, help="candidate summary text file (rouge)")
    sub.add_argument("--references", nargs="+", type=_file_path, help="reference summary files (rouge)")
    sub.add_argument("--jackknife", action="store_true", help="leave-one-reference-out (rouge)")
    sub.add_argument("--spans-a", type=_file_path, help="first annotator span TSV (kappa)")
    sub.add_argument("--spans-b", type=_file_path, help="second annotator span TSV (kappa)")
    sub.add_argument("--chance-model", choices=("cohen", "scott", "uniform"), default="cohen")


def _graph_stats_arguments(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--dot", type=_file_path, help="also write the binarized graph in DOT format")


def _cluster_arguments(sub: argparse.ArgumentParser) -> None:
    _add_common(sub, threshold=False)
    sub.add_argument("--out", required=True, type=_file_path, help="clustering TSV path")


class Subcommand(NamedTuple):
    """One subcommand: its help line, the function that adds its arguments, and its ``cmd_*``."""

    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace, argparse.ArgumentParser], int]


SUBCOMMANDS = {
    "summarize": Subcommand("write a word-budgeted extractive summary", _summarize_arguments, cmd_summarize),
    "evaluate": Subcommand("score summaries or annotations", _evaluate_arguments, cmd_evaluate),
    "graph-stats": Subcommand(
        "small-world statistics of the sentence graph", _graph_stats_arguments, cmd_graph_stats
    ),
    "cluster": Subcommand("detect communities and export the partition", _cluster_arguments, cmd_cluster),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one run, built anew on every call.

    All four subcommands are registered with their help, so ``citesum -h``,
    the usage line and an invalid-choice error read the same whatever
    ``command`` is.  Only ``command``'s subparser gets its arguments; when
    ``command`` names no subcommand, every subparser gets them.  ``main``
    passes ``argv[0]``, so a run builds only what it parses.  Every help
    formatter of one build uses the terminal width read once at its start,
    as ``argparse.HelpFormatter`` reads it.  Nothing is kept between calls.
    """
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="citesum",
        description="Diversity-aware extractive summaries of citation sentences, plus evaluation tools.",
        formatter_class=formatter,
    )
    parser.add_argument("--version", action="version", version=f"citesum {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    every = command not in SUBCOMMANDS
    for name, subcommand in SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=subcommand.help, formatter_class=formatter)
        if every or name == command:
            subcommand.add_arguments(sub)
            sub.set_defaults(func=subcommand.run)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
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
