"""The benchmark's workloads: generated corpora and the CLI jobs run on them.

A job is one ``citesum`` invocation, given as its argv.  Each job writes into
its own directory, so the benchmark can digest exactly the files a job wrote.
Paths are relative to the checkout root, where the benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from corpus_gen import GeneratedSet, SetSpec

BUDGET = "100"
METHOD_SEED = "2014"  # --seed of the stochastic methods; the corpus seed is separate
RANDOM_TRIALS = 100
RANKING_METHODS = ("lexrank", "divrank", "divrank-prior")


@dataclass(frozen=True)
class Job:
    name: str  # "<set>.<command>.<variant>", unique within a workload
    set_name: str
    command: str  # the citesum subcommand
    method: str  # summarize method or evaluate metric; "" otherwise
    argv: tuple[str, ...]
    out_dir: str


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[SetSpec, ...]
    golden_specs: tuple[SetSpec, ...]
    methods: tuple[str, ...]  # summarize methods run on every set
    sweep: bool  # the paper's sweep: --scores-out, --trials, then pyramid, ROUGE and kappa per set
    cluster_jobs: bool  # cluster and graph-stats --dot per set


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-small",
            specs=tuple(
                SetSpec(f"s{i:02d}", 10 + 70 * i // 39, min(3 + i % 4, (10 + 70 * i // 39) // 3))
                for i in range(40)
            ),
            golden_specs=(SetSpec("g0", 12, 3), SetSpec("g1", 45, 5)),
            methods=("c-lexrank", "c-rr", "lexrank", "mmr", "divrank", "divrank-prior", "random"),
            sweep=True,
            cluster_jobs=False,
        ),
        Workload(
            name="cluster-large",
            specs=(SetSpec("c200", 200, 4), SetSpec("c250", 250, 5), SetSpec("c300", 300, 6)),
            golden_specs=(SetSpec("g0", 120, 4),),
            methods=("c-lexrank", "c-rr"),
            sweep=False,
            cluster_jobs=True,
        ),
        Workload(
            name="rank-large",
            specs=(SetSpec("r1000", 1000, 8),),
            golden_specs=(SetSpec("g0", 200, 5),),
            methods=("lexrank", "mmr", "divrank", "divrank-prior", "random"),
            sweep=False,
            cluster_jobs=False,
        ),
    )
}

WARMUP_SPEC = SetSpec("w0", 30, 3)


def _summarize(s: GeneratedSet, idf: str, method: str, out: Path, sweep: bool) -> Job:
    out_dir = out / f"{s.name}.summarize.{method}"
    argv = [
        "summarize", "--in", s.paths["citations"], "--idf", idf, "--method", method,
        "--budget", BUDGET, "--annotations", s.paths["factoids"], "--out-dir", str(out_dir),
    ]
    if method in ("c-rr", "random"):
        argv += ["--seed", METHOD_SEED]
    if sweep and method == "random":
        argv += ["--trials", str(RANDOM_TRIALS)]
    if sweep and method in RANKING_METHODS:
        argv += ["--scores-out", str(out_dir / f"{s.name}.{method}.scores.tsv")]
    return Job(out_dir.name, s.name, "summarize", method, tuple(argv), str(out_dir))


def _evaluations(s: GeneratedSet, summaries: list[Job], out: Path) -> list[Job]:
    jsons = []
    for job in summaries:
        stem = f"{s.name}.{job.method}.{BUDGET}"
        if job.method == "random":
            jsons += [f"{job.out_dir}/{stem}.t{t:03d}.json" for t in range(RANDOM_TRIALS)]
        else:
            jsons.append(f"{job.out_dir}/{stem}.json")
    candidate = next(f"{j.out_dir}/{s.name}.c-lexrank.{BUDGET}.txt" for j in summaries if j.method == "c-lexrank")
    references = [s.paths[f"ref{r}"] for r in range(1, 5)]
    variants = {
        "pyramid": [
            "--summary", *jsons, "--citations", s.paths["citations"],
            "--annotations", s.paths["factoids"],
        ],
        "rouge": ["--jackknife", "--candidate", candidate, "--references", *references],
        "kappa": [
            "--citations", s.paths["citations"],
            "--spans-a", s.paths["spans_a"], "--spans-b", s.paths["spans_b"],
        ],
    }
    jobs = []
    for metric, args in variants.items():
        out_dir = out / f"{s.name}.evaluate.{metric}"
        argv = ("evaluate", "--metric", metric, "--out", str(out_dir / metric), *args)
        jobs.append(Job(out_dir.name, s.name, "evaluate", metric, argv, str(out_dir)))
    return jobs


def build_jobs(workload: Workload, sets: list[GeneratedSet], idf: str, out: Path) -> list[Job]:
    """Every job of one pass over the workload, in the order they run."""
    jobs: list[Job] = []
    for s in sets:
        summaries = [_summarize(s, idf, m, out, workload.sweep) for m in workload.methods]
        jobs += summaries
        if workload.sweep:
            jobs += _evaluations(s, summaries, out)
        if workload.cluster_jobs:
            cluster_dir = out / f"{s.name}.cluster"
            jobs.append(Job(
                cluster_dir.name, s.name, "cluster", "",
                ("cluster", "--in", s.paths["citations"], "--idf", idf,
                 "--out", str(cluster_dir / f"{s.name}.clusters.tsv")),
                str(cluster_dir),
            ))
            stats_dir = out / f"{s.name}.graph-stats"
            jobs.append(Job(
                stats_dir.name, s.name, "graph-stats", "",
                ("graph-stats", "--in", s.paths["citations"], "--idf", idf,
                 "--dot", str(stats_dir / f"{s.name}.dot")),
                str(stats_dir),
            ))
    return jobs
