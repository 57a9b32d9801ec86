"""Benchmark of the citesum CLI on seeded citation corpora.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one fresh process each

Workloads (see BENCHMARK.json for why each exists):
  sweep-small    40 sets of 10-80 sentences; all seven summarize methods, then
                 pyramid, ROUGE (jackknife) and kappa evaluations per set.
  cluster-large  sets of 200, 250 and 300 sentences; c-lexrank, c-rr, cluster
                 and graph-stats --dot.
  rank-large     one set of 1000 sentences; lexrank, mmr, divrank,
                 divrank-prior and random.

Each job is one ``citesum`` invocation, run in-process through
``citesum.cli.main(argv)``, in a closed loop with one client: the next job
starts when the previous one returns.  The program sees only the generated
files.  The loop repeats passes over the workload's job list, each pass into
fresh output directories, and stops at the first job boundary after both one
whole pass is done and ``--seconds`` of job time have passed.  Set-up, output
checks and digests happen between jobs and are not timed.

--trace 0 prints the end-to-end metrics:
  setup_s      import of citesum, plus the median of five set-ups (corpus
               generation, input files written, one warm-up job on a small set)
  jobs_per_s   jobs in one pass over the sum of each job's mean wall time
  job_p50_ms   median over the pass's jobs of each job's median wall time
  peak_rss_mb  ru_maxrss of this process after the timed loop
  ok_frac      jobs that succeeded over jobs attempted
  pyramid_mean mean pyramid score over every report row of one pass
--trace 1 runs exactly one pass, each job once traced and once untraced (the
order alternates), and prints per-layer metrics per pass, so counts repeat
exactly.  See tracing.py for the spans.

A job fails on a non-zero exit, an exception, or an output digest (SHA-256
over stdout and every file the job wrote except the wall-clock manifests)
that differs from the digest of the same job earlier in the run.  After the
loop, small corpora from a fixed seed run through the same job templates and
their digests must equal expected_digests.json; every CNM result must satisfy
Q == modularity(assignment) to 1e-12; every summary must fit its budget; every
pyramid score must lie in [0, 1].  Details, the environment and, for traced
runs, every span go to .bench_work/results/.  The last stdout line is the
result as JSON.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported: thread count changes both speed
# and summation order.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = Path(".bench_work")
GOLDEN_SEED = 0
SETUP_REPEATS = 5
Q_TOLERANCE = 1e-12

sys.path.insert(0, str(BENCH))
from corpus_gen import write_corpus  # noqa: E402
from workloads import RANKING_METHODS, WARMUP_SPEC, WORKLOADS, build_jobs  # noqa: E402


def import_citesum():
    """Import the checkout's own package from src/, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import citesum.cli

    if not Path(citesum.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"citesum imported from {citesum.cli.__file__}, not from this checkout")
    return citesum.cli


class CnmRecorder:
    """Keeps each cluster_cnm call's graph and result until the harness checks them."""

    def __init__(self, cli):
        import citesum.summarize

        self.pending: list[tuple] = []
        for module in (cli, citesum.summarize):
            module.cluster_cnm = self._wrap(module.cluster_cnm)

    def _wrap(self, original):
        def recorded(g, *args, **kwargs):
            result = original(g, *args, **kwargs)
            self.pending.append((g, result))
            return result

        return recorded


def job_digest(job, stdout: str) -> str:
    """SHA-256 over stdout and every file the job wrote, except manifests.

    Paths under the job's directory are printed relative to it, so the same
    job run in another pass's directory has the same digest.
    """
    digest = hashlib.sha256(stdout.replace(job.out_dir, "<out>").encode("utf-8"))
    for path in sorted(Path(job.out_dir).rglob("*")):
        if path.is_file() and not path.name.endswith(".manifest.json"):
            digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


class Harness:
    """Runs jobs through the CLI and checks each one outside its timed region."""

    def __init__(self, cli, keep_graphs: bool = False):
        from citesum.community import modularity

        self.cli = cli
        self.modularity = modularity
        self.recorder = CnmRecorder(cli)
        self.keep_graphs = keep_graphs
        self.graphs: dict[str, object] = {}  # set -> similarity graph, for the yardstick
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cnm_checked = 0
        self.pyramid_rows: list[float] = []

    def execute(self, job, tracer=None) -> tuple[int | None, float, str, str]:
        """Run one job; returns (exit code, wall seconds, stdout, error text)."""
        out, err = io.StringIO(), io.StringIO()
        code, error = None, ""
        if tracer:
            tracer.install()
            tracer.begin_job(job)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing job is a failed job; the sweep goes on
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        if tracer:
            tracer.end_job()
            tracer.uninstall()
        return code, wall, out.getvalue(), (err.getvalue() + error).strip()

    def run(self, job, expected: str | None, tracer=None, inspect: bool = False) -> tuple[bool, float, str]:
        """Execute one job, then check it; ``inspect`` also checks its output files.

        Returns (passed, wall seconds, digest).
        """
        self.attempted += 1
        problems = []
        code, wall, stdout, error = self.execute(job, tracer)
        digest = job_digest(job, stdout)
        if code != 0:
            problems.append(f"exit {code}: {error}")
        elif expected is not None and digest != expected:
            problems.append(f"digest {digest[:16]} differs from {expected[:16]}")
        elif inspect:
            problems += self._inspect(job)
        for g, clustering in self.recorder.pending:
            self.cnm_checked += 1
            gap = abs(clustering.q - self.modularity(g, clustering.assignment))
            if not gap <= Q_TOLERANCE:
                problems.append(f"CNM q={clustering.q!r} is {gap:.3g} away from modularity")
            if self.keep_graphs:
                self.graphs.setdefault(job.set_name, g)
        self.recorder.pending.clear()
        if problems:
            self.failed += 1
            self.failures += [f"{job.name}: {p}" for p in problems]
        return not problems, wall, digest

    def _inspect(self, job) -> list[str]:
        """Budgets, sentence ids and pyramid range; keeps the pyramid column."""
        problems = []
        for path in sorted(Path(job.out_dir).rglob("*")):
            if not path.is_file() or path.name.endswith(".manifest.json"):
                continue
            if job.command == "summarize" and path.suffix == ".json":
                summary = json.loads(path.read_text(encoding="utf-8"))
                ids = [e["id"] for e in summary["entries"]]
                words = sum(e["words"] for e in summary["entries"])
                if len(set(ids)) != len(ids) or words != summary["total_words"] or words > summary["budget"]:
                    problems.append(f"{path.name}: summary overruns its budget or repeats a sentence")
            if path.suffix == ".tsv":
                lines = path.read_text(encoding="utf-8").splitlines()
                if lines and lines[0].startswith("method\tbudget\tpyramid\t"):
                    rows = [float(r.split("\t")[2]) for r in lines[1:] if r and not r.startswith("#")]
                    if any(not 0.0 <= p <= 1.0 for p in rows):
                        problems.append(f"{path.name}: pyramid score outside [0, 1]")
                    self.pyramid_rows += rows
        return problems


def set_up(workload, seed: int, harness: Harness):
    """Generate the corpus, write its files and run one warm-up job; returns (idf, sets)."""
    base = WORK / workload.name
    idf, sets = write_corpus(seed, workload.name, list(workload.specs), base / "in")
    warm_idf, warm_sets = write_corpus(seed, f"{workload.name}-warmup", [WARMUP_SPEC], base / "warmup")
    warmup = build_jobs(workload, warm_sets, warm_idf, base / "warmup-out")[0]
    code, _, _, error = harness.execute(warmup)
    harness.recorder.pending.clear()
    if code != 0:
        raise RuntimeError(f"warm-up job {warmup.name} failed: exit {code}: {error}")
    return idf, sets


def golden_jobs(workload):
    base = WORK / workload.name / "golden"
    shutil.rmtree(base, ignore_errors=True)
    idf, sets = write_corpus(GOLDEN_SEED, f"{workload.name}-golden", list(workload.golden_specs), base / "in")
    return build_jobs(workload, sets, idf, base / "out")


def golden_check(workload, harness: Harness) -> None:
    """The job templates on a fixed-seed corpus must reproduce the recorded digests."""
    expected = json.loads((BENCH / "expected_digests.json").read_text())[workload.name]
    jobs = golden_jobs(workload)
    if sorted(expected) != sorted(job.name for job in jobs):
        harness.failed += 1
        harness.failures.append(f"golden: recorded jobs differ from {workload.name}'s job list")
    for job in jobs:
        harness.run(job, expected.get(job.name, "missing"), inspect=True)


def record_digests(workload, harness: Harness) -> None:
    path = BENCH / "expected_digests.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    recorded[workload.name] = {}
    for job in golden_jobs(workload):
        passed, _, digest = harness.run(job, None)
        if not passed:
            raise RuntimeError(f"golden job failed: {harness.failures[-1]}")
        recorded[workload.name][job.name] = digest
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def timed_loop(pass_jobs, harness: Harness, seconds: float) -> dict[str, list[float]]:
    """Closed loop, one client; returns each job's wall times.

    ``pass_jobs(k)`` gives the jobs of pass k.  Every pass writes into fresh
    directories: replacing a file by rename costs more than creating it on
    some file systems (ext4 flushes the new data first), and passes that
    differed in this would not be comparable.
    """
    jobs = pass_jobs(0)
    walls: dict[str, list[float]] = {job.name: [] for job in jobs}
    digests: dict[str, str] = {}
    elapsed, i = 0.0, 0
    while i < len(jobs) or elapsed < seconds:
        k, j = divmod(i, len(jobs))
        if j == 0 and k:
            jobs = pass_jobs(k)
        job = jobs[j]
        passed, wall, digest = harness.run(job, digests.get(job.name), inspect=k == 0)
        digests.setdefault(job.name, digest)
        if passed:
            walls[job.name].append(wall)
        elapsed += wall
        i += 1
    return walls


def traced_pass(pass_jobs, harness: Harness, tracer) -> float:
    """Each job once traced and once not, alternating which goes first; returns the overhead.

    The two runs of a job write into separate directories, as in timed_loop.
    """
    traced_s = plain_s = 0.0
    for k, (traced_job, plain_job) in enumerate(zip(pass_jobs(0), pass_jobs(1))):
        runs = [(traced_job, tracer), (plain_job, None)]
        digest = None
        for job, job_tracer in runs if k % 2 == 0 else runs[::-1]:
            _, wall, got = harness.run(job, digest, job_tracer, inspect=digest is None)
            digest = digest or got
            if job_tracer:
                traced_s += wall
            else:
                plain_s += wall
    return traced_s / plain_s - 1.0


def networkx_yardstick(graphs: dict, tracer) -> dict:
    """networkx's greedy modularity and average shortest path on the same graphs (not gated)."""
    try:
        import networkx as nx
    except ImportError:
        return {"networkx": None}
    from citesum.corpus import RunConfig

    threshold = RunConfig().lexrank_edge_threshold
    spans: dict[tuple[str, str], list[float]] = {}
    for name, start, end, _, job_name in tracer.spans:
        spans.setdefault((job_name.split(".")[0], name), []).append(end - start)
    out = {"networkx": nx.__version__}
    for set_name, g in graphs.items():
        weighted = nx.from_numpy_array(g.weights)
        start = time.perf_counter()
        communities = nx.community.greedy_modularity_communities(weighted, weight="weight")
        cnm_s = time.perf_counter() - start
        binary = nx.from_numpy_array(g.binarize(threshold).astype(int))
        start = time.perf_counter()
        for _ in nx.all_pairs_shortest_path_length(binary):  # what citesum's BFS computes
            pass
        asp_s = time.perf_counter() - start
        out[set_name] = {
            "n": len(g),
            "networkx_cnm_s": cnm_s,
            "networkx_communities": len(communities),
            "networkx_asp_s": asp_s,
            "citesum_cnm_s": statistics.median(spans.get((set_name, "community.cnm"), [float("nan")])),
            "citesum_asp_s": statistics.median(spans.get((set_name, "graph.asp"), [float("nan")])),
        }
    return out


def run_workload(args) -> int:
    t0 = time.perf_counter()
    try:
        cli = import_citesum()
    except ImportError as exc:
        print(f"error: cannot import citesum from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    import tracing

    workload = WORKLOADS[args.workload]
    harness = Harness(cli, keep_graphs=bool(args.trace) and workload.cluster_jobs)
    if args.record_digests:
        record_digests(workload, harness)
        print(f"recorded {harness.attempted} golden digests for {workload.name}")
        return 0

    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        shutil.rmtree(WORK / workload.name, ignore_errors=True)
        os.sync()  # start each set-up, and the timed loop, with no earlier writes in flight
        start = time.perf_counter()
        idf, sets = set_up(workload, args.seed, harness)
        setups.append(time.perf_counter() - start)

    def pass_jobs(k: int):
        return build_jobs(workload, sets, idf, WORK / workload.name / f"out{k}")

    jobs = pass_jobs(0)
    result: dict = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": environment(), "jobs_per_pass": len(jobs)}

    if args.trace:
        tracer = tracing.Tracer()
        overhead = traced_pass(pass_jobs, harness, tracer)
        ranking = sum(job.command == "summarize" and job.method in RANKING_METHODS for job in jobs)
        metrics = tracing.layer_metrics(tracer, {s.name: s.gold for s in sets}, ranking)
        metrics["trace.overhead_frac"] = overhead
        if harness.keep_graphs:
            result["yardstick"] = networkx_yardstick(harness.graphs, tracer)
        result["spans"] = tracer.spans
        golden_check(workload, harness)
    else:
        os.sync()
        walls = timed_loop(pass_jobs, harness, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        pyramid = list(harness.pyramid_rows)
        golden_check(workload, harness)
        per_job = [w for w in walls.values() if w]
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "jobs_per_s": len(per_job) / sum(statistics.fmean(w) for w in per_job) if per_job else 0.0,
            "job_p50_ms": 1000 * statistics.median(statistics.median(w) for w in per_job) if per_job else 0.0,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (harness.attempted - harness.failed) / harness.attempted,
            "pyramid_mean": statistics.fmean(pyramid) if pyramid else 0.0,
        }
        result.update(import_s=import_s, setup_repeats_s=setups,
                      executions=sum(len(w) for w in walls.values()), walls=walls,
                      pyramid_rows=len(pyramid))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    result.update(attempted=harness.attempted, failed=harness.failed, failures=harness.failures,
                  cnm_checked=harness.cnm_checked, metrics=metrics)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out_path = results_dir / f"{workload.name}.seed{args.seed}.trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, default=str) + "\n")

    for name, value in metrics.items():
        print(f"{workload.name:<14} {name:<30} {value:>14.6g} {units[name]}")
    if not args.trace:
        print(f"{workload.name:<14} samples: {result['executions']} executions of {len(jobs)} jobs, "
              f"{len(pyramid)} pyramid rows, {harness.cnm_checked} CNM results checked")
    for line in harness.failures[:10]:
        print(f"FAILED {line}")
    print(f"environment: {json.dumps(result['environment'])}")
    if "yardstick" in result:
        print(f"networkx yardstick (not gated): {json.dumps(result['yardstick'])}")
    print(f"details: {out_path}")
    print(json.dumps({
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        blas = "unknown"
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(child.stderr, file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite this workload's entry in expected_digests.json")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
