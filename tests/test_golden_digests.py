"""The benchmark's golden jobs reproduce their recorded output digests.

``bench/run.py`` runs each workload's job templates on a small fixed-seed
corpus and compares the SHA-256 of every job's stdout and files with
``bench/expected_digests.json``.  Running that check here, in-process, puts
byte-identical CLI output under test on every supported Python.  The
harness wraps ``cluster_cnm`` in ``citesum.cli`` and ``citesum.summarize``
to check each Q; monkeypatch restores both names afterwards.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import citesum.cli
import citesum.summarize

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture()
def bench_run(monkeypatch, tmp_path):
    """``bench/run.py`` as a module, with the environment and paths it sets restored afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py pins them on import; numpy is loaded already
    monkeypatch.syspath_prepend(str(BENCH))
    for module in (citesum.cli, citesum.summarize):
        monkeypatch.setattr(module, "cluster_cnm", module.cluster_cnm)
    monkeypatch.chdir(tmp_path)  # golden corpora and outputs go under .bench_work/
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_jobs_match_recorded_digests(bench_run, workload):
    harness = bench_run.Harness(citesum.cli)
    bench_run.golden_check(bench_run.WORKLOADS[workload], harness)
    assert harness.attempted > 0
    assert harness.failures == []
    assert harness.failed == 0
