"""Command-line behavior: exit codes, file outputs, error mapping."""

import argparse
import hashlib
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from citesum import cli
from citesum.cli import main
from citesum.corpus import load_citation_set, load_idf_table
from citesum.evaluate import EvalReport
from citesum.lexical import TokenizerConfig
from citesum.plan import METRIC_INPUTS, Plan, Summaries, make_plan


@pytest.fixture()
def paths(fixture_paths):
    return {k: str(v) for k, v in fixture_paths.items()}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSummarize:
    def test_writes_summary_files_and_manifest(self, paths, tmp_path, capsys):
        code, out, _ = run(
            [
                "summarize",
                "--in", paths["citations"],
                "--idf", paths["idf"],
                "--method", "c-lexrank",
                "--budget", "100",
                "--out-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        txt = tmp_path / "w05-0622.c-lexrank.100.txt"
        js = tmp_path / "w05-0622.c-lexrank.100.json"
        manifest = tmp_path / "w05-0622.c-lexrank.100.manifest.json"
        assert txt.exists() and js.exists() and manifest.exists()
        assert str(manifest) in out
        payload = json.loads(js.read_text())
        assert payload["budget"] == 100
        assert payload["total_words"] <= 100
        info = json.loads(manifest.read_text())
        assert info["version"]
        assert set(info["timings"]) == {"load", "graph", "summarize", "evaluate", "write"}
        assert paths["citations"] in info["inputs"]

    def test_budget_zero_is_usage_error(self, paths, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["summarize", "--in", paths["citations"], "--method", "lexrank",
                 "--budget", "0", "--out-dir", str(tmp_path)]
            )
        assert exc.value.code == 2

    def test_unknown_method_is_usage_error(self, paths, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["summarize", "--in", paths["citations"], "--method", "frobnicate",
                 "--budget", "100"]
            )
        assert exc.value.code == 2

    def test_stochastic_methods_require_seed(self, paths, capsys):
        for method in ("random", "c-rr"):
            with pytest.raises(SystemExit) as exc:
                main(["summarize", "--in", paths["citations"], "--method", method,
                      "--budget", "100"])
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "method", ["c-lexrank", "c-rr", "lexrank", "mmr", "divrank", "divrank-prior", "random"]
    )
    def test_which_methods_need_a_seed_and_give_scores(self, method, paths, tmp_path, capsys):
        def exit_code(*extra):
            argv = ["summarize", "--in", paths["citations"], "--method", method,
                    "--budget", "20", "--out-dir", str(tmp_path), *extra]
            try:
                return main(argv)
            except SystemExit as exc:
                return exc.code

        assert exit_code() == (2 if method in ("c-rr", "random") else 0)
        scores = exit_code("--seed", "1", "--scores-out", str(tmp_path / "scores.tsv"))
        assert scores == (0 if method in ("lexrank", "divrank", "divrank-prior") else 2)

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code, _, err = run(
            ["summarize", "--in", str(tmp_path / "nope.jsonl"), "--method", "lexrank",
             "--budget", "100", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "error" in err

    def test_malformed_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        code, _, err = run(
            ["summarize", "--in", str(bad), "--method", "lexrank", "--budget", "100",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "malformed" in err

    def test_manifest_records_run_values_and_stopwords(self, paths, tmp_path, capsys):
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("the\nof\n", encoding="utf-8")
        code, out, _ = run(
            ["summarize", "--in", paths["citations"], "--method", "random",
             "--budget", "60", "--seed", "7", "--trials", "3",
             "--stopwords", str(stopwords), "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        info = json.loads((tmp_path / "w05-0622.random.60.manifest.json").read_text())
        assert (info["budget"], info["seed"], info["trials"]) == (60, 7, 3)
        assert set(info["inputs"]) == {paths["citations"], str(stopwords)}
        code, _, _ = run(
            ["summarize", "--in", paths["citations"], "--method", "lexrank",
             "--budget", "40", "--out-dir", str(tmp_path)],
            capsys,
        )
        info = json.loads((tmp_path / "w05-0622.lexrank.40.manifest.json").read_text())
        assert (info["budget"], info["seed"], info["trials"]) == (40, None, 1)

    def test_manifest_digests_every_input_once(self, paths, tmp_path, capsys, monkeypatch):
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("the\nof\n", encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text(f"stopword_path = {stopwords}\n", encoding="utf-8")
        digested = []
        digest = cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda data: digested.append(data) or digest(data))
        code, _, _ = run(
            ["summarize", "--in", paths["citations"], "--idf", paths["idf"], "--annotations", paths["factoids"],
             "--config", str(config), "--method", "lexrank", "--budget", "40", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        info = json.loads((tmp_path / "w05-0622.lexrank.40.manifest.json").read_text())
        names = [str(config), str(stopwords), paths["citations"], paths["idf"], paths["factoids"]]  # read order
        assert info["inputs"] == {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in names}
        assert digested == [Path(name).read_bytes() for name in names]

    def test_a_config_key_set_twice_is_a_data_error(self, paths, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("lexrank_damping = 0.5\nlexrank_damping = 0.7\n", encoding="utf-8")
        code, out, err = run(
            ["summarize", "--in", paths["citations"], "--config", str(config), "--method", "lexrank",
             "--budget", "40", "--out-dir", str(tmp_path / "out")],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == f"error: {config}:2: config key 'lexrank_damping' is set twice\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [".", "sub/", "stop.txt/"])
    def test_config_stopword_path_must_end_in_a_file_name(self, value, paths, tmp_path, capsys, monkeypatch):
        (tmp_path / "sub").mkdir()
        (tmp_path / "stop.txt").write_text("the\n", encoding="utf-8")
        (tmp_path / "run.cfg").write_text(f"# stopwords\nstopword_path = {value}\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            ["summarize", "--in", paths["citations"], "--config", "run.cfg", "--method", "lexrank",
             "--budget", "40", "--out-dir", "out"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == f"error: run.cfg:2: bad value {value!r} for stopword_path: it must end in a file name\n"
        assert not (tmp_path / "out").exists()

    def test_manifest_digests_the_bytes_the_run_read(self, paths, tmp_path, capsys, monkeypatch):
        # The IDF file is rewritten after it is loaded and before the manifest
        # is written; the manifest names the table the run used.
        idf = tmp_path / "idf.tsv"
        original = Path(paths["idf"]).read_bytes()
        idf.write_bytes(original)
        load = cli.load_idf_table

        def load_then_rewrite(*args, **kwargs):
            table = load(*args, **kwargs)
            idf.write_bytes(original + b"late\t1.0\n")
            return table

        monkeypatch.setattr(cli, "load_idf_table", load_then_rewrite)
        code, _, _ = run(
            ["summarize", "--in", paths["citations"], "--idf", str(idf), "--method", "lexrank",
             "--budget", "40", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        info = json.loads((tmp_path / "w05-0622.lexrank.40.manifest.json").read_text())
        assert info["inputs"][str(idf)] == hashlib.sha256(original).hexdigest()

    @pytest.mark.parametrize("method", list(cli.SUMMARIZERS))
    def test_only_methods_that_read_the_graph_build_it(self, method, paths, tmp_path, capsys, monkeypatch):
        builds = []
        build = cli.build_citation_summary_network
        monkeypatch.setattr(cli, "build_citation_summary_network", lambda *a: builds.append(1) or build(*a))
        code, _, _ = run(
            ["summarize", "--in", paths["citations"], "--idf", paths["idf"], "--method", method,
             "--budget", "30", "--seed", "1", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert len(builds) == (0 if method == "random" else 1) == int(cli.SUMMARIZERS[method].reads_graph)

    @pytest.mark.parametrize("flag", ["--idf", "--stopwords"])
    def test_random_still_reads_idf_and_stopwords(self, flag, paths, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("term\tnot-a-number\n", encoding="utf-8")
        argv = ["summarize", "--in", paths["citations"], "--method", "random", "--budget", "30",
                "--seed", "1", "--out-dir", str(tmp_path / "out")]
        code, _, err = run(argv + [flag, str(bad if flag == "--idf" else tmp_path / "missing.txt")], capsys)
        assert code == 1 and "error" in err
        assert not (tmp_path / "out").exists()
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("the\n", encoding="utf-8")
        good = paths["idf"] if flag == "--idf" else str(stopwords)
        code, out, _ = run(argv + [flag, good], capsys)
        assert code == 0
        assert good in json.loads(Path(out.strip()).read_text())["inputs"]

    @pytest.mark.parametrize("beta", ["1000", "-400"])
    def test_divrank_beta_without_a_length_prior_is_data_error(self, beta, paths, tmp_path, capsys):
        code, _, err = run(
            ["summarize", "--in", paths["citations"], "--method", "divrank-prior", "--budget", "50",
             "--divrank-beta", beta, "--out-dir", str(tmp_path / "out")],
            capsys,
        )
        assert code == 1
        assert f"divrank_beta = {float(beta)!r}" in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_config_float_is_data_error(self, paths, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("divrank_beta = nan\n", encoding="utf-8")
        code, _, err = run(
            ["summarize", "--in", paths["citations"], "--method", "divrank-prior",
             "--budget", "100", "--config", str(cfg), "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "run.cfg:1:" in err and "finite" in err
        assert not list(tmp_path.glob("*.txt"))

    def test_non_string_text_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "null.jsonl"
        bad.write_text('{"id": "a", "text": null}\n', encoding="utf-8")
        code, _, err = run(
            ["summarize", "--in", str(bad), "--method", "lexrank", "--budget", "100",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "null.jsonl:1:" in err
        assert not list(tmp_path.glob("*.txt"))

    def test_random_trials_with_mean_pyramid(self, paths, tmp_path, capsys):
        code, _, _ = run(
            ["summarize", "--in", paths["citations"], "--method", "random",
             "--budget", "100", "--seed", "7", "--trials", "5",
             "--annotations", paths["factoids"], "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        trial_files = sorted(tmp_path.glob("w05-0622.random.100.t*.txt"))
        assert len(trial_files) == 5
        report = (tmp_path / "w05-0622.random.100.report.tsv").read_text()
        assert report.count("\nrandom\t") == 5
        assert "# mean_pyramid=" in report

    def test_mean_pyramid_adds_left_to_right(self, paths, tmp_path, capsys, monkeypatch):
        import citesum.cli as cli

        # The double 0.1234565 lies just below the six-decimal boundary, and the
        # next double up prints as 0.123457.  With plain adds the four scores
        # total 4 * 0.1234565; their exact sum, which compensated summation
        # (sum() since Python 3.12, or math.fsum) returns, is one ulp higher.
        top = 4 * 0.1234565
        tiny = 0.4 * math.ulp(top)
        scores = iter([top, tiny, tiny, 0.0])
        monkeypatch.setattr(
            cli, "pyramid_score",
            lambda summary, ann, pyr: EvalReport("random", 20, next(scores), 0, 0, 0),
        )
        code, _, _ = run(
            ["summarize", "--in", paths["citations"], "--method", "random", "--budget", "20",
             "--seed", "1", "--trials", "4", "--annotations", paths["factoids"],
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        report = (tmp_path / "w05-0622.random.20.report.tsv").read_text()
        assert report.endswith("# mean_pyramid=0.123456\n")

    def test_repeated_idf_term_is_data_error(self, paths, tmp_path, capsys):
        idf = tmp_path / "idf.tsv"
        idf.write_text("parsing\t2.0\nparsing\t3.0\n", encoding="utf-8")
        code, _, err = run(
            ["summarize", "--in", paths["citations"], "--idf", str(idf), "--method", "lexrank",
             "--budget", "20", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "idf.tsv:2: repeated idf term 'parsing'" in err

    def test_every_method_runs(self, paths, tmp_path, capsys):
        for method in ("c-lexrank", "c-rr", "lexrank", "mmr", "divrank", "divrank-prior", "random"):
            code, _, _ = run(
                ["summarize", "--in", paths["citations"], "--idf", paths["idf"],
                 "--method", method, "--budget", "50", "--seed", "3",
                 "--out-dir", str(tmp_path / method)],
                capsys,
            )
            assert code == 0, method
            assert (tmp_path / method / f"w05-0622.{method}.50.txt").exists()

    def test_scores_out_for_ranking_methods(self, paths, tmp_path, capsys):
        scores_path = tmp_path / "scores.tsv"
        code, _, _ = run(
            ["summarize", "--in", paths["citations"], "--idf", paths["idf"],
             "--method", "lexrank", "--budget", "100",
             "--out-dir", str(tmp_path), "--scores-out", str(scores_path)],
            capsys,
        )
        assert code == 0
        rows = scores_path.read_text().strip().splitlines()
        assert len(rows) == 9
        with pytest.raises(SystemExit):
            main(["summarize", "--in", paths["citations"], "--method", "mmr",
                  "--budget", "100", "--out-dir", str(tmp_path),
                  "--scores-out", str(scores_path)])

    @pytest.mark.parametrize("target", ["{out}/w05-0622.lexrank.30.txt", "{out}/w05-0622.lexrank.30.manifest.json",
                                        "{out}/../out/w05-0622.lexrank.30.json", "{citations}"])
    def test_scores_out_may_not_name_another_file_of_the_run(self, target, paths, tmp_path, capsys, monkeypatch):
        citations = tmp_path / "w05-0622.jsonl"  # a copy: the run must not overwrite it, nor the fixture
        citations.write_bytes(Path(paths["citations"]).read_bytes())
        read = []
        monkeypatch.setattr(cli._Run, "_read", lambda run, path: read.append(path))
        out_dir = tmp_path / "out"
        scores = target.format(out=out_dir, citations=citations)
        with pytest.raises(SystemExit) as exc:
            main(["summarize", "--in", str(citations), "--method", "lexrank", "--budget", "30",
                  "--out-dir", str(out_dir), "--scores-out", scores])
        assert exc.value.code == 2
        assert f"--scores-out {scores!r} names another file of the run" in capsys.readouterr().err
        assert (read, out_dir.exists()) == ([], False)

    @pytest.mark.parametrize("method", ["lexrank", "divrank", "divrank-prior"])
    def test_scores_out_reuses_the_summary_solve(self, method, paths, tmp_path, capsys, monkeypatch):
        import citesum.cli as cli

        solves = []

        def counted(solver):
            def call(*args, **kwargs):
                solves.append(solver.__name__)
                return solver(*args, **kwargs)

            return call

        monkeypatch.setattr(cli, "lexrank", counted(cli.lexrank))
        monkeypatch.setattr(cli, "divrank", counted(cli.divrank))
        scores_path = tmp_path / "scores.tsv"
        code, _, _ = run(
            ["summarize", "--in", paths["citations"], "--idf", paths["idf"],
             "--method", method, "--budget", "100",
             "--out-dir", str(tmp_path), "--scores-out", str(scores_path)],
            capsys,
        )
        assert code == 0
        assert len(solves) == 1
        assert len(scores_path.read_text().strip().splitlines()) == 9

    @pytest.mark.parametrize("method", ["lexrank", "divrank", "divrank-prior"])
    def test_unconverged_walk_is_reported_and_still_written(self, method, paths, tmp_path, capsys, monkeypatch):
        argv = ["summarize", "--in", paths["citations"], "--idf", paths["idf"], "--method", method,
                "--budget", "100", "--scores-out", str(tmp_path / "scores.tsv")]
        code, _, err = run([*argv, "--out-dir", str(tmp_path / "default")], capsys)
        assert (code, err) == (0, "")
        monkeypatch.setattr("citesum.rank.MAX_ITERATIONS", 2)
        out_dir = tmp_path / "capped"
        code, out, err = run([*argv, "--out-dir", str(out_dir)], capsys)
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"warning: {method} did not converge: stopped after 2 iterations at residual ")
        assert float(lines[0].rsplit(" ", 1)[1]) >= 1e-8
        name = f"w05-0622.{method}.100"
        assert out == f"{out_dir / name}.manifest.json\n"
        assert sorted(f.name for f in out_dir.iterdir()) == [f"{name}.json", f"{name}.manifest.json", f"{name}.txt"]
        assert len((tmp_path / "scores.tsv").read_text().splitlines()) == 9

    def test_id_padded_with_spaces_is_data_error(self, paths, tmp_path, capsys):
        cs, factoids = tmp_path / "padded.jsonl", tmp_path / "factoids.tsv"
        cs.write_text(
            json.dumps({"id": "s1", "text": "one two"}) + "\n" + json.dumps({"id": " s1", "text": "three"}) + "\n",
            encoding="utf-8",
        )
        factoids.write_text(" s1\tf1\n", encoding="utf-8")
        code, _, err = run(
            ["summarize", "--in", str(cs), "--method", "lexrank", "--budget", "5",
             "--annotations", str(factoids), "--out-dir", str(tmp_path / "out")],
            capsys,
        )
        assert code == 1
        assert f"{cs}:2: sentence id ' s1' is empty or starts or ends with whitespace" in err
        assert not (tmp_path / "out").exists()


class TestEvaluate:
    def test_pyramid_report(self, paths, tmp_path, capsys):
        run(
            ["summarize", "--in", paths["citations"], "--idf", paths["idf"],
             "--method", "c-lexrank", "--budget", "100", "--out-dir", str(tmp_path)],
            capsys,
        )
        code, out, _ = run(
            ["evaluate", "--metric", "pyramid",
             "--summary", str(tmp_path / "w05-0622.c-lexrank.100.json"),
             "--citations", paths["citations"],
             "--annotations", paths["factoids"],
             "--out", str(tmp_path / "pyr")],
            capsys,
        )
        assert code == 0
        tsv = (tmp_path / "pyr.tsv").read_text()
        assert tsv.splitlines()[0].split("\t")[:3] == ["method", "budget", "pyramid"]
        detail = json.loads((tmp_path / "pyr.json").read_text())
        assert isinstance(detail, list) and len(detail) == 1
        assert {"D", "Max", "pyramid"} <= set(detail[0])

    def test_pyramid_matrix_over_methods(self, paths, tmp_path, capsys):
        summaries = []
        for method in ("c-lexrank", "lexrank", "mmr"):
            run(
                ["summarize", "--in", paths["citations"], "--idf", paths["idf"],
                 "--method", method, "--budget", "100", "--out-dir", str(tmp_path)],
                capsys,
            )
            summaries.append(str(tmp_path / f"w05-0622.{method}.100.json"))
        code, _, _ = run(
            ["evaluate", "--metric", "pyramid", "--summary", *summaries,
             "--citations", paths["citations"], "--annotations", paths["factoids"],
             "--out", str(tmp_path / "matrix")],
            capsys,
        )
        assert code == 0
        lines = (tmp_path / "matrix.tsv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + one row per method
        assert [line.split("\t")[0] for line in lines[1:]] == ["c-lexrank", "lexrank", "mmr"]

    def test_mismatched_ids_exit_one(self, paths, tmp_path, capsys):
        summary = tmp_path / "fake.json"
        summary.write_text(
            json.dumps(
                {
                    "method": "x",
                    "budget": 10,
                    "total_words": 1,
                    "entries": [
                        {"id": "sX", "text": "w", "words": 1, "truncated": False}
                    ],
                }
            ),
            encoding="utf-8",
        )
        code, _, err = run(
            ["evaluate", "--metric", "pyramid", "--summary", str(summary),
             "--citations", paths["citations"], "--annotations", paths["factoids"],
             "--out", str(tmp_path / "pyr")],
            capsys,
        )
        assert code == 1
        assert "sX" in err

    def test_a_summary_with_an_unknown_id_is_named(self, paths, tmp_path, capsys):
        code, _, _ = run(
            ["summarize", "--in", paths["citations"], "--method", "lexrank", "--budget", "40",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        good = tmp_path / "w05-0622.lexrank.40.json"
        bad = tmp_path / "bad.json"
        entry = {"id": "nope", "text": "w", "words": 1, "truncated": False, "source_doc": ""}
        bad.write_text(json.dumps({"method": "x", "budget": 10, "total_words": 1, "entries": [entry]}))
        code, out, err = run(
            ["evaluate", "--metric", "pyramid", "--summary", str(good), str(bad),
             "--citations", paths["citations"], "--annotations", paths["factoids"],
             "--out", str(tmp_path / "pyr")],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: summary sentence(s) missing from annotation: ['nope']\n"
        assert not (tmp_path / "pyr.tsv").exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"total_words": 2}, "summary total_words 2 is not the sum of the entries' words (3)"),
            ({"budget": 2}, "summary total_words 3 exceeds budget 2"),
            ({"budget": -1}, "summary budget -1 is negative"),
            ({"total_words": -3}, "summary total_words -3 is negative"),
            (
                {"total_words": 0, "entries": [
                    {"id": "s1", "text": "", "words": -1, "truncated": False, "source_doc": ""}
                ]},
                "summary entries[0].words -1 is negative",
            ),
            (
                {"total_words": 2, "entries": [
                    {"id": "s1", "text": "w w w", "words": 2, "truncated": True, "source_doc": ""}
                ]},
                "summary entries[0].words 2 is not the word count of its text (3)",
            ),
        ],
    )
    def test_pyramid_rejects_a_summary_that_breaks_a_rule(
        self, paths, tmp_path, capsys, change, message
    ):
        summary = tmp_path / "broken.json"
        entries = [
            {"id": "s1", "text": "w w", "words": 2, "truncated": False, "source_doc": ""},
            {"id": "s2", "text": "w", "words": 1, "truncated": True, "source_doc": ""},
        ]
        payload = {"method": "x", "budget": 10, "total_words": 3, "entries": entries, **change}
        summary.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(
            ["evaluate", "--metric", "pyramid", "--summary", str(summary),
             "--citations", paths["citations"], "--annotations", paths["factoids"],
             "--out", str(tmp_path / "pyr")],
            capsys,
        )
        assert code == 1
        assert f"{summary}: {message}" in err
        assert not (tmp_path / "pyr.tsv").exists()

    @pytest.mark.parametrize("field, value", [("truncated", "false"), ("words", 3.9)])
    def test_pyramid_rejects_a_coercible_summary_field(self, paths, tmp_path, capsys, field, value):
        summary = tmp_path / "typed.json"
        entry = {"id": "s1", "text": "w", "words": 1, "truncated": False, "source_doc": ""}
        entry[field] = value
        payload = {"method": "x", "budget": 10, "total_words": 1, "entries": [entry]}
        summary.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(
            ["evaluate", "--metric", "pyramid", "--summary", str(summary),
             "--citations", paths["citations"], "--annotations", paths["factoids"],
             "--out", str(tmp_path / "pyr")],
            capsys,
        )
        assert code == 1
        assert f"{summary}: summary field entries[0].{field} must be" in err
        assert not (tmp_path / "pyr.tsv").exists()

    def test_rouge_report(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        cand.write_text("the cat sat on the mat\n", encoding="utf-8")
        refs = []
        for i, text in enumerate(["the cat sat on a mat", "a dog sat on the mat"]):
            ref = tmp_path / f"ref{i}.txt"
            ref.write_text(text + "\n", encoding="utf-8")
            refs.append(str(ref))
        code, _, _ = run(
            ["evaluate", "--metric", "rouge", "--candidate", str(cand),
             "--references", *refs, "--jackknife", "--out", str(tmp_path / "rg")],
            capsys,
        )
        assert code == 0
        tsv = (tmp_path / "rg.tsv").read_text()
        assert "rouge_1\t0.750000" in tsv
        assert "rouge_2\t0.600000" in tsv

    def test_rouge_four_references_jackknifed(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        cand.write_text("alpha beta gamma delta\n", encoding="utf-8")
        refs = []
        texts = ["alpha beta gamma", "beta gamma delta", "alpha beta", "gamma delta epsilon"]
        for i, text in enumerate(texts):
            ref = tmp_path / f"jref{i}.txt"
            ref.write_text(text + "\n", encoding="utf-8")
            refs.append(str(ref))
        code, _, _ = run(
            ["evaluate", "--metric", "rouge", "--candidate", str(cand),
             "--references", *refs, "--jackknife", "--out", str(tmp_path / "rg4")],
            capsys,
        )
        assert code == 0
        payload = json.loads((tmp_path / "rg4.json").read_text())
        assert set(payload) == {"rouge_1", "rouge_2", "jackknife"}
        assert payload["jackknife"] is True
        assert 0.0 <= payload["rouge_2"] <= 1.0

    def test_out_prefix_keeps_its_dotted_part(self, tmp_path, capsys):
        cand, ref = tmp_path / "cand.txt", tmp_path / "ref.txt"
        cand.write_text("the cat sat\n", encoding="utf-8")
        ref.write_text("the cat sat down\n", encoding="utf-8")
        code, out, _ = run(
            ["evaluate", "--metric", "rouge", "--candidate", str(cand), "--references", str(ref),
             "--out", str(tmp_path / "run1.5")],
            capsys,
        )
        assert code == 0
        assert out.strip() == str(tmp_path / "run1.5.tsv")
        assert sorted(p.name for p in tmp_path.glob("run1*")) == ["run1.5.json", "run1.5.tsv"]

    @pytest.mark.parametrize("prefix", ["slash/", ".", "..", "sub/.", "sub/.."])
    def test_out_prefix_must_name_a_file(self, prefix, tmp_path, capsys, monkeypatch):
        inputs = tmp_path / "in"
        inputs.mkdir()
        (inputs / "cand.txt").write_text("the cat sat\n", encoding="utf-8")
        (inputs / "ref.txt").write_text("the cat sat down\n", encoding="utf-8")
        work = tmp_path / "work" / "cwd"
        (work / "slash").mkdir(parents=True)
        (work / "sub").mkdir()
        monkeypatch.chdir(work)
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--metric", "rouge", "--candidate", str(inputs / "cand.txt"),
                  "--references", str(inputs / "ref.txt"), "--out", prefix])
        assert exc.value.code == 2
        assert "must end in a file name, not a directory" in capsys.readouterr().err
        assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == [inputs / "cand.txt", inputs / "ref.txt"]

    def test_kappa_report_shape(self, paths, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("ann1\ts1\t0\t11\nann1\ts2\t5\t16\n", encoding="utf-8")
        b.write_text("ann2\ts1\t0\t11\nann2\ts2\t5\t16\n", encoding="utf-8")
        code, _, _ = run(
            ["evaluate", "--metric", "kappa", "--citations", paths["citations"],
             "--spans-a", str(a), "--spans-b", str(b), "--out", str(tmp_path / "kap")],
            capsys,
        )
        assert code == 0
        header, row = (tmp_path / "kap.tsv").read_text().strip().splitlines()
        assert header.split("\t") == ["pair", "unigram", "bigram", "trigram"]
        assert row.split("\t")[1:] == ["1.000000", "1.000000", "1.000000"]

    def test_missing_metric_args_usage_error(self, paths, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--metric", "pyramid"])
        assert exc.value.code == 2


class TestGraphStats:
    def test_stats_output(self, paths, tmp_path, capsys):
        code, out, _ = run(
            ["graph-stats", "--in", paths["citations"], "--idf", paths["idf"],
             "--dot", str(tmp_path / "g.dot")],
            capsys,
        )
        assert code == 0
        fields = dict(
            line.split("\t", 1) for line in out.strip().splitlines() if "\t" in line
        )
        assert fields["nodes"] == "9"
        assert int(fields["edges"]) > 0
        assert 0.0 <= float(fields["clustering_coefficient"]) <= 1.0
        assert int(fields["clusters"]) >= 2
        assert float(fields["modularity"]) > 0.0
        dot = (tmp_path / "g.dot").read_text()
        assert dot.startswith("graph ") and dot.rstrip().endswith("}")

    def test_dot_refuses_an_id_ending_in_a_backslash(self, tmp_path, capsys):
        citations = tmp_path / "c.jsonl"
        rows = [{"id": "s1", "text": "tree parse", "source_doc": "d"},
                {"id": "s2\\", "text": "tree crf", "source_doc": "d"}]
        citations.write_text("".join(json.dumps(row) + "\n" for row in rows))
        dot = tmp_path / "g.dot"
        code, out, err = run(["graph-stats", "--in", str(citations), "--dot", str(dot)], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: node id 's2\\\\' ends in a backslash, which DOT cannot quote"]
        assert not dot.exists()

    def test_single_sentence_caveat(self, tmp_path, capsys):
        single = tmp_path / "one.jsonl"
        single.write_text('{"id": "s1", "text": "only one", "source_doc": "d"}\n')
        code, out, _ = run(["graph-stats", "--in", str(single)], capsys)
        assert code == 0
        assert "caveat" in out
        assert "clustering_coefficient\t0.000000" in out


class TestCluster:
    def test_cluster_export(self, paths, tmp_path, capsys):
        out_path = tmp_path / "clusters.tsv"
        code, _, _ = run(
            ["cluster", "--in", paths["citations"], "--idf", paths["idf"],
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("# Q=")
        assert len(lines) == 10
        assert all("\t" in line for line in lines[1:])

    def test_duplicate_id_names_its_line(self, tmp_path, capsys):
        cs = tmp_path / "dup.jsonl"
        cs.write_text("".join(json.dumps({"id": sid, "text": "one two"}) + "\n" for sid in ("s1", "s2", "s1")))
        code, _, err = run(["cluster", "--in", str(cs), "--out", str(tmp_path / "clusters.tsv")], capsys)
        assert code == 1
        assert err == f"error: {cs}:3: duplicate sentence id 's1'\n"
        assert not (tmp_path / "clusters.tsv").exists()

    def test_id_with_a_tab_is_data_error(self, tmp_path, capsys):
        cs = tmp_path / "tab.jsonl"
        cs.write_text(
            json.dumps({"id": "a\tb", "text": "one two"}) + "\n" + json.dumps({"id": "c", "text": "two"}) + "\n",
            encoding="utf-8",
        )
        code, _, err = run(["cluster", "--in", str(cs), "--out", str(tmp_path / "clusters.tsv")], capsys)
        assert code == 1
        assert f"{cs}:1: sentence id 'a\\tb'" in err
        assert not (tmp_path / "clusters.tsv").exists()


class TestTokenizerReachesGraph:
    """--stopwords and the config's tokenizer keys change what the graph is built from."""

    def outputs(self, paths, out_dir, capsys, *extra):
        out_dir.mkdir()
        run(["summarize", "--in", paths["citations"], "--method", "c-lexrank",
             "--budget", "60", "--out-dir", str(out_dir), *extra],
            capsys)
        run(["cluster", "--in", paths["citations"], "--out", str(out_dir / "clusters.tsv"), *extra],
            capsys)
        return {
            name: (out_dir / name).read_bytes()
            for name in ("w05-0622.c-lexrank.60.txt", "w05-0622.c-lexrank.60.json", "clusters.tsv")
        }

    def test_stopwords_and_lowercase_change_summary_and_clusters(self, paths, tmp_path, capsys):
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("the\nof\nand\na\nto\nin\nfor\n", encoding="utf-8")
        keep_case = tmp_path / "case.cfg"
        keep_case.write_text("lowercase = false\n", encoding="utf-8")
        plain = self.outputs(paths, tmp_path / "plain", capsys)
        assert plain == self.outputs(paths, tmp_path / "again", capsys)
        for name, extra in (("stop", ("--stopwords", str(stopwords))),
                            ("case", ("--config", str(keep_case)))):
            changed = self.outputs(paths, tmp_path / name, capsys, *extra)
            assert changed["w05-0622.c-lexrank.60.txt"] != plain["w05-0622.c-lexrank.60.txt"], name
            assert changed["clusters.tsv"] != plain["clusters.tsv"], name

    def test_stopwords_are_folded_like_tokens(self, paths, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("The.\nOF\n(and)\nit's\n", encoding="utf-8")
        folded = tmp_path / "folded.txt"
        folded.write_text("the\nof\nand\nits\n", encoding="utf-8")
        written = self.outputs(paths, tmp_path / "raw", capsys, "--stopwords", str(raw))
        assert written == self.outputs(paths, tmp_path / "folded", capsys, "--stopwords", str(folded))
        assert written != self.outputs(paths, tmp_path / "plain", capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--out", "x.tsv", "--threshold", "0.9"],
        ["cluster", "--out", "x.tsv", "--damping", "0.3"],
        ["graph-stats", "--damping", "0.3"],
        ["evaluate", "--metric", "rouge", "--candidate", "c.txt", "--references", "r.txt",
         "--config", "run.cfg"],
        ["evaluate", "--metric", "kappa", "--citations", "c.jsonl", "--spans-a", "a.tsv",
         "--spans-b", "b.tsv", "--stopwords", "stop.txt"],
    ],
    ids=["cluster-threshold", "cluster-damping", "graph-stats-damping", "evaluate-config",
         "evaluate-stopwords"],
)
def test_flags_that_change_no_output_are_usage_errors(argv, paths, capsys):
    if argv[0] != "evaluate":
        argv = [argv[0], "--in", paths["citations"], *argv[1:]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestOutputFiles:
    def summarize(self, paths, out_dir, capsys):
        return run(
            ["summarize", "--in", paths["citations"], "--idf", paths["idf"],
             "--method", "lexrank", "--budget", "100", "--annotations", paths["factoids"],
             "--out-dir", str(out_dir), "--scores-out", str(out_dir / "scores.tsv")],
            capsys,
        )

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o027])
    def test_outputs_get_the_permissions_the_umask_leaves(self, umask, paths, tmp_path, capsys):
        previous = os.umask(umask)
        try:
            code, _, _ = self.summarize(paths, tmp_path, capsys)
        finally:
            os.umask(previous)
        assert code == 0
        modes = {f.name: stat.S_IMODE(f.stat().st_mode) for f in tmp_path.iterdir()}
        assert len(modes) == 5  # summary text and JSON, report, scores, manifest
        assert modes == dict.fromkeys(modes, 0o666 & ~umask)

    def test_manifest_lists_every_file_written(self, paths, tmp_path, capsys):
        out_dir, scores = tmp_path / "out", tmp_path / "scores" / "deep" / "scores.tsv"
        code, out, _ = run(
            ["summarize", "--in", paths["citations"], "--idf", paths["idf"],
             "--method", "lexrank", "--budget", "100", "--annotations", paths["factoids"],
             "--out-dir", str(out_dir), "--scores-out", str(scores)],
            capsys,
        )
        assert code == 0
        manifest = out_dir / "w05-0622.lexrank.100.manifest.json"
        assert out == f"{manifest}\n"
        written = sorted(str(f) for f in tmp_path.rglob("*") if f.is_file() and f != manifest)
        assert len(written) == 4  # summary text and JSON, report, scores
        assert json.loads(manifest.read_text())["outputs"] == written

    def test_failed_rename_leaves_no_temporary_file(self, paths, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise OSError(f"cannot rename {src}")

        monkeypatch.setattr(cli.os, "replace", refuse)
        code, _, err = self.summarize(paths, tmp_path, capsys)
        assert code == 1
        assert "cannot rename" in err and ".tmp" in err
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    def test_two_runs_byte_identical(self, paths, tmp_path, capsys):
        args = lambda d: [
            "summarize", "--in", paths["citations"], "--idf", paths["idf"],
            "--method", "c-rr", "--budget", "100", "--seed", "13",
            "--annotations", paths["factoids"], "--out-dir", str(d),
        ]
        run(args(tmp_path / "a"), capsys)
        run(args(tmp_path / "b"), capsys)
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            if name.endswith("manifest.json"):
                continue  # carries wall-clock timings by design
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# Each input flag, the run that reads it, and a valid first line for its file.
# ``{bad}`` is the file under test; the other fields are valid inputs.
INPUT_FLAGS = {
    "--in": (["summarize", "--in", "{bad}", "--method", "lexrank", "--budget", "50", "--out-dir", "{out}"],
             '{"id": "s1", "text": "a parsing model"}\n'),
    "--idf": (["summarize", "--in", "{citations}", "--idf", "{bad}", "--method", "lexrank", "--budget", "50",
               "--out-dir", "{out}"], "the\t0.5\n"),
    "--annotations": (["summarize", "--in", "{citations}", "--annotations", "{bad}", "--method", "lexrank",
                       "--budget", "50", "--out-dir", "{out}"], "s1\tf1\n"),
    "--config": (["summarize", "--in", "{citations}", "--config", "{bad}", "--method", "lexrank",
                  "--budget", "50", "--out-dir", "{out}"], "lexrank_damping = 0.8\n"),
    "--stopwords": (["cluster", "--in", "{citations}", "--stopwords", "{bad}", "--out", "{out}/c.tsv"], "the\n"),
    "--spans-a": (["evaluate", "--metric", "kappa", "--citations", "{citations}", "--spans-a", "{bad}",
                   "--spans-b", "{spans}", "--out", "{out}/kap"], "ann1\ts1\t0\t11\n"),
    "--references": (["evaluate", "--metric", "rouge", "--candidate", "{candidate}", "--references",
                      "{bad}", "--out", "{out}/rg"], "the cat sat\n"),
    "--summary": (["evaluate", "--metric", "pyramid", "--summary", "{bad}", "--citations", "{citations}",
                   "--annotations", "{factoids}", "--out", "{out}/pyr"], '{"entries": [],\n'),
}


@pytest.mark.parametrize("flag", list(INPUT_FLAGS))
@pytest.mark.parametrize(
    "tail, message",
    [
        (b"ca\xe9 \n", ":2: not valid UTF-8 (invalid continuation byte)"),
        (None, ":1: starts with a UTF-8 byte order mark"),
    ],
    ids=["latin-1", "bom"],
)
def test_an_input_that_is_not_plain_utf8_is_a_data_error(flag, tail, message, paths, tmp_path, capsys):
    template, first_line = INPUT_FLAGS[flag]
    bad = tmp_path / "in" / "bad.txt"
    bad.parent.mkdir()
    bad.write_bytes(first_line.encode("utf-8") + tail if tail else b"\xef\xbb\xbf" + first_line.encode("utf-8"))
    (tmp_path / "in" / "spans.tsv").write_text("ann2\ts1\t0\t11\n", encoding="utf-8")
    (tmp_path / "in" / "candidate.txt").write_text("the cat sat down\n", encoding="utf-8")
    out = tmp_path / "out"
    fields = {"bad": bad, "out": out, "citations": paths["citations"], "factoids": paths["factoids"],
              "spans": tmp_path / "in" / "spans.tsv", "candidate": tmp_path / "in" / "candidate.txt"}
    code, stdout, err = run([arg.format(**fields) for arg in template], capsys)
    assert (code, stdout, err) == (1, "", f"error: {bad}{message}\n")
    assert not out.exists()


# Every flag that names a file, with its subcommand.  The value is checked as
# the flag is parsed, before argparse looks for the required flags.
PATH_FLAGS = [
    *(("summarize", flag) for flag in ("--in", "--idf", "--config", "--stopwords", "--annotations", "--scores-out")),
    ("graph-stats", "--dot"),
    ("cluster", "--out"),
    *(("evaluate", flag) for flag in ("--out", "--summary", "--citations", "--annotations", "--candidate",
                                      "--references", "--spans-a", "--spans-b")),
]


@pytest.mark.parametrize("value", ["", ".", "..", "sub/", "sub/.", "sub/.."])
@pytest.mark.parametrize("command, flag", PATH_FLAGS)
def test_a_path_flag_must_name_a_file(command, flag, value, tmp_path, capsys, monkeypatch):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: {value!r} must end in a file name, not a directory\n" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == [tmp_path / "sub"]


# Runs whose output would replace one of their own files: the flag blamed,
# the path it names, and the arguments.  In the files, c.jsonl is a citation
# set, idf.tsv an IDF table, f.tsv a factoid annotation and c.lexrank.30.json
# a summary; all four are copies the run must leave as they are.
OVERWRITES = {
    "cluster-out-is-in": ("--out", "c.jsonl", ["cluster", "--in", "c.jsonl", "--out", "c.jsonl"]),
    "cluster-out-is-idf": ("--out", "./idf.tsv", ["cluster", "--in", "c.jsonl", "--idf", "idf.tsv",
                                                  "--out", "./idf.tsv"]),
    "dot-is-idf": ("--dot", "idf.tsv", ["graph-stats", "--in", "c.jsonl", "--idf", "idf.tsv", "--dot", "idf.tsv"]),
    "dot-is-stopwords": ("--dot", "sub/../f.tsv", ["graph-stats", "--in", "c.jsonl", "--stopwords", "f.tsv",
                                                   "--dot", "sub/../f.tsv"]),
    "evaluate-json-is-a-summary": (
        "--out", "c.lexrank.30.json",
        ["evaluate", "--metric", "pyramid", "--summary", "c.lexrank.30.json", "--citations", "c.jsonl",
         "--annotations", "f.tsv", "--out", "c.lexrank.30"],
    ),
    "evaluate-tsv-is-annotations": (
        "--out", "f.tsv",
        ["evaluate", "--metric", "pyramid", "--summary", "c.lexrank.30.json", "--citations", "c.jsonl",
         "--annotations", "f.tsv", "--out", "f"],
    ),
    "evaluate-tsv-is-a-reference": (
        "--out", "idf.tsv", ["evaluate", "--metric", "rouge", "--candidate", "f.tsv", "--references", "c.jsonl",
                             "idf.tsv", "--out", "idf"],
    ),
    "scores-out-is-stopwords": (
        "--scores-out", "sub/../f.tsv",
        ["summarize", "--in", "c.jsonl", "--stopwords", "f.tsv", "--method", "divrank", "--budget", "30",
         "--scores-out", "sub/../f.tsv"],
    ),
    "scores-out-is-the-manifest": (
        "--scores-out", "c.lexrank.30.manifest.json",
        ["summarize", "--in", "c.jsonl", "--method", "lexrank", "--budget", "30",
         "--scores-out", "c.lexrank.30.manifest.json"],
    ),
    "summary-json-is-idf": (
        "--out-dir", "sub/../c.lexrank.30.json",
        ["summarize", "--in", "c.jsonl", "--idf", "sub/../c.lexrank.30.json", "--method", "lexrank",
         "--budget", "30", "--out-dir", "."],
    ),
    "trial-summary-is-idf": (
        "--out-dir", "c.random.30.t002.txt",
        ["summarize", "--in", "c.jsonl", "--idf", "c.random.30.t002.txt", "--method", "random", "--seed", "1",
         "--trials", "3", "--budget", "30"],
    ),
}


@pytest.mark.parametrize("flag, path, argv", list(OVERWRITES.values()), ids=list(OVERWRITES))
def test_no_output_may_name_another_file_of_the_run(flag, path, argv, paths, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    files = {
        "c.jsonl": Path(paths["citations"]).read_bytes(),
        "idf.tsv": Path(paths["idf"]).read_bytes(),
        "f.tsv": Path(paths["factoids"]).read_bytes(),
        "c.lexrank.30.json": b"{}\n",
        "c.random.30.t002.txt": b"the\t1.0\n",
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    read = []
    monkeypatch.setattr(Path, "read_bytes", lambda p: read.append(p))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    monkeypatch.undo()
    assert exc.value.code == 2
    assert f"{flag} {path!r} names another file of the run" in capsys.readouterr().err
    assert read == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == files


def captured_parse(parser, argv, capsys):
    """What parsing ``argv`` printed and how it ended: the namespace, or the exit code."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def subparsers_of(parser) -> dict:
    """Subcommand name -> subparser."""
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


def planned(argv: list[str], config: bytes = b"") -> Plan:
    """The plan of ``argv``, its ``--config`` holding ``config``."""
    return make_plan(cli.build_parser().parse_args(argv), lambda path: config)


# Per subcommand, an argv that sets every flag naming a file, each to its own path.
EVERY_FILE_FLAG = [
    ["summarize", "--in", "c.jsonl", "--idf", "i.tsv", "--config", "r.cfg", "--stopwords", "s.txt",
     "--annotations", "f.tsv", "--method", "lexrank", "--budget", "3", "--scores-out", "sc.tsv"],
    ["graph-stats", "--in", "c.jsonl", "--idf", "i.tsv", "--config", "r.cfg", "--stopwords", "s.txt",
     "--dot", "g.dot"],
    ["cluster", "--in", "c.jsonl", "--idf", "i.tsv", "--config", "r.cfg", "--stopwords", "s.txt", "--out", "o.tsv"],
    ["evaluate", "--metric", "pyramid", "--summary", "a.json", "b.json", "--citations", "c.jsonl",
     "--annotations", "f.tsv", "--out", "rep"],
    ["evaluate", "--metric", "rouge", "--candidate", "a.txt", "--references", "r1.txt", "r2.txt", "--out", "rep"],
    ["evaluate", "--metric", "kappa", "--citations", "c.jsonl", "--spans-a", "a.tsv", "--spans-b", "b.tsv",
     "--out", "rep"],
]


def test_every_path_flag_is_an_input_or_an_output():
    # A file flag missing from the plan would escape the overwrite rule.
    named = set()
    for argv in EVERY_FILE_FLAG:
        plan = planned(argv)
        files = [(flag, str(path)) for flag, path in plan.inputs + plan.outputs]
        for flag in (arg for arg in argv if arg.startswith("--")):
            values = argv[argv.index(flag) + 1:]
            values = values[: next((i for i, v in enumerate(values) if v.startswith("--")), len(values))]
            if flag == "--out" and argv[0] == "evaluate":
                values = [f"{values[0]}.tsv", f"{values[0]}.json"]
            if all((flag, value) in files for value in values):
                named.add((argv[0], flag))
    for command, sub in subparsers_of(cli.build_parser()).items():
        for action in sub._actions:
            if action.type is cli._file_path:
                assert (command, action.option_strings[0]) in named


@pytest.mark.parametrize("trials, path, holds", [
    (3, "o/c.random.30.t000.txt", True),
    (3, "o/../o/c.random.30.t002.json", True),
    (3, "o/c.random.30.t003.json", False),
    (3, "o/c.random.30.json", False),
    (3, "c.random.30.t001.txt", False),
    (1, "o/c.random.30.txt", True),
    (1, "o/c.random.30.t000.txt", False),
    (1, "o/c.random.30.report.tsv", False),
])
def test_the_summaries_rule_holds_exactly_each_trials_files(trials, path, holds):
    assert Summaries(Path("o"), "c.random.30", trials).holds(path) is holds


def test_a_config_stopword_path_is_planned_by_its_key():
    plan = planned(["cluster", "--in", "c.jsonl", "--config", "r.cfg", "--out", "o.tsv"], b"stopword_path = s.txt\n")
    assert plan.inputs == (("--config", "r.cfg"), ("stopword_path", "s.txt"), ("--in", "c.jsonl"))
    plan = planned(["cluster", "--in", "c.jsonl", "--config", "r.cfg", "--stopwords", "t.txt", "--out", "o.tsv"],
                   b"stopword_path = s.txt\n")
    assert plan.inputs == (("--config", "r.cfg"), ("--stopwords", "t.txt"), ("--in", "c.jsonl"))


def test_a_config_whose_stopword_list_is_the_output_reads_only_the_config(paths, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    files = {
        "c.jsonl": Path(paths["citations"]).read_bytes(),
        "run.cfg": b"stopword_path = stop.txt\n",
        "stop.txt": b"the\nof\n",
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    read, read_bytes = [], Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda p: read.append(p) or read_bytes(p))
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--in", "c.jsonl", "--config", "run.cfg", "--out", "stop.txt"])
    monkeypatch.undo()
    assert exc.value.code == 2
    assert "--out 'stop.txt' names another file of the run" in capsys.readouterr().err
    assert read == [Path("run.cfg")]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


@pytest.mark.parametrize("metric, flag", [("rouge", "--citations"), ("kappa", "--summary"), ("pyramid", "--spans-a")])
def test_an_input_flag_the_metric_does_not_read_is_a_usage_error(metric, flag, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = {
        "rouge": ["--candidate", "a.txt", "--references", "r.txt"],
        "kappa": ["--citations", "c.jsonl", "--spans-a", "a.tsv", "--spans-b", "b.tsv"],
        "pyramid": ["--summary", "s.json", "--citations", "c.jsonl", "--annotations", "f.tsv"],
    }[metric]
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--metric", metric, *argv, flag, "x.tsv", "--out", "x"])
    assert exc.value.code == 2
    assert f"--metric {metric} does not read {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# The paths a generated run may give its file flags, relative to its working
# directory.  Several name one file, and most are files that a summarize run
# of c.jsonl into o/ writes.
NAMES = ["c.jsonl", "i.tsv", "sub/../i.tsv", "run.cfg", "rep.json", "o/c.lexrank.30.json",
         "o/../o/c.lexrank.30.report.tsv", "o/c.lexrank.30.manifest.json", "o/c.random.30.t001.txt",
         "o/c.random.30.t002.json"]


@st.composite
def planned_runs(draw):
    """An argv of any subcommand with its file flags drawn from NAMES, and its config's text."""
    name = st.sampled_from(NAMES)
    command = draw(st.sampled_from(["summarize", "graph-stats", "cluster", "evaluate"]))
    config = b""
    if command == "evaluate":
        metric = draw(st.sampled_from(list(METRIC_INPUTS)))
        argv = ["evaluate", "--metric", metric, "--out", draw(st.sampled_from(["rep", "o/c.lexrank.30", "i"]))]
        for flag in METRIC_INPUTS[metric]:
            count = draw(st.integers(1, 2)) if flag in ("--summary", "--references") else 1
            argv += [flag, *(draw(name) for _ in range(count))]
        return argv, config
    argv = [command, "--in", draw(st.sampled_from(["c.jsonl", "./c.jsonl"]) if command == "summarize" else name)]
    for flag in ("--idf", "--stopwords", "--config"):
        if draw(st.booleans()):
            argv += [flag, "run.cfg" if flag == "--config" else draw(name)]
    if "--config" in argv and draw(st.booleans()):
        config = f"stopword_path = {draw(name)}\n".encode()
    if command == "summarize":
        method = draw(st.sampled_from(["lexrank", "random"]))
        argv += ["--method", method, "--budget", "30", "--seed", "1",
                 "--out-dir", draw(st.sampled_from(["o", "o/../o"]))]
        if method == "random":
            argv += ["--trials", str(draw(st.integers(1, 3)))]
        else:
            argv += ["--scores-out", draw(st.sampled_from(["sc.tsv", "c.jsonl", *NAMES[-5:-2]]))]
        if draw(st.booleans()):
            argv += ["--annotations", draw(name)]
    elif command == "cluster":
        argv += ["--out", draw(name)]
    elif draw(st.booleans()):
        argv += ["--dot", draw(name)]
    return argv, config


class Checked(Exception):
    """Raised in place of everything a run does once its plan has passed the overwrite check."""


@settings(derandomize=True, max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run_case=planned_runs())
def test_property_a_run_refuses_its_plan_before_reading_iff_an_output_is_a_file_of_the_run(
    run_case, tmp_path, capsys, monkeypatch
):
    argv, config = run_case
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_bytes(config)
    plans, read = [], []
    plan, refuse = cli.make_plan, cli.refuse_overwrites

    def refuse_then_stop(*args):
        refuse(*args)
        raise Checked

    with monkeypatch.context() as patched:
        patched.setattr(cli, "make_plan", lambda *a: plans.append(plan(*a)) or plans[-1])
        patched.setattr(cli, "refuse_overwrites", refuse_then_stop)
        read_bytes = Path.read_bytes
        patched.setattr(Path, "read_bytes", lambda p: read.append(str(p)) or read_bytes(p))
        try:
            main(argv)
            raise AssertionError("the run went past its plan")
        except SystemExit as exc:
            assert exc.code == 2
            refused = True
        except Checked:
            refused = False
    capsys.readouterr()
    (plan,) = plans
    assert read == (["run.cfg"] if "--config" in argv else [])
    # Every file flag, and the config's stopword_path, is in the plan.
    files = {(flag, str(path)) for flag, path in plan.inputs + plan.outputs}
    for i, arg in enumerate(argv):
        if arg in ("--in", "--idf", "--stopwords", "--config", "--annotations", "--scores-out", "--dot", "--citations",
                   "--candidate", "--spans-a", "--spans-b") or (arg == "--out" and argv[0] == "cluster"):
            assert (arg, argv[i + 1]) in files
        elif arg == "--out":
            assert {("--out", f"{argv[i + 1]}.tsv"), ("--out", f"{argv[i + 1]}.json")} <= files
        elif arg in ("--summary", "--references"):
            assert all((arg, value) in files for value in argv[i + 1:i + 3] if not value.startswith("--"))
    if config and "--stopwords" not in argv:
        assert ("stopword_path", config.decode().split(" = ")[1].strip()) in files
    # The plan is refused iff a file it writes, listed or by the summaries' rule, is one it reads or writes earlier.
    inputs = {os.path.abspath(path) for _, path in plan.inputs}
    written = [os.path.abspath(path) for _, path in plan.outputs]
    if plan.summaries:
        written += [os.path.abspath(p) for trial in range(plan.summaries.trials) for p in plan.summaries.paths(trial)]
    assert refused == bool(inputs & set(written) or len(set(written)) < len(written))


@pytest.mark.parametrize("argv", [
    ["summarize", "--in", "{citations}", "--idf", "{idf}", "--annotations", "{factoids}", "--method", "lexrank",
     "--budget", "40", "--scores-out", "{out}/sc/s.tsv", "--out-dir", "{out}/d"],
    ["summarize", "--in", "{citations}", "--annotations", "{factoids}", "--method", "random", "--seed", "3",
     "--trials", "3", "--budget", "40", "--out-dir", "{out}"],
    ["graph-stats", "--in", "{citations}", "--dot", "{out}/g.dot"],
    ["cluster", "--in", "{citations}", "--out", "{out}/c.tsv"],
    ["evaluate", "--metric", "rouge", "--candidate", "{factoids}", "--references", "{idf}", "--out", "{out}/r"],
], ids=["summarize", "summarize-trials", "graph-stats", "cluster", "evaluate"])
def test_each_run_writes_the_paths_its_plan_names(argv, paths, tmp_path, capsys, monkeypatch):
    argv = [arg.format(out=tmp_path, **paths) for arg in argv]
    plans, written = [], []
    plan, write = cli.make_plan, cli._write_atomic
    monkeypatch.setattr(cli, "make_plan", lambda *a: plans.append(plan(*a)) or plans[-1])
    monkeypatch.setattr(cli, "_write_atomic", lambda path, text: written.append(path) or write(path, text))
    code, _, _ = run(argv, capsys)
    assert code == 0
    (plan,) = plans
    trials = plan.summaries
    summaries = [p for trial in range(trials.trials) for p in trials.paths(trial)] if trials else []
    assert written == summaries + [Path(path) for _, path in plan.outputs]
    if argv[0] == "summarize":  # the manifest's inputs are the plan's, in read order
        manifest = json.loads(written[-1].read_text())
        assert list(manifest["inputs"]) == [path for _, path in plan.inputs]


def argparse_formatted_parser():
    """The full parser, every part of it formatted by argparse's own ``HelpFormatter``."""
    parser = cli.build_parser()
    for p in (parser, *subparsers_of(parser).values()):
        p.formatter_class = argparse.HelpFormatter
    return parser


# Per subcommand: help, a missing required flag, a bad value, an unknown flag,
# an extra positional, and a valid argv.
PARSER_CASES = {
    "summarize": [
        ["-h"],
        ["--in", "c.jsonl", "--budget", "3"],
        ["--in", "c.jsonl", "--method", "nope", "--budget", "3"],
        ["--in", "c.jsonl", "--method", "lexrank", "--budget", "three"],
        ["--in", "c.jsonl", "--method", "lexrank", "--budget", "3", "--bogus"],
        ["--in", "c.jsonl", "--method", "lexrank", "--budget", "3", "extra"],
        ["--in", "c.jsonl", "--method", "lexrank", "--budget", "3", "--divrank-beta", "0.2"],
    ],
    "evaluate": [
        ["-h"],
        [],
        ["--metric", "nope"],
        ["--metric", "rouge", "--bogus"],
        ["--metric", "rouge", "extra"],
        ["--metric", "rouge", "--references", "a.txt", "b.txt", "--jackknife"],
    ],
    "graph-stats": [
        ["-h"],
        ["--dot", "g.dot"],
        ["--in", "c.jsonl", "--threshold", "high"],
        ["--in", "c.jsonl", "--bogus"],
        ["--in", "c.jsonl", "extra"],
        ["--in", "c.jsonl", "--threshold", "0.2"],
    ],
    "cluster": [
        ["-h"],
        ["--in", "c.jsonl"],
        ["--in", "c.jsonl", "--out", "x.tsv", "--threshold", "0.2"],
        ["--in", "c.jsonl", "--out", "x.tsv", "extra"],
        ["--in", "c.jsonl", "--out", "x.tsv", "--idf", "i.tsv"],
    ],
}


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("command", list(PARSER_CASES))
def test_a_subcommand_parser_parses_as_the_full_parser(command, columns, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    for argv in PARSER_CASES[command]:
        argv = [command, *argv]
        full = captured_parse(argparse_formatted_parser(), argv, capsys)
        assert captured_parse(cli.build_parser(), argv, capsys) == full, argv
        assert captured_parse(cli.build_parser(command), argv, capsys) == full, argv
    assert full[0]["func"] is cli.SUBCOMMANDS[command].run  # the last argv is valid


# Argvs that stop at the top-level parser.
TOP_LEVEL_ARGVS = [["-h"], ["--version"], [], ["summarise", "--in", "c.jsonl"]]


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("argv", TOP_LEVEL_ARGVS)
def test_the_top_level_reads_the_same_from_every_parser(argv, columns, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    full = captured_parse(argparse_formatted_parser(), argv, capsys)
    for command in [None, *cli.SUBCOMMANDS]:
        assert captured_parse(cli.build_parser(command), argv, capsys) == full, command


@pytest.mark.parametrize(
    "argv",
    # Newer argparse versions pass a "--" before the subcommand through to it.
    [*TOP_LEVEL_ARGVS, ["--", "cluster", "--in", "c.jsonl", "--out", "x"], ["cluster", "--in", "c.jsonl"]],
)
def test_main_parses_as_the_full_parser(argv, capsys, monkeypatch):
    full = captured_parse(argparse_formatted_parser(), argv, capsys)

    class Built(Exception):
        pass

    def stop_after_build(*args):
        raise Built(build(*args))

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", stop_after_build)
    with pytest.raises(Built) as built:
        main(argv)
    assert captured_parse(built.value.args[0], argv, capsys) == full


@pytest.mark.parametrize("from_sys_argv", [False, True], ids=["argv", "sys.argv"])
def test_a_run_adds_the_arguments_of_its_subcommand_only(from_sys_argv, paths, tmp_path, capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(build(*a)) or built[-1])
    argv = ["summarize", "--in", paths["citations"], "--method", "lexrank", "--budget", "50",
            "--out-dir", str(tmp_path)]
    if from_sys_argv:  # as the console script calls it
        monkeypatch.setattr(cli.sys, "argv", ["citesum", *argv])
        argv = None
    code, _, _ = run(argv, capsys)
    assert code == 0 and len(built) == 1
    dests = {name: [a.dest for a in sub._actions] for name, sub in subparsers_of(built[0]).items()}
    assert list(dests) == list(cli.SUBCOMMANDS)
    assert "budget" in dests.pop("summarize")
    assert dests == dict.fromkeys(dests, ["help"])


def test_each_run_reads_the_idf_file_anew(paths, tmp_path, capsys, monkeypatch):
    graphs = []
    build = cli.build_citation_summary_network
    monkeypatch.setattr(cli, "build_citation_summary_network", lambda *a: graphs.append(build(*a)) or graphs[-1])
    idf = tmp_path / "idf.tsv"
    argv = ["cluster", "--in", paths["citations"], "--idf", str(idf), "--out", str(tmp_path / "c.tsv")]
    expected = []
    for text in ("parsing\t0.5\nmodel\t3.0\n", "parsing\t3.0\nmodel\t0.5\n"):
        idf.write_text(text, encoding="utf-8")
        assert run(argv, capsys)[0] == 0
        expected.append(build(load_citation_set(paths["citations"]), load_idf_table(idf), TokenizerConfig()))
    assert not np.array_equal(expected[0].weights, expected[1].weights)
    for graph, want in zip(graphs, expected, strict=True):
        assert np.array_equal(graph.weights, want.weights)
