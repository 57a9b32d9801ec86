"""Command-line behavior: exit codes, file outputs, error mapping."""

import json
import math
import os
import stat
from pathlib import Path

import pytest

from citesum import cli
from citesum.cli import main
from citesum.evaluate import EvalReport


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
