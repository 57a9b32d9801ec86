"""Acceptance gate: one test per release criterion, each with its own oracle.

Every test prints a single PASS line once its assertions hold, so a verbose
run reads as a checklist.  Oracles here are deliberately re-derived from
first principles rather than imported from the library under test.
"""

import itertools
import math
import random
import time
from collections import Counter

import numpy as np
from conftest import make_graph, symmetric_random_graph, toy_citation_set, two_cliques_graph

from citesum.cli import main
from citesum.community import cluster_cnm, modularity, nmi, purity
from citesum.corpus import (
    CitationSet,
    FactoidAnnotation,
    NuggetSpanAnnotation,
    RunConfig,
    Sentence,
    uniform_idf,
)
from citesum.evaluate import build_pyramid, ngram_kappa, pyramid_score, rouge_n
from citesum.graph import build_citation_summary_network
from citesum.rank import divrank, lexrank, random_order
from citesum.summarize import (
    Summary,
    SummaryEntry,
    assemble_from_ordering,
    c_lexrank_summary,
    c_rr_summary,
)


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


# -----------------------------------------------------------------------
# 1. Pyramid scoring equals exhaustive brute force
# -----------------------------------------------------------------------


def summary_stub(sentence_ids: list[str]) -> Summary:
    entries = tuple(SummaryEntry(sid, sid, 1, False) for sid in sentence_ids)
    return Summary(entries=entries, total_words=len(entries), method="stub", budget=10_000)


def brute_force_pyramid(ann: FactoidAnnotation, summary_ids: list[str]) -> tuple[int, int, float]:
    """From-scratch evaluation: direct occurrence counting, subset-enumeration
    optimum, covered weight capped at the optimum."""
    counts: Counter = Counter()
    for facts in ann.sentence_factoids.values():
        counts.update(facts)
    covered = set()
    for sid in summary_ids:
        covered |= ann.sentence_factoids.get(sid, frozenset())
    d = sum(counts[f] for f in covered)
    x = len(summary_ids)
    factoids = list(counts)
    if x >= len(factoids):
        best = sum(counts.values())
    else:
        best = max(
            sum(counts[f] for f in subset)
            for subset in itertools.combinations(factoids, x)
        )
    d = min(d, best)
    return d, best, (1.0 if best == 0 else d / best)


def test_acceptance_1_pyramid_oracle_equivalence():
    rng = random.Random(101)
    started = time.perf_counter()
    for _ in range(200):
        n_sentences = rng.randint(1, 12)
        n_factoids = rng.randint(0, 10)
        sentence_ids = [f"s{i}" for i in range(n_sentences)]
        factoids = [f"f{i}" for i in range(n_factoids)]
        mapping = {
            sid: frozenset(
                f for f in factoids if rng.random() < 0.35
            )
            for sid in sentence_ids
        }
        mentioned = set().union(*mapping.values()) if mapping else set()
        ann = FactoidAnnotation(
            factoid_ids=frozenset(mentioned), sentence_factoids=mapping
        )
        pyr = build_pyramid(ann)
        summary_ids = rng.sample(sentence_ids, rng.randint(1, n_sentences))
        got = pyramid_score(summary_stub(summary_ids), ann, pyr)
        d, best, score = brute_force_pyramid(ann, summary_ids)
        assert got.weight_covered == d
        assert got.weight_optimal == best
        assert got.pyramid_score == score  # exact: same integers, same division
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, "pyramid oracle equivalence")


# -----------------------------------------------------------------------
# 2. Purity, NMI, and modularity equal direct formula evaluation
# -----------------------------------------------------------------------


def set_partitions(items: list):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i, subset in enumerate(smaller):
            yield smaller[:i] + [subset + [first]] + smaller[i + 1 :]
        yield [[first]] + smaller


def test_acceptance_2_clustering_metric_oracles():
    from citesum.community import Clustering

    items = ["a", "b", "c", "d", "e", "f"]
    partitions = list(set_partitions(items))  # Bell(6) = 203
    n = len(items)
    for blocks in partitions:
        clustering = Clustering(
            assignment={node: i for i, b in enumerate(blocks) for node in b},
            g=len(blocks),
            q=0.0,
        )
        p_k = [len(b) / n for b in blocks]
        h_k = -sum(p * math.log(p) for p in p_k)
        for classes_blocks in partitions:  # every (clustering, classes) pair
            classes = {node: f"c{i}" for i, b in enumerate(classes_blocks) for node in b}
            class_sets = [set(b) for b in classes_blocks]
            # purity oracle: majority count per cluster
            expected_purity = (
                sum(max(len(set(b) & members) for members in class_sets) for b in blocks) / n
            )
            assert abs(purity(clustering, classes) - expected_purity) <= 1e-12
            # NMI oracle: probability form
            p_j = [len(members) / n for members in class_sets]
            mutual = 0.0
            for b, pk in zip(blocks, p_k):
                for members, pj in zip(class_sets, p_j):
                    joint = len(set(b) & members) / n
                    if joint > 0:
                        mutual += joint * math.log(joint / (pk * pj))
            h_j = -sum(p * math.log(p) for p in p_j)
            expected_nmi = 1.0 if h_k == 0 and h_j == 0 else mutual / ((h_k + h_j) / 2)
            got = nmi(clustering, classes)
            assert abs(got - expected_nmi) <= 1e-12
            assert 0.0 <= got <= 1.0

    # modularity: direct double-sum evaluation on random graphs <= 8 nodes
    rng = np.random.default_rng(103)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        g = symmetric_random_graph(rng, n)
        assignment = {node: int(rng.integers(0, 3)) for node in g.nodes}
        w = g.weights
        two_m = w.sum()
        k = w.sum(axis=1)
        labels = [assignment[node] for node in g.nodes]
        expected = (
            sum(
                w[v, u] - k[v] * k[u] / two_m
                for v in range(n)
                for u in range(n)
                if labels[v] == labels[u]
            )
            / two_m
        )
        assert abs(modularity(g, assignment) - expected) <= 1e-12
    report(2, "clustering metric oracle equivalence")


# -----------------------------------------------------------------------
# 3. LexRank power iteration equals a dense linear solve
# -----------------------------------------------------------------------


def test_acceptance_3_lexrank_eigenvector_check():
    rng = np.random.default_rng(107)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        g = symmetric_random_graph(rng, n)
        damping = 0.85
        got = lexrank(g, 0.10, damping)
        values = np.array([got.scores[node] for node in g.nodes])
        assert np.all(values >= 0.0)
        assert abs(values.sum() - 1.0) <= 1e-9
        t = g.binarize(0.10).astype(float)
        degrees = t.sum(axis=1)
        t[degrees == 0.0, :] = 1.0 / n
        t[degrees > 0.0] /= t[degrees > 0.0].sum(axis=1, keepdims=True)
        solved = np.linalg.solve(np.eye(n) - damping * t.T, (1 - damping) / n * np.ones(n))
        solved /= solved.sum()
        assert np.max(np.abs(values - solved)) < 1e-6
    report(3, "lexrank eigenvector check")


# -----------------------------------------------------------------------
# 4. DivRank approximation agrees with an explicit reinforced walk
# -----------------------------------------------------------------------


def simulate_reinforced_walk(g, lam: float, alpha: float, steps: int, seed: int) -> np.ndarray:
    """Explicit vertex-reinforced random walk: transitions re-weighted by the
    actual visit counts accumulated so far; returns visit frequencies."""
    n = len(g)
    w = g.weights
    degrees = w.sum(axis=1)
    p0_rows = []
    for u in range(n):
        if degrees[u] == 0.0:
            row = [0.0] * n
            row[u] = 1.0
        else:
            row = [alpha * w[u, v] / degrees[u] for v in range(n)]
            row[u] = 1.0 - alpha
        p0_rows.append(row)
    rng = random.Random(seed)
    visits = [1.0] * n
    current = rng.randrange(n)
    visits[current] += 1.0
    for _ in range(steps):
        if rng.random() < 1.0 - lam:
            current = rng.randrange(n)  # uniform prior teleport
        else:
            row = p0_rows[current]
            weights = [row[v] * visits[v] for v in range(n)]
            total = sum(weights)
            r = rng.random() * total
            acc = 0.0
            for v in range(n):
                acc += weights[v]
                if r <= acc:
                    current = v
                    break
        visits[current] += 1.0
    total_visits = sum(visits)
    return np.array([v / total_visits for v in visits])


def test_acceptance_4_divrank_walk_simulation():
    # A single reinforced chain is winner-take-all on a near-symmetric graph
    # (the walk locks onto an arbitrary early leader), so visit probability is
    # estimated as the ensemble mean of 1000 independent 1000-step chains:
    # 10^6 explicit walk steps in total.  The bridge weight 0.5 keeps the
    # bridge endpoints' structural advantage above the ensemble noise floor.
    g = two_cliques_graph(bridge=0.5)
    approx = divrank(g, lam=0.90, alpha=0.25)
    approx_scores = np.array([approx.scores[node] for node in g.nodes])
    simulated = np.mean(
        [
            simulate_reinforced_walk(g, lam=0.90, alpha=0.25, steps=1000, seed=chain)
            for chain in range(1000)
        ],
        axis=0,
    )

    clique_a, clique_b = list(range(4)), list(range(4, 8))
    for clique in (clique_a, clique_b):
        top_approx = max(clique, key=lambda i: approx_scores[i])
        top_sim = max(clique, key=lambda i: simulated[i])
        assert top_approx == top_sim
    ranked = np.argsort(-approx_scores)
    top2 = set(ranked[:2].tolist())
    assert len(top2 & set(clique_a)) == 1 and len(top2 & set(clique_b)) == 1
    report(4, "divrank walk-simulation check")


# -----------------------------------------------------------------------
# 5. Community recovery on planted partitions
# -----------------------------------------------------------------------


def planted_partition_graph(rng: np.random.Generator, groups: int, size: int):
    n = groups * size
    labels = [i // size for i in range(n)]
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mean = 0.8 if labels[i] == labels[j] else 0.05
            value = float(np.clip(rng.normal(mean, 0.1), 0.0, 1.0))
            w[i, j] = w[j, i] = value
    return make_graph(w), {f"n{i}": str(labels[i]) for i in range(n)}


def test_acceptance_5_community_recovery():
    rng = np.random.default_rng(113)
    recovered = 0
    for _ in range(20):
        g, classes = planted_partition_graph(rng, groups=3, size=6)
        clustering = cluster_cnm(g)
        if nmi(clustering, classes) >= 0.9:
            recovered += 1
        assert modularity(g, {node: 0 for node in g.nodes}) == 0.0
    assert recovered >= 18, f"only {recovered}/20 planted partitions recovered"
    report(5, "community recovery on planted partitions")


# -----------------------------------------------------------------------
# 6. Desk-scale reproduction on the bundled nine-sentence citation set
# -----------------------------------------------------------------------


def covered_factoids(summary, ann):
    out = set()
    for sid in summary.sentence_ids:
        out |= ann.factoids_of(sid)
    return out


def test_acceptance_6_fixture_factoid_coverage(
    nine_citations, nine_factoids, nine_idf
):
    g = build_citation_summary_network(nine_citations, nine_idf)
    cfg = RunConfig()
    clx = c_lexrank_summary(nine_citations, g, 100, cfg)
    clx_covered = covered_factoids(clx, nine_factoids)
    assert clx_covered == {"f1", "f2", "f3"}, f"c-lexrank covered only {clx_covered}"

    scores = lexrank(g, cfg.lexrank_edge_threshold, cfg.lexrank_damping)
    plain = assemble_from_ordering(nine_citations, scores, 100)
    assert len(covered_factoids(plain, nine_factoids)) <= len(clx_covered)
    report(6, "nine-sentence fixture factoid coverage")


# -----------------------------------------------------------------------
# 7. Diversity-aware selection beats random and round-robin on average
# -----------------------------------------------------------------------


def synthetic_citation_set(rng: random.Random, index: int):
    """Planted factoid communities with community-correlated vocabulary.

    Each community has one factoid; roughly 60% of its sentences state it
    with dense topical wording, the rest mention the topic vaguely and carry
    no factoid.  Filler words are sampled from a wide pool without repeats so
    they cannot glue unrelated sentences together: vague sentences attach to
    their own community (through the few topic words they share) but sit at
    its periphery.
    """
    communities = rng.randint(3, 5)
    filler = [f"filler{j}" for j in range(200)]
    sentences: list[Sentence] = []
    mapping: dict[str, frozenset] = {}
    sid = 0
    for c in range(communities):
        topic = [f"topic{c}w{j}" for j in range(10)]
        for _ in range(rng.randint(3, 7)):
            sid += 1
            informative = rng.random() < 0.6
            if informative:
                words = rng.choices(topic, k=rng.randint(9, 13)) + rng.sample(
                    filler, rng.randint(3, 5)
                )
            else:
                words = rng.sample(topic, rng.randint(3, 5)) + rng.sample(
                    filler, rng.randint(9, 13)
                )
            rng.shuffle(words)
            text = " ".join(words)
            sentences.append(
                Sentence(
                    id=f"s{sid}",
                    text=text,
                            word_count=len(words),
                    source_doc=f"doc{sid}",
                )
            )
            mapping[f"s{sid}"] = frozenset({f"f{c}"}) if informative else frozenset()
    cs = CitationSet(sentences=tuple(sentences))
    ann = FactoidAnnotation(
        factoid_ids=frozenset(f"f{c}" for c in range(communities)),
        sentence_factoids=mapping,
    )
    return cs, ann


def test_acceptance_7_ranking_method_ordering():
    rng = random.Random(127)
    budget = 100
    cfg = RunConfig()
    means = {"c-lexrank": [], "c-rr": [], "random": []}
    for index in range(50):
        cs, ann = synthetic_citation_set(rng, index)
        pyr = build_pyramid(ann)
        g = build_citation_summary_network(cs, uniform_idf())

        clx = c_lexrank_summary(cs, g, budget, cfg)
        means["c-lexrank"].append(pyramid_score(clx, ann, pyr).pyramid_score)

        crr_scores = [
            pyramid_score(c_rr_summary(cs, g, budget, seed), ann, pyr).pyramid_score
            for seed in range(5)
        ]
        means["c-rr"].append(sum(crr_scores) / len(crr_scores))

        rnd_scores = [
            pyramid_score(
                assemble_from_ordering(cs, random_order(cs, seed), budget), ann, pyr
            ).pyramid_score
            for seed in range(5)
        ]
        means["random"].append(sum(rnd_scores) / len(rnd_scores))

    mean = {k: sum(v) / len(v) for k, v in means.items()}
    assert mean["c-lexrank"] > mean["random"], mean
    assert mean["c-lexrank"] > mean["c-rr"], mean
    report(7, f"ranking ordering (c-lexrank {mean['c-lexrank']:.3f} > "
              f"c-rr {mean['c-rr']:.3f}, random {mean['random']:.3f})")


# -----------------------------------------------------------------------
# 8. Metric unit values
# -----------------------------------------------------------------------


def test_acceptance_8_metric_unit_values():
    # ROUGE-2 hand counts
    assert rouge_n("a b c", ["a b d"], n=2) == 0.5
    assert rouge_n("a b c d", ["a b c d"], n=2) == 1.0
    assert rouge_n("x y z", ["a b c"], n=2) == 0.0

    cs = toy_citation_set(["alpha beta gamma delta", "epsilon zeta eta theta"])
    same_a = NuggetSpanAnnotation("a", {"s1": ((0, 10),), "s2": ((8, 12),)})
    same_b = NuggetSpanAnnotation("b", {"s1": ((0, 10),), "s2": ((8, 12),)})
    for n in (1, 2, 3):
        assert ngram_kappa(same_a, same_b, cs, n) == 1.0

    # total disagreement: the two annotators mark complementary halves
    half_a = NuggetSpanAnnotation("a", {"s1": ((0, 10),), "s2": ((0, 12),)})
    half_b = NuggetSpanAnnotation("b", {"s1": ((11, 22),), "s2": ((13, 23),)})
    kappa = ngram_kappa(half_a, half_b, cs, 1)
    assert kappa < 0.0

    # symmetry
    mixed_a = NuggetSpanAnnotation("a", {"s1": ((0, 16),)})
    mixed_b = NuggetSpanAnnotation("b", {"s2": ((8, 17),)})
    for n in (1, 2, 3):
        assert ngram_kappa(mixed_a, mixed_b, cs, n) == ngram_kappa(mixed_b, mixed_a, cs, n)
    report(8, "metric unit values")


# -----------------------------------------------------------------------
# 9. CLI determinism
# -----------------------------------------------------------------------


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


def artifact_bytes(directory):
    return {
        p.name: p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }


def test_acceptance_9_cli_determinism(fixture_paths, tmp_path, capsys):
    citations = str(fixture_paths["citations"])
    idf = str(fixture_paths["idf"])
    factoids = str(fixture_paths["factoids"])

    def run_everything(root):
        for method in ("c-lexrank", "c-rr", "lexrank", "mmr", "divrank", "divrank-prior", "random"):
            run_cli(
                ["summarize", "--in", citations, "--idf", idf, "--method", method,
                 "--budget", "100", "--seed", "21", "--annotations", factoids,
                 "--out-dir", str(root / method)],
                capsys,
            )
        run_cli(["cluster", "--in", citations, "--idf", idf, "--out", str(root / "clusters.tsv")], capsys)
        stats = run_cli(["graph-stats", "--in", citations, "--idf", idf,
                         "--dot", str(root / "graph.dot")], capsys)
        (root / "stats.txt").write_bytes(stats.replace(str(root), "OUT").encode())
        run_cli(
            ["evaluate", "--metric", "pyramid",
             "--summary", str(root / "c-lexrank" / "w05-0622.c-lexrank.100.json"),
             "--citations", citations, "--annotations", factoids,
             "--out", str(root / "pyramid_report")],
            capsys,
        )
        cand = root / "cand.txt"
        cand.write_text("the cat sat on the mat\n", encoding="utf-8")
        refs = []
        for i, text in enumerate(["the cat sat on a mat", "a dog sat on the mat"]):
            ref = root / f"ref{i}.txt"
            ref.write_text(text + "\n", encoding="utf-8")
            refs.append(str(ref))
        run_cli(
            ["evaluate", "--metric", "rouge", "--candidate", str(cand),
             "--references", *refs, "--jackknife", "--out", str(root / "rouge_report")],
            capsys,
        )
        spans_a, spans_b = root / "spans_a.tsv", root / "spans_b.tsv"
        spans_a.write_text("ann1\ts1\t0\t11\nann1\ts2\t5\t16\n", encoding="utf-8")
        spans_b.write_text("ann2\ts1\t0\t19\nann2\ts3\t5\t16\n", encoding="utf-8")
        run_cli(
            ["evaluate", "--metric", "kappa", "--citations", citations,
             "--spans-a", str(spans_a), "--spans-b", str(spans_b),
             "--out", str(root / "kappa_report")],
            capsys,
        )

    run_everything(tmp_path / "a")
    run_everything(tmp_path / "b")
    first, second = artifact_bytes(tmp_path / "a"), artifact_bytes(tmp_path / "b")
    assert set(first) == set(second)
    assert len(first) >= 20
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    report(9, "cli determinism")
