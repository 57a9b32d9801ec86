"""Diversity-aware extractive summarization of citation sentences.

Builds a weighted similarity network over the sentences citing a paper,
detects communities of sentences that discuss the same contribution, and
extracts the most central sentence of each community in turn, largest
community first.  Ships the baseline rankers (LexRank, MMR, two reinforced
walk variants, seeded random), pyramid/kappa/ROUGE evaluation, and a CLI.
"""

__version__ = "0.1.0"

from .community import Clustering, cluster_cnm, modularity, nmi, purity
from .corpus import (
    CitationSet,
    DataError,
    FactoidAnnotation,
    IdfTable,
    NuggetSpanAnnotation,
    ParseError,
    RunConfig,
    Sentence,
    ValidationError,
    load_citation_set,
    load_factoid_annotation,
    load_idf_table,
    load_nugget_spans,
    uniform_idf,
)
from .evaluate import EvalReport, Pyramid, build_pyramid, ngram_kappa, pyramid_score, rouge_n
from .graph import (
    PathStats,
    SimilarityGraph,
    average_shortest_path,
    build_citation_summary_network,
    clustering_coefficient,
    to_dot,
)
from .lexical import TermVector, TokenizerConfig, tfidf_vector, tokenize
from .rank import (
    Ordering,
    RankScores,
    divrank,
    divrank_prior_from_length,
    lexrank,
    mmr_order,
    random_order,
)
from .summarize import Summary, assemble_from_ordering, c_lexrank_summary, c_rr_summary

__all__ = [
    "CitationSet",
    "Clustering",
    "DataError",
    "EvalReport",
    "FactoidAnnotation",
    "IdfTable",
    "NuggetSpanAnnotation",
    "Ordering",
    "ParseError",
    "PathStats",
    "Pyramid",
    "RankScores",
    "RunConfig",
    "Sentence",
    "SimilarityGraph",
    "Summary",
    "TermVector",
    "TokenizerConfig",
    "ValidationError",
    "assemble_from_ordering",
    "average_shortest_path",
    "build_citation_summary_network",
    "build_pyramid",
    "c_lexrank_summary",
    "c_rr_summary",
    "cluster_cnm",
    "clustering_coefficient",
    "divrank",
    "divrank_prior_from_length",
    "lexrank",
    "load_citation_set",
    "load_factoid_annotation",
    "load_idf_table",
    "load_nugget_spans",
    "mmr_order",
    "modularity",
    "ngram_kappa",
    "nmi",
    "purity",
    "pyramid_score",
    "random_order",
    "rouge_n",
    "tfidf_vector",
    "to_dot",
    "tokenize",
    "uniform_idf",
]
