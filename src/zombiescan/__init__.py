"""Zombie-account detection for directed follower graphs.

Pipeline: ingest a follower network, split it into communities by greedy
modularity optimization, rank accounts inside each community with an
unevenly-weighted power iteration, and flag accounts whose importance
falls below the community's IQR lower fence.
"""

from .community import Dendrogram, LouvainConfig, Partition, louvain, modularity, move_gain
from .detect import ZombieReport, detect_zombies, iqr_threshold, quartiles
from .errors import CacheError, ParseError, ValidationError
from .evaluate import (ConfusionMatrix, MetricSet, confusion, degree_histogram,
                       metrics, region_distribution)
from .graph import DirectedGraph, UndirectedGraph, build_graph, symmetrize
from .ingest import (ProfileTable, RawNetwork, cache_load, cache_save, parse_profiles,
                     parse_uidlist, parse_weibo_network)
from .rank import (ImportanceVector, IOScores, RankConfig, io_scores_for, pagerank,
                   rank_all_communities)
from .synth import GroundTruth, SynthConfig, emit_weibo_format, generate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "build_graph", "symmetrize",
    "DirectedGraph", "UndirectedGraph",
    "parse_weibo_network", "parse_uidlist", "parse_profiles",
    "cache_save", "cache_load", "RawNetwork", "ProfileTable",
    "louvain", "modularity", "move_gain",
    "Partition", "LouvainConfig", "Dendrogram",
    "io_scores_for", "pagerank",
    "rank_all_communities", "IOScores", "RankConfig", "ImportanceVector",
    "quartiles", "iqr_threshold", "detect_zombies", "ZombieReport",
    "confusion", "metrics", "region_distribution", "degree_histogram",
    "ConfusionMatrix", "MetricSet",
    "generate", "emit_weibo_format", "SynthConfig", "GroundTruth",
    "ValidationError", "ParseError", "CacheError",
]
