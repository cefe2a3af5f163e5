"""Zombie-account detection for directed follower graphs.

Pipeline: ingest a follower network, split it into communities by greedy
modularity optimization, rank accounts inside each community with an
unevenly-weighted power iteration, and flag accounts whose importance
falls below the community's IQR lower fence.
"""

import ctypes
import sys

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

# glibc's M_MMAP_THRESHOLD: blocks of this size or more get their own mapping
_MMAP_THRESHOLD = 1 << 20


def _pin_mmap_threshold() -> None:
    """Give every block of 1 MiB or more its own mapping, unmapped when freed.

    glibc starts at 128 KiB but raises its threshold to the size of each
    mapped block freed, up to 32 MiB. Arrays up to that size then come from
    the heap, where freed pages stay resident and a block that fits no hole
    grows the heap, so the peak RSS of one and the same run moves with the
    sizes and order of earlier frees. Setting the threshold once turns that
    rule off; below 1 MiB, a missed hole costs little. Off Linux, nothing
    is set.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD


# once per process, at import, before the package allocates any array
_pin_mmap_threshold()

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
