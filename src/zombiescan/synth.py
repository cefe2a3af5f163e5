"""Synthetic follower graphs with planted communities and injected zombies.

Normal accounts follow each other by block-wise Bernoulli trials (dense
inside a block, sparse across blocks), optionally reciprocating. Zombie
accounts mimic fake followers: they follow many accounts inside their
block but almost nobody follows them back, so their credibility and
importance both collapse.

Generation is driven by numpy's PCG64 stream, so a config plus seed
reproduces a corpus exactly within one numpy generation; committed golden
corpora are the durable reference.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import numbers
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .graph import DirectedGraph, _build_graph
from .ingest import ProfileTable, write_uidlist, write_weibo_network
from .textio import UTF8, code_column, int_column, read_text, split_csv, text_stream

log = logging.getLogger(__name__)

__all__ = ["SynthConfig", "GroundTruth", "generate", "emit_weibo_format",
           "write_truth_csv", "read_truth_csv"]

_FIRST_UID = 1_000_000
_DEFAULT_REGIONS = {"Beijing": 5.0, "Shanghai": 4.0, "Guangzhou": 3.0,
                    "Chengdu": 2.0, "Harbin": 1.0}


def _integral(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SynthConfig:
    block_sizes: tuple[int, ...] = (100, 100)
    p_in: float = 0.1
    p_out: float = 0.01
    reciprocity: float = 0.2
    zombie_fraction: float = 0.0
    zombie_out_degree: tuple[int, int] = (10, 20)
    zombie_max_in_degree: int = 1
    regions: dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_REGIONS))
    seed: int = 0

    def __post_init__(self):
        # each type is checked before its range, so every comparison is between numbers
        sizes, degrees, regions = self.block_sizes, self.zombie_out_degree, self.regions
        if not (isinstance(sizes, tuple) and sizes
                and all(_integral(s) and s >= 1 for s in sizes)):
            raise ValidationError("block_sizes must be a nonempty list of positive integers")
        for name in ("p_in", "p_out", "reciprocity", "zombie_fraction"):
            p = getattr(self, name)
            if not (_real(p) and 0 <= p <= 1):
                raise ValidationError(f"{name} must be a number in [0, 1]")
        if self.zombie_fraction == 1:
            raise ValidationError("zombie_fraction must be below 1")
        if not (isinstance(degrees, tuple) and len(degrees) == 2
                and all(map(_integral, degrees)) and 0 <= degrees[0] <= degrees[1]):
            raise ValidationError("zombie_out_degree must be a (lo, hi) pair of integers "
                                  "with 0 <= lo <= hi")
        for name in ("zombie_max_in_degree", "seed"):
            value = getattr(self, name)
            if not (_integral(value) and value >= 0):
                raise ValidationError(f"{name} must be a non-negative integer")
        if not (isinstance(regions, dict) and all(isinstance(r, str) for r in regions)
                and all(_real(w) and 0 <= w < math.inf for w in regions.values())
                and sum(regions.values()) > 0):
            raise ValidationError("regions must map names to finite non-negative weights "
                                  "summing above 0")

    @property
    def node_count(self) -> int:
        return sum(self.block_sizes)

    @classmethod
    def from_json(cls, source) -> "SynthConfig":
        """The config of a JSON object (UTF-8) keyed by field name; a list
        stands for a tuple. Invalid JSON is a ParseError naming its line, and
        JSON nested too deeply to decode is one on line 1."""
        text = read_text(source, UTF8)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply", 1) from None
        if not isinstance(data, dict):
            raise ValidationError("synth config must be a JSON object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValidationError(f"unknown synth config keys: {sorted(unknown)}")
        for name in ("block_sizes", "zombie_out_degree"):
            if isinstance(data.get(name), list):
                data[name] = tuple(data[name])
        return cls(**data)


@dataclass
class GroundTruth:
    """What the generator planted, for scoring detections later."""

    block_ids: np.ndarray
    is_zombie: np.ndarray
    regions: list[str]

    @property
    def node_count(self) -> int:
        return int(self.block_ids.shape[0])

    def labels(self) -> np.ndarray:
        """is_zombie: the label of each node, by node id."""
        return self.is_zombie


def _zombie_allocation(cfg: SynthConfig) -> list[int]:
    """Zombies per block: round(fraction * N) split by largest remainder."""
    n = cfg.node_count
    total = int(math.floor(cfg.zombie_fraction * n + 0.5))
    quotas = [total * size / n for size in cfg.block_sizes]
    counts = [math.floor(q) for q in quotas]
    remainder = total - sum(counts)
    by_frac = sorted(range(len(quotas)), key=lambda b: (-(quotas[b] - counts[b]), b))
    for b in by_frac[:remainder]:
        counts[b] += 1
    return counts


def generate(cfg: SynthConfig) -> tuple[DirectedGraph, GroundTruth, ProfileTable]:
    """Build (graph, truth, profiles) deterministically from the config seed."""
    if cfg.p_in <= cfg.p_out:
        log.warning("p_in (%g) <= p_out (%g): planted blocks will not be detectable",
                    cfg.p_in, cfg.p_out)
    n = cfg.node_count
    starts = np.concatenate([[0], np.cumsum(cfg.block_sizes)])
    block_ids = np.repeat(np.arange(len(cfg.block_sizes)), cfg.block_sizes)

    zombie_counts = _zombie_allocation(cfg)
    is_zombie = np.zeros(n, dtype=bool)
    for b, z in enumerate(zombie_counts):
        if z:
            is_zombie[starts[b + 1] - z:starts[b + 1]] = True  # last z ids of the block

    lo, hi = cfg.zombie_out_degree
    for b, z in enumerate(zombie_counts):
        normals_in_block = cfg.block_sizes[b] - z
        if z and hi > normals_in_block:
            raise ValidationError(
                f"block {b} has {normals_in_block} normal accounts but zombies "
                f"need up to {hi} targets")
        if z and cfg.zombie_max_in_degree > normals_in_block:
            raise ValidationError(
                f"block {b} has {normals_in_block} normal accounts but zombies "
                f"allow up to {cfg.zombie_max_in_degree} fans")

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []

    normal_by_block = [np.flatnonzero(~is_zombie & (block_ids == b))
                       for b in range(len(cfg.block_sizes))]

    # 1) block-wise Bernoulli arcs among normal accounts
    for a in range(len(cfg.block_sizes)):
        for b in range(len(cfg.block_sizes)):
            p = cfg.p_in if a == b else cfg.p_out
            rows, cols = normal_by_block[a], normal_by_block[b]
            if p == 0.0 or rows.size == 0 or cols.size == 0:
                continue
            hits = rng.random((rows.size, cols.size)) < p
            if a == b:
                np.fill_diagonal(hits, False)
            i, j = np.nonzero(hits)
            src_parts.append(rows[i])
            dst_parts.append(cols[j])

    # 2) reciprocation of the Bernoulli arcs
    if src_parts:
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)
    if cfg.reciprocity > 0 and src.size:
        back = rng.random(src.size) < cfg.reciprocity
        src, dst = np.concatenate([src, dst[back]]), np.concatenate([dst, src[back]])
    srcs = [src]
    dsts = [dst]

    # 3) zombie out-arcs and the few fans they are allowed
    for b, z in enumerate(zombie_counts):
        if not z:
            continue
        normals = normal_by_block[b]
        for zombie in range(starts[b + 1] - z, starts[b + 1]):
            out_deg = int(rng.integers(lo, hi + 1))
            if out_deg:
                targets = rng.choice(normals, size=out_deg, replace=False)
                srcs.append(np.full(out_deg, zombie, dtype=np.int64))
                dsts.append(targets)
            fans = int(rng.integers(0, cfg.zombie_max_in_degree + 1))
            if fans:
                followers = rng.choice(normals, size=fans, replace=False)
                srcs.append(followers)
                dsts.append(np.full(fans, zombie, dtype=np.int64))

    # reciprocation can resample an arc that already exists; the build drops repeats
    all_src = np.concatenate(srcs).astype(np.int64)
    all_dst = np.concatenate(dsts).astype(np.int64)

    # 4) regions
    labels = sorted(cfg.regions)
    weights = np.asarray([cfg.regions[r] for r in labels], dtype=np.float64)
    region_codes = rng.choice(len(labels), size=n, p=weights / weights.sum())

    graph = _build_graph(all_src, all_dst, np.zeros_like(all_src), n)
    truth = GroundTruth(block_ids, is_zombie, [labels[i] for i in region_codes.tolist()])
    known = np.zeros(n, dtype=bool)
    profiles = ProfileTable(region_codes.astype(np.int64), labels,
                            graph.in_degrees.astype(np.int64), known,
                            graph.out_degrees.astype(np.int64), known.copy())
    return graph, truth, profiles


_TRUTH_HEADER = ("node_id", "block_id", "is_zombie", "region")
_TRUTH_FLAGS = {"0": False, "1": True, "true": True, "false": False, "True": True,
                "False": False}


def write_truth_csv(truth: GroundTruth, destination) -> None:
    """Emit `node_id,block_id,is_zombie,region` rows (UTF-8)."""
    with text_stream(destination, "w", UTF8) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_TRUTH_HEADER)
        writer.writerows(zip(range(truth.node_count), truth.block_ids.tolist(),
                             truth.is_zombie.astype(np.int64).tolist(), truth.regions))


def read_truth_csv(source) -> GroundTruth:
    """Read a truth file (UTF-8); `is_zombie` must be one of 0/1/true/false/True/False."""
    rows = split_csv(read_text(source, UTF8), "truth", _TRUTH_HEADER)
    nodes, bad_nodes = int_column(rows.columns[0])
    blocks, bad_blocks = int_column(rows.columns[1])
    flags = code_column(rows.columns[2], _TRUTH_FLAGS)
    # a row without a region field is short; the other fields refuse ""
    rows.check((bad_nodes | bad_blocks | (flags < 0) | (rows.widths < 4)
                | (nodes != np.arange(len(rows))), lambda i: f"bad truth row: {rows.row(i)!r}"))
    if not len(rows):
        raise ValidationError("truth file is empty")
    return GroundTruth(blocks, flags > 0, rows.columns[3])


def emit_weibo_format(g: DirectedGraph, truth: GroundTruth,
                      profiles: ProfileTable, out_dir) -> dict[str, Path]:
    """Write the network/uidlist/profile/truth files for a generated corpus.

    Node i gets uid 1000000 + i, name user_i, gender m or f in turn, no
    verification and no tweets; its region and counts come from `profiles`.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "network": out / "weibo_network.txt",
        "uidlist": out / "uidlist.txt",
        "profiles": out / "user_profile.txt",
        "truth": out / "truth.csv",
    }
    write_weibo_network(g, paths["network"])
    n = len(profiles)
    uids = range(_FIRST_UID, _FIRST_UID + n)
    write_uidlist(list(map(str, uids)), paths["uidlist"])
    regions = np.array(profiles.region_names + [""], dtype=object)[profiles.region_codes]
    # a masked count is written blank
    counts = [np.where(missing, "", values.astype(str)).tolist() for values, missing in
              ((profiles.followers, profiles.followers_missing),
               (profiles.followees, profiles.followees_missing))]
    rows = zip(uids, range(n), cycle("mf"), regions.tolist(), *counts)
    with text_stream(paths["profiles"], "w", UTF8) as fh:
        fh.write("".join(map("%d\tuser_%d\t%s\tno\t%s\t%s\t%s\t0\n".__mod__, rows)))
    write_truth_csv(truth, paths["truth"])
    return paths
