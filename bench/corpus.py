"""Seeded planted-partition corpora for the benchmark, generated in O(arcs).

The benchmark owns this generator so that no change to the library can
change a workload's inputs. Each block of `block_size` accounts holds a
share of zombies (the last ids of the block before node ids are permuted);
the remaining "normal" accounts follow each other with probability `p_in`
inside a block, and never across blocks. Cells are drawn by geometric
skipping over the linear index of the candidate pairs (Batagelj & Brandes
2005, "Efficient generation of large random networks"), so the cost grows
with the number of arcs drawn, never with the number of candidate pairs.
A share RECIPROCITY of those arcs is followed back. Each zombie follows
ZOMBIE_OUT_DEGREE random normals of its block and is followed by at most
ZOMBIE_MAX_IN_DEGREE of them. Finally node ids are randomly permuted, so
block membership is not visible from id order.

Files are written in the formats the README documents: `weibo_network.txt`,
`uidlist.txt`, `user_profile.txt`, `truth.csv`, and, on request, the planted
`partition.csv`. The network text is rendered digit by digit with numpy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Bump whenever the random stream, the file layout or a constant below changes;
# it is part of the random seed and of the cache key.
GENERATOR_VERSION = 1

REGIONS = {"Beijing": 5.0, "Shanghai": 4.0, "Guangzhou": 3.0, "Chengdu": 2.0,
           "Harbin": 1.0}
RECIPROCITY = 0.2  # share of normal arcs that are followed back
ZOMBIE_FRACTION = 0.1  # of each block
ZOMBIE_OUT_DEGREE = (10, 20)  # inclusive range of normals each zombie follows
ZOMBIE_MAX_IN_DEGREE = 1  # normals that follow a zombie back, at most
CACHE_KEEP = 3  # corpora kept on disk by cached_corpus


@dataclass(frozen=True)
class Shape:
    """Parameters of one planted-partition corpus."""

    blocks: int
    block_size: int
    p_in: float

    @property
    def node_count(self) -> int:
        return self.blocks * self.block_size

    @property
    def zombies_per_block(self) -> int:
        return int(math.floor(ZOMBIE_FRACTION * self.block_size + 0.5))


@dataclass
class Corpus:
    """Arcs (sorted by source, then target) and truth over final node ids."""

    node_count: int
    sources: np.ndarray
    targets: np.ndarray
    block_ids: np.ndarray
    is_zombie: np.ndarray
    regions: np.ndarray  # index into sorted(REGIONS)


def _skip_sample(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Sorted distinct indices of [0, total), each kept independently with probability p."""
    if total <= 0 or p <= 0.0:
        return np.zeros(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    parts = []
    last = -1
    while True:
        expected = (total - 1 - last) * p
        gaps = rng.geometric(p, size=int(expected + 4.0 * math.sqrt(expected) + 16))
        idx = last + np.cumsum(gaps)
        parts.append(idx[idx < total])
        if idx[-1] >= total:
            return np.concatenate(parts)
        last = int(idx[-1])


def generate(shape: Shape, seed: int) -> Corpus:
    """Draw a corpus; the same shape and seed give the same corpus."""
    rng = np.random.Generator(np.random.PCG64([GENERATOR_VERSION, seed]))
    b, s = shape.blocks, shape.block_size
    z = shape.zombies_per_block
    nn = s - z  # normals per block
    lo, hi = ZOMBIE_OUT_DEGREE
    if nn < 2 or hi > nn or ZOMBIE_MAX_IN_DEGREE > nn:
        raise ValueError("blocks are too small for the zombie settings")
    n = b * s

    # Planned ids: block k holds [k*s, (k+1)*s); its last z ids are zombies.

    # 1) inside blocks: ordered pairs of distinct normals, probability p_in
    cells = nn * (nn - 1)
    idx = _skip_sample(rng, b * cells, shape.p_in)
    blk, r = idx // cells, idx % cells
    a, c = r // (nn - 1), r % (nn - 1)
    c = c + (c >= a)
    src_n, dst_n = blk * s + a, blk * s + c

    # 2) reciprocation of normal arcs
    back = rng.random(src_n.shape[0]) < RECIPROCITY
    src = [src_n, dst_n[back]]
    dst = [dst_n, src_n[back]]

    # 3) zombies follow normals of their block; a few normals follow them back
    zombies = (np.arange(b)[:, None] * s + nn + np.arange(z)[None, :]).ravel()
    out_deg = rng.integers(lo, hi + 1, size=zombies.shape[0])
    zsrc = np.repeat(zombies, out_deg)
    src.append(zsrc)
    dst.append((zsrc // s) * s + rng.integers(0, nn, size=zsrc.shape[0]))
    fans = rng.integers(0, ZOMBIE_MAX_IN_DEGREE + 1, size=zombies.shape[0])
    zdst = np.repeat(zombies, fans)
    src.append((zdst // s) * s + rng.integers(0, nn, size=zdst.shape[0]))
    dst.append(zdst)

    # 4) permute ids, then drop repeated arcs (reciprocation and zombie draws)
    perm = rng.permutation(n)
    keys = np.sort(perm[np.concatenate(src)] * n + perm[np.concatenate(dst)])
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]

    planned = np.arange(n)
    block_ids = np.empty(n, dtype=np.int64)
    block_ids[perm] = planned // s
    is_zombie = np.empty(n, dtype=bool)
    is_zombie[perm] = planned % s >= nn
    weights = np.asarray([REGIONS[k] for k in sorted(REGIONS)])
    regions = rng.choice(len(weights), size=n, p=weights / weights.sum())
    return Corpus(n, keys // n, keys % n, block_ids, is_zombie, regions)


def render_ints(values: np.ndarray, separators: np.ndarray) -> bytes:
    """ASCII decimal of each non-negative value followed by its separator byte."""
    values = np.asarray(values, dtype=np.int64)
    digits = np.ones(values.shape[0], dtype=np.int64)
    power = 10
    while values.shape[0] and power <= values.max():
        digits += values >= power
        power *= 10
    ends = np.cumsum(digits + 1)  # one past each separator
    buf = np.empty(int(ends[-1]) if ends.shape[0] else 0, dtype=np.uint8)
    buf[ends - 1] = separators
    for d in range(int(digits.max()) if digits.shape[0] else 0):
        has = digits > d  # the value has a digit at 10**d
        buf[ends[has] - 2 - d] = 48 + (values[has] // 10 ** d) % 10
    return buf.tobytes()


def network_text(corpus: Corpus) -> bytes:
    """The network file: header `N M`, then `u k v1 f1 ... vk fk` for every node u.

    Every arc is listed in its source's row; the flag is 1 when the reverse
    arc exists too, so re-materializing reverse arcs on load adds nothing.
    """
    n = corpus.node_count
    src, dst = corpus.sources, corpus.targets
    m = src.shape[0]
    flags = np.isin(dst * n + src, src * n + dst, assume_unique=True,
                    kind="sort").astype(np.int64)

    deg = np.bincount(src, minlength=n)
    arc_start = np.concatenate([[0], np.cumsum(deg)[:-1]])
    row_start = 2 * np.arange(n) + 2 * arc_start  # token index of each row's id
    tokens = np.empty(2 * n + 2 * m, dtype=np.int64)
    tokens[row_start] = np.arange(n)
    tokens[row_start + 1] = deg
    arc_tok = row_start[src] + 2 + 2 * (np.arange(m) - arc_start[src])
    tokens[arc_tok] = dst
    tokens[arc_tok + 1] = flags
    seps = np.full(tokens.shape[0], ord(" "), dtype=np.uint8)
    seps[row_start + 1 + 2 * deg] = ord("\n")
    return f"{n} {m}\n".encode("ascii") + render_ints(tokens, seps)


def write_corpus(corpus: Corpus, out_dir: Path, with_partition: bool = False) -> None:
    """Write the corpus files into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    n = corpus.node_count
    labels = sorted(REGIONS)
    region = [labels[i] for i in corpus.regions]
    uids = [str(1_000_000 + i) for i in range(n)]
    (out_dir / "weibo_network.txt").write_bytes(network_text(corpus))
    (out_dir / "uidlist.txt").write_text("".join(u + "\n" for u in uids), encoding="ascii")
    fans = np.bincount(corpus.targets, minlength=n).tolist()
    follows = np.bincount(corpus.sources, minlength=n).tolist()
    (out_dir / "user_profile.txt").write_text("".join(
        f"{uids[i]}\tuser_{i}\t{'f' if i % 2 else 'm'}\tno\t{region[i]}\t"
        f"{fans[i]}\t{follows[i]}\t0\n" for i in range(n)), encoding="ascii")
    blocks = corpus.block_ids.tolist()
    zombie = corpus.is_zombie.tolist()
    (out_dir / "truth.csv").write_text(
        "node_id,block_id,is_zombie,region\n" + "".join(
            f"{i},{blocks[i]},{1 if zombie[i] else 0},{region[i]}\n" for i in range(n)),
        encoding="ascii")
    if with_partition:
        (out_dir / "partition.csv").write_text(
            "node_id,community_id\n" + "".join(f"{i},{blocks[i]}\n" for i in range(n)),
            encoding="ascii")


def cached_corpus(cache_root: Path, name: str, shape: Shape, seed: int,
                  with_partition: bool = False) -> Path:
    """Directory holding the corpus for (name, shape, seed), generated on first use.

    At most CACHE_KEEP corpora stay on disk; the least recently used go first.
    """
    spec = json.dumps(dataclasses.asdict(shape), sort_keys=True)
    digest = hashlib.sha256(spec.encode()).hexdigest()[:12]
    target = cache_root / f"{name}-{digest}-s{seed}-g{GENERATOR_VERSION}"
    if not target.is_dir():
        cache_root.mkdir(parents=True, exist_ok=True)
        partial = cache_root / f".partial-{os.getpid()}"
        shutil.rmtree(partial, ignore_errors=True)
        # a child process, so that generation leaves no trace in the caller's peak RSS
        subprocess.run([sys.executable, __file__, str(partial), str(seed), spec]
                       + (["--partition"] if with_partition else []), check=True)
        os.replace(partial, target)
    os.utime(target)
    entries = sorted((p for p in cache_root.iterdir() if not p.name.startswith(".")),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in entries[CACHE_KEEP:]:
        shutil.rmtree(stale, ignore_errors=True)
    return target


def main(argv=None) -> int:
    """Generate one corpus: `corpus.py OUT_DIR SEED SHAPE_JSON [--partition]`."""
    args = sys.argv[1:] if argv is None else argv
    write_corpus(generate(Shape(**json.loads(args[2])), int(args[1])), Path(args[0]),
                 with_partition="--partition" in args[3:])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
