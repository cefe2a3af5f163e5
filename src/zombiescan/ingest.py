"""Parsers for the follower-network text formats and a binary graph cache.

The network file layout: a header line "N M", then N adjacency lines. Each
adjacency line is "v1 k" followed by 2k integers alternating target id and
relationship flag, where flag 1 marks a reciprocal follow. Any run of ASCII
whitespace separates tokens. Adjacency lines may appear in any node order.

The binary cache stores a parsed graph so the text parse runs once; the
layout is documented next to the reader below.
"""

from __future__ import annotations

import io
import logging
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CacheError, ParseError, ValidationError
from .graph import DirectedGraph, _build_graph, _index_dtype, _pair_keys
from .textio import (ASCII, INT64_MAX, UTF8, decode, int_column, read_text,
                     render_ints, split_fields, text_stream)

log = logging.getLogger(__name__)

__all__ = [
    "RawNetwork",
    "ProfileTable",
    "ProfileSchema",
    "parse_weibo_network",
    "write_weibo_network",
    "parse_uidlist",
    "write_uidlist",
    "parse_profiles",
    "write_profiles",
    "cache_save",
    "cache_load",
]


@dataclass
class RawNetwork:
    """Arc list as read from a network file, before graph construction."""

    node_count: int
    declared_edge_count: int
    sources: np.ndarray
    targets: np.ndarray
    flags: np.ndarray

    @property
    def arc_count(self) -> int:
        return int(self.sources.shape[0])

    def to_graph(self) -> DirectedGraph:
        return _build_graph(self.sources, self.targets, self.flags, self.node_count)


def _ints(line: str, lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise ParseError("non-integer token", lineno) from None


# the only bytes the whole-buffer parse accepts; anything else goes line by line
_FAST_CHARSET = b"0123456789 \t\n"


def parse_weibo_network(source) -> RawNetwork:
    """Parse a network file into a RawNetwork.

    The input is read once. A file of digits, spaces, tabs and LFs whose
    records all check out is converted as one buffer; any other file (CR
    line ends, signs, other whitespace, a malformed record) is parsed line
    by line, which accepts what the fast path leaves out and reports the
    failing line. Both give the same arrays.

    A mismatch between the declared edge count and the number of parsed
    arcs is logged as a warning, not raised; published counts for the same
    crawl are known to disagree with each other.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = fh.read()
    else:
        data = source.read()
    if isinstance(data, str):
        raw = _parse_buffer(data.encode("ascii")) if data.isascii() else None
    else:
        raw = _parse_buffer(data)
    if raw is None:
        # a text stream has already applied its own newline handling; bytes are
        # read as open() in text mode reads them: ASCII, universal newlines
        raw = _parse_lines(io.StringIO(data if isinstance(data, str) else decode(data, ASCII)))
    if raw.arc_count != raw.declared_edge_count:
        log.warning("network declares %d relationships but %d arcs were parsed",
                    raw.declared_edge_count, raw.arc_count)
    return raw


def _parse_buffer(buf: bytes) -> RawNetwork | None:
    """Whole-buffer parse; None when the file needs the line-aware parser."""
    if not buf or buf.translate(None, _FAST_CHARSET):
        return None
    chars = np.frombuffer(buf, dtype=np.uint8)
    # a token starts at a digit (the only bytes above space here) after whitespace
    digit = chars > 32
    first = np.empty_like(digit)
    first[0] = digit[0]
    np.greater(digit[1:], digit[:-1], out=first[1:])
    del digit
    token_pos = np.flatnonzero(first)
    del first
    # tokens before each LF; line i holds tokens [ends[i - 1], ends[i])
    ends = np.searchsorted(token_pos, np.flatnonzero(chars == 10))
    token_count = token_pos.shape[0]
    del token_pos
    bounds = np.concatenate([[0], ends, [token_count]])
    counts = np.diff(bounds)
    if counts[0] != 2:
        return None
    values = np.fromstring(buf, dtype=np.int64, sep=" ")
    if values.shape[0] != token_count:
        return None
    n, declared_m = int(values[0]), int(values[1])
    if INT64_MAX in (n, declared_m):  # an oversized token clamps to INT64_MAX
        return None

    records = np.flatnonzero(counts[1:]) + 1  # nonblank lines after the header
    if records.shape[0] != n:
        return None
    widths, heads = counts[records], bounds[records]
    if (widths < 2).any() or (widths % 2).any():
        return None
    # each record is `v1 k` then k (target, flag) pairs; no value here is negative
    v1, k = values[heads], values[heads + 1]
    if (k != widths // 2 - 1).any() or (v1 >= n).any():
        return None
    pairs = values[2:].reshape(-1, 2)
    arc = np.ones(pairs.shape[0], dtype=bool)
    arc[(heads - 2) // 2] = False
    targets = pairs[arc, 0]
    flags = pairs[arc, 1]
    if targets.shape[0] and (targets.max() >= n or flags.max() > 1):
        return None
    return RawNetwork(n, declared_m, np.repeat(v1, k), targets, flags)


def _parse_lines(source) -> RawNetwork:
    """Line-by-line parse; raises ParseError with the line of the first fault."""
    with text_stream(source) as fh:
        header = fh.readline()
        if not header or not header.strip():
            raise ParseError("empty file", 1)
        head = _ints(header, 1)
        if len(head) != 2:
            raise ParseError("header must be two integers: node count and edge count", 1)
        n, declared_m = head
        if n < 0 or declared_m < 0:
            raise ParseError("negative count in header", 1)
        if n > INT64_MAX:
            raise ParseError(f"node count {n} does not fit a 64-bit id", 1)

        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        flags: list[np.ndarray] = []
        records = 0
        lineno = 1
        while records < n:
            line = fh.readline()
            lineno += 1
            if not line:
                raise ParseError(f"expected {n} adjacency records, found {records}", lineno)
            if not line.strip():
                continue
            nums = _ints(line, lineno)
            if len(nums) < 2:
                raise ParseError("adjacency record needs at least 'node_id k'", lineno)
            v1, k = nums[0], nums[1]
            if not 0 <= v1 < n:
                raise ParseError(f"node id {v1} outside [0, {n})", lineno)
            if k < 0:
                raise ParseError(f"negative neighbor count {k}", lineno)
            if len(nums) != 2 + 2 * k:
                raise ParseError(
                    f"record for node {v1} declares {k} neighbors but carries "
                    f"{len(nums) - 2} trailing numbers (expected {2 * k})", lineno)
            if k:
                # range-check the Python ints, so no value overflows int64 below
                ids, fl = nums[2::2], nums[3::2]
                if min(ids) < 0 or max(ids) >= n:
                    raise ParseError(f"target id outside [0, {n})", lineno)
                if min(fl) < 0 or max(fl) > 1:
                    raise ParseError("relationship flag must be 0 or 1", lineno)
                tail = np.asarray(nums[2:], dtype=np.int64).reshape(k, 2)
                sources.append(np.full(k, v1, dtype=np.int64))
                targets.append(tail[:, 0])
                flags.append(tail[:, 1])
            records += 1
        rest = fh.read()
        if rest and rest.strip():
            raise ParseError("trailing content after the declared adjacency records",
                             lineno + 1)

    src = np.concatenate(sources) if sources else np.zeros(0, dtype=np.int64)
    dst = np.concatenate(targets) if targets else np.zeros(0, dtype=np.int64)
    fl = np.concatenate(flags) if flags else np.zeros(0, dtype=np.int64)
    return RawNetwork(n, declared_m, src, dst, fl)


_RENDER_CHUNK = 1 << 18  # tokens rendered at a time, to bound the temporaries


def write_weibo_network(raw_or_graph, destination) -> None:
    """Serialize a RawNetwork or DirectedGraph in the network text layout.

    Rows are emitted for every node in id order; a graph's flags mark the
    arcs whose reverse arc is also present.
    """
    raw = raw_or_graph if isinstance(raw_or_graph, RawNetwork) else _flagged_arcs(raw_or_graph)
    n = raw.node_count
    sources, targets = raw.sources, raw.targets
    order = np.lexsort((targets, sources))
    bounds = np.searchsorted(sources[order], np.arange(n + 1))
    order = order[bounds[0]:bounds[-1]]  # the arcs whose source is a node id
    degrees = np.diff(bounds)
    # row u is `u k` and its k (target, flag) pairs; its first token is at row_start[u]
    row_start = 2 * np.arange(n) + 2 * (bounds[:-1] - bounds[0])
    tokens = np.empty(2 * n + 2 * order.shape[0], dtype=np.int64)
    tokens[row_start] = np.arange(n)
    tokens[row_start + 1] = degrees
    pairs = np.ones(tokens.shape[0], dtype=bool)
    pairs[row_start] = pairs[row_start + 1] = False
    tokens[pairs] = np.stack([targets[order], raw.flags[order]], axis=1).ravel()
    if tokens.shape[0] and tokens.min() < 0:
        raise ValidationError("network ids and flags must be non-negative")
    separators = np.full(tokens.shape[0], ord(" "), dtype=np.uint8)
    separators[row_start + 1 + 2 * degrees] = ord("\n")
    with text_stream(destination, "w") as fh:
        fh.write(f"{n} {raw.arc_count}\n")
        for lo in range(0, tokens.shape[0], _RENDER_CHUNK):
            hi = lo + _RENDER_CHUNK
            fh.write(render_ints(tokens[lo:hi], separators[lo:hi]).decode(ASCII))


def _flagged_arcs(g: DirectedGraph) -> RawNetwork:
    """A graph's arcs as a RawNetwork, flag 1 where the reverse arc exists."""
    n = g.node_count
    sources = g.arc_sources()
    # the out-CSR lists arcs sorted by (source, target), so their keys are sorted;
    # looking the reverse keys up in sorted order keeps the binary searches
    # cache-local, and the hits are scattered back to arc order
    keys = _pair_keys(sources, g.out_indices, n)
    reverse = _pair_keys(g.out_indices, sources, n)
    order = np.argsort(reverse)
    reverse = reverse[order]
    pos = np.searchsorted(keys, reverse)
    found = pos < keys.shape[0]
    found[found] = keys[pos[found]] == reverse[found]
    flags = np.empty(keys.shape[0], dtype=np.int64)
    flags[order] = found
    return RawNetwork(n, g.edge_count, sources, g.out_indices, flags)


def parse_uidlist(source) -> list[tuple[int, str]]:
    """Read one external uid per line (UTF-8); line i maps to node id i.

    Blank lines may end the list; one followed by a uid is an error."""
    uids = [line.strip() for line in read_text(source, UTF8).split("\n")]
    while uids and not uids[-1]:
        uids.pop()
    if not uids:
        raise ParseError("uid list is empty", 1)
    if "" in uids:
        raise ParseError("blank line inside uid list", uids.index("") + 1)
    return list(enumerate(uids))


def write_uidlist(uids: list[str], destination) -> None:
    with text_stream(destination, "w", UTF8) as fh:
        fh.write("".join(uid + "\n" for uid in uids))


_PROFILE_TEXT_FIELDS = ("uid", "name", "gender", "verification", "region")
_PROFILE_INT_FIELDS = ("followers", "followees", "tweets")


@dataclass(eq=False)
class ProfileTable:
    """Profile records as columns, one row per node in file order.

    Text columns hold "" where a record leaves the field blank or lacks it.
    Each count column is int64, beside a mask of the rows whose value is
    blank, unparseable, outside int64 or absent; a masked entry reads 0.
    Regions are codes into `region_names`, -1 where blank.
    """

    uid: list[str]
    name: list[str]
    gender: list[str]
    verification: list[str]
    region_codes: np.ndarray
    region_names: list[str]
    followers: np.ndarray
    followers_missing: np.ndarray
    followees: np.ndarray
    followees_missing: np.ndarray
    tweets: np.ndarray
    tweets_missing: np.ndarray

    def __len__(self) -> int:
        return int(self.region_codes.shape[0])

    @property
    def regions(self) -> list[str]:
        """The region of each row, "" where blank."""
        return np.array(self.region_names + [""], dtype=object)[self.region_codes].tolist()


@dataclass
class ProfileSchema:
    """Column order and delimiter of a profile file.

    The on-disk encoding is not standardized, so callers supply the layout.
    Use "_" for columns to ignore.
    """

    fields: tuple[str, ...] = ("uid", "name", "gender", "verification", "region",
                               "followers", "followees", "tweets")
    delimiter: str = "\t"

    def __post_init__(self):
        known = set(_PROFILE_TEXT_FIELDS) | set(_PROFILE_INT_FIELDS) | {"_"}
        for f in self.fields:
            if f not in known:
                raise ValidationError(f"unknown profile field {f!r}")
        named = [f for f in self.fields if f != "_"]
        if len(set(named)) != len(named):
            raise ValidationError("a profile field is listed twice")
        if not self.delimiter or "\n" in self.delimiter:
            raise ValidationError("the profile delimiter must be nonempty and hold no newline")


def parse_profiles(source, schema: ProfileSchema | None = None,
                   uidlist: list[tuple[int, str]] | None = None) -> ProfileTable:
    """Parse delimiter-separated profile records (UTF-8), one per node in file order.

    Blank lines are skipped and fields are stripped of surrounding
    whitespace. Blank or unparseable numeric fields are masked as missing and
    tallied in a warning. When a uidlist is supplied the record count must
    match it.
    """
    schema = schema or ProfileSchema()
    text = read_text(source, UTF8)
    split = _profile_columns(text, schema)
    n, columns = split if split is not None else _profile_rows(text, schema)
    table, bad_numbers = _profile_table(n, columns)
    uid_mismatches = 0
    if uidlist is not None:
        if n != len(uidlist):
            raise ValidationError(
                f"profile file has {n} records but uid list has {len(uidlist)}")
        uid_mismatches = sum(1 for uid, (_, listed) in zip(table.uid, uidlist)
                             if uid and uid != listed)
    if bad_numbers:
        log.warning("%d numeric profile fields were blank or unparseable", bad_numbers)
    if uid_mismatches:
        log.warning("%d profile uids disagree with the uid list", uid_mismatches)
    return table


def _profile_columns(text: str, schema: ProfileSchema):
    """(records, {field: stripped values}) from one split of the whole text, or
    None unless every line holds exactly len(schema.fields) fields."""
    delimiter, width = schema.delimiter, len(schema.fields)
    if len(delimiter) != 1 or not delimiter.isascii() or not width:
        return None
    named = [(j, name) for j, name in enumerate(schema.fields) if name != "_"]
    if not text:
        return 0, {name: [] for _, name in named}
    split = split_fields(text, delimiter, width)
    if split is None:
        return None
    return len(split) // width, {name: list(map(str.strip, split[j::width]))
                                 for j, name in named}


def _profile_rows(text: str, schema: ProfileSchema):
    """(records, {field: stripped values}) line by line; a record without a
    count field holds None there, one without a text field holds ""."""
    rows = [line.split(schema.delimiter) for line in text.split("\n") if line]
    columns = {}
    for j, name in enumerate(schema.fields):
        if name != "_":
            absent = None if name in _PROFILE_INT_FIELDS else ""
            columns[name] = [row[j].strip() if j < len(row) else absent for row in rows]
    return len(rows), columns


def _profile_table(n: int, columns: dict[str, list]) -> tuple[ProfileTable, int]:
    """The table of split profile columns, and the count of blank or bad numbers."""
    region = columns.get("region", [""] * n)
    names = [r for r in dict.fromkeys(region) if r]
    index = dict(zip(names, range(len(names))))
    index[""] = -1
    codes = np.fromiter(map(index.__getitem__, region), dtype=np.int64, count=n)
    counts = {}
    bad_numbers = 0
    for name in _PROFILE_INT_FIELDS:
        column = columns.get(name)
        if column is None:
            values, missing = np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool)
        else:
            values, missing = int_column(column)
            # a record without the field holds None there: missing, not tallied
            if missing.any():
                bad_numbers += int(missing.sum()) - column.count(None)
        counts[name], counts[name + "_missing"] = values, missing
    text = {name: columns.get(name, [""] * n) for name in _PROFILE_TEXT_FIELDS
            if name != "region"}
    return ProfileTable(**text, region_codes=codes, region_names=names, **counts), bad_numbers


def write_profiles(profiles: ProfileTable, destination,
                   schema: ProfileSchema | None = None) -> None:
    """Write one delimiter-separated record per row (UTF-8); missing values stay blank."""
    schema = schema or ProfileSchema()
    n = len(profiles)
    columns = []
    for name in schema.fields:
        if name == "_":
            columns.append([""] * n)
        elif name == "region":
            columns.append(profiles.regions)
        elif name in _PROFILE_INT_FIELDS:
            column = list(map(str, getattr(profiles, name).tolist()))
            for row in np.flatnonzero(getattr(profiles, name + "_missing")).tolist():
                column[row] = ""
            columns.append(column)
        else:
            columns.append(getattr(profiles, name))
    with text_stream(destination, "w", UTF8) as fh:
        fh.write("".join(row + "\n" for row in map(schema.delimiter.join, zip(*columns))))


# Binary cache layout (little-endian):
#   magic "ZGC1" | u32 version | u32 crc32 | u64 node_count | u64 edge_count
#   u64 out_indptr[node_count + 1]
#   u32 (or u64 when node_count > 2^32) deltas[edge_count]:
#     per out-adjacency row, first entry absolute, the rest successive
#     differences of the sorted target ids.
# crc32 is zlib's CRC-32 of everything after the header; the file length
# pins node_count and edge_count.
_CACHE_MAGIC = b"ZGC1"
_CACHE_VERSION = 2
_HEADER = struct.Struct("<4sIIQQ")


def _cache_index_dtype(node_count: int) -> np.dtype:
    return np.dtype("<u4") if node_count <= 0xFFFFFFFF else np.dtype("<u8")


def cache_save(g: DirectedGraph, path) -> None:
    """Write a graph to a versioned binary cache file."""
    deltas = g.out_indices.astype(np.int64, copy=True)
    if deltas.shape[0]:
        deltas[1:] -= g.out_indices[:-1]
        degrees = np.diff(g.out_indptr)
        starts = g.out_indptr[:-1][degrees > 0]
        deltas[starts] = g.out_indices[starts]
    indptr = g.out_indptr.astype("<u8", copy=False).tobytes()
    deltas = deltas.astype(_cache_index_dtype(g.node_count)).tobytes()
    crc = zlib.crc32(deltas, zlib.crc32(indptr))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, crc, g.node_count, g.edge_count))
        fh.write(indptr)
        fh.write(deltas)


def cache_load(path) -> DirectedGraph:
    """Load a graph written by cache_save; raises CacheError on any mismatch."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CacheError(f"cannot read cache: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise CacheError("cache file truncated: missing header")
    magic, version, crc, n, m = _HEADER.unpack_from(blob)
    if magic != _CACHE_MAGIC:
        raise CacheError("not a graph cache file")
    if version != _CACHE_VERSION:
        raise CacheError(f"unsupported cache version {version}")
    n, m = int(n), int(m)
    idx_dtype = _cache_index_dtype(n)
    expected = _HEADER.size + 8 * (n + 1) + idx_dtype.itemsize * m
    if len(blob) != expected:
        raise CacheError(f"cache file truncated: {len(blob)} bytes, expected {expected}")
    if zlib.crc32(memoryview(blob)[_HEADER.size:]) != crc:
        raise CacheError("cache checksum mismatch")
    offset = _HEADER.size
    indptr = np.frombuffer(blob, dtype="<u8", count=n + 1, offset=offset).astype(np.int64)
    offset += 8 * (n + 1)
    degrees = np.diff(indptr)
    if indptr[0] != 0 or indptr[-1] != m or (degrees < 0).any():
        raise CacheError("corrupt adjacency offsets")
    # a delta too large for the index dtype turns negative here and is rejected
    indices = np.frombuffer(blob, dtype=idx_dtype, count=m, offset=offset).astype(
        _index_dtype(n))
    if m:
        starts = indptr[:-1][degrees > 0]
        if (indices < 0).any():
            raise CacheError("corrupt adjacency indices")
        # after a row's first target, a zero delta repeats the previous target
        repeats = indices == 0
        repeats[starts] = False
        if repeats.any():
            raise CacheError("corrupt adjacency: duplicate arcs")
        # rows increase strictly, so a row's sum of deltas is its largest target
        last = np.add.reduceat(indices, starts, dtype=np.int64)
        if (last >= n).any():
            raise CacheError("corrupt adjacency indices")
        # rebase each row's first target on the previous row's last, then one
        # running sum decodes every row
        indices[starts[1:]] -= last[:-1]
        np.cumsum(indices, dtype=indices.dtype, out=indices)
        if (indices == np.repeat(np.arange(n, dtype=indices.dtype), degrees)).any():
            raise CacheError("corrupt adjacency: self-loop")
    return DirectedGraph(n, indptr, indices)
