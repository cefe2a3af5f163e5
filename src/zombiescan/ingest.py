"""Parsers for the follower-network text formats and a binary graph cache.

The network file layout: a header line "N M", then N adjacency lines. Each
adjacency line is "v1 k" followed by 2k integers alternating target id and
relationship flag, where flag 1 marks a reciprocal follow. Any run of ASCII
whitespace separates tokens. Adjacency lines may appear in any node order.
The parser reads the text that `textio.text_stream` yields in blocks of
whole lines, about 64 Ki characters each, as ASCII bytes. In a block it
reads the tokens as one column and checks the records as masks over it,
then writes their arcs into narrow columns that grow in place, so no
array is as long as the file. Only a token holding a byte other than a
digit goes through int().

The binary cache stores a parsed graph so the text parse runs once; the
layout is documented next to the reader below.
"""

from __future__ import annotations

import logging
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CacheError, ParseError
from .graph import (DirectedGraph, _build_graph, _check_arcs, _index_dtype, _pair_keys,
                    _row_fault, _sorted_member)
from .textio import (ASCII, INT64_MAX, UTF8, encoded, int_column, read_bytes, render_ints,
                     split_fields, text_stream)

log = logging.getLogger(__name__)

__all__ = [
    "RawNetwork",
    "ProfileTable",
    "parse_weibo_network",
    "write_weibo_network",
    "parse_uidlist",
    "write_uidlist",
    "parse_profiles",
    "cache_save",
    "cache_load",
]


@dataclass
class RawNetwork:
    """Arc list as read from a network file, before graph construction.

    The parser gives `sources` and `targets` in the graph's index dtype and
    `flags` as uint8; `to_graph` takes integer columns of any width.
    """

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


def parse_weibo_network(source) -> RawNetwork:
    """Parse a network file into a RawNetwork; the first faulty line raises a
    ParseError naming it.

    The input is read as `textio.text_stream` reads it, in blocks of whole
    lines, and must be ASCII: a path or binary stream has universal
    newlines, and a text stream is taken as it reads, so a CR there is
    whitespace. A character that is not ASCII is a fault of its line like
    any other.

    A mismatch between the declared edge count and the number of parsed
    arcs is logged as a warning, not raised; published counts for the same
    crawl are known to disagree with each other.
    """
    with text_stream(source, "r", ASCII) as fh:
        raw = _parse(_line_blocks(fh))
    if raw.arc_count != raw.declared_edge_count:
        log.warning("network declares %d relationships but %d arcs were parsed",
                    raw.declared_edge_count, raw.arc_count)
    return raw


# characters read at a time: a block's token columns (8 B per token) then stay
# below the package's mmap threshold, so they reuse heap memory
_PARSE_BLOCK = 1 << 16


def _line_blocks(fh):
    """The text of `fh` in blocks of whole lines, as ASCII bytes; only the
    last block may lack its LF, and a line longer than a read is one block.
    At the first character that is not ASCII, the whole lines before it are
    yielded, then a str that names the character, which is on the next line."""
    head = []  # the line that the reads so far leave unfinished, in pieces
    while chunk := fh.read(_PARSE_BLOCK):
        data, fault = encoded(chunk, ASCII, fh)
        end = data.rfind(b"\n") + 1
        if end:
            yield b"".join([*head, data[:end]])
            head = []
        if fault is not None:
            yield fault
            return
        head.append(data[end:])
    if any(head):
        yield b"".join(head)


# a file of digits and the whitespace np.fromstring skips tells tokens by `byte > 32`
_PLAIN = b"0123456789 \t\n\x0b\x0c\r"
# any other by the whitespace of str.split()
_SPACE = b" \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"
_TOKEN_BYTE = np.array([byte not in _SPACE for byte in range(256)])
_TOKEN = re.compile(b"[^" + _SPACE + b"]+")

# the most arcs the columns are first made for, since the declared count may
# be wrong or 20 digits long; when full they grow by an eighth
_FIRST_ARCS = 1 << 22


def _parse(blocks) -> RawNetwork:
    """The RawNetwork of a network file given as its `_line_blocks`: the
    header from the first line, then each block's records checked and their
    arcs written into narrow columns that grow in place."""
    buf = next(blocks, b"")
    if isinstance(buf, str):
        raise ParseError(buf, 1)
    end = buf.find(b"\n")  # the header is read exactly, from the first line only
    header = (buf if end < 0 else buf[:end]).decode(ASCII).split()
    if not header:
        raise ParseError("empty file", 1)
    try:
        head = [int(tok) for tok in header]
    except ValueError:
        raise ParseError("non-integer token", 1) from None
    if len(head) != 2:
        raise ParseError("header must be two integers: node count and edge count", 1)
    n, declared_m = head
    if n < 0 or declared_m < 0:
        raise ParseError("negative count in header", 1)
    if n > INT64_MAX:
        raise ParseError(f"node count {n} does not fit a 64-bit id", 1)

    index = _index_dtype(n)
    size = min(declared_m, _FIRST_ARCS)
    columns = np.empty(size, index), np.empty(size, index), np.empty(size, np.uint8)
    arcs = records = 0
    line, last = 2, 1  # the number of the line `buf` starts on, and of the last record
    buf = buf[end + 1:] if end >= 0 else b""
    while buf is not None:
        if isinstance(buf, str):
            raise ParseError(buf, line)
        found, nonblank, lfs, *block = _records(buf, n, n - records, line)
        if found.shape[0]:
            last = line + int(found[-1])
        if nonblank > found.shape[0]:
            raise ParseError("trailing content after the declared adjacency records", last + 1)
        count = block[0].shape[0]
        if arcs + count > size:
            size = max(arcs + count, size + size // 8)
            for column in columns:
                column.resize(size, refcheck=False)  # in place; no view of it is left
        # each value was checked in range as int64, so narrowing keeps it
        for column, values in zip(columns, block):
            column[arcs:arcs + count] = values
        arcs += count
        records += found.shape[0]
        line += lfs
        partial = bool(buf) and not buf.endswith(b"\n")
        buf = next(blocks, None)
    if records < n:  # the line after the last
        raise ParseError(f"expected {n} adjacency records, found {records}", line + partial)
    for column in columns:
        column.resize(arcs, refcheck=False)
    return RawNetwork(n, declared_m, *columns)


def _records(buf: bytes, n: int, wanted: int, line: int):
    """The first `wanted` adjacency records of a block of whole lines that
    starts on line `line`, checked; the first faulty one raises its
    ParseError. Returns their lines in the block (from 0), the block's count
    of nonblank lines and of LFs, and the sources, targets and flags of
    their arcs, as int64."""
    chars = np.frombuffer(buf, dtype=np.uint8)
    lf = np.flatnonzero(chars == 10)
    plain = not buf.translate(None, _PLAIN)
    token = chars > 32 if plain else _TOKEN_BYTE[chars]
    if plain:
        numbers, odd = buf, np.zeros(0, dtype=np.int64)
    else:
        # whitespace reads as a space, a token byte other than a digit as a zero
        odd = np.flatnonzero(token & ((chars < 48) | (chars > 57)))
        numbers = np.where(token, chars, np.uint8(32))
        numbers[odd] = 48
        numbers = numbers.tobytes()
    first = np.empty_like(token)
    first[:1] = token[:1]
    np.greater(token[1:], token[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    # line i holds tokens [bounds[i], bounds[i + 1]); bounds[1:-1] counts those before each LF
    bounds = np.concatenate([[0], np.searchsorted(starts, lf), [starts.shape[0]]])
    counts = np.diff(bounds)
    lines = np.flatnonzero(counts)
    records = lines[:wanted]
    odd = np.searchsorted(starts, odd, side="right") - 1  # the token of each such byte
    odd = odd[np.diff(odd, prepend=-1) > 0]  # each once, to be read again below
    values = np.fromstring(numbers, dtype=np.int64, sep=" ")  # oversized reads INT64_MAX
    refused = np.zeros(counts.shape[0], dtype=bool)  # lines with a token int() refuses
    for tok, start in zip(odd.tolist(), starts[odd].tolist()):
        try:
            values[tok] = _clamped_int(_TOKEN.match(buf, start)[0])
        except ValueError:
            refused[np.searchsorted(bounds, tok, side="right") - 1] = True

    m = records.shape[0]
    heads, widths = bounds[records], counts[records]
    v1 = values[heads]
    k = values[np.minimum(heads + 1, values.shape[0] - 1)]  # read only where widths >= 2
    faults = np.stack([refused[records], widths < 2, (v1 < 0) | (v1 >= n), k < 0,
                       (widths % 2 == 1) | (k != widths // 2 - 1)])
    malformed = faults.any(axis=0)
    good = int(np.argmax(malformed)) if malformed.any() else m
    fault = (good, int(np.argmax(faults[:, good]))) if good < m else None

    # the records before the first malformed one are `v1 k` and k (target, flag) pairs
    pairs = values[:int(widths[:good].sum())].reshape(-1, 2)
    arc = np.ones(pairs.shape[0], dtype=bool)
    arc[heads[:good] // 2] = False
    # viewed unsigned, a negative value is above every valid one; the checks read
    # the int64 values, so none out of range can wrap into range when narrowed
    unsigned = pairs.view(np.uint64)
    if pairs.shape[0] and (unsigned[:, 0].max(where=arc, initial=0) >= n
                           or unsigned[:, 1].max(where=arc, initial=0) > 1):
        ends_at = np.cumsum(k[:good])
        fault = min((int(np.searchsorted(ends_at, np.argmax(bad), side="right")), code)
                    for code, bad in ((5, unsigned[arc, 0] >= n),
                                      (6, unsigned[arc, 1] > 1)) if bad.any())
    if fault is not None:  # (record, check), checks in the order of their messages
        lineno = int(records[fault[0]])  # counted from 0, so it ends at LF lf[lineno]
        text = buf[lf[lineno - 1] + 1 if lineno else 0:
                   lf[lineno] if lineno < lf.shape[0] else None]
        nums = [int(tok) for tok in text.decode(ASCII).split()] if fault[1] else []
        node, degree = (nums + [0, 0])[:2]
        raise ParseError((
            "non-integer token",
            "adjacency record needs at least 'node_id k'",
            f"node id {node} outside [0, {n})",
            f"negative neighbor count {degree}",
            f"record for node {node} declares {degree} neighbors but carries "
            f"{len(nums) - 2} trailing numbers (expected {2 * degree})",
            f"target id outside [0, {n})",
            "relationship flag must be 0 or 1")[fault[1]], line + lineno)
    return (records, lines.shape[0], lf.shape[0], np.repeat(v1, k),
            pairs[:, 0][arc], pairs[:, 1][arc])


def _clamped_int(token: bytes) -> int:
    """int(token) clamped to int64: the value of a token with a non-digit byte."""
    return min(max(int(token), -INT64_MAX - 1), INT64_MAX)


_RENDER_CHUNK = 1 << 18  # tokens rendered at a time, to bound the temporaries


def write_weibo_network(raw_or_graph, destination) -> None:
    """Serialize a RawNetwork or DirectedGraph in the network text layout.

    Rows are emitted for every node in id order, each row's arcs by target,
    repeated arcs in their input order; a graph's flags mark the arcs whose
    reverse arc is also present. Arcs that break the arc rule of
    `graph._check_arcs` raise its ValidationError, and nothing is written.
    """
    raw = raw_or_graph if isinstance(raw_or_graph, RawNetwork) else _flagged_arcs(raw_or_graph)
    n = raw.node_count
    sources, targets, flags = raw.sources, raw.targets, raw.flags
    _check_arcs(sources, targets, flags, n)
    # stable, so repeated pairs keep their input order
    order = np.argsort(_pair_keys(sources, targets, n), kind="stable")
    bounds = np.searchsorted(sources[order], np.arange(n + 1))
    degrees = np.diff(bounds)
    # row u is `u k` and its k (target, flag) pairs; its first token is at row_start[u]
    row_start = 2 * np.arange(n) + 2 * bounds[:-1]
    tokens = np.empty(2 * n + 2 * order.shape[0], dtype=np.int64)
    tokens[row_start] = np.arange(n)
    tokens[row_start + 1] = degrees
    pairs = np.ones(tokens.shape[0], dtype=bool)
    pairs[row_start] = pairs[row_start + 1] = False
    tokens[pairs] = np.stack([targets[order], flags[order]], axis=1).ravel()
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
    # the out-CSR lists arcs sorted by (source, target), so their keys are
    # sorted; the reverse keys are looked up in sorted order and the hits
    # scattered back to arc order
    reverse = _pair_keys(g.out_indices, sources, n)
    order = np.argsort(reverse)
    flags = np.empty(reverse.shape[0], dtype=np.uint8)
    flags[order] = _sorted_member(_pair_keys(sources, g.out_indices, n), reverse[order])
    return RawNetwork(n, g.edge_count, sources, g.out_indices, flags)


def parse_uidlist(source) -> list[str]:
    """Read one external uid per line (UTF-8); line i is the uid of node i.

    Blank lines may end the list; one followed by a uid is an error."""
    uids = [line.strip() for line in read_bytes(source, UTF8).decode(UTF8).split("\n")]
    while uids and not uids[-1]:
        uids.pop()
    if not uids:
        raise ParseError("uid list is empty", 1)
    if "" in uids:
        raise ParseError("blank line inside uid list", uids.index("") + 1)
    return uids


def write_uidlist(uids: list[str], destination) -> None:
    with text_stream(destination, "w", UTF8) as fh:
        fh.write("".join(uid + "\n" for uid in uids))


@dataclass(eq=False)
class ProfileTable:
    """The profile fields the pipeline reads, as columns, one row per node in
    file order.

    Regions are codes into `region_names`, -1 where blank. Each count column
    is int64, beside a mask of the rows whose value is blank, negative,
    unparseable, outside int64 or absent; a masked entry reads 0.
    """

    region_codes: np.ndarray
    region_names: list[str]
    followers: np.ndarray
    followers_missing: np.ndarray
    followees: np.ndarray
    followees_missing: np.ndarray

    def __len__(self) -> int:
        return int(self.region_codes.shape[0])


# uid name gender verification region followers followees tweets
_PROFILE_WIDTH = 8
_REGION, _FOLLOWERS, _FOLLOWEES = 4, 5, 6  # the fields the pipeline reads


def parse_profiles(source) -> ProfileTable:
    """Parse tab-separated profile records (UTF-8), one per node in file order:
    `uid name gender verification region followers followees tweets`.

    Blank lines are skipped. Only region, followers and followees are read,
    each stripped of surrounding whitespace. A blank, negative or
    unparseable count is masked as missing and tallied in a warning; one a
    short record lacks is masked untallied.
    """
    data = read_bytes(source, UTF8)
    table, bad_numbers = _profile_table(*(_profile_columns(data)
                                          or _profile_rows(data.decode(UTF8))))
    if bad_numbers:
        log.warning("%d numeric profile fields were blank, negative or unparseable",
                    bad_numbers)
    return table


def _profile_columns(data: bytes):
    """The region column and the two count columns, each (values, unreadable
    mask, records without the field), from one scan of the UTF-8 bytes; None
    unless every line holds exactly 8 fields. The counts are read from the
    bytes; a count column with a field that is not plain digits is stripped
    and read as strings."""
    fields = split_fields(data, "\t", _PROFILE_WIDTH)
    if fields is None:
        return None
    return fields.text(_REGION), [(*fields.ints(j, strip=True), 0)
                                  for j in (_FOLLOWERS, _FOLLOWEES)]


def _profile_rows(text: str):
    """The same columns line by line; a record without a region reads ""
    there, and one without a count is masked and counted as absent."""
    rows = [line.split("\t") for line in text.split("\n") if line]
    counts = []
    for j in (_FOLLOWERS, _FOLLOWEES):
        column = [row[j].strip() if j < len(row) else None for row in rows]
        counts.append((*int_column(column), column.count(None)))
    return [row[_REGION] if _REGION < len(row) else "" for row in rows], counts


def _profile_table(region: list[str], counts) -> tuple[ProfileTable, int]:
    """The table of split profile columns, and the count of blank, negative or
    bad counts. Each distinct region is stripped once; regions are coded in
    order of first appearance, a blank one -1."""
    raw = dict.fromkeys(region)
    stripped = [r.strip() for r in raw]
    names = [r for r in dict.fromkeys(stripped) if r]
    index = dict(zip(names, range(len(names))))
    index[""] = -1
    code = {r: index[s] for r, s in zip(raw, stripped)}
    codes = np.fromiter(map(code.__getitem__, region), dtype=np.int64, count=len(region))
    columns = []
    bad_numbers = 0
    for values, missing, absent in counts:
        missing |= values < 0
        values[missing] = 0
        # a record without the field is missing, not tallied
        bad_numbers += int(missing.sum()) - absent
        columns += [values, missing]
    return ProfileTable(codes, names, *columns), bad_numbers


# Binary cache layout (little-endian), the graph's out-CSR exactly as held:
#   magic "ZGC1" | u32 version | u32 crc32 | u64 node_count | u64 edge_count | 4 zero bytes
#   i8 out_indptr[node_count + 1]
#   out_indices[edge_count] in _index_dtype(node_count): i4 below 2^31 nodes, else i8
# crc32 is zlib's CRC-32 of everything after the header; the file length
# pins node_count and edge_count. The pad makes the header 32 bytes, so the
# arrays start 8-byte aligned.
_CACHE_MAGIC = b"ZGC1"
_CACHE_VERSION = 4
_HEADER = struct.Struct("<4sIIQQ4x")


def cache_save(g: DirectedGraph, path) -> None:
    """Write a graph to a versioned binary cache file."""
    indptr = np.ascontiguousarray(g.out_indptr, dtype="<i8")
    indices = np.ascontiguousarray(g.out_indices,
                                   dtype=_index_dtype(g.node_count).newbyteorder("<"))
    crc = zlib.crc32(indices, zlib.crc32(indptr))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, crc, g.node_count, g.edge_count))
        fh.write(indptr)
        fh.write(indices)


def cache_load(path) -> DirectedGraph:
    """Load a graph written by cache_save; raises CacheError on any mismatch.

    The graph's arrays are read-only views of the file's bytes.
    """
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
    if blob[:_HEADER.size] != _HEADER.pack(magic, version, crc, n, m):
        raise CacheError("corrupt cache header: nonzero padding")
    index = _index_dtype(n).newbyteorder("<")
    expected = _HEADER.size + 8 * (n + 1) + index.itemsize * m
    if len(blob) != expected:
        raise CacheError(f"cache file truncated: {len(blob)} bytes, expected {expected}")
    if zlib.crc32(memoryview(blob)[_HEADER.size:]) != crc:
        raise CacheError("cache checksum mismatch")
    indptr = np.frombuffer(blob, dtype="<i8", count=n + 1, offset=_HEADER.size)
    indices = np.frombuffer(blob, dtype=index, count=m, offset=_HEADER.size + 8 * (n + 1))
    if (fault := _row_fault(indptr, indices, n)) is not None:
        raise CacheError(fault)
    return DirectedGraph(n, indptr, indices)
