import io
import re
import struct
import tempfile
import time
import tracemalloc
import zlib
from contextlib import contextmanager, nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zombiescan import (CacheError, ParseError, ValidationError, build_graph, cache_load,
                        cache_save, graph, parse_profiles, parse_uidlist,
                        parse_weibo_network)
from zombiescan.graph import UndirectedGraph, _index_dtype
from zombiescan.ingest import _PARSE_BLOCK, RawNetwork, write_uidlist, write_weibo_network
from zombiescan.textio import read_bytes

from conftest import DATA, random_graph
from oracles import _parse_lines, build_graph_lexsort, out_row

GOLDEN_RECIPROCAL = "2 2\n0 1 1 1\n1 1 0 1\n"
GOLDEN_FANOUT = "3 2\n0 2 1 0 2 0\n1 0\n2 0\n"
GOLDEN_EMPTY = "1 0\n0 0\n"
# node 0 follows 1 (mutual) and 2; hand-counted degrees of node 0: in 1, out 2
GOLDEN_MIXED = "3 3\n0 2 1 1 2 0\n1 1 0 1\n2 0\n"


def parse_str(text: str) -> RawNetwork:
    return parse_weibo_network(io.StringIO(text))


class TestParseWeiboNetwork:
    def test_reciprocal_sample(self):
        raw = parse_str(GOLDEN_RECIPROCAL)
        assert raw.node_count == 2
        assert raw.declared_edge_count == 2
        arcs = set(zip(raw.sources, raw.targets, raw.flags))
        assert arcs == {(0, 1, 1), (1, 0, 1)}

    def test_reciprocal_flag_builds_both_directions(self):
        g = parse_str("2 2\n0 1 1 1\n1 0\n").to_graph()
        assert out_row(g, 0).tolist() == [1] and out_row(g, 1).tolist() == [0]
        assert g.edge_count == 2

    def test_fanout_sample(self):
        raw = parse_str(GOLDEN_FANOUT)
        assert set(zip(raw.sources, raw.targets, raw.flags)) == {(0, 1, 0), (0, 2, 0)}

    def test_empty_adjacency(self):
        raw = parse_str(GOLDEN_EMPTY)
        assert raw.node_count == 1
        assert raw.arc_count == 0

    def test_mixed_sample_degrees(self):
        g = parse_str(GOLDEN_MIXED).to_graph()
        assert (g.in_degrees[0], g.out_degrees[0]) == (1, 2)

    def test_records_in_any_order(self):
        raw = parse_str("3 2\n2 0\n0 2 1 0 2 0\n1 0\n")
        assert raw.arc_count == 2

    def test_declared_mismatch_is_warning_not_error(self, caplog):
        with caplog.at_level("WARNING"):
            raw = parse_str("2 5\n0 1 1 0\n1 0\n")
        assert raw.arc_count == 1
        assert "declares 5" in caplog.text

    @pytest.mark.parametrize("text,match", [
        ("", "empty"),
        ("2\n", "header"),
        ("x y\n0 0\n1 0\n", "non-integer"),
        ("2 0\n0 0\n", "expected 2"),
        ("2 1\n0 2 1 0\n1 0\n", "declares 2"),
        ("2 1\n0 1 1 2\n1 0\n", "flag"),
        ("2 1\n0 1 5 0\n1 0\n", "target id"),
        ("1 0\n5 0\n", "node id"),
        ("1 0\n0 0\n0 0\n", "trailing"),
        ("1 0\n0\x000\n", "non-integer"),  # str.split() keeps a NUL inside the token
        ("2 1\n0 1 -1 0\n1 0\n", "target id"),
        ("2 1\n0 1 1 -1\n1 0\n", "flag"),
    ])
    def test_malformed_inputs(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_str(text)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_str("2 2\n0 1 1 9\n1 0\n")
        assert err.value.line == 2


HUGE = "99999999999999999999"  # 20 digits, above the int64 maximum


def outcome(parse, source):
    """What a parser makes of a source: its arrays, or its ParseError."""
    try:
        raw = parse(source)
    except ParseError as exc:
        return "ParseError", str(exc), exc.line
    return (raw.node_count, raw.declared_edge_count,
            [(a.dtype.str, a.tolist()) for a in (raw.sources, raw.targets, raw.flags)])


@st.composite
def network_texts(draw):
    """Network files in the layouts and with the faults either parser meets."""
    n = draw(st.integers(0, 5))
    lines = [[n, draw(st.integers(0, 12))]]
    for v in draw(st.permutations(range(n))):
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 1)),
                              max_size=4))
        lines.append([v, len(pairs)] + [x for pair in pairs for x in pair])
    fault = draw(st.sampled_from([None, None, None, None, "k", "flag", "target", "node", "missing",
                                  "extra", "trailing", "oversized", "word"]))
    records = lines[1:]
    if fault == "k" and records:
        draw(st.sampled_from(records))[1] += draw(st.sampled_from([-1, 1]))
    elif fault == "flag" and any(len(r) > 2 for r in records):
        draw(st.sampled_from([r for r in records if len(r) > 2]))[3] = 2
    elif fault == "target" and any(len(r) > 2 for r in records):
        draw(st.sampled_from([r for r in records if len(r) > 2]))[2] = n
    elif fault == "node" and records:
        draw(st.sampled_from(records))[0] = n
    elif fault == "missing" and records:
        lines.remove(draw(st.sampled_from(records)))
    elif fault == "extra" and records:
        draw(st.sampled_from(records)).append(0)  # one token past the k pairs
    elif fault == "trailing":
        lines.append([0, 0])
    elif fault in ("oversized", "word"):
        row = draw(st.sampled_from(lines))
        row[draw(st.integers(0, len(row) - 1))] = HUGE if fault == "oversized" else "x"

    if draw(st.booleans()):  # only bytes the whole-buffer parse takes
        eol = "\n"
        sep = st.sampled_from([" ", " ", "  ", "\t", " \t"])
        prefix = st.sampled_from(["", "", "", "0", "00"])
    else:
        eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        sep = st.sampled_from([" ", " ", "\t", "\x0b", "\x0c"])
        prefix = st.sampled_from(["", "", "", "0", "+"])
    out = []
    for row in lines:
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(st.sampled_from(["", " ", "\t"])) + eol)  # a blank line
        tokens = [draw(prefix) + str(x) if isinstance(x, int) else x for x in row]
        out.append(draw(st.sampled_from(["", " "])) + "".join(
            tok + (draw(sep) if i + 1 < len(tokens) else "") for i, tok in enumerate(tokens)))
        out.append(draw(st.sampled_from(["", " ", "\t"])) + eol)
    if draw(st.booleans()):
        out.pop()  # no line end after the last record
    return "".join(out)


@contextmanager
def digit_tokens_only():
    """Fail on any call of the per-token int() conversion of the network parser."""
    def refuse(token):
        raise AssertionError(f"token {token!r} left the column conversion")

    with mock.patch("zombiescan.ingest._clamped_int", refuse):
        yield


class TestFastParse:
    """The column parse gives what the line-by-line reference parser gives."""

    @given(network_texts())
    @settings(max_examples=300, deadline=None)
    def test_matches_line_parser(self, text):
        def parse(source):
            # a file whose tokens are all digit runs never reads a token with int()
            with digit_tokens_only() if not set(text) & set("+-x") else nullcontext():
                return outcome(parse_weibo_network, source)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.txt"
            path.write_bytes(text.encode("ascii"))
            expected = outcome(_parse_lines, path)
            assert parse(path) == expected
            assert parse(io.BytesIO(text.encode("ascii"))) == expected
        assert parse(io.StringIO(text)) == outcome(_parse_lines, io.StringIO(text))

    @pytest.mark.parametrize("name", ["planted_4x50", "zombie_5x500"])
    def test_committed_corpora(self, name, tmp_path):
        path = Path(DATA) / name / "weibo_network.txt"
        expected = outcome(_parse_lines, path)
        assert expected[0] != "ParseError"
        for eol in (b"\n", b"\r\n", b"\r"):
            copy = tmp_path / "net.txt"
            copy.write_bytes(path.read_bytes().replace(b"\n", eol))
            with digit_tokens_only():
                assert outcome(parse_weibo_network, copy) == expected
                assert outcome(parse_weibo_network, io.BytesIO(copy.read_bytes())) == expected

    def test_text_stream_must_be_ascii(self):
        with pytest.raises(ParseError, match="is not ASCII text") as err:
            parse_str("1 0\n\u0660 0\n")
        assert err.value.line == 2
        # the same text as bytes
        with pytest.raises(ParseError, match="^line 2: byte 0xd9 is not ASCII text$"):
            parse_weibo_network(io.BytesIO("1 0\n\u0660 0\n".encode()))

    @pytest.mark.parametrize("text", [
        "3 3\r\n0 2 1 1 2 0\r\n1 1 0 1\r\n2 0\r\n",
        "3 3\r0 2 1 1 2 0\r1 1 0 1\r2 0\r",
        "3 3\n0\t2\t1 1\x0b2 0\n1 1 +0 1\n\x0c\n2 0\n",
        "3 3\n0 2 01 1 2 0\n\n1 1 0 001\n2 0",
    ])
    def test_layouts_outside_fast_charset(self, text, tmp_path):
        path = tmp_path / "net.txt"
        path.write_bytes(text.encode("ascii"))
        assert outcome(parse_weibo_network, path) == outcome(parse_str, GOLDEN_MIXED)

    @pytest.mark.parametrize("text,match", [
        (f"2 1\n0 1 {HUGE} 0\n1 0\n", "target id"),
        (f"2 1\n0 1 1 {HUGE}\n1 0\n", "flag"),
        (f"2 1\n{HUGE} 1 1 0\n1 0\n", "node id"),
        (f"2 1\n0 {HUGE} 1 0\n1 0\n", "declares"),
        (f"2 1\n0 1 +{HUGE} 0\n1 0\n", "target id"),
        (f"2 1\n0 1 -{HUGE} 0\n1 0\n", "target id"),
        # ids are int32 and flags one byte; each is checked before it is narrowed
        (f"2 1\n0 1 {2**32} 0\n1 0\n", "target id"),
        (f"2 1\n0 1 {2**32 + 1} 0\n1 0\n", "target id"),
        ("2 1\n0 1 1 256\n1 0\n", "flag"),
        ("2 1\n0 1 1 257\n1 0\n", "flag"),
    ])
    def test_oversized_token_is_parse_error(self, text, match):
        with pytest.raises(ParseError, match=match) as err:
            parse_str(text)
        assert err.value.line == 2

    def test_oversized_node_count_is_parse_error(self):
        with pytest.raises(ParseError, match="node count") as err:
            parse_str(f"{HUGE} 1\n0 1 {HUGE} 0\n")
        assert err.value.line == 1

    def test_oversized_declared_count_is_kept(self):
        raw = parse_str(f"1 {HUGE}\n0 0\n")
        assert raw.declared_edge_count == int(HUGE)


class TestParseInBlocks(TestParseWeiboNetwork, TestFastParse):
    """The parse tests with reads of a few bytes: a block per line, lines
    longer than a read, and CRLF line ends split across two reads."""

    @pytest.fixture(autouse=True, params=[1, 5])
    def tiny_blocks(self, request, monkeypatch):
        monkeypatch.setattr("zombiescan.ingest._PARSE_BLOCK", request.param)

    @pytest.mark.parametrize("text,line", [
        ("2 1\n0 1 5 0\n1 0\n\u0660\n", 2),  # a faulty line before the byte wins
        ("1 0\n0 0\n\n 3\u0660 0\n", 4),
        ("1 0\r\n0 0\r\n\u0660", 3),
    ])
    def test_first_faulty_line_wins_over_a_later_byte_that_is_not_ascii(self, text, line):
        for source in (io.BytesIO(text.encode()), io.StringIO(text)):
            with pytest.raises(ParseError) as err:
                parse_weibo_network(source)
            assert err.value.line == line


# pieces of a network file: digits, spaces, line ends, characters that are
# not ASCII (in UTF-8) and bytes that are not UTF-8
TEXT_PIECES = [b"0", b"1", b"2", b" ", b"\n", b"\r", b"\r\n", "\u0660".encode(), "\u00e9".encode(),
               b"\xe9", b"\xff"]


def first_fault(read, source):
    """The line and message of the ParseError `read(source)` raises, or None."""
    try:
        read(source)
    except ParseError as exc:
        return exc.line, str(exc)
    return None


@given(st.sampled_from([b"", b"1 0\n", b"2 1\r\n"]), st.lists(st.sampled_from(TEXT_PIECES),
                                                            max_size=24))
@settings(max_examples=300, deadline=None)
def test_parser_names_the_character_read_bytes_names(head, pieces):
    """The parser raises read_bytes' error for the first character that is
    not ASCII, unless a faulty line before it wins; the same for a path and a
    binary stream at any read size."""
    data = head + b"".join(pieces)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.txt"
        path.write_bytes(data)
        sources = {"path": lambda: path, "bytes": lambda: io.BytesIO(data)}
        if b"\r" not in data:  # a text stream keeps a CR as whitespace
            text = data.decode("utf-8", "surrogateescape")
            sources["text"] = lambda: io.StringIO(text)
        seen = {}
        for size in (1, 5, _PARSE_BLOCK):
            with mock.patch("zombiescan.ingest._PARSE_BLOCK", size):
                for kind, source in sources.items():
                    bad = first_fault(lambda s: read_bytes(s, "ascii"), source())
                    fault = first_fault(parse_weibo_network, source())
                    if bad is None:
                        assert fault is None or "ASCII" not in fault[1]
                    else:
                        assert fault == bad or fault[0] < bad[0]
                    seen.setdefault(kind, fault)
                    assert fault == seen[kind]
    assert seen["path"] == seen["bytes"]


# arc lists over 2 nodes that break the arc rule, and the message naming their first bad arc
BAD_ARCS = pytest.mark.parametrize("sources,targets,flags,match", [
    ([0], [5], [0], r"^arc #0 \(0->5\) has an endpoint outside \[0, 2\)$"),
    ([0, 7], [1, 0], [0, 0], r"^arc #1 \(7->0\) has an endpoint outside \[0, 2\)$"),
    ([1, -1], [0, 1], [0, 0], r"^arc #1 \(-1->1\) has an endpoint outside"),
    ([0, 1], [1, 0], [1, 3], r"^arc #1 has relationship flag 3; it must be 0 or 1$"),
    ([0], [1], [-1], r"^arc #0 has relationship flag -1"),
], ids=["target-outside", "source-outside", "negative-source", "flag-3", "negative-flag"])


class TestRoundTrip:
    @pytest.mark.parametrize("text", [GOLDEN_RECIPROCAL, GOLDEN_FANOUT,
                                      GOLDEN_EMPTY, GOLDEN_MIXED])
    def test_parse_emit_parse_fixpoint(self, text):
        raw = parse_str(text)
        buf = io.StringIO()
        write_weibo_network(raw, buf)
        again = parse_weibo_network(io.StringIO(buf.getvalue()))
        assert sorted(zip(raw.sources, raw.targets, raw.flags)) == \
            sorted(zip(again.sources, again.targets, again.flags))

    def test_graph_emission_reingests_identically(self):
        g, _ = random_graph(23, 30, 0.1)
        buf = io.StringIO()
        write_weibo_network(g, buf)
        assert parse_weibo_network(io.StringIO(buf.getvalue())).to_graph() == g

    @pytest.mark.parametrize("name", ["planted_4x50", "zombie_5x500"])
    def test_committed_network_rewrites_byte_for_byte(self, name, tmp_path):
        committed = Path(f"{DATA}/{name}/weibo_network.txt")
        out = tmp_path / "weibo_network.txt"
        write_weibo_network(parse_weibo_network(committed).to_graph(), out)
        assert out.read_bytes() == committed.read_bytes()

    def test_rendering_in_chunks_gives_the_same_bytes(self, tmp_path, monkeypatch):
        committed = Path(f"{DATA}/planted_4x50/weibo_network.txt")
        monkeypatch.setattr("zombiescan.ingest._RENDER_CHUNK", 7)
        out = tmp_path / "weibo_network.txt"
        write_weibo_network(parse_weibo_network(committed), out)
        assert out.read_bytes() == committed.read_bytes()

    def test_rows_hold_arcs_stably_sorted_by_pair(self):
        rng = np.random.Generator(np.random.PCG64(8))
        n, m = 12, 300  # 300 arcs over 132 pairs: many pairs repeat
        sources, targets = rng.integers(0, n, m), rng.integers(0, n, m)
        flags = rng.integers(0, 2, m)
        arcs = list(zip(sources.tolist(), targets.tolist(), flags.tolist()))
        pair_flags = {}
        for u, v, f in arcs:
            pair_flags.setdefault((u, v), set()).add(f)
        assert any(len(seen) == 2 for seen in pair_flags.values())
        buf = io.StringIO()
        write_weibo_network(RawNetwork(n, m, sources, targets, flags), buf)
        rows = {u: [] for u in range(n)}
        for u, v, f in sorted(arcs, key=lambda arc: arc[:2]):  # sorted() is stable
            rows[u] += [v, f]
        expected = [f"{n} {m}"] + [" ".join(map(str, [u, len(row) // 2, *row]))
                                   for u, row in rows.items()]
        assert buf.getvalue().splitlines() == expected

    def test_empty_graph_emission_layout(self):
        raw = parse_str("2 0\n0 0\n1 0\n")
        buf = io.StringIO()
        write_weibo_network(raw, buf)
        assert buf.getvalue() == "2 0\n0 0\n1 0\n"

    @BAD_ARCS
    def test_arcs_the_parser_refuses_are_not_written(self, sources, targets, flags, match):
        raw = RawNetwork(2, len(sources), *(np.array(c, dtype=np.int64)
                                            for c in (sources, targets, flags)))
        buf = io.StringIO()
        with pytest.raises(ValidationError, match=match):
            write_weibo_network(raw, buf)
        assert buf.getvalue() == ""

    @BAD_ARCS
    def test_every_arc_list_entry_refuses_it_alike(self, sources, targets, flags, match):
        # graph._check_arcs is the one arc rule of the builders and the writer;
        # from_edges takes no flags, so it meets only the endpoint cases
        columns = [np.array(c, dtype=np.int64) for c in (sources, targets, flags)]
        raw = RawNetwork(2, len(sources), *columns)
        entries = [lambda: build_graph(list(zip(sources, targets, flags)), 2), raw.to_graph,
                   lambda: write_weibo_network(raw, io.StringIO())]
        if set(flags) <= {0, 1}:
            entries.append(lambda: UndirectedGraph.from_edges(2, columns[0], columns[1],
                                                              np.ones(len(sources))))
        messages = set()
        for entry in entries:
            with pytest.raises(ValidationError, match=match) as caught:
                entry()
            messages.add(str(caught.value))
        assert len(messages) == 1

    def test_columns_of_different_lengths_are_refused(self):
        # arc #1 has a source and a target but no flag
        raw = RawNetwork(3, 1, np.array([0, 1]), np.array([1, 2]), np.array([0]))
        buf = io.StringIO()
        for entry in (raw.to_graph, lambda: write_weibo_network(raw, buf)):
            with pytest.raises(ValidationError, match=r"^arc columns differ in length: "
                                                      r"2 sources, 2 targets, 1 flags$"):
                entry()
        assert buf.getvalue() == ""
        with pytest.raises(ValidationError, match=r"^arc columns differ in length: "
                                                  r"2 sources, 1 targets$"):
            UndirectedGraph.from_edges(3, raw.sources, raw.targets[:1], np.ones(2))
        for weights in (np.ones(1), np.ones(3), np.ones((2, 1)), np.float64(1.0)):
            with pytest.raises(ValidationError,
                               match=re.escape(f"2 edges but weights of shape {weights.shape}")):
                UndirectedGraph.from_edges(3, raw.sources, raw.targets, weights)


class TestSetupMemory:
    """Parse and graph build hold each arc once, in narrow columns."""

    # The rise of traced memory over a parse and a graph build, per arc. With
    # int64 columns and a second sort of every key with the reverse ones, the
    # corpus below took 78.8 B/arc; with narrow columns and a build that only
    # looks the reverse keys up, 34.1 B/arc, most of it the parse of the whole
    # file at once; with a parse in blocks of lines, 24.8 B/arc.
    PEAK_BYTES_PER_ARC = 30
    # The parse alone: its 9 B/arc of columns and one block's temporaries. The
    # whole-file parse took 34.1 B/arc; in blocks of lines, 13.6 B/arc.
    PARSE_PEAK_BYTES_PER_ARC = 16

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        rng = np.random.Generator(np.random.PCG64(7))
        n, m = 5_000, 170_000
        arcs = np.stack([rng.integers(0, n, m), rng.integers(0, n, m),
                         rng.random(m) < 0.18], axis=1)
        path = tmp_path_factory.mktemp("setup") / "net.txt"
        write_weibo_network(build_graph(arcs, n), path)
        return path, arcs, n

    def test_parse_and_build_peak_per_arc(self, corpus):
        path, arcs, n = corpus
        tracemalloc.start()
        try:
            raw = parse_weibo_network(path)
            g = raw.to_graph()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 190_000 < raw.arc_count < 210_000 and 0.25 < raw.flags.mean() < 0.35
        assert g == build_graph(arcs, n)
        assert peak / raw.arc_count < self.PEAK_BYTES_PER_ARC

    def test_parse_peak_per_arc(self, corpus):
        path, _, _ = corpus
        tracemalloc.start()
        try:
            raw = parse_weibo_network(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / raw.arc_count < self.PARSE_PEAK_BYTES_PER_ARC


class TestUidlist:
    def test_two_lines(self):
        assert parse_uidlist(io.StringIO("1001\n1002\n")) == ["1001", "1002"]

    def test_length_matches_lines(self):
        text = "".join(f"uid{i}\n" for i in range(50))
        assert len(parse_uidlist(io.StringIO(text))) == 50

    def test_round_trip(self):
        uids = [str(9000 + 7 * i) for i in range(20)]
        buf = io.StringIO()
        write_uidlist(uids, buf)
        assert parse_uidlist(io.StringIO(buf.getvalue())) == uids

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            parse_uidlist(io.StringIO(""))

    def test_blank_line_mid_file_rejected(self):
        with pytest.raises(ParseError, match="^line 2: blank line inside uid list$"):
            parse_uidlist(io.StringIO("a\n\nb\n"))

    @pytest.mark.parametrize("tail", ["\n", "\n\n", "\n\n\n", "\n \n\t\n", ""])
    def test_trailing_blank_lines_end_the_list(self, tail):
        assert parse_uidlist(io.StringIO("a\nb" + tail)) == ["a", "b"]


def regions_of(profiles) -> list[str]:
    return np.array(profiles.region_names + [""], dtype=object)[profiles.region_codes].tolist()


class TestProfiles:
    def test_single_record(self):
        text = "1001\tamy\tf\tyes\tBeijing\t10\t3\t7\n"
        profs = parse_profiles(io.StringIO(text))
        assert len(profs) == 1
        assert (regions_of(profs), profs.followers.tolist(), profs.followees.tolist()) == \
            (["Beijing"], [10], [3])

    def test_blank_numeric_field_tallied(self, caplog):
        text = "1001\tamy\tf\tyes\tBeijing\t\t3\t7\n"
        with caplog.at_level("WARNING"):
            profs = parse_profiles(io.StringIO(text))
        assert profs.followers_missing[0]
        assert "1 numeric profile fields" in caplog.text

    def test_synthetic_hundred_records_region_histogram(self):
        regions = ["Beijing", "Shanghai", "Chengdu"]
        rows = []
        expected: dict[str, int] = {}
        for i in range(100):
            region = regions[i % 3]
            expected[region] = expected.get(region, 0) + 1
            rows.append(f"u{i}\tname{i}\tm\tno\t{region}\t{i}\t{2 * i}\t0")
        profs = parse_profiles(io.StringIO("\n".join(rows) + "\n"))
        assert len(profs) == 100
        assert profs.region_names == regions
        assert np.bincount(profs.region_codes).tolist() == [expected[r] for r in regions]
        assert profs.followees.tolist() == [2 * i for i in range(100)]

    @pytest.mark.parametrize("ragged", [False, True])
    def test_negative_count_is_missing_and_tallied(self, ragged, caplog):
        text = "1001\tamy\tf\tyes\tBeijing\t-5\t10\t7\n1002\tbob\tm\tno\tHarbin\t4\t-0\t0\n"
        if ragged:  # the row path
            text += "1003\tcat\n"
        with caplog.at_level("WARNING"):
            profs = parse_profiles(io.StringIO(text))
        assert profs.followers.tolist()[:2] == [0, 4]
        assert profs.followers_missing.tolist()[:2] == [True, False]
        assert profs.followees.tolist()[:2] == [10, 0]
        assert profs.followees_missing.tolist()[:2] == [False, False]
        assert "1 numeric profile fields were blank, negative or unparseable" in caplog.text

    def test_uid_and_tweets_are_not_read(self, caplog):
        text = "\tamy\tf\tyes\tBeijing\t1\t2\tmany\nx y\tbob\tm\tno\tHarbin\t3\t4\t-1\n"
        with caplog.at_level("WARNING"):
            profs = parse_profiles(io.StringIO(text))
        assert profs.followers.tolist() == [1, 3]
        assert not profs.followers_missing.any() and not profs.followees_missing.any()
        assert "profile" not in caplog.text


class TestProfileMemory:
    """The profile reader holds the file's bytes, its separator offsets and
    the columns it keeps, with no string per field of the counts."""

    # The rise of traced memory over parse_profiles, per record. Splitting
    # every field into a str, and the counts into int64 through one joined
    # string, took 592 B/record on the file below; scanning its bytes once
    # and reading the counts from them, 249 B/record.
    PEAK_BYTES_PER_RECORD = 320

    def test_parse_profiles_peak_per_record(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(5))
        n = 20_000
        regions = np.array(["Beijing", "Shanghai", "Guangdong", "北京", "Harbin", ""])
        region = regions[rng.integers(0, regions.shape[0], n)]
        followers, followees = rng.integers(0, 2000, n), rng.integers(0, 500, n)
        path = tmp_path / "user_profile.txt"
        path.write_text("".join(f"{1000000 + i}\tuser_{i}\t{'mf'[i % 2]}\tno\t{region[i]}\t"
                                f"{followers[i]}\t{followees[i]}\t0\n" for i in range(n)),
                        encoding="utf-8")
        tracemalloc.start()
        try:
            profiles = parse_profiles(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert regions_of(profiles) == [r.strip() for r in region.tolist()]
        assert profiles.followers.tolist() == followers.tolist()
        assert profiles.followees.tolist() == followees.tolist()
        assert peak / n < self.PEAK_BYTES_PER_RECORD


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 7))
    node = st.integers(0, n - 1)
    return build_graph(draw(st.lists(st.tuples(node, node, st.integers(0, 1)), max_size=20)),
                       n)


def assert_graph_invariants(g):
    """Offsets consistent; every row sorted, unique, in range and loop-free."""
    n, indptr, indices = g.node_count, g.out_indptr, g.out_indices
    assert indptr.shape == (n + 1,)
    assert indptr[0] == 0 and indptr[-1] == indices.shape[0]
    for u in range(n):
        row = indices[indptr[u]:indptr[u + 1]].tolist()
        assert row == sorted(set(row))
        assert all(0 <= v < n and v != u for v in row)


CACHE_HEADER = 32  # magic, version, crc32, node count, edge count, 4 zero bytes


def sealed(blob: bytes) -> bytes:
    """A cache blob with its crc32 field recomputed over the payload."""
    blob = bytearray(blob)
    struct.pack_into("<I", blob, 8, zlib.crc32(bytes(blob[CACHE_HEADER:])))
    return bytes(blob)


def write_rows(path, rows):
    """A sealed cache file of one row of i4 targets per node, stored as given."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    path.write_bytes(sealed(struct.pack("<4sIIQQ4x", b"ZGC1", 4, 0, len(rows), indptr[-1])
                            + indptr.astype("<i8").tobytes()
                            + np.array([v for row in rows for v in row], dtype="<i4").tobytes()))


class TestCache:
    def test_two_cycle_round_trip(self, two_cycle, tmp_path):
        path = tmp_path / "g.bin"
        cache_save(two_cycle, path)
        assert cache_load(path) == two_cycle

    def test_empty_graph_round_trip(self, tmp_path):
        from zombiescan import build_graph

        g = build_graph([], 1)
        path = tmp_path / "g.bin"
        cache_save(g, path)
        assert cache_load(path) == g

    def test_random_graph_round_trip(self, tmp_path):
        g, _ = random_graph(99, 60, 0.1)
        path = tmp_path / "g.bin"
        cache_save(g, path)
        loaded = cache_load(path)
        assert loaded == g
        assert np.array_equal(loaded.in_indptr, g.in_indptr)
        assert np.array_equal(loaded.in_indices, g.in_indices)

    def test_load_beats_parse_by_5x_on_synthetic_corpus(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(4))
        n = 10_000
        src = rng.integers(0, n, size=120_000)
        dst = rng.integers(0, n, size=120_000)
        from zombiescan import build_graph

        g = build_graph(np.column_stack([src, dst, np.zeros_like(src)]), n)
        text_path = tmp_path / "net.txt"
        write_weibo_network(g, text_path)
        bin_path = tmp_path / "g.bin"
        cache_save(g, bin_path)

        start = time.perf_counter()
        parsed = parse_weibo_network(text_path).to_graph()
        parse_time = time.perf_counter() - start
        start = time.perf_counter()
        loaded = cache_load(bin_path)
        load_time = time.perf_counter() - start

        assert parsed == g and loaded == g
        assert load_time * 5 < parse_time

    def test_truncated_cache_rejected(self, two_cycle, tmp_path):
        path = tmp_path / "g.bin"
        cache_save(two_cycle, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CacheError, match="truncated"):
            cache_load(path)

    def test_repeated_target_in_row_rejected(self, tmp_path):
        from zombiescan import build_graph

        g = build_graph([(0, 1, 0), (0, 2, 0), (1, 2, 0)], 3)
        path = tmp_path / "g.bin"
        cache_save(g, path)
        blob = bytearray(path.read_bytes())
        second = CACHE_HEADER + 8 * 4 + 4  # header, indptr, row 0's second i4 target
        assert blob[second:second + 4] == (2).to_bytes(4, "little")
        blob[second:second + 4] = (1).to_bytes(4, "little")  # row 0 becomes [1, 1]
        path.write_bytes(sealed(blob))
        with pytest.raises(CacheError, match="duplicate"):
            cache_load(path)

    def test_decreasing_row_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        # three nodes, row 0 holds targets [2, 1]
        path.write_bytes(sealed(struct.pack("<4sIIQQ4x", b"ZGC1", 4, 0, 3, 2)
                                + np.array([0, 2, 2, 2], dtype="<i8").tobytes()
                                + np.array([2, 1], dtype="<i4").tobytes()))
        with pytest.raises(CacheError, match="unsorted"):
            cache_load(path)

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        # two nodes, one arc 0 -> 0
        path.write_bytes(sealed(struct.pack("<4sIIQQ4x", b"ZGC1", 4, 0, 2, 1)
                                + np.array([0, 1, 1], dtype="<i8").tobytes()
                                + np.array([0], dtype="<i4").tobytes()))
        with pytest.raises(CacheError, match="self-loop"):
            cache_load(path)

    def test_version_2_cache_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        # the version 2 layout stored u32 deltas per row: two nodes, one arc 0 -> 1
        path.write_bytes(sealed(struct.pack("<4sIIQQ", b"ZGC1", 2, 0, 2, 1)
                                + np.array([0, 1, 1], dtype="<u8").tobytes()
                                + np.array([1], dtype="<u4").tobytes()))
        with pytest.raises(CacheError, match="unsupported cache version 2"):
            cache_load(path)

    def test_version_3_cache_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        # the version 3 layout had a 28-byte header: two nodes, one arc 0 -> 1
        payload = (np.array([0, 1, 1], dtype="<i8").tobytes()
                   + np.array([1], dtype="<i4").tobytes())
        path.write_bytes(struct.pack("<4sIIQQ", b"ZGC1", 3, zlib.crc32(payload), 2, 1) + payload)
        with pytest.raises(CacheError, match="unsupported cache version 3"):
            cache_load(path)

    def test_nonzero_padding_rejected(self, two_cycle, tmp_path):
        path = tmp_path / "g.bin"
        cache_save(two_cycle, path)
        blob = bytearray(path.read_bytes())
        assert blob[CACHE_HEADER - 4:CACHE_HEADER] == bytes(4)
        blob[CACHE_HEADER - 1] = 1
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheError, match="padding"):
            cache_load(path)

    @pytest.mark.parametrize("arcs, n", [([(1, 0, 0)], 2), ([(1, 0, 0)], 3),
                                         ([(1, 0, 0), (1, 2, 0), (3, 1, 0)], 5)])
    def test_graph_with_empty_first_rows_round_trips(self, arcs, n, tmp_path):
        g = build_graph(arcs, n)
        path = tmp_path / "g.bin"
        cache_save(g, path)
        assert cache_load(path) == g

    def test_loaded_arrays_are_read_only_with_the_graph_dtypes(self, tmp_path):
        g, _ = random_graph(7, 30, 0.2)
        path = tmp_path / "g.bin"
        cache_save(g, path)
        loaded = cache_load(path)
        assert loaded.out_indptr.dtype == np.int64 == g.out_indptr.dtype
        assert loaded.out_indices.dtype == _index_dtype(30) == g.out_indices.dtype
        for array in (loaded.out_indptr, loaded.out_indices):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_loaded_arrays_are_aligned(self, tmp_path):
        g = build_graph([(0, 1, 1), (1, 2, 0)], 3)
        path = tmp_path / "g.bin"
        cache_save(g, path)
        loaded = cache_load(path)
        assert loaded.out_indptr.flags.aligned
        assert loaded.out_indices.flags.aligned

    def test_version_1_cache_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        # the version 1 layout had no checksum: two nodes, one arc 0 -> 1
        path.write_bytes(struct.pack("<4sIQQ", b"ZGC1", 1, 2, 1)
                         + np.array([0, 1, 1], dtype="<u8").tobytes()
                         + np.array([1], dtype="<u4").tobytes())
        with pytest.raises(CacheError, match="version 1"):
            cache_load(path)

    def test_payload_flip_fails_the_checksum(self, tmp_path):
        g, _ = random_graph(5, 40, 0.2)
        path = tmp_path / "g.bin"
        cache_save(g, path)
        blob = bytearray(path.read_bytes())
        blob[-4] ^= 1  # the last target's low byte: it moves by one
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheError, match="checksum"):
            cache_load(path)

    @given(small_graphs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_single_byte_flip(self, g, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.bin"
            cache_save(g, path)
            blob = bytearray(path.read_bytes())
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
            path.write_bytes(bytes(blob))
            with pytest.raises(CacheError):
                cache_load(path)

    @given(small_graphs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_single_byte_flip_behind_a_valid_checksum(self, g, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.bin"
            cache_save(g, path)
            blob = bytearray(path.read_bytes())
            blob[data.draw(st.integers(CACHE_HEADER, len(blob) - 1))] ^= data.draw(
                st.integers(1, 255))
            path.write_bytes(sealed(blob))
            try:
                loaded = cache_load(path)
            except CacheError:
                return
        assert_graph_invariants(loaded)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_loaded_in_adjacency_matches_lexsort(self, g):
        triples = np.column_stack([g.arc_sources(), g.out_indices,
                                   np.zeros(g.edge_count, dtype=np.int64)]).astype(np.int64)
        _, _, in_indptr, in_indices, _, _ = build_graph_lexsort(triples, g.node_count)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.bin"
            cache_save(g, path)
            loaded = cache_load(path)
        for got, expected in ((loaded.in_indptr, in_indptr), (loaded.in_indices, in_indices)):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(CacheError, match="not a graph cache"):
            cache_load(path)

    def test_version_mismatch_rejected(self, two_cycle, tmp_path):
        path = tmp_path / "g.bin"
        cache_save(two_cycle, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheError, match="version"):
            cache_load(path)


class TestCacheInBlocks(TestCache):
    """The cache tests with row blocks of one and three targets: a block per
    row, rows longer than a block, and faults on either side of a block edge."""

    @pytest.fixture(autouse=True, params=[1, 3])
    def tiny_blocks(self, request, monkeypatch):
        monkeypatch.setattr(graph, "ROW_BLOCK_SIZE", request.param)

    # a block per row makes the row check a Python loop over every row; the
    # load's speed is that of the default block size, which TestCache times
    test_load_beats_parse_by_5x_on_synthetic_corpus = None

    @pytest.mark.parametrize("row", [[1, 2, 3, 3, 4, 5], [1, 2, 4, 3, 5, 6]])
    def test_fault_inside_a_row_longer_than_a_block(self, row, tmp_path):
        path = tmp_path / "g.bin"
        write_rows(path, [row] + [[0]] * 6)
        with pytest.raises(CacheError, match="duplicate arcs or an unsorted row"):
            cache_load(path)

    @pytest.mark.parametrize("last, message", [
        ([0, 1, 1], "duplicate arcs or an unsorted row"),
        ([1, 0], "duplicate arcs or an unsorted row"),
        ([0, 1, 3], "self-loop"),
    ])
    def test_fault_in_the_last_block(self, last, message, tmp_path):
        path = tmp_path / "g.bin"
        write_rows(path, [[1, 2, 3], [0, 2, 3], [0, 1, 3], last])
        with pytest.raises(CacheError, match=message):
            cache_load(path)

    def test_unsorted_row_is_named_before_an_earlier_self_loop(self, tmp_path):
        path = tmp_path / "g.bin"
        write_rows(path, [[0, 1, 2], [0, 2, 3], [0, 1, 3], [2, 1]])
        with pytest.raises(CacheError, match="duplicate arcs or an unsorted row"):
            cache_load(path)

    def test_descent_from_one_row_into_the_next_at_a_block_edge_loads(self, tmp_path):
        # row 0 fills a block of 1 or 3 targets; 3 -> 0 is the step into row 1
        rows = [[1, 2, 3], [0, 2], [3], [0, 1, 2]]
        path = tmp_path / "g.bin"
        write_rows(path, rows)
        assert cache_load(path) == build_graph([(u, v, 0) for u, row in enumerate(rows)
                                                for v in row], 4)


class TestCacheMemory:
    """The loader holds the file's bytes; its row checks add temporaries of
    a block of rows, not of every arc."""

    # The rise of traced memory over cache_load, above the file's own bytes.
    # With masks and a row index as long as the arcs it read 6.2 B per arc on
    # the graph below; with checks a block of rows at a time, 0.38 B per arc.
    def test_load_peak_above_the_file(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(9))
        n, m = 5_000, 200_000
        g = build_graph(np.column_stack([rng.integers(0, n, m), rng.integers(0, n, m),
                                         np.zeros(m, dtype=np.int64)]), n)
        path = tmp_path / "g.bin"
        cache_save(g, path)
        tracemalloc.start()
        try:
            loaded = cache_load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == g
        assert peak - path.stat().st_size < g.edge_count + 32 * graph.ROW_BLOCK_SIZE
