"""Whole-buffer readers and format-and-join writers against their references.

Each reader's one-split column path must agree with its row loop: the same
values, or, where the row loop raises, no result, so that the reader raises
the row loop's error. Each writer must equal csv.writer byte for byte.
"""

import csv
import io
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zombiescan import (ParseError, Partition, ProfileSchema, ValidationError, build_graph,
                        parse_profiles)
from zombiescan.community import (_partition_columns, _partition_rows, read_partition_csv,
                                  write_partition_csv)
from zombiescan.detect import (ZombieReport, _report_columns, _report_rows, read_report_csv,
                               write_report_csv)
from zombiescan.ingest import _profile_columns, _profile_rows, _profile_table
from zombiescan.rank import (ImportanceVector, _ranks_columns, _ranks_rows, read_ranks_csv,
                             write_ranks_csv)
from zombiescan.synth import _truth_columns, _truth_rows, read_truth_csv
from zombiescan.textio import int_column, read_text, render_ints

from conftest import profile_table
from oracles import io_reference, partition_csv_rows, ranks_csv_rows, report_csv_rows

# tokens the column path must leave to the row loop, or read exactly as it does
ODD_TOKENS = ["", " 7", "7 ", "+7", "-7", "07", "7.5", '"7"', "٧", "x", "1e3", "nan",
              "inf", "-0.0", "99999999999999999999", "9223372036854775807", "true", "false",
              "True", "zombie", "normal", "a,b", "\x00"]
LINE_FAULTS = ["blank", "extra", "short", "repeat", "drop", "crlf", "cr", "header",
               "no_final_newline"]
TEXT = st.text(st.sampled_from("ab 1,\t\"北京　\r"), max_size=4)


@st.composite
def csv_text(draw, header, rows):
    """(text, clean): the rows as CSV, with up to two tokens replaced and up to
    two line faults; clean when nothing was changed."""
    rows = [list(r) for r in rows]
    swaps = draw(st.integers(0, 2)) if rows else 0
    for _ in range(swaps):
        r = draw(st.integers(0, len(rows) - 1))
        rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(st.sampled_from(ODD_TOKENS))
    lines = [",".join(r) for r in rows]
    faults = draw(st.lists(st.sampled_from(LINE_FAULTS), max_size=2))
    newline, final = "\n", "\n"
    for fault in faults:
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if fault == "blank":
            lines.insert(at, "")
        elif fault == "extra" and lines:
            lines[at] += ",x"
        elif fault == "short" and lines:
            lines[at] = lines[at].rpartition(",")[0]
        elif fault == "repeat" and lines:
            lines.insert(at, lines[at])
        elif fault == "drop" and lines:
            del lines[at]
        elif fault in ("crlf", "cr"):
            newline = "\r\n" if fault == "crlf" else "\r"
        elif fault == "header":
            header = header[:-1]
        elif fault == "no_final_newline":
            final = ""
    text = newline.join([",".join(header)] + lines) + final.replace("\n", newline)
    return text, not swaps and not faults


def outcome(read):
    """What a reader returns, or the type and message of what it raises."""
    try:
        return "ok", read()
    except (ValidationError, csv.Error) as exc:
        return type(exc), str(exc)


def check_column_path(columns, rows, text, clean, same):
    """The column path agrees with the row loop, and takes every clean input."""
    got = columns(text)
    kind, want = outcome(lambda: rows(text))
    if kind != "ok":
        assert got is None, want
    elif got is not None:
        assert same(got, want)
    if clean:
        assert got is not None


def permutation(draw, n):
    return draw(st.permutations(range(n)))


class TestReaders:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_partition(self, data):
        n = data.draw(st.integers(0, 6))
        with_uids = data.draw(st.booleans())
        rows = [[str(node), str(data.draw(st.integers(0, 3)))]
                + ([data.draw(st.text("ab1", max_size=3))] if with_uids else [])
                for node in permutation(data.draw, n)]
        header = ["node_id", "community_id"] + (["uid"] if with_uids else [])
        text, clean = data.draw(csv_text(header, rows))
        check_column_path(lambda t: _partition_columns(t, n),
                          lambda t: _partition_rows(t, n), text, clean,
                          lambda a, b: a.tolist() == b.tolist())
        assert outcome(lambda: read_partition_csv(io.StringIO(text), n).assignment.tolist()) \
            == outcome(lambda: Partition(_partition_rows(text, n)).assignment.tolist())

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_truth(self, data):
        n = data.draw(st.integers(0, 6))
        flags = st.sampled_from(["0", "1", "true", "false", "True", "False"])
        rows = [[str(i), str(data.draw(st.integers(0, 3))), data.draw(flags),
                 data.draw(st.text("ab 北京", max_size=3))] for i in range(n)]
        text, clean = data.draw(csv_text(["node_id", "block_id", "is_zombie", "region"], rows))

        def flat(truth):
            return truth.block_ids.tolist(), truth.is_zombie.tolist(), truth.regions

        def columns(t):
            truth = _truth_columns(t)
            return None if truth is None else flat(truth)

        check_column_path(columns, lambda t: flat(_truth_rows(t)), text, clean and n > 0,
                          lambda a, b: a == b)
        assert outcome(lambda: flat(read_truth_csv(io.StringIO(text)))) == \
            outcome(lambda: flat(_truth_rows(text)))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_ranks(self, data):
        n = data.draw(st.integers(0, 6))
        value = st.sampled_from([0.25, 1e-05, 5e-324, -0.0, 1e16, 0.1, 1 / 3]) | st.floats(
            allow_nan=False, allow_infinity=False)
        rows = [[str(node), str(data.draw(st.integers(0, 2))), "0.5",
                 repr(data.draw(value)), data.draw(st.sampled_from(["true", "false"]))]
                for node in permutation(data.draw, n)]
        header = ["node_id", "community_id", "io", "pagerank", "converged"]
        text, clean = data.draw(csv_text(header, rows))

        def flat(vectors):
            return [(cid, v.members.tolist(), v.members.dtype, v.values.tobytes(),
                     v.values.dtype, v.converged, v.iterations, v.residual)
                    for cid, v in vectors.items()]

        check_column_path(_ranks_columns, _ranks_rows, text, clean,
                          lambda a, b: flat(a) == flat(b))
        assert outcome(lambda: flat(read_ranks_csv(io.StringIO(text)))) == \
            outcome(lambda: flat(_ranks_rows(text)))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_report(self, data):
        n = data.draw(st.integers(0, 6))
        rows = [[str(node), str(data.draw(st.integers(0, 2))), "0.1",
                 data.draw(st.sampled_from(["", "0.05", "-0.0"])),
                 data.draw(st.sampled_from(["zombie", "normal"]))]
                for node in permutation(data.draw, n)]
        header = ["node_id", "community_id", "pagerank", "threshold", "label"]
        text, clean = data.draw(csv_text(header, rows))
        check_column_path(_report_columns, _report_rows, text, clean,
                          lambda a, b: list(a.items()) == list(b.items()))
        assert outcome(lambda: list(read_report_csv(io.StringIO(text)).items())) == \
            outcome(lambda: list(_report_rows(text).items()))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_profiles(self, data):
        named = data.draw(st.lists(st.sampled_from(
            ["uid", "name", "gender", "verification", "region", "followers", "followees",
             "tweets"]), unique=True, min_size=1))
        fields = data.draw(st.permutations(named + ["_"] * data.draw(st.integers(0, 2))))
        schema = ProfileSchema(tuple(fields), data.draw(st.sampled_from(
            ["\t", ",", ";", " ", "|", "::"])))
        count = st.integers(0, 10 ** 6).map(str) | st.sampled_from(
            ["", " 5", "5 ", "x", "5.0", "-3", "+4", "٣", "99999999999999999999", " ",
             "1,234", ","])
        text_value = st.text(st.sampled_from("ab 1\t北京　\r,"), max_size=4)
        lines = []
        for _ in range(data.draw(st.integers(0, 5))):
            values = [data.draw(count if f in ("followers", "followees", "tweets")
                                else text_value) for f in fields]
            lines.append(schema.delimiter.join(values))
        for fault in data.draw(st.lists(st.sampled_from(["blank", "short", "long", "crlf"]),
                                        max_size=2)):
            at = data.draw(st.integers(0, len(lines)))
            if fault == "blank":
                lines.insert(at, "")
            elif lines and fault in ("short", "long"):
                at = min(at, len(lines) - 1)
                lines[at] = (lines[at].rpartition(schema.delimiter)[0] if fault == "short"
                             else lines[at] + schema.delimiter + "7")
            elif lines:
                lines[min(at, len(lines) - 1)] += "\r"
        text = "".join(line + "\n" for line in lines)
        if data.draw(st.booleans()):
            text = text.rstrip("\n")

        def flat(t):
            return (t.uid, t.name, t.gender, t.verification, t.regions, t.region_names,
                    t.region_codes.tolist(), t.followers.tolist(), t.followers_missing.tolist(),
                    t.followees.tolist(), t.followees_missing.tolist(), t.tweets.tolist(),
                    t.tweets_missing.tolist())

        def table(split):
            t, bad = _profile_table(*split)
            return flat(t) + (bad,)

        want = table(_profile_rows(text, schema))
        assert flat(parse_profiles(io.StringIO(text), schema)) == want[:-1]
        fast = _profile_columns(text, schema)
        if fast is not None:
            assert table(fast) == want
        if len(schema.delimiter) == 1 and "\n\n" not in "\n" + text + "\n" and all(
                line.count(schema.delimiter) == len(fields) - 1 for line in lines):
            assert fast is not None


# (column path, row loop, valid rows) of each CSV reader
READERS = {
    "partition": (lambda t: _partition_columns(t, 3), lambda t: _partition_rows(t, 3),
                  "node_id,community_id\n2,0\n0,1\n1,1\n"),
    "truth": (_truth_columns, _truth_rows,
              "node_id,block_id,is_zombie,region\n0,0,1,a\n1,0,0,b\n2,1,True,\n"),
    "ranks": (_ranks_columns, _ranks_rows, "node_id,community_id,io,pagerank,converged\n"
              "2,1,0.5,0.25,true\n0,0,0.5,1.0,false\n1,1,0.5,0.75,true\n"),
    "report": (_report_columns, _report_rows, "node_id,community_id,pagerank,threshold,label\n"
               "2,0,0.25,,zombie\n0,0,0.5,0.1,normal\n1,1,0.25,-0.0,normal\n"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_odd_token_in_every_column(reader):
    columns, rows, text = READERS[reader]
    flat = {"partition": lambda a: a.tolist(),
            "truth": lambda t: (t.block_ids.tolist(), t.is_zombie.tolist(), t.regions),
            "ranks": lambda v: [(c, x.members.tolist(), x.values.tobytes(), x.converged)
                                for c, x in v.items()],
            "report": lambda labels: list(labels.items())}[reader]
    def same(a, b):
        return flat(a) == flat(b)

    lines = text.split("\n")
    check_column_path(columns, rows, text, True, same)
    for row in (1, 3):
        fields = lines[row].split(",")
        for col in range(len(fields)):
            for token in ODD_TOKENS:
                odd = fields[:col] + [token] + fields[col + 1:]
                changed = "\n".join(lines[:row] + [",".join(odd)] + lines[row + 1:])
                check_column_path(columns, rows, changed, False, same)
    head, first, second, third, _ = lines
    repeated = ",".join(second.split(",")[:1] + third.split(",")[1:])
    for changed in (
            # the second row's first field moved to the end of the first row
            [head, first + "," + second.partition(",")[0], second.partition(",")[2], third],
            [head, first, "", second, third],
            [head, first, second, repeated],  # a node twice, another missing
            [head, first, first, second, third],
            [head, first, third]):
        check_column_path(columns, rows, "\n".join(changed) + "\n", False, same)
    for newline in ("\r\n", "\r"):
        check_column_path(columns, rows, text.replace("\n", newline), False, same)
    check_column_path(columns, rows, text.rstrip("\n"), True, same)


# each reader, and a valid first row; a text stream keeps a lone CR, which
# csv.reader refuses to split
STREAM_READERS = {
    "partition": (lambda s: read_partition_csv(s, 2), "node_id,community_id", "0,0"),
    "truth": (read_truth_csv, "node_id,block_id,is_zombie,region", "0,0,1,a"),
    "ranks": (read_ranks_csv, "node_id,community_id,io,pagerank,converged",
              "0,0,0.5,1.0,true"),
    "report": (read_report_csv, "node_id,community_id,pagerank,threshold,label",
               "0,0,1.0,,normal"),
}


@pytest.mark.parametrize("reader", sorted(STREAM_READERS))
def test_lone_cr_in_a_text_stream_is_a_bad_row(reader):
    read, header, row = STREAM_READERS[reader]
    for text, line in ((f"{header}\r{row}\r", 1), (f"{header}\n{row}\r{row}\n", 2)):
        with pytest.raises(ValidationError, match=f"^bad {reader} row on line {line}: "):
            read(io.StringIO(text))


@pytest.mark.parametrize("line,uid,name", [
    ("u1 \tamy", "u1", "amy"), (" u1\tamy", "u1", "amy"), ("u1\tamy\u3000", "u1", "amy"),
    ("北京\t\u3000amy", "北京", "amy"), ("u1\tamy\r", "u1", "amy"), ("u 1\ta my", "u 1", "a my")])
def test_profile_fields_are_stripped_on_the_column_path(line, uid, name):
    schema = ProfileSchema(("uid", "name"))
    text = line + "\nu2\tbob\n"
    assert _profile_columns(text, schema) is not None
    table = parse_profiles(io.StringIO(text), schema)
    assert (table.uid, table.name) == ([uid, "u2"], [name, "bob"])


class TestProfileWarnings:
    TEXT = ("u0\tamy\tf\tno\tBeijing\t\t3\t0\n"        # blank followers
            "u9\tbob\tm\tno\t\tx\t2\t0\n"              # bad followers, uid mismatch
            "u2\tcat\tf\tno\tHarbin\t4\t99999999999999999999\t\n")  # too big, blank

    def test_row_loop_tallies_equal_the_column_path(self, caplog, monkeypatch):
        uidlist = [(0, "u0"), (1, "u1"), (2, "u2")]
        with caplog.at_level(logging.WARNING):
            columns = parse_profiles(io.StringIO(self.TEXT), uidlist=uidlist)
        column_log = caplog.text
        caplog.clear()
        monkeypatch.setattr("zombiescan.ingest._profile_columns", lambda text, schema: None)
        with caplog.at_level(logging.WARNING):
            rows = parse_profiles(io.StringIO(self.TEXT), uidlist=uidlist)
        assert caplog.text == column_log
        assert "4 numeric profile fields were blank or unparseable" in column_log
        assert "1 profile uids disagree with the uid list" in column_log
        for name in ("followers", "followees", "tweets"):
            for suffix in ("", "_missing"):
                assert getattr(rows, name + suffix).tolist() == \
                    getattr(columns, name + suffix).tolist()
        assert columns.followees_missing.tolist() == [False, False, True]
        assert columns.regions == rows.regions == ["Beijing", "", "Harbin"]


def test_record_without_count_fields_masks_them_untallied(caplog):
    text = "1001\tamy\tf\tyes\tBeijing\t10\t3\n1002\tbob\tm\tno\tHarbin\t4\t5\t6\n"
    with caplog.at_level(logging.WARNING):
        table = parse_profiles(io.StringIO(text))
    assert table.uid == ["1001", "1002"]
    assert table.tweets.tolist() == [0, 6]
    assert table.tweets_missing.tolist() == [True, False]
    assert table.followees.tolist() == [3, 5]
    assert not table.followees_missing.any()
    assert "unparseable" not in caplog.text


@pytest.mark.parametrize("column", [["1,234", "5", ","], ["1,2", "3"], [",", "4"], [","]])
def test_int_column_leaves_fields_holding_the_separator_to_the_row_loop(column):
    assert int_column(column) is None


class TestDecoding:
    def test_bytes_decode_with_universal_newlines(self):
        assert read_text(io.BytesIO("a\r\nb\rc\n北京".encode()), "utf-8") == "a\nb\nc\n北京"

    def test_undecodable_byte_names_its_line(self):
        with pytest.raises(ParseError, match=r"^line 3: byte 0xe9 is not UTF-8 text$"):
            read_text(io.BytesIO(b"a\r\nb\rP\xe9kin\n"), "utf-8")

    def test_numeric_files_stay_ascii(self):
        report = "node_id,community_id,pagerank,threshold,label\n0,0,0.1,,normal\n北"
        with pytest.raises(ParseError, match="line 3: byte 0xe5 is not ASCII text"):
            read_report_csv(io.BytesIO(report.encode()))


SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 1e16, 0.1, 1 / 3,
                                  float("inf")]) | st.floats()


class TestWriters:
    @given(st.lists(st.integers(0, 5), max_size=8), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_partition_matches_csv_writer(self, assignment, with_uids, data):
        part = Partition(np.asarray(assignment, dtype=np.int64))
        uids = [data.draw(TEXT | st.text("\n,\"x")) for _ in assignment] if with_uids else None
        buf = io.StringIO()
        write_partition_csv(part, buf, uids)
        assert buf.getvalue() == partition_csv_rows(part.assignment.tolist(), uids)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_ranks_matches_csv_writer(self, n, data):
        node = st.integers(0, n - 1)
        g = build_graph(data.draw(st.lists(st.tuples(node, node, st.just(0)), max_size=12)), n)
        part = Partition(np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n,
                                                       max_size=n))))
        vectors = {c: ImportanceVector(
            np.asarray([data.draw(SPECIAL_FLOATS) for _ in part.members(c)]),
            part.members(c), 1, 0.0, data.draw(st.booleans()))
            for c in range(part.community_count)}
        source = data.draw(st.sampled_from(["local", "profile"]))
        profiles = profile_table(n, followers=[data.draw(st.none() | st.integers(0, 9))
                                               for _ in range(n)],
                                 followees=[3] * n)
        io_col = io_reference(g, part.assignment, source, profiles)
        pagerank = np.zeros(n)
        converged = np.ones(n, dtype=bool)
        for vec in vectors.values():
            pagerank[vec.members] = vec.values
            converged[vec.members] = vec.converged
        buf = io.StringIO()
        write_ranks_csv(buf, g, part, vectors, profiles, source)
        assert buf.getvalue() == ranks_csv_rows(part.assignment, io_col, pagerank, converged)

    @given(st.integers(0, 8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_report_matches_csv_writer(self, n, data):
        floats = st.lists(SPECIAL_FLOATS | st.just(float("nan")), min_size=n, max_size=n)
        report = ZombieReport(
            node_ids=np.arange(n), community_ids=np.asarray(
                data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64),
            values=np.asarray(data.draw(floats), dtype=np.float64),
            thresholds=np.asarray(data.draw(floats), dtype=np.float64),
            is_zombie=np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                                 dtype=bool),
            method="linear", min_community_size=5, communities=4)
        buf = io.StringIO()
        write_report_csv(report, buf)
        assert buf.getvalue() == report_csv_rows(report)

    @given(st.lists(st.tuples(st.integers(0, 2 ** 63 - 1), st.sampled_from(" \n,"))))
    @settings(max_examples=100, deadline=None)
    def test_render_ints_matches_str(self, tokens):
        values = np.asarray([v for v, _ in tokens], dtype=np.int64)
        separators = np.frombuffer("".join(s for _, s in tokens).encode(), dtype=np.uint8)
        assert render_ints(values, separators) == \
            "".join(f"{v}{s}" for v, s in tokens).encode()
