"""Whole-buffer readers and format-and-join writers against their references.

Each CSV reader must agree with its row loop over csv.reader in
tests/oracles.py: the same values, or the same error type and message. A
clean file must be read in one pass, without csv.reader and without the
per-token integer loop. Each writer must equal csv.writer byte for byte.
"""

import csv
import io
import logging
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zombiescan import ParseError, Partition, ValidationError, build_graph, parse_profiles
from zombiescan.cli import main
from zombiescan.community import read_partition_csv, write_partition_csv
from zombiescan.detect import ZombieReport, read_report_csv, write_report_csv
from zombiescan.ingest import _profile_columns, _profile_rows, _profile_table
from zombiescan.rank import ImportanceVector, read_ranks_csv, write_ranks_csv
from zombiescan.synth import read_truth_csv
from zombiescan.textio import _digit_column, int_column, read_text, render_ints, split_fields

from conftest import DATA, profile_table
from oracles import (io_reference, partition_csv_rows, ranks_csv_rows, read_partition_rows,
                     read_ranks_rows, read_report_rows, read_truth_rows, report_csv_rows)

# tokens the readers must read exactly as the row loops do
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


@contextmanager
def one_pass():
    """Fail on any call of csv.reader or of the per-token integer loop."""
    def refuse(*args):
        raise AssertionError("a clean file left the one-pass path")

    with mock.patch("csv.reader", refuse), mock.patch("zombiescan.textio.int64", refuse):
        yield


def check_reader(read, oracle, text, clean):
    """The reader returns what the row loop returns, or raises its error; a
    clean file takes the one-pass path."""
    with one_pass() if clean else nullcontext():
        got = outcome(lambda: read(text))
    assert got == outcome(lambda: oracle(text))


def permutation(draw, n):
    return draw(st.permutations(range(n)))


def flat_truth(truth):
    return truth.block_ids.tolist(), truth.is_zombie.tolist(), truth.regions


def flat_ranks(vectors):
    return [(cid, v.members.tolist(), v.members.dtype, v.values.tobytes(), v.values.dtype,
             v.converged, v.iterations, v.residual, v.io.tobytes(), v.io.dtype)
            for cid, v in vectors.items()]


def flat_ranks_rows(vectors):
    return [(cid, members.tolist(), members.dtype, values.tobytes(), values.dtype, converged,
             0, 0.0, io_values.tobytes(), io_values.dtype)
            for cid, (members, values, converged, io_values) in vectors.items()]


# (reader, row loop) of each CSV kind, both returning comparable values
def partition_readers(n):
    return (lambda t: read_partition_csv(io.StringIO(t), n).assignment.tolist(),
            lambda t: Partition(read_partition_rows(t, n)).assignment.tolist())


TRUTH = (lambda t: flat_truth(read_truth_csv(io.StringIO(t))), read_truth_rows)
RANKS = (lambda t: flat_ranks(read_ranks_csv(io.StringIO(t))),
         lambda t: flat_ranks_rows(read_ranks_rows(t)))
REPORT = (lambda t: read_report_csv(io.StringIO(t)).tolist(), read_report_rows)


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
        check_reader(*partition_readers(n), text, clean)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_truth(self, data):
        n = data.draw(st.integers(0, 6))
        flags = st.sampled_from(["0", "1", "true", "false", "True", "False"])
        rows = [[str(i), str(data.draw(st.integers(0, 3))), data.draw(flags),
                 data.draw(st.text("ab 北京", max_size=3))] for i in range(n)]
        text, clean = data.draw(csv_text(["node_id", "block_id", "is_zombie", "region"], rows))
        check_reader(*TRUTH, text, clean)

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
        check_reader(*RANKS, text, clean)

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
        check_reader(*REPORT, text, clean)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_profiles(self, data):
        count = st.integers(0, 10 ** 6).map(str) | st.sampled_from(
            ["", " 5", "5 ", "x", "5.0", "-3", "+4", "٣", "99999999999999999999", " ",
             "1,234", ","])
        text_value = st.text(st.sampled_from("ab 1\t北京　\r,"), max_size=4)
        lines = []
        for _ in range(data.draw(st.integers(0, 5))):
            # uid name gender verification region, then followers followees tweets
            lines.append("\t".join(data.draw(text_value if j < 5 else count) for j in range(8)))
        for fault in data.draw(st.lists(st.sampled_from(["blank", "short", "long", "crlf"]),
                                        max_size=2)):
            at = data.draw(st.integers(0, len(lines)))
            if fault == "blank":
                lines.insert(at, "")
            elif lines and fault in ("short", "long"):
                at = min(at, len(lines) - 1)
                lines[at] = (lines[at].rpartition("\t")[0] if fault == "short"
                             else lines[at] + "\t7")
            elif lines:
                lines[min(at, len(lines) - 1)] += "\r"
        text = "".join(line + "\n" for line in lines)
        if data.draw(st.booleans()):
            text = text.rstrip("\n")

        def flat(t):
            return (t.region_names, t.region_codes.tolist(), t.followers.tolist(),
                    t.followers_missing.tolist(), t.followees.tolist(),
                    t.followees_missing.tolist())

        def table(split):
            t, bad = _profile_table(*split)
            return flat(t) + (bad,)

        want = table(_profile_rows(text))
        assert flat(parse_profiles(io.StringIO(text))) == want[:-1]
        fast = _profile_columns(text)
        if fast is not None:
            assert table(fast) == want
        if "\n\n" not in "\n" + text + "\n" and all(line.count("\t") == 7 for line in lines):
            assert fast is not None


# (reader, row loop, valid rows) of each CSV kind
READERS = {
    "partition": (*partition_readers(3), "node_id,community_id\n2,0\n0,1\n1,1\n"),
    "truth": (*TRUTH, "node_id,block_id,is_zombie,region\n0,0,1,a\n1,0,0,b\n2,1,True,\n"),
    "ranks": (*RANKS, "node_id,community_id,io,pagerank,converged\n"
              "2,1,0.5,0.25,true\n0,0,0.5,1.0,false\n1,1,0.5,0.75,true\n"),
    "report": (*REPORT, "node_id,community_id,pagerank,threshold,label\n"
               "2,0,0.25,,zombie\n0,0,0.5,0.1,normal\n1,1,0.25,-0.0,normal\n"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_odd_token_in_every_column(reader):
    read, rows, text = READERS[reader]
    lines = text.split("\n")
    check_reader(read, rows, text, True)
    for row in (1, 3):
        fields = lines[row].split(",")
        for col in range(len(fields)):
            for token in ODD_TOKENS:
                odd = fields[:col] + [token] + fields[col + 1:]
                changed = "\n".join(lines[:row] + [",".join(odd)] + lines[row + 1:])
                check_reader(read, rows, changed, False)
    head, first, second, third, _ = lines
    repeated = ",".join(second.split(",")[:1] + third.split(",")[1:])
    for changed in (
            # the second row's first field moved to the end of the first row
            [head, first + "," + second.partition(",")[0], second.partition(",")[2], third],
            [head, first, "", second, third],
            [head, first, second, repeated],  # a node twice, another missing
            [head, first, first, second, third],
            [head, first, third]):
        check_reader(read, rows, "\n".join(changed) + "\n", False)
    for newline in ("\r\n", "\r"):
        check_reader(read, rows, text.replace("\n", newline), False)
        # a text stream can hold CRs after an LF-ended header
        check_reader(read, rows, head + "\n" + text.partition("\n")[2].replace("\n", newline),
                     False)
    check_reader(read, rows, text.rstrip("\n"), True)


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


@pytest.mark.parametrize("reader", ["ranks", "report"])
def test_negative_pagerank_is_a_bad_row(reader):
    read, header, row = STREAM_READERS[reader]
    fields = row.split(",")
    fields[header.split(",").index("pagerank")] = "-0.5"
    text = f"{header}\n{','.join(fields)}\n"
    with pytest.raises(ValidationError, match=f"^bad {reader} row: "):
        read(io.StringIO(text))
    check_reader(*READERS[reader][:2], text, False)  # the row loop refuses it too


def test_negative_threshold_reads():
    text = "node_id,community_id,pagerank,threshold,label\n0,0,1.0,-0.5,normal\n"
    assert read_report_csv(io.StringIO(text)).tolist() == read_report_rows(text) == [False]


# each reader, its header, a valid row and the columns it reads as integers
INT_COLUMNS = {
    "partition": (lambda s: read_partition_csv(s, 1), "node_id,community_id", "0,0", (0, 1)),
    "truth": (read_truth_csv, "node_id,block_id,is_zombie,region", "0,0,1,a", (0, 1)),
    "ranks": (read_ranks_csv, "node_id,community_id,io,pagerank,converged",
              "0,0,0.5,1.0,true", (0, 1)),
    "report": (read_report_csv, "node_id,community_id,pagerank,threshold,label",
               "0,0,1.0,,normal", (0, 1)),
}


@pytest.mark.parametrize("reader", sorted(INT_COLUMNS))
def test_integer_outside_int64_is_a_bad_row(reader):
    read, header, row, columns = INT_COLUMNS[reader]
    for column in columns:
        for token in ("99999999999999999999", "9223372036854775808", "-9223372036854775809"):
            fields = row.split(",")
            fields[column] = token
            with pytest.raises(ValidationError) as err:
                read(io.StringIO(f"{header}\n{','.join(fields)}\n"))
            assert str(err.value) == f"bad {reader} row: {fields!r}"
    # the bounds themselves read
    for token in ("9223372036854775807", "-9223372036854775808"):
        fields = row.split(",")
        fields[columns[-1]] = token
        read(io.StringIO(f"{header}\n{','.join(fields)}\n"))


def test_committed_files_are_read_in_one_pass(tmp_path):
    for name in ("planted_4x50", "zombie_5x500"):
        run = tmp_path / name
        assert main(["pipeline", f"{DATA}/{name}", "-o", str(run)]) == 0
        node_count = len((run / "ranks.csv").read_text().splitlines()) - 1
        with one_pass():
            read_truth_csv(f"{DATA}/{name}/truth.csv")
            read_partition_csv(run / "partition.csv", node_count)
            read_ranks_csv(run / "ranks.csv")
            read_report_csv(run / "report.csv")


@pytest.mark.parametrize("region,followers,followees,want", [
    ("Beijing ", "5", "3", "Beijing"), (" Beijing", " 5", "3 ", "Beijing"),
    ("Beijing\u3000", "5", "3", "Beijing"), ("\u3000北京", "5", "3", "北京"),
    ("Beijing\r", "5\r", "\r3", "Beijing"), ("Inner Mongolia", "5", "3", "Inner Mongolia")],
    ids=["trailing-space", "leading-space", "trailing-wide-space", "leading-wide-space",
         "carriage-return", "inner-space-kept"])
def test_profile_fields_are_stripped_on_the_column_path(region, followers, followees, want):
    text = f"u1\tamy\tf\tno\t{region}\t{followers}\t{followees}\t0\nu2\tbob\tm\tno\tHarbin\t1\t2\t0\n"
    assert _profile_columns(text) is not None
    table = parse_profiles(io.StringIO(text))
    assert regions_of(table) == [want, "Harbin"]
    assert (table.followers.tolist(), table.followees.tolist()) == ([5, 1], [3, 2])
    assert not (table.followers_missing.any() or table.followees_missing.any())


def regions_of(profiles) -> list[str]:
    return np.array(profiles.region_names + [""], dtype=object)[profiles.region_codes].tolist()


class TestProfileWarnings:
    TEXT = ("u0\tamy\tf\tno\tBeijing\t\t3\t0\n"        # blank followers
            "u1\tbob\tm\tno\t\tx\t2\t0\n"              # bad followers
            "u2\tcat\tf\tno\tHarbin\t4\t99999999999999999999\t\n")  # too big; tweets unread

    def test_row_loop_tallies_equal_the_column_path(self, caplog, monkeypatch):
        with caplog.at_level(logging.WARNING):
            columns = parse_profiles(io.StringIO(self.TEXT))
        column_log = caplog.text
        caplog.clear()
        monkeypatch.setattr("zombiescan.ingest._profile_columns", lambda text: None)
        with caplog.at_level(logging.WARNING):
            rows = parse_profiles(io.StringIO(self.TEXT))
        assert caplog.text == column_log
        assert "3 numeric profile fields were blank, negative or unparseable" in column_log
        for name in ("followers", "followees"):
            for suffix in ("", "_missing"):
                assert getattr(rows, name + suffix).tolist() == \
                    getattr(columns, name + suffix).tolist()
        assert columns.followees_missing.tolist() == [False, False, True]
        assert regions_of(columns) == regions_of(rows) == ["Beijing", "", "Harbin"]


def test_record_without_count_fields_masks_them_untallied(caplog):
    text = "1001\tamy\tf\tyes\tBeijing\t10\n1002\tbob\tm\tno\tHarbin\t4\t5\t6\n"
    with caplog.at_level(logging.WARNING):
        table = parse_profiles(io.StringIO(text))
    assert table.followers.tolist() == [10, 4]
    assert not table.followers_missing.any()
    assert table.followees.tolist() == [0, 5]
    assert table.followees_missing.tolist() == [True, False]
    assert "unparseable" not in caplog.text


@pytest.mark.parametrize("column", [["1,234", "5", ","], ["1,2", "3"], [",", "4"], [","]])
def test_int_column_leaves_fields_holding_the_separator_to_the_row_loop(column):
    assert _digit_column(column) is None
    values, bad = int_column(column)
    assert bad.tolist() == ["," in field for field in column]
    assert values.tolist() == [0 if "," in field else int(field) for field in column]


@pytest.mark.parametrize("width", [1, 2, 8])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_split_fields_refuses_a_blank_line(width, at):
    rows = [",".join(f"{row}{j}" for j in range(width)) for row in "ab"]
    assert split_fields("\n".join(rows) + "\n", ",", width) == \
        [f"{row}{j}" for row in "ab" for j in range(width)]
    blank = rows[:at] + [""] + rows[at:]  # at the start, in the middle, at the end
    assert split_fields("\n".join(blank) + "\n", ",", width) is None


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
        members = [np.flatnonzero(part.assignment == c) for c in range(part.community_count)]
        vectors = {c: ImportanceVector(
            np.asarray([data.draw(SPECIAL_FLOATS) for _ in members[c]]),
            members[c], 1, 0.0, data.draw(st.booleans()))
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
            community_ids=np.asarray(
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
