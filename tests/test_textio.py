"""Whole-buffer readers and format-and-join writers against their references.

Each CSV reader must agree with its row loop over csv.reader in
tests/oracles.py: the same values, or the same error type and message. A
clean file must be read in one pass, without csv.reader and without the
per-token integer loop. Each writer must equal csv.writer byte for byte.
"""

import csv
import dataclasses
import io
import logging
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zombiescan import (ParseError, Partition, SynthConfig, ValidationError, build_graph,
                        detect_zombies, parse_profiles, parse_uidlist, parse_weibo_network,
                        rank_all_communities, textio)
from zombiescan.cli import main
from zombiescan.community import read_partition_csv, write_partition_csv
from zombiescan.detect import ZombieReport, read_report_csv, write_report_csv, write_summary_json
from zombiescan.ingest import _profile_columns, _profile_rows, _profile_table
from zombiescan.rank import ImportanceVector, read_ranks_csv, write_ranks_csv
from zombiescan.synth import GroundTruth, read_truth_csv, write_truth_csv
from zombiescan.textio import (float_column, float_reprs, int_column, read_bytes, render_ints,
                               split_csv, split_fields, write_csv, write_json)

from conftest import DATA, profile_table
from oracles import (float_text, io_reference, partition_csv_rows, ranks_csv_rows,
                     read_partition_rows, read_ranks_rows, read_report_rows, read_truth_rows,
                     report_csv_rows)

# tokens the readers must read exactly as the row loops do
ODD_TOKENS = ["", " 7", "7 ", "+7", "-7", "07", "7.5", '"7"', "٧", "x", "1e3", "nan",
              "inf", "-0.0", "99999999999999999999", "9223372036854775807", "true", "false",
              "True", "zombie", "normal", "a,b", "\x00", "9223372036854775808",
              "-9223372036854775808", "0000000000000000000000007", "1\u00a0", "7_0", "\x1c7"]
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
    """Fail on any call of csv.reader, of the per-token integer loop, or of
    `int_column`, which reads integers from strings: a clean file's integer
    columns are read from its bytes, with no string per field."""
    def refuse(*args):
        raise AssertionError("a clean file left the one-pass path")

    with mock.patch("csv.reader", refuse), mock.patch("zombiescan.textio.int64", refuse), \
            mock.patch("zombiescan.textio.int_column", refuse), \
            mock.patch("zombiescan.ingest.int_column", refuse):
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
    @settings(max_examples=600, deadline=None)
    def test_profiles(self, data):
        # a plain file: digit counts, no tab inside a field and no line fault
        plain = data.draw(st.booleans())
        count = st.integers(0, 10 ** 6).map(str)
        if not plain:
            count |= st.sampled_from(
                ["", " 5", "5 ", "x", "5.0", "-3", "+4", "٣", "99999999999999999999", " ",
                 "1,234", ",", "9223372036854775808", "-9223372036854775808",
                 "0000000000000000000000007", "1\u00a0", "\x1c5"])
        alphabet = "ab 1北京　\r," if plain else "ab 1\t北京　\r,"
        text_value = st.text(st.sampled_from(alphabet), max_size=4)
        lines = []
        for _ in range(data.draw(st.integers(0, 5))):
            # uid name gender verification region, then followers followees tweets
            lines.append("\t".join(data.draw(text_value if j < 5 else count) for j in range(8)))
        for fault in [] if plain else data.draw(
                st.lists(st.sampled_from(["blank", "short", "long", "crlf"]), max_size=2)):
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
        fast = _profile_columns(text.encode())
        if fast is not None:
            assert table(fast) == want
        if "\n\n" not in "\n" + text + "\n" and all(line.count("\t") == 7 for line in lines):
            assert fast is not None
            # counts of 1 to 19 ASCII digits within int64 are read from the bytes
            if all(f.isascii() and f.isdigit() and len(f) <= 19 and int(f) < 2 ** 63
                   for line in lines for f in line.split("\t")[5:7]):
                with one_pass():
                    assert flat(parse_profiles(io.StringIO(text))) == want[:-1]


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
            parse_profiles(f"{DATA}/{name}/user_profile.txt")
            read_truth_csv(f"{DATA}/{name}/truth.csv")
            read_partition_csv(run / "partition.csv", node_count)
            read_ranks_csv(run / "ranks.csv")
            read_report_csv(run / "report.csv")


@pytest.mark.parametrize("region,followers,followees,want", [
    ("Beijing ", "5", "3", "Beijing"), (" Beijing", " 5", "3 ", "Beijing"),
    ("Beijing\u3000", "5", "3", "Beijing"), ("\u3000北京", "5", "3", "北京"),
    ("Beijing\r", "5\r", "\r3", "Beijing"), ("Inner Mongolia", "5", "3", "Inner Mongolia"),
    # str.strip() removes U+001C to U+001F, which int() refuses
    ("Beijing", "\x1c5", "3\x1f", "Beijing")],
    ids=["trailing-space", "leading-space", "trailing-wide-space", "leading-wide-space",
         "carriage-return", "inner-space-kept", "separator-controls"])
def test_profile_fields_are_stripped_on_the_column_path(region, followers, followees, want):
    text = f"u1\tamy\tf\tno\t{region}\t{followers}\t{followees}\t0\nu2\tbob\tm\tno\tHarbin\t1\t2\t0\n"
    assert _profile_columns(text.encode()) is not None
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
    values, bad = int_column(column)
    assert bad.tolist() == ["," in field for field in column]
    assert values.tolist() == [0 if "," in field else int(field) for field in column]


# "7\x00": int() refuses a trailing NUL, which numpy's fixed-width strings drop
@given(st.lists(st.sampled_from(ODD_TOKENS + [None, "7\x00"])
                | st.integers(0, 10 ** 20).map(str), max_size=6))
@settings(max_examples=300, deadline=None)
def test_int_column_equals_a_token_loop(column):
    want = []
    for token in column:
        try:
            want.append(textio.int64(token))
        except (TypeError, ValueError):
            want.append(None)
    values, bad = int_column(column)
    assert values.dtype == np.int64
    assert [None if b else v for v, b in zip(values.tolist(), bad.tolist())] == want
    assert values[bad].tolist() == [0] * int(bad.sum())


def test_quoted_field_reads_integer_columns_in_one_call():
    n = 50_000
    text = "node_id,community_id,uid\n" + "".join(f"{i},{i % 7},u{i}\n" for i in range(n))
    text = text.replace(",u1\n", ',"u,1"\n', 1)  # the csv module splits it

    def refuse(*args):
        raise AssertionError("an integer column went token by token")

    with mock.patch("zombiescan.textio.int64", refuse):
        part = read_partition_csv(io.StringIO(text), n)
    assert part.assignment.tolist() == Partition(np.arange(n) % 7).assignment.tolist()


@pytest.mark.parametrize("width", [1, 2, 8])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_split_fields_refuses_a_blank_line(width, at):
    rows = [",".join(f"{row}{j}" for j in range(width)) for row in "ab"]
    fields = split_fields(("\n".join(rows) + "\n").encode(), ",", width)
    assert [field for i in range(len(fields)) for field in fields.row(i)] == \
        [f"{row}{j}" for row in "ab" for j in range(width)]
    blank = rows[:at] + [""] + rows[at:]  # at the start, in the middle, at the end
    assert split_fields(("\n".join(blank) + "\n").encode(), ",", width) is None


class TestDecoding:
    def test_bytes_decode_with_universal_newlines(self):
        assert read_bytes(io.BytesIO("a\r\nb\rc\n北京".encode()), "utf-8") == \
            "a\nb\nc\n北京".encode()

    def test_undecodable_byte_names_its_line(self):
        with pytest.raises(ParseError, match=r"^line 3: byte 0xe9 is not UTF-8 text$"):
            read_bytes(io.BytesIO(b"a\r\nb\rP\xe9kin\n"), "utf-8")

    @pytest.mark.parametrize("read,text", [
        (lambda s: read_partition_csv(s, 2), "node_id,community_id,uid\n0,0,a\n1,0,\ud800\n"),
        (read_truth_csv, "node_id,block_id,is_zombie,region\n0,0,1,a\n1,0,0,\ud800\n"),
        (parse_profiles, "u0\ta\tf\tno\tBeijing\t1\t2\t0\n\nu1\tb\tm\tno\t\ud800\t1\t2\t0\n"),
        (parse_uidlist, "u0\r\nu1\n\ud800\n"),
        (SynthConfig.from_json, '{"block_sizes": [4],\n"seed": 1,\n"regions": {"\ud800": 1}}')],
        ids=["partition", "truth", "profiles", "uidlist", "synth-config"])
    def test_lone_surrogate_in_a_text_stream_names_its_line(self, read, text):
        with pytest.raises(ParseError, match=r"^line 3: character '\\ud800' is not UTF-8 text$"):
            read(io.StringIO(text))

    @pytest.mark.parametrize("read,text", [
        (read_ranks_csv, "node_id,community_id,io,pagerank,converged\n"
                         "0,0,0.5,1.0,true\n1,0,0.5,\u0661,true\n"),
        (read_report_csv, "node_id,community_id,pagerank,threshold,label\n"
                          "0,0,1.0,,normal\n1,0,1.0,,n\u0661rmal\n"),
        # a text stream is taken as it reads: its CR is no line end
        (lambda s: read_bytes(s, "ascii"), "0 1\r2\n\n3\u0661\n")],
        ids=["ranks", "report", "read_bytes"])
    def test_numeric_text_stream_stays_ascii(self, read, text):
        with pytest.raises(ParseError, match="^line 3: character '\u0661' is not ASCII text$"):
            read(io.StringIO(text))

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
        uids = ([data.draw(FIELD_TEXT | st.text("\n,\"x")) for _ in assignment] if with_uids
                else None)
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


def nan_with(payload: int) -> float:
    """A quiet NaN whose low mantissa bits are `payload`."""
    return float(np.array([0x7FF8000000000000 | payload]).view(np.float64)[0])


def repr_reference(values) -> list[str]:
    return list(map(float_text, np.asarray(values).tolist()))


@pytest.fixture
def renders(monkeypatch):
    """The bits of the columns float_reprs renders anew, from an empty memo."""
    calls = []
    render = textio._render_floats

    def spy(bits):
        calls.append(bits.tolist())
        return render(bits)

    monkeypatch.setattr(textio, "_last_render", None)
    monkeypatch.setattr(textio, "_render_floats", spy)
    return calls


class TestFloatMemo:
    """float_reprs gives back the last column's strings for an identical column."""

    OPS = ("new", "repeat", "zero-sign", "nan-payload", "mutate")

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_render_equals_repr(self, data):
        column = st.lists(SPECIAL_FLOATS | st.builds(nan_with, st.integers(0, 2 ** 51 - 1)),
                          max_size=6)
        # every op at least once, in a drawn order, among drawn extras
        ops = data.draw(st.permutations(
            list(self.OPS) + data.draw(st.lists(st.sampled_from(self.OPS), max_size=6))))
        values = np.asarray(data.draw(column), dtype=np.float64)

        def check(values):
            got = float_reprs(values)
            assert got == repr_reference(values)
            return got

        for op in ops:
            if op == "new":
                values = np.asarray(data.draw(column), dtype=np.float64)
            elif op == "repeat":
                check(values.copy())
            elif op in ("zero-sign", "nan-payload"):
                if not values.shape[0]:
                    values = np.zeros(1)
                at = data.draw(st.integers(0, values.shape[0] - 1))
                pair = (0.0, -0.0) if op == "zero-sign" else map(nan_with, data.draw(
                    st.lists(st.integers(1, 2 ** 51 - 1), min_size=2, max_size=2, unique=True)))
                # the same array, changed in place between the two renders
                for x in pair:
                    values[at] = x
                    check(values)
            else:  # mutate
                got = check(values)
                got[:] = ["x"] * len(got)
                got.append("y")
                check(values)
            check(values)

    def test_the_pipeline_renders_pagerank_once(self, renders):
        corpus = f"{DATA}/zombie_5x500"
        g = parse_weibo_network(f"{corpus}/weibo_network.txt").to_graph()
        part = Partition(read_truth_csv(f"{corpus}/truth.csv").block_ids)
        vectors = rank_all_communities(g, part)
        write_ranks_csv(io.StringIO(), g, part, vectors)
        report = detect_zombies(vectors)
        write_report_csv(report, io.StringIO())
        pagerank = np.zeros(g.node_count)
        for vec in vectors.values():
            pagerank[vec.members] = vec.values
        # io, pagerank and the fences; the report's pagerank column is the memo's
        assert len(renders) == 3
        assert renders[1] == pagerank.view(np.int64).tolist()
        assert renders[2] == report.thresholds.view(np.int64).tolist()

    def test_the_memo_holds_one_column(self, renders):
        a, b = np.array([0.5, 1 / 3]), np.array([0.25])
        for column in (a, b, a, a):
            assert float_reprs(column) == repr_reference(column)
        assert renders == [a.view(np.int64).tolist(), b.view(np.int64).tolist(),
                           a.view(np.int64).tolist()]


# what the stage files carry: text of every kind but CR (no uid list, region
# name or label holds one), and the floats each reader accepts
FIELD_TEXT = st.text(st.sampled_from('ab 1,\t"\n北京　'), max_size=4)
SHARE = st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 0.1, 1 / 3, 1.0]) | st.floats(0, 1)


def same_floats(got, want) -> bool:
    """Equal bit for bit, any NaN matching any NaN."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    return (np.isnan(got) == nan).all() and \
        got[~nan].view(np.int64).tolist() == want[~nan].view(np.int64).tolist()


def written(write) -> str:
    buf = io.StringIO()
    write(buf)
    return buf.getvalue()


class TestNanIsBlank:
    """A NaN goes out as a blank field, which the ranks and report readers
    refuse where a value must be finite and read as a fence too small to set."""

    @pytest.mark.parametrize("column", [2, 3])  # io, pagerank
    def test_ranks_value(self, column):
        values, io_col = np.array([0.5, 0.5]), np.array([0.25, 0.75])
        (io_col if column == 2 else values)[1] = np.nan
        vectors = {0: ImportanceVector(values, np.arange(2), 1, 0.0, True, io_col)}
        text = written(lambda buf: write_ranks_csv(buf, build_graph([], 2), Partition([0, 0]),
                                                   vectors))
        row = ["1", "0", "0.75", "0.5", "true"]
        row[column] = ""
        assert text.splitlines()[2] == ",".join(row)
        with pytest.raises(ValidationError) as refused:
            read_ranks_csv(io.StringIO(text))
        assert str(refused.value) == f"bad ranks row: {row!r}"

    @staticmethod
    def report(values, thresholds) -> ZombieReport:
        return ZombieReport(community_ids=np.zeros(2, dtype=np.int64), values=np.array(values),
                            thresholds=np.array(thresholds), is_zombie=np.array([True, False]),
                            method="linear", min_community_size=5, communities=1)

    def test_report_value(self):
        text = written(lambda buf: write_report_csv(self.report([0.0, np.nan], [0.1, 0.1]),
                                                    buf))
        assert text.splitlines()[2] == "1,0,,0.1,normal"
        with pytest.raises(ValidationError) as refused:
            read_report_csv(io.StringIO(text))
        assert str(refused.value) == "bad report row: ['1', '0', '', '0.1', 'normal']"

    def test_report_fence(self):
        text = written(lambda buf: write_report_csv(self.report([0.0, 0.5], [0.1, np.nan]),
                                                    buf))
        assert text.splitlines()[2] == "1,0,0.5,,normal"
        assert read_report_csv(io.StringIO(text)).tolist() == [True, False]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_json_refuses_it(self, tmp_path, value):
        # JSON has no NaN or infinity: no file holds the tokens NaN or Infinity
        path = tmp_path / "out.json"
        with pytest.raises(ValidationError, match="^cannot write JSON: "):
            write_json({"proportion": [0.5, value]}, path)
        report = dataclasses.replace(self.report([0.0, 0.5], [0.1, 0.1]),
                                     min_community_size=value)
        with pytest.raises(ValidationError, match="^cannot write JSON: "):
            write_summary_json(report, path)
        assert not path.exists()


class TestRoundTrips:
    """Each reader returns what its writer wrote."""

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_write_csv_and_split_csv(self, n, data):
        ints = np.asarray(data.draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n,
                                             max_size=n)), dtype=np.int64)
        floats = np.asarray(data.draw(st.lists(SPECIAL_FLOATS, min_size=n, max_size=n)))
        text = data.draw(st.lists(FIELD_TEXT, min_size=n, max_size=n))
        header = ("i", "f", "t")
        rows = split_csv(written(lambda buf: write_csv(buf, header, [ints, floats, text]))
                         .encode(), "table", header)
        assert rows.ints(0)[0].tolist() == ints.tolist()
        # a NaN is written blank
        assert same_floats(float_column([f or "nan" for f in rows.text(1)])[0], floats)
        assert rows.text(2) == text

    @pytest.mark.parametrize("uids", [["a\rb", "c"], ["a", "\r"], ["a", "b\r\n"]])
    def test_a_text_field_holding_cr_is_refused(self, tmp_path, uids):
        path = tmp_path / "partition.csv"
        row = next(i for i, u in enumerate(uids) if "\r" in u)
        with pytest.raises(ValidationError) as refused:
            write_partition_csv(Partition([0, 1]), path, uids)
        assert str(refused.value) == f"uid {uids[row]!r} in row {row} holds a CR, which no " \
            "reader gives back"
        assert not path.exists()

    @given(st.lists(st.integers(0, 5), max_size=8), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_partition(self, assignment, with_uids, data):
        part = Partition(np.asarray(assignment, dtype=np.int64))
        uids = data.draw(st.lists(FIELD_TEXT, min_size=len(assignment),
                                  max_size=len(assignment))) if with_uids else None
        text = written(lambda buf: write_partition_csv(part, buf, uids))
        again = read_partition_csv(io.StringIO(text), part.node_count)
        assert again.assignment.tolist() == part.assignment.tolist()
        if with_uids:
            header = ("node_id", "community_id", "uid")
            assert split_csv(text.encode(), "partition", header).text(2) == uids

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_ranks(self, n, data):
        part = Partition(np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n,
                                                       max_size=n))))
        vectors = {}
        for c in range(part.community_count):
            members = np.flatnonzero(part.assignment == c)
            shares = st.lists(SHARE | st.floats(0, 1e300), min_size=members.shape[0],
                              max_size=members.shape[0])
            vectors[c] = ImportanceVector(np.asarray(data.draw(shares)), members, 0, 0.0,
                                          data.draw(st.booleans()),
                                          np.asarray(data.draw(shares)).clip(0, 1))
        again = read_ranks_csv(io.StringIO(written(
            lambda buf: write_ranks_csv(buf, build_graph([], n), part, vectors))))
        assert sorted(again) == sorted(vectors)
        for c, vec in vectors.items():
            assert again[c].members.tolist() == vec.members.tolist()
            assert same_floats(again[c].values, vec.values)
            assert same_floats(again[c].io, vec.io)
            assert again[c].converged == vec.converged

    @given(st.integers(0, 8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_report(self, n, data):
        def floats(values):
            return np.asarray(data.draw(st.lists(values, min_size=n, max_size=n)),
                              dtype=np.float64)

        report = ZombieReport(
            community_ids=np.asarray(
                data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64),
            values=floats(SHARE | st.floats(0, 1e300)),
            thresholds=floats(st.floats(allow_infinity=False)),  # NaN: a community too small
            is_zombie=np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                                 dtype=bool),
            method="linear", min_community_size=5, communities=4)
        text = written(lambda buf: write_report_csv(report, buf))
        assert read_report_csv(io.StringIO(text)).tolist() == report.is_zombie.tolist()
        rows = split_csv(text.encode(), "report", ("node_id", "community_id", "pagerank",
                                                   "threshold", "label"))
        assert same_floats(float_column(rows.text(2))[0], report.values)
        assert same_floats(float_column([t or "nan" for t in rows.text(3)])[0],
                           report.thresholds)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_truth(self, n, data):
        truth = GroundTruth(
            np.asarray(data.draw(st.lists(st.integers(0, 2 ** 63 - 1), min_size=n,
                                          max_size=n)), dtype=np.int64),
            np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))),
            data.draw(st.lists(FIELD_TEXT, min_size=n, max_size=n)))
        again = read_truth_csv(io.StringIO(written(lambda buf: write_truth_csv(truth, buf))))
        assert again.block_ids.tolist() == truth.block_ids.tolist()
        assert again.is_zombie.tolist() == truth.is_zombie.tolist()
        assert again.regions == truth.regions
