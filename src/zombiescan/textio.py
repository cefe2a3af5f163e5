"""Whole-file text I/O shared by the package's readers and writers.

Files with text columns (profiles, uid lists, truth, regions and the uid
column of a partition) are UTF-8; the numeric files (network, ranks,
report, JSON) are ASCII. `text_stream` is the one place that tells a
path, a binary stream and a text stream apart: every reader reads the text
it yields, which has universal newlines and escaped undecodable bytes for
a path or binary stream, and is taken as it reads for a text stream. The
reader encodes the text back to bytes (`encoded`), naming the first
character that does not encode. The network parser reads blocks of whole
lines (see `ingest`); every other reader reads its whole input through
`read_bytes`, and a reader of text decodes the bytes.

A plain table (every line `width` fields split by one delimiter byte, and
for a CSV no quote, CR or NUL) is scanned once over its UTF-8 bytes:
`split_fields` keeps the offset of every separator as a rows x width array
(`Fields`). Its integer columns are read from those bytes, one numpy step
per digit position, and never become strings; a column with a field that
is not 1 to 19 ASCII digits within int64 goes through `int_column` on its
strings instead, one numpy call that applies int() to each. Only the text
columns a reader keeps are decoded. The csv module still runs for any
other CSV (quotes, a lone CR, blank lines, rows wider or narrower than the
header); only that fallback decodes the whole file, and its columns are
lists of strings. `split_csv` hands the reader either split as one
`CsvRows`. The reader converts whole columns (`ints`, `float_column`,
`code_column`) into values and masks of the rows at fault, and
`CsvRows.check` raises the message of the first faulty row.
Every integer column is int64: a token int() refuses, or one outside 64
bits, is a fault of its row.

`write_csv` writes every stage table, as csv.writer would. It is the one
place where a float becomes text: its `repr`, or a blank field for a NaN.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

UTF8 = "utf-8"
ASCII = "ascii"

INT64_MAX = int(np.iinfo(np.int64).max)


@contextmanager
def text_stream(source, mode: str = "r", encoding: str = ASCII):
    """Yield a text stream for a path, text stream, or binary stream. A path
    or binary stream is read with universal newlines, each byte that does
    not decode kept as an escape (errors="surrogateescape"); it is written
    strictly."""
    errors = "surrogateescape" if mode == "r" else "strict"
    if isinstance(source, (str, Path)):
        with open(source, mode, encoding=encoding, errors=errors) as fh:
            yield fh
    elif isinstance(source, io.TextIOBase):
        yield source
    else:
        wrapper = io.TextIOWrapper(source, encoding=encoding, errors=errors, write_through=True)
        try:
            yield wrapper
        finally:
            wrapper.detach()


def write_json(payload, destination) -> None:
    """`payload` as JSON indented by 2, with a final newline."""
    with text_stream(destination, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def read_bytes(source, encoding: str) -> bytes:
    """The whole input, read as `text_stream` reads it, as bytes in
    `encoding`. The first character that does not encode is a ParseError
    naming it and its line."""
    with text_stream(source, "r", encoding) as fh:
        data, fault = encoded(fh.read(), encoding, fh)
    if fault is not None:
        raise ParseError(fault, data.count(b"\n") + 1)
    return data


def encoded(text: str, encoding: str, stream) -> tuple[bytes, str | None]:
    """`text`, read from `stream`, in `encoding` up to its first character
    that does not encode, and the message naming that character (None when
    every one encodes). A stream that escapes the bytes it cannot decode
    (errors="surrogateescape") holds each as U+DC80..U+DCFF: that is a byte
    that is not `encoding` text."""
    try:
        return text.encode(encoding), None
    except UnicodeEncodeError as exc:
        bad = text[exc.start]
        escaped = stream.errors == "surrogateescape" and "\udc80" <= bad <= "\udcff"
        name = f"byte 0x{ord(bad) - 0xdc00:02x}" if escaped else f"character {bad!r}"
        return text[:exc.start].encode(encoding), f"{name} is not {encoding.upper()} text"


def split_fields(body: bytes, delimiter: str, width: int) -> Fields | None:
    """The fields of UTF-8 text whose every line holds `width` fields split
    by the one-byte `delimiter`, found by one scan of its bytes; None for any
    other text, a blank line included."""
    if not body.endswith(b"\n"):
        body += b"\n"
    # wider rows need no scan: a blank line breaks their delimiter pattern below
    if width == 1 and (body.startswith(b"\n") or b"\n\n" in body):
        return None
    data = np.frombuffer(body, dtype=np.uint8)
    at_separator = data == ord(delimiter)
    at_separator |= data == 10
    ends = np.flatnonzero(at_separator)
    # each line is width - 1 delimiters and a LF apart
    pattern = np.full(width, ord(delimiter), dtype=np.uint8)
    pattern[-1] = 10
    if ends.shape[0] % width or (data[ends].reshape(-1, width) != pattern).any():
        return None
    return Fields(data, ends.reshape(-1, width), delimiter)


class Fields:
    """The fields of a plain table, held as its UTF-8 bytes: `ends[i, j]` is
    the offset of the separator that ends field j of row i (the delimiter, or
    the LF after the last field). An integer column is read from the bytes;
    only a text column, or an integer column with a field that is not plain
    digits, becomes strings."""

    __slots__ = ("data", "ends", "delimiter")

    def __init__(self, data: np.ndarray, ends: np.ndarray, delimiter: str):
        self.data, self.ends, self.delimiter = data, ends, delimiter

    def __len__(self) -> int:
        return int(self.ends.shape[0])

    def _starts(self, j: int) -> np.ndarray:
        if j:
            return self.ends[:, j - 1] + 1
        starts = np.zeros(len(self), dtype=self.ends.dtype)
        starts[1:] = self.ends[:-1, -1] + 1
        return starts

    def ints(self, j: int, strip: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Column j as `int_column` reads it (stripped first with `strip`)."""
        values = _digits(self.data, self._starts(j), self.ends[:, j])
        if values is None:
            column = self.text(j)
            return int_column(list(map(str.strip, column)) if strip else column)
        return values, np.zeros(len(self), dtype=bool)

    def text(self, j: int) -> list[str]:
        """Column j as strings."""
        if not len(self):
            return []
        starts, ends = self._starts(j), self.ends[:, j]
        sizes = ends - starts + 1  # each field with its separator
        # the offsets of the column's bytes: steps of 1, and from each
        # separator to the start of the next row's field
        at = np.ones(int(sizes.sum()), dtype=ends.dtype)
        at[0] = starts[0]
        at[np.cumsum(sizes[:-1])] = starts[1:] - ends[:-1]
        np.cumsum(at, out=at)
        separator = self.delimiter if j < self.ends.shape[1] - 1 else "\n"
        return self.data[at].tobytes().decode(UTF8).split(separator)[:-1]

    def row(self, i: int) -> list[str]:
        """The fields of row i."""
        start = int(self.ends[i - 1, -1]) + 1 if i else 0
        line = self.data[start:int(self.ends[i, -1])].tobytes().decode(UTF8)
        return line.split(self.delimiter)


def _digits(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The int64 of each field data[starts[i]:ends[i]] when every one is 1 to
    19 ASCII digits within int64; None otherwise. The fields are read right
    aligned, one Horner step per digit position."""
    sizes = ends - starts
    if not sizes.shape[0]:
        return np.zeros(0, dtype=np.int64)
    top = int(sizes.max())
    if top > 19 or sizes.min() < 1:
        return None
    values = np.zeros(sizes.shape[0], dtype=np.uint64)
    at = ends - top
    for _ in range(top):
        digit = data.take(at, mode="clip")
        digit -= 48
        digit[at < starts] = 0  # a shorter field's leading zeros
        if (digit > 9).any():
            return None
        values *= 10
        values += digit
        at += 1
    # 19 digits fit in 64 unsigned bits
    if top == 19 and (values > INT64_MAX).any():
        return None
    return values.view(np.int64)


class CsvRows:
    """The rows of a CSV after its header, split once by `split_csv`.

    ints(j) reads column j as `int_column` does, text(j) gives its fields as
    strings, "" where a row is shorter (a field that every integer, float
    and code column refuses), and row(i) gives row i's fields as csv.reader
    reads them; widths holds each row's field count. error is the "bad
    <kind> row on line N: ..." message of a csv.Error that ended the split
    after these rows, or None.
    """

    __slots__ = ("ints", "text", "row", "widths", "error")

    def __init__(self, ints, text, row, widths: np.ndarray, error=None):
        self.ints, self.text, self.row = ints, text, row
        self.widths, self.error = widths, error

    def __len__(self) -> int:
        return int(self.widths.shape[0])

    def check(self, *faults) -> None:
        """Raise the ValidationError of the first row with a fault, then the
        pending csv.Error. Each fault is (mask over the rows, message of row
        i), listed in the order a row's values are checked."""
        hits = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(faults) if mask.any()]
        if hits:
            row, k = min(hits)
            raise ValidationError(faults[k][1](row))
        if self.error is not None:
            raise ValidationError(self.error)


def split_csv(data: bytes, kind: str, *headers: tuple[str, ...]) -> CsvRows:
    """The nonblank rows of a CSV, UTF-8 bytes as `read_bytes` gives them,
    after its header, which must be one of `headers`. A file whose first
    line is a header and whose every other line holds that many unquoted
    fields is split by one scan of its bytes; any other is decoded and goes
    through csv.reader."""
    head, _, body = data.partition(b"\n")
    for header in headers:
        if head == ",".join(header).encode(ASCII):
            fields = _plain_fields(body, len(header))
            if fields is not None:
                return CsvRows(fields.ints, fields.text, fields.row,
                               np.full(len(fields), len(header), dtype=np.int64))
    return _csv_module_rows(data.decode(UTF8), kind, headers)


def _plain_fields(body: bytes, width: int) -> Fields | None:
    """The fields of `body` when each line holds `width` fields that
    csv.reader would read as they stand; None otherwise."""
    if not body:
        return Fields(np.zeros(0, dtype=np.uint8), np.zeros((0, width), dtype=np.intp), ",")
    if b'"' in body or b"\r" in body or b"\0" in body:
        return None
    fields = split_fields(body, ",", width)
    # csv.reader refuses a field longer than its size limit; a field has no
    # more characters than bytes
    limit = csv.field_size_limit()
    if fields is not None and len(body) > limit and \
            (np.diff(fields.ends.ravel(), prepend=-1) > limit + 1).any():
        return None
    return fields


def _csv_module_rows(text: str, kind: str, headers) -> CsvRows:
    reader = csv.reader(io.StringIO(text))
    rows: list[list[str]] = []
    width, error = len(headers[0]), None
    try:
        head = next(reader, None)
        if head not in [list(h) for h in headers]:
            raise ValidationError(f"{kind} file must start with '{','.join(headers[0])}'")
        width = len(head)
        for row in reader:
            if row:  # a blank line
                rows.append(row)
    except csv.Error as exc:
        error = f"bad {kind} row on line {reader.line_num}: {exc}"
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    columns = [[row[j] if j < len(row) else "" for row in rows] for j in range(width)]
    return CsvRows(lambda j: int_column(columns[j]), columns.__getitem__, rows.__getitem__,
                   widths, error)


def int_column(column: list) -> tuple[np.ndarray, np.ndarray]:
    """int64 of each field, and the mask of the fields that are not an
    integer int() reads within int64 (None included); those read 0. One
    numpy call reads the column, with int() on each field; only a column it
    refuses goes token by token."""
    try:
        return np.array(column, dtype=np.int64), np.zeros(len(column), dtype=bool)
    except (TypeError, ValueError, OverflowError):
        return _token_by_token(column, int64, np.int64)


def float_column(column: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """float() of each field, and the mask of the fields it refuses (which read 0)."""
    try:
        return np.array(list(map(float, column)), dtype=np.float64), np.zeros(len(column), bool)
    except ValueError:
        return _token_by_token(column, float, np.float64)


def _token_by_token(column: list, convert, dtype) -> tuple[np.ndarray, np.ndarray]:
    """convert() of each field, and the mask of the fields it refuses (which read 0)."""
    values, bad = np.zeros(len(column), dtype=dtype), np.zeros(len(column), dtype=bool)
    for row, token in enumerate(column):
        try:
            values[row] = convert(token)
        except (TypeError, ValueError):
            bad[row] = True
    return values, bad


def int64(token: str) -> int:
    """int(token), raising ValueError as well when it does not fit int64."""
    value = int(token)
    if not -INT64_MAX - 1 <= value <= INT64_MAX:
        raise ValueError(f"{token!r} does not fit 64 bits")
    return value


def repeats(values: np.ndarray) -> np.ndarray:
    """The mask of the entries equal to an earlier entry."""
    mask = np.zeros(values.shape[0], dtype=bool)
    if (values[1:] > values[:-1]).all():  # node order, as the writers leave it
        return mask
    ordered = np.sort(values)
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(values, kind="stable")
        mask[order[1:]] = values[order[1:]] == values[order[:-1]]
    return mask


def code_column(column: list[str], codes: dict[str, int]) -> np.ndarray:
    """codes[field] of each field as int8, -1 where the field is not a key."""
    return np.fromiter(map(codes.get, column, repeat(-1)), dtype=np.int8, count=len(column))


# (int64 bits, object array of the strings) of the last column rendered;
# one tuple, read once per call, so a call racing another one still returns
# the strings of the bits it compared
_last_render = None


def float_reprs(values: np.ndarray) -> list[str]:
    """repr() of each float, "" for a NaN, rendered once per distinct bit
    pattern (so -0.0 keeps its sign). A column equal bit for bit to the last
    one rendered gets that column's strings again, in a fresh list; the memo
    holds that one column only."""
    global _last_render
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    last = _last_render
    if last is None or not np.array_equal(last[0], bits):
        last = _last_render = (bits.copy(), _render_floats(bits))
    return last[1].tolist()


def _render_floats(bits: np.ndarray) -> np.ndarray:
    """repr() of each float of the int64 `bits`, "" for a NaN, as an object array."""
    distinct, inverse = np.unique(bits, return_inverse=True)
    floats = distinct.view(np.float64)
    # the repr of a list joins the reprs of its floats with ", "
    reprs = np.array(repr(floats.tolist())[1:-1].split(", "), dtype=object)
    # indices, not a mask: the repr of no float splits into one ""
    reprs[np.flatnonzero(np.isnan(floats))] = ""
    return reprs[inverse]


def write_csv(destination, header: tuple[str, ...], columns) -> None:
    """Write `header` and the rows of `columns` (two or more, of equal length)
    in UTF-8 as csv.writer writes them with LF line ends: an integer array or
    a range in decimal, a float64 array through `float_reprs` (each value its
    repr, a NaN blank), any other column (a list of str) as it stands, quoted
    where a field holds ',', '"' or LF. A text field holding CR is refused:
    every reader turns it into LF. Columns render left to right, so the
    report's first float column reuses the ranks file's last (`float_reprs`)."""
    fields = []
    for name, column in zip(header, columns):
        if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
            column = column.tolist()
        elif isinstance(column, np.ndarray) and column.dtype == np.float64:
            column = float_reprs(column)
        elif not isinstance(column, range):
            joined = "".join(column)  # one scan tells whether any field needs quotes
            if "\r" in joined:
                row = next(i for i, f in enumerate(column) if "\r" in f)
                raise ValidationError(f"{name} {column[row]!r} in row {row} holds a CR, "
                                      "which no reader gives back")
            if "," in joined or '"' in joined or "\n" in joined:
                column = ['"%s"' % f.replace('"', '""') if "," in f or '"' in f or "\n" in f
                          else f for f in column]
        fields.append(column)
    row = ",".join(["%s"] * len(fields)) + "\n"
    with text_stream(destination, "w", UTF8) as fh:
        fh.write(",".join(header) + "\n" + "".join(map(row.__mod__, zip(*fields))))


def render_ints(values: np.ndarray, separators: np.ndarray) -> bytes:
    """ASCII decimal of each non-negative int64, each followed by its separator byte."""
    values = np.asarray(values, dtype=np.int64)
    if not values.shape[0]:
        return b""
    digits = np.ones(values.shape[0], dtype=np.int8)
    top = int(values.max())
    for power in (10 ** d for d in range(1, 19)):
        if power > top:
            break
        digits += values >= power
    ends = np.cumsum(digits + 1, dtype=np.int64)  # one past each value's separator
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    out[ends - 1] = separators
    # digits from the last: write one, then keep the values that have more
    rest, at = values, ends - 2
    while rest.shape[0]:
        rest, digit = np.divmod(rest, 10)
        out[at] = 48 + digit
        more = rest > 0
        rest, at = rest[more], at[more] - 1
    return out.tobytes()
