"""Whole-file text I/O shared by the package's readers and writers.

Files with text columns (profiles, uid lists, truth, regions and the uid
column of a partition) are UTF-8; the numeric files (network, ranks,
report, JSON) are ASCII. A reader takes its whole input at once:
`read_text` decodes it, with universal newlines as a text-mode open()
would apply them. `split_csv` splits a stage CSV into string columns once:
a plain file in one pass, any other (quotes, a lone CR, blank lines, rows
wider or narrower than the header) through the csv module. The reader then
converts whole columns (`int_column`, `float_column`, `code_column`) into
values and masks of the rows at fault, and `CsvRows.check` raises the
message of the first faulty row. Every integer column is int64: a token
int() refuses, or one outside 64 bits, is a fault of its row.
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
    """Yield a text stream for a path, text stream, or binary stream."""
    if isinstance(source, (str, Path)):
        with open(source, mode, encoding=encoding) as fh:
            yield fh
    elif isinstance(source, io.TextIOBase):
        yield source
    else:
        wrapper = io.TextIOWrapper(source, encoding=encoding, write_through=True)
        try:
            yield wrapper
        finally:
            wrapper.detach()


def write_json(payload, destination) -> None:
    """`payload` as JSON indented by 2, with a final newline."""
    with text_stream(destination, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def read_input(source) -> bytes | str:
    """The whole input: the bytes of a path or binary stream, the text of a text stream."""
    return Path(source).read_bytes() if isinstance(source, (str, Path)) else source.read()


def read_text(source, encoding: str) -> str:
    """The whole input as text. A path or binary stream is decoded (see
    `decode`); a text stream is taken as it reads, newlines included."""
    data = read_input(source)
    return data if isinstance(data, str) else decode(data, encoding)


def decode(data: bytes, encoding: str) -> str:
    """Bytes as text with universal newlines; a byte that does not decode is
    a ParseError naming its line."""
    try:
        text = data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = _universal_newlines(data[:exc.start].decode(encoding)).count("\n") + 1
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not {encoding.upper()} text",
                         line) from None
    return _universal_newlines(text)


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def split_fields(body: str, delimiter: str, width: int) -> list[str] | None:
    """The fields, row by row, of text whose every line holds `width` fields
    split by the one-byte `delimiter`; None for any other text, a blank line
    included."""
    if not body.endswith("\n"):
        body += "\n"
    # wider rows need no scan: a blank line breaks their delimiter pattern below
    if width == 1 and (body.startswith("\n") or "\n\n" in body):
        return None
    chars = np.frombuffer(body.encode(UTF8), dtype=np.uint8)
    seps = chars[(chars == ord(delimiter)) | (chars == 10)]
    # each line is width - 1 delimiters and a LF apart
    pattern = np.full(width, ord(delimiter), dtype=np.uint8)
    pattern[-1] = 10
    if seps.shape[0] % width or (seps.reshape(-1, width) != pattern).any():
        return None
    return body[:-1].replace("\n", delimiter).split(delimiter)


class CsvRows:
    """The rows of a CSV after its header, split once by `split_csv`.

    columns[j] holds field j of every row, "" where a row is shorter (a
    field that every integer, float and code column refuses), and widths
    each row's field count; row(i) is row i's fields as csv.reader reads
    them. error is the "bad <kind> row on line N: ..." message of a
    csv.Error that ended the split after these rows, or None.
    """

    __slots__ = ("columns", "widths", "row", "error")

    def __init__(self, columns: list[list[str]], widths: np.ndarray, row, error=None):
        self.columns, self.widths, self.row, self.error = columns, widths, row, error

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


def split_csv(text: str, kind: str, *headers: tuple[str, ...]) -> CsvRows:
    """The nonblank rows of a CSV text after its header, which must be one of
    `headers`. A file whose first line is a header and whose every other
    line holds that many unquoted fields is split in one pass; any other
    goes through csv.reader."""
    head, _, body = text.partition("\n")
    for header in headers:
        if head == ",".join(header):
            fields = _plain_fields(body, len(header))
            if fields is not None:
                width = len(header)
                return CsvRows([fields[j::width] for j in range(width)],
                               np.full(len(fields) // width, width, dtype=np.int64),
                               lambda i: fields[i * width:(i + 1) * width])
    return _csv_module_rows(text, kind, headers)


def _plain_fields(body: str, width: int) -> list[str] | None:
    """The fields of `body`, row by row, when each line holds `width` fields
    that csv.reader would read as they stand; None otherwise."""
    if not body:
        return []
    if any(c in body for c in '"\r\0'):
        return None
    fields = split_fields(body, ",", width)
    # csv.reader refuses a field longer than its size limit
    limit = csv.field_size_limit()
    if fields is not None and len(body) > limit and max(map(len, fields)) > limit:
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
    columns = [[row[j] if j < len(row) else "" for row in rows] for j in range(width)]
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    return CsvRows(columns, widths, rows.__getitem__, error)


def int_column(column: list) -> tuple[np.ndarray, np.ndarray]:
    """int64 of each field, and the mask of the fields that are not an
    integer int() reads within int64 (None included); those read 0."""
    values = _digit_column(column)
    if values is not None:
        return values, np.zeros(len(column), dtype=bool)
    return _token_by_token(column, int64, np.int64)


def _digit_column(column: list) -> np.ndarray | None:
    """The fields as int64 when each is a nonempty run of ASCII digits that
    fits; None otherwise."""
    if not column:
        return np.zeros(0, dtype=np.int64)
    if "" in column:
        return None
    try:
        joined = ",".join(column)
    except TypeError:  # a None field
        return None
    if not joined.isascii():
        return None
    raw = joined.encode(ASCII)
    if raw.translate(None, b"0123456789,"):
        return None
    if raw.count(b",") != len(column) - 1:  # a field holds the separator
        return None
    values = np.fromstring(raw, dtype=np.int64, sep=",")
    # an oversized token clamps to INT64_MAX; int64() reads it exactly
    if values.shape[0] != len(column) or (values == INT64_MAX).any():
        return None
    return values


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


def float_reprs(values: np.ndarray, nan: str = "nan") -> list[str]:
    """repr() of each float, rendered once per distinct bit pattern (so -0.0
    keeps its sign), with `nan` in place of "nan"."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    # the repr of a list joins the reprs of its floats with ", "
    reprs = repr(distinct.view(np.float64).tolist())[1:-1].split(", ")
    if nan != "nan":
        reprs = [nan if r == "nan" else r for r in reprs]
    return np.array(reprs, dtype=object)[inverse].tolist()


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
