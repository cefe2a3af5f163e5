"""Whole-file text I/O shared by the package's readers and writers.

Files with text columns (profiles, uid lists, truth, regions and the uid
column of a partition) are UTF-8; the numeric files (network, ranks,
report, JSON) are ASCII. A reader takes its whole input at once:
`read_text` decodes it, with universal newlines as a text-mode open()
would apply them, and `csv_columns` splits a plain CSV into columns in one
pass. `csv_columns` and `int_column` return None for any input they cannot
convert exactly as the row-by-row readers would (quotes, CR, another field
count, a token that is not plain digits); the caller then runs its row
loop over `csv_rows`, which reports the first failing row.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
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


def read_text(source, encoding: str) -> str:
    """The whole input as text. A path or binary stream is decoded (see
    `decode`); a text stream is taken as it reads, newlines included."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = fh.read()
    else:
        data = source.read()
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
    if body.startswith("\n") or "\n\n" in body:
        return None
    chars = np.frombuffer(body.encode(UTF8), dtype=np.uint8)
    seps = chars[(chars == ord(delimiter)) | (chars == 10)]
    # each line is width - 1 delimiters and a LF apart
    pattern = np.full(width, ord(delimiter), dtype=np.uint8)
    pattern[-1] = 10
    if seps.shape[0] % width or (seps.reshape(-1, width) != pattern).any():
        return None
    return body[:-1].replace("\n", delimiter).split(delimiter)


def csv_columns(text: str, header: tuple[str, ...]) -> list[list[str]] | None:
    """The columns of a CSV whose first line is `header` and whose every other
    line holds len(header) unquoted fields; None for any other text."""
    head, _, body = text.partition("\n")
    if head != ",".join(header) or any(c in body for c in '"\r\0'):
        return None
    if not body:
        return [[] for _ in header]
    fields = split_fields(body, ",", len(header))
    if fields is None:
        return None
    # csv.reader refuses a field longer than its size limit
    limit = csv.field_size_limit()
    if len(body) > limit and max(map(len, fields)) > limit:
        return None
    return [fields[j::len(header)] for j in range(len(header))]


def csv_rows(text: str, kind: str, *headers: tuple[str, ...]):
    """The nonblank rows of a CSV text after its header, which must be one of
    `headers`. Text the csv module cannot split raises the "bad <kind> row"
    ValidationError that the callers raise for a row with a bad value."""
    reader = csv.reader(io.StringIO(text))
    try:
        if next(reader, None) not in [list(h) for h in headers]:
            raise ValidationError(f"{kind} file must start with '{','.join(headers[0])}'")
        yield from filter(None, reader)
    except csv.Error as exc:
        raise ValidationError(f"bad {kind} row on line {reader.line_num}: {exc}") from None


def int_column(column: list[str]) -> np.ndarray | None:
    """The fields as int64 when each is a nonempty run of ASCII digits that
    fits; None otherwise."""
    if not column:
        return np.zeros(0, dtype=np.int64)
    joined = ",".join(column)
    if "" in column or not joined.isascii():
        return None
    raw = joined.encode(ASCII)
    if raw.translate(None, b"0123456789,"):
        return None
    if raw.count(b",") != len(column) - 1:  # a field holds the separator
        return None
    values = np.fromstring(raw, dtype=np.int64, sep=",")
    # an oversized token clamps to INT64_MAX; the row loop reads it exactly
    if values.shape[0] != len(column) or (values == INT64_MAX).any():
        return None
    return values


def int64(token: str) -> int:
    """int(token), raising ValueError as well when it does not fit int64."""
    value = int(token)
    if not -INT64_MAX - 1 <= value <= INT64_MAX:
        raise ValueError(f"{token!r} does not fit 64 bits")
    return value


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
