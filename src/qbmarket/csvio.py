"""The CSV text format: price files read, tables written, and the estimator
tables `fit` reads back.

A file is `#` comment lines (the writer's version and input digest), a
header, and rows, its lines ended by `\\r\\n`, `\\r` or `\\n`. Both readers
read UTF-8 (_read), take the first line neither blank nor a comment for the
header (_header) and skip comments among the rows; each has its own row rules.
The column kernels, `_decimals` for the price reader and `_g17` for the
writer, load only when a block needs them: the commands that write tables but
read no prices never load `_decimals`.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
import sys
from array import array
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

import numpy as np

from . import __version__
from .errors import DataError, NumericalError

if TYPE_CHECKING:
    from .market import PriceSeries

__all__ = ["STAMP_MINUTES", "csv_chunks", "load_prices", "read_estimates", "stamp_bytes"]

# the first and last minutes that a four-digit-year stamp can name
STAMP_MINUTES = tuple(
    int(datetime(*date, tzinfo=timezone.utc).timestamp()) // 60 for date in ((1, 1, 1), (9999, 12, 31, 23, 59))
)
# text characters load_prices reads at a time; it then completes the last line
_READ_BLOCK = 1 << 18
# rows formatted into one string of a written file's text
_CSV_BLOCK = 4096
# the one column allowed to hold NaN: the ACF standard error at a lag with a single pair
_NAN_COLUMN = "stderr"

# a line and its end (`\r\n`, `\r` or `\n`: readline's split of a file opened with newline="")
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
# the minute and second fields of a UTC offset; fromisoformat carries a value
# of 60 or more into the next field (+12:60 reads as +13:00)
_OFFSET_FIELDS = re.compile(r"[+-]\d\d:?(\d\d)(?::?(\d\d)(?:\.\d+)?)?$")

T = TypeVar("T")


def _read(path: str | Path, read: Callable[[TextIO], T]) -> T:
    """read(the file at path as UTF-8 text), a byte that is not UTF-8 a
    DataError naming its offset in the file."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            return read(handle)
        except UnicodeDecodeError as exc:
            # exc.object is the text layer's last decode: the bytes it held
            # back from the chunk before, then the chunk, which ends at tell()
            offset = handle.buffer.tell() - len(exc.object) + exc.start
            byte = exc.object[exc.start]
            raise DataError(f"{path}: not UTF-8 text ('utf-8' codec can't decode byte 0x{byte:02x} "
                            f"in position {offset}: {exc.reason})") from exc


def _comment(line: str) -> bool:
    return line.lstrip().startswith("#")


def _header(source: TextIO, empty: str) -> tuple[int, list[str], str]:
    """The line number and the names (stripped, lower case) of the first line
    of source that is neither blank nor a comment, and the text readline
    returned past it; a DataError of the message empty where there is none.
    Lines are split by _LINE: a stream's readline may split only at `\\n`.
    A UTF-8 byte-order mark opening the first line is not part of it."""
    lines = ((match, chunk) for chunk in iter(source.readline, "") for match in _LINE.finditer(chunk))
    for line_no, (match, chunk) in enumerate(lines, start=1):
        line = match[0].removeprefix("\ufeff") if line_no == 1 else match[0]
        if line.strip() and not _comment(line):
            return line_no, [h.strip().lower() for h in next(csv.reader([line]))], chunk[match.end():]
    raise DataError(empty)


def _parse_minute(text: str, line_no: int) -> int:
    try:
        stamp = datetime.fromisoformat(text.strip())
    except ValueError as exc:
        raise DataError(f"line {line_no}: cannot parse timestamp {text!r}") from exc
    offset = _OFFSET_FIELDS.search(text.strip())
    if offset and max(int(field or 0) for field in offset.groups()) >= 60:
        raise DataError(f"line {line_no}: timestamp {text!r} has an offset field of 60 or more")
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    minutes = stamp.timestamp() / 60.0
    if minutes != int(minutes):
        raise DataError(f"line {line_no}: timestamp {text!r} is not at minute resolution")
    return int(minutes)


def _read_lines(text: str, line_no: int, n_fields: int, last: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-line parser of the rows in text, whose first line is line line_no
    of the file and which follow a row at minute last (-inf before the first
    row): times, prices and session labels ("" without the session field).
    Errors name the line."""
    times = array("q")
    closes = array("d")
    labels: list[str] = []
    for line_no, match in enumerate(_LINE.finditer(text), start=line_no):
        raw = match[0]
        if _comment(raw):
            continue
        row = next(csv.reader([raw])) if raw.strip() else []
        if not row or all(not cell.strip() for cell in row):
            raise DataError(f"line {line_no}: blank row")
        if len(row) != n_fields:
            raise DataError(f"line {line_no}: expected {n_fields} fields, got {len(row)}")
        minute = _parse_minute(row[0], line_no)
        try:
            price = float(row[1])
        except ValueError as exc:
            raise DataError(f"line {line_no}: cannot parse price {row[1]!r}") from exc
        if not math.isfinite(price) or price <= 0:
            raise DataError(f"line {line_no}: non-positive price {row[1]!r}")
        if minute == last:
            raise DataError(f"line {line_no}: duplicate timestamp {row[0]!r}")
        if minute < last:
            raise DataError(f"line {line_no}: timestamps out of order at {row[0]!r}")
        last = minute
        times.append(minute)
        closes.append(price)
        # interned, so that the rows of a session share one string
        labels.append(sys.intern(row[2].strip()) if n_fields == 3 else "")
    return np.asarray(times), np.asarray(closes), np.array(labels, dtype=object)


def load_prices(source: str | Path | TextIO) -> PriceSeries:
    """Read and validate a `timestamp,close[,session]` CSV.

    Timestamps must be ISO-8601 at minute resolution, strictly increasing;
    prices must be positive. Malformed rows are hard errors naming the line.
    A session is a run of consecutive rows with one label: a label that
    comes back after another starts a new session, so session_idx never
    decreases. Without the column the whole series is one session.

    After the header the rows are read in blocks of whole lines, about
    _READ_BLOCK characters each, so the text is never held whole: besides
    the series (24 bytes a row), one block and what it parses to are in
    memory at a time. That fixed cost is about 1.3 MiB: a text read alone
    peaks at four to five times the block (the bytes read, the decoded text,
    their join and the readline completing the last line). Joining the
    blocks at the end briefly holds a column twice, about 10 bytes a row
    above the series. Each block is read by column (_decimals.read_block)
    where its stamps and closes allow; a block it refuses (one close that is
    not a plain decimal is enough), or one whose first time is not after the
    previous block's last, goes alone to the per-line parser (_read_lines),
    whose rows as Python objects take under the block's size again. Session
    changes and the order of rows are checked across blocks.
    """
    if isinstance(source, (str, Path)):
        return _read(source, load_prices)
    from . import _decimals
    from .market import PriceSeries

    line_no, header, pending = _header(source, "empty file")
    if header not in (["timestamp", "close"], ["timestamp", "close", "session"]):
        raise DataError(f"line {line_no}: expected header 'timestamp,close[,session]', got {','.join(header)!r}")
    n_fields = len(header)

    times, closes, changes = [], [], []
    label = None  # the session label of the last row read; a first row starts a session
    while text := pending + source.read(_READ_BLOCK):
        pending = ""
        if not text.endswith("\n"):
            text += source.readline()
        last = times[-1][-1] if times else -math.inf
        block = _decimals.read_block(text, n_fields)
        if block is None or block[0][0] <= last:
            block = _read_lines(text, line_no + 1, n_fields, last)
            # the lines of text, as _LINE splits them
            line_no += text.count("\n") + text.count("\r") - text.count("\r\n")
        else:
            # a block read by column has a row on each line and no `\r`
            line_no += len(block[0])
        block_times, block_closes, labels = block
        if not len(block_times):
            continue
        times.append(block_times)
        closes.append(block_closes)
        # compared as Python strings: a column block's labels are ASCII bytes
        first, end = (str(x, "ascii") if isinstance(x, bytes) else x for x in (labels[0], labels[-1]))
        changes += [[first != label], labels[1:] != labels[:-1]]
        label = end
    if not times:
        raise DataError("empty file: no data rows")

    # each list of blocks freed as it is joined
    times = np.concatenate(times)
    closes = np.concatenate(closes)
    changes = np.concatenate(changes)
    # before steps is freed, which raises glibc's mmap threshold to a
    # column's size and would put this column in the heap
    session_idx = np.cumsum(changes, dtype=np.int64)
    session_idx -= 1
    # the base step: the gcd of the steps within sessions (gcd(0, x) = x)
    steps = np.diff(times)
    steps[changes[1:]] = 0
    base_minutes = int(np.gcd.reduce(steps)) or 1
    del steps
    return PriceSeries(times=times, close=closes, session_idx=session_idx, base_minutes=base_minutes)


def read_estimates(path: Path, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The columns of the estimator table at path, by name, as float arrays:
    rows of comma-split cells, blank lines skipped, every cell finite bar
    the stderr column. The table must have the columns names, the first the
    key: `lag` nonnegative or `tau` positive, integers, strictly increasing.
    A `count` is an integer of 1 or more. Errors name the data row."""
    key = names[0]
    lowest, word = {"lag": (0, "nonnegative"), "tau": (1, "positive")}[key]

    def read(source: TextIO) -> dict[str, np.ndarray]:
        _, header, pending = _header(source, f"{path}: no data rows")
        lines = (match[0] for match in _LINE.finditer(pending + source.read()))
        rows = [line.rstrip("\r\n").split(",") for line in lines if line.strip() and not _comment(line)]
        if not rows:
            raise DataError(f"{path}: no data rows")
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise DataError(f"{path}: repeated column(s) {repeated}; header is {header}")
        missing = [c for c in names if c not in header]
        if missing:
            raise DataError(f"{path}: missing column(s) {missing}; header is {header}")
        data: dict[str, list[float]] = {c: [] for c in header}
        for i, row in enumerate(rows, start=1):
            if len(row) != len(header):
                raise DataError(f"{path}: row {i} has {len(row)} fields, expected {len(header)}")
            for c, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError as exc:
                    raise DataError(f"{path}: row {i}: cannot parse {cell!r}") from exc
                integer = value.is_integer() and abs(value) < 2.0**63
                fault = ("is not finite" if c != _NAN_COLUMN and not math.isfinite(value)
                         else "is not a 64-bit integer" if c in (key, "count") and not integer
                         else "is below 1" if c == "count" and value < 1 else None)
                if fault:
                    raise DataError(f"{path}: row {i}: {c} {fault} ({cell.strip()!r})")
                data[c].append(value)
        keys = np.asarray(data[key])
        bad = np.flatnonzero((keys < lowest) | (np.diff(keys, prepend=-math.inf) <= 0))
        if len(bad):
            i = bad[0]
            fault = ("is negative" if keys[i] < 0 else "is zero" if keys[i] < lowest
                     else f"does not exceed the {key} {int(keys[i - 1])} before it")
            raise DataError(f"{path}: row {i + 1}: {key} {int(keys[i])} {fault}; "
                            f"{key}s must be {word} and strictly increasing")
        return {c: np.asarray(v) for c, v in data.items()}

    return _read(path, read)


def _civil_from_days(days: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Year, month and day of each count of days from 1970-01-01 (H.
    Hinnant, "chrono-Compatible Low-Level Date Algorithms"), in int64: the
    inverse of _decimals._days_from_civil."""
    z = days + 719468
    era = z // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    month = mp + np.where(mp < 10, 3, -9)
    return yoe + era * 400 + (month <= 2), month, doy - (153 * mp + 2) // 5 + 1


# ASCII bytes of "00" to "99", one row each
_TWO_DIGITS = np.array([f"{i:02d}" for i in range(100)], dtype="S2").view(np.uint8).reshape(100, 2)


def _digit_pairs(template: bytes, fields: Sequence[np.ndarray], columns: Sequence[int]) -> np.ndarray:
    """Rows of the ASCII template with each field's two digits (0 to 99) at
    its column."""
    text = np.tile(np.frombuffer(template, dtype=np.uint8), (len(fields[0]), 1))
    for value, column in zip(fields, columns):
        text[:, column : column + 2] = _TWO_DIGITS[value]
    return text


# `HH:MM` of each minute of the day
_CLOCK = _digit_pairs(b"00:00", np.divmod(np.arange(1440), 60), (0, 3)).view("S5").ravel()


def stamp_bytes(times: np.ndarray) -> np.ndarray:
    """`YYYY-MM-DDTHH:MM` stamps of minutes since the epoch as ASCII bytes,
    one row of 16 uint8 per minute: each day's date once, from the two-digit
    table in integer arithmetic, and the time of day from a table of the
    day's minutes. Years outside 1-9999 are refused: their stamps would not
    have this form."""
    times = np.asarray(times, dtype=np.int64)
    if len(times) and not (STAMP_MINUTES[0] <= times.min() and times.max() <= STAMP_MINUTES[1]):
        raise ValueError("minute stamps need years 1 to 9999")
    days, minutes = np.divmod(times, 1440)
    days, day_of = np.unique(days, return_inverse=True)
    year, month, day = _civil_from_days(days.astype(np.int32))  # under 3e6 days
    dates = _digit_pairs(b"0000-00-00", (*np.divmod(year, 100), month, day), (0, 2, 5, 8)).view("S10").ravel()
    text = np.empty((len(times), 16), dtype=np.uint8)
    text[:, :10] = dates[day_of].view(np.uint8).reshape(-1, 10)
    text[:, 10] = ord("T")
    text[:, 11:] = _CLOCK[minutes].view(np.uint8).reshape(-1, 5)
    return text


def csv_chunks(name: str, digest: str, columns: dict[str, np.ndarray]) -> Iterable[str]:
    """The text of one CSV file, checked now and formatted as it is consumed,
    one string per block of rows.

    Numeric columns are written with 17 significant digits. A
    ``datetime64[m]`` column is written as `YYYY-MM-DDTHH:MM` stamps. Each
    block is a template of ASCII bytes: its stamps (stamp_bytes), a field per
    number, the commas and the newlines. In a full block of _CSV_BLOCK rows,
    g17 writes each number with 1 <= |x| < 1e15 into its field as the bytes
    `%.17g` makes of it. Every other number's field is a `%.17g`; the block's
    NUL padding is dropped, and one `%` of those numbers formats it. So the
    stamps are never Python strings, and a column's text is never held whole.
    A non-finite number outside the ``stderr`` column raises a NumericalError
    before anything is produced.
    """
    stamps, numbers = {}, {}  # each column's values by its place in the row
    for place, (key, col) in enumerate(columns.items()):
        if col.dtype == "datetime64[m]":
            stamps[place] = col.view(np.int64)
        else:
            col = col.astype(float, copy=False)
            if key != _NAN_COLUMN and not np.isfinite(col).all():
                raise NumericalError(f"{name}: refusing to write non-finite values in column {key!r}")
            numbers[place] = col
    header = f"# qbmarket {__version__}; input sha256={digest}\n" + ",".join(columns) + "\n"
    n_rows = len(next(iter(columns.values())))

    def blocks() -> Iterator[str]:
        rows = min(n_rows, _CSV_BLOCK)  # a short table's buffers are its size: they can set a run's peak
        width = 5
        if rows == _CSV_BLOCK:  # room in each number's field for g17's bytes
            from ._g17 import WIDTH as width, g17
        placeholder = np.frombuffer(b"%.17g".ljust(width, b"\0"), dtype=np.uint8)
        fields = [b"YYYY-MM-DDTHH:MM" if place in stamps else placeholder.tobytes() for place in range(len(columns))]
        starts = list(itertools.accumulate((len(field) + 1 for field in fields), initial=0))
        row = np.frombuffer(b",".join(fields) + b"\n", dtype=np.uint8)
        template = np.tile(row, (rows, 1))
        values = np.empty((rows, len(numbers)))
        for start in range(0, n_rows, _CSV_BLOCK):
            block = slice(start, min(start + _CSV_BLOCK, n_rows))
            n = block.stop - start
            if n < _CSV_BLOCK:  # a `%.17g` in every number's field again, after g17 filled them
                template[:n] = row
            for place, times in stamps.items():
                template[:n, starts[place] : starts[place] + 16] = stamp_bytes(times[block])
            for j, col in enumerate(numbers.values()):
                values[:n, j] = col[block]
            left = values[:n].ravel()
            if n == _CSV_BLOCK:
                cells, done = g17(left)
                cells[~done] = placeholder
                for j, place in enumerate(numbers):
                    template[:, starts[place] : starts[place] + width] = cells[j :: len(numbers)]
                left = left[~done]
                del cells, done  # freed before the block's text is made
            chars = template[:n].ravel()
            text = chars[chars != 0].tobytes().decode("ascii")
            yield text % tuple(left.tolist()) if len(left) else text

    return itertools.chain([header], blocks())
