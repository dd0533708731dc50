"""Minute-bar ingestion, return statistics, and synthetic series.

Ingests `timestamp,close[,session]` CSV, computes log-return samples at a
horizon, drift/volatility scaling, density histograms, lag autocorrelations
and horizon kurtosis, and generates seeded synthetic series for testing the
pipeline end to end. All estimators are pure functions over immutable series.

Session handling: returns are paired intraday-only by default (pairs spanning
a session boundary are dropped) because session-spanning returns mix
closed-market information into short lags; "contiguous" pairing is available
for sensitivity checks.
"""

from __future__ import annotations

import csv
import math
import re
import sys
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, DegenerateDataError, InsufficientDataError, NumericalError
from .model import NonMarkovParams

__all__ = [
    "PriceSeries",
    "ReturnSeries",
    "AcfEstimate",
    "ScalingResult",
    "HistogramResult",
    "KurtosisResult",
    "load_prices",
    "stamp_bytes",
    "log_returns",
    "drift_vol_scaling",
    "return_histogram",
    "empirical_acf",
    "empirical_kurtosis",
    "synth_gbm",
    "synth_colored",
]

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# Synthetic series start on an arbitrary fixed Monday morning.
SYNTH_START_MINUTE = int((datetime(2000, 1, 3, 9, 30, tzinfo=timezone.utc) - _EPOCH).total_seconds() // 60)

PAIRING_POLICIES = ("intraday-only", "contiguous")

# samples of _complex_ar1's input converted to Python numbers at a time
_AR_BLOCK = 4096


def _freeze(result: object, **dtypes: type) -> None:
    """Set each named field of a frozen dataclass to a read-only array of the
    given dtype."""
    for name, dtype in dtypes.items():
        arr = np.asarray(getattr(result, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(result, name, arr)


@dataclass(frozen=True)
class PriceSeries:
    """Validated minute-bar price series.

    times        : minutes since epoch, strictly increasing int64
    close        : positive prices
    session_idx  : session index per row, counting from 0
    base_minutes : bar resolution (gcd of within-session spacings)
    """

    times: np.ndarray
    close: np.ndarray
    session_idx: np.ndarray
    base_minutes: int

    def __post_init__(self) -> None:
        _freeze(self, times=np.int64, close=float, session_idx=np.int64)
        if len(self.times) == 0:
            raise DataError("empty price series")
        if np.any(self.close <= 0):
            raise DataError("prices must be positive")
        if np.any(self.times[1:] <= self.times[:-1]):
            raise DataError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def log_price(self) -> np.ndarray:
        return np.log(self.close)

    @classmethod
    def synthetic(cls, s0: float, increments: np.ndarray, dt_minutes: int) -> "PriceSeries":
        """One-session series of bars dt_minutes apart from SYNTH_START_MINUTE:
        price s0 at the first bar, then each log increment in turn. A price
        that exp takes out of the positive finite range is a numerical failure
        of the generator, not bad data."""
        # each column is built in place: a temporary here would set synth's peak memory
        log_price = np.empty(len(increments) + 1)
        log_price[0] = 0.0
        np.cumsum(increments, out=log_price[1:])
        log_price += math.log(s0)
        close = np.exp(log_price)
        bad = np.flatnonzero(~((close > 0) & (close < math.inf)))
        if bad.size:
            i = bad[0]
            raise NumericalError(f"synthetic price of bar {i} is {close[i]:g}, outside the positive finite range "
                                 f"(log price {log_price[i]:.6g})")
        del log_price
        times = np.arange(len(close), dtype=np.int64)
        times *= dt_minutes
        times += SYNTH_START_MINUTE
        return cls(
            times=times,
            close=close,
            session_idx=np.zeros(len(times), dtype=np.int64),
            base_minutes=int(dt_minutes),
        )


@dataclass(frozen=True)
class ReturnSeries:
    """Log-return samples at a fixed horizon.

    values are tau-normalized returns [ln S(t+tau) - ln S(t)] / tau; times are
    the anchor minute of each sample. When drift_removed is set the sample
    mean has been subtracted.
    """

    tau_minutes: int
    values: np.ndarray
    drift_removed: bool
    times: np.ndarray
    session_idx: np.ndarray
    base_minutes: int
    policy: str

    def __post_init__(self) -> None:
        _freeze(self, values=float, times=np.int64, session_idx=np.int64)
        if self.policy not in PAIRING_POLICIES:
            raise ValueError(f"unknown pairing policy {self.policy!r}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class AcfEstimate:
    """Lag autocorrelation estimates of a return series.

    values carry the dimensional convention (mean product of returns, units
    [ln S]^2 min^-2). Only lags with at least one admissible pair are
    reported; empty lags are listed in omitted_lags.
    """

    lags: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    stderr: np.ndarray
    base_minutes: int
    tau_minutes: int
    omitted_lags: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _freeze(self, lags=np.int64, values=float, counts=np.int64, stderr=float)
        if np.any(self.counts <= 0):
            raise ValueError("reported lags must have positive pair counts")


# the minute and second fields of a UTC offset; fromisoformat carries a value
# of 60 or more into the next field (+12:60 reads as +13:00)
_OFFSET_FIELDS = re.compile(r"[+-]\d\d:?(\d\d)(?::?(\d\d)(?:\.\d+)?)?$")


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
    seconds = (stamp - _EPOCH).total_seconds()
    minutes = seconds / 60.0
    if minutes != int(minutes):
        raise DataError(f"line {line_no}: timestamp {text!r} is not at minute resolution")
    return int(minutes)


# a line and its end (`\r\n`, `\r` or `\n`: readline's split of a file opened with newline="")
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


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
        # '#' lines are tool header comments (version, input digest)
        if raw.lstrip().startswith("#"):
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


# The stamp forms read by column, and the comma after the stamp. The first
# row of a block fixes which one the block has; its other rows must match it.
_STAMP = re.compile(rb"\d{4}-\d\d-\d\d[T ]\d\d:\d\d(:\d\d)?(Z|[+-]\d\d:\d\d)?,")
# text characters read at a time; load_prices then completes the last line
_READ_BLOCK = 1 << 18
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int64)


def _days_from_civil(year: np.ndarray, month: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Days from 1970-01-01 to each proleptic Gregorian date (H. Hinnant,
    "chrono-Compatible Low-Level Date Algorithms"), in int64."""
    year = year - (month <= 2)
    era = year // 400
    yoe = year - era * 400
    doy = (153 * (month + np.where(month > 2, -3, 9)) + 2) // 5 + day - 1
    return era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468


def _civil_from_days(days: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Year, month and day of each count of days from 1970-01-01: the inverse
    of _days_from_civil (same source), in int64."""
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
# the first and last minutes that a four-digit-year stamp can name
STAMP_MINUTES = tuple(
    int((datetime(*date, tzinfo=timezone.utc) - _EPOCH).total_seconds() // 60)
    for date in ((1, 1, 1), (9999, 12, 31, 23, 59))
)


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


def _windows(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The width bytes of the contiguous uint8 array buf from each start, a
    row each: one gather of void items, which numpy copies whole where it
    copies a window view's rows byte by byte."""
    items = np.ndarray((len(buf) - width + 1,), f"V{width}", buf, strides=(1,))
    return items[starts].view(np.uint8).reshape(len(starts), width)


def _fields(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, right: bool) -> np.ndarray:
    """Each field buf[lo:hi] in a row of a uint8 array as wide as the widest
    (at least 1), right-aligned or else left-aligned, NUL bytes beside it:
    windows of buf, and a copy alone of each field whose window would leave
    buf."""
    size = hi - lo
    width = max(int(size.max()), 1)
    start = hi - width if right else lo
    inside = np.minimum(np.maximum(start, 0), len(buf) - width)
    cells = _windows(buf, inside, width)
    # the width bytes from k on of width zeros then width ones keep the last k columns
    edge = np.zeros(2 * width, dtype=np.uint8)
    edge[width:] = 1
    cells *= _windows(edge, size, width) if right else _windows(1 - edge, width - size, width)
    for row in np.flatnonzero(inside != start):
        cells[row] = 0
        place = slice(width - size[row], None) if right else slice(size[row])
        cells[row, place] = buf[lo[row] : hi[row]]
    return cells


def _read_block(text: str, n_fields: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Times, closes and session labels (bytes, empty without the session
    field) of the whole rows in text, read by column, if every stamp has the
    form of the first: `YYYY-MM-DD{T| }HH:MM`, then an optional `:00`, then
    an optional `Z` or `+HH:MM`/`-HH:MM` offset. Each row's commas are
    checked: the stamp's, and in a session file one more inside the row.
    Stamps, closes and labels are then gathered from the bytes as fields.
    The stamps are checked (month, day within the month, hour, minute and
    offset) and converted by the days-from-civil formula. The closes are
    converted to the doubles `float` reads by _decimals.parse, whose domain
    is plain decimals (digits and at most one '.') of 1 to READ_WIDTH
    characters, with a nonzero digit, at most SPAN columns from the first
    nonzero digit to the end ('.' included) and at most MAX_FRACTION digits
    after the '.': every close `%.17g` writes of 1 <= x < 1e15, as `qbm
    synth` does, and `%.12g` and repr in fixed notation.

    Returns None where _read_lines is needed: other stamp forms, nonzero
    seconds, a date or time out of range, non-ASCII text, carriage returns,
    comments, quotes, blank rows or whitespace (bar the space separating date
    and time), a close outside the kernel's domain (a sign, an exponent, `_`,
    a second '.', an empty field, zero, or too many digits), a row with a
    field too many or too few, times that do not increase, labels whose
    widest times the rows exceeds twice the block, and any row that fails
    validation, so the error names the same line either way.
    """
    if "\r" in text or not text.isascii() or any(c in text for c in '"#\x7f'):
        return None
    data = text.encode("ascii")
    first = _STAMP.match(data)
    if first is None:
        return None
    # the stamp and its comma with digits as 0
    layout = np.frombuffer(re.sub(rb"\d", b"0", first[0]), dtype=np.uint8)
    # the column of the offset's sign, before `HH:MM,`
    sign = len(layout) - 7 if layout[-7] in b"+-" else None
    buf = np.frombuffer(data, dtype=np.uint8)
    if data.endswith(b"\n"):
        buf = buf[:-1]
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate([[0], ends + 1])
    row_ends = np.append(ends, len(buf))
    if np.any(row_ends - starts <= len(layout)):
        return None
    # the newline is the only control or blank byte a row may hold, bar the
    # date-time separator of the space layout (checked below to sit at 10)
    spaces = len(starts) if layout[10] == ord(" ") else 0
    if np.count_nonzero(buf <= ord(" ")) != len(ends) + spaces:
        return None
    # each row's fields: the stamp holds no comma but its last (checked
    # below), and a session row's second comma lies within the row
    commas = np.flatnonzero(buf == ord(","))
    if len(commas) != len(starts) * (n_fields - 1):
        return None
    close_ends = row_ends
    if n_fields == 3:
        close_ends = commas[1::2]
        if not (np.all(commas[::2] == starts + len(layout) - 1) and np.all(close_ends < row_ends)):
            return None
    del commas

    stamps = _windows(buf, starts, len(layout))
    digits = stamps - np.uint8(ord("0"))  # non-digits wrap above 9
    is_digit = layout == ord("0")
    literal = ~is_digit
    if sign is not None:
        literal[sign] = False
        if not np.all((stamps[:, sign] == ord("+")) | (stamps[:, sign] == ord("-"))):
            return None
    if not (np.all(digits[:, is_digit] <= 9) and np.all(stamps[:, literal] == layout[literal])):
        return None

    def number(column: int, n_digits: int) -> np.ndarray:
        value = np.zeros(len(starts), dtype=np.int64)
        for c in range(column, column + n_digits):
            value = value * 10 + digits[:, c]
        return value

    year, month, day = number(0, 4), number(5, 2), number(8, 2)
    hour, minute = number(11, 2), number(14, 2)
    if not (np.all(year >= 1) and np.all((month >= 1) & (month <= 12))):
        return None
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[month - 1] + ((month == 2) & leap)
    if not np.all((day >= 1) & (day <= month_days) & (hour <= 23) & (minute <= 59)):
        return None
    # nonzero seconds are left to the per-line parser's resolution error
    if layout[16] == ord(":") and np.any(digits[:, 17:19]):
        return None
    times = _days_from_civil(year, month, day) * 1440 + hour * 60 + minute
    if sign is not None:
        offset = number(sign + 1, 2), number(sign + 4, 2)
        if not np.all((offset[0] <= 23) & (offset[1] <= 59)):
            return None
        times -= np.where(stamps[:, sign] == ord("-"), -1, 1) * (offset[0] * 60 + offset[1])
    if not np.all(np.diff(times) > 0):
        return None
    del stamps, digits

    from ._decimals import READ_WIDTH, parse

    close_starts = starts + len(layout)
    if not (np.all(close_ends > close_starts) and np.all(close_ends - close_starts <= READ_WIDTH)):
        return None
    # parse reads only positive finite closes: a nonzero digit, at most SPAN columns
    close = parse(_fields(buf, close_starts, close_ends, right=True))
    if close is None:
        return None
    labels = np.zeros(len(starts), dtype="S1")
    if n_fields == 3:
        # every label is held as wide as the widest (and the gather's mask
        # again): one long label among short ones is left to _read_lines
        if len(starts) * (int(np.max(row_ends - close_ends)) - 1) > 2 * len(buf):
            return None
        labels = _fields(buf, close_ends + 1, row_ends, right=False)
        labels = labels.view(f"S{labels.shape[1]}").ravel()
    return times, close, labels


def load_prices(source: str | Path | TextIO) -> PriceSeries:
    """Read and validate a `timestamp,close[,session]` CSV.

    Timestamps must be ISO-8601 at minute resolution, strictly increasing;
    prices must be positive. Malformed rows are hard errors naming the line.
    Rows sharing a session label form one session; without the column the
    whole series is one session.

    Comment and header lines are split as rows are (at `\r\n`, `\r` or
    `\n`), also from a text stream whose readline splits only at `\n`.
    After the header (leading `#` lines skipped, names matched without case
    or padding) the rows are read in blocks of whole lines, about
    _READ_BLOCK characters each, so the text is never held whole: besides
    the series (24 bytes a row), one block and what it parses to are in
    memory at a time. That fixed cost is about 1.3 MiB: a text read alone
    peaks at four to five times the block (the bytes read, the decoded text,
    their join and the readline completing the last line). Joining the
    blocks at the end briefly holds a column twice, about 10 bytes a row
    above the series. Each block is read by column (_read_block) where its
    stamps and closes allow, its closes by an exact integer kernel
    (_decimals.parse); a block it refuses (one close that is not a plain
    decimal is enough), or one whose first time is not after the previous
    block's last, goes alone to the per-line parser (_read_lines), whose
    rows as Python objects take under the block's size again. Session
    changes and the order of rows are checked across blocks.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            try:
                return load_prices(handle)
            except UnicodeDecodeError as exc:
                # exc.object is the text layer's last decode: the bytes it held
                # back from the chunk before, then the chunk, which ends at tell()
                offset = handle.buffer.tell() - len(exc.object) + exc.start
                byte = exc.object[exc.start]
                raise DataError(f"{source}: not UTF-8 text ('utf-8' codec can't decode byte 0x{byte:02x} "
                                f"in position {offset}: {exc.reason})") from exc

    # readline's text split by _LINE, since a stream's readline may split only at `\n`
    lines = ((match, chunk) for chunk in iter(source.readline, "") for match in _LINE.finditer(chunk))
    for line_no, (match, chunk) in enumerate(lines, start=1):
        if not match[0].lstrip().startswith("#"):
            break
    else:
        raise DataError("empty file")
    header = [h.strip().lower() for h in next(csv.reader([match[0]]))]
    if header not in (["timestamp", "close"], ["timestamp", "close", "session"]):
        raise DataError(f"line {line_no}: expected header 'timestamp,close[,session]', got {','.join(header)!r}")
    n_fields = len(header)
    pending = chunk[match.end():]  # what readline returned past the header: the start of the first block

    times, closes, changes = [], [], []
    label = None  # the session label of the last row read; a first row starts a session
    while text := pending + source.read(_READ_BLOCK):
        pending = ""
        if not text.endswith("\n"):
            text += source.readline()
        last = times[-1][-1] if times else -math.inf
        block = _read_block(text, n_fields)
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


def _slots(
    times: np.ndarray, labels: np.ndarray | None, max_lag: int
) -> tuple[int, np.ndarray, np.ndarray | None]:
    """(unit, pos, order): the slot layout on which every statistic pairs
    rows at lags up to max_lag minutes. Times must be strictly increasing.

    The rows are laid on slots of the unit, the gcd time step, grouped by
    label in time order, with every gap longer than the largest lag
    K = max_lag // unit shrunk to K + 1 slots and K + 1 slots between
    labels, so no pair at a lag up to K units crosses either: two rows lie
    k <= K units apart and share a label (any two rows where labels is None)
    exactly when their slots are k apart. pos[i] is the slot of row
    order[i] where labels interleave, else of row i (order is None).
    """
    n = len(times)
    pos = np.zeros(n, dtype=np.int64)
    steps = np.subtract(times[1:], times[:-1], out=pos[1:])
    if np.any(steps <= 0):
        raise ValueError("times must be strictly increasing")
    unit = int(np.gcd.reduce(steps)) or 1
    k_max = max_lag // unit
    order = None
    if labels is not None and np.any(labels[1:] < labels[:-1]):  # labels interleave: each label's rows together
        order = np.argsort(labels, kind="stable")
        labels = labels[order]
        np.subtract(times[order[1:]], times[order[:-1]], out=steps)
    steps //= unit
    np.minimum(steps, k_max + 1, out=steps)
    if labels is not None:
        steps[labels[1:] != labels[:-1]] = k_max + 1
    np.cumsum(pos, out=pos)
    return unit, pos, order


def _pairs(
    times: np.ndarray, labels: np.ndarray | None, lags: Sequence[int]
) -> tuple[Callable[[np.ndarray], np.ndarray], Iterator[tuple[int, np.ndarray | None, np.ndarray | None]]]:
    """The pairs of rows whose times are lag minutes apart and that share a
    label (every such pair where labels is None), on the slots of _slots.
    Times must be strictly increasing.

    Returns (place, pairs). place(x) lays a per-row array on the slots, 0 at
    empty ones (x itself where the rows fill every slot in time order).
    pairs yields (k, mask, perm) for each lag in turn: in a placed x, the
    lag's anchors are _anchors(x, k, mask, perm), in anchor time order. The
    pairs are the held slots s with s + k held: mask selects them (None where
    the rows fill every slot in time order), a view of one buffer that the
    next lag overwrites. perm, where labels interleave, is the argsort of the
    anchor rows, which puts the pairs from the slots' label order back in
    time order. A lag off the unit or past the last slot has k = the slot
    count, which leaves no pair.
    """
    lags = [int(lag) for lag in lags]
    if any(lag < 0 for lag in lags):
        raise ValueError("lags must be nonnegative")
    unit, pos, order = _slots(times, labels, max(lags, default=0))
    n_slots = int(pos[-1]) + 1
    ks = [min(lag // unit, n_slots) if lag % unit == 0 else n_slots for lag in lags]
    if n_slots == len(times) and order is None:
        return (lambda x: x), ((k, None, None) for k in ks)

    def place(x: np.ndarray) -> np.ndarray:
        out = np.zeros(n_slots, dtype=x.dtype)
        out[pos] = x if order is None else x[order]
        return out

    def pairs() -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
        held = np.zeros(n_slots, dtype=bool)
        held[pos] = True
        rows = None if order is None else place(np.arange(len(times)))
        buf = np.empty(n_slots, dtype=bool)
        for k in ks:
            mask = np.logical_and(held[k:], held[: n_slots - k], out=buf[: n_slots - k])
            yield k, mask, None if rows is None else np.argsort(rows[: n_slots - k][mask])

    return place, pairs()


def _anchors(x: np.ndarray, k: int, mask: np.ndarray | None, perm: np.ndarray | None) -> np.ndarray:
    """Anchor values, in a placed array x, of the pairs at one lag of
    _pairs."""
    anchors = x[: len(x) - k]
    if mask is not None:
        anchors = anchors[mask]
    return anchors if perm is None else anchors[perm]


def _differences(x: np.ndarray, k: int, mask: np.ndarray | None, perm: np.ndarray | None) -> np.ndarray:
    """Partner less anchor values, in a placed array x, of the pairs at one
    lag of _pairs, in a new array: one subtraction over the slots, then one
    gather of the pairs where there is a mask."""
    return _anchors(x[k:] - x[: len(x) - k], 0, mask, perm)


def _check_tau(series: PriceSeries, tau_minutes: int, policy: str) -> None:
    if policy not in PAIRING_POLICIES:
        raise ValueError(f"unknown pairing policy {policy!r}")
    if tau_minutes <= 0 or tau_minutes % series.base_minutes != 0:
        raise ValueError(
            f"tau must be a positive multiple of the base resolution ({series.base_minutes} min)"
        )


def _increments(series: PriceSeries, taus: list[int], policy: str) -> Iterator[tuple[int, np.ndarray]]:
    """(tau, ln S(t+tau) - ln S(t) over the admissible pairs) for each horizon
    in turn, every horizon checked before the first is paired."""
    for tau in taus:
        _check_tau(series, tau, policy)
    labels = series.session_idx if policy == "intraday-only" else None
    place, pairs = _pairs(series.times, labels, taus)
    lp = place(series.log_price())
    for tau, pair in zip(taus, pairs):
        yield tau, _differences(lp, *pair)


def log_returns(
    series: PriceSeries,
    tau_minutes: int,
    policy: str = "intraday-only",
    remove_drift: bool = True,
) -> ReturnSeries:
    """Tau-normalized log returns [ln S(t+tau) - ln S(t)] / tau, one sample
    per admissible bar pair. Drift removal subtracts the sample mean."""
    _check_tau(series, tau_minutes, policy)
    labels = series.session_idx if policy == "intraday-only" else None
    place, pairs = _pairs(series.times, labels, [tau_minutes])
    [pair] = pairs
    values = _differences(place(series.log_price()), *pair)
    values /= float(tau_minutes)
    if len(values) == 0:
        exceeds = ": horizon exceeds every session" if policy == "intraday-only" else ""
        raise DataError(f"no admissible pairs at tau = {tau_minutes} min{exceeds}")
    if remove_drift:
        values -= values.mean()
    return ReturnSeries(
        tau_minutes=int(tau_minutes),
        values=values,
        drift_removed=remove_drift,
        times=_anchors(place(series.times), *pair),
        session_idx=_anchors(place(series.session_idx), *pair),
        base_minutes=series.base_minutes,
        policy=policy,
    )


@dataclass(frozen=True)
class ScalingResult:
    """Per-horizon drift and volatility of un-normalized increments: the
    columns of `qbm analyze`'s scaling table.

    mean_increment is the raw sample mean of ln S(t+tau) - ln S(t); mu is the
    drift-rate estimate mean + sigma^2/2, which grows linearly in tau with
    slope equal to the price drift rate. The exponent of sigma(tau) is fitted
    from this table by calibrate.fit_power_law.
    """

    taus: np.ndarray
    mean_increment: np.ndarray
    sigma: np.ndarray
    mu: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, taus=np.int64, mean_increment=float, sigma=float, mu=float, counts=np.int64)


def _mean_std(x: np.ndarray) -> tuple[float, float]:
    """x.mean() and x.std(ddof=1), bit for bit (the std is nan for one
    element), summing x once for both; x is overwritten with its squared
    deviations."""
    n = len(x)
    mean = np.add.reduce(x) / n
    if n < 2:
        return float(mean), math.nan
    x -= mean
    x *= x
    return float(mean), math.sqrt(np.add.reduce(x) / (n - 1))


def drift_vol_scaling(
    series: PriceSeries, taus: Sequence[int], policy: str = "intraday-only"
) -> ScalingResult:
    """Mean and standard deviation of un-normalized increments, and the drift
    estimate mu, per horizon. Requires at least 3 horizons, and refuses a zero
    volatility, on which no power law in tau can be fitted."""
    taus = [int(t) for t in taus]
    if len(taus) < 3:
        raise InsufficientDataError("drift/vol scaling needs at least 3 horizons")
    means, sigmas, counts = [], [], []
    for tau, inc in _increments(series, taus, policy):
        if len(inc) < 2:
            raise InsufficientDataError(f"fewer than 2 increments at tau = {tau} min")
        mean, sigma = _mean_std(inc)
        means.append(mean)
        sigmas.append(sigma)
        counts.append(len(inc))
    sigma_arr = np.asarray(sigmas)
    mean_arr = np.asarray(means)
    if np.any(sigma_arr <= 1e-12 * np.maximum(np.abs(mean_arr), 1e-300)):
        raise DegenerateDataError(
            "zero volatility at some horizon: sigma(tau) has no power law (deterministic price path?)"
        )
    return ScalingResult(
        taus=np.asarray(taus, dtype=np.int64),
        mean_increment=mean_arr,
        sigma=sigma_arr,
        mu=mean_arr + sigma_arr**2 / 2.0,
        counts=np.asarray(counts, dtype=np.int64),
    )


@dataclass(frozen=True)
class HistogramResult:
    """Density-normalized return histogram with a moment-matched Gaussian
    reference at the bin centers: the columns of `qbm analyze`'s histogram
    table."""

    centers: np.ndarray
    density: np.ndarray
    counts: np.ndarray
    gaussian_ref: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, centers=float, density=float, counts=np.int64, gaussian_ref=float)


def _quantiles(x: np.ndarray, fractions: Sequence[float]) -> list[float]:
    """np.quantile(x, fractions) of finite x by its default linear method, bit
    for bit: one np.partition, then numpy's interpolation, which steps back
    from the upper neighbour at a weight of 1/2 or more. np.quantile and
    np.unique import numpy.ma, which no other step of a command loads."""
    n = len(x)
    at = [(n - 1) * q for q in fractions]
    below = [math.floor(v) for v in at]
    above = [min(i + 1, n - 1) for i in below]
    part = np.partition(x, sorted({*below, *above}))
    out = []
    for v, i, j in zip(at, below, above):
        a, b, t = float(part[i]), float(part[j]), v - i
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def return_histogram(returns: ReturnSeries, bins: int | None = None) -> HistogramResult:
    """Density histogram of the return samples plus the Gaussian with the same
    mean and variance evaluated at bin centers.

    Binning defaults to Freedman-Diaconis width over a symmetric range of
    +-6 sample standard deviations about the mean. Requires >= 100 samples and
    nondegenerate variance.
    """
    x = returns.values
    n = len(x)
    if n < 100:
        raise InsufficientDataError(f"histogram needs at least 100 samples, got {n}")
    mean = float(x.mean())
    std = float(x.std(ddof=1))
    scale = max(abs(mean), float(np.max(np.abs(x))), 1e-300)
    if std <= 1e-12 * scale:
        raise DegenerateDataError("degenerate variance: all return samples identical")
    lo, hi = mean - 6.0 * std, mean + 6.0 * std
    if bins is None:
        q75, q25 = _quantiles(x, (0.75, 0.25))
        width = 2.0 * (q75 - q25) / n ** (1.0 / 3.0)
        if width <= 0:
            width = 3.5 * std / n ** (1.0 / 3.0)
        bins = int(np.clip(math.ceil((hi - lo) / width), 16, 1024))
    counts, edges = np.histogram(x, bins=bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return HistogramResult(
        centers=centers,
        density=counts / (n * np.diff(edges)),
        counts=counts,
        gaussian_ref=np.exp(-0.5 * ((centers - mean) / std) ** 2) / (std * math.sqrt(2.0 * math.pi)),
    )


# The ACF's windows: at least this FFT length, and about this many values of
# one signal in a batch of windows, so a batch's buffers hold a fixed amount
_ACF_WINDOW = 1 << 10
_ACF_BATCH = 1 << 13


def _correlate_windows(flat: np.ndarray, width: int, k_max: int, size: int) -> np.ndarray:
    """Each row of flat correlated with itself at lags 0 to k_max, summed
    over windows j = 0, 1, ...: flat[:, j width : (j + 1) width + k_max],
    whose first width slots are the anchors, zero-padded to the FFT length
    size >= width + k_max, so no lag wraps round. (A function of its own, so
    that a batch's spectra are freed before the next batch is laid out.)"""
    windows = sliding_window_view(flat, width + k_max, axis=1)[:, ::width]
    spectra = np.fft.rfft(windows, n=size)
    anchors = np.fft.rfft(windows[..., :width], n=size)
    spectra *= np.conjugate(anchors, out=anchors)
    return np.fft.irfft(spectra.sum(axis=1), n=size)[:, : k_max + 1]


def _lag_sums(
    times: np.ndarray, labels: np.ndarray | None, r: np.ndarray, shift: float, max_lag: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(unit, S1, S2, counts): at each lag of k = 0, 1, ... units of the gcd
    time step, up to max_lag, the sums over the pairs of rows k units apart
    of x x', of x² x'² and of 1, where x = r - shift; pairs share a label
    unless labels is None. Times must be strictly increasing.

    The rows are laid on the slots of _slots, where the pairs at a lag of k
    units up to K = max_lag // unit are the held slots k apart. The sums are
    correlations of the slot signals x, x² and h (1 on held slots, 0 on
    empty ones): each window of B anchor slots and the K slots after them is
    zero-padded to an FFT length N >= B + K, correlated by real FFTs and
    summed over a bounded batch of windows, so the working set is the slot
    of each row and one batch. The counts are the h-correlation rounded per
    batch, exact while a batch's rounding error stays below 1/2.
    """
    unit, pos, order = _slots(times, labels, max_lag)
    n_slots = int(pos[-1]) + 1
    k_max = min(max_lag // unit, n_slots - 1)  # no pair reaches past the last slot
    size = 1 << (max(_ACF_WINDOW, 4 * (k_max + 1)) - 1).bit_length()
    size = min(size, 1 << (n_slots + k_max - 1).bit_length())
    width = size - k_max  # anchor slots of a window
    n_windows = -(-n_slots // width)
    batch = max(1, _ACF_BATCH // size)
    sums = np.zeros((2, k_max + 1))
    counts = np.zeros(k_max + 1, dtype=np.int64)
    for first in range(0, n_windows, batch):
        m = min(batch, n_windows - first)
        start = first * width
        lo, hi = np.searchsorted(pos, [start, start + m * width + k_max])
        # the batch's slots as x, x², h; each window a view of them, zero-padded by rfft
        flat = np.zeros((3, m * width + k_max))
        slots = pos[lo:hi] - start
        flat[0, slots] = (r[lo:hi] if order is None else r[order[lo:hi]]) - shift
        np.multiply(flat[0], flat[0], out=flat[1])
        flat[2, slots] = 1.0
        lagged = _correlate_windows(flat, width, k_max, size)
        sums += lagged[:2]
        counts += np.rint(lagged[2]).astype(np.int64)
    return unit, sums[0], sums[1], counts


def empirical_acf(returns: ReturnSeries, max_lag: int) -> AcfEstimate:
    """Lag autocorrelation R(lag) = mean over admissible pairs of
    r(t) r(t+lag), on drift-removed returns, stepping at the base resolution.

    The session policy of the return series is inherited: under intraday-only
    pairing, products never span a session boundary. Lags without admissible
    pairs are omitted and listed in ``omitted_lags``.

    Every lag's sums come at once from blocked real-FFT correlations on the
    slot layout that the scaling, kurtosis and return pairs use too (_slots,
    _lag_sums): with n pairs, S1 the sum of their products and S2 that of
    the squared products, R = S1/n and stderr = sqrt(max(S2 - n R², 0) /
    (n - 1)) / sqrt(n), nan for one pair. The sums carry rounding of the
    whole series' scale, not of each lag's: against the mean and sample
    deviation of each lag's products, the counts are exact, the values are
    within 1e-12 of max|R|, and each lag's variance of the products
    (n stderr²) is within 1e-12 of the largest mean square product of any
    lag. So the stderr is within 1e-12 relative where a lag's products vary
    as much as the series' do; where they nearly cancel in S2 - n R² (all
    equal, say) it is rounding of that size, clamped at 0.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    t = returns.times
    span = int(t[-1] - t[0]) if len(t) else 0
    if max_lag >= span:
        raise ValueError(f"max_lag must be below the sample span ({span} min)")
    r = returns.values
    shift = 0.0 if returns.drift_removed else r.mean()
    base = returns.base_minutes
    all_lags = np.arange(0, max_lag + 1, base, dtype=np.int64)
    labels = returns.session_idx if returns.policy == "intraday-only" else None
    unit, s1, s2, slot_counts = _lag_sums(t, labels, r, shift, int(all_lags[-1]))
    k = all_lags // unit
    on_slots = (all_lags % unit == 0) & (k < len(slot_counts))
    counts = np.zeros(len(all_lags), dtype=np.int64)
    counts[on_slots] = slot_counts[k[on_slots]]
    held = counts > 0
    k, n = k[held], counts[held]
    values = s1[k] / n
    residue = np.maximum(s2[k] - n * values * values, 0.0)
    stderr = np.full(len(n), math.nan)
    many = n > 1
    stderr[many] = np.sqrt(residue[many] / (n[many] - 1)) / np.sqrt(n[many])
    return AcfEstimate(
        lags=all_lags[held],
        values=values,
        counts=n,
        stderr=stderr,
        base_minutes=base,
        tau_minutes=returns.tau_minutes,
        omitted_lags=tuple(all_lags[~held].tolist()),
    )


@dataclass(frozen=True)
class KurtosisResult:
    """Excess kurtosis of drift-removed returns per horizon; horizons with too
    few samples are omitted and listed with their counts."""

    taus: np.ndarray
    kappa: np.ndarray
    counts: np.ndarray
    omitted: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        _freeze(self, taus=np.int64, kappa=float, counts=np.int64)


MIN_KURTOSIS_SAMPLES = 1000


def empirical_kurtosis(
    series: PriceSeries, taus: Sequence[int], policy: str = "intraday-only"
) -> KurtosisResult:
    """Excess kurtosis of drift-removed returns at each horizon. Horizons with
    fewer than 1000 samples are omitted with a diagnostic entry."""
    kept_taus, kappas, counts = [], [], []
    omitted: list[tuple[int, int]] = []
    for tau, v in _increments(series, [int(t) for t in taus], policy):
        n = len(v)
        if n < MIN_KURTOSIS_SAMPLES:
            omitted.append((tau, n))
            continue
        v /= tau
        v -= v.mean()
        # (v^2)^2 in place: v**4 calls libm pow once per sample
        v *= v
        m2 = float(np.add.reduce(v)) / n
        v *= v
        m4 = float(np.add.reduce(v)) / n
        if m2 == 0:
            omitted.append((tau, n))
            continue
        kept_taus.append(tau)
        kappas.append(m4 / m2**2 - 3.0)
        counts.append(n)
    return KurtosisResult(
        taus=np.asarray(kept_taus, dtype=np.int64),
        kappa=np.asarray(kappas),
        counts=np.asarray(counts, dtype=np.int64),
        omitted=tuple(omitted),
    )


def synth_gbm(
    mu: float,
    sigma: float,
    n: int,
    dt_minutes: int = 1,
    seed: int = 0,
    s0: float = 100.0,
) -> PriceSeries:
    """Exact-discretization geometric Brownian motion minute bars.

    Log increments are N((mu - sigma^2/2) dt, sigma^2 dt) per bar; mu is the
    price drift rate per minute and sigma the volatility per sqrt-minute.
    Bit-reproducible under a fixed seed. Emitted as one trading session.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if dt_minutes <= 0:
        raise ValueError("dt_minutes must be positive")
    rng = np.random.default_rng(seed)
    dt = float(dt_minutes)
    increments = rng.standard_normal(n - 1)
    increments *= sigma * math.sqrt(dt)
    increments += (mu - sigma**2 / 2.0) * dt
    return PriceSeries.synthetic(s0, increments, dt_minutes)


def _complex_ar1(v: np.ndarray, a: complex, z: complex) -> np.ndarray:
    """First-order recursive filter y[k] = v[k] + a y[k-1], started from
    a y[-1] = z, written over v (a complex array), which is returned.

    Runs the transposed direct form (y = v + z, then z = a y) in Python
    complex arithmetic: the same operations in the same order as
    lfilter([1], [1, -a], v, zi=[z]), so the results are equal bit for bit.
    v is converted to Python numbers one block at a time, so the series is
    never held whole as a list.
    """
    for start in range(0, len(v), _AR_BLOCK):
        block = []
        for x in v[start:start + _AR_BLOCK].tolist():
            y = x + z
            z = a * y
            block.append(y)
        v[start:start + len(block)] = block
    return v


def synth_colored(
    nm: NonMarkovParams,
    n: int,
    dt_minutes: int = 1,
    base_noise: float = 1e-3,
    seed: int = 0,
) -> ReturnSeries:
    """Seeded return series whose population autocorrelation is
    base_noise^2 at lag 0 (white part) plus the damped oscillatory model ACF
    at every lag.

    Construction: white noise plus the centered square of a complex damped
    oscillator with amplitude decay eta/2 and frequency omega, so the squared
    envelope carries exactly the model ACF (the square of a Gaussian process
    with autocovariance C has autocovariance 2 C^2).
    """
    if dt_minutes <= 0:
        raise ValueError("dt_minutes must be positive")
    if nm.eta * dt_minutes > 0.5:
        raise ValueError(f"filter instability: eta*dt = {nm.eta * dt_minutes:.3g} > 0.5")
    n_min = 10.0 / (nm.eta * dt_minutes)
    if n < n_min:
        n_min = n_min if math.isinf(n_min) else math.ceil(n_min)  # inf where eta * dt is subnormal
        raise ValueError(f"n must cover ten decay times: need n >= {n_min}")
    rng = np.random.default_rng(seed)
    dt = float(dt_minutes)

    values = base_noise * rng.standard_normal(n)  # the white part

    if nm.xi > 0:
        # complex AR(1): chi_{k+1} = a chi_k + w_k with |a| = exp(-eta dt / 2),
        # stationary E|chi|^2 = sqrt(2) xi so that 2 C(tau)^2 matches the target.
        amp2 = math.sqrt(2.0) * nm.xi
        a = complex(math.cos(nm.omega * dt), math.sin(nm.omega * dt)) * math.exp(-nm.eta * dt / 2.0)
        noise_var = amp2 * (1.0 - abs(a) ** 2)
        # w and then chi in one array, each step in place
        chi = np.empty(n, dtype=complex)
        chi.real = rng.standard_normal(n)
        chi.imag = rng.standard_normal(n)
        chi *= math.sqrt(noise_var / 2.0)
        chi0 = math.sqrt(amp2 / 2.0) * complex(rng.standard_normal(), rng.standard_normal())
        chi[0] = chi0
        _complex_ar1(chi[1:], a, a * chi0)
        colored = chi.real
        colored *= colored
        colored -= amp2 / 2.0
        values += colored
        del chi, colored
    else:
        values += 0.0  # as adding zeros did: a -0.0 becomes 0.0

    times = SYNTH_START_MINUTE + np.arange(n, dtype=np.int64) * dt_minutes
    return ReturnSeries(
        tau_minutes=int(dt_minutes),
        values=values,
        drift_removed=False,
        times=times,
        session_idx=np.zeros(n, dtype=np.int64),
        base_minutes=int(dt_minutes),
        policy="contiguous",
    )
