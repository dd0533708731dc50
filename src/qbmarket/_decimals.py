"""The price reader's column kernel: a block of `timestamp,close[,session]`
rows read as whole arrays (read_block), its stamps by the days-from-civil
formula and its closes as the doubles `float` reads (parse). csvio.load_prices
imports this module only when it reads a block, so the commands that read no
prices never load it.
"""

from __future__ import annotations

import re

import numpy as np

# fraction digits parse reads: 10^f and 5^f are exact doubles
MAX_FRACTION = 22
# the widest field parse reads, and the columns from a field's first nonzero
# digit to its end that it reads, so that their digits make an int64
READ_WIDTH, SPAN = 24, 18

# from Python integers: a numpy power would page in code the reader has no other use for
_EXP10 = np.array([10**k for k in range(MAX_FRACTION + 1)], dtype=np.float64)  # exact
_POW5 = np.array([5**k for k in range(MAX_FRACTION + 1)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(SPAN + 1)])


def parse(cells: np.ndarray) -> np.ndarray | None:
    """The float64 that `float` reads from each row of the uint8 array cells,
    which is overwritten: a decimal field right-aligned in its row, NUL bytes
    before it. None unless every field is digits with at most one '.', holds
    a nonzero digit, spans at most SPAN columns from its first nonzero digit
    to its end (the '.' included) and has at most MAX_FRACTION digits after
    the '.'; a sign, an exponent, `_` or a blank are refused with the field.

    The columns are summed by Horner's rule with the '.' read as 0, giving
    D' = I 10^(f+1) + F for integer part I and f fraction digits F, and
    D = D' - 9 I 10^f. Then y = D / 10^f in float64 is correctly rounded
    where D <= 2^53 (Clinger, "How to Read Floating Point Numbers
    Accurately", PLDI 1990). Elsewhere y = m 2^e is within 2 ulp of D / 10^f, and
    the residual 2^(1-e) 5^f (D / 10^f - y) = D 2^(1-e-f) - 2 m 5^f is an
    integer (both sides scaled by 2^(e+f-1) where e + f > 1) of magnitude at
    most 4 5^f, exact in wrapping int64 arithmetic. y steps by one ulp while
    the residual passes the half-ulp bound 5^f (5^f / 2 below y where m =
    2^52, at a binade edge), and an exact tie leaves m even: the correction
    of Lemire, "Number Parsing at a Gigabyte per Second" (2021), to his wide
    product's estimate.
    """
    n, width = cells.shape
    digits = cells
    digits -= np.uint8(ord("0"))  # wraps above 9 for other bytes
    point = digits == np.uint8(ord(".") - ord("0") + 256)
    pointed, column = np.divmod(np.flatnonzero(point), width)
    digits[point] = 0
    del point
    digits[digits == np.uint8(256 - ord("0"))] = 0  # NUL
    # digits only, one point a row, and at most SPAN columns from a field's first nonzero digit
    if (digits.max() > 9 or np.any(pointed[1:] == pointed[:-1]) or np.any(column < width - 1 - MAX_FRACTION)
            or np.any(digits[:, : max(width - SPAN, 0)])):
        return None
    value = np.zeros(n, dtype=np.int64)
    for j in range(width):
        value *= 10
        value += digits[:, j]
    if not np.all(value):
        return None
    # 10^(f+1), the point's place in D', is _POW10[place]; without a point,
    # or where f >= SPAN, 10^SPAN > D' leaves no integer part
    place = np.full(n, SPAN)
    place[pointed] = np.minimum(width - column, SPAN)
    fraction = np.zeros(n, dtype=np.int64)
    fraction[pointed] = width - 1 - column
    del pointed, column
    whole = value // _POW10[place]
    whole *= 9 * _POW10[place - 1]
    value -= whole
    del place, whole
    y = value.astype(np.float64)
    y /= _EXP10[fraction]

    rows = np.flatnonzero(value > 2**53)
    while len(rows):
        m = y.view(np.int64)[rows]
        left = 1076 - fraction[rows]
        left -= m >> 52  # 1 - e - f
        right = np.maximum(-left, 0)
        np.maximum(left, 0, out=left)
        m -= (m >> 52) - 1 << 52  # the mantissa with its leading bit
        p5 = _POW5.view(np.int64)[fraction[rows]]
        residual = value[rows]
        residual <<= left
        del left
        left = m << 1  # now 2 m 5^f, scaled as D is
        left *= p5
        left <<= right
        residual -= left
        bound = np.left_shift(p5, right, out=p5)
        del left, right
        odd = m % 2 == 1
        edge = m == 2**52
        del m
        step = (residual > bound) | (residual == bound) & odd  # up
        np.subtract(0, residual, out=residual)
        residual[edge] *= 2  # the half ulp below y is half as wide
        down = (residual > bound) | (residual == bound) & odd
        del residual, bound, odd, edge
        step = np.subtract(step, down, dtype=np.int64)
        # every pass is over all the rows: numpy keeps freed arrays under 1 KiB
        # for reuse, so passes over the few that moved would leave such arrays
        # of every size pinning the heap
        y.view(np.int64)[rows] += step
        if not np.any(step):
            break
    return y


# The stamp forms read by column, and the comma after the stamp. The first
# row of a block fixes which one the block has; its other rows must match it.
_STAMP = re.compile(rb"\d{4}-\d\d-\d\d[T ]\d\d:\d\d(:\d\d)?(Z|[+-]\d\d:\d\d)?,")
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int64)


def _days_from_civil(year: np.ndarray, month: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Days from 1970-01-01 to each proleptic Gregorian date (H. Hinnant,
    "chrono-Compatible Low-Level Date Algorithms"), in int64."""
    year = year - (month <= 2)
    era = year // 400
    yoe = year - era * 400
    doy = (153 * (month + np.where(month > 2, -3, 9)) + 2) // 5 + day - 1
    return era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468


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


def read_block(text: str, n_fields: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Times, closes and session labels (bytes, empty without the session
    field) of the whole rows in text, read by column, if every stamp has the
    form of the first: `YYYY-MM-DD{T| }HH:MM`, then an optional `:00`, then
    an optional `Z` or `+HH:MM`/`-HH:MM` offset. Each row's commas are
    checked: the stamp's, and in a session file one more inside the row.
    Stamps, closes and labels are then gathered from the bytes as fields.
    The stamps are checked (month, day within the month, hour, minute and
    offset) and converted by the days-from-civil formula. The closes of 1
    to READ_WIDTH characters are converted by parse, whose domain holds
    every close `%.17g` writes of 1 <= x < 1e15, as `qbm synth` does, and
    `%.12g` and repr in fixed notation.

    Returns None where csvio._read_lines is needed: other stamp forms, nonzero
    seconds, a date or time out of range, non-ASCII text, carriage returns,
    comments, quotes, blank rows or whitespace (bar the space separating date
    and time), a close that parse refuses, a row with a field too many or
    too few, times that do not increase, labels whose widest times the rows
    exceeds twice the block, and any row that fails validation, so the error
    names the same line either way.
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
        # again): one long label among short ones is left to csvio._read_lines
        if len(starts) * (int(np.max(row_ends - close_ends)) - 1) > 2 * len(buf):
            return None
        labels = _fields(buf, close_ends + 1, row_ends, right=False)
        labels = labels.view(f"S{labels.shape[1]}").ravel()
    return times, close, labels
