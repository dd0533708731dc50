"""The doubles `float` reads from plain decimal fields, whole arrays at once.

The digits D of a field, as an integer below 10^18, and its f digits after
the point make D / 10^f, which one division rounds correctly where
D <= 2^53 (Clinger, "How to Read Floating Point Numbers Accurately", PLDI
1990). Elsewhere that quotient is within 2 ulp, and an exact integer
residual against it steps it to the correctly rounded double, as the wide
product of Lemire, "Number Parsing at a Gigabyte per Second" (2021),
corrects his estimate.

The price reader imports this module only to read a block by column, so
the commands that read no prices never load it.
"""

from __future__ import annotations

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
    where D <= 2^53. Elsewhere y = m 2^e is within 2 ulp of D / 10^f, and
    the residual 2^(1-e) 5^f (D / 10^f - y) = D 2^(1-e-f) - 2 m 5^f is an
    integer (both sides scaled by 2^(e+f-1) where e + f > 1) of magnitude at
    most 4 5^f, exact in wrapping int64 arithmetic. y steps by one ulp while
    the residual passes the half-ulp bound 5^f (5^f / 2 below y where m =
    2^52, at a binade edge), and an exact tie leaves m even.
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
