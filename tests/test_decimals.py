"""The price reader's decimal fields against `float`, value by value."""

import math
from decimal import Decimal

import numpy as np
import pytest

from qbmarket._decimals import MAX_FRACTION, SPAN, parse

from test_g17 import near


def cells_of(texts, width=None):
    """The texts right-aligned in rows of NUL bytes, as the price reader lays
    out a block's closes for parse."""
    data = [text.encode("ascii") for text in texts]
    width = width or max(1, *map(len, data))
    cells = np.zeros((len(data), width), dtype=np.uint8)
    for row, text in zip(cells, data):
        row[width - len(text) :] = np.frombuffer(text, dtype=np.uint8)
    return cells


def assert_read_as_float(texts):
    """parse reads every text in one call, each as the double `float` reads."""
    values = parse(cells_of(texts))
    assert values is not None
    assert values.dtype == np.float64 and values.shape == (len(texts),)
    wrong = [(text, v) for text, v in zip(texts, values.tolist()) if v != float(text)]
    assert wrong == []


def log_uniform(rng, low, high, n):
    return np.exp(rng.uniform(math.log(low), math.log(high), n)).tolist()


def fixed(value, digits):
    """A Decimal rounded to `digits` significant digits, in fixed notation."""
    return format(value.quantize(Decimal(1).scaleb(value.adjusted() - digits + 1)), "f")


class TestParse:
    def test_formats_of_log_uniform_values(self):
        rng = np.random.default_rng(34)
        # %.17g of every value the writer's kernel takes; %.12g and repr
        # where they write fixed notation
        assert_read_as_float(["%.17g" % x for x in log_uniform(rng, 1, 1e15, 40_000)])
        assert_read_as_float(["%.12g" % x for x in log_uniform(rng, 1e-4, 1e12, 40_000)])
        assert_read_as_float([repr(x) for x in log_uniform(rng, 1e-4, 1e16, 40_000)])

    def test_integers(self):
        rng = np.random.default_rng(35)
        texts = [str(v) for v in range(1, 10_001)]
        texts += [str(v) for v in rng.integers(1, 10**SPAN, 10_000).tolist()]
        texts += [str(10**k + d) for k in range(1, SPAN) for d in (-1, 1)] + ["9" * SPAN]
        assert_read_as_float(texts)

    def test_leading_zeros_and_bare_points(self):
        rng = np.random.default_rng(36)
        texts = ["5.", ".5", "0.5", "00.5", "0005.000", "05", "0.000123", "1." + "0" * 16, "0" * 23 + "1"]
        texts += ["." + "0" * (MAX_FRACTION - 1) + "7", "0." + "0" * (MAX_FRACTION - SPAN) + "9" * SPAN]
        for x in log_uniform(rng, 1e-6, 1e12, 2_000):
            text = "%.15g" % x
            texts += ["0" * int(rng.integers(1, 6)) + text, text + ("." if "." not in text else "0")]
            if text.startswith("0."):
                texts.append(text[1:])
        assert_read_as_float([text for text in texts if "e" not in text])

    def test_around_two_to_the_53(self):
        # the fast path ends at D = 2^53; past it every odd integer is a tie
        texts = [str(2**53 + k) for k in range(-2_000, 2_001)]
        texts += [f"{2**53 + k}.{f}" for k in range(-50, 51) for f in ("0", "1", "5", "9")]
        texts += [f"{(2**53 + k) // 10}.{(2**53 + k) % 10}" for k in range(-2_000, 2_001)]
        assert_read_as_float(texts)

    def test_integer_ties_round_half_to_even(self):
        # an odd integer of 54 bits, times 2^j, lies halfway between two doubles
        rng = np.random.default_rng(37)
        texts = []
        for j in range(7):
            odd = 2 * rng.integers(2**52, min(2**54, 10**SPAN >> j) // 2, 2_000, dtype=np.int64) + 1
            texts += [str(int(m) << j) for m in odd]
        values = [int(text) for text in texts]
        assert all(float(v) != v for v in values)
        assert_read_as_float(texts)
        # about half of them lie above their even neighbour, half below
        assert 0.4 < np.mean([float(v) > v for v in values]) < 0.6

    def test_powers_of_two_and_their_neighbours(self):
        # at y = 2^k the double below is half as far as the one above
        texts = []
        for k in range(-10, 60):
            power = 2.0**k
            below = power - math.nextafter(power, 0)
            for x in near(power, 4):
                texts += ["%.17g" % x, repr(x)]
            # 18-digit decimals from a quarter of an ulp below 2^k to two ulps
            for t in np.linspace(0.05, 2.0, 40):
                texts.append(fixed(Decimal(power) - Decimal(t) * Decimal(below), SPAN - 1))
            for d in range(-4, 5):  # the integers beside 2^k, ties among them
                if 2**k + d > 0 and k >= 0 and 2**k + d < 10**SPAN:
                    texts.append(str(2**k + d))
        assert_read_as_float([text for text in texts if "e" not in text])

    def test_at_the_domain_limits(self):
        # each field is read bit-equal to float or refused, and refused
        # exactly where it spans more than SPAN columns or has more than
        # MAX_FRACTION fraction digits
        rng = np.random.default_rng(38)
        texts = []
        for columns in (SPAN - 1, SPAN, SPAN + 1):
            for point in range(columns + 1):
                digits = "".join(map(str, rng.integers(0, 10, columns)))
                digits = str(rng.integers(1, 10)) + digits[1:]
                text = digits[:point] + "." + digits[point:] if point < columns else digits
                texts += [text, text[: columns]]
        texts += ["0." + "0" * (f - 1) + "3" for f in (MAX_FRACTION, MAX_FRACTION + 1)]
        texts += ["0" * 30 + "1.5", "9" * SPAN + ".", "9" * SPAN + "0"]
        for text in texts:
            value = parse(cells_of([text]))
            # from the first nonzero digit, the point included if it comes after
            span = len(text.lstrip("0."))
            fraction = len(text) - 1 - text.index(".") if "." in text else 0
            inside = span <= SPAN and fraction <= MAX_FRACTION
            assert (value is not None) == inside, text
            if value is not None:
                assert value.tolist() == [float(text)], text

    @pytest.mark.parametrize("text", ["+5", "-5", "1e2", "1E2", "1_0", "1.2.3", ".", "0", "000.000", "", " 5", "5 ",
                                      "0x1", "inf", "nan", "1,5"])
    def test_refused_fields(self, text):
        assert parse(cells_of([text])) is None
        # one refused field refuses the whole block
        assert parse(cells_of(["100", "101.25", text, "99.5"])) is None

    def test_wide_rows(self):
        # NUL padding of any width before the fields reads as nothing
        np.testing.assert_array_equal(parse(cells_of(["12.5", "7", "0.25"], width=24)), [12.5, 7.0, 0.25])
