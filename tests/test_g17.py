"""The CSV writer's `%.17g` kernel against CPython's `%`, value by value."""

import math
from decimal import Decimal

import numpy as np
import pytest

from qbmarket._g17 import WIDTH, _digits, g17

POWERS = [10.0**k for k in range(16)]


def near(x, steps=3):
    """x and the `steps` doubles on each side of it."""
    out = [x]
    below = above = x
    for _ in range(steps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def assert_written_as_percent(values):
    """g17 takes exactly the values with 1 <= |v| < 1e15 and writes each as
    `'%.17g' % v`; returns the texts it wrote, None for a value it left."""
    values = np.asarray(values, dtype=float)
    cells, done = g17(values)
    assert cells.shape == (len(values), WIDTH)
    np.testing.assert_array_equal(done, (1.0 <= np.abs(values)) & (np.abs(values) < 1e15))
    texts = [cell.tobytes().replace(b"\0", b"").decode("ascii") if ok else None for cell, ok in zip(cells, done)]
    wrong = [(v, text) for v, text in zip(values.tolist(), texts) if text is not None and text != "%.17g" % v]
    assert wrong == []
    return texts


def is_tie(v):
    """Whether v lies exactly halfway between two 17-digit decimals."""
    digits = Decimal(abs(v)).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


class TestG17:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(33)
        bits = rng.integers(0, 2**64 - 1, 100_000, dtype=np.uint64, endpoint=True)
        # the same mantissas and signs with exponents of the domain, 2^0 to 2^49
        inside = bits & np.uint64(0x800F_FFFF_FFFF_FFFF) | rng.integers(1023, 1073, len(bits)).astype(np.uint64) << 52
        values = np.concatenate([bits, inside]).view(np.float64)
        texts = assert_written_as_percent(values)
        assert sum(text is not None for text in texts) > 100_000

    def test_ties_round_half_to_even(self):
        assert assert_written_as_percent([1 + 2**-17, -(1 + 2**-17)]) == ["1.0000076293945312", "-1.0000076293945312"]
        # odd multiples of 2^-q in each decade; those with X + 1 + q = 18
        # digits, the decade's X from 7 down to 0, are exact ties
        rng = np.random.default_rng(17)
        values = []
        for q in range(10, 31):
            for X in range(15):
                lo, hi = 10**X * 2**q, min(10 ** (X + 1) * 2**q, 2**53)
                if lo < hi:
                    odd = 2 * rng.integers(lo // 2, hi // 2, 300 if X + 1 + q == 18 else 20) + 1
                    values += (odd / 2.0**q).tolist()
        values += [-v for v in values]
        assert_written_as_percent(values)
        assert sum(map(is_tie, values)) > 4000

    def test_near_every_power_of_ten(self):
        values = [s * v for p in POWERS for v in near(p) for s in (1, -1)]
        texts = assert_written_as_percent(values)
        assert texts.count("1") == texts.count("-1") == 1
        # no rounding carries the 17 digits to 10^17, so none is renormalised
        inside = np.abs([v for v, text in zip(values, texts) if text is not None])
        digits, _ = _digits(inside)
        assert digits.max() < 10**17

    def test_domain_edges(self):
        edges = [*near(1.0), *near(1e15), 0.0, 5e-324, 0.5, 1.7976931348623157e308, math.inf, math.nan]
        texts = assert_written_as_percent([s * v for v in edges for s in (1, -1)])
        assert texts[:4] == ["1", "-1", None, None]  # 1, then the double below it
        assert "999999999999999.88" in texts and "-999999999999999.88" in texts
        assert texts[14:16] == [None, None]  # 1e15

    def test_integers_up_to_the_edge(self):
        rng = np.random.default_rng(15)
        values = [
            *range(1, 100_001),
            *(p + d for p in POWERS[1:-1] for d in (-1, 1)),
            *(2.0**k + d for k in range(1, 50) for d in (-1, 0, 1)),
            *rng.integers(1, 10**15, 10_000).astype(float).tolist(),
            1e15 - 1,
        ]
        texts = assert_written_as_percent([s * v for v in values for s in (1, -1)])
        assert None not in texts

    @pytest.mark.parametrize("n", [0, 1, 4096])
    def test_shapes(self, n):
        cells, done = g17(np.full(n, 12.5))
        assert cells.shape == (n, WIDTH) and done.shape == (n,) and done.all()
