"""Ingestion, estimators and synthetic generators of the market pipeline."""

import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbmarket import (
    DataError,
    DegenerateDataError,
    InsufficientDataError,
    NonMarkovParams,
    acf_model,
    drift_vol_scaling,
    empirical_acf,
    empirical_kurtosis,
    fit_power_law,
    load_prices,
    log_returns,
    return_histogram,
    synth_colored,
    synth_gbm,
)
from qbmarket import _decimals, csvio, market
from qbmarket.cli import main
from qbmarket.market import PAIRING_POLICIES, PriceSeries, ReturnSeries, SYNTH_START_MINUTE

from conftest import ACF_TOL, assert_acf_matches, linear_fit_r2, reference_acf, reference_pairs, significant_tail_bins


def make_prices(text: str):
    return load_prices(io.StringIO(text))


CSV_OK = """timestamp,close
2020-01-06T09:30,100.0
2020-01-06T09:31,100.5
2020-01-06T09:32,99.8
"""


class TestLoadPrices:
    def test_three_valid_rows(self):
        series = make_prices(CSV_OK)
        assert len(series) == 3
        assert series.base_minutes == 1
        assert series.session_idx.tolist() == [0, 0, 0]

    def test_zero_price_names_line(self):
        bad = "timestamp,close\n2020-01-06T09:30,100.0\n2020-01-06T09:31,0\n"
        with pytest.raises(DataError, match="line 3"):
            make_prices(bad)

    def test_unsorted_rows_rejected(self):
        bad = "timestamp,close\n2020-01-06T09:31,100.0\n2020-01-06T09:30,100.5\n"
        with pytest.raises(DataError, match="out of order"):
            make_prices(bad)

    def test_duplicate_timestamp_rejected(self):
        bad = "timestamp,close\n2020-01-06T09:30,100.0\n2020-01-06T09:30,100.5\n"
        with pytest.raises(DataError, match="duplicate"):
            make_prices(bad)

    def test_empty_file_rejected(self):
        with pytest.raises(DataError, match="empty"):
            make_prices("")
        with pytest.raises(DataError, match="empty"):
            make_prices("timestamp,close\n")

    def test_bad_header_rejected(self):
        with pytest.raises(DataError, match="header"):
            make_prices("time,price\n2020-01-06T09:30,1\n")

    def test_unparseable_timestamp_names_line(self):
        bad = "timestamp,close\nyesterday,100.0\n"
        with pytest.raises(DataError, match="line 2"):
            make_prices(bad)

    def test_session_column_builds_windows(self):
        text = (
            "timestamp,close,session\n"
            "2020-01-06T09:30,100,a\n"
            "2020-01-06T09:31,101,a\n"
            "2020-01-06T13:00,102,b\n"
            "2020-01-06T13:01,103,b\n"
        )
        series = make_prices(text)
        assert series.session_idx.tolist() == [0, 0, 1, 1]

    def test_comment_lines_skipped(self):
        series = make_prices("# qbmarket 0.1.0; input sha256=deadbeef\n" + CSV_OK)
        assert len(series) == 3

    def test_blank_lines_before_the_header_skipped(self):
        # the header rule that fit's estimator reader shares: it skipped them
        assert len(make_prices("\n \n# qbmarket\n" + CSV_OK)) == 3
        with pytest.raises(DataError, match="line 3: cannot parse timestamp"):
            make_prices("\ntimestamp,close\nyesterday,100.0\n")

    @pytest.mark.parametrize("case", ["past-the-first-chunk", "character-across-blocks",
                                      "in-a-readline-completion", "after-a-character-across-chunks"])
    def test_not_utf8_error_names_the_byte_of_the_file(self, tmp_path, monkeypatch, case):
        # the text reader decodes 8 KiB at a time, and its error counts from
        # the start of the one that failed
        data = plain_csv().encode()
        if case == "past-the-first-chunk":
            bad = 12_616
        elif case == "character-across-blocks":
            monkeypatch.setattr(csvio, "_READ_BLOCK", 10_000)
            # a comment whose two-byte character spans the first block's edge
            data = b"# " + b"x" * (10_000 - 3) + "\u00e9\n".encode() + data
            bad = 12_000
        elif case == "in-a-readline-completion":
            monkeypatch.setattr(csvio, "_READ_BLOCK", 10_000)
            # a comment from before the first block's end to past the 8 KiB
            # chunk the block's read ends in, so that readline decodes the bad byte
            rows = data.index(b"\n", data.index(b"\n") + 1) + 1  # past the comment and the header
            start = data.index(b"\n", rows + 9_000) + 1
            data = data[:start] + b"#" + b"x" * 20_000 + b"\n" + data[start:]
            bad = start + 15_000
        else:
            # a comment whose three-byte character spans the first 8 KiB
            # chunk's edge (two bytes before it, one after), then the bad byte
            start = data.rfind(b"\n", 0, 8_000) + 1
            data = data[:start] + b"#" + b"x" * (8_189 - start) + "\u20ac".encode() + b"?\n" + data[start:]
            bad = 8_193
        path = tmp_path / "prices.csv"
        path.write_bytes(data[:bad] + b"\xff" + data[bad + 1 :])
        with pytest.raises(DataError, match=f"not UTF-8 text .* byte 0xff in position {bad}: invalid start byte"):
            load_prices(path)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # a file saved with a UTF-8 byte-order mark read "\ufefftimestamp" as its first name
        path = tmp_path / "prices.csv"
        path.write_bytes("\ufeff".encode() + CSV_OK.encode())
        assert_same_series(load_prices(path), make_prices(CSV_OK))
        # error offsets still count the mark's three bytes
        path.write_bytes("\ufeff".encode() + CSV_OK.encode()[:20] + b"\xff" + CSV_OK.encode()[21:])
        with pytest.raises(DataError, match="byte 0xff in position 23: invalid start byte"):
            load_prices(path)

    @pytest.mark.parametrize("block", [None, 1], ids=["default-block", "one-character-block"])
    def test_text_stream_of_lone_cr_lines_reads_as_its_file(self, tmp_path, monkeypatch, block):
        # a default StringIO's readline splits only at \n, so its leading
        # comment swallowed the header and the load failed with "empty file"
        text = plain_csv().replace("\n", "\r")
        path = tmp_path / "prices.csv"
        path.write_bytes(text.encode())
        if block is not None:
            monkeypatch.setattr(csvio, "_READ_BLOCK", block)
        from_file = load_prices(path)
        assert from_file.session_idx[-1] == 2
        assert_same_series(load_prices(io.StringIO(text)), from_file)


def load_by_line(text: str) -> PriceSeries:
    """load_prices with every block sent to the per-line parser."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_decimals, "read_block", lambda text, n_fields: None)
        return load_prices(io.StringIO(text))


def load_both(text: str):
    """load_prices reading each block by column where its stamps allow, and
    with every block read line by line."""
    return make_prices(text), load_by_line(text)


def assert_same_series(a: PriceSeries, b: PriceSeries) -> None:
    for name in ("times", "close", "session_idx"):
        assert getattr(a, name).dtype == getattr(b, name).dtype
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.base_minutes == b.base_minutes


def plain_csv(n_sessions: int = 3, seed: int = 0, labelled: bool = True) -> str:
    """Session-labelled minute bars with missing bars and overnight gaps, in
    the `YYYY-MM-DDTHH:MM` form `qbm synth` writes; without labels, the same
    bars as one session."""
    rng = np.random.default_rng(seed)
    rows = ["# qbmarket test; input sha256=0", "timestamp,close" + ",session" * labelled]
    for day in range(n_sessions):
        keep = np.flatnonzero(rng.random(390) > 0.05)
        prices = 100.0 * np.exp(np.cumsum(1e-3 * rng.standard_normal(len(keep))))
        stamps = np.datetime64("2021-01-04T09:30") + np.timedelta64(day, "D") + keep.astype("m8[m]")
        label = f",d{day}" * labelled
        rows += [f"{t},{p!r}{label}" for t, p in zip(np.datetime_as_string(stamps, unit="m"), prices.tolist())]
    return "\n".join(rows) + "\n"


class TestLoadPricesPaths:
    def test_column_read_equals_line_read(self, monkeypatch):
        text = plain_csv()
        line_read = load_by_line(text)
        # the per-line timestamp parser is not reached on plain stamps
        monkeypatch.setattr(csvio, "_parse_minute", None)
        column_read = load_prices(io.StringIO(text))
        assert_same_series(column_read, line_read)
        assert column_read.session_idx[-1] == 2

    def test_seconds_and_offsets_read_line_by_line(self):
        text = plain_csv()
        plain = load_prices(io.StringIO(text))
        stamp = re.compile(r"^(\d{4}-\d\d-\d\dT\d\d:\d\d),", re.M)
        assert_same_series(load_prices(io.StringIO(stamp.sub(r"\1:00,", text))), plain)
        shifted = load_prices(io.StringIO(stamp.sub(r"\1-05:00,", text)))
        np.testing.assert_array_equal(shifted.times, plain.times + 300)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("{stamp},0,d0", "non-positive price"),
            ("{stamp},nan,d0", "non-positive price"),
            ("{stamp},abc,d0", "cannot parse price"),
            ("{stamp}:30,100,d0", "not at minute resolution"),
            ("{stamp},100", "expected 3 fields"),
            ("", "blank row"),
            ("0000-01-04T09:30,100,d0", "cannot parse timestamp"),
            ("2021-01-04T24:30,100,d0", "cannot parse timestamp"),
            # fromisoformat reads these offsets as +13:00 and +12:01
            ("{stamp}+12:60,100,d0", "offset field of 60 or more"),
            ("{stamp}:00+12:00:60,100,d0", "offset field of 60 or more"),
            # a field too many or too few
            ("{stamp},100,d0,x", "expected 3 fields"),
            ("{stamp},100,x", "expected 2 fields"),
        ],
    )
    def test_bad_row_named_as_by_line_parser(self, row, message):
        # the first data row, so that no order check can catch the row instead
        lines = plain_csv(labelled=message != "expected 2 fields").splitlines()
        lines[2] = row.format(stamp=lines[2].split(",")[0])
        text = "\n".join(lines) + "\n"
        errors = []
        for load in (make_prices, load_by_line):
            with pytest.raises(DataError, match=f"line 3: .*{message}") as info:
                load(text)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("which", ["duplicate timestamp", "out of order"])
    def test_order_checks_name_first_bad_line(self, which):
        lines = plain_csv().splitlines()
        stamp = lines[5].split(",")[0] if which == "duplicate timestamp" else lines[2].split(",")[0]
        lines[6] = f"{stamp},100,d0"
        lines[9] = lines[9].replace(",d0", "x,d0")  # a later bad row is not the one named
        errors = []
        for load in (make_prices, load_by_line):
            with pytest.raises(DataError, match=f"line 7: .*{which}") as info:
                load("\n".join(lines))
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: t.replace("\n", "\r\n"),
            lambda t: t.replace(",d1", ", d1"),
            lambda t: t.replace("timestamp,close,session", "Timestamp, Close, Session"),
            lambda t: t.replace("d2", '"d2"'),
            lambda t: t.rstrip("\n"),
        ],
        ids=["crlf", "padded-label", "header-case", "quoted-label", "no-final-newline"],
    )
    def test_variants_agree_with_line_parser(self, edit):
        column_read, line_read = load_both(edit(plain_csv()))
        assert_same_series(column_read, line_read)
        assert_same_series(column_read, load_prices(io.StringIO(plain_csv())))


# one offset per session of plain_csv: both signs, and a half-hour zone
SESSION_OFFSETS = {"d0": "+08:00", "d1": "-05:00", "d2": "-03:30"}


# per field, values that fromisoformat rejects, that are off the minute or
# that the per-line parser reads differently (some days are valid in some
# months only; labels are stripped)
_EDGES = {
    "year": ["0000", "0001", "9999"],
    "month": ["00", "13"],
    "day": ["00", "29", "30", "31", "32"],
    "sep": ["t", "_"],
    "hour": ["24"],
    "minute": ["60"],
    "seconds": [":30", ":59", ":60", ":0"],
    "zone": ["-24:00", "+12:60", "+0800", "_05:00", "Z", "z"],
    "close": ["nan", "inf", "-1", "0", "1_0", "abc", ""],
    "session": [" a", "b "],
}
_ZONES = ["+00:00", "-00:00", "+08:00", "-05:00", "+05:30", "+23:59", "-23:59"]
# valid closes: the column reader's kernel reads plain decimals of up to 18
# significant columns; a block with any other goes to the per-line parser
_CLOSES = st.one_of(
    st.sampled_from(["100", "101.25", "1e2", "5.", ".5", "0005.000", "+5", "9007199254740993", "18014398509481983",
                     "123456789012345678", "1234567890123456789", "0." + "0" * 21 + "1", "1" + "0" * 30]),
    st.floats(1, 1e15, exclude_max=True).map("%.17g".__mod__),
    st.floats(1e-4, 1e12).map("%.12g".__mod__),
    st.floats(1e-300, 1e300).map(repr),
)


@st.composite
def stamped_files(draw):
    """One- to four-row files whose stamps share a form, each valid or with
    one field of one row set to an edge value."""
    sep = draw(st.sampled_from(["T", " "]))
    seconds = draw(st.sampled_from(["", ":00"]))
    zone = draw(st.sampled_from(["", "Z", "offset"]))
    by_minute = st.lists(st.datetimes(), min_size=1, max_size=4, unique_by=lambda t: t.replace(second=0, microsecond=0))
    stamps = sorted(draw(by_minute))
    rows = [
        {
            "year": f"{t.year:04d}", "month": f"{t.month:02d}", "day": f"{t.day:02d}", "sep": sep,
            "hour": f"{t.hour:02d}", "minute": f"{t.minute:02d}", "seconds": seconds,
            "zone": draw(st.sampled_from(_ZONES)) if zone == "offset" else zone,
            "close": draw(_CLOSES), "session": draw(st.sampled_from("ab")),
        }
        for t in stamps
    ]
    if draw(st.booleans()):
        field = draw(st.sampled_from(sorted(_EDGES)))
        draw(st.sampled_from(rows))[field] = draw(st.sampled_from(_EDGES[field]))
    return "timestamp,close,session\n" + "".join(
        "{year}-{month}-{day}{sep}{hour}:{minute}{seconds}{zone},{close},{session}\n".format(**row) for row in rows
    )


def _file(*stamps: str) -> str:
    return "timestamp,close,session\n" + "".join(f"{stamp},100,a\n" for stamp in stamps)


class TestStampForms:
    @pytest.mark.parametrize("zone", ["", "Z", "offset"])
    @pytest.mark.parametrize("seconds", ["", ":00"])
    @pytest.mark.parametrize("sep", ["T", " "], ids=["T", "space"])
    def test_every_documented_form_read_by_column(self, monkeypatch, sep, seconds, zone):
        def restamp(match):
            tz = SESSION_OFFSETS[match[4]] if zone == "offset" else zone
            return f"{match[1]}{sep}{match[2]}{seconds}{tz},{match[3]},{match[4]}"

        text = re.sub(r"^(\d{4}-\d\d-\d\d)T(\d\d:\d\d),([^,]*),(d\d)$", restamp, plain_csv(), flags=re.M)
        line_read = load_by_line(text)

        def no_line_parser(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr(csvio, "_read_lines", no_line_parser)
        assert_same_series(load_prices(io.StringIO(text)), line_read)

    @given(text=stamped_files())
    @example(text=_file("2023-02-29T09:30"))
    @example(text=_file("2024-02-29 23:59:00Z", "2024-03-01 00:00:00Z"))
    @example(text=_file("0000-12-31T23:59"))
    @example(text=_file("0001-01-01T00:00+23:59", "9999-12-31T23:59-23:59"))
    @example(text=_file("2021-01-04T09:30+05:00", "2021-01-04T09:31-24:00"))
    @example(text=_file("2021-01-04T09:30+05:00", "2021-01-04T09:31_05:00"))
    @example(text=_file("2021-01-04 09:30:00", "2021-01-04 09:31:30"))
    @settings(max_examples=300, deadline=None)
    def test_column_and_line_readers_agree(self, text):
        assert_readers_agree(text)


def assert_readers_agree(text: str) -> None:
    outcomes = []
    for load in (make_prices, load_by_line):
        try:
            outcomes.append(load(text))
        except DataError as exc:
            outcomes.append(str(exc))
    if isinstance(outcomes[0], str) or isinstance(outcomes[1], str):
        assert outcomes[0] == outcomes[1]
    else:
        assert_same_series(*outcomes)


@pytest.fixture(scope="class")
def small_blocks():
    """The column reader's blocks shrunk to one to three rows, so that every
    file spans many and its rows fall at every place in a block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csvio, "_READ_BLOCK", 64)
        yield


@pytest.mark.usefixtures("small_blocks")
class TestLoadPricesPathsInSmallBlocks(TestLoadPricesPaths):
    """Every reader-agreement case, with rows and errors on block edges."""


@pytest.mark.usefixtures("small_blocks")
class TestStampFormsInSmallBlocks(TestStampForms):
    """Every stamp form and edge value, with rows and errors on block edges."""

    # hypothesis refuses one test function run on instances of two classes
    @given(text=stamped_files())
    @settings(max_examples=300, deadline=None)
    def test_column_and_line_readers_agree(self, text):
        assert_readers_agree(text)


class _Unseekable(io.StringIO):
    """A text stream that cannot seek, as a pipe."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


class TestBlockEdges:
    def test_session_change_at_a_block_edge(self, monkeypatch):
        text = plain_csv()
        first_session = [line for line in text.splitlines() if line.endswith(",d0")]
        # the first block ends with the last row of d0
        monkeypatch.setattr(csvio, "_READ_BLOCK", sum(len(line) + 1 for line in first_session))
        column_read, line_read = load_both(text)
        assert_same_series(column_read, line_read)
        assert column_read.session_idx.tolist().index(1) == len(first_session)

    def test_comments_longer_than_a_block(self, monkeypatch, read_blocks):
        monkeypatch.setattr(csvio, "_READ_BLOCK", 16)
        text = "# " + "x" * 100 + "\n#\n" + plain_csv()
        column_read = make_prices(text)
        assert read_blocks and all(read_blocks)
        assert_same_series(column_read, load_by_line(text))

    @pytest.mark.parametrize("edit, message", [
        (lambda row: row.replace(",", ",-", 1), "non-positive price"),
        (lambda row: row + ",x", "expected 3 fields"),
    ], ids=["negative-price", "extra-field"])
    def test_bad_row_in_the_last_block_only(self, monkeypatch, read_blocks, edit, message):
        monkeypatch.setattr(csvio, "_READ_BLOCK", 100)
        lines = plain_csv().splitlines()
        lines[-1] = edit(lines[-1])
        text = "\n".join(lines) + "\n"
        errors = []
        for load in (make_prices, load_by_line):
            with pytest.raises(DataError, match=f"line {len(lines)}: .*{message}") as info:
                load(text)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        # the column read refused the last block only
        assert len(read_blocks) > 1 and all(read_blocks[:-1]) and not read_blocks[-1]

    def test_no_final_newline(self, monkeypatch, read_blocks):
        # one-row blocks: the last is its row without a newline
        monkeypatch.setattr(csvio, "_READ_BLOCK", 1)
        text = plain_csv().rstrip("\n")
        column_read, line_read = load_both(text)
        assert read_blocks and all(read_blocks)
        assert_same_series(column_read, line_read)
        assert column_read.close[-1] == float(text.rsplit(",", 2)[1])

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_numbers_across_blocks_of_other_line_ends(self, tmp_path, monkeypatch, end):
        # a file opened with newline="" ends a line at each of them
        monkeypatch.setattr(csvio, "_READ_BLOCK", 100)
        lines = plain_csv().splitlines()
        lines[-1] = lines[-1].replace(",", ",-", 1)
        path = tmp_path / "prices.csv"
        path.write_bytes(end.join(lines).encode() + end.encode())
        with pytest.raises(DataError, match=f"line {len(lines)}: .*non-positive price"):
            load_prices(path)

    @pytest.mark.parametrize("crlf", [0, 1, 2])
    def test_line_numbers_after_column_blocks_and_a_crlf_block(self, tmp_path, monkeypatch, read_blocks, crlf):
        # three blocks of four rows, the one at index crlf ended by `\r\n`,
        # then a bad row in the fourth: a block read by column counts its rows
        # as lines, the `\r\n` block its line ends
        times = SYNTH_START_MINUTE + np.arange(16)
        stamps = np.datetime_as_string(times.astype("datetime64[m]"), unit="m")
        rows = [f"{stamp},100.5" for stamp in stamps.tolist()]
        rows[13] = rows[13].replace(",", ",-")
        ends = ["\r\n" if i // 4 == crlf else "\n" for i in range(16)]
        path = tmp_path / "prices.csv"
        path.write_bytes(("timestamp,close\n" + "".join(row + end for row, end in zip(rows, ends))).encode())
        # each read ends inside a block's last row, and readline completes it
        monkeypatch.setattr(csvio, "_READ_BLOCK", 4 * len(rows[0]) + 3)
        with pytest.raises(DataError, match="^line 15: .*non-positive price"):
            load_prices(path)
        assert read_blocks == [i != crlf for i in range(3)] + [False]

    def test_unseekable_source_read_by_column(self, read_blocks):
        text = plain_csv()
        piped = load_prices(_Unseekable(text))
        assert read_blocks and all(read_blocks)
        assert_same_series(piped, make_prices(text))

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace(",d1\n", ",d1\n# a comment between rows\n", 1),
        lambda text: re.sub(r"^(\S{16})(,.*,d1)$", r"\1-0500\2", text, flags=re.M),
    ], ids=["comment", "offsets-without-colon"])
    def test_only_the_blocks_that_need_it_read_line_by_line(self, monkeypatch, read_blocks, edit):
        monkeypatch.setattr(csvio, "_READ_BLOCK", 2000)
        text = edit(plain_csv())
        column_read = make_prices(text)
        # blocks of d0 and d2 by column, one or more around d1 line by line
        assert read_blocks[0] and read_blocks[-1] and not all(read_blocks)
        assert_same_series(column_read, load_by_line(text))


def write_bars(path, n: int, labelled: bool = True, offset: str = "-05:00") -> None:
    """n bars of 390-minute sessions: labelled by date with `:00` seconds,
    the offset and `%.12g` closes, as perfbench's market_sessions input; or
    else in the form `qbm synth` writes, closes as repr."""
    rng = np.random.default_rng(5)
    minute = np.arange(n)
    times = SYNTH_START_MINUTE + (minute // 390) * 1440 + minute % 390
    close = (100.0 * np.exp(np.cumsum(1e-3 * rng.standard_normal(n)))).tolist()
    stamps = np.datetime_as_string(times.astype("datetime64[m]"), unit="m").tolist()
    if labelled:
        rows = (f"{t}:00{offset},{c:.12g},{t[:10]}\n" for t, c in zip(stamps, close))
    else:
        rows = (f"{t},{c!r}\n" for t, c in zip(stamps, close))
    path.write_text("timestamp,close" + ",session" * labelled + "\n" + "".join(rows))


class TestCloseKernel:
    @pytest.mark.parametrize("close", ["1e2", "+100", "100_0", "-0.5", "1" + "0" * 19])
    def test_a_close_outside_the_kernel_sends_its_block_line_by_line(self, monkeypatch, read_blocks, close):
        monkeypatch.setattr(csvio, "_READ_BLOCK", 2000)
        lines = plain_csv().splitlines(keepends=True)
        lines[200] = re.sub(r",[^,]*,", f",{close},", lines[200])
        text = "".join(lines)
        try:
            line_read = load_by_line(text)
        except DataError as exc:
            with pytest.raises(DataError, match=re.escape(str(exc))):
                make_prices(text)
        else:
            assert_same_series(make_prices(text), line_read)
        assert read_blocks[0] and not all(read_blocks)

    @pytest.mark.parametrize("form", ["synth-colored", "sessions"])
    def test_every_block_read_by_the_kernel(self, tmp_path, read_blocks, form):
        # 1e5 bars as `qbm synth --kind colored` writes them, or labelled at
        # -05:00 as perfbench's market_sessions input: the kernel reads every close
        path, n = tmp_path / "prices.csv", 100_000
        if form == "sessions":
            write_bars(path, n)
        else:
            assert main(["synth", "--kind", "colored", "--n", str(n), "--xi", "5.48e-4", "--eta", "5.56e-3",
                         "--omega", "0.02617", "--seed", "3", "--out", str(path)]) == 0
            n += 1  # the start price and n steps
        assert len(load_prices(path)) == n
        assert len(read_blocks) > 1 and all(read_blocks)


class TestReaderMemory:
    @pytest.mark.parametrize("form", ["sessions", "synth-form", "line-by-line"])
    def test_peak_is_a_fraction_of_the_file(self, tmp_path, monkeypatch, read_blocks, form):
        # 2e5 bars: 390-minute sessions at -05:00 labelled by date, as
        # perfbench's market_sessions input, or the form `qbm synth` writes.
        # The whole text and its bytes alone would be twice the file; the
        # reader holds one block of it and the rows it has read. Offsets
        # written -0500 send every block to the per-line parser, which
        # tracemalloc slows about 8-fold, so that case reads a sixteenth of
        # the rows in blocks a sixteenth the size: as many blocks as the
        # others, at a sixteenth of the cost.
        n = 200_000
        if form == "line-by-line":
            n //= 16
            monkeypatch.setattr(csvio, "_READ_BLOCK", csvio._READ_BLOCK // 16)
        labelled = form != "synth-form"
        path = tmp_path / "prices.csv"
        write_bars(path, n, labelled, "-0500" if form == "line-by-line" else "-05:00")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            series = load_prices(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(series) == n
        assert series.session_idx[-1] == ((n - 1) // 390 if labelled else 0)
        assert peak < 2.0 * path.stat().st_size
        assert len(read_blocks) > 1 and set(read_blocks) == {form != "line-by-line"}

    def test_one_long_label_is_not_held_for_every_row(self, tmp_path, monkeypatch, read_blocks):
        # every label of a block read by column is as wide as the widest, so
        # a 20 kB label in a block of a few hundred rows would cost megabytes;
        # its block goes to the per-line parser instead. Blocks a sixteenth
        # the size, as in the line-by-line case above.
        monkeypatch.setattr(csvio, "_READ_BLOCK", csvio._READ_BLOCK // 16)
        path = tmp_path / "prices.csv"
        write_bars(path, 12_500)
        lines = path.read_text().splitlines(keepends=True)
        lines[5000] = lines[5000].rstrip("\n") + "x" * 20_000 + "\n"  # a label of 20 kB
        path.write_text("".join(lines))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            series = load_prices(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(series) == 12_500
        assert peak < 2.0 * path.stat().st_size
        assert read_blocks.count(False) == 1


@st.composite
def gapped_times(draw):
    n = draw(st.integers(1, 40))
    base = draw(st.integers(1, 4))
    if draw(st.booleans()):
        gaps = [1] * (n - 1)
    else:
        gaps = draw(st.lists(st.sampled_from([1, 1, 2, 3, 7, 50, 400]), min_size=n - 1, max_size=n - 1))
    times = draw(st.integers(-10_000, 10_000)) + base * np.concatenate([[0], np.cumsum(gaps, dtype=np.int64)])
    # a session is a run of rows: labels that decrease are refused (TestSessionRule)
    if draw(st.booleans()):
        session_idx = np.zeros(n, dtype=np.int64)
    else:
        session_idx = np.cumsum(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=np.int64)
    span = int(times[-1] - times[0])
    lags = draw(st.lists(st.integers(0, span + base), min_size=1, max_size=10))
    return times.astype(np.int64), session_idx, lags


class TestPairMatcher:
    @given(case=gapped_times(), policy=st.sampled_from(PAIRING_POLICIES))
    def test_matches_direct_search(self, case, policy):
        times, session_idx, lags = case
        place, pairs = market._pairs(times, session_idx if policy == "intraday-only" else None, lags)
        # rows count from 1, so an empty slot (0) never passes for row 0
        rows = place(np.arange(1, len(times) + 1))
        matched = 0
        for lag, (k, mask) in zip(lags, pairs):
            anchors = market._anchors(rows, k, mask)
            partners = market._anchors(rows[k:], 0, mask)  # k slots on, selected as the anchors are
            ref_a, ref_p = reference_pairs(times, session_idx, lag, policy)
            np.testing.assert_array_equal(anchors, ref_a + 1)
            np.testing.assert_array_equal(partners, ref_p + 1)
            matched += 1
        assert matched == len(lags)

    def test_negative_lag_rejected(self):
        times = np.arange(10, dtype=np.int64)
        with pytest.raises(ValueError, match="nonnegative"):
            market._pairs(times, None, [3, -1])


class TestSessionRule:
    """A session is a run of rows: load_prices counts the runs of the label
    column, and the series types refuse a session_idx that decreases."""

    @settings(deadline=None)
    @given(labels=st.lists(st.sampled_from(["a", "b", "cc"]), min_size=1, max_size=40),
           block=st.sampled_from([64, csvio._READ_BLOCK]))
    def test_session_idx_is_the_run_index_of_the_labels(self, labels, block):
        # reappearing labels included, within a block and across blocks
        stamps = np.datetime_as_string(np.datetime64("2021-01-04T09:30") + np.arange(len(labels)), unit="m")
        text = "timestamp,close,session\n" + "".join(f"{t},100.5,{label}\n" for t, label in zip(stamps, labels))
        runs = np.cumsum([False] + [a != b for a, b in zip(labels[1:], labels[:-1])])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(csvio, "_READ_BLOCK", block)
            line_read = load_by_line(text)
            patch.setattr(csvio, "_read_lines", None)  # every block read by column
            column_read = make_prices(text)
        for series in (column_read, line_read):
            assert series.session_idx.tolist() == runs.tolist()

    @given(session_idx=st.lists(st.integers(0, 2), min_size=1, max_size=40))
    def test_a_decreasing_session_idx_is_refused(self, session_idx):
        n = len(session_idx)
        times = SYNTH_START_MINUTE + np.arange(n, dtype=np.int64)
        builds = {
            DataError: lambda: PriceSeries(times=times, close=np.ones(n), session_idx=session_idx, base_minutes=1),
            ValueError: lambda: ReturnSeries(values=np.zeros(n), drift_removed=False, times=times,
                                             session_idx=session_idx, base_minutes=1, policy="intraday-only"),
        }
        for error, build in builds.items():
            if np.any(np.diff(session_idx) < 0):
                with pytest.raises(error, match="session_idx must not decrease"):
                    build()
            else:
                assert build().session_idx.tolist() == session_idx


@st.composite
def gapped_cases(draw):
    """A gapped layout with random prices and returns, and horizons: positive
    multiples of its tick drawn from its lags, and spacings of its bars."""
    times, session_idx, lags = draw(gapped_times())
    assume(len(times) >= 2)
    base = int(np.gcd.reduce(np.diff(times)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = PriceSeries(
        times=times,
        close=np.exp(1e-2 * rng.standard_normal(len(times))),
        session_idx=session_idx,
        base_minutes=base,
    )
    spacings = np.unique((times[None, :] - times[:, None])[np.triu_indices(len(times), 1)])
    taus = {base * (1 + lag // base) for lag in lags}
    taus |= set(draw(st.lists(st.sampled_from(spacings.tolist()), max_size=6)))
    return series, rng.standard_normal(len(times)), sorted(taus)


@pytest.mark.parametrize("policy", PAIRING_POLICIES)
class TestStatisticsOnGappedLayouts:
    """On random gapped layouts, each estimator equals its formula applied to
    directly searched pairs: bit for bit, the ACF within its stated tolerance."""

    @settings(deadline=None)
    @given(case=gapped_cases())
    def test_empirical_acf(self, case, policy):
        series, values, _ = case
        returns = ReturnSeries(
            values=values, drift_removed=False, times=series.times,
            session_idx=series.session_idx, base_minutes=series.base_minutes, policy=policy,
        )
        max_lag = min(int(series.times[-1] - series.times[0]) - 1, 240)
        ref = reference_acf(series.times, series.session_idx, values - values.mean(), max_lag, policy,
                            series.base_minutes)
        assert_acf_matches(empirical_acf(returns, max_lag), ref)

    @settings(deadline=None)
    @given(case=gapped_cases(), remove_drift=st.booleans())
    def test_log_returns(self, case, policy, remove_drift):
        series, _, taus = case
        for tau in taus:
            a, p = reference_pairs(series.times, series.session_idx, tau, policy)
            if len(a) == 0:
                with pytest.raises(DataError, match="no admissible pairs"):
                    log_returns(series, tau, policy=policy, remove_drift=remove_drift)
                continue
            values = reference_increments(series, tau, policy) / float(tau)
            if remove_drift:
                values -= values.mean()
            rs = log_returns(series, tau, policy=policy, remove_drift=remove_drift)
            assert np.array_equal(rs.values, values)
            assert np.array_equal(rs.times, series.times[a])
            assert np.array_equal(rs.session_idx, series.session_idx[a])

    @settings(deadline=None)
    @given(case=gapped_cases())
    def test_drift_vol_scaling(self, case, policy):
        series, _, taus = case
        incs = {tau: reference_increments(series, tau, policy) for tau in taus}
        admissible = [tau for tau in taus if len(incs[tau]) >= 2]
        if len(admissible) < 3:
            with pytest.raises(InsufficientDataError):
                drift_vol_scaling(series, taus, policy=policy)
            return
        taus = admissible
        sc = drift_vol_scaling(series, taus, policy=policy)
        assert np.array_equal(sc.mean_increment, [float(incs[tau].mean()) for tau in taus])
        assert np.array_equal(sc.sigma, [float(incs[tau].std(ddof=1)) for tau in taus])
        assert np.array_equal(sc.counts, [len(incs[tau]) for tau in taus])

    @settings(deadline=None)
    @given(case=gapped_cases())
    def test_empirical_kurtosis(self, case, policy):
        series, _, taus = case
        kappas, counts, omitted = [], [], []
        for tau in taus:
            v = reference_increments(series, tau, policy) / float(tau)
            if len(v) < 2:
                omitted.append((tau, len(v)))
                continue
            v = v - v.mean()
            v2 = v * v
            if float(np.mean(v2)) == 0:
                omitted.append((tau, len(v)))
                continue
            kappas.append(float(np.mean(v2 * v2)) / float(np.mean(v2)) ** 2 - 3.0)
            counts.append(len(v))
        # the layouts hold at most 40 bars: keep every horizon with 2 samples
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(market, "MIN_KURTOSIS_SAMPLES", 2)
            res = empirical_kurtosis(series, taus, policy=policy)
        assert np.array_equal(res.kappa, kappas)
        assert np.array_equal(res.counts, counts)
        assert res.omitted == tuple(omitted)


def gapped_series() -> PriceSeries:
    return load_prices(io.StringIO(plain_csv(n_sessions=4, seed=1)))


def reference_increments(series: PriceSeries, tau: int, policy: str) -> np.ndarray:
    a, p = reference_pairs(series.times, series.session_idx, tau, policy)
    lp = series.log_price()
    return lp[p] - lp[a]


@pytest.mark.parametrize("policy", PAIRING_POLICIES)
class TestStatisticsOnReferencePairs:
    """Each estimator gives exactly what its formula gives on directly searched
    pairs; the ACF within its stated tolerance."""

    def test_empirical_acf(self, policy):
        returns = log_returns(gapped_series(), 1, policy=policy)
        ref = reference_acf(returns.times, returns.session_idx, returns.values, 120, policy)
        assert_acf_matches(empirical_acf(returns, 120), ref)

    def test_drift_vol_scaling(self, policy):
        series = gapped_series()
        taus = [1, 2, 5, 30, 90]
        sc = drift_vol_scaling(series, taus, policy=policy)
        incs = [reference_increments(series, tau, policy) for tau in taus]
        assert np.array_equal(sc.mean_increment, [float(i.mean()) for i in incs])
        assert np.array_equal(sc.sigma, [float(i.std(ddof=1)) for i in incs])
        assert np.array_equal(sc.counts, [len(i) for i in incs])

    def test_empirical_kurtosis(self, policy):
        series = gapped_series()
        taus = [1, 3, 10, 389, 500]
        res = empirical_kurtosis(series, taus, policy=policy)
        kappas, counts, omitted = [], [], []
        for tau in taus:
            v = reference_increments(series, tau, policy) / float(tau)
            if len(v) < market.MIN_KURTOSIS_SAMPLES:
                omitted.append((tau, len(v)))
                continue
            v = v - v.mean()
            v2 = v * v
            kappas.append(float(np.mean(v2 * v2)) / float(np.mean(v2)) ** 2 - 3.0)
            counts.append(len(v))
        assert np.array_equal(res.kappa, kappas)
        assert np.array_equal(res.counts, counts)
        assert res.omitted == tuple(omitted)

    def test_contiguous_rows_match_as_shifts(self, policy):
        series = synth_gbm(mu=0.0, sigma=0.01, n=3000, dt_minutes=1, seed=5)
        acf = empirical_acf(log_returns(series, 1, policy=policy), 60)
        np.testing.assert_array_equal(acf.counts, 2999 - acf.lags)
        returns = log_returns(series, 1, policy=policy).values
        tol = ACF_TOL * np.max(np.abs(acf.values))
        for lag in (0, 7, 60):
            products = returns[: len(returns) - lag] * returns[lag:]
            assert abs(acf.values[lag] - float(products.mean())) <= tol


@pytest.mark.parametrize("policy", PAIRING_POLICIES)
class TestLagsPastEveryRun:
    """No pair leaves a session when every gap between sessions is longer than
    the largest lag, so a lag past the longest session has no pair."""

    def test_acf_omits_them_and_keeps_the_reference_values(self, policy):
        returns = log_returns(gapped_series(), 1, policy=policy)
        t, s, r = returns.times, returns.session_idx, returns.values
        longest = max(int(np.ptp(t[s == i])) for i in np.unique(s))
        max_lag = 500  # past every 390-minute session, below every overnight gap
        assert longest < max_lag < int(np.diff(t).max())
        acf = empirical_acf(returns, max_lag)
        assert acf.omitted_lags[longest - max_lag:] == tuple(range(longest + 1, max_lag + 1))
        assert acf.lags[-1] <= longest
        assert_acf_matches(acf, reference_acf(t, s, r, max_lag, policy))


class TestLogReturns:
    def test_constant_price_gives_zero_returns(self):
        text = "timestamp,close\n" + "\n".join(
            f"2020-01-06T09:{30 + i:02d},50.0" for i in range(10)
        )
        series = make_prices(text)
        rs = log_returns(series, 1, remove_drift=False)
        assert np.all(rs.values == 0.0)
        assert len(rs) == 9

    def test_exponential_price_gives_constant_mu_then_zero(self):
        mu = 2e-4
        rows = [f"2020-01-06T{9 + i // 60:02d}:{i % 60:02d},{100 * math.exp(mu * i):.10f}" for i in range(30)]
        series = make_prices("timestamp,close\n" + "\n".join(rows))
        raw = log_returns(series, 5, remove_drift=False)
        np.testing.assert_allclose(raw.values, mu, rtol=1e-6)
        centered = log_returns(series, 5, remove_drift=True)
        # residuals are price-rounding noise, far below the drift itself
        assert np.max(np.abs(centered.values)) < 1e-8 * mu
        assert abs(centered.values.mean()) <= 1e-15 * mu

    def test_drift_removed_mean_within_invariant_scale(self):
        series = synth_gbm(mu=1e-5, sigma=0.01, n=20_000, dt_minutes=1, seed=77)
        rs = log_returns(series, 5, remove_drift=True)
        assert abs(rs.values.mean()) <= 1e-12 * rs.values.std()

    def test_session_spanning_pairs_dropped_intraday(self):
        text = (
            "timestamp,close,session\n"
            "2020-01-06T09:58,100,a\n"
            "2020-01-06T09:59,101,a\n"
            "2020-01-06T10:00,102,a\n"
            "2020-01-06T10:01,103,b\n"
            "2020-01-06T10:02,104,b\n"
            "2020-01-06T10:03,105,b\n"
        )
        series = make_prices(text)
        intraday = log_returns(series, 2, policy="intraday-only", remove_drift=False)
        spanning = log_returns(series, 2, policy="contiguous", remove_drift=False)
        assert len(intraday) == 2  # one pair per session
        assert len(spanning) == 4

    def test_horizon_exceeding_sessions_errors(self):
        text = (
            "timestamp,close,session\n"
            "2020-01-06T09:30,100,a\n"
            "2020-01-06T09:31,101,a\n"
            "2020-01-07T09:30,102,b\n"
            "2020-01-07T09:31,103,b\n"
        )
        series = make_prices(text)
        with pytest.raises(DataError, match="session"):
            log_returns(series, 2, policy="intraday-only")

    def test_sample_count_on_contiguous_series(self):
        series = synth_gbm(mu=0.0, sigma=0.01, n=500, dt_minutes=1, seed=1)
        for tau in (1, 5, 20):
            assert len(log_returns(series, tau)) == 500 - tau

    def test_tau_must_be_multiple_of_base(self):
        series = synth_gbm(mu=0.0, sigma=0.01, n=100, dt_minutes=5, seed=1)
        with pytest.raises(ValueError):
            log_returns(series, 7)
        with pytest.raises(ValueError):
            log_returns(series, 0)


class TestDriftVolScaling:
    def test_gbm_recovers_half_exponent_and_drift(self):
        series = synth_gbm(mu=1e-5, sigma=0.01, n=200_000, dt_minutes=1, seed=11)
        sc = drift_vol_scaling(series, list(range(5, 101, 5)))
        fit = fit_power_law(sc.taus, sc.sigma)
        assert abs(fit.exponent - 0.5) < 0.05
        assert fit.prefactor == pytest.approx(0.01, rel=0.05)
        # drift-rate estimate carries sampling error sigma/sqrt(N) per minute
        drift_se = 0.01 / math.sqrt(len(series))
        mu_slope, _, _ = linear_fit_r2(sc.taus.astype(float), sc.mu)
        assert abs(mu_slope - 1e-5) < 3.0 * drift_se

    def test_mu_is_linear_in_tau(self):
        series = synth_gbm(mu=1e-5, sigma=0.01, n=200_000, dt_minutes=1, seed=11)
        sc = drift_vol_scaling(series, list(range(5, 101, 5)))
        _, _, r2 = linear_fit_r2(sc.taus.astype(float), sc.mu)
        assert r2 > 0.99

    def test_deterministic_price_refused(self):
        series = synth_gbm(mu=1e-4, sigma=0.0, n=500, dt_minutes=1, seed=2)
        with pytest.raises(DegenerateDataError):
            drift_vol_scaling(series, [5, 10, 15])

    def test_too_few_horizons_refused(self):
        series = synth_gbm(mu=0.0, sigma=0.01, n=500, dt_minutes=1, seed=3)
        with pytest.raises(InsufficientDataError):
            drift_vol_scaling(series, [5, 10])

    def test_unknown_policy_rejected(self):
        series = synth_gbm(mu=0.0, sigma=0.01, n=500, dt_minutes=1, seed=1)
        with pytest.raises(ValueError, match="unknown pairing policy"):
            drift_vol_scaling(series, [1, 2, 3], policy="bogus")

    def test_tau_off_base_resolution_is_usage_error(self):
        # a horizon the 5-minute grid cannot hold is a bad argument, not short data
        series = synth_gbm(mu=0.0, sigma=0.01, n=500, dt_minutes=5, seed=1)
        with pytest.raises(ValueError, match="positive multiple of the base resolution"):
            drift_vol_scaling(series, [5, 7, 10])


class TestOrderStatistics:
    # n - 1 = 0, 1, 2 and 3 mod 4 put the quartiles at weights 0, 1/4, 1/2 and
    # 3/4 between neighbours, on either side of the interpolation's switch at 1/2
    @pytest.mark.parametrize("n", [100, 101, 102, 103, 10_000, 100_001])
    def test_equal_numpy_bit_for_bit(self, n):
        from qbmarket.calibrate import _median

        rng = np.random.default_rng(n)
        # sorted neighbours lie close, where both interpolation forms mostly
        # agree; pairs of values that straddle the upper quartile tell them apart
        upper = np.arange(n) > (n - 1) * 3 // 4
        straddles = [rng.permutation(np.where(upper, b, a)) for a, b in np.sort(rng.standard_normal((8, 2)))]
        for x in (rng.standard_normal(n), 1e-3 * rng.standard_t(3, n), rng.exponential(size=n) ** 4,
                  np.round(rng.standard_normal(n), 1), *straddles):
            kept = x.copy()
            quartiles = np.array(market._quantiles(x, (0.75, 0.25)))
            assert quartiles.tobytes() == np.percentile(x, [75, 25]).tobytes()
            assert np.float64(_median(x)).tobytes() == np.median(x).tobytes()
            np.testing.assert_array_equal(x, kept)


class TestReturnHistogram:
    def test_gaussian_sample_within_binomial_bounds(self):
        rng = np.random.default_rng(8)
        rs = _returns_from(rng.standard_normal(100_000) * 1e-4)
        hist = return_histogram(rs)
        gap = np.abs(hist.density - hist.gaussian_ref)
        per_count = len(rs) * (hist.centers[1] - hist.centers[0])  # samples times bin width
        bound = 5.0 * np.sqrt(np.maximum(hist.counts, 1.0)) / per_count
        # only bins with meaningful expected counts are sharp
        busy = hist.gaussian_ref * per_count > 5
        assert np.all(gap[busy] < bound[busy])
        assert len(significant_tail_bins(hist, rs.values)) == 0

    def test_student_t3_fat_tails_detected(self):
        # moderately coarse bins so the tail bins collect enough counts for a
        # 5-standard-error exceedance; the narrow default splits them too finely
        rng = np.random.default_rng(9)
        rs = _returns_from(rng.standard_t(3, size=100_000) * 1e-4)
        hist = return_histogram(rs, bins=64)
        assert len(significant_tail_bins(hist, rs.values)) > 0

    def test_gaussian_clean_at_detection_binning(self):
        rng = np.random.default_rng(10)
        rs = _returns_from(rng.standard_normal(100_000) * 1e-4)
        hist = return_histogram(rs, bins=64)
        assert len(significant_tail_bins(hist, rs.values)) == 0

    def test_degenerate_sample_rejected(self):
        rs = _returns_from(np.full(500, 1e-4))
        with pytest.raises(DegenerateDataError):
            return_histogram(rs)

    def test_insufficient_samples_rejected(self):
        rs = _returns_from(np.linspace(-1e-4, 1e-4, 50))
        with pytest.raises(InsufficientDataError):
            return_histogram(rs)


def _returns_from(values: np.ndarray, dt: int = 1) -> ReturnSeries:
    n = len(values)
    times = SYNTH_START_MINUTE + np.arange(n, dtype=np.int64) * dt
    return ReturnSeries(
        values=values,
        drift_removed=False,
        times=times,
        session_idx=np.zeros(n, dtype=np.int64),
        base_minutes=dt,
        policy="contiguous",
    )


class TestEmpiricalAcf:
    def test_white_noise_band(self):
        rng = np.random.default_rng(4)
        rs = _returns_from(rng.standard_normal(100_000))
        acf = empirical_acf(rs, 50)
        band = 4.0 / math.sqrt(len(rs)) * acf.values[0]
        assert np.all(np.abs(acf.values[1:]) < band)

    def test_lag_zero_equals_sample_variance(self):
        rng = np.random.default_rng(5)
        rs = _returns_from(rng.standard_normal(5000))
        acf = empirical_acf(rs, 20)
        centered = rs.values - rs.values.mean()
        assert acf.values[0] == pytest.approx(float(np.mean(centered**2)), rel=1e-12)

    def test_periodic_returns_give_cosine_acf(self):
        n = 20000
        w = 2 * math.pi / 50.0
        rs = _returns_from(np.cos(w * np.arange(n)))
        acf = empirical_acf(rs, 200)
        lags = acf.lags.astype(float)
        # finite-sample mean removal shifts the level slightly; shape is cosine
        expected = 0.5 * np.cos(w * lags)
        np.testing.assert_allclose(acf.values, expected, atol=2e-3)

    def test_drift_invariance(self):
        rng = np.random.default_rng(6)
        base = np.cumsum(rng.standard_normal(4000)) * 1e-4 + 5.0
        times = SYNTH_START_MINUTE + np.arange(4000, dtype=np.int64)
        mk = lambda lp: PriceSeries(
            times=times,
            close=np.exp(lp),
            session_idx=np.zeros(4000, dtype=np.int64),
            base_minutes=1,
        )
        drifted = base + 3e-5 * np.arange(4000)
        acf_a = empirical_acf(log_returns(mk(base), 1), 30)
        acf_b = empirical_acf(log_returns(mk(drifted), 1), 30)
        np.testing.assert_allclose(acf_a.values, acf_b.values, rtol=0, atol=1e-15)

    def test_price_rescaling_invariance(self):
        series = synth_gbm(mu=1e-5, sigma=0.01, n=3000, dt_minutes=1, seed=12)
        scaled = PriceSeries(
            times=series.times,
            close=series.close * 7.3,
            session_idx=series.session_idx,
            base_minutes=series.base_minutes,
        )
        a = empirical_acf(log_returns(series, 1), 20)
        b = empirical_acf(log_returns(scaled, 1), 20)
        np.testing.assert_allclose(a.values, b.values, rtol=1e-10)

    def test_colored_series_matches_model_acf(self, nm_9904):
        rs = synth_colored(nm_9904, n=400_000, dt_minutes=5, base_noise=1e-3, seed=3)
        acf = empirical_acf(rs, 150)
        for lag in (0, 30, 60, 120):
            i = int(np.where(acf.lags == lag)[0][0])
            target = float(acf_model(nm_9904, float(lag)))
            if lag == 0:
                target += 1e-3**2
            assert abs(acf.values[i] - target) <= 3.0 * acf.stderr[i], lag

    def test_max_lag_validation(self):
        rs = _returns_from(np.linspace(-1, 1, 100))
        with pytest.raises(ValueError):
            empirical_acf(rs, 100)

    def test_unordered_times_rejected(self):
        rs = _returns_from(np.linspace(-1, 1, 100))
        times = rs.times.copy()
        times[[40, 41]] = times[[41, 40]]
        with pytest.raises(ValueError, match="strictly increasing"):
            ReturnSeries(
                values=rs.values, drift_removed=False, times=times, session_idx=rs.session_idx,
                base_minutes=1, policy="contiguous",
            )

    @pytest.mark.parametrize("policy", PAIRING_POLICIES)
    def test_equal_products_keep_a_finite_stderr(self, policy):
        # 40 sessions of 100 bars 300 minutes apart with returns alternating
        # +-2**-10, so at each lag every product is one power of two and the
        # reference stderr is exactly 0 (S2 - n R**2 is pure rounding), then
        # a session of two bars 120 minutes apart: lag 120's one pair
        times = np.concatenate([300 * (np.arange(4000) // 100) + np.arange(4000) % 100, [12_000, 12_120]])
        session_idx = np.concatenate([np.arange(4000) // 100, [40, 40]])
        values = 2.0**-10 * np.concatenate([(-1.0) ** np.arange(4000), [1.0, 1.0]])
        returns = ReturnSeries(
            values=values, drift_removed=True, times=times.astype(np.int64),
            session_idx=session_idx, base_minutes=1, policy=policy,
        )
        acf = empirical_acf(returns, 150)
        ref = reference_acf(returns.times, session_idx, values, 150, policy)
        assert np.all(ref.stderr[ref.counts > 1] == 0.0)
        assert_acf_matches(acf, ref)
        many = acf.counts > 1
        assert np.all(np.isfinite(acf.stderr[many])) and np.all(acf.stderr[many] >= 0.0)
        assert list(acf.counts[acf.lags == 120]) == [1] and np.isnan(acf.stderr[acf.lags == 120][0])


def acf_memory_case(case: str) -> ReturnSeries:
    """The returns of 256 sessions of 390 minute bars with 2% missing, or a
    dense series of 1e5 returns, built in memory."""
    rng = np.random.default_rng(17)
    if case == "dense":
        return _returns_from(rng.standard_normal(100_000))
    keep = rng.random((256, 390)) >= 0.02
    keep[:, [0, -1]] = True
    day, minute = np.nonzero(keep)
    series = PriceSeries(
        times=SYNTH_START_MINUTE + 1440 * day + minute,
        close=100.0 * np.exp(np.cumsum(1e-3 * rng.standard_normal(len(day)))),
        session_idx=day,
        base_minutes=1,
    )
    return log_returns(series, 1, policy="intraday-only")


class TestAcfMemory:
    # traced peaks of the per-lag loop that the FFT sums replaced, on the same
    # inputs; the FFT sums in one window of the whole series peak at 33 MB
    # and 17 MB on them
    @pytest.mark.parametrize("case, loop_peak", [("sessions", 3.44e6), ("dense", 1.71e6)], ids=["sessions", "dense"])
    def test_peak_at_most_the_lag_loop(self, case, loop_peak):
        returns = acf_memory_case(case)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            acf = empirical_acf(returns, 480)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(acf.lags) > 300
        assert peak <= loop_peak


def pow_kurtosis(increments: np.ndarray, tau: int) -> float:
    """Excess kurtosis by the libm formula mean(v**4) / mean(v**2)**2 - 3."""
    v = increments / float(tau)
    v = v - v.mean()
    return float(np.mean(v**4)) / float(np.mean(v**2)) ** 2 - 3.0


def colored_prices(n: int) -> PriceSeries:
    returns = synth_colored(NonMarkovParams(xi=5.48e-4, eta=5.56e-3, omega=0.02617), n=n, seed=31)
    return PriceSeries.synthetic(100.0, returns.values, 1)


def shifted_increments(series: PriceSeries, tau: int, policy: str) -> np.ndarray:
    """Increments of a gapless one-session series at tau bars."""
    lp = series.log_price()
    return lp[tau:] - lp[:-tau]


class TestEmpiricalKurtosis:
    @pytest.mark.parametrize(
        "make, increments, policy, taus",
        [
            (gapped_series, reference_increments, "intraday-only", [1, 3, 10]),
            (gapped_series, reference_increments, "contiguous", [1, 3, 10]),
            (lambda: colored_prices(100_000), shifted_increments, "contiguous", list(range(5, 101, 5))),
        ],
        ids=["gapped-intraday", "gapped-contiguous", "colored-1e5"],
    )
    def test_within_tolerance_of_pow_formula(self, make, increments, policy, taus):
        # the fourth power is taken as (v^2)^2, not by libm pow: stated
        # tolerance 1e-15 of kappa + 3 (the fourth moment over m2^2)
        series = make()
        res = empirical_kurtosis(series, taus, policy=policy)
        assert res.taus.tolist() == taus
        ref = np.array([pow_kurtosis(increments(series, tau, policy), tau) for tau in taus])
        assert np.all(np.abs(res.kappa - ref) <= 1e-15 * (ref + 3.0))

    def test_gaussian_within_sampling_band(self):
        series = synth_gbm(mu=0.0, sigma=0.01, n=50_000, dt_minutes=1, seed=21)
        res = empirical_kurtosis(series, [1, 5, 10])
        bound = 4.0 * np.sqrt(24.0 / res.counts)
        assert np.all(np.abs(res.kappa) < bound)

    def test_student_t5_iid_returns(self):
        # analytic excess kurtosis 6/(nu-4) = 6; the estimator fluctuates
        # heavily for nu = 5 (its eighth moment diverges), hence the wide band
        rng = np.random.default_rng(22)
        lp = np.concatenate([[0.0], np.cumsum(rng.standard_t(5, size=100_000) * 1e-4)])
        times = SYNTH_START_MINUTE + np.arange(len(lp), dtype=np.int64)
        series = PriceSeries(
            times=times,
            close=np.exp(lp),
            session_idx=np.zeros(len(lp), dtype=np.int64),
            base_minutes=1,
        )
        res = empirical_kurtosis(series, [1])
        assert abs(res.kappa[0] - 6.0) < 3.0

    def test_aggregation_shrinks_kurtosis(self):
        rng = np.random.default_rng(23)
        lp = np.concatenate([[0.0], np.cumsum(rng.standard_t(5, size=200_000) * 1e-4)])
        times = SYNTH_START_MINUTE + np.arange(len(lp), dtype=np.int64)
        series = PriceSeries(
            times=times,
            close=np.exp(lp),
            session_idx=np.zeros(len(lp), dtype=np.int64),
            base_minutes=1,
        )
        res = empirical_kurtosis(series, [1, 20, 80])
        assert res.kappa[0] > res.kappa[1] > abs(res.kappa[2]) - 0.2

    def test_insufficient_samples_omitted(self):
        series = synth_gbm(mu=0.0, sigma=0.01, n=1500, dt_minutes=1, seed=24)
        res = empirical_kurtosis(series, [1, 600])
        assert res.taus.tolist() == [1]
        assert res.omitted[0][0] == 600


def test_price_series_takes_stamps_whose_difference_overflows():
    # 2**62 - (-2**62) wraps to a negative int64, which a check by np.diff took for a decrease
    def series(times):
        return PriceSeries(times=np.array(times), close=np.ones(len(times)), session_idx=np.zeros(len(times)),
                           base_minutes=1)

    assert len(series([-2**62, 2**62])) == 2
    with pytest.raises(DataError, match="strictly increasing"):
        series([2**62, -2**62])


class TestSynthGbm:
    def test_zero_volatility_is_exponential(self):
        series = synth_gbm(mu=1e-4, sigma=0.0, n=100, dt_minutes=1, seed=31)
        lp = np.log(series.close)
        np.testing.assert_allclose(np.diff(lp), 1e-4, rtol=1e-10)

    def test_mean_increment(self):
        mu, sigma, n = 2e-5, 0.01, 100_000
        series = synth_gbm(mu=mu, sigma=sigma, n=n, dt_minutes=1, seed=32)
        inc = np.diff(np.log(series.close))
        target = mu - sigma**2 / 2.0
        assert abs(inc.mean() - target) < 3.0 * sigma / math.sqrt(n)

    def test_bit_reproducibility(self):
        a = synth_gbm(mu=1e-5, sigma=0.01, n=1000, dt_minutes=5, seed=33)
        b = synth_gbm(mu=1e-5, sigma=0.01, n=1000, dt_minutes=5, seed=33)
        np.testing.assert_array_equal(a.close, b.close)
        np.testing.assert_array_equal(a.times, b.times)

    def test_length_floor(self):
        with pytest.raises(ValueError):
            synth_gbm(mu=0.0, sigma=0.01, n=1, dt_minutes=1, seed=1)


class TestMinuteStamps:
    @pytest.mark.parametrize("date", [
        "0001-01-01", "1600-02-28", "1700-02-28", "1899-12-31", "1900-02-28", "1969-12-31", "2000-02-28",
        "2024-02-28", "2100-02-28", "2400-02-28", "9999-12-30",
    ])
    def test_equal_datetime_as_string(self, date):
        # two days of minutes, across Feb 29 in leap years (1600, 2000, 2024,
        # 2400) and across Mar 1 in century years that are not (1700, 1900, 2100)
        start = int(np.datetime64(date, "m").astype(np.int64))
        times = start + np.arange(2 * 1440, dtype=np.int64)
        expected = np.datetime_as_string(times.astype("datetime64[m]"), unit="m")
        np.testing.assert_array_equal(csvio.stamp_bytes(times).view("S16").ravel(), expected.astype("S16"))

    def test_random_minutes_equal_datetime_as_string(self):
        lo, hi = csvio.STAMP_MINUTES
        times = np.random.default_rng(3).integers(lo, hi + 1, 100_000)
        expected = np.datetime_as_string(times.astype("datetime64[m]"), unit="m")
        np.testing.assert_array_equal(csvio.stamp_bytes(times).view("S16").ravel(), expected.astype("S16"))

    @pytest.mark.parametrize("stamp", ["0000-12-31T23:59", "+10000-01-01T00:00"])
    def test_years_outside_four_digits_refused(self, stamp):
        with pytest.raises(ValueError, match="years 1 to 9999"):
            csvio.stamp_bytes(np.array([np.datetime64(stamp, "m").astype(np.int64)]))


class TestSynthColored:
    def test_zero_intensity_is_pure_white_noise(self):
        nm = NonMarkovParams(xi=0.0, eta=5e-3, omega=0.02)
        rs = synth_colored(nm, n=50_000, dt_minutes=1, base_noise=2e-3, seed=41)
        acf = empirical_acf(rs, 40)
        band = 4.0 / math.sqrt(len(rs)) * acf.values[0]
        assert np.all(np.abs(acf.values[1:]) < band)
        assert acf.values[0] == pytest.approx(4e-6, rel=0.05)

    def test_unstable_filter_rejected(self):
        nm = NonMarkovParams(xi=1e-4, eta=0.6, omega=0.0)
        with pytest.raises(ValueError, match="instab"):
            synth_colored(nm, n=10_000, dt_minutes=1, base_noise=1e-3, seed=1)

    def test_sample_count_floor(self, nm_9904):
        with pytest.raises(ValueError, match="decay times"):
            synth_colored(nm_9904, n=100, dt_minutes=5, base_noise=1e-3, seed=1)

    def test_subnormal_eta_is_sample_count_error(self):
        # 10 / (eta * dt) overflows to inf, which math.ceil cannot convert
        with pytest.raises(ValueError, match=r"decay times: need n >= inf"):
            synth_colored(NonMarkovParams(xi=5e-4, eta=1e-320, omega=0.02), n=100)

    def test_bit_reproducibility(self, nm_9904):
        a = synth_colored(nm_9904, n=20_000, dt_minutes=5, base_noise=1e-3, seed=42)
        b = synth_colored(nm_9904, n=20_000, dt_minutes=5, base_noise=1e-3, seed=42)
        np.testing.assert_array_equal(a.values, b.values)

    # block edges of the recurrence: w[1:] of the first n fills sixteen blocks
    # exactly, the second leaves one sample for a seventeenth
    @pytest.mark.parametrize("n", [16 * market._AR_BLOCK + 1, 16 * market._AR_BLOCK + 2, 200_000])
    @pytest.mark.parametrize("seed", [1, 7, 23, 101, 4096])
    def test_equals_lfilter_reference(self, nm_9904, n, seed):
        got = synth_colored(nm_9904, n=n, dt_minutes=5, base_noise=1e-3, seed=seed)
        want = reference_colored(nm_9904, n=n, dt_minutes=5, base_noise=1e-3, seed=seed)
        assert np.array_equal(got.values.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("length", [0, 1, 16 * market._AR_BLOCK, 16 * market._AR_BLOCK + 1])
    @pytest.mark.parametrize("seed", [2, 3, 5, 8, 13])
    def test_recurrence_equals_lfilter(self, length, seed):
        from scipy.signal import lfilter

        rng = np.random.default_rng(seed)
        a = complex(*rng.uniform(-0.7, 0.7, 2))
        v = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        z = complex(*rng.standard_normal(2))
        want = lfilter([1.0], [1.0, -a], v, zi=np.array([z]))[0]
        assert np.array_equal(market._complex_ar1(v, a, z).view(np.float64), want.view(np.float64))

    def test_recurrence_writes_over_its_input(self):
        # a view past the first sample, as synth_colored passes chi[1:], over
        # one full block and one sample
        from scipy.signal import lfilter

        rng = np.random.default_rng(21)
        a, z = complex(0.6, -0.3), complex(0.2, 0.9)
        v = rng.standard_normal(market._AR_BLOCK + 2) + 1j * rng.standard_normal(market._AR_BLOCK + 2)
        head, tail = v[0], v[1:]
        want = lfilter([1.0], [1.0, -a], tail, zi=np.array([z]))[0]
        assert market._complex_ar1(tail, a, z) is tail
        assert np.array_equal(tail.view(np.float64), want.view(np.float64))
        assert v[0] == head


def reference_colored(nm, n, dt_minutes, base_noise, seed):
    """synth_colored's returns with the AR(1) filter run by scipy's lfilter."""
    from scipy.signal import lfilter

    rng = np.random.default_rng(seed)
    dt = float(dt_minutes)
    white = base_noise * rng.standard_normal(n)
    amp2 = math.sqrt(2.0) * nm.xi
    a = complex(math.cos(nm.omega * dt), math.sin(nm.omega * dt)) * math.exp(-nm.eta * dt / 2.0)
    noise_var = amp2 * (1.0 - abs(a) ** 2)
    w = math.sqrt(noise_var / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    chi0 = math.sqrt(amp2 / 2.0) * complex(rng.standard_normal(), rng.standard_normal())
    chi = np.empty(n, dtype=complex)
    chi[0] = chi0
    chi[1:] = lfilter([1.0], [1.0, -a], w[1:], zi=np.array([a * chi0]))[0]
    y = chi.real
    return white + (y * y - amp2 / 2.0)
