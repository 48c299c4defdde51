"""The block formatter against the ``%`` template, and the block readers against their row loops."""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daydrift import analysis, csvio, engine
from daydrift.analysis import ingest_ohlc_csv
from daydrift.csvio import fixed_rows, write_rows
from daydrift.engine import DAILY_CSV_HEADER, read_daily_csv

DECIMALS = (2, 6, 10)


def template(labels, columns, decimals) -> bytes:
    """The reference: each row formatted on its own with ``%``."""
    row = ("%s" + "".join(f",%.{d}f" for d in decimals) + "\n").__mod__
    return "".join(map(row, zip(labels, *(np.asarray(c, dtype=float).tolist() for c in columns)))).encode()


def exact_range(columns, decimals) -> bool:
    """Whether every value is one the fast path formats: ``|x| * 10**d`` below 2**52."""
    return all(abs(x * 10.0**d) < 2.0**52 for c, d in zip(columns, decimals) for x in map(float, c))


def check_block(labels, columns, decimals):
    """``fixed_rows`` gives the template's bytes, or declines exactly the blocks out of its range."""
    got = fixed_rows(list(labels), np.array(columns, dtype=float).reshape(len(decimals), -1), tuple(decimals))
    if exact_range(columns, decimals) and "\n" not in "".join(map(str, labels)):
        assert got == template(labels, columns, decimals)
    else:
        assert got is None
    out = io.BytesIO()
    write_rows(out, labels, [np.asarray(c, dtype=float) for c in columns], tuple(decimals))
    assert out.getvalue() == template(labels, columns, decimals)


def edge_values(d: int) -> list[float]:
    """Halfway decimals and their neighbours, signed zeros, subnormals and the edge of the exact range."""
    halves = [(k + 0.5) / 10**d for k in [*range(-300, 300), 10**d - 1, 7 * 10**d + 3, 2**40 + 1, 2**49 + 7]]
    near = [math.nextafter(x, direction) for x in halves for direction in (-math.inf, math.inf)]
    edge = 2.0**52 / 10**d
    return [*halves, *near, 0.0, -0.0, -1e-12, 1e-12, 5e-324, -5e-324, 2.2e-308, -1.5e-310,
            math.nextafter(edge, 0.0), -math.nextafter(edge, 0.0), 0.5, -0.5, 1.0, 123.456]


class TestFixedRows:
    @pytest.mark.parametrize("d", DECIMALS)
    def test_edge_values_print_as_the_template_prints_them(self, d):
        values = edge_values(d)
        check_block(range(1, len(values) + 1), [values], (d,))
        assert fixed_rows(list(range(len(values))), np.array([values]), (d,)) is not None

    @pytest.mark.parametrize("d", DECIMALS)
    def test_negative_zero_and_tiny_negatives_keep_their_sign(self, d):
        got = fixed_rows([1, 2, 3], np.array([[-0.0, -1e-12, 0.0]]), (d,))
        assert got == f"1,-{0:.{d}f}\n2,-{0:.{d}f}\n3,{0:.{d}f}\n".encode()

    @pytest.mark.parametrize("d", DECIMALS)
    @pytest.mark.parametrize("odd", [math.nan, math.inf, -math.inf, 1e300, -(2.0**52)])
    def test_a_value_out_of_range_sends_its_block_to_the_template(self, d, odd):
        values = [1.5, -2.25, odd, 3.0]
        assert fixed_rows([1, 2, 3, 4], np.array([values]), (d,)) is None
        check_block([1, 2, 3, 4], [values], (d,))

    @pytest.mark.parametrize(
        "labels",
        [
            [1, 22, 333, 4444, 55555, 0, -7],
            ["2024-01-02", "2024-01-03", "2024-01-04"],
            ["día 1", "日", "🙂 x", "", "plain"],
            [1.5, True, None, ("a", 1)],
            np.arange(1, 9),
        ],
        ids=["ints", "iso-dates", "non-ascii", "other-objects", "int-array"],
    )
    def test_labels_print_as_percent_s(self, labels):
        values = np.linspace(-3.0, 3.0, len(labels))
        check_block(labels, [values, values * 1e3], (10, 2))
        names = labels.tolist() if isinstance(labels, np.ndarray) else labels
        assert fixed_rows(names, np.array([values, values * 1e3]), (10, 2)) is not None

    def test_a_label_with_a_newline_goes_to_the_template(self):
        assert fixed_rows(["a\nb", "c"], np.array([[1.0, 2.0]]), (2,)) is None
        check_block(["a\nb", "c"], [[1.0, 2.0]], (2,))

    def test_a_label_that_does_not_encode_fails_as_the_template_does(self):
        with pytest.raises(UnicodeEncodeError) as fast:
            write_rows(io.BytesIO(), ["ok", "\udc80"], [np.array([1.0, 2.0])], (2,))
        with pytest.raises(UnicodeEncodeError) as reference:
            template(["ok", "\udc80"], [[1.0, 2.0]], (2,))
        assert str(fast.value) == str(reference.value)

    @given(
        st.lists(st.sampled_from(DECIMALS), min_size=1, max_size=4).flatmap(
            lambda decimals: st.tuples(
                st.just(tuple(decimals)),
                st.integers(1, 30).flatmap(
                    lambda n: st.tuples(
                        *(
                            st.lists(
                                st.one_of(
                                    st.floats(-(2.0**52) / 10**d, 2.0**52 / 10**d),
                                    st.floats(-1e3, 1e3),
                                    st.floats(allow_nan=True, allow_infinity=True),
                                ),
                                min_size=n,
                                max_size=n,
                            )
                            for d in decimals
                        )
                    )
                ),
            )
        )
    )
    @example(((10, 6, 2), ([0.125, -0.0], [2.5e-7, -1e-12], [0.005, 1.005])))
    @settings(max_examples=300, deadline=None)
    def test_random_blocks_match_the_template(self, block):
        decimals, columns = block
        check_block(list(range(len(columns[0]))), list(columns), decimals)

    def test_blocks_out_of_range_and_in_range_mix_across_block_edges(self, monkeypatch):
        monkeypatch.setattr(csvio, "BLOCK_ROWS", 3)
        values = [0.5, -1.25, math.nan, 2.0, 1e300, -3.0, 4.0, 5.0, 6.5, -0.0]
        for d in DECIMALS:
            check_block(range(len(values)), [values, values[::-1]], (d, 2))


OHLC_HEADER = "date,open,close\n"
GOOD = [f"2024-01-{day:02d},1{day:02d}.5,2{day:02d}.25\n" for day in range(2, 12)]

# each special line is put in place of the good line at a position; "{d}" is that line's date
SPECIAL_OHLC = {
    "blank": "\n",
    "whitespace-row": "   ,  ,  \n",
    "short-blank-row": " , \n",
    "quoted": '"{d}","100","101"\n',
    "quoted-newline": '"{d}",100,"1\n01"\n',
    "crlf": "{d},100,101\r\n",
    "extra-column": "{d},100,101,extra\n",
    "long-then-short": "{d},100,101,2024-01-31\n105,106\n",
    "short-row": "{d},101\n",
    "empty-date": ",101,102\n",
    "blank-date": "  ,101,102\n",
    "bad-date": "2024-13-01,101,102\n",
    "repeated-date": "2024-01-02,101,102\n",
    "bad-price": "{d},1o1,102\n",
    "quoted-comma": '"{d}","1,01",102\n',
    "nan": "{d},nan,102\n",
    "inf": "{d},101,inf\n",
    "minus-inf": "{d},101,-inf\n",
    "zero": "{d},0,102\n",
    "no-final-newline": "{d},100,101",
}


def outcome(read, path):
    """What reading ``path`` gives: its values bit for bit, or its error's type and text."""
    try:
        result = read(path)
    except Exception as exc:  # the type and text are what is compared
        return type(exc).__name__, str(exc)
    if isinstance(result, analysis.PriceSeries):
        return result.days, *(a.tobytes() for a in (result.prev_close, result.open, result.close))
    return [tuple(map(repr, (r.day, r.prev_close, r.open, r.close, r.total_cost, r.mtm_gain, r.net_pnl)))
            for r in result]


def placed(lines: list[str], at: int, special: str) -> str:
    """``lines`` with line ``at`` replaced by ``special`` (appended after them when ``at`` is their length)."""
    date = lines[at][:10] if at < len(lines) else "2024-01-30"
    return "".join(lines[:at]) + special.replace("{d}", date) + "".join(lines[at + 1 :])


def compare_to_the_row_loop(monkeypatch, tmp_path, module, read, header, lines, special, width):
    path = tmp_path / "input.csv"
    for at in range(len(lines) + 1):
        path.write_bytes((header + placed(lines, at, special)).encode())
        with monkeypatch.context() as m:
            m.setattr(module, "split_cells", lambda lines, fields: None)
            reference = outcome(read, path)
        # one line a block, three lines a block (the special line first, in the middle, last
        # or across an edge), and the real hint
        for hint in (1, 3 * width - 1, csvio.BLOCK_CHARS):
            with monkeypatch.context() as m:
                m.setattr(csvio, "BLOCK_CHARS", hint)
                assert outcome(read, path) == reference, (at, hint)


class TestBlockReaders:
    @pytest.mark.parametrize("special", SPECIAL_OHLC.values(), ids=SPECIAL_OHLC.keys())
    def test_ohlc_blocks_read_as_the_row_loop_reads(self, monkeypatch, tmp_path, special):
        compare_to_the_row_loop(monkeypatch, tmp_path, analysis, ingest_ohlc_csv, OHLC_HEADER, GOOD, special,
                                len(GOOD[0]))

    @pytest.mark.parametrize("kind", ["ohlc", "daily"])
    def test_plain_lines_take_the_block_path(self, monkeypatch, tmp_path, kind):
        module, name, read, header, lines = {
            "ohlc": (analysis, "_ohlc_block", ingest_ohlc_csv, OHLC_HEADER, GOOD),
            "daily": (engine, "_daily_block", read_daily_csv, DAILY_CSV_HEADER + "\n", self.DAILY),
        }[kind]
        path = tmp_path / "input.csv"
        path.write_text(header + "".join(lines))
        taken = []
        block = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: taken.append(block(*args)) or taken[-1])
        monkeypatch.setattr(csvio, "BLOCK_CHARS", 3 * len(lines[0]) - 1)  # readlines stops past the hint
        read(path)
        assert len(taken) == 4 and None not in taken

    DAILY = [f"{day},100.{day:06d},100.5,101.25,0.0050000000,0.0074626866,10000.00,-5.00,-10005.00\n"
             for day in range(1, 11)]
    SPECIAL_DAILY = {
        "blank": "\n",
        "whitespace": "   \n",
        "crlf": DAILY[0].replace("\n", "\r\n"),
        "extra-column": DAILY[0].replace("\n", ",7\n"),
        "long-then-short": DAILY[0].replace("\n", ",3\n") + DAILY[0].split(",", 1)[1],
        "short-row": "2,100.0,100.0,100.0\n",
        "bad-float": DAILY[0].replace("-5.00", "-5abc"),
        "bad-day": "2.0" + DAILY[0][1:],
        "quoted": DAILY[0].replace("100.5", '"100.5"'),
        "no-final-newline": DAILY[0].rstrip("\n"),
    }

    @pytest.mark.parametrize("special", SPECIAL_DAILY.values(), ids=SPECIAL_DAILY.keys())
    def test_daily_blocks_read_as_the_row_loop_reads(self, monkeypatch, tmp_path, special):
        compare_to_the_row_loop(monkeypatch, tmp_path, engine, read_daily_csv, DAILY_CSV_HEADER + "\n", self.DAILY,
                                special, len(self.DAILY[0]))
