"""CSV a block at a time: exact fixed-point rows out, plain lines split in.

``write_rows`` writes rows of a label and float columns, each printed as
``'%.{d}f'`` prints it, ``BLOCK_ROWS`` rows at a time.  ``fixed_rows``
formats a block with numpy: ``x * 10**d`` rounded exactly (Dekker's
product over Veltkamp's halves decides the ties), its digits read four at
a time from a table of words, and the bytes of a row's layout that a
number does not use dropped at the end.  A block it declines (a value
out of its exact range, nan or inf, a label holding a newline) is
formatted with the ``%`` template, which stays the reference.

The readers take a file's lines a block at a time (``read_plain``).  A
block whose lines are all plain (``split_cells``) is split once and
converted a column at a time by the reader; from the first block that is
not plain or does not convert, each reader goes line by line, and its row
loop is the one definition of what it accepts and of every error it raises.
"""

from __future__ import annotations

import csv
import itertools
from collections.abc import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BLOCK_ROWS = 1024  # rows formatted, joined and written at a time
BLOCK_CHARS = 1 << 13  # readlines' hint; on 60k OHLC rows 8K peaked 1.2 MiB below 16K and 32K in RSS
_PAD = 0xFF  # no byte of UTF-8 text: pads the bytes of a block's row layout that a row does not use
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter for float64


def _word_table() -> np.ndarray:
    """4-byte words, each one piece of a printed number, indexed as ``_LEAD``, ``_DOT`` and ``_BLANK`` say.

    Entry ``g < 10**4`` is ``g`` in four digits; ``_LEAD + g`` is the same
    with its leading zeros but the last as ``_PAD``; ``_DOT + (10**r - 1)
    // 9 + g``, for ``g < 10**r``, is a point and ``g`` in ``r`` digits;
    then come a blank word, ``','``, ``',-'`` and a newline.
    """
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)  # digits[a, b, c, d] is "abcd", built without temporaries
    for place in range(4):
        digits[..., place] = np.frombuffer(b"0123456789", np.uint8).reshape((10,) + (1,) * (3 - place))
    lead = digits.copy()
    lead[0, ..., 0] = lead[0, 0, ..., 1] = lead[0, 0, 0, :, 2] = _PAD
    digits, lead = digits.reshape(10_000, 4), lead.reshape(10_000, 4)
    dots = [np.full((10**r, 4), _PAD, np.uint8) for r in range(4)]
    for r, dot in enumerate(dots):
        dot[:, 3 - r] = ord(".")
        dot[:, 4 - r :] = digits[: 10**r, 4 - r :]
    ends = np.frombuffer(b"\xff\xff\xff\xff,\xff\xff\xff,-\xff\xff\n\xff\xff\xff", np.uint8).reshape(4, 4)
    return np.concatenate([digits, lead, *dots, ends]).view(np.uint32).ravel()


_WORDS = _word_table()
_LEAD, _DOT, _BLANK = 10_000, 20_000, 21_111
_SEP = _BLANK + 1  # ',' at _SEP, ',-' at _SEP + 1, the newline at _SEP + 2


def _label_words(labels: list) -> np.ndarray | None:
    """The UTF-8 bytes of ``'%s' % label`` for each label as a column of 4-byte words, ``_PAD`` past its end.

    None when a label holds a newline or does not encode.
    """
    try:
        text = "\n".join(labels if set(map(type, labels)) == {str} else map(str, labels)) + "\n"
        data = np.frombuffer(text.encode(), np.uint8)
    except UnicodeEncodeError:
        return None
    ends = np.flatnonzero(data == ord("\n"))
    if len(ends) != len(labels):
        return None
    lens = np.diff(ends, prepend=-1) - 1
    out = np.full((len(labels), -(-lens.max() // 4) * 4), _PAD, np.uint8)
    if lens.min() == lens.max():  # one length, as ISO dates have: the lines are the rows
        out[:, : lens[0]] = data.reshape(len(labels), -1)[:, :-1]
    else:
        rows = sliding_window_view(np.concatenate([data, out[0]]), out.shape[1])[ends - lens]
        np.copyto(out, rows, where=np.arange(out.shape[1]) < lens[:, None])
    return out.view(np.uint32).T


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of float64 ``x`` into high and low parts that sum to ``x`` and multiply exactly."""
    t = _SPLIT * x
    high = t - (t - x)
    return high, x - high


def _groups(values: np.ndarray, places: np.ndarray) -> np.ndarray:
    """Base-10**4 digits of the integral float ``values`` at ``places``, most significant first, as ``intp``.

    The shape is ``(len(places), *values.shape)``.  ``floor(values / place)``
    is exact below 2**52: the quotient is at least ``1 / place`` short of
    the next integer, more than its rounding can move it.
    """
    groups = np.empty((len(places), *values.shape), np.intp)
    for group, place in zip(groups, places):
        np.floor(values / place, out=group, casting="unsafe")
    groups[1:] -= groups[:-1] * 10_000
    return groups


def _digit_words(x: np.ndarray, decimals: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``_WORDS`` indexes of the whole part and of the point and decimals of ``'%.{d}f' % value`` for ``x``.

    ``x`` holds a row of values per entry of ``decimals``; each result is
    ``(words, *x.shape)``.  ``x * 10**d`` is split exactly into ``p + e``
    (Dekker's product of Veltkamp's halves); ``rint(p)`` rounds half to
    even, and where ``p`` is halfway ``e`` decides, so the digits are those
    of the exact product rounded half to even, as ``%`` prints them,
    whenever ``|x| * 10**d < 2**52``; None if a value is not.
    """
    scale = np.array([[10.0**d] for d in decimals])
    with np.errstate(over="ignore"):  # a product that overflows is out of range
        p = x * scale
    if not np.abs(p).max() < 2.0**52:
        return None
    q = np.rint(p)
    if (ties := np.abs(p - q) == 0.5).any():  # the exact product is on e's side of the halfway p
        (xh, xl), (sh, sl) = _halves(x[ties]), _halves(np.broadcast_to(scale, x.shape)[ties])
        e = ((xh * sh - p[ties]) + xh * sl + xl * sh) + xl * sl
        gap = p[ties] - q[ties]
        q[ties] += 2 * gap * (e * gap > 0)
    frac = np.abs(q, out=q)
    whole = np.floor(frac / scale)
    frac -= whole * scale
    # the whole part in groups of four digits, the leading group without
    # leading zeros and the groups before it blank; then the point with the
    # first d % 4 decimals (blank words before it), then groups of four
    places = np.array([1e4**i for i in range(-(-len(str(int(whole.max()))) // 4) - 1, -1, -1)])[:, None, None]
    whole_words = _groups(whole, places)
    whole_words += np.where(whole < places * 1e4, _LEAD, 0)
    whole_words[:-1] = np.where(whole < places[:-1], _BLANK, whole_words[:-1])
    tops = range(max(decimals) // 4, -1, -1)
    frac_words = _groups(frac, np.array([1e4**i for i in tops])[:, None, None])
    frac_words += np.array([[[0 if i < d // 4 else _DOT + (10 ** (d % 4) - 1) // 9 if i == d // 4 else _BLANK]
                             for d in decimals] for i in tops])
    return whole_words, frac_words


def _number_words(x: np.ndarray, decimals: tuple[int, ...], head: int) -> np.ndarray | None:
    """Rows of words: ``head`` rows left to the caller, then ``',%.{d}f' % value`` for ``x``'s values, then newlines.

    One row per word and one column per value of ``x``'s rows (a column of
    a CSV block); None if a value is out of ``_digit_words``' range.
    """
    if (digits := _digit_words(x, decimals)) is None:
        return None
    whole_words, frac_words = digits
    span = 1 + len(whole_words) + len(frac_words)
    words = np.empty((head + x.shape[0] * span + 1, x.shape[1]), np.uint32)
    numbers = words[head:-1].reshape(x.shape[0], span, x.shape[1])
    numbers[:, 0] = _WORDS[_SEP + np.signbit(x)]
    np.take(_WORDS, whole_words, out=numbers[:, 1 : 1 + len(whole_words)].transpose(1, 0, 2), mode="clip")
    np.take(_WORDS, frac_words, out=numbers[:, 1 + len(whole_words) :].transpose(1, 0, 2), mode="clip")
    words[-1] = _WORDS[_SEP + 2]
    return words


def fixed_rows(labels: list, x: np.ndarray, decimals: tuple[int, ...]) -> bytes | None:
    """The UTF-8 bytes of one row per label: ``'%s' % label``, then ``',%.{d}f' % value`` per column, or None.

    ``x`` holds one float64 row per column (``decimals``, each at least 1)
    and one column per label.  The words of the labels and the numbers
    (``_label_words``, ``_number_words``) are laid out a row per word,
    transposed, and their ``_PAD`` bytes dropped.  None when a value is nan,
    inf or too large to be exact, or a label holds a newline.
    """
    if (label_words := _label_words(labels)) is None or (words := _number_words(x, decimals, len(label_words))) is None:
        return None
    words[: len(label_words)] = label_words
    return words.T.tobytes().translate(None, bytes([_PAD]))


def write_rows(fh, labels, columns: list, decimals: tuple[int, ...]) -> None:
    """Write to binary ``fh`` one row per label: ``'%s' % label``, then column ``j`` as ``',%.{decimals[j]}f'``.

    ``BLOCK_ROWS`` rows at a time, so memory stays flat in the number of
    rows.  ``fixed_rows`` formats each block, or the ``%`` template where
    it declines one; the bytes are the template's either way.
    """
    template = ("%s" + "".join(f",%.{d}f" for d in decimals) + "\n").__mod__
    for start in range(0, len(labels), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        names = labels[block].tolist() if isinstance(labels, np.ndarray) else labels[block]
        x = np.array([column[block] for column in columns], dtype=float)
        fh.write(fixed_rows(names, x, decimals) or "".join(map(template, zip(names, *x.tolist()))).encode())


def split_cells(lines: list[str], fields: int) -> list[str] | None:
    """The cells of a block of lines, row after row, or None unless every line is plain.

    A plain line ends in a newline, holds ``fields - 1`` commas (counted
    line by line: a long row can hide a short one in a total) and no quote
    or carriage return, and is no longer than ``csv.reader`` takes a field
    to be, so splitting it at its commas gives the cells ``csv.reader``
    gives.
    """
    text = "".join(lines)
    if '"' in text or "\r" in text or not text.endswith("\n"):
        return None
    if len(text) > (limit := csv.field_size_limit()) and max(map(len, lines)) > limit:
        return None
    if list(map(str.count, lines, itertools.repeat(","))).count(fields - 1) != len(lines):
        return None
    cells = text.replace("\n", ",").split(",")
    cells.pop()  # after the last newline
    return cells


def read_plain(fh, fields: int, convert, columns: list) -> tuple[int, Iterator[str]]:
    """Extend ``columns`` from text file ``fh``'s plain lines, ``BLOCK_CHARS`` characters' worth at a time.

    Each plain block (``split_cells``) is split once into its cells, and
    ``convert(cells)`` gives one list per column to append, or None to
    decline the block.  At the first block that is not plain or that
    ``convert`` declines, or at the end of the file, the result is the
    number of lines appended and the lines left for the caller's row loop,
    that block's first.
    """
    read = 0
    while lines := fh.readlines(BLOCK_CHARS):
        if (cells := split_cells(lines, fields)) is None or (block := convert(cells)) is None:
            break
        for column, values in zip(columns, block):
            column += values
        read += len(lines)
    return read, itertools.chain(lines, fh)


def undecodable(path) -> ValueError:
    """The error for a file that is not UTF-8 text: its path, and the first line and byte that do not decode."""
    with open(path, "r", encoding="latin-1", newline="") as fh:  # a character a byte, lines cut as the readers cut them
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as exc:
                return ValueError(
                    f"{path}: not UTF-8 text: line {lineno}, byte {exc.start + 1} (0x{ord(line[exc.start]):02x})"
                )
    return ValueError(f"{path}: not UTF-8 text")
