"""The base module: the symbol convention, exact probability tables over
length-L strings of +1/-1 symbols, the text renderers (floats, CSV rows,
symbol lines) and the one rule for integer arguments (:func:`check_integer`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FutureDistribution",
    "entropy_bits",
    "symbols_to_line",
    "format_float",
    "csv_rows",
]

# Symbol convention used throughout the package: index 0 <-> spin +1 <-> '+',
# index 1 <-> spin -1 <-> '-'.
SYMBOL_CHARS = "+-"


def symbol_string(index: int, length: int) -> str:
    """Render the index of a length-``length`` string, top bit first, as symbols: '+-+'."""
    return "".join(SYMBOL_CHARS[int(b)] for b in format(index, f"0{length}b"))


def check_integer(value, lo: int, hi: int | None, message: str) -> None:
    """Pass a Python or numpy integer, not a bool, in ``[lo, hi]`` (``hi=None``: no
    upper bound); else raise ``ValueError(message.format(hi=hi, value=value))``."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi)):
        raise ValueError(message.format(hi=hi, value=value))


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering (round-trips float64 exactly)."""
    return f"{x:.17g}"


# csv_rows renders every cell, however few, as format_float's text in six
# uint64 words; the text is their little-endian bytes with the NULs dropped:
#   word 0     sign, and the "0." to "0.000" head of fixed notation below 1
#   words 1-4  digits 1-16, each followed by a point byte; one mask, keyed by
#              (digits before the point, digits up to the last nonzero one),
#              keeps the point after the integer digits and clears the other
#              point bytes and the zeros that end the fraction
#   word 5     digit 17, the "e+XX" suffix and, in its top byte, the CSV separator
# The digits are round(|x| * 10**(16 - X)) for X = floor(log10|x|), the
# product a double-double within 1e-14 of exact (Dekker's split).  Values the
# error window cannot settle take the exact scalar route: NaN, inf, |x|
# outside [1e-270, 1e270] (where the split or the power table would overflow
# or go subnormal), a fraction within 1e-6 of one half, and a decade that one
# correction of log10's guess does not settle.  This is the approximate path
# proven by an error window of Loitsch, "Printing floating-point numbers
# quickly and accurately with integers" (PLDI 2010).
_SPLIT = 134217729.0  # 2**27 + 1
_K0, _K1 = 256, 290  # the power table holds 10**k for -_K0 <= k < _K1
_X0 = _K1 - 17  # tables by decade X take X + _X0, for each X whose 10**(16 - X) is held
_FAST = (1e-270, 1e270)
_TIE_EDGE = 0.5 - 1e-6  # a digit fraction this large, near a tie, takes the exact route
_U = np.uint64
_COMMA = np.array([0, 0, 0, 0, 0, ord(",") << 56], _U)  # a cell's separator: a row ends in "\n"


def _words(texts) -> np.ndarray:
    """ASCII strings of at most 8 bytes as little-endian uint64 words."""
    return np.array([int.from_bytes(t.encode().ljust(8, b"\0"), "little") for t in texts], _U)


@functools.cache
def _tables() -> dict:
    """Lookup tables of the array formatter, built on first use from integers."""
    ph, pl = np.empty(_K0 + _K1), np.empty(_K0 + _K1)
    p = 1
    for k in range(_K1):  # exact integers; int -> float rounds correctly
        ph[_K0 + k] = hi = float(p)
        pl[_K0 + k] = float(p - int(hi))
        p *= 10
    p = 1
    for k in range(1, _K0 + 1):  # int / int rounds correctly too
        p *= 10
        ph[_K0 - k] = hi = 1 / p
        num, den = hi.as_integer_ratio()
        pl[_K0 - k] = (den - num * p) / (den * p)
    t = ph * _SPLIT
    bh = t - (t - ph)
    q = np.arange(10_000)
    zeros = sum(q % 10**i == 0 for i in (1, 2, 3, 4))  # trailing zeros; 4 for 0000
    decades = [(X, -4 <= X < 17) for X in range(-_X0, _K0 + 17)]  # (X, fixed notation)
    lead, n, b = np.arange(18)[:, None, None], np.arange(18)[None, :, None], np.arange(40)
    length = np.maximum(n, lead)  # digits shown
    point = np.where(lead < length, lead, 0)  # digits before the point; 0: no point
    keep = np.where(b % 2 == 0, b // 2 < length, b // 2 + 1 == point) | (b > 32)
    keep = keep.reshape(-1, 5, 8).astype(_U) * _U(0xFF) << _U(8) * np.arange(8, dtype=_U)
    return {
        "powers": [row[::-1].copy() for row in (ph, bh, ph - bh, pl)],  # by X: 10**(16 - X)
        # "d.d.d.d." of 0000..9999
        "digits": sum((q // 10 ** (3 - i) % 10 + 48).astype(_U) << _U(16 * i) for i in range(4))
                  | _U(0x2E002E002E002E00),
        # by 4-digit group at offset 0, 4, 8 or 12 of the 17 digits: the end of its
        # last nonzero digit (0 for 0000); offset 13 serves the 17th digit alone
        "ends": np.stack([np.where(q > 0, at + 4 - zeros, 0) for at in (0, 4, 8, 12, 13)]),
        "heads": _words(s + ("0." + "0" * (-X - 1) if fixed and X < 0 else "")
                        for s in ("", "-") for X, fixed in decades),
        "tails": _words("" if fixed else "e%+03d" % X for X, fixed in decades) << _U(8)
                 | _COMMA[5],
        "leads": np.array([18 * (max(X + 1, 0) if fixed else 1) for X, fixed in decades]),
        "masks": np.bitwise_or.reduce(keep, axis=2).T.copy(),  # words 1-5 by 18 * lead + n
    }


def _scaled(a, i, powers):
    """``a * 10**(16 - X)`` as a double-double (hi, lo), for ``i = X + _X0``; in place
    where it can be, as a product's temporaries cost page faults at this size."""
    ph, bh, bl, pl = powers
    p = ph.take(i)
    p *= a
    ah = a * _SPLIT
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    b, c = bh.take(i), bl.take(i)
    tail = ah * b
    tail -= p
    tail += np.multiply(ah, c, out=ah)
    tail += np.multiply(al, b, out=b)
    tail += np.multiply(al, c, out=c)
    tail += np.multiply(a, pl.take(i), out=c)
    hi = np.add(p, tail, out=ah)
    tail -= np.subtract(hi, p, out=p)
    return hi, tail


def _decade(hi, lo):
    """-1, 0 or +1 where hi + lo lies below, in or above [1e16, 1e17).  Each difference
    is exact where the sign of the sum could turn on lo, and rounding keeps that sign."""
    return ((hi - 1e17) + lo >= 0).astype(np.int64) - ((hi - 1e16) + lo < 0)


def _exact(x) -> np.ndarray:
    """``format_float`` of every value, one call each, as rows of six words."""
    texts = [format_float(v) for v in x.tolist()]
    return np.array(texts, "S48").view("<u8").reshape(-1, 6)


def _digits(x, tab):
    """(17 digits of ``|x|`` as int64, decade X + _X0, cells the error window settles);
    every other cell has the digits of a stand-in 1."""
    a = np.abs(x)
    fast = (a >= _FAST[0]) & (a <= _FAST[1])
    a[~fast] = 1.0
    i = (np.floor(np.log10(a)) + _X0).astype(np.int64)
    hi, lo = _scaled(a, i, tab["powers"])
    off = _decade(hi, lo)
    if off.any():  # log10 missed the decade: move once, fall back if still off
        i += off
        hi, lo = _scaled(a, i, tab["powers"])
        fast &= _decade(hi, lo) == 0
    r = np.rint(lo)  # halves are inside the window below
    fast &= np.abs(lo - r) < _TIE_EDGE
    d = hi.astype(np.int64)
    d += r.astype(np.int64)
    top = d == 10**17  # rounded up a decade
    if top.any():
        d[top] = 10**16
        i += top
    return d, i, fast


def _layout(out, d, i, tab):
    """Words 1-5 of ``out``: the digits ``d`` (consumed) of decade ``i`` and its suffix."""
    groups = []
    for k in (13, 9, 5, 1):  # four groups of four digits; d keeps the 17th
        groups.append(d // 10**k)
        d -= groups[-1] * 10**k
    ends, masks = tab["ends"], tab["masks"]
    key = ends[4].take(d)
    for row, g in enumerate(groups):
        np.maximum(key, ends[row].take(g), out=key)
    key += tab["leads"].take(i)
    for k, g in enumerate(groups):
        np.bitwise_and(tab["digits"].take(g), masks[k].take(key), out=out[:, 1 + k])
    np.bitwise_and((d + 48).view(_U) | tab["tails"].take(i), masks[4].take(key), out=out[:, 5])


def _render(table, blank) -> np.ndarray:
    """The CSV text of a 2-D ``table``, six words (see above) a cell: ``format_float(x)``
    and a separator.  Cells at the flat indices ``blank`` are left empty, unformatted."""
    x = table.reshape(-1)
    tab = _tables()
    d, i, fast = _digits(x, tab)
    out = np.empty((len(x), 6), _U)
    out[:, 0] = tab["heads"].take(i + (_K0 + _K1) * np.signbit(x))  # by sign, then decade
    _layout(out, d, i, tab)
    zero = x == 0
    out[zero, 1] = 48  # a = 1 stood in: one digit, no point
    slow = ~(fast | zero)
    slow[blank] = False
    out[blank] = _COMMA
    if slow.any():
        out[slow] = _exact(x[slow]) | _COMMA
    out.reshape(*table.shape, 6)[:, -1, 5] ^= _U((ord(",") ^ ord("\n")) << 56)
    return out.astype("<u8", copy=False)


def csv_rows(table, blank=None) -> str:
    """Rows of a 2-D float table as CSV text, each line ending in a newline.

    Every cell is ``format_float`` of its value; cells where the boolean
    array ``blank`` (the table's shape) is True are left empty.  A table with
    no columns, or a ``blank`` of another shape, raises ValueError.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2:
        raise ValueError(f"csv_rows needs a 2-D table, got shape {table.shape}")
    if not table.shape[1]:
        raise ValueError(f"csv_rows needs at least one column, got shape {table.shape}")
    blank = np.zeros(table.shape, bool) if blank is None else np.asarray(blank, dtype=bool)
    if blank.shape != table.shape:
        raise ValueError(f"csv_rows needs a blank mask of the table's shape {table.shape}, "
                         f"got shape {blank.shape}")
    text = _render(table, np.flatnonzero(blank)).tobytes()  # the words die here
    return text.translate(None, b"\0").decode("ascii")


def entropy_bits(weights) -> float:
    """Shannon entropy in bits with the 0*log(0) = 0 convention.

    Tiny negative round-off in eigenvalue input is clipped to zero; a NaN
    weight is kept, so the result is NaN.
    """
    w = np.clip(np.asarray(weights, dtype=float), 0.0, 1.0)
    nz = w[~(w <= 0.0)]
    return float(-np.sum(nz * np.log2(nz))) + 0.0  # avoid -0.0 for pure cases


def binary_entropy_bits(x):
    """Entropy in bits of (x, 1 - x) for x <= 1/2, broadcasting over arrays.

    log1p keeps full relative precision as x -> 0, where the rounded 1 - x
    would swamp the result.  Tiny negative round-off in x is clipped to zero.
    """
    x = np.maximum(x, 0.0)
    logs = np.log2(np.where(x > 0.0, x, 1.0))
    return -(x * logs + (1.0 - x) * np.log1p(-x) / np.log(2.0)) + 0.0  # no -0.0


def symbols_to_line(symbols) -> str:
    """Render a +1/-1 symbol sequence (``+1`` for s > 0) as one text line."""
    positive = np.asarray(symbols).reshape(-1) > 0
    tokens = np.empty((len(positive), 3), np.uint8)  # "+1 " or "-1 ", in uint8 arithmetic
    tokens[:, 0] = 45 - 2 * positive.view(np.uint8)
    tokens[:, 1] = 49
    tokens[:, 2] = 32
    return tokens.tobytes()[:-1].decode("ascii")


@dataclass(frozen=True, eq=False)
class FutureDistribution:
    """Probability table over the 2**length strings of +1/-1 symbols.

    Table index encodes the string most-significant-bit first: bit k of the
    index (counting down from the top) is the symbol index of step k+1, so
    index 0 is the all-(+1) string and index 2**length - 1 is all-(-1).
    ``probs`` may carry leading axes, one table per stacked draw, with the
    string index last.
    """

    length: int
    probs: np.ndarray

    def __post_init__(self):
        check_integer(self.length, 0, None, "length must be >= 0, got {value}")
        if self.probs.shape[-1:] != (2**self.length,):
            raise ValueError(
                f"expected {2**self.length} entries for length {self.length}, "
                f"got shape {self.probs.shape}"
            )
