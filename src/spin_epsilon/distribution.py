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


# csv_rows renders every cell, however few, as format_float's text in five
# uint64 words; the text is their little-endian bytes with the NULs dropped:
#   word 0     sign, and the "0." to "0.000" head of fixed notation below 1
#   words 1-3  the 17 digits, the point let in, zeros past the point cleared
#   word 4     the "e+XX" suffix; its top byte is left for a CSV separator
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
_FAST = (1e-270, 1e270)
_TIE_WINDOW = 1e-6
_U = np.uint64


def _words(texts) -> np.ndarray:
    """ASCII strings of at most 8 bytes as little-endian uint64 words."""
    return np.array([int.from_bytes(t.encode().ljust(8, b"\0"), "little") for t in texts], _U)


def _byte_masks(cond) -> np.ndarray:
    """(rows, 24) bools as (3, rows) words: 0xff in each byte where True."""
    bytes_ = cond.reshape(-1, 3, 8).astype(_U) * _U(0xFF) << _U(8) * np.arange(8, dtype=_U)
    return np.bitwise_or.reduce(bytes_, axis=2).T.copy()


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
    quads = sum((q // 10 ** (3 - i) % 10 + 48).astype(_U) << _U(8 * i) for i in range(4))
    j = np.arange(24)
    point, length = np.arange(25)[:, None, None], np.arange(19)[None, :, None]
    return {
        "powers": np.stack([ph, bh, ph - bh, pl]),
        "quads": quads,  # ASCII of 0000..9999
        "zeros": sum(q % 10**i == 0 for i in (1, 2, 3, 4)),  # trailing zeros; 4 for 0000
        "heads": _words(s + z for z in ("", "0.", "0.0", "0.00", "0.000") for s in ("", "-")),
        "tails": np.append(_words("e%+03d" % e for e in range(-300, 301)), _U(0)),
        # by (point position, text length): digit bytes kept in place, and
        # those moved up one byte to let the point in
        "keep": _byte_masks((j < np.minimum(point, length)).reshape(-1, 24)),
        "move": _byte_masks(((j > point) & (j < length)).reshape(-1, 24)),
        "dots": _byte_masks(j == np.arange(25)[:, None]) & _U(0x2E2E2E2E2E2E2E2E),
    }


def _scaled(a, X, powers):
    """``a * 10**(16 - X)`` as a double-double (hi, lo)."""
    ph, bh, bl, pl = powers.take(_K0 + 16 - X, axis=1)
    p = a * ph
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    tail = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * pl
    hi = p + tail
    return hi, tail - (hi - p)


def _decade(hi, lo):
    """-1, 0 or +1 where hi + lo lies below, in or above [1e16, 1e17)."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.int64) - below


def _exact(x) -> np.ndarray:
    """``'%.17g' % x`` of every value, one call each, as rows of five words."""
    texts = ["%.17g" % v for v in x.tolist()]
    return np.array(texts, "S40").view("<u8").reshape(-1, 5)


def _render(values, blank=None) -> np.ndarray:
    """``'%.17g' % x`` of every value, as one row of five words (see above) each.
    Cells where the boolean array ``blank`` is True skip the exact route: the caller clears them."""
    x = np.asarray(values, dtype=float).reshape(-1)
    tab = _tables()
    a = np.abs(x)
    fast = (a >= _FAST[0]) & (a <= _FAST[1])
    a[~fast] = 1.0
    X = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, X, tab["powers"])
    off = _decade(hi, lo)
    if off.any():  # log10 missed the decade: move once, fall back if still off
        X += off
        hi, lo = _scaled(a, X, tab["powers"])
        fast &= _decade(hi, lo) == 0
    r = np.rint(lo)  # halves are inside the window below
    fast &= np.abs(np.abs(lo - r) - 0.5) > _TIE_WINDOW
    d = hi.astype(np.int64) + r.astype(np.int64)
    top = d == 10**17  # rounded up a decade
    d[top] = 10**16
    X += top
    head, tail = d // 10**9, d % 10**9
    groups = head // 10**4, head % 10**4, tail // 10**5, tail % 10**5 // 10
    last = tail % 10
    quads = [tab["quads"].take(g) for g in groups]
    digits = [quads[0] | quads[1] << _U(32), quads[2] | quads[3] << _U(32),
              last.astype(_U) + _U(48)]
    zeros = (last == 0).astype(np.int64)  # trailing zero digits
    run = zeros == 1
    for g in groups[::-1]:
        zeros += run * tab["zeros"].take(g)
        run &= g == 0
    fixed = (X >= -4) & (X < 17)
    lead = np.where(fixed, X + 1, 1)  # digits before the point
    length = np.maximum(17 - zeros, lead)
    point = np.where((lead >= 1) & (lead < length), lead, 24)  # 24: no point
    key = point * 19 + length + (point < 24)  # row for (point, length of the text)
    out = np.empty((len(x), 5), _U)
    out[:, 0] = tab["heads"].take(np.signbit(x) + 2 * np.where(fixed & (X < 0), -X, 0))
    carry = _U(0)
    for k, w in enumerate(digits):
        moved = (w << _U(8) | carry) & tab["move"][k].take(key)
        out[:, 1 + k] = (w & tab["keep"][k].take(key)) | moved | tab["dots"][k].take(point)
        carry = w >> _U(56)
    out[:, 4] = tab["tails"].take(np.where(fixed, 601, X + 300))
    zero = x == 0
    out[zero, 1] = 48  # a = 1 stood in: one digit, no point
    slow = ~(fast | zero)
    if blank is not None and slow.any():
        slow &= ~np.asarray(blank, dtype=bool).reshape(-1)
    if slow.any():
        out[slow] = _exact(x[slow])
    return out


def csv_rows(table, blank=None) -> str:
    """Rows of a 2-D float table as CSV text, each line ending in a newline.

    Every cell is ``format_float`` of its value; cells where the boolean
    array ``blank`` (the table's shape) is True are left empty.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2:
        raise ValueError(f"csv_rows needs a 2-D table, got shape {table.shape}")
    words = _render(table, blank).reshape(*table.shape, 5)
    if blank is not None:
        words[np.asarray(blank, dtype=bool)] = 0
    words[..., 4] |= _U(ord(",") << 56)
    words[:, -1, 4] ^= _U((ord(",") ^ ord("\n")) << 56)
    return words.astype("<u8", copy=False).tobytes().translate(None, b"\0").decode("ascii")


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


_TOKENS = np.frombuffer(b"-1 +1 ", dtype=np.uint8).reshape(2, 3)  # row [s > 0]


def symbols_to_line(symbols) -> str:
    """Render a +1/-1 symbol sequence (``+1`` for s > 0) as one text line."""
    positive = np.asarray(symbols) > 0
    return _TOKENS.take(positive.view(np.uint8), axis=0).tobytes()[:-1].decode("ascii")


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
        if self.probs.shape[-1:] != (2**self.length,):
            raise ValueError(
                f"expected {2**self.length} entries for length {self.length}, "
                f"got shape {self.probs.shape}"
            )
