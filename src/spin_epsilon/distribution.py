"""Exact probability tables over length-L strings of +1/-1 symbols."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

__all__ = ["FutureDistribution", "entropy_bits", "symbols_to_line", "format_float"]

# Symbol convention used throughout the package: index 0 <-> spin +1 <-> '+',
# index 1 <-> spin -1 <-> '-'.
SYMBOL_CHARS = "+-"


def symbol_string(index: int, length: int) -> str:
    """Render the index of a length-``length`` string, top bit first, as symbols: '+-+'."""
    return "".join(SYMBOL_CHARS[int(b)] for b in format(index, f"0{length}b"))


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering (round-trips float64 exactly)."""
    return f"{x:.17g}"


def entropy_bits(weights) -> float:
    """Shannon entropy in bits with the 0*log(0) = 0 convention.

    Tiny negative round-off in eigenvalue input is clipped to zero.
    """
    w = np.clip(np.asarray(weights, dtype=float), 0.0, 1.0)
    nz = w[w > 0.0]
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

    def string(self, index: int) -> str:
        """Render table index as a symbol string such as '+-+'."""
        return symbol_string(index, self.length)

    def marginalize_last(self) -> "FutureDistribution":
        """Sum out the final symbol, giving the length-(L-1) table."""
        if self.length < 2:
            raise ValueError("nothing left to marginalize below length 2")
        pairs = self.probs.reshape(*self.probs.shape[:-1], -1, 2)
        return FutureDistribution(self.length - 1, pairs.sum(axis=-1))

    def to_csv(self) -> str:
        """CSV dump of one table, with header ``string,probability``."""
        out = io.StringIO()
        out.write("string,probability\n")
        for i, prob in enumerate(self.probs):
            out.write(f"{self.string(i)},{format_float(float(prob))}\n")
        return out.getvalue()
